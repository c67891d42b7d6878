#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        reason = "tests assert the exact values a deterministic run reproduces"
    )
)]
//! Benchmark support: a dependency-free timing harness for the per-figure
//! benches in `benches/`, and [`Stopwatch`] — the workspace's single
//! sanctioned wall-clock source.
//!
//! Each bench target regenerates one table or figure of the paper with a
//! reduced trial count, so `cargo bench` doubles as an end-to-end check
//! that every experiment still runs and as a performance baseline for the
//! simulator itself. The harness is deliberately minimal (no external
//! crates): it warms up, runs a fixed number of timed iterations, and
//! prints min/mean/max wall-clock times.
//!
//! Everything inside the simulation reads time from `simcore::SimTime`;
//! the workspace's clippy configuration bans `std::time` there, and
//! simlint rule P1 makes the ban transitive over the call graph.
//! Measuring how long the simulator itself takes is the one legitimate
//! wall-clock use, so it is concentrated here, behind `#[expect]`s that
//! this doc comment justifies; callers that time real execution carry
//! their own P1 waivers. The sweep module also parses committed
//! `bench_sweep/v2` baselines back in and compares speedups, powering
//! the `bench --check` regression gate.

/// The workspace's single sanctioned wall-clock escape hatch: measures real elapsed time for benches and CLI progress lines.
/// Simulation code must never touch it — simulated time is `SimTime`.
#[derive(Copy, Debug)]
pub struct Stopwatch {
    #[expect(
        clippy::disallowed_types,
        reason = "this type IS the sanctioned wall-clock source"
    )]
    t0: std::time::Instant,
}

// Written out because `derive(Clone)` names the field's type again.
impl Clone for Stopwatch {
    fn clone(&self) -> Self {
        *self
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Stopwatch::start()
    }
}

impl Stopwatch {
    /// Starts timing now (in real time).
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "the one place the workspace reads the wall clock"
    )]
    pub fn start() -> Self {
        Stopwatch {
            t0: std::time::Instant::now(),
        }
    }

    /// Seconds of real time since [`Stopwatch::start`].
    pub fn elapsed_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }
}

/// Times `f` over `iters` iterations (after one warm-up call) and prints
/// a one-line summary. Use `std::hint::black_box` inside `f` to keep the
/// optimizer honest.
pub fn run_bench(name: &str, iters: usize, mut f: impl FnMut()) {
    assert!(iters > 0, "bench needs at least one iteration");
    f(); // warm-up
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let sw = Stopwatch::start();
        f();
        samples.push(sw.elapsed_s());
    }
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(0.0f64, f64::max);
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    println!("{name}: mean {mean:.4} s, min {min:.4} s, max {max:.4} s ({iters} iters)");
}

pub mod sweep;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_bench_executes_the_closure() {
        let mut n = 0usize;
        run_bench("noop", 3, || n += 1);
        assert_eq!(n, 4, "warm-up plus three timed iterations");
    }

    #[test]
    fn stopwatch_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_s();
        let b = sw.elapsed_s();
        assert!(a >= 0.0 && b >= a);
    }
}
