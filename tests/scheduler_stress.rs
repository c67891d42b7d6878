//! Scheduler torture: the chunked self-scheduling pool must be
//! invisible in the output under adversarial shapes.
//!
//! Every case runs serially first, then at thread counts {1, 2, 3, 4, 8}
//! with spawning forced via `assume_parallelism` (a single-core CI host
//! would otherwise — correctly — take the inline path and the claiming
//! machinery would never execute). Shapes covered: empty input, a
//! single item, item counts straddling the worker count (threads ± 1),
//! and a heavy/light skewed-cost workload where one in seven jobs costs ~100× the rest. The harness
//! trial fan-out rides the same gauntlet end to end.
//!
//! Each run's PoolStats is appended to `target/scheduler_stress/` so a
//! failing CI job can upload the scheduling decisions next to the
//! assertion message.

use std::fmt::Write as _;

use experiments::harness::{run_trials, Trials};
use machine::workload::ScriptedWorkload;
use machine::{Machine, MachineConfig};
use simcore::{SimDuration, SimRng};
use simpar::{PoolConfig, PoolStats};

/// Thread counts the torture grid runs at.
const THREADS: [usize; 5] = [1, 2, 3, 4, 8];

/// Accumulates one line per dispatch; flushed to the dump file at the
/// end of each test so a red CI job can archive the decisions.
struct StatsDump {
    name: &'static str,
    lines: String,
}

impl StatsDump {
    fn new(name: &'static str) -> Self {
        StatsDump {
            name,
            lines: String::new(),
        }
    }

    fn push(&mut self, case: &str, stats: &PoolStats) {
        let _ = writeln!(
            self.lines,
            "{}: items={} threads={} workers={} inline={} chunks={} per_worker_items={:?}",
            case,
            stats.items,
            stats.requested_threads,
            stats.workers_spawned,
            stats.inline,
            stats.chunks_claimed(),
            stats.per_worker_items,
        );
    }

    fn flush(&self) {
        let dir = std::path::Path::new("target/scheduler_stress");
        if std::fs::create_dir_all(dir).is_ok() {
            let _ = std::fs::write(dir.join(format!("{}.txt", self.name)), &self.lines);
        }
    }
}

/// A deterministic job with skewed cost: every seventh job grinds a
/// splitmix-style integer hash ~100× longer than its siblings. The
/// value depends on every iteration, so the work cannot be elided.
fn skewed_job(i: usize) -> u64 {
    let rounds = if i.is_multiple_of(7) { 10_000 } else { 100 };
    let mut x = i as u64 ^ 0x9e37_79b9_7f4a_7c15;
    for _ in 0..rounds {
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9) ^ (x >> 27);
    }
    x
}

/// The adversarial item counts for a given worker count: empty, single,
/// and straddling the worker count.
fn adversarial_ns(threads: usize) -> Vec<usize> {
    let mut ns = vec![0, 1, threads.saturating_sub(1), threads, threads + 1];
    ns.sort_unstable();
    ns.dedup();
    ns
}

/// `map_indexed` under the full grid: every (threads, n) cell is
/// byte-identical to the serial reference.
#[test]
fn map_indexed_identical_under_adversarial_shapes() {
    let mut dump = StatsDump::new("map_indexed");
    for threads in THREADS {
        for n in adversarial_ns(threads) {
            let serial: Vec<u64> = (0..n).map(skewed_job).collect();
            let cfg = PoolConfig::new(threads).assume_parallelism(threads.max(2));
            let (par, stats) = simpar::map_indexed_stats(&cfg, n, skewed_job);
            dump.push(&format!("threads={threads} n={n}"), &stats);
            assert_eq!(
                serial, par,
                "map_indexed diverges at threads={threads} n={n}"
            );
        }
    }
    dump.flush();
}

/// `map` over a slice (the item-borrowing wrapper) under the same grid,
/// with the skewed-cost job keyed off the item value rather than the
/// index so the borrow path is exercised too.
#[test]
fn map_identical_under_adversarial_shapes() {
    let mut dump = StatsDump::new("map");
    for threads in THREADS {
        for n in adversarial_ns(threads) {
            let items: Vec<u64> = (0..n as u64).map(|v| v * 13 + 5).collect();
            let serial: Vec<u64> = items
                .iter()
                .enumerate()
                .map(|(i, &v)| skewed_job(i).wrapping_add(v))
                .collect();
            let cfg = PoolConfig::new(threads).assume_parallelism(threads.max(2));
            let (par, stats) =
                simpar::map_stats(&cfg, &items, |i, &v| skewed_job(i).wrapping_add(v));
            dump.push(&format!("threads={threads} n={n}"), &stats);
            assert_eq!(serial, par, "map diverges at threads={threads} n={n}");
        }
    }
    dump.flush();
}

/// The harness trial fan-out — real machines, real RNG forks — is
/// byte-identical across the full thread grid, including counts that
/// straddle the trial count. Trial durations are randomized so the
/// workload is naturally skewed.
#[test]
fn run_trials_identical_across_thread_grid() {
    let build = |rng: &mut SimRng| {
        let mut m = Machine::new(MachineConfig::default());
        let jitter_s = rng.uniform(1.0, 4.0);
        m.add_process(Box::new(ScriptedWorkload::idle_for(
            "stress",
            SimDuration::from_secs_f64(jitter_s),
        )));
        m
    };
    // 5 trials: straddles threads=4 (n > w) and threads=8 (n < w).
    let trials = Trials {
        n: 5,
        seed: 1999,
        threads: 1,
    };
    let serial: Vec<String> = run_trials(&trials, "schedstress", build)
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    for threads in THREADS {
        let par: Vec<String> = run_trials(&trials.with_threads(threads), "schedstress", build)
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        assert_eq!(serial, par, "harness reports diverge at {threads} threads");
    }
}

/// Single-trial and empty-adjacent harness shapes: the inline fallback
/// must produce the same bytes the spawning path does.
#[test]
fn run_trials_single_trial_matches_any_thread_count() {
    let build = |rng: &mut SimRng| {
        let mut m = Machine::new(MachineConfig::default());
        let jitter_s = rng.uniform(0.5, 1.5);
        m.add_process(Box::new(ScriptedWorkload::idle_for(
            "solo",
            SimDuration::from_secs_f64(jitter_s),
        )));
        m
    };
    let trials = Trials {
        n: 1,
        seed: 7,
        threads: 1,
    };
    let serial = format!("{:?}", run_trials(&trials, "solostress", build));
    for threads in THREADS {
        let par = format!(
            "{:?}",
            run_trials(&trials.with_threads(threads), "solostress", build)
        );
        assert_eq!(serial, par, "single trial diverges at {threads} threads");
    }
}
