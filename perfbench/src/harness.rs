//! The measurement loop shared by every workload.
//!
//! A pass sets the workload up a few times (timing each), then runs
//! rounds until the time budget is spent. A round re-runs the same
//! seeded inputs, so every round must produce the same deterministic
//! counters; the first reference (from the workload's own expected-value
//! computation, or else the first round) is what later rounds, and the
//! traced pass, are checked against.

use std::collections::BTreeMap;

use bench::Stopwatch;

use crate::procfs;
use crate::spans::Tracer;
use crate::stats;

/// Deterministic work counters of one round, by name.
pub type Counters = BTreeMap<String, u64>;

/// Set-up repetitions before the timed phase.
pub const SETUP_REPS: usize = 11;

/// Set-up repetitions before each round (the last one is what the round
/// uses). A set-up takes microseconds, and the host's speed drifts over
/// seconds; spreading the repetitions over the whole run makes the
/// median stand for the run rather than for its first milliseconds, and
/// a batch this size keeps the first, cold repetitions after a round
/// away from the median.
pub const SETUP_REPS_PER_ROUND: usize = 21;

/// One named figure with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as it appears in the output and `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `count`.
    pub unit: &'static str,
    /// Free text printed beside the value (sample counts).
    pub note: String,
}

impl Metric {
    /// A metric without a note.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            note: String::new(),
        }
    }

    /// The same metric with a note printed beside it.
    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// What one round reports besides its timing.
#[derive(Debug, Default)]
pub struct Round {
    /// Operations attempted.
    pub attempted: u64,
    /// One message per failed operation or wrong output.
    pub failures: Vec<String>,
    /// Deterministic counters, checked exactly against the reference.
    pub counters: Counters,
}

impl Round {
    /// Records one attempted operation and whether it failed.
    pub fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(failure());
        }
    }

    /// Adds `n` to counter `name`.
    pub fn count(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }
}

/// Round and set-up counts of a pass, for per-round layer figures.
#[derive(Clone, Copy, Debug)]
pub struct PassShape {
    /// Timed rounds.
    pub rounds: usize,
    /// Set-up calls.
    pub setups: usize,
}

/// One workload of the benchmark.
pub trait Workload {
    /// Builds what a round needs before it starts (sessions, rigs).
    /// Timed as `setup_s`; `tracer` is enabled in the traced pass.
    fn setup(&mut self, tracer: &mut Tracer) -> Result<(), String>;

    /// Runs the seeded inputs once.
    fn round(&mut self, tracer: &mut Tracer) -> Round;

    /// Counters every round must reproduce, when the workload computed
    /// them ahead of the timed phase.
    fn reference(&self) -> Option<&Counters> {
        None
    }

    /// End-to-end metrics only this workload has, given the pass's
    /// median round time.
    fn extra_metrics(&self, run_s: f64) -> Vec<Metric>;

    /// Per-layer metrics from a traced pass.
    fn layer_metrics(&self, tracer: &Tracer, shape: PassShape) -> Vec<Metric>;

    /// Forgets the per-pass accumulators before the next pass.
    fn reset(&mut self);
}

/// Everything one pass measured.
#[derive(Debug)]
pub struct Pass {
    /// Set-up times, s.
    pub setup_s: Vec<f64>,
    /// Wall time of each round, s.
    pub round_s: Vec<f64>,
    /// Process CPU time over all rounds, s.
    pub cpu_total_s: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Failure messages.
    pub failures: Vec<String>,
    /// Counters of the first round.
    pub counters: Counters,
    /// Peak resident memory at the end of the pass, MB.
    pub peak_rss_mb: f64,
}

impl Pass {
    /// Median round time, s.
    pub fn run_s(&self) -> f64 {
        stats::median(&self.round_s).unwrap_or(0.0)
    }

    /// Median set-up time, s.
    pub fn setup_median_s(&self) -> f64 {
        stats::median(&self.setup_s).unwrap_or(0.0)
    }

    /// Mean CPU time per round, s. CPU time is read in 10 ms clock
    /// ticks, so the total over all rounds divided by the round count
    /// resolves it far better than a per-round median could.
    pub fn cpu_s(&self) -> f64 {
        self.cpu_total_s / self.round_s.len().max(1) as f64
    }

    /// The shape of this pass.
    pub fn shape(&self) -> PassShape {
        PassShape {
            rounds: self.round_s.len(),
            setups: self.setup_s.len(),
        }
    }

    /// The four end-to-end metrics every workload reports.
    pub fn common_metrics(&self) -> Vec<Metric> {
        let rounds = self.round_s.len();
        vec![
            Metric::new("setup_s", self.setup_median_s(), "s")
                .note(format!("median of {}", self.setup_s.len())),
            Metric::new("run_s", self.run_s(), "s").note(format!("median of {rounds} rounds")),
            Metric::new("cpu_s", self.cpu_s(), "s").note(format!("mean of {rounds} rounds")),
            Metric::new("peak_rss_mb", self.peak_rss_mb, "MB"),
        ]
    }

    /// Failed operations over attempted ones.
    pub fn failed_frac(&self) -> Metric {
        let failed = self.failures.len() as u64;
        Metric::new(
            "failed_frac",
            failed as f64 / self.attempted.max(1) as f64,
            "ratio",
        )
        .note(format!("{failed} of {}", self.attempted))
    }
}

/// Runs one pass of `w`: [`SETUP_REPS`] set-ups, then rounds (each
/// preceded by [`SETUP_REPS_PER_ROUND`] set-ups) until `budget_s` would
/// be exceeded; at least one round always runs. Every round's counters are checked against
/// `reference`, which the first round fills when it is empty.
// simlint: allow(P1) — the pass loop measures host time by design; no
// simulation result depends on it
pub fn run_pass(
    w: &mut dyn Workload,
    tracer: &mut Tracer,
    budget_s: f64,
    reference: &mut Option<Counters>,
) -> Result<Pass, String> {
    w.reset();
    if reference.is_none() {
        *reference = w.reference().cloned();
    }
    let clock = Stopwatch::start();
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPS {
        setup_s.push(timed_setup(w, tracer)?);
    }
    let mut pass = Pass {
        setup_s,
        round_s: Vec::new(),
        cpu_total_s: 0.0,
        attempted: 0,
        failures: Vec::new(),
        counters: Counters::new(),
        peak_rss_mb: 0.0,
    };
    loop {
        if !pass.round_s.is_empty() {
            let next_s = pass.run_s() + pass.setup_median_s();
            if clock.elapsed_s() + next_s > budget_s {
                break;
            }
            for _ in 0..SETUP_REPS_PER_ROUND {
                pass.setup_s.push(timed_setup(w, tracer)?);
            }
        }
        let cpu0 = procfs::cpu_s()?;
        let sw = Stopwatch::start();
        let round = w.round(tracer);
        pass.round_s.push(sw.elapsed_s());
        pass.cpu_total_s += procfs::cpu_s()? - cpu0;
        // The round's counter check is one more checked operation.
        pass.attempted += round.attempted + 1;
        pass.failures.extend(round.failures);
        match reference {
            None => *reference = Some(round.counters.clone()),
            Some(want) => {
                let diff = counter_mismatches(want, &round.counters);
                if !diff.is_empty() {
                    pass.failures.push(diff.join("; "));
                }
            }
        }
        if pass.counters.is_empty() {
            pass.counters = round.counters;
        }
    }
    pass.peak_rss_mb = procfs::peak_rss_mb()?;
    Ok(pass)
}

/// Times one set-up call, s.
// simlint: allow(P1) — set-up timing is host time by design
fn timed_setup(w: &mut dyn Workload, tracer: &mut Tracer) -> Result<f64, String> {
    let sw = Stopwatch::start();
    w.setup(tracer)?;
    Ok(sw.elapsed_s())
}

/// One message per counter that differs between `want` and `got`.
pub fn counter_mismatches(want: &Counters, got: &Counters) -> Vec<String> {
    let mut out = Vec::new();
    for (name, w) in want {
        match got.get(name) {
            Some(g) if g == w => {}
            Some(g) => out.push(format!("counter {name}: {g} != reference {w}")),
            None => out.push(format!("counter {name}: missing, reference {w}")),
        }
    }
    for name in got.keys().filter(|n| !want.contains_key(*n)) {
        out.push(format!("counter {name}: not in the reference"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_check_is_exact_and_names_every_difference() {
        let want: Counters = [("a".to_string(), 1), ("b".to_string(), 2)].into();
        assert!(counter_mismatches(&want, &want.clone()).is_empty());
        let got: Counters = [("a".to_string(), 1), ("c".to_string(), 2)].into();
        let msgs = counter_mismatches(&want, &got);
        assert_eq!(msgs.len(), 2, "{msgs:?}");
        let off: Counters = [("a".to_string(), 1), ("b".to_string(), 3)].into();
        assert_eq!(counter_mismatches(&want, &off).len(), 1);
    }
}
