//! Shared experiment plumbing.
//!
//! The paper reports each bar as "the mean of five trials" (ten for the
//! map and web applications) with 90% confidence intervals. A [`Trials`]
//! carries the trial count, master seed, and worker-thread count;
//! [`run_trials`] executes a machine-builder closure once per trial with
//! a trial-specific random stream and reduces the reports.
//!
//! Trials are independent by construction — trial `i`'s stream is a pure
//! function of `(seed, label, i)` — so [`fan`] runs every *(cell, trial)*
//! of a sweep as one [`simcore::par`] dispatch and merges results in
//! cell and trial order. [`run_trials`] and every sweep of the
//! evaluation go through it. The parallel run is byte-identical to the
//! serial one at any thread count (`tests/parallel_equivalence.rs` pins
//! this).
//!
//! Every trial executes through the [`simserve::Session`] batch API
//! ([`Session::adopt`]), so the harness and the always-on `serve` mode
//! share one engine: a batch trial is just a session nobody reconfigures.

use machine::{Machine, RunReport};
use simcore::{SimRng, TrialStats};
use simserve::Session;

/// Trial configuration for an experiment.
#[derive(Clone, Copy, Debug)]
pub struct Trials {
    /// Number of repetitions per data point.
    pub n: usize,
    /// Master seed; trial `i` runs with stream `fork_indexed(label, i)`.
    pub seed: u64,
    /// Worker threads for trial/cell fan-out (1 = serial; results are
    /// byte-identical at any value).
    pub threads: usize,
}

impl Default for Trials {
    fn default() -> Self {
        Trials {
            n: 5,
            seed: 42,
            threads: 1,
        }
    }
}

impl Trials {
    /// A quick configuration for tests and benches: two trials.
    pub fn quick() -> Self {
        Trials {
            n: 2,
            ..Trials::default()
        }
    }

    /// A single deterministic trial (traces, profiles).
    pub fn single() -> Self {
        Trials {
            n: 1,
            ..Trials::default()
        }
    }

    /// The same configuration fanned out over `threads` workers.
    pub fn with_threads(self, threads: usize) -> Self {
        Trials {
            threads: threads.max(1),
            ..self
        }
    }
}

/// Runs `job(cell, i)` for every trial `i` of every cell as one pool
/// dispatch and returns each cell's results in trial order.
///
/// This is the evaluation's one fan-out: the unit of work is a single
/// *(cell, trial)* run, so a sweep of a few cells still keeps every
/// worker busy, and the index-ordered merge hands each cell its trials
/// in order — byte-identical to the serial loop at any thread count.
/// Jobs must derive their random stream purely from `(seed, label, i)`
/// (e.g. `root.fork_indexed(label, i)`), so no job can see another's
/// draws. Runs are few, expensive and skewed in cost; the pool's guided
/// chunks shrink to single runs at the tail, so a worker stuck on a
/// long one never holds many undone runs hostage. Jobs should return only
/// what the reducer reads, so finished runs are not all held at once.
pub fn fan<C: Sync, R: Send>(
    trials: &Trials,
    cells: &[C],
    job: impl Fn(&C, usize) -> R + Sync,
) -> Vec<Vec<R>> {
    let n = trials.n;
    let cfg = simcore::par::PoolConfig::new(trials.threads);
    let (runs, _) =
        simcore::par::map_indexed_stats(&cfg, cells.len() * n, |j| job(&cells[j / n], j % n));
    let mut runs = runs.into_iter();
    cells
        .iter()
        .map(|_| runs.by_ref().take(n).collect())
        .collect()
}

/// Runs `build` once per trial and returns all reports, in trial order.
///
/// `label` isolates this experiment's random streams from others sharing
/// the master seed. Trial `i` runs on `fork_indexed(label, i)` of the
/// master — a pure function of `(seed, label, i)` — so neither the trial
/// count nor the execution order (serial or parallel) can perturb the
/// draws any trial sees. Trials fan out through [`fan`] as one cell.
pub fn run_trials(
    trials: &Trials,
    label: &str,
    build: impl Fn(&mut SimRng) -> Machine + Sync,
) -> Vec<RunReport> {
    let root = SimRng::new(trials.seed);
    let mut cells = fan(trials, &[()], |_, i| {
        let mut rng = root.fork_indexed(label, i as u64);
        let machine = build(&mut rng);
        #[expect(
            clippy::expect_used,
            reason = "adopt/run on a fresh session cannot fail"
        )]
        let mut session = Session::adopt(machine).expect("adopt fresh machine");
        #[expect(
            clippy::expect_used,
            reason = "first run of a fresh session cannot fail"
        )]
        session.run_to_completion().expect("run adopted session")
    });
    cells.pop().unwrap_or_default()
}

/// Statistics of `value` over a cell's runs, in trial order.
pub fn trial_stats<T>(runs: &[T], value: impl Fn(&T) -> f64) -> TrialStats {
    let values: Vec<f64> = runs.iter().map(value).collect();
    TrialStats::from_values(&values)
}

/// Total-energy statistics over a set of reports.
pub fn energy_stats(reports: &[RunReport]) -> TrialStats {
    let values: Vec<f64> = reports.iter().map(|r| r.total_j).collect();
    TrialStats::from_values(&values)
}

/// Mean energy attributed to `bucket` across reports, J.
pub fn mean_bucket_j(reports: &[RunReport], bucket: &str) -> f64 {
    reports.iter().map(|r| r.bucket_j(bucket)).sum::<f64>() / reports.len() as f64
}

/// Mean display energy across reports, J (for zoned-backlight projection).
pub fn mean_display_j(reports: &[RunReport]) -> f64 {
    reports.iter().map(|r| r.components.display_j).sum::<f64>() / reports.len() as f64
}

/// Percentage saving of `new` relative to `old`.
pub fn saving_pct(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        0.0
    } else {
        (1.0 - new / old) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::workload::ScriptedWorkload;
    use machine::MachineConfig;
    use simcore::SimDuration;

    fn build_idle(_rng: &mut SimRng) -> Machine {
        let mut m = Machine::new(MachineConfig::baseline());
        m.add_process(Box::new(ScriptedWorkload::idle_for(
            "w",
            SimDuration::from_secs(2),
        )));
        m
    }

    #[test]
    fn run_trials_produces_n_reports() {
        let reports = run_trials(&Trials::quick(), "t", build_idle);
        assert_eq!(reports.len(), 2);
        let stats = energy_stats(&reports);
        assert!((stats.mean - 2.0 * 10.28).abs() < 0.1);
        assert!(stats.sd < 0.01, "idle runs are deterministic");
    }

    #[test]
    fn trials_are_reproducible() {
        let a = energy_stats(&run_trials(&Trials::default(), "x", build_idle));
        let b = energy_stats(&run_trials(&Trials::default(), "x", build_idle));
        assert_eq!(a.mean, b.mean);
    }

    /// Regression (fork hoist): trial `i` sees the same random stream no
    /// matter how many trials run alongside it — adding trials (or
    /// parallelism) must never shift an existing trial's draws.
    #[test]
    fn trial_streams_independent_of_trial_count() {
        let few = run_trials(
            &Trials {
                n: 2,
                ..Trials::default()
            },
            "ind",
            build_idle,
        );
        let many = run_trials(
            &Trials {
                n: 5,
                ..Trials::default()
            },
            "ind",
            build_idle,
        );
        for (i, (a, b)) in few.iter().zip(many.iter()).enumerate() {
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "trial {i} drifted when n grew from 2 to 5"
            );
        }
    }

    /// The parallel fan-out merges in trial order: reports are
    /// byte-identical to the serial run at every thread count.
    #[test]
    fn parallel_reports_match_serial() {
        let serial = run_trials(&Trials::default(), "par", build_idle);
        for threads in [2, 4, 8] {
            let par = run_trials(&Trials::default().with_threads(threads), "par", build_idle);
            assert_eq!(serial.len(), par.len());
            for (i, (a, b)) in serial.iter().zip(par.iter()).enumerate() {
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "trial {i} differs at threads={threads}"
                );
            }
        }
    }

    #[test]
    fn with_threads_clamps_to_one() {
        assert_eq!(Trials::default().with_threads(0).threads, 1);
        assert_eq!(Trials::default().with_threads(6).threads, 6);
    }

    #[test]
    fn saving_pct_basics() {
        assert!((saving_pct(100.0, 90.0) - 10.0).abs() < 1e-12);
        assert_eq!(saving_pct(0.0, 5.0), 0.0);
        assert!(saving_pct(100.0, 120.0) < 0.0);
    }

    #[test]
    fn bucket_mean() {
        let reports = run_trials(&Trials::quick(), "b", build_idle);
        let idle = mean_bucket_j(&reports, "Idle");
        assert!((idle - 2.0 * 10.28).abs() < 0.1);
        assert_eq!(mean_bucket_j(&reports, "none"), 0.0);
    }
}
