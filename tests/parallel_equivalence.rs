//! Parallel/serial equivalence: the simpar fan-out must be invisible.
//!
//! The work pool's determinism contract (DESIGN.md §13) says any
//! experiment routed through `simcore::par` produces byte-identical
//! results at every thread count, because trial streams are pure
//! functions of `(seed, label, index)` and merges happen in index
//! order. This suite drives the contract end to end: golden-trace
//! scenarios, the trial harness, the cell-level sweeps and every
//! Section 5 goal experiment fanned through `harness::fan`, each at
//! 1, 2, and 8 threads.

use std::fmt::Debug;

use experiments::harness::{run_trials, Trials};
use experiments::{
    ablate, benchcli, chaos, energymap, fig16, fig19, fig20, fig21, fig22, headline, sec54,
    supervise, tracerec,
};
use machine::workload::ScriptedWorkload;
use machine::{Machine, MachineConfig};
use simcore::{SimDuration, SimRng};

/// Thread counts the contract is exercised at: serial, the smallest
/// real fan-out, and more workers than this suite has jobs.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn quick() -> Trials {
    Trials {
        n: 2,
        seed: 42,
        threads: 1,
    }
}

/// Golden scenarios rendered through the bench digests: every scenario
/// digest is identical at every thread count.
#[test]
fn golden_scenarios_identical_across_thread_counts() {
    for scenario in benchcli::SCENARIOS {
        let serial = benchcli::digest(scenario, &quick());
        for threads in THREAD_COUNTS {
            assert_eq!(
                serial,
                benchcli::digest(scenario, &quick().with_threads(threads)),
                "{scenario} diverges at {threads} threads"
            );
        }
    }
}

/// Recorded golden traces are line-for-line identical no matter how the
/// surrounding harness is threaded (tracerec itself is single-machine;
/// this pins that the par feature being linked in changes nothing).
#[test]
fn golden_traces_replay_identically_with_pool_linked() {
    for scenario in tracerec::SCENARIOS {
        let a = tracerec::record(scenario, 42).unwrap();
        let b = tracerec::record(scenario, 42).unwrap();
        assert_eq!(a, b, "{scenario}: replay diverged");
        assert!(!a.is_empty());
    }
}

/// The trial harness merges reports in trial order at every thread
/// count, on a workload with real randomness in it.
#[test]
fn run_trials_reports_identical_across_thread_counts() {
    let build = |rng: &mut SimRng| {
        let mut m = Machine::new(MachineConfig::default());
        let jitter_s = rng.uniform(1.0, 3.0);
        m.add_process(Box::new(ScriptedWorkload::idle_for(
            "w",
            SimDuration::from_secs_f64(jitter_s),
        )));
        m
    };
    let trials = Trials {
        n: 6,
        seed: 7,
        threads: 1,
    };
    let serial: Vec<String> = run_trials(&trials, "pareq", build)
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    for threads in THREAD_COUNTS {
        let par: Vec<String> = run_trials(&trials.with_threads(threads), "pareq", build)
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        assert_eq!(serial, par, "reports diverge at {threads} threads");
    }
}

/// The chaos sweep's cell fan-out is order-stable: cells come back in
/// sweep order with identical contents at every thread count.
#[test]
fn chaos_sweep_identical_across_thread_counts() {
    let serial = format!(
        "{:?}",
        chaos::run_sweep(&quick(), &[0.0, 0.5], 600, 8_000.0).cells
    );
    for threads in THREAD_COUNTS {
        let par = format!(
            "{:?}",
            chaos::run_sweep(&quick().with_threads(threads), &[0.0, 0.5], 600, 8_000.0).cells
        );
        assert_eq!(serial, par, "chaos cells diverge at {threads} threads");
    }
}

/// Same for the supervision sweep.
#[test]
fn supervise_sweep_identical_across_thread_counts() {
    let trials = Trials {
        n: 1,
        seed: 42,
        threads: 1,
    };
    let serial = format!("{:?}", supervise::run_sweep(&trials, &[0, 2]).cells);
    for threads in THREAD_COUNTS {
        let par = format!(
            "{:?}",
            supervise::run_sweep(&trials.with_threads(threads), &[0, 2]).cells
        );
        assert_eq!(serial, par, "supervise cells diverge at {threads} threads");
    }
}

/// A full rendered figure (table text, captions, everything) is
/// byte-identical serial vs parallel — the user-visible guarantee the
/// `--threads` flag documents.
#[test]
fn rendered_figure_bytes_identical_across_thread_counts() {
    let serial = fig16::render(&quick());
    for threads in THREAD_COUNTS {
        assert_eq!(
            serial,
            fig16::render(&quick().with_threads(threads)),
            "fig16 rendering diverges at {threads} threads"
        );
    }
}

/// Per-call-path energy tables are byte-identical at every thread
/// count: `energymap::render_all` fans the four scenarios out over the
/// pool, and each scenario's profile is a pure function of its seed.
#[test]
fn energymap_tables_identical_across_thread_counts() {
    let [serial_threads, ref fanned @ ..] = THREAD_COUNTS;
    let serial = energymap::render_all(serial_threads).expect("serial energymap render");
    assert_eq!(serial.len(), tracerec::SCENARIOS.len());
    for &threads in fanned {
        let parallel = energymap::render_all(threads).expect("parallel energymap render");
        for ((s_name, s_table), (p_name, p_table)) in serial.iter().zip(&parallel) {
            assert_eq!(
                s_name, p_name,
                "scenario order diverged at {threads} threads"
            );
            assert_eq!(
                s_table, p_table,
                "{s_name}: energymap table diverges at {threads} threads"
            );
        }
    }
}

/// Runs `run` serially and at every thread count and asserts the
/// results are byte-identical (compared through their full `Debug`
/// rendering, so every field and every float bit participates).
fn assert_identical_across_thread_counts<T: Debug>(what: &str, run: impl Fn(&Trials) -> T) {
    let serial = format!("{:?}", run(&quick()));
    for threads in THREAD_COUNTS {
        assert_eq!(
            serial,
            format!("{:?}", run(&quick().with_threads(threads))),
            "{what} diverges at {threads} threads"
        );
    }
}

/// Figure 19 fans its goals (one run each) across the pool.
#[test]
fn fig19_identical_across_thread_counts() {
    assert_identical_across_thread_counts("fig19", |t| fig19::run_goals(t, &fig19::GOALS_S));
}

/// Figure 20 fans every (goal, trial) run across the pool.
#[test]
fn fig20_identical_across_thread_counts() {
    assert_identical_across_thread_counts("fig20", |t| {
        fig20::run_goals(t, &[1200, 1560], fig19::INITIAL_ENERGY_J)
    });
}

/// Figure 21 fans every (half-life, trial) run across the pool.
#[test]
fn fig21_identical_across_thread_counts() {
    assert_identical_across_thread_counts("fig21", |t| fig21::run_half_lives(t, &[0.01, 0.10]));
}

/// Figure 22 fans its bursty trials across the pool.
#[test]
fn fig22_identical_across_thread_counts() {
    assert_identical_across_thread_counts("fig22", |t| {
        fig22::run_config(t, 900, fig22::INITIAL_ENERGY_J)
    });
}

/// Section 5.4 fans its long-goal trials across the pool (scaled to a
/// sixth of every duration, as its own test does).
#[test]
fn sec54_identical_across_thread_counts() {
    assert_identical_across_thread_counts("sec54", |t| {
        sec54::run_config(t, 18_500.0, 1_650, 600, 1_950)
    });
}

/// The controller ablations fan their four variants across the pool.
#[test]
fn ablate_identical_across_thread_counts() {
    assert_identical_across_thread_counts("ablate", ablate::run);
}

/// The headline aggregates fig16's cost-hinted cell dispatch.
#[test]
fn headline_identical_across_thread_counts() {
    assert_identical_across_thread_counts("headline", headline::run);
}
