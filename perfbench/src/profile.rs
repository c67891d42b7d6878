//! PowerScope profiling of the four energymap scenarios, the part of
//! the `figures` workload that makes the per-path energy tables.
//!
//! A round profiles each scenario (fig2, fig13, goal, supervise) at the
//! seeds of [`PROFILE_SEEDS`]: the golden seed, whose per-path tables
//! must equal `tests/golden/energymap_*.txt` byte for byte, and the other
//! seeds the repository's reconciliation property is stated at. Each
//! profile is correlated flat and by call path and rendered; the flat
//! total, the path total and the benchmark's own integration of the raw
//! multimeter samples must agree. The profiles always run in the listed
//! order: the process's peak memory depends on the allocation sequence,
//! and a drawn order moved it by up to 20%.
//!
//! Set-up builds every scenario the way `energymap::collect` does — the
//! machine, its workload and the PowerScope session attached to it —
//! and the round runs what set-up built, so `setup_s` is construction
//! the round consumes. Every round's tables, sample counts and simulated
//! times must equal those `energymap::collect` itself produced before
//! timing. In the traced pass the same construction wraps the PowerScope
//! observer (and, in the goal scenario, the goal controller) in timing
//! decorators.
//!
//! The profiled seeds are fixed because a scenario's cost depends on its
//! seed (supervise varies by ±15% across seeds at an equal sample count):
//! seeds drawn from the workload seed would put the draw, not the code,
//! into the run-to-run spread that the benchmark's bounds gate.

use std::collections::BTreeMap;

use experiments::energymap;
use experiments::tracerec::{GOLDEN_SEED, SCENARIOS};
use experiments::{fig13, goalrig, supervise};
use machine::{FaultConfig, Machine, MachineConfig, RunReport};
use odyssey::{GoalConfig, GoalController, Hardening};
use odyssey_apps::datasets::{VideoClip, VIDEO_CLIPS, WEB_IMAGES};
use odyssey_apps::{VideoPlayer, VideoVariant, WebFidelity};
use powerscope::{correlate, correlate_paths, CollectedRun, PowerScope, SUPPLY_VOLTS};
use simcore::{SimDuration, SimRng, SimTime};
use simserve::Session;

use crate::harness::{Counters, Metric, PassShape, Round, Workload};
use crate::spans::Tracer;
use crate::stats::ratio;

/// Seeds profiled per round: the golden seed, then the other seeds
/// `tests/properties.rs` reconciles energy at.
pub const PROFILE_SEEDS: [u64; 3] = [GOLDEN_SEED, 1, 7];

/// The fig2 scenario's playback length, s (as `fig2::build_with`).
const FIG2_SECS: f64 = 30.0;

/// The goal scenario's energy and duration (as `energymap::collect`).
const GOAL_ENERGY_J: f64 = 3000.0;
const GOAL_SECS: u64 = 240;

/// Relative tolerance of the energy reconciliation: the three totals
/// integrate the same samples in different orders.
const RECONCILE_REL: f64 = 1e-9;

fn goal_config() -> GoalConfig {
    GoalConfig::paper(GOAL_ENERGY_J, SimDuration::from_secs(GOAL_SECS))
        .with_hardening(Hardening::standard())
}

/// What a built scenario runs on.
enum Runner {
    /// A machine run to completion, or to a horizon when one is given.
    Machine(Machine, Option<SimTime>),
    /// The goal scenario's machine adopted by a session, run to the
    /// horizon as `goalrig::finish` does.
    Session(Session, SimTime),
}

/// One scenario built and not yet run, with its PowerScope session.
struct Rig {
    scope: PowerScope,
    runner: Runner,
}

/// Builds `scenario` at `seed` as `energymap::collect` does, with the
/// hot callbacks decorated when `tracer` is enabled.
fn build(tracer: &mut Tracer, scenario: &str, seed: u64, inflation: f64) -> Result<Rig, String> {
    let (mut scope, observer) = PowerScope::new(seed);
    scope.set_resolver(odyssey_apps::call_path);
    let observer = tracer.observer("powerscope.observe", observer);
    let runner = match scenario {
        "fig2" => {
            let mut rng = SimRng::new(seed).fork("fig2");
            let clip = VideoClip {
                duration_s: FIG2_SECS,
                ..VIDEO_CLIPS[0]
            };
            let mut m = Machine::new(MachineConfig::baseline());
            m.add_observer(observer);
            m.add_process(Box::new(
                VideoPlayer::fixed(clip, VideoVariant::Full, &mut rng)
                    .with_decode_inflation(inflation),
            ));
            Runner::Machine(m, None)
        }
        "fig13" => {
            let mut rng = SimRng::new(seed).fork("fig13/trace");
            let mut m = fig13::build(
                WEB_IMAGES.to_vec(),
                WebFidelity::Jpeg50,
                true,
                5.0,
                &mut rng,
            );
            m.add_observer(observer);
            Runner::Machine(m, None)
        }
        "goal" => {
            let mut rng = SimRng::new(seed).fork("goal/trace");
            let cfg = goal_config();
            let rig = goalrig::build_composite_goal(&cfg, false, FaultConfig::clean(), &mut rng);
            let mut m = rig.machine;
            m.add_observer(observer);
            // As goalrig::finish, with the controller decorated.
            let period = cfg.sample_period;
            let (_handle, hook) = GoalController::new(cfg, rig.priorities);
            m.add_hook(period, tracer.hook("odyssey.goal.tick", hook));
            let session = Session::adopt(m).map_err(|e| format!("adopt: {e}"))?;
            Runner::Session(session, rig.horizon)
        }
        "supervise" => {
            let mut rng = SimRng::new(seed).fork_indexed("supervise/2", 0);
            let mut rig = supervise::build_one(2, true, &mut rng);
            rig.machine.add_observer(observer);
            Runner::Machine(rig.machine, Some(rig.horizon))
        }
        other => return Err(format!("unknown scenario {other}")),
    };
    Ok(Rig { scope, runner })
}

/// Runs a built scenario and collects its profile.
fn run(tracer: &mut Tracer, op: u64, rig: Rig) -> Result<(CollectedRun, RunReport), String> {
    let Rig { scope, runner } = rig;
    let report = match runner {
        Runner::Machine(mut m, None) => tracer.span("machine.run", op, |_| m.run()),
        Runner::Machine(mut m, Some(horizon)) => {
            tracer.span("machine.run", op, |_| m.run_until(horizon))
        }
        Runner::Session(mut session, horizon) => tracer
            .span("machine.run", op, |_| session.run_until(horizon))
            .map_err(|e| format!("run: {e}"))?,
    };
    let run = tracer.span("powerscope.into_run", op, |_| scope.into_run());
    Ok((run, report))
}

/// Energy of the raw multimeter samples, J: each sample's current held
/// until the next sample (the last until the trace end).
pub fn meter_total_j(run: &CollectedRun) -> f64 {
    let samples = &run.trace.samples;
    samples
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let next = samples.get(i + 1).map_or(run.trace.end.max(s.at), |n| n.at);
            s.current_a * SUPPLY_VOLTS * next.since(s.at).as_secs_f64()
        })
        .sum()
}

/// Correlates one collected profile, checks it, and counts it into
/// `round`. Returns its simulated seconds and multimeter samples.
fn examine(
    tracer: &mut Tracer,
    op: u64,
    (seed, scenario): (u64, &str),
    run: &CollectedRun,
    golden: &BTreeMap<&'static str, String>,
    round: &mut Round,
) -> (f64, u64) {
    let tag = format!("profile: {scenario} seed {seed}");
    let flat = tracer.span("powerscope.correlate", op, |_| correlate(run));
    let paths = tracer.span("powerscope.correlate_paths", op, |_| correlate_paths(run));
    let table = tracer.span("powerscope.format_table", op, |_| paths.format_table());
    let (f, p, m) = (
        flat.total_energy_j(),
        paths.total_energy_j(),
        meter_total_j(run),
    );
    let close = |a: f64, b: f64| (a - b).abs() <= RECONCILE_REL * a.abs().max(1.0);
    round.check(close(f, m) && close(p, m), || {
        format!("{tag}: totals disagree: flat {f} J, paths {p} J, meter {m} J")
    });
    if seed == GOLDEN_SEED {
        let want = golden.get(scenario).map_or("", String::as_str);
        round.check(table == want, || {
            format!("{tag}: table differs from tests/golden/energymap_{scenario}.txt")
        });
    }
    let samples = run.trace.samples.len() as u64;
    round.count(&format!("{scenario}.samples"), samples);
    round.count(&format!("{scenario}.sim_us"), run.trace.end.as_micros());
    round.count(&format!("{scenario}.table_bytes"), table.len() as u64);
    round.count(
        &format!("{scenario}.seed{seed}.table_digest"),
        crate::fnv1a(table.as_bytes()),
    );
    (run.trace.end.as_secs_f64(), samples)
}

/// The `profile` workload.
pub struct Profile {
    /// The round's profiles, as (seed, scenario).
    order: Vec<(u64, &'static str)>,
    inflation: f64,
    /// Golden table per scenario, from `tests/golden/`.
    golden: BTreeMap<&'static str, String>,
    /// Counters of `energymap::collect`'s own profiles, made before
    /// timing without inflation.
    reference: Counters,
    /// Rigs of the next round, in `order`, from the last set-up.
    rigs: Vec<Rig>,
    /// Simulated seconds one round advances.
    sim_s_per_round: f64,
    /// Multimeter samples one round collects.
    samples_per_round: u64,
    /// Netsim statistics over the traced pass.
    netsim: [u64; 3],
}

impl std::fmt::Debug for Profile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profile")
            .field("order", &self.order)
            .field("inflation", &self.inflation)
            .finish_non_exhaustive()
    }
}

impl Profile {
    /// Reads the golden tables and profiles every (seed, scenario) with
    /// `energymap::collect` for the reference counters. `inflation`
    /// scales the fig2 decode block in the timed rounds only, so anything
    /// but 1.0 must fail the checks.
    pub fn new(inflation: f64) -> Result<Profile, String> {
        let mut golden = BTreeMap::new();
        for scenario in SCENARIOS {
            let path = format!("tests/golden/energymap_{scenario}.txt");
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
            golden.insert(scenario, text);
        }
        let order: Vec<(u64, &'static str)> = PROFILE_SEEDS
            .iter()
            .flat_map(|&seed| SCENARIOS.iter().map(move |&k| (seed, k)))
            .collect();
        // A wrong output here fails the same checks again in every timed
        // round, so the reference's own verdicts are not needed.
        let mut reference = Round::default();
        let mut off = Tracer::new(false);
        for &(seed, scenario) in &order {
            let run = energymap::collect(scenario, seed, 1.0)?;
            examine(&mut off, 0, (seed, scenario), &run, &golden, &mut reference);
        }
        Ok(Profile {
            order,
            inflation,
            golden,
            reference: reference.counters,
            rigs: Vec::new(),
            sim_s_per_round: 0.0,
            samples_per_round: 0,
            netsim: [0; 3],
        })
    }
}

impl Workload for Profile {
    fn setup(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        // The previous rigs are freed only after the new ones are built,
        // so a set-up reuses their memory instead of the allocator
        // returning it to the kernel and faulting it back in.
        let mut rigs = Vec::with_capacity(self.order.len());
        for &(seed, scenario) in &self.order {
            let rig = build(tracer, scenario, seed, self.inflation)
                .map_err(|e| format!("profile: {scenario} seed {seed}: build: {e}"))?;
            rigs.push(rig);
        }
        self.rigs = rigs;
        Ok(())
    }

    fn round(&mut self, tracer: &mut Tracer) -> Round {
        let mut round = Round::default();
        let rigs = std::mem::take(&mut self.rigs);
        round.check(rigs.len() == self.order.len(), || {
            "profile: round without a set-up".to_string()
        });
        let mut sim_s = 0.0;
        let mut samples = 0;
        for (op, (&(seed, scenario), rig)) in self.order.iter().zip(rigs).enumerate() {
            let op = op as u64;
            let run = match run(tracer, op, rig) {
                Ok((run, r)) => {
                    self.netsim[0] += r.bytes_carried;
                    self.netsim[1] += r.rpc_timeouts;
                    self.netsim[2] += r.rpc_retries;
                    run
                }
                Err(e) => {
                    round.check(false, || format!("profile: {scenario} seed {seed}: {e}"));
                    continue;
                }
            };
            let (s, n) = examine(tracer, op, (seed, scenario), &run, &self.golden, &mut round);
            sim_s += s;
            samples += n;
        }
        self.sim_s_per_round = sim_s;
        self.samples_per_round = samples;
        round
    }

    fn reference(&self) -> Option<&Counters> {
        Some(&self.reference)
    }

    fn extra_metrics(&self, _run_s: f64) -> Vec<Metric> {
        Vec::new()
    }

    fn layer_metrics(&self, tracer: &Tracer, shape: PassShape) -> Vec<Metric> {
        let per = 1.0 / shape.rounds.max(1) as f64;
        let agg = |name: &str| {
            tracer.aggs().get(name).map_or((0.0, 0), |a| {
                (a.total_s() * per, (a.calls() as f64 * per) as u64)
            })
        };
        let (observe_s, intervals) = agg("powerscope.observe");
        let (tick_s, ticks) = agg("odyssey.goal.tick");
        let run_s = tracer.total_s("machine.run") * per;
        let machine_self_s = run_s - observe_s - tick_s;
        let samples = self.samples_per_round;
        let correlate_s = tracer.total_s("powerscope.correlate") * per;
        let paths_s = tracer.total_s("powerscope.correlate_paths") * per;
        let sim_s = self.sim_s_per_round;
        vec![
            Metric::new("machine.self_s", machine_self_s, "s"),
            Metric::new("machine.sim_s", sim_s, "s"),
            Metric::new(
                "machine.host_us_per_sim_s",
                ratio(machine_self_s * 1e6, sim_s),
                "us/s",
            ),
            Metric::new(
                "machine.run_until_calls",
                tracer.count("machine.run") as f64 * per,
                "count",
            ),
            Metric::new("powerscope.observe_s", observe_s, "s"),
            Metric::new("powerscope.intervals", intervals as f64, "count"),
            Metric::new("powerscope.samples", samples as f64, "count"),
            Metric::new(
                "powerscope.into_run_s",
                tracer.total_s("powerscope.into_run") * per,
                "s",
            ),
            Metric::new("powerscope.correlate_s", correlate_s, "s"),
            Metric::new("powerscope.correlate_paths_s", paths_s, "s"),
            Metric::new(
                "powerscope.format_table_s",
                tracer.total_s("powerscope.format_table") * per,
                "s",
            ),
            Metric::new(
                "powerscope.ns_per_sample",
                ratio((observe_s + correlate_s + paths_s) * 1e9, samples as f64),
                "ns",
            ),
            Metric::new("odyssey.goal.tick_s", tick_s, "s"),
            Metric::new("odyssey.goal.ticks", ticks as f64, "count"),
            Metric::new("netsim.bytes_carried", self.netsim[0] as f64 * per, "bytes"),
            Metric::new("netsim.rpc_timeouts", self.netsim[1] as f64 * per, "count"),
            Metric::new("netsim.rpc_retries", self.netsim[2] as f64 * per, "count"),
        ]
    }

    fn reset(&mut self) {
        self.netsim = [0; 3];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_pass;

    /// Two passes at one seed pass every check and reproduce the
    /// reference counters exactly; the seeded +2% decode inflation (the
    /// negative control) trips the golden table check and the counter
    /// check on fig2.
    #[test]
    fn counters_repeat_exactly_and_decode_inflation_trips_them() {
        // The golden tables are read from the repository root, as a run
        // from there reads them.
        std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).expect("cd");
        let mut reference = None;
        let mut p = Profile::new(1.0).expect("profile");
        for _ in 0..2 {
            let pass =
                run_pass(&mut p, &mut Tracer::new(false), 0.0, &mut reference).expect("pass");
            assert!(pass.failures.is_empty(), "{:?}", pass.failures);
        }

        let mut reference = None;
        let mut inflated = Profile::new(1.02).expect("profile");
        let pass =
            run_pass(&mut inflated, &mut Tracer::new(false), 0.0, &mut reference).expect("pass");
        let failures = pass.failures.join("\n");
        assert!(
            failures.contains("energymap_fig2.txt") && failures.contains("counter fig2."),
            "{failures}"
        );
        assert!(!failures.contains("fig13"), "{failures}");
    }

    /// The rigs set-up builds, traced or not, profile exactly as
    /// `energymap::collect` does.
    #[test]
    fn built_rigs_match_energymap_collect() {
        for enabled in [false, true] {
            let mut tracer = Tracer::new(enabled);
            for scenario in SCENARIOS {
                let rig = build(&mut tracer, scenario, 5, 1.0).expect("build");
                let (run, _) = run(&mut tracer, 0, rig).expect("run");
                let plain = energymap::collect(scenario, 5, 1.0).expect("plain");
                assert_eq!(
                    run.trace.samples.len(),
                    plain.trace.samples.len(),
                    "{scenario}"
                );
                assert_eq!(
                    correlate_paths(&run).format_table(),
                    correlate_paths(&plain).format_table(),
                    "{scenario}"
                );
            }
            if enabled {
                assert!(tracer.aggs()["powerscope.observe"].calls() > 0);
                assert!(tracer.aggs()["odyssey.goal.tick"].calls() > 0);
            }
        }
    }
}
