//! `figures`: regenerate the paper's evaluation, one figure at a time.
//!
//! Each of the 20 ids of `odyssey-experiments all` is rendered through
//! its public `render(&Trials)` at the committed evaluation's trial
//! configuration (five trials, seed 42) with one worker per core and no
//! outer fan-out, so the process never runs more threads than cores.
//! Every output is compared byte for byte with `results/<id>.txt`,
//! read at run time. The inputs are the committed evaluation, so the
//! workload seed draws nothing here: the ids render in their listed
//! order, because a drawn order moved the process's peak memory by up
//! to 20% through the allocator's reuse of freed memory.
//!
//! After the renders, a round profiles the four energymap scenarios
//! with PowerScope ([`Profile`]), which makes the evaluation's per-path
//! energy tables. That part is about a tenth of the round. It is memory
//! bound and single-threaded, and as a workload of its own on a shared
//! 2-vCPU VM its median moved by a third between two sets of runs; as a
//! tenth of this round it moves the round by a tenth of that.
//!
//! Set-up builds the render plan, each id in order with its trial
//! configuration, and the profiled scenarios' rigs. `render` builds and
//! runs its own rigs, so their construction is in `run_s`.

use experiments::harness::Trials;
use experiments::*;

use crate::harness::{Counters, Metric, PassShape, Round, Workload};
use crate::procfs;
use crate::profile::Profile;
use crate::spans::Tracer;
use crate::stats::ratio;

/// The ids `odyssey-experiments all` renders, in its order.
pub const FIGURE_IDS: [&str; 20] = [
    "fig2",
    "fig4",
    "fig6",
    "fig8",
    "fig10",
    "fig11",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig18",
    "fig19",
    "fig20",
    "fig21",
    "fig22",
    "sec54",
    "headline",
    "ablate",
    "chaos",
    "supervise",
];

/// Renders one figure, as the CLI does.
fn render(id: &str, trials: &Trials) -> Option<String> {
    Some(match id {
        "fig2" => fig2::render(trials),
        "fig4" => fig4::render(),
        "fig6" => fig6::render(trials),
        "fig8" => fig8::render(trials),
        "fig10" => fig10::render(trials),
        "fig11" => fig11::render(trials),
        "fig13" => fig13::render(trials),
        "fig14" => fig14::render(trials),
        "fig15" => fig15::render(trials),
        "fig16" => fig16::render(trials),
        "fig18" => fig18::render(trials),
        "fig19" => fig19::render(trials),
        "fig20" => fig20::render(trials),
        "fig21" => fig21::render(trials),
        "fig22" => fig22::render(trials),
        "sec54" => sec54::render(trials),
        "headline" => headline::render(trials),
        "ablate" => ablate::render(trials),
        "chaos" => chaos::render(trials),
        "supervise" => supervise::render(trials),
        _ => return None,
    })
}

/// Span name of one figure's render.
fn span_name(i: usize) -> &'static str {
    const NAMES: [&str; 20] = [
        "experiments.fig2.render",
        "experiments.fig4.render",
        "experiments.fig6.render",
        "experiments.fig8.render",
        "experiments.fig10.render",
        "experiments.fig11.render",
        "experiments.fig13.render",
        "experiments.fig14.render",
        "experiments.fig15.render",
        "experiments.fig16.render",
        "experiments.fig18.render",
        "experiments.fig19.render",
        "experiments.fig20.render",
        "experiments.fig21.render",
        "experiments.fig22.render",
        "experiments.sec54.render",
        "experiments.headline.render",
        "experiments.ablate.render",
        "experiments.chaos.render",
        "experiments.supervise.render",
    ];
    NAMES
        .get(i)
        .copied()
        .unwrap_or("experiments.unknown.render")
}

/// The `figures` workload.
#[derive(Debug)]
pub struct Figures {
    /// Render plan of the next round, from the last set-up: indices
    /// into [`FIGURE_IDS`] with their trial configuration.
    plan: Vec<(usize, Trials)>,
    threads: usize,
    /// Committed output of each id, from `results/`.
    expected: Vec<String>,
    /// Counters of the committed outputs.
    reference: Counters,
    /// CPU seconds per id over the traced pass.
    cpu_s: Vec<f64>,
    /// The PowerScope profiles each round ends with.
    profile: Profile,
}

impl Figures {
    /// Reads the committed outputs and sets up the profiles (see
    /// [`Profile::new`]).
    pub fn new(threads: usize) -> Result<Figures, String> {
        let expected = FIGURE_IDS
            .iter()
            .map(|id| {
                let path = format!("results/{id}.txt");
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let profile = Profile::new(1.0)?;
        let mut reference = profile.reference().cloned().unwrap_or_default();
        for (id, text) in FIGURE_IDS.iter().zip(&expected) {
            reference.insert(format!("figures.{id}.bytes"), text.len() as u64);
            reference.insert(
                format!("figures.{id}.digest"),
                crate::fnv1a(text.as_bytes()),
            );
        }
        Ok(Figures {
            plan: Vec::new(),
            threads,
            expected,
            reference,
            cpu_s: vec![0.0; FIGURE_IDS.len()],
            profile,
        })
    }
}

/// Index of the first line where `got` and `want` differ (1-based).
fn first_diff_line(got: &str, want: &str) -> usize {
    got.lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()))
        + 1
}

impl Workload for Figures {
    fn setup(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        let trials = Trials::default().with_threads(self.threads);
        self.plan = (0..FIGURE_IDS.len()).map(|i| (i, trials)).collect();
        self.profile.setup(tracer)
    }

    fn round(&mut self, tracer: &mut Tracer) -> Round {
        let mut round = Round::default();
        let plan = std::mem::take(&mut self.plan);
        round.check(plan.len() == FIGURE_IDS.len(), || {
            "figures: round without a set-up".to_string()
        });
        for (op, (i, trials)) in plan.into_iter().enumerate() {
            let id = FIGURE_IDS[i];
            let cpu0 = if tracer.enabled() {
                procfs::cpu_s().ok()
            } else {
                None
            };
            let out = tracer.span(span_name(i), op as u64, |_| render(id, &trials));
            if let (Some(c0), Ok(c1)) = (cpu0, procfs::cpu_s()) {
                self.cpu_s[i] += c1 - c0;
            }
            let out = out.unwrap_or_default();
            let want = &self.expected[i];
            round.check(out == *want, || {
                format!(
                    "figures: {id} differs from results/{id}.txt at line {}",
                    first_diff_line(&out, want)
                )
            });
            round.count(&format!("figures.{id}.bytes"), out.len() as u64);
            round.count(
                &format!("figures.{id}.digest"),
                crate::fnv1a(out.as_bytes()),
            );
        }
        let profiled = self.profile.round(tracer);
        round.attempted += profiled.attempted;
        round.failures.extend(profiled.failures);
        round.counters.extend(profiled.counters);
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
        let threads = self.threads as f64;
        let mut out = Vec::new();
        let (mut wall_total, mut cpu_total) = (0.0, 0.0);
        for (i, id) in FIGURE_IDS.iter().enumerate() {
            let wall = tracer.total_s(span_name(i)) * per;
            let cpu = self.cpu_s[i] * per;
            wall_total += wall;
            cpu_total += cpu;
            out.push(Metric::new(format!("experiments.{id}.render_s"), wall, "s"));
            out.push(Metric::new(format!("experiments.{id}.cpu_s"), cpu, "s"));
            out.push(Metric::new(
                format!("simpar.{id}.utilization"),
                ratio(cpu, wall * threads),
                "ratio",
            ));
        }
        out.push(Metric::new(
            "simpar.utilization",
            ratio(cpu_total, wall_total * threads),
            "ratio",
        ));
        out.extend(self.profile.layer_metrics(tracer, shape));
        out
    }

    fn reset(&mut self) {
        self.cpu_s = vec![0.0; FIGURE_IDS.len()];
        self.profile.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_id_renders_and_unknown_ids_do_not() {
        assert!(render("fig4", &Trials::quick()).is_some());
        assert!(render("fig99", &Trials::quick()).is_none());
        for (i, id) in FIGURE_IDS.iter().enumerate() {
            assert_eq!(span_name(i), format!("experiments.{id}.render"));
        }
    }

    #[test]
    fn first_diff_line_is_one_based() {
        assert_eq!(first_diff_line("a\nb\n", "a\nc\n"), 2);
        assert_eq!(first_diff_line("a\n", "a\nb\n"), 2);
    }
}
