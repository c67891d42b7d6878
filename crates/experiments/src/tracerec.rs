//! simtrace golden-trace recorder and differ.
//!
//! Four canonical scenarios — the Figure 2 profiling run, one Figure 13
//! web-browsing cell, a hardened goal-directed run, and the supervised
//! k=2 misbehavior cell — are replayed with a category-filtered
//! [`TraceSink`] attached, and the JSONL event streams are pinned under
//! `tests/golden/`. [`check`] replays a scenario at [`GOLDEN_SEED`] and
//! reports the first diverging event against the checked-in file;
//! [`regenerate`] rewrites the goldens after an intentional behavior
//! change. The `tracediff` and `tracerec` CLI verbs wrap these.

use std::fs;
use std::path::PathBuf;

use machine::FaultConfig;
use odyssey::{GoalConfig, Hardening};
use odyssey_apps::datasets::WEB_IMAGES;
use odyssey_apps::WebFidelity;
use simcore::{SimDuration, SimRng, TraceCategory, TraceHandle, TraceSink};

use crate::{fig13, fig2, goalrig, supervise};

/// The recorded scenarios, in CLI order.
pub const SCENARIOS: [&str; 4] = ["fig2", "fig13", "goal", "supervise"];

/// The seed every golden trace is recorded at.
pub const GOLDEN_SEED: u64 = 42;

/// Goal-scenario scale: a hardened controller holding a 240 s goal on a
/// 3 kJ battery (the checkpoint-resume rig's scale, minutes not hours).
const GOAL_ENERGY_J: f64 = 3000.0;

/// Goal-scenario duration, seconds.
const GOAL_SECS: u64 = 240;

/// The per-scenario category filter. High-frequency categories (`Sched`,
/// `Energy`, `Meter`) stay out of every golden file — they are exercised
/// in-memory by the property tests instead.
fn categories(scenario: &str) -> Option<Vec<TraceCategory>> {
    use TraceCategory::{Budget, Control, Fault, Flow, Net, Supervisor};
    Some(match scenario {
        // Flow-rich interactive runs: flow lifecycle + the control plane.
        "fig2" | "fig13" => vec![Flow, Net, Fault, Control, Budget, Supervisor],
        // Budget included so every supply/demand decision — and therefore
        // any controller-constant change — lands in the golden file.
        "goal" => TraceCategory::CONTROL_PLANE.to_vec(),
        // The long supervised run drops Budget to keep the file small;
        // detector strikes and escalations are the interesting part.
        "supervise" => vec![Net, Fault, Control, Supervisor],
        _ => return None,
    })
}

/// Replays one scenario with a trace attached and returns the recorded
/// lines. Unknown scenarios, and a ring that evicted records, are
/// errors.
pub fn record(scenario: &str, seed: u64) -> Result<Vec<String>, String> {
    let cats = categories(scenario)
        .ok_or_else(|| format!("unknown trace scenario: {scenario} (have {SCENARIOS:?})"))?;
    let handle = TraceHandle::new(TraceSink::new().with_categories(&cats));
    match scenario {
        "fig2" => {
            let (_scope, mut m) = fig2::build(seed);
            m.set_trace(handle.clone());
            let _ = m.run();
        }
        "fig13" => {
            // One canonical condition — JPEG-50, hardware power
            // management on, the figure's 5 s think time — browsing all
            // four images as one page sequence.
            let mut rng = SimRng::new(seed).fork("fig13/trace");
            let mut m = fig13::build(
                WEB_IMAGES.to_vec(),
                WebFidelity::Jpeg50,
                true,
                5.0,
                &mut rng,
            );
            m.set_trace(handle.clone());
            let _ = m.run();
        }
        "goal" => {
            let mut rng = SimRng::new(seed).fork("goal/trace");
            let cfg = GoalConfig::paper(GOAL_ENERGY_J, SimDuration::from_secs(GOAL_SECS))
                .with_hardening(Hardening::standard());
            let rig = goalrig::build_composite_goal(&cfg, false, FaultConfig::clean(), &mut rng);
            let mut m = rig.machine;
            m.set_trace(handle.clone());
            let _ = goalrig::finish(m, cfg, rig.priorities, rig.horizon);
        }
        "supervise" => {
            // The supervised k=2 cell: video hangs at 200 s, map lies.
            let mut rng = SimRng::new(seed).fork_indexed("supervise/2", 0);
            let mut rig = supervise::build_one(2, true, &mut rng);
            rig.machine.set_trace(handle.clone());
            let _ = rig.machine.run_until(rig.horizon);
        }
        other => return Err(format!("unknown trace scenario: {other}")),
    }
    whole_trace(scenario, &handle)
}

/// The JSONL of a finished recording. It is rendered from the ring, so
/// a ring that evicted anything cannot yield (or check) a golden.
fn whole_trace(scenario: &str, handle: &TraceHandle) -> Result<Vec<String>, String> {
    match handle.evicted() {
        0 => Ok(handle.jsonl()),
        n => Err(format!("{scenario}: trace ring evicted {n} records")),
    }
}

/// Directory holding the checked-in golden traces.
pub fn golden_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR is resolved at compile time (no env read at
    // runtime); the goldens live at the workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Path of the checked-in golden trace for a scenario.
pub fn golden_path(scenario: &str) -> PathBuf {
    golden_dir().join(format!("{scenario}.jsonl"))
}

/// Replays `scenario` at [`GOLDEN_SEED`] and compares it line-for-line
/// against the checked-in golden. `Ok` carries the number of matching
/// events; `Err` carries a first-divergence report plus the fresh lines
/// (so callers can save them as a CI artifact).
pub fn check(scenario: &str) -> Result<usize, (String, Vec<String>)> {
    let fresh = record(scenario, GOLDEN_SEED).map_err(|e| (e, Vec::new()))?;
    let path = golden_path(scenario);
    let golden = match fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            return Err((
                format!(
                    "tracediff: {scenario}: cannot read golden trace {}: {e}\n\
                     regenerate with: cargo run --release -p experiments -- tracerec",
                    path.display()
                ),
                fresh,
            ))
        }
    };
    let golden: Vec<&str> = golden.lines().collect();
    match divergence_report(scenario, &golden, &fresh) {
        None => Ok(golden.len()),
        Some(report) => Err((report, fresh)),
    }
}

/// First point where the fresh trace departs from the golden, rendered
/// with the preceding common events for context, or `None` on a match.
fn divergence_report(scenario: &str, golden: &[&str], fresh: &[String]) -> Option<String> {
    let common = golden.len().min(fresh.len());
    let at = (0..common).find(|&i| golden[i] != fresh[i]).or({
        if golden.len() != fresh.len() {
            Some(common)
        } else {
            None
        }
    })?;
    let mut out = format!(
        "tracediff: {scenario}: first divergence at event {} ({} golden / {} fresh events)\n",
        at + 1,
        golden.len(),
        fresh.len()
    );
    for line in golden.iter().take(at).skip(at.saturating_sub(3)) {
        out.push_str(&format!("    {line}\n"));
    }
    match golden.get(at) {
        Some(g) => out.push_str(&format!("  - golden: {g}\n")),
        None => out.push_str("  - golden: <end of trace>\n"),
    }
    match fresh.get(at) {
        Some(f) => out.push_str(&format!("  + fresh:  {f}\n")),
        None => out.push_str("  + fresh:  <end of trace>\n"),
    }
    Some(out)
}

/// Rewrites every golden trace at [`GOLDEN_SEED`]. Returns a summary of
/// what was written.
pub fn regenerate() -> Result<String, String> {
    let dir = golden_dir();
    fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut summary = String::new();
    for scenario in SCENARIOS {
        let lines = record(scenario, GOLDEN_SEED)?;
        let path = golden_path(scenario);
        let mut body = lines.join("\n");
        body.push('\n');
        fs::write(&path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        summary.push_str(&format!(
            "tracerec: wrote {} ({} events)\n",
            path.display(),
            lines.len()
        ));
    }
    Ok(summary)
}

/// Diffs every scenario against its golden, writing diverging fresh
/// traces to `target/tracediff/` for CI artifact upload. `Err` carries
/// the concatenated divergence reports.
pub fn check_all() -> Result<String, String> {
    let mut summary = String::new();
    let mut failures = String::new();
    for scenario in SCENARIOS {
        match check(scenario) {
            Ok(n) => summary.push_str(&format!("tracediff: {scenario}: OK ({n} events)\n")),
            Err((report, fresh)) => {
                failures.push_str(&report);
                if !fresh.is_empty() {
                    let dir =
                        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/tracediff");
                    if fs::create_dir_all(&dir).is_ok() {
                        let path = dir.join(format!("{scenario}.fresh.jsonl"));
                        let mut body = fresh.join("\n");
                        body.push('\n');
                        if fs::write(&path, body).is_ok() {
                            failures
                                .push_str(&format!("  fresh trace saved to {}\n", path.display()));
                        }
                    }
                }
            }
        }
    }
    if failures.is_empty() {
        Ok(summary)
    } else {
        Err(format!("{summary}{failures}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every scenario records a non-empty stream, twice, byte-identically.
    #[test]
    fn fig13_recording_is_deterministic_and_nonempty() {
        let a = record("fig13", 7).unwrap();
        let b = record("fig13", 7).unwrap();
        assert!(!a.is_empty(), "fig13 trace empty");
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_scenario_is_an_error() {
        assert!(record("fig99", 1).is_err());
    }

    #[test]
    fn an_evicting_ring_cannot_record_a_golden() {
        use simcore::{SimTime, TraceEvent};
        let handle = TraceHandle::new(TraceSink::new().with_capacity(2));
        let ev = TraceEvent::GoalInfeasible;
        handle.emit(SimTime::ZERO, ev);
        handle.emit(SimTime::from_secs(1), ev);
        assert_eq!(whole_trace("tiny", &handle).map(|l| l.len()), Ok(2));
        handle.emit(SimTime::from_secs(2), ev);
        let err = whole_trace("tiny", &handle).unwrap_err();
        assert!(err.contains("evicted 1 records"), "{err}");
    }

    #[test]
    fn divergence_report_points_at_first_differing_event() {
        let golden = vec!["a", "b", "c", "d"];
        let fresh = vec![
            "a".to_string(),
            "b".to_string(),
            "X".to_string(),
            "d".to_string(),
        ];
        let report = divergence_report("t", &golden, &fresh).unwrap();
        assert!(report.contains("first divergence at event 3"), "{report}");
        assert!(report.contains("- golden: c"), "{report}");
        assert!(report.contains("+ fresh:  X"), "{report}");
        // Context: the common prefix lines appear.
        assert!(report.contains("    a\n"), "{report}");
    }

    #[test]
    fn divergence_report_handles_truncated_fresh_trace() {
        let golden = vec!["a", "b"];
        let fresh = vec!["a".to_string()];
        let report = divergence_report("t", &golden, &fresh).unwrap();
        assert!(report.contains("+ fresh:  <end of trace>"), "{report}");
    }

    #[test]
    fn identical_traces_produce_no_report() {
        let golden = vec!["a", "b"];
        let fresh = vec!["a".to_string(), "b".to_string()];
        assert!(divergence_report("t", &golden, &fresh).is_none());
    }
}
