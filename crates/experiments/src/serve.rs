//! The `serve` verb: always-on session replay and kill/resume proof.
//!
//! Drives a [`simserve::Session`] over the supervised k=2 golden scenario
//! (the longest golden trace) with a sample schedule derived from the
//! recorded `tests/golden/supervise.jsonl` timestamps, optionally
//! subdivided by a replay multiple — at 100× the session steps ~70 000
//! times, the soak CI runs. The verb then kills the session at a mid-run
//! checkpoint, resumes by replaying the identical stream, and fails on
//! any divergence: journal digest at the salvage point, final state
//! digest, or a single trace byte. The kill/resume proofs replay the
//! golden stream extended to the goal deadline ([`proof_stream`]), so
//! every checkpoint falls inside the stream and can be killed at.
//!
//! [`torture_sweep`] extends the single mid-run kill to *every*
//! checkpoint boundary, fanned out over the deterministic work pool —
//! the acceptance gate `tests/checkpoint_resume.rs` pins at 1 and 4
//! threads.

use std::fs;

use simcore::{Checkpoint, SimRng, TraceCategory, TraceHandle, TraceSink};
use simserve::{run_fleet, FleetSpec, Sample, ServeError, Session, SessionHealth, INGEST_BATCH};

use crate::chaos::GOAL_S;
use crate::supervise;
use crate::tracerec;

/// The golden scenario the serve session replays (the longest trace).
pub const REPLAY_SCENARIO: &str = "supervise";

/// Everything one serve run leaves behind. For a killed run only the
/// journal (`checkpoints`) survives by contract; the rest is what the
/// uninterrupted twin is compared over.
#[derive(Clone, Debug)]
pub struct ServeRun {
    /// Samples fed before the run ended (or was killed).
    pub samples_fed: usize,
    /// Directives the session issued.
    pub directives: usize,
    /// Journal checkpoints recorded.
    pub checkpoints: Vec<Checkpoint>,
    /// Dead letters recorded.
    pub dead_letters: u64,
    /// Final state digest (meaningless for a killed run).
    pub final_digest: u64,
    /// Serving trace, JSONL.
    pub trace: Vec<String>,
}

/// Builds the serving session for the supervised k=2 golden rig at
/// `seed` — identical construction on every call, which is what makes
/// resume-by-replay sound.
pub fn build_session(seed: u64) -> Result<Session, ServeError> {
    let mut rng = SimRng::new(seed).fork_indexed("supervise/2", 0);
    let mut rig = supervise::build_one(2, true, &mut rng);
    // The supervise golden categories plus the service layer's own
    // events (reconfig verdicts, dead letters).
    rig.machine
        .set_trace(TraceHandle::new(TraceSink::new().with_categories(&[
            TraceCategory::Net,
            TraceCategory::Fault,
            TraceCategory::Control,
            TraceCategory::Supervisor,
            TraceCategory::Service,
        ])));
    Session::serve(rig.machine, Some(rig.goal), rig.supervisor, rig.horizon)
}

/// Sim time of a golden JSONL line (every line starts `{"time_s":…,`).
fn time_of(line: &str) -> Result<f64, String> {
    let rest = line
        .strip_prefix("{\"time_s\":")
        .ok_or_else(|| format!("golden line without time_s prefix: {line}"))?;
    let end = rest
        .find(',')
        .ok_or_else(|| format!("golden line without field separator: {line}"))?;
    rest[..end]
        .parse()
        .map_err(|e| format!("unparsable time_s in golden line ({e}): {line}"))
}

/// Derives the session's sample schedule from the recorded golden
/// trace: one tick per golden event time, each inter-event gap
/// subdivided `multiple`-fold. The stream is a pure function of the
/// checked-in file, so every replay feeds identical input.
pub fn schedule(multiple: u32) -> Result<Vec<Sample>, String> {
    schedule_for(REPLAY_SCENARIO, multiple)
}

/// [`schedule`] generalized over the recorded golden scenarios: any of
/// [`tracerec::SCENARIOS`] can drive the session (`--scenario` on the
/// CLI). The session rig itself stays the supervised k=2 build; only the
/// tick stream changes, so short streams simply serve a shorter run.
pub fn schedule_for(scenario: &str, multiple: u32) -> Result<Vec<Sample>, String> {
    if !tracerec::SCENARIOS.contains(&scenario) {
        return Err(format!(
            "serve: unknown scenario {scenario} (have {:?})",
            tracerec::SCENARIOS
        ));
    }
    let multiple = multiple.max(1);
    let path = tracerec::golden_path(scenario);
    let body = fs::read_to_string(&path).map_err(|e| {
        format!(
            "serve: cannot read golden trace {}: {e}\n\
             regenerate with: cargo run --release -p experiments -- tracerec",
            path.display()
        )
    })?;
    let mut out = Vec::new();
    let mut prev = 0.0f64;
    for line in body.lines() {
        let t = time_of(line)?;
        if t > prev {
            for k in 1..=multiple {
                let frac = k as f64 / multiple as f64;
                out.push(Sample::tick(prev + (t - prev) * frac));
            }
        } else {
            out.push(Sample::tick(t));
        }
        prev = t.max(prev);
    }
    Ok(out)
}

/// The stream the kill/resume proofs replay: `samples`, then one tick
/// per sim-second up to the goal deadline, where the supervised rig's
/// controller ends the run. A golden stream stops well short of the last
/// checkpoint (the supervise golden at 524 s, the last checkpoint at
/// 1440 s), and a checkpoint that only `finish` records can never be
/// killed at. With the tail every checkpoint falls inside the stream,
/// and an ingest batch of per-second ticks spans less than the
/// checkpoint period, so a kill lands right after each one.
pub fn proof_stream(samples: &[Sample]) -> Vec<Sample> {
    let last_s = samples.last().map_or(0.0, |s| s.at_s);
    let mut out = samples.to_vec();
    out.extend(
        (0..=GOAL_S)
            .map(|t| t as f64)
            .filter(|&t| t > last_s)
            .map(Sample::tick),
    );
    out
}

/// Replays `samples` through a fresh session at `seed`. With
/// `kill_after_ckpt = Some(k)` the run is killed (dropped mid-stream)
/// as soon as checkpoint `k` has been recorded — modelling a crash
/// whose journal is the only survivor.
pub fn replay(
    seed: u64,
    samples: &[Sample],
    kill_after_ckpt: Option<usize>,
) -> Result<ServeRun, String> {
    let mut session = build_session(seed).map_err(|e| format!("serve: {e}"))?;
    let mut directives = 0usize;
    let mut fed = 0usize;
    let mut killed = false;
    for chunk in samples.chunks(INGEST_BATCH) {
        directives += session
            .ingest(chunk)
            .map_err(|e| format!("serve: ingest failed at sample {fed}: {e}"))?
            .len();
        fed += chunk.len();
        if let Some(k) = kill_after_ckpt {
            if session.checkpoints().len() > k {
                killed = true;
                break;
            }
        }
    }
    if !killed {
        session
            .finish()
            .map_err(|e| format!("serve: finish: {e}"))?;
    }
    Ok(ServeRun {
        samples_fed: fed,
        directives,
        checkpoints: session.checkpoints(),
        dead_letters: session.dead_letters().map(|d| d.total()).unwrap_or(0),
        final_digest: session.digest(),
        trace: session.trace_jsonl(),
    })
}

/// What a kill boundary leaves behind on the snapshot path: the frozen
/// state, how much of the stream it covers, and the trace emitted up to
/// the freeze (the part a thawed twin can never re-emit).
#[derive(Clone, Debug)]
pub struct FrozenRun {
    /// `Session::freeze` bytes taken at the kill point.
    pub snapshot: Vec<u8>,
    /// Samples fed before the freeze; resume continues at this index.
    pub samples_fed: usize,
    /// Trace emitted before the freeze (prefix of the uninterrupted
    /// run's trace; snapshots exclude trace history by design).
    pub trace_prefix: Vec<String>,
}

/// Replays until checkpoint `k` is recorded — exactly [`replay`]'s kill
/// point — then freezes the session instead of dropping it. Boundaries
/// that only fall during the post-stream run-out (checkpoints recorded
/// by `finish`) freeze at end-of-stream instead: killed after the last
/// sample, before the run-out.
pub fn freeze_at_boundary(seed: u64, samples: &[Sample], k: usize) -> Result<FrozenRun, String> {
    let mut session = build_session(seed).map_err(|e| format!("serve: {e}"))?;
    let mut fed = 0usize;
    for chunk in samples.chunks(INGEST_BATCH) {
        session
            .ingest(chunk)
            .map_err(|e| format!("serve: ingest failed at sample {fed}: {e}"))?;
        fed += chunk.len();
        if session.checkpoints().len() > k {
            break;
        }
    }
    Ok(FrozenRun {
        snapshot: session
            .freeze()
            .map_err(|e| format!("boundary {k}: freeze failed: {e}"))?,
        samples_fed: fed,
        trace_prefix: session.trace_jsonl(),
    })
}

/// Resumes from a snapshot in O(state): builds the session shell fresh,
/// thaws the frozen bytes into it, and feeds only the remainder of the
/// stream. No history is replayed — that is the point.
pub fn snapshot_resume(
    seed: u64,
    samples: &[Sample],
    frozen: &FrozenRun,
) -> Result<ServeRun, String> {
    let mut session = build_session(seed).map_err(|e| format!("serve: {e}"))?;
    session
        .thaw(&frozen.snapshot)
        .map_err(|e| format!("serve: thaw failed: {e}"))?;
    let rest = samples.get(frozen.samples_fed..).unwrap_or(&[]);
    let mut directives = 0usize;
    let mut fed = frozen.samples_fed;
    for chunk in rest.chunks(INGEST_BATCH) {
        directives += session
            .ingest(chunk)
            .map_err(|e| format!("serve: post-thaw ingest failed at sample {fed}: {e}"))?
            .len();
        fed += chunk.len();
    }
    session
        .finish()
        .map_err(|e| format!("serve: post-thaw finish: {e}"))?;
    Ok(ServeRun {
        samples_fed: fed,
        directives,
        checkpoints: session.checkpoints(),
        dead_letters: session.dead_letters().map(|d| d.total()).unwrap_or(0),
        final_digest: session.digest(),
        // Post-thaw emissions only: snapshots exclude trace history, so
        // callers compare this as a suffix of the uninterrupted trace.
        trace: session.trace_jsonl(),
    })
}

/// Resumes by replay: rebuilds the session, feeds the identical stream,
/// and demands the run end byte-identical to `base` — final digest and
/// every trace event. The result is the resumed run each boundary's
/// salvaged checkpoint is then checked against.
fn replay_resume(seed: u64, samples: &[Sample], base: &ServeRun) -> Result<ServeRun, String> {
    let resumed = replay(seed, samples, None)?;
    if resumed.final_digest != base.final_digest {
        return Err(format!(
            "resumed final digest {:#018x} != uninterrupted {:#018x}",
            resumed.final_digest, base.final_digest
        ));
    }
    if resumed.trace != base.trace {
        let at = resumed
            .trace
            .iter()
            .zip(base.trace.iter())
            .position(|(a, b)| a != b)
            .unwrap_or(resumed.trace.len().min(base.trace.len()));
        return Err(format!(
            "resumed trace diverges from uninterrupted at event {at}"
        ));
    }
    Ok(resumed)
}

/// Verifies one crash boundary: kill after checkpoint `k`, salvage the
/// journal, and demand that the salvage point is checkpoint `k` itself
/// and that the replay-resumed run (`resumed`, see [`replay_resume`])
/// passes through it. Then proves the O(state) path: a snapshot frozen
/// at the same boundary thaws into a fresh shell, consumes only the
/// remaining stream, and lands on `base`'s digests and trace. Returns a
/// one-line proof summary.
fn verify_boundary(
    seed: u64,
    samples: &[Sample],
    base: &ServeRun,
    resumed: &ServeRun,
    k: usize,
) -> Result<String, String> {
    let crashed = replay(seed, samples, Some(k))?;
    let salvage = *crashed
        .checkpoints
        .last()
        .ok_or_else(|| format!("boundary {k}: crashed run journaled nothing"))?;
    let own = base
        .checkpoints
        .get(k)
        .ok_or_else(|| format!("boundary {k}: the uninterrupted run has no checkpoint {k}"))?;
    if salvage.t != own.t {
        return Err(format!(
            "boundary {k}: killed run salvaged t={:.0}s, not its own checkpoint at t={:.0}s",
            salvage.t.as_secs_f64(),
            own.t.as_secs_f64()
        ));
    }
    if crashed.trace.len() > base.trace.len()
        || crashed.trace[..] != base.trace[..crashed.trace.len()]
    {
        return Err(format!(
            "boundary {k}: crashed run's trace is not a prefix of the uninterrupted run's"
        ));
    }
    if !resumed
        .checkpoints
        .iter()
        .any(|c| c.t == salvage.t && c.digest == salvage.digest)
    {
        return Err(format!(
            "boundary {k}: resumed run diverged from salvaged checkpoint {salvage:?}"
        ));
    }
    // The O(state) path must land exactly where the O(history) path did.
    let frozen = freeze_at_boundary(seed, samples, k)?;
    let thawed = snapshot_resume(seed, samples, &frozen)?;
    if thawed.final_digest != base.final_digest {
        return Err(format!(
            "boundary {k}: snapshot-resumed digest {:#018x} != uninterrupted {:#018x}",
            thawed.final_digest, base.final_digest
        ));
    }
    if thawed.checkpoints != base.checkpoints {
        return Err(format!(
            "boundary {k}: snapshot-resumed journal diverges ({} vs {} checkpoints)",
            thawed.checkpoints.len(),
            base.checkpoints.len()
        ));
    }
    let stitched: Vec<&String> = frozen.trace_prefix.iter().chain(&thawed.trace).collect();
    if stitched.len() != base.trace.len() || stitched.iter().zip(&base.trace).any(|(a, b)| *a != b)
    {
        return Err(format!(
            "boundary {k}: snapshot prefix+suffix trace ({} events) != uninterrupted ({})",
            stitched.len(),
            base.trace.len()
        ));
    }
    Ok(format!(
        "boundary {k}: salvage t={:.0}s digest={:#018x} replay+snapshot resume OK \
         ({} events, snapshot {} bytes covering {} samples)",
        salvage.t.as_secs_f64(),
        salvage.digest,
        base.trace.len(),
        frozen.snapshot.len(),
        frozen.samples_fed
    ))
}

/// The torture sweep: crash at *every* checkpoint boundary of the proof
/// stream and prove each resume bit-identical, fanned out over
/// `threads` workers. Returns one proof line per boundary (identical at
/// any thread count) or the first divergence report.
pub fn torture_sweep(seed: u64, multiple: u32, threads: usize) -> Result<Vec<String>, String> {
    let samples = proof_stream(&schedule(multiple)?);
    let base = replay(seed, &samples, None)?;
    if base.checkpoints.len() < 2 {
        return Err(format!(
            "serve: expected several checkpoints, got {}",
            base.checkpoints.len()
        ));
    }
    let resumed = replay_resume(seed, &samples, &base)?;
    let boundaries: Vec<usize> = (0..base.checkpoints.len()).collect();
    let cfg = simcore::par::PoolConfig::new(threads);
    let (results, _) = simcore::par::map_stats(&cfg, &boundaries, |_, &k| {
        verify_boundary(seed, &samples, &base, &resumed, k)
    });
    let mut lines = Vec::with_capacity(results.len());
    for r in results {
        lines.push(r?);
    }
    Ok(lines)
}

/// Runs `sessions` independent session lifecycles over the same stream
/// (per-slot seeds `seed..seed+sessions`), fanned across `threads`
/// workers with index-ordered merge. Returns one summary line per slot
/// or the first unhealthy outcome as an error.
pub fn run_sessions(
    seed: u64,
    samples: &[Sample],
    sessions: usize,
    threads: usize,
) -> Result<Vec<String>, String> {
    let specs: Vec<FleetSpec<_>> = (0..sessions)
        .map(|i| FleetSpec {
            builder: move || build_session(seed + i as u64),
            samples: samples.to_vec(),
        })
        .collect();
    let outcomes = run_fleet(threads, &specs);
    let mut lines = Vec::with_capacity(outcomes.len());
    for (i, o) in outcomes.iter().enumerate() {
        if let SessionHealth::Dead { reason } = o.health {
            return Err(format!(
                "serve: session {i} (seed {}) died: {reason}",
                seed + i as u64
            ));
        }
        lines.push(format!(
            "session {i}: seed {} digest {:#018x} {} directives, {} checkpoints, \
             {} dead letters, {} faults contained",
            seed + i as u64,
            o.final_digest,
            o.directives,
            o.checkpoints,
            o.dead_letters,
            o.faults
        ));
    }
    Ok(lines)
}

/// The CLI verb body: replay `scenario` at `multiple` density, extended
/// to the goal deadline ([`proof_stream`]), kill at the mid-run
/// checkpoint, resume by replay *and* by snapshot, and report. With
/// `sessions > 1` the scenario's own stream is also served through that
/// many isolated server slots across `threads` workers. `Err` is a
/// divergence report (the CI soak uploads it as an artifact).
pub fn run_verb(
    seed: u64,
    multiple: u32,
    scenario: &str,
    sessions: usize,
    threads: usize,
) -> Result<String, String> {
    let stream = schedule_for(scenario, multiple)?;
    let samples = proof_stream(&stream);
    let base = replay(seed, &samples, None)?;
    let mut out = String::new();
    out.push_str(&format!(
        "serve: replayed {scenario} at {multiple}x: {} samples, {} directives, {} checkpoints, {} dead letters\n",
        base.samples_fed,
        base.directives,
        base.checkpoints.len(),
        base.dead_letters
    ));
    out.push_str(&format!(
        "serve: final digest {:#018x} over {} trace events\n",
        base.final_digest,
        base.trace.len()
    ));
    // The proof stream runs to the goal deadline, so it always spans
    // several checkpoints; fewer is a regression.
    if base.checkpoints.len() < 2 {
        return Err(format!(
            "serve: expected several checkpoints, got {}",
            base.checkpoints.len()
        ));
    }
    let resumed = replay_resume(seed, &samples, &base)?;
    let mid = base.checkpoints.len() / 2;
    let proof = verify_boundary(seed, &samples, &base, &resumed, mid)?;
    out.push_str(&format!("serve: kill/resume {proof}\n"));
    if sessions > 1 {
        for line in run_sessions(seed, &stream, sessions, threads)? {
            out.push_str(&format!("serve: {line}\n"));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracerec::GOLDEN_SEED;

    /// The schedule is a pure function of the checked-in golden file,
    /// and the multiple subdivides without reordering.
    #[test]
    fn schedule_is_monotone_and_scales_with_multiple() {
        let s1 = schedule(1).expect("golden trace present");
        let s4 = schedule(4).expect("golden trace present");
        assert!(!s1.is_empty());
        assert!(s4.len() > 3 * s1.len(), "{} vs {}", s4.len(), s1.len());
        for w in s1.windows(2) {
            assert!(w[1].at_s >= w[0].at_s, "schedule not monotone: {w:?}");
        }
        for w in s4.windows(2) {
            assert!(w[1].at_s >= w[0].at_s, "4x schedule not monotone: {w:?}");
        }
    }

    /// A serve replay is deterministic: same seed, same stream, same
    /// digest and byte-identical trace.
    #[test]
    fn replay_is_deterministic() {
        let samples = schedule(1).expect("golden trace present");
        let a = replay(GOLDEN_SEED, &samples, None).expect("replay");
        let b = replay(GOLDEN_SEED, &samples, None).expect("replay");
        assert!(a.checkpoints.len() >= 2, "{:?}", a.checkpoints);
        assert_eq!(a.final_digest, b.final_digest);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.directives, b.directives);
        assert_eq!(a.dead_letters, 0, "clean stream dead-lettered");
    }

    /// The verb's single mid-run kill/resume proof passes end to end,
    /// covering both the replay and the snapshot resume path, and kills
    /// at its own mid-run checkpoint (the fifth, at 900 s).
    #[test]
    fn verb_kill_resume_proof_passes() {
        let out = run_verb(GOLDEN_SEED, 1, REPLAY_SCENARIO, 1, 1).expect("kill/resume proof");
        assert!(out.contains("boundary 4: salvage t=900s"), "{out}");
        assert!(out.contains("replay+snapshot resume OK"), "{out}");
    }

    /// A snapshot frozen mid-run thaws into a fresh shell and, fed only
    /// the remaining stream, lands on the uninterrupted run's digest
    /// with the stitched trace byte-identical.
    #[test]
    fn snapshot_resume_matches_uninterrupted_run() {
        let samples = schedule(1).expect("golden trace present");
        let base = replay(GOLDEN_SEED, &samples, None).expect("replay");
        let frozen = freeze_at_boundary(GOLDEN_SEED, &samples, 1).expect("freeze");
        assert!(frozen.samples_fed < samples.len(), "froze at end of stream");
        let thawed = snapshot_resume(GOLDEN_SEED, &samples, &frozen).expect("thaw");
        assert_eq!(thawed.final_digest, base.final_digest);
        assert_eq!(thawed.checkpoints, base.checkpoints);
        let stitched: Vec<&String> = frozen.trace_prefix.iter().chain(&thawed.trace).collect();
        let base_refs: Vec<&String> = base.trace.iter().collect();
        assert_eq!(stitched, base_refs);
    }

    /// Every golden scenario yields a servable schedule; unknown names
    /// are refused.
    #[test]
    fn any_golden_scenario_drives_the_session() {
        for scenario in crate::tracerec::SCENARIOS {
            let s = schedule_for(scenario, 1).expect(scenario);
            assert!(!s.is_empty(), "{scenario} schedule empty");
            let run = replay(GOLDEN_SEED, &s, None).expect(scenario);
            assert!(run.final_digest != 0, "{scenario} digest trivially zero");
        }
        assert!(schedule_for("fig99", 1).is_err());
    }

    /// Multi-session serving is healthy, deterministic, and identical at
    /// any thread count.
    #[test]
    fn multi_session_fleet_is_thread_count_invariant() {
        let samples = schedule(1).expect("golden trace present");
        let solo = run_sessions(GOLDEN_SEED, &samples, 3, 1).expect("fleet@1");
        let wide = run_sessions(GOLDEN_SEED, &samples, 3, 4).expect("fleet@4");
        assert_eq!(solo, wide);
        assert_eq!(solo.len(), 3);
    }
}
