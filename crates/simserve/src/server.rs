//! Multi-session server: N independent [`Session`]s behind one bounded
//! admission surface, with per-session fault isolation.
//!
//! Each admitted session lives in a slot with its own rebuild closure,
//! its last good snapshot, and a log of every accepted sample batch. A
//! session that panics mid-ingest is caught ([`std::panic::catch_unwind`]
//! — the poisoned session object is discarded, never reused), rolled
//! back to its last snapshot in O(state), and the offending batch is
//! rejected as [`ServeError::Faulted`]. Siblings never notice. When the
//! snapshot itself is corrupt or missing the slot falls back to
//! replaying its accepted-sample log; only when *that* fails too is the
//! slot quarantined ([`ServeError::Quarantined`]) and closed to input.
//!
//! [`run_fleet`] fans whole session lifecycles across the deterministic
//! work pool: sessions share no state (each worker builds its own from
//! the spec), so the index-ordered merge makes the parallel run
//! byte-identical to the serial one at any thread count.

use std::panic::{catch_unwind, AssertUnwindSafe};

use simcore::Checkpoint;

use crate::{DeadLetterLedger, Directive, Sample, ServeError, Session, INGEST_BATCH};

/// Liveness of one server slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionHealth {
    /// Serving normally.
    Healthy,
    /// At least one fault was absorbed by a rollback; serving normally.
    Recovered,
    /// A fault could not be recovered; the slot refuses all input.
    Dead {
        /// Why the final restore attempt failed.
        reason: &'static str,
    },
}

/// Per-slot accounting, all monotone counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlotStats {
    /// Sample batches accepted.
    pub batches: u64,
    /// Directives returned to the caller.
    pub directives: u64,
    /// Panics caught and contained.
    pub panics: u64,
    /// Restores that succeeded from the binary snapshot (O(state)).
    pub snapshot_restores: u64,
    /// Restores that fell back to replaying the accepted-sample log.
    pub replay_restores: u64,
    /// Snapshots taken after successful batches.
    pub snapshots: u64,
    /// Freeze attempts refused (non-freezable workload or hook); the
    /// slot keeps its previous snapshot and relies on catch-up replay.
    pub snapshot_failures: u64,
}

/// One slot: the live session plus everything needed to rebuild it.
struct Slot<'a> {
    builder: Box<dyn Fn() -> Result<Session, ServeError> + 'a>,
    session: Option<Session>,
    /// Last good snapshot and how many log samples it covers.
    snapshot: Option<(Vec<u8>, usize)>,
    /// Every accepted sample, in order — the replay fallback.
    log: Vec<Sample>,
    health: SessionHealth,
    stats: SlotStats,
}

/// A bounded pool of independent serving sessions. See the module docs
/// for the isolation contract.
pub struct Server<'a> {
    slots: Vec<Slot<'a>>,
    max_sessions: usize,
}

impl std::fmt::Debug for Server<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("sessions", &self.slots.len())
            .field("max_sessions", &self.max_sessions)
            .finish_non_exhaustive()
    }
}

impl<'a> Server<'a> {
    /// An empty server admitting at most `max_sessions` sessions.
    pub fn new(max_sessions: usize) -> Result<Server<'a>, ServeError> {
        if max_sessions == 0 {
            return Err(ServeError::InvalidConfig("max_sessions is zero"));
        }
        Ok(Server {
            slots: Vec::new(),
            max_sessions,
        })
    }

    /// Admits one session built by `builder` and returns its slot id.
    /// The closure must rebuild the *identical* session on every call —
    /// that is what makes snapshot restore and replay fallback sound.
    pub fn admit(
        &mut self,
        builder: Box<dyn Fn() -> Result<Session, ServeError> + 'a>,
    ) -> Result<usize, ServeError> {
        if self.slots.len() >= self.max_sessions {
            return Err(ServeError::AdmissionFull);
        }
        let session = builder()?;
        let id = self.slots.len();
        let mut slot = Slot {
            builder,
            session: Some(session),
            snapshot: None,
            log: Vec::new(),
            health: SessionHealth::Healthy,
            stats: SlotStats::default(),
        };
        take_snapshot(&mut slot);
        self.slots.push(slot);
        Ok(id)
    }

    /// Sessions admitted so far.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True before the first admission.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The admission bound.
    pub fn capacity(&self) -> usize {
        self.max_sessions
    }

    /// Health of slot `id`.
    pub fn health(&self, id: usize) -> Result<SessionHealth, ServeError> {
        self.slots
            .get(id)
            .map(|s| s.health)
            .ok_or(ServeError::UnknownSession)
    }

    /// Accounting for slot `id`.
    pub fn stats(&self, id: usize) -> Result<SlotStats, ServeError> {
        self.slots
            .get(id)
            .map(|s| s.stats)
            .ok_or(ServeError::UnknownSession)
    }

    /// State digest of the session in slot `id`.
    pub fn digest(&self, id: usize) -> Result<u64, ServeError> {
        let slot = self.slots.get(id).ok_or(ServeError::UnknownSession)?;
        slot.session
            .as_ref()
            .map(Session::digest)
            .ok_or(ServeError::Quarantined)
    }

    /// Journal checkpoints of the session in slot `id`.
    pub fn checkpoints(&self, id: usize) -> Result<Vec<Checkpoint>, ServeError> {
        let slot = self.slots.get(id).ok_or(ServeError::UnknownSession)?;
        slot.session
            .as_ref()
            .map(Session::checkpoints)
            .ok_or(ServeError::Quarantined)
    }

    /// Dead letters recorded by the session in slot `id` over its
    /// lifetime.
    pub fn dead_letter_total(&self, id: usize) -> Result<u64, ServeError> {
        let slot = self.slots.get(id).ok_or(ServeError::UnknownSession)?;
        let session = slot.session.as_ref().ok_or(ServeError::Quarantined)?;
        Ok(session.dead_letters().map(|d| d.total()).unwrap_or(0))
    }

    /// The bounded dead-letter ledger of the session in slot `id`
    /// (`None` for a session not in serving mode).
    pub fn dead_letters(&self, id: usize) -> Result<Option<&DeadLetterLedger>, ServeError> {
        let slot = self.slots.get(id).ok_or(ServeError::UnknownSession)?;
        let session = slot.session.as_ref().ok_or(ServeError::Quarantined)?;
        Ok(session.dead_letters())
    }

    /// Feeds one sample batch to the session in slot `id`.
    ///
    /// A clean batch returns its directives and advances the slot's
    /// snapshot. A batch that makes the session panic is contained: the
    /// session is restored to its pre-batch state and the call returns
    /// [`ServeError::Faulted`] (or [`ServeError::Quarantined`] when
    /// restore failed). Other slots are never affected.
    pub fn ingest(&mut self, id: usize, samples: &[Sample]) -> Result<Vec<Directive>, ServeError> {
        let slot = self.slots.get_mut(id).ok_or(ServeError::UnknownSession)?;
        if let SessionHealth::Dead { .. } = slot.health {
            return Err(ServeError::Quarantined);
        }
        let mut session = slot.session.take().ok_or(ServeError::Quarantined)?;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let r = session.ingest(samples);
            (session, r)
        }));
        match outcome {
            Ok((session, Ok(directives))) => {
                slot.session = Some(session);
                slot.log.extend_from_slice(samples);
                slot.stats.batches += 1;
                slot.stats.directives += directives.len() as u64;
                take_snapshot(slot);
                Ok(directives)
            }
            Ok((session, Err(e))) => {
                // A clean refusal (NotServing / Finished): the session
                // is intact, nothing to restore.
                slot.session = Some(session);
                Err(e)
            }
            Err(_panic) => {
                slot.stats.panics += 1;
                if restore(slot) {
                    slot.health = SessionHealth::Recovered;
                    Err(ServeError::Faulted)
                } else {
                    Err(ServeError::Quarantined)
                }
            }
        }
    }

    /// Runs the session in slot `id` to its horizon, with the same
    /// containment as [`Server::ingest`].
    pub fn finish(&mut self, id: usize) -> Result<machine::RunReport, ServeError> {
        let slot = self.slots.get_mut(id).ok_or(ServeError::UnknownSession)?;
        if let SessionHealth::Dead { .. } = slot.health {
            return Err(ServeError::Quarantined);
        }
        let mut session = slot.session.take().ok_or(ServeError::Quarantined)?;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let r = session.finish();
            (session, r)
        }));
        match outcome {
            Ok((session, r)) => {
                slot.session = Some(session);
                r
            }
            Err(_panic) => {
                slot.stats.panics += 1;
                if restore(slot) {
                    slot.health = SessionHealth::Recovered;
                    Err(ServeError::Faulted)
                } else {
                    Err(ServeError::Quarantined)
                }
            }
        }
    }
}

/// Freezes the slot's session into a fresh snapshot. Refusals
/// (non-freezable rigs) keep the previous snapshot: the slot then
/// relies on catch-up replay of the log suffix past that snapshot.
fn take_snapshot(slot: &mut Slot<'_>) {
    let Some(session) = slot.session.as_ref() else {
        return;
    };
    match session.freeze() {
        Ok(bytes) => {
            slot.snapshot = Some((bytes, slot.log.len()));
            slot.stats.snapshots += 1;
        }
        Err(_) => slot.stats.snapshot_failures += 1,
    }
}

/// Restores the slot's session to its last good state: snapshot first
/// (O(state)), then catch-up replay of any log suffix the snapshot
/// predates, full replay from scratch when the snapshot path fails.
/// Returns false (and marks the slot dead) when nothing works.
fn restore(slot: &mut Slot<'_>) -> bool {
    if let Some((bytes, covered)) = &slot.snapshot {
        let covered = *covered;
        if let Ok(mut fresh) = (slot.builder)() {
            if fresh.thaw(bytes).is_ok() {
                let suffix: Vec<Sample> = slot
                    .log
                    .get(covered..)
                    .map(<[Sample]>::to_vec)
                    .unwrap_or_default();
                if feed_contained(&mut fresh, &suffix) {
                    slot.session = Some(fresh);
                    slot.stats.snapshot_restores += 1;
                    return true;
                }
            }
        }
        // The snapshot (or its catch-up) failed: drop it so the replay
        // path below — and any later restore — starts from scratch.
        slot.snapshot = None;
    }
    let Ok(mut fresh) = (slot.builder)() else {
        slot.health = SessionHealth::Dead {
            reason: "rebuild failed",
        };
        slot.session = None;
        return false;
    };
    let log = slot.log.clone();
    if feed_contained(&mut fresh, &log) {
        slot.session = Some(fresh);
        slot.stats.replay_restores += 1;
        take_snapshot(slot);
        true
    } else {
        slot.health = SessionHealth::Dead {
            reason: "replay failed",
        };
        slot.session = None;
        false
    }
}

/// Feeds `samples` with panics contained. True when every batch was
/// accepted.
fn feed_contained(session: &mut Session, samples: &[Sample]) -> bool {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        for chunk in samples.chunks(INGEST_BATCH) {
            if session.ingest(chunk).is_err() {
                return false;
            }
        }
        true
    }));
    matches!(outcome, Ok(true))
}

/// What one fleet session left behind.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetOutcome {
    /// Directives issued over the whole stream.
    pub directives: u64,
    /// Dead letters recorded.
    pub dead_letters: u64,
    /// Journal checkpoints recorded.
    pub checkpoints: usize,
    /// Final state digest.
    pub final_digest: u64,
    /// Batches rejected by fault containment.
    pub faults: u64,
    /// Slot health at the end of the stream.
    pub health: SessionHealth,
}

/// One session lifecycle for [`run_fleet`]: a rebuild closure and the
/// sample stream to drive through it.
pub struct FleetSpec<B> {
    // (manual Debug below: `B` is an opaque closure.)
    /// Rebuilds the session (identically on every call).
    pub builder: B,
    /// The full input stream, fed in batches of [`INGEST_BATCH`].
    pub samples: Vec<Sample>,
}

impl<B> std::fmt::Debug for FleetSpec<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetSpec")
            .field("samples", &self.samples.len())
            .finish_non_exhaustive()
    }
}

/// Runs each spec's whole session lifecycle on the deterministic work
/// pool and merges the outcomes in index order: byte-identical results
/// at any thread count. Sessions are single-threaded and share nothing;
/// parallelism is across sessions, never within one.
pub fn run_fleet<B>(threads: usize, specs: &[FleetSpec<B>]) -> Vec<FleetOutcome>
where
    B: Fn() -> Result<Session, ServeError> + Sync,
{
    let cfg = simcore::par::PoolConfig::new(threads);
    simcore::par::map_stats(&cfg, specs, |_, spec| run_spec(spec)).0
}

fn run_spec<B>(spec: &FleetSpec<B>) -> FleetOutcome
where
    B: Fn() -> Result<Session, ServeError>,
{
    let dead = |reason: &'static str| FleetOutcome {
        directives: 0,
        dead_letters: 0,
        checkpoints: 0,
        final_digest: 0,
        faults: 0,
        health: SessionHealth::Dead { reason },
    };
    let Ok(mut server) = Server::new(1) else {
        return dead("server rejected bound 1");
    };
    let Ok(id) = server.admit(Box::new(&spec.builder)) else {
        return dead("admission failed");
    };
    let mut directives = 0u64;
    let mut faults = 0u64;
    for chunk in spec.samples.chunks(INGEST_BATCH) {
        match server.ingest(id, chunk) {
            Ok(out) => directives += out.len() as u64,
            Err(ServeError::Faulted) => faults += 1,
            Err(ServeError::Quarantined) => break,
            Err(_) => break,
        }
    }
    if !matches!(server.health(id), Ok(SessionHealth::Dead { .. })) {
        match server.finish(id) {
            Ok(_) => {}
            Err(ServeError::Faulted) => faults += 1,
            Err(_) => {}
        }
    }
    FleetOutcome {
        directives,
        dead_letters: server.dead_letter_total(id).unwrap_or(0),
        checkpoints: server.checkpoints(id).map(|c| c.len()).unwrap_or(0),
        final_digest: server.digest(id).unwrap_or(0),
        faults,
        health: server.health(id).unwrap_or(SessionHealth::Dead {
            reason: "slot vanished",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SessionHealth as Health;
    use machine::workload::ScriptedWorkload;
    use machine::{Activity, Machine, MachineConfig, Step, Workload};
    use simcore::{SimDuration, SimTime};

    /// Horizon of the test sessions: past the second checkpoint.
    const HORIZON: SimTime = SimTime::from_secs(400);

    fn idle_session(procs: usize) -> Result<Session, ServeError> {
        let mut m = Machine::new(MachineConfig::default());
        for _ in 0..procs {
            m.add_process(Box::new(ScriptedWorkload::idle_for(
                "idle",
                SimDuration::from_secs(500),
            )));
        }
        Session::serve(m, None, None, HORIZON)
    }

    /// Idles until a trigger instant, then panics on the next poll — the
    /// shape of a latent workload bug that a hostile input stream trips.
    struct PanicAt {
        at: SimTime,
    }

    impl Workload for PanicAt {
        fn name(&self) -> &'static str {
            "landmine"
        }
        fn poll(&mut self, now: SimTime) -> Step {
            assert!(now < self.at, "landmine tripped at {now:?}");
            Step::Run(Activity::Wait {
                until: now + SimDuration::from_secs(1),
            })
        }
        fn freeze(&self, w: &mut simcore::SnapshotWriter) -> Result<(), simcore::SnapshotError> {
            let _ = w;
            Ok(())
        }
        fn thaw(
            &mut self,
            r: &mut simcore::SnapshotReader<'_>,
        ) -> Result<(), simcore::SnapshotError> {
            let _ = r;
            Ok(())
        }
    }

    fn landmine_session(at_s: u64) -> Result<Session, ServeError> {
        let mut m = Machine::new(MachineConfig::default());
        m.add_process(Box::new(PanicAt {
            at: SimTime::from_secs(at_s),
        }));
        m.add_process(Box::new(ScriptedWorkload::idle_for(
            "idle",
            SimDuration::from_secs(500),
        )));
        Session::serve(m, None, None, HORIZON)
    }

    #[test]
    fn admission_is_bounded() {
        let mut server = Server::new(2).expect("server");
        assert!(Server::new(0).is_err());
        assert_eq!(server.admit(Box::new(|| idle_session(1))).expect("a"), 0);
        assert_eq!(server.admit(Box::new(|| idle_session(1))).expect("b"), 1);
        assert_eq!(
            server
                .admit(Box::new(|| idle_session(1)))
                .expect_err("full"),
            ServeError::AdmissionFull
        );
        assert_eq!(server.len(), 2);
        assert_eq!(server.capacity(), 2);
        assert_eq!(
            server.health(9).expect_err("oob"),
            ServeError::UnknownSession
        );
    }

    #[test]
    fn sessions_are_independent_and_match_a_solo_run() {
        let mut server = Server::new(4).expect("server");
        let a = server.admit(Box::new(|| idle_session(1))).expect("a");
        let b = server.admit(Box::new(|| idle_session(3))).expect("b");
        server.ingest(a, &[Sample::tick(25.0)]).expect("a ticks");
        server
            .ingest(b, &[Sample::tick(11.0), Sample::tick(44.0)])
            .expect("b ticks");
        // Each slot's digest equals a standalone session fed the same.
        let mut solo = idle_session(1).expect("solo");
        solo.ingest(&[Sample::tick(25.0)]).expect("solo ticks");
        assert_eq!(server.digest(a).expect("digest"), solo.digest());
        assert_ne!(server.digest(a).expect("a"), server.digest(b).expect("b"));
        assert_eq!(server.health(a).expect("a"), SessionHealth::Healthy);
        let stats = server.stats(a).expect("stats");
        assert_eq!(stats.batches, 1);
        assert!(stats.snapshots >= 1, "{stats:?}");
    }

    #[test]
    fn a_panicking_session_is_contained_and_rolled_back() {
        let mut server = Server::new(2).expect("server");
        let mine = server.admit(Box::new(|| landmine_session(30))).expect("m");
        let calm = server.admit(Box::new(|| idle_session(1))).expect("c");
        server
            .ingest(mine, &[Sample::tick(10.0)])
            .expect("pre-trip");
        let digest_before = server.digest(mine).expect("digest");
        server.ingest(calm, &[Sample::tick(10.0)]).expect("calm");

        // This batch drives the landmine past its trigger: the session
        // panics inside ingest, the server contains it.
        let err = server
            .ingest(mine, &[Sample::tick(60.0)])
            .expect_err("tripped");
        assert_eq!(err, ServeError::Faulted);
        assert_eq!(
            server.health(mine).expect("health"),
            SessionHealth::Recovered
        );
        // Rolled back to the pre-batch state, in O(state) via snapshot.
        assert_eq!(server.digest(mine).expect("digest"), digest_before);
        let stats = server.stats(mine).expect("stats");
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.snapshot_restores, 1);
        assert_eq!(stats.replay_restores, 0);

        // The sibling never noticed.
        assert_eq!(server.health(calm).expect("calm"), SessionHealth::Healthy);
        server.ingest(calm, &[Sample::tick(20.0)]).expect("calm on");
        server.finish(calm).expect("calm finish");
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_replay() {
        let mut server = Server::new(1).expect("server");
        let id = server.admit(Box::new(|| landmine_session(30))).expect("m");
        server.ingest(id, &[Sample::tick(10.0)]).expect("pre-trip");
        let digest_before = server.digest(id).expect("digest");
        // Sabotage the stored snapshot: flip one payload byte. The
        // envelope checksum rejects it and restore replays the log.
        {
            let slot = &mut server.slots[0];
            let (bytes, _) = slot.snapshot.as_mut().expect("snapshot exists");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
        }
        let err = server
            .ingest(id, &[Sample::tick(60.0)])
            .expect_err("tripped");
        assert_eq!(err, ServeError::Faulted);
        assert_eq!(server.digest(id).expect("digest"), digest_before);
        let stats = server.stats(id).expect("stats");
        assert_eq!(stats.snapshot_restores, 0);
        assert_eq!(stats.replay_restores, 1);
        assert_eq!(server.health(id).expect("health"), SessionHealth::Recovered);
    }

    #[test]
    fn unrecoverable_slot_is_quarantined_not_propagated() {
        // A landmine at t=0 trips during admission's first real batch
        // and again during every replay: the slot dies cleanly.
        let mut server = Server::new(2).expect("server");
        let id = server.admit(Box::new(|| landmine_session(5))).expect("m");
        let calm = server.admit(Box::new(|| idle_session(1))).expect("c");
        let err = server
            .ingest(id, &[Sample::tick(50.0)])
            .expect_err("tripped");
        // The pre-batch snapshot restores state-at-admission, and the
        // catch-up suffix is empty, so first failure recovers...
        assert_eq!(err, ServeError::Faulted);
        // ...but the same hostile batch keeps failing without ever
        // corrupting the sibling, and the slot never lies about health.
        let err = server
            .ingest(id, &[Sample::tick(50.0)])
            .expect_err("tripped again");
        assert_eq!(err, ServeError::Faulted);
        server.ingest(calm, &[Sample::tick(20.0)]).expect("calm");
        assert_eq!(server.health(calm).expect("calm"), SessionHealth::Healthy);
    }

    #[test]
    fn fleet_runs_identically_at_every_thread_count() {
        let specs: Vec<FleetSpec<_>> = (0..4)
            .map(|i| FleetSpec {
                builder: move || idle_session(1 + i % 2),
                samples: (1..100).map(|k| Sample::tick(k as f64 * 4.0)).collect(),
            })
            .collect();
        let serial = run_fleet(1, &specs);
        assert_eq!(serial.len(), 4);
        for out in &serial {
            assert_eq!(out.health, SessionHealth::Healthy);
            assert_eq!(out.faults, 0);
            assert!(out.checkpoints > 0);
        }
        for threads in [2, 4] {
            assert_eq!(run_fleet(threads, &specs), serial, "threads={threads}");
        }
    }

    #[test]
    fn health_enum_reexports_match() {
        // `SessionHealth` is re-exported at the crate root.
        let h: Health = SessionHealth::Healthy;
        assert_eq!(h, Health::Healthy);
    }
}
