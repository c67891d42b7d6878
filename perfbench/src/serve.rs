//! `serve`: one closed-loop client driving served sessions.
//!
//! Set-up admits [`SLOTS`] supervised goal rigs (`serve::build_session`)
//! into one `simserve::Server`. A round then sends each slot its seeded
//! stream in small batches, round-robin across slots, each batch only
//! after the directives for the previous one returned — as an Odyssey
//! agent waiting on its viceroy would. Beside the server, [`DRILLS`]
//! bare sessions run the failover drill: they freeze on every
//! checkpoint directive, are killed at seeded batch boundaries, and
//! recover by rebuilding, thawing the last snapshot and re-feeding the
//! batches since it. Last, one slot's stream is replayed through a bare
//! session, whose trace is rendered.
//!
//! Every session's final digest, directive count and dead-letter count
//! must equal those of an uninterrupted bare replay of the same stream,
//! computed before timing starts.
//!
//! Before timing, a run also serves the reproducer of a known machine
//! defect ([`readmit_probe`]) and reports whether it still faults.

use bench::Stopwatch;
use experiments::serve::build_session;
use simcore::SimRng;
use simserve::{Directive, ReconfigCommand, Sample, ServeError, Server, Session};

use crate::harness::{Metric, PassShape, Round, Workload};
use crate::spans::Tracer;
use crate::stats::{self, ratio};
use crate::stream::{self, Stream};

/// Sessions hosted by the server.
pub const SLOTS: u64 = 4;

/// Bare sessions running the failover drill.
pub const DRILLS: u64 = 2;

/// Kills per drilled session.
pub const KILLS_PER_DRILL: usize = 2;

/// Session `i` of the fleet is built at seed `FLEET_SEED + i`. The fleet
/// is fixed and the workload seed draws the traffic: a rig's cost
/// depends on its seed, and a drawn fleet would put that draw into the
/// run-to-run spread the benchmark's bounds gate.
pub const FLEET_SEED: u64 = 42;

/// Session seed, simulated second and process index of the re-admit
/// that [`readmit_probe`] sends.
const PROBE: (u64, f64, usize) = (47, 266.74, 3);

/// Serves the reproducer of a known defect: re-admitting a process the
/// Supervisor quarantined while its CPU slice is in flight panics the
/// machine in `on_cpu_done`. The `Server` contains the panic and returns
/// `ServeError::Faulted`. Returns whether it faulted, so the count reads
/// 0 once the machine handles the case.
pub fn readmit_probe() -> Result<u64, String> {
    let (seed, at_s, pid) = PROBE;
    let mut server = Server::new(1).map_err(|e| format!("server: {e}"))?;
    server
        .admit(Box::new(move || build_session(seed)))
        .map_err(|e| format!("admit: {e}"))?;
    let ticks: Vec<Sample> = (1..=at_s as u32).map(|t| Sample::tick(t.into())).collect();
    server
        .ingest(0, &ticks)
        .map_err(|e| format!("ticks before the re-admit: {e}"))?;
    let mut batch = vec![Sample::reconfig(at_s, ReconfigCommand::Readmit(pid))];
    batch.extend((at_s as u32 + 1..at_s as u32 + 30).map(|t| Sample::tick(t.into())));
    match server.ingest(0, &batch) {
        Ok(_) => Ok(0),
        Err(ServeError::Faulted) => Ok(1),
        Err(e) => Err(format!("re-admit batch: {e}")),
    }
}

/// What an uninterrupted replay of a stream ends with.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Twin {
    digest: u64,
    directives: u64,
    dead_letters: u64,
}

/// One session's seed, input and expected end state.
#[derive(Debug)]
struct Target {
    session_seed: u64,
    stream: Stream,
    twin: Twin,
    /// Batch indices after which a drilled session is killed.
    kills: Vec<usize>,
}

/// Dead-lettered samples among `directives`.
fn dead_letters(directives: &[Directive]) -> u64 {
    directives
        .iter()
        .filter(|d| matches!(d, Directive::DeadLettered { .. }))
        .count() as u64
}

/// Feeds `stream` to a fresh session without interruption.
fn replay_twin(seed: u64, stream: &Stream) -> Result<Twin, String> {
    let mut session = build_session(seed).map_err(|e| format!("build: {e}"))?;
    let mut directives = 0;
    for batch in stream.batch_slices() {
        directives += session
            .ingest(batch)
            .map_err(|e| format!("ingest: {e}"))?
            .len() as u64;
    }
    session.finish().map_err(|e| format!("finish: {e}"))?;
    Ok(Twin {
        digest: session.digest(),
        directives,
        dead_letters: session.dead_letters().map_or(0, |d| d.total()),
    })
}

/// Per-round tallies that feed the counters and layer metrics.
#[derive(Debug, Default)]
struct Tally {
    /// Samples sent minus samples dead-lettered.
    accepted: u64,
    sim_s: f64,
    freezes: u64,
    freeze_bytes: u64,
    thaws: u64,
    trace_records: u64,
    directives: u64,
    dead_letters: u64,
    snapshots: u64,
    netsim: [u64; 3],
}

impl Tally {
    fn finished(&mut self, report: &machine::RunReport, resimulated_s: f64) {
        self.sim_s += report.end.as_secs_f64() + resimulated_s;
        self.netsim[0] += report.bytes_carried;
        self.netsim[1] += report.rpc_timeouts;
        self.netsim[2] += report.rpc_retries;
    }
}

/// The `serve` workload.
pub struct Serve {
    slots: Vec<Target>,
    drills: Vec<Target>,
    server: Option<Server<'static>>,
    /// Latency of every `Server::ingest` call of the pass, ms.
    ingest_ms: Vec<f64>,
    /// Latency of every drill recovery of the pass, ms.
    recover_ms: Vec<f64>,
    /// Tallies of the last round.
    last: Tally,
    /// Whether [`readmit_probe`] faulted (1) or not (0).
    readmit_faults: u64,
}

impl std::fmt::Debug for Serve {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Serve")
            .field("slots", &self.slots)
            .field("drills", &self.drills)
            .finish_non_exhaustive()
    }
}

impl Serve {
    /// Generates every session's stream and replays each once,
    /// uninterrupted, for the expected end state; serves the known-defect
    /// reproducer and prints its outcome.
    pub fn new(seed: u64) -> Result<Serve, String> {
        let readmit_faults = readmit_probe().map_err(|e| format!("readmit probe: {e}"))?;
        println!(
            "known-defect machine.on_cpu_done re-admit of a quarantined process mid-slice: {}",
            if readmit_faults > 0 {
                "reproduced (session faulted)"
            } else {
                "not reproduced"
            }
        );
        let root = SimRng::new(seed).fork("perfbench/serve/kills");
        let target = |i: u64| -> Result<Target, String> {
            let session_seed = FLEET_SEED + i;
            let stream = stream::generate(seed, i);
            let twin =
                replay_twin(session_seed, &stream).map_err(|e| format!("serve twin {i}: {e}"))?;
            let mut rng = root.fork_indexed("target", i);
            let n = stream.batches.len() as u64;
            let mut kills: Vec<usize> = (0..KILLS_PER_DRILL)
                .map(|_| rng.uniform_u64(n / 4, n.saturating_sub(2)) as usize)
                .collect();
            kills.sort_unstable();
            kills.dedup();
            Ok(Target {
                session_seed,
                stream,
                twin,
                kills,
            })
        };
        Ok(Serve {
            slots: (0..SLOTS).map(target).collect::<Result<_, _>>()?,
            drills: (SLOTS..SLOTS + DRILLS)
                .map(target)
                .collect::<Result<_, _>>()?,
            server: None,
            ingest_ms: Vec::new(),
            recover_ms: Vec::new(),
            last: Tally::default(),
            readmit_faults,
        })
    }
}

/// Rebuilds a killed session: thaw of the last snapshot (when there is
/// one) plus re-feed of the batches it does not cover. Returns the
/// session and the simulated time it resumed from.
fn recover(
    tracer: &mut Tracer,
    op: u64,
    seed: u64,
    snapshot: Option<&(Vec<u8>, usize)>,
    fed: &[&[Sample]],
    tally: &mut Tally,
) -> Result<(Session, f64), String> {
    let mut session = tracer
        .span("simserve.rebuild", op, |_| build_session(seed))
        .map_err(|e| format!("rebuild: {e}"))?;
    let mut from = 0;
    if let Some((bytes, covered)) = snapshot {
        tracer
            .span("simcore.snapshot.thaw", op, |_| session.thaw(bytes))
            .map_err(|e| format!("thaw: {e}"))?;
        tally.thaws += 1;
        from = *covered;
    }
    let resumed_s = session.cursor().as_secs_f64();
    for batch in fed.get(from..).unwrap_or(&[]) {
        let d = tracer
            .span("simserve.drill_ingest", op, |_| session.ingest(batch))
            .map_err(|e| format!("re-feed: {e}"))?;
        tally.accepted += (batch.len() as u64).saturating_sub(dead_letters(&d));
    }
    Ok((session, resumed_s))
}

/// Runs the failover drill on one target; returns recovery latencies.
// simlint: allow(P1) — recovery latency is host time by design
fn drill(
    tracer: &mut Tracer,
    op: u64,
    t: &Target,
    tally: &mut Tally,
    round: &mut Round,
) -> Result<Vec<f64>, String> {
    let batches = t.stream.batch_slices();
    let mut session = tracer
        .span("simserve.build", op, |_| build_session(t.session_seed))
        .map_err(|e| format!("build: {e}"))?;
    let mut snapshot: Option<(Vec<u8>, usize)> = None;
    let mut recover_ms = Vec::new();
    let mut resimulated_s = 0.0;
    for (b, batch) in batches.iter().enumerate() {
        let d = tracer
            .span("simserve.drill_ingest", op, |_| session.ingest(batch))
            .map_err(|e| format!("batch {b}: ingest: {e}"))?;
        tally.accepted += (batch.len() as u64).saturating_sub(dead_letters(&d));
        if d.iter()
            .any(|x| matches!(x, Directive::Checkpointed { .. }))
        {
            let bytes = tracer
                .span("simcore.snapshot.freeze", op, |_| session.freeze())
                .map_err(|e| format!("batch {b}: freeze: {e}"))?;
            tally.freezes += 1;
            tally.freeze_bytes += bytes.len() as u64;
            snapshot = Some((bytes, b + 1));
        }
        if t.kills.contains(&b) {
            let killed_s = session.cursor().as_secs_f64();
            drop(session);
            let sw = Stopwatch::start();
            let (s, resumed_s) = recover(
                tracer,
                op,
                t.session_seed,
                snapshot.as_ref(),
                &batches[..=b],
                tally,
            )
            .map_err(|e| format!("kill after batch {b}: {e}"))?;
            recover_ms.push(sw.elapsed_s() * 1e3);
            resimulated_s += killed_s - resumed_s;
            session = s;
            round.count("drill.recoveries", 1);
        }
    }
    let report = session.finish().map_err(|e| format!("finish: {e}"))?;
    tally.finished(&report, resimulated_s);
    let digest = session.digest();
    round.check(digest == t.twin.digest, || {
        format!(
            "serve: drill seed {}: digest {digest:#x} != uninterrupted {:#x}",
            t.session_seed, t.twin.digest
        )
    });
    Ok(recover_ms)
}

impl Workload for Serve {
    fn setup(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        self.server = None;
        let mut server = Server::new(SLOTS as usize).map_err(|e| format!("server: {e}"))?;
        for (i, t) in self.slots.iter().enumerate() {
            let seed = t.session_seed;
            tracer
                .span("simserve.admit", i as u64, |_| {
                    server.admit(Box::new(move || build_session(seed)))
                })
                .map_err(|e| format!("admit slot {i}: {e}"))?;
        }
        self.server = Some(server);
        Ok(())
    }

    // simlint: allow(P1) — ingest latency is host time by design
    fn round(&mut self, tracer: &mut Tracer) -> Round {
        let mut round = Round::default();
        let mut tally = Tally::default();
        let Some(mut server) = self.server.take() else {
            round.check(false, || "serve: no server was set up".to_string());
            return round;
        };
        let slices: Vec<Vec<&[Sample]>> =
            self.slots.iter().map(|t| t.stream.batch_slices()).collect();
        let mut next = vec![0usize; slices.len()];
        let mut directives = vec![0u64; slices.len()];
        let mut op = 0u64;
        loop {
            let mut sent = false;
            for (i, batches) in slices.iter().enumerate() {
                let Some(batch) = batches.get(next[i]) else {
                    continue;
                };
                next[i] += 1;
                sent = true;
                let sw = Stopwatch::start();
                let r = tracer.span("simserve.server_ingest", op, |_| server.ingest(i, batch));
                self.ingest_ms.push(sw.elapsed_s() * 1e3);
                op += 1;
                match r {
                    Ok(d) => {
                        round.attempted += 1;
                        directives[i] += d.len() as u64;
                        tally.accepted += (batch.len() as u64).saturating_sub(dead_letters(&d));
                    }
                    Err(e) => round.check(false, || {
                        format!("serve: slot {i} batch {}: ingest: {e}", next[i] - 1)
                    }),
                }
            }
            if !sent {
                break;
            }
        }
        for (i, t) in self.slots.iter().enumerate() {
            match tracer.span("simserve.finish", i as u64, |_| server.finish(i)) {
                Ok(report) => tally.finished(&report, 0.0),
                Err(e) => round.check(false, || format!("serve: slot {i}: finish: {e}")),
            }
            let got = Twin {
                digest: server.digest(i).unwrap_or(0),
                directives: directives[i],
                dead_letters: server.dead_letter_total(i).unwrap_or(0),
            };
            round.check(got == t.twin, || {
                format!(
                    "serve: slot {i}: ended {got:?}, uninterrupted replay {:?}",
                    t.twin
                )
            });
            let stats = server.stats(i).unwrap_or_default();
            tally.directives += got.directives;
            tally.dead_letters += got.dead_letters;
            tally.snapshots += stats.snapshots;
            round.count("server.directives", got.directives);
            round.count("server.dead_letters", got.dead_letters);
            round.count("server.snapshots", stats.snapshots);
            round.count(&format!("slot{i}.digest"), got.digest);
        }
        round.count(
            "server.samples",
            slices.iter().flatten().map(|b| b.len() as u64).sum(),
        );

        for (d, t) in self.drills.iter().enumerate() {
            let op = 1_000_000 + d as u64;
            match drill(tracer, op, t, &mut tally, &mut round) {
                Ok(ms) => self.recover_ms.extend(ms),
                Err(e) => round.check(false, || format!("serve: drill {d}: {e}")),
            }
        }

        if let Some(t) = self.slots.first() {
            match bare_replay(tracer, t, &mut tally) {
                Ok(digest) => round.check(digest == t.twin.digest, || {
                    format!(
                        "serve: bare replay digest {digest:#x} != {:#x}",
                        t.twin.digest
                    )
                }),
                Err(e) => round.check(false, || format!("serve: bare replay: {e}")),
            }
        }
        round.count("drill.freezes", tally.freezes);
        round.count("drill.freeze_bytes", tally.freeze_bytes);
        round.count("drill.thaws", tally.thaws);
        round.count("machine.accepted_samples", tally.accepted);
        round.count("machine.sim_us", (tally.sim_s * 1e6).round() as u64);
        round.count("trace.records", tally.trace_records);
        round.count("netsim.bytes_carried", tally.netsim[0]);
        self.last = tally;
        round
    }

    fn extra_metrics(&self, run_s: f64) -> Vec<Metric> {
        let n = self.ingest_ms.len();
        let mut out = vec![Metric::new(
            "sim_s_per_host_s",
            ratio(self.last.sim_s, run_s),
            "ratio",
        )];
        out.push(
            Metric::new(
                "ingest_p50_ms",
                stats::percentile(&self.ingest_ms, 50.0).unwrap_or(0.0),
                "ms",
            )
            .note(format!("n={n}")),
        );
        if n >= 1000 {
            out.push(
                Metric::new(
                    "ingest_p99_ms",
                    stats::percentile(&self.ingest_ms, 99.0).unwrap_or(0.0),
                    "ms",
                )
                .note(format!("n={n}")),
            );
        }
        if let Some(t) = stats::tail(&self.ingest_ms) {
            out.push(
                Metric::new("ingest_tail_ms", t.value, "ms").note(format!("p{} n={}", t.pct, t.n)),
            );
        }
        out.push(
            Metric::new(
                "recover_p50_ms",
                stats::median(&self.recover_ms).unwrap_or(0.0),
                "ms",
            )
            .note(format!("n={}", self.recover_ms.len())),
        );
        out
    }

    fn layer_metrics(&self, tracer: &Tracer, shape: PassShape) -> Vec<Metric> {
        let per = 1.0 / shape.rounds.max(1) as f64;
        let t = &self.last;
        let freeze_s = tracer.total_s("simcore.snapshot.freeze") * per;
        vec![
            Metric::new("machine.sim_s", t.sim_s, "s"),
            Metric::new(
                "machine.readmit_faults",
                self.readmit_faults as f64,
                "count",
            ),
            Metric::new(
                "simserve.server_ingest_s",
                tracer.total_s("simserve.server_ingest") * per,
                "s",
            ),
            Metric::new(
                "simserve.ingest_calls",
                tracer.count("simserve.server_ingest") as f64 * per,
                "count",
            ),
            Metric::new(
                "simserve.session_ingest_s",
                tracer.total_s("simserve.session_ingest") * per,
                "s",
            ),
            Metric::new(
                "simserve.admit_s",
                tracer.total_s("simserve.admit") / shape.setups.max(1) as f64,
                "s",
            ),
            Metric::new(
                "simserve.finish_s",
                tracer.total_s("simserve.finish") * per,
                "s",
            ),
            Metric::new("simserve.directives", t.directives as f64, "count"),
            Metric::new("simserve.dead_letters", t.dead_letters as f64, "count"),
            Metric::new("simserve.snapshots", t.snapshots as f64, "count"),
            Metric::new("simcore.snapshot.freeze_s", freeze_s, "s"),
            Metric::new("simcore.snapshot.freeze_calls", t.freezes as f64, "count"),
            Metric::new(
                "simcore.snapshot.bytes_mean",
                ratio(t.freeze_bytes as f64, t.freezes as f64),
                "bytes",
            ),
            Metric::new(
                "simcore.snapshot.thaw_s",
                tracer.total_s("simcore.snapshot.thaw") * per,
                "s",
            ),
            Metric::new("simcore.snapshot.thaw_calls", t.thaws as f64, "count"),
            Metric::new(
                "simcore.snapshot.useful_frac",
                ratio(t.thaws as f64, t.freezes as f64),
                "ratio",
            ),
            Metric::new("simcore.trace.records", t.trace_records as f64, "count"),
            Metric::new(
                "simcore.trace.jsonl_s",
                tracer.total_s("simcore.trace.jsonl") * per,
                "s",
            ),
            Metric::new("netsim.bytes_carried", t.netsim[0] as f64, "bytes"),
            Metric::new("netsim.rpc_timeouts", t.netsim[1] as f64, "count"),
            Metric::new("netsim.rpc_retries", t.netsim[2] as f64, "count"),
        ]
    }

    fn reset(&mut self) {
        self.ingest_ms.clear();
        self.recover_ms.clear();
    }
}

/// Replays one slot's stream through a bare session, renders its trace,
/// and returns the final digest.
fn bare_replay(tracer: &mut Tracer, t: &Target, tally: &mut Tally) -> Result<u64, String> {
    let op = 2_000_000;
    let mut session = build_session(t.session_seed).map_err(|e| format!("build: {e}"))?;
    for batch in t.stream.batch_slices() {
        let d = tracer
            .span("simserve.session_ingest", op, |_| session.ingest(batch))
            .map_err(|e| format!("ingest: {e}"))?;
        tally.accepted += (batch.len() as u64).saturating_sub(dead_letters(&d));
    }
    let report = session.finish().map_err(|e| format!("finish: {e}"))?;
    tally.finished(&report, 0.0);
    let lines = tracer.span("simcore.trace.jsonl", op, |_| session.trace_jsonl());
    tally.trace_records += lines.len() as u64;
    Ok(session.digest())
}
