//! Seeded input streams for the `serve` workload.
//!
//! Each served session gets its own stream: jittered ticks over the
//! session's run, a small seeded share of live reconfiguration samples
//! and of malformed samples (which the session must dead-letter), cut
//! into batches of 1..=[`MAX_BATCH`] samples. The stream is a pure
//! function of `(seed, target)`; the program under test only sees it.
//!
//! Reconfigurations are goal revisions near the rig's 1560 s goal.
//! Quarantine commands are left out because one suspends a whole
//! application, so the seed would decide how much work a run does.
//! Re-admit commands are left out because re-admitting a process the
//! Supervisor quarantined while its CPU slice is in flight panics the
//! machine ("running process not in ReadyCpu state"), which the drilled
//! bare sessions cannot contain. Every `serve` run shows that defect
//! instead through `serve::readmit_probe`; see `README.md` beside this
//! crate.

use simcore::{SimDuration, SimRng};
use simserve::{ReconfigCommand, Sample};

/// Simulated span the stream covers, s. The served rig meets its 1560 s
/// goal and stops just before this, so the last samples arrive after
/// the stop and are refused.
pub const RUN_S: f64 = 1600.0;

/// Mean gap between samples, s; each gap is jittered uniformly in
/// `[0.5, 1.5)` times this.
pub const MEAN_GAP_S: f64 = 1.0;

/// Share of samples that carry a live reconfiguration command.
pub const RECONFIG_SHARE: f64 = 0.01;

/// Share of samples that are malformed (not finite, negative, or out of
/// order).
pub const MALFORMED_SHARE: f64 = 0.01;

/// Largest batch the client sends in one call.
pub const MAX_BATCH: u64 = 8;

/// One session's input: its samples and how they are cut into batches.
#[derive(Clone, Debug, PartialEq)]
pub struct Stream {
    /// Every sample, in send order.
    pub samples: Vec<Sample>,
    /// Batch sizes, in send order; they sum to `samples.len()`.
    pub batches: Vec<usize>,
}

impl Stream {
    /// The samples of each batch, in order.
    pub fn batch_slices(&self) -> Vec<&[Sample]> {
        let mut out = Vec::with_capacity(self.batches.len());
        let mut at = 0;
        for &n in &self.batches {
            out.push(&self.samples[at..at + n]);
            at += n;
        }
        out
    }
}

/// The stream of session `target` under workload seed `seed`.
pub fn generate(seed: u64, target: u64) -> Stream {
    let mut rng = SimRng::new(seed).fork_indexed("perfbench/serve/stream", target);
    let mut samples = Vec::new();
    let mut t = 0.0;
    loop {
        t += MEAN_GAP_S * rng.uniform(0.5, 1.5);
        if t > RUN_S {
            break;
        }
        let u = rng.uniform(0.0, 1.0);
        let sample = if u < MALFORMED_SHARE {
            match rng.uniform_u64(0, 2) {
                0 => Sample::tick(f64::NAN),
                1 => Sample::tick(-t),
                _ => Sample::tick(t - 5.0 * MEAN_GAP_S),
            }
        } else if u < MALFORMED_SHARE + RECONFIG_SHARE {
            let goal = SimDuration::from_secs(rng.uniform_u64(1540, 1580));
            Sample::reconfig(t, ReconfigCommand::Goal(goal))
        } else {
            Sample::tick(t)
        };
        samples.push(sample);
    }
    let mut batches = Vec::new();
    let mut left = samples.len();
    while left > 0 {
        let n = (rng.uniform_u64(1, MAX_BATCH) as usize).min(left);
        batches.push(n);
        left -= n;
    }
    Stream { samples, batches }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simserve::SampleKind;

    /// Bitwise view so NaN samples compare equal to themselves.
    fn bits(s: &Stream) -> Vec<(u64, String)> {
        s.samples
            .iter()
            .map(|x| (x.at_s.to_bits(), format!("{:?}", x.kind)))
            .collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = generate(7, 0);
        assert_eq!(bits(&a), bits(&generate(7, 0)));
        assert_eq!(a.batches, generate(7, 0).batches);
        assert_ne!(bits(&a), bits(&generate(8, 0)));
        assert_ne!(bits(&a), bits(&generate(7, 1)));
    }

    #[test]
    fn stream_has_the_declared_shape() {
        let s = generate(42, 3);
        assert_eq!(s.batches.iter().sum::<usize>(), s.samples.len());
        assert!(s
            .batches
            .iter()
            .all(|&n| (1..=MAX_BATCH as usize).contains(&n)));
        assert_eq!(s.batch_slices().len(), s.batches.len());
        let n = s.samples.len() as f64;
        assert!((RUN_S / MEAN_GAP_S * 0.9..RUN_S / MEAN_GAP_S * 1.1).contains(&n));
        let reconfigs = s
            .samples
            .iter()
            .filter(|x| matches!(x.kind, SampleKind::Reconfig(_)))
            .count();
        let malformed = s
            .samples
            .iter()
            .filter(|x| !x.at_s.is_finite() || x.at_s < 0.0)
            .count();
        assert!(
            reconfigs > 0 && (reconfigs as f64) < n * 0.05,
            "{reconfigs}"
        );
        assert!(
            malformed > 0 && (malformed as f64) < n * 0.05,
            "{malformed}"
        );
    }
}
