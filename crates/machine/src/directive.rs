//! Typed control-plane directives: the channel a serving session's
//! outbox carries (see [`crate::Machine::open_outbox`]).

use simcore::{SimTime, TraceEvent};

/// One control-plane action, in emission order.
#[derive(Clone, Debug, PartialEq)]
pub enum Directive {
    /// A workload's fidelity level changed.
    Fidelity {
        /// Instant of the change.
        at: SimTime,
        /// Process id (machine index).
        pid: u64,
        /// `"up"` or `"down"`.
        direction: &'static str,
        /// New fidelity level (0 = highest fidelity).
        level: u64,
    },
    /// A datapath clamp factor was applied to a process.
    Clamp {
        /// Instant of the clamp.
        at: SimTime,
        /// Process id.
        pid: u64,
        /// Multiplier in (0, 1].
        factor: f64,
    },
    /// A process was quarantined (suspended).
    Quarantined {
        /// Instant of the suspension.
        at: SimTime,
        /// Process id.
        pid: u64,
    },
    /// A quarantined process was restarted.
    Restarted {
        /// Instant of the restart.
        at: SimTime,
        /// Process id.
        pid: u64,
    },
    /// The goal controller found the goal infeasible at lowest fidelity.
    GoalInfeasible {
        /// Instant of the verdict.
        at: SimTime,
    },
    /// The finite energy supply ran out.
    SupplyExhausted {
        /// Instant of exhaustion.
        at: SimTime,
        /// Energy left (≈ 0), J.
        residual_j: f64,
    },
    /// A reconfiguration command was accepted and applied.
    ReconfigApplied {
        /// Instant of application.
        at: SimTime,
        /// Command kind (`"goal"`, `"budget"`, `"horizon"`,
        /// `"quarantine"`, `"readmit"`).
        kind: &'static str,
        /// Command argument (seconds, joules, or process index).
        value: f64,
    },
    /// A reconfiguration command was rejected by validation.
    ReconfigRejected {
        /// Instant of rejection.
        at: SimTime,
        /// Command kind.
        kind: &'static str,
        /// Validation failure.
        reason: &'static str,
    },
    /// A malformed input sample was dead-lettered.
    DeadLettered {
        /// Instant of rejection (the session cursor).
        at: SimTime,
        /// Why the sample was rejected.
        reason: &'static str,
    },
    /// The journal recorded a checkpoint proof point.
    Checkpointed {
        /// Checkpoint sequence number.
        seq: u64,
        /// Instant the digest was taken.
        at: SimTime,
        /// Digest of the full live state.
        digest: u64,
    },
}

impl Directive {
    /// Instant the directive happened.
    pub fn at(&self) -> SimTime {
        match *self {
            Directive::Fidelity { at, .. }
            | Directive::Clamp { at, .. }
            | Directive::Quarantined { at, .. }
            | Directive::Restarted { at, .. }
            | Directive::GoalInfeasible { at }
            | Directive::SupplyExhausted { at, .. }
            | Directive::ReconfigApplied { at, .. }
            | Directive::ReconfigRejected { at, .. }
            | Directive::DeadLettered { at, .. }
            | Directive::Checkpointed { at, .. } => at,
        }
    }

    /// The directive a control-plane trace event stands for, emitted at
    /// `at`; `None` for events that only observe (scheduling, energy,
    /// flows, strikes, meter samples, …).
    pub fn from_event(at: SimTime, event: &TraceEvent) -> Option<Directive> {
        Some(match *event {
            TraceEvent::FidelityChange {
                pid,
                direction,
                level,
                ..
            } => Directive::Fidelity {
                at,
                pid,
                direction,
                level,
            },
            TraceEvent::DatapathClamp { pid, factor } => Directive::Clamp { at, pid, factor },
            TraceEvent::Suspend { pid, .. } => Directive::Quarantined { at, pid },
            TraceEvent::Restart { pid, .. } => Directive::Restarted { at, pid },
            TraceEvent::GoalInfeasible => Directive::GoalInfeasible { at },
            TraceEvent::SupplyExhausted { residual_j } => {
                Directive::SupplyExhausted { at, residual_j }
            }
            TraceEvent::ReconfigApplied { kind, value } => {
                Directive::ReconfigApplied { at, kind, value }
            }
            TraceEvent::ReconfigRejected { kind, reason } => {
                Directive::ReconfigRejected { at, kind, reason }
            }
            TraceEvent::DeadLetter { reason, .. } => Directive::DeadLettered { at, reason },
            _ => return None,
        })
    }
}
