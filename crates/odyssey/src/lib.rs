#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        reason = "tests assert the exact values a deterministic run reproduces"
    )
)]
//! Odyssey: energy-aware adaptation (the paper's primary contribution).
//!
//! Odyssey mediates between applications that can trade *data fidelity*
//! for resource consumption and an operating system that monitors resource
//! supply and demand. This crate implements the energy extension the paper
//! contributes on top of the original bandwidth-adaptive Odyssey:
//!
//! - [`fidelity`] — the type-specific notion of data degradation;
//! - [`warden`] — per-data-type code components registering fidelity
//!   spaces with the viceroy;
//! - [`expectation`] — the resource-expectation window API: applications
//!   state bounds on a resource, and leave-window events trigger upcalls;
//! - [`demand`] — exponential smoothing of observed power with a
//!   half-life tied to time-remaining, and the future-demand predictor;
//! - [`priority`] — the user-specified priority order that picks which
//!   application to degrade first (and upgrade last);
//! - [`goal`] — the goal-directed controller of Section 5: given an
//!   initial energy value and a user-specified duration, it monitors
//!   supply and demand twice a second and issues degrade/upgrade upcalls
//!   with hysteresis so the battery lasts exactly as long as asked;
//! - [`viceroy`] — the resource-management facade plus the original
//!   Odyssey bandwidth-adaptation loop (passive throughput estimation
//!   against expectation windows), the substrate the energy work extends;
//! - [`supervisor`] — the crash-tolerant control plane: watchdogs,
//!   demand-vs-attribution cross-checks, quarantine, and deterministic
//!   restart for applications that hang, crash, lie, or ignore upcalls.

pub mod demand;
pub mod expectation;
pub mod fidelity;
pub mod goal;
pub mod priority;
pub mod supervisor;
pub mod viceroy;
pub mod warden;

pub use demand::{DemandLedger, Smoother};
pub use expectation::{Expectation, ExpectationRegistry, Resource, WindowEvent};
pub use fidelity::{FidelityLevel, FidelitySpace};
pub use goal::{GoalConfig, GoalController, GoalHandle, GoalOutcome, Hardening};
pub use priority::PriorityTable;
pub use supervisor::{Supervisor, SupervisorHandle, SupervisorStats};
pub use viceroy::{BandwidthMonitor, Viceroy};
pub use warden::{Warden, WardenRegistry};
