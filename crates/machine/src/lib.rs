#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        reason = "tests assert the exact values a deterministic run reproduces"
    )
)]
//! Event-driven simulator of the paper's mobile client.
//!
//! This crate binds the substrates together into a runnable machine: a
//! single-CPU round-robin scheduler with an X server work queue, the
//! `hw560x` device power models driven by the configured power-management
//! policy, a shared `netsim` WaveLAN link, and an energy ledger that
//! integrates platform power exactly between events and attributes it the
//! way PowerScope does — to the process running at each instant, with
//! network-interrupt and Odyssey data-path overlays.
//!
//! Applications are [`Workload`]s: pull-mode generators of [`Activity`]
//! phases (CPU bursts, RPCs, bulk fetches, disk reads, render requests,
//! waits). The Odyssey viceroy attaches as a [`ControlHook`] that runs on
//! a period, inspects supply and demand, and issues fidelity upcalls.
//!
//! Two deliberate simplifications, both documented in DESIGN.md:
//! - network-interrupt and Odyssey data-path CPU time are modelled as
//!   attribution overlays (they shape the energy profile) rather than as
//!   preempting executions (they do not slow application CPU bursts);
//! - CPU bursts run at full speed regardless of concurrent interrupt load.

pub mod activity;
pub mod checkpoint;
pub mod directive;
pub mod energy;
pub mod faults;
pub mod machine;
pub mod observer;
pub mod workload;

pub use activity::{Activity, AdaptDirection, FidelityView, Step};
pub use checkpoint::CheckpointHook;
pub use directive::Directive;
pub use energy::{ComponentTotals, ProcDetail, RunReport};
pub use faults::{FaultConfig, RpcPolicy};
pub use machine::{ControlHook, Machine, MachineConfig, MachineView, Pid, ProcessInfo};
pub use observer::{IntervalObserver, IntervalRecord, ShareEntry};
pub use workload::Workload;

/// Attribution bucket for time the CPU spends halted.
pub const BUCKET_IDLE: &str = "Idle";
/// Attribution bucket for X server rendering.
pub const BUCKET_X: &str = "X Server";
/// Attribution bucket for Odyssey viceroy/warden data-path work.
pub const BUCKET_ODYSSEY: &str = "Odyssey";
/// Attribution bucket for WaveLAN interrupt handling.
pub const BUCKET_WAVELAN: &str = "WaveLAN";
/// Attribution bucket for other kernel work (disk interrupts, syscalls).
pub const BUCKET_KERNEL: &str = "Kernel";
