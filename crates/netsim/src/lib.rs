#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        reason = "tests assert the exact values a deterministic run reproduces"
    )
)]
//! Wireless network model.
//!
//! The paper's client communicates with its servers over a 2 Mb/s WaveLAN
//! operating at 900 MHz; video playback is explicitly bandwidth-limited by
//! it ("not enough video data is transmitted to saturate the processor"),
//! and concurrent applications (Section 3.7) share it. This crate models
//! the link as a processor-sharing server: each active flow receives an
//! equal share of the capacity, recomputed whenever flows start or finish.
//! RPC timing (request → server residence → reply) composes on top.

pub mod faults;
pub mod link;
pub mod rpc;

pub use faults::{LinkFaultPlan, LinkFaultTimeline};
pub use link::{FlowId, SharedLink};
pub use rpc::RpcSpec;

/// The paper's WaveLAN capacity: 2 Mb/s.
pub const WAVELAN_CAPACITY_BPS: f64 = 2.0e6;

/// One-way media-access latency per RPC leg (carrier acquisition, headers).
pub const RPC_LATENCY: simcore::SimDuration = simcore::SimDuration::from_millis(5);
