#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        reason = "tests assert the exact values a deterministic run reproduces"
    )
)]
//! Power-state model of the paper's mobile client.
//!
//! All measurements in the paper were taken on a 233 MHz Pentium IBM
//! ThinkPad 560X with a 900 MHz 2 Mb/s WaveLAN interface, profiled through
//! an external multimeter. We have no such machine, so this crate is the
//! substitution: a component-level power model calibrated against the
//! paper's Figure 4 and the consistency identities stated in its prose
//! (total power 10.28 W at "screen brightest, disk and network idle",
//! 0.21 W of superlinearity, 5.60 W background with display dim and
//! disk/WaveLAN in standby, ~3.47 W with everything off).
//!
//! The crate deliberately knows nothing about scheduling or applications:
//! it answers exactly one question — *given these device states and this
//! CPU load, what is the platform drawing right now?* — plus the small
//! state machines (disk spin-down, radio wake windows, display dimming)
//! that hardware power management manipulates.

pub mod battery;
pub mod calib;
pub mod cpu;
pub mod disk;
pub mod display;
pub mod platform;
pub mod policy;
pub mod wavelan;

pub use battery::{BatteryGauge, EnergySource};
pub use calib::PlatformSpec;
pub use disk::{DiskModel, DiskState};
pub use display::{DisplayModel, DisplayState};
pub use platform::{DeviceStates, PlatformPower, PowerBreakdown};
pub use policy::PmPolicy;
pub use wavelan::{RadioModel, RadioState};
