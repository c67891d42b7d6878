#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        reason = "tests assert the exact values a deterministic run reproduces"
    )
)]
//! Zoned backlighting (Section 4 of the paper).
//!
//! No display with independently-dimmable backlight zones existed, so the
//! paper *projects* the energy impact from measured experiments: model the
//! screen as a grid of zones, each illuminated by one lamp whose power is
//! proportional to its area (¼ or ⅛ of the Figure-4 display power),
//! compute how many zones each application's window occupies at each
//! fidelity, and scale the measured display energy by the lit fraction.
//!
//! This crate implements that projection: zone grids, window-to-zone
//! occupancy with snap-to placement (the paper's proposed window-manager
//! "snap-to" feature that moves windows to straddle the fewest zones),
//! and the energy rescaling applied to machine run reports.

pub mod project;
pub mod zone;

pub use project::{project_report, zoned_energy_j};
pub use zone::{WindowRect, ZoneGrid};

/// Video window at full fidelity: 320×240 on the 560X's 800×600 panel.
pub const VIDEO_FULL_WINDOW: zone::WindowRect = zone::WindowRect {
    width: 0.40,
    height: 0.40,
};

/// Video window at half height and width.
pub const VIDEO_REDUCED_WINDOW: zone::WindowRect = zone::WindowRect {
    width: 0.20,
    height: 0.20,
};

/// Anvil's map window at full fidelity (large, but not full-screen:
/// the paper's full map lights 4 of 4 and 6 of 8 zones).
pub const MAP_FULL_WINDOW: zone::WindowRect = zone::WindowRect {
    width: 0.72,
    height: 0.90,
};

/// Anvil's window for a cropped, filtered map (2 of 4 and 3 of 8 zones).
pub const MAP_LOWEST_WINDOW: zone::WindowRect = zone::WindowRect {
    width: 0.55,
    height: 0.45,
};
