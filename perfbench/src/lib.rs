//! End-to-end and per-layer benchmark of the R2D3 commands users run:
//! the fault campaign, the Fig. 5(c) lifetime sweep and the serve
//! daemon. Every layer is timed from outside, through the library's
//! public functions and seams; nothing is instrumented inside it.

pub mod campaign;
pub mod counting_vfs;
pub mod host_speed;
pub mod lifetime;
pub mod served;
pub mod stats;
pub mod timed_substrate;

use std::time::{Duration, Instant};

/// A point in time a workload stops starting new work at.
#[derive(Debug, Clone, Copy)]
pub struct Deadline(Instant);

impl Deadline {
    /// `seconds` from now.
    #[must_use]
    pub fn after(seconds: f64) -> Deadline {
        Deadline(Instant::now() + Duration::from_secs_f64(seconds))
    }

    /// Whether work taking `d` would still end by the deadline.
    #[must_use]
    pub fn has_room_for(&self, d: Duration) -> bool {
        Instant::now() + d <= self.0
    }
}

/// A duration in milliseconds.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
