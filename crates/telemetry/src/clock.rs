//! The time source spans read their timestamps from.
//!
//! Telemetry never calls `Instant::now()` behind the caller's back: a
//! [`crate::SpanScope`] is built over an explicit [`Clock`], so the
//! harness can drive spans from its simulated test clock and the ingest
//! pipeline from a shared monotonic one. `mlperf-core`'s `timing`
//! module re-exports this trait, so a single `Clock` implementation
//! serves both the time-to-train timer and the telemetry layer.

use std::time::{Duration, Instant};

/// A monotonic time source: time elapsed since an arbitrary fixed
/// origin. Implementations must be monotonic (readings never decrease)
/// but origins may differ between instances — the telemetry sink
/// aligns every scope's clock onto its own timeline (see
/// [`crate::Telemetry::scope`]).
pub trait Clock {
    /// Time elapsed since this clock's origin.
    fn now(&self) -> Duration;
}

/// Wall-clock time via [`Instant`], origin at creation. `Sync`, so one
/// instance can be shared across a worker pool to give every
/// worker the same timeline.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock with origin at creation.
    pub fn new() -> Self {
        MonotonicClock { origin: Instant::now() }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_advances() {
        let c = MonotonicClock::new();
        let a = c.now();
        std::thread::sleep(Duration::from_millis(2));
        assert!(c.now() > a);
    }
}
