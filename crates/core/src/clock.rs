//! The injectable clock behind answer timing and the deadline budget.
//!
//! Nothing on the serving path reads wall time directly: answer timings and
//! [`QueryBudget`](crate::QueryBudget) deadlines read a [`Clock`].
//! Production uses [`RealClock`]; tests inject [`ManualClock`] (or a clock of
//! their own) so every deadline cut is reproducible.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic clock in microseconds.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Microseconds since this clock's origin.
    fn now_micros(&self) -> u64;
}

/// Wall-clock implementation of [`Clock`].
#[derive(Debug)]
pub struct RealClock {
    origin: Instant,
}

impl RealClock {
    /// A clock whose origin is "now".
    pub fn new() -> Self {
        RealClock {
            #[allow(clippy::disallowed_methods)] // lint: allow(wall-clock) — this IS the injectable clock's real impl
            origin: Instant::now(),
        }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for RealClock {
    fn now_micros(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

/// Deterministic test clock: time advances only via [`ManualClock::advance`].
#[derive(Debug, Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// A clock starting at microsecond 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance the clock by `micros` microseconds.
    pub fn advance(&self, micros: u64) {
        // ordering: virtual time is a lone monotone counter — concurrent
        // advances need only the RMW's atomicity, and readers tolerate any
        // interleaving (a clock is inherently racy to read). Relaxed.
        self.now.fetch_add(micros, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_micros(&self) -> u64 {
        // ordering: see advance() — reading a clock is inherently racy.
        self.now.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_advances_only_when_told() {
        let clock = ManualClock::new();
        assert_eq!(clock.now_micros(), 0);
        clock.advance(250);
        clock.advance(50);
        assert_eq!(clock.now_micros(), 300);
    }
}
