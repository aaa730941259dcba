//! The harness's clock: the one place in this crate that reads wall time.

use std::time::Instant;

#[allow(clippy::disallowed_methods)]
fn instant() -> Instant {
    // lint: allow(wall-clock) — measurement harness
    Instant::now()
}

/// Monotonic nanoseconds since the clock was started. Spans from one process share
/// one clock, so their start and end readings are comparable.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    /// Start a clock; its readings count from now.
    pub fn start() -> Self {
        Clock { epoch: instant() }
    }

    /// Nanoseconds since [`Clock::start`].
    #[inline]
    pub fn now_ns(&self) -> u64 {
        instant().duration_since(self.epoch).as_nanos() as u64
    }

    /// Time one call, returning its result and its duration in nanoseconds.
    #[inline]
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, u64) {
        let start = self.now_ns();
        let out = f();
        (out, self.now_ns() - start)
    }
}
