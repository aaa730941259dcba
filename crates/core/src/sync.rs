//! Concurrency-primitive facade: `std` in production, miniloom shims under
//! the `miniloom` cargo feature.
//!
//! The crate's hand-rolled concurrent types (the cache shards and counters
//! of [`AnswerCache`](crate::cache)) import their
//! atomics and mutexes from here instead of
//! `std::sync` directly. With the `miniloom` feature **off** (every
//! production build) the re-exports are thin `#[inline]` passthroughs with
//! identical semantics and cost; with it **on** (the root test targets —
//! see `tests/interleavings.rs`) the same types become model-checkable: each
//! operation turns into a scheduler yield point inside `miniloom::model`,
//! letting the checker exhaustively interleave the *production* protocol
//! code rather than a test re-implementation of it.
//!
//! The one deliberate semantic difference from `std::sync`: [`Mutex::lock`]
//! returns the guard directly and **recovers from poisoning**. Every critical
//! section behind these mutexes leaves its data structurally consistent, so a
//! panicked peer thread must cost one degraded operation, not wedge every
//! future access (a cache shard poisoned by one panicking filler would
//! otherwise take down serving for good).

#[cfg(feature = "miniloom")]
pub use miniloom::sync::{atomic, Mutex, MutexGuard};

#[cfg(not(feature = "miniloom"))]
pub use std_sync::{atomic, Mutex, MutexGuard};

/// The production implementation: `std` atomics re-exported as-is plus a
/// poison-recovering mutex wrapper (API-identical to `miniloom::sync`).
#[cfg(not(feature = "miniloom"))]
mod std_sync {
    pub use std::sync::atomic;
    use std::sync::PoisonError;

    /// Thin wrapper over [`std::sync::Mutex`] whose `lock` recovers from
    /// poisoning (see the [module docs](super) for why that is the right
    /// behaviour for this crate's critical sections).
    #[derive(Debug, Default)]
    pub struct Mutex<T> {
        inner: std::sync::Mutex<T>,
    }

    /// Guard returned by [`Mutex::lock`].
    pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

    impl<T> Mutex<T> {
        /// Wrap `value` (usable in constants, like the std constructor).
        pub const fn new(value: T) -> Self {
            Mutex {
                inner: std::sync::Mutex::new(value),
            }
        }

        /// Acquire the lock, recovering the guard from a poisoned peer.
        #[inline]
        pub fn lock(&self) -> MutexGuard<'_, T> {
            self.inner.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Consume the mutex, returning the protected value.
        pub fn into_inner(self) -> T {
            self.inner
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
        }

        /// Mutable access without locking (requires exclusive ownership).
        pub fn get_mut(&mut self) -> &mut T {
            self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
        }
    }
}
