//! Deadline-aware resilient serving: admission control, cooperative
//! cancellation and explicit degradation.
//!
//! The paper's serving story ("heavy traffic from millions of users") needs an
//! answer *within a latency budget* even when the system is overloaded — and
//! it needs to be honest about what that answer is. This module provides the
//! three pieces the pipeline threads together, all **opt-in** via
//! [`CqadsConfig::resilience`](crate::CqadsConfig) (left at `None`, every
//! existing code path is byte-identical):
//!
//! * **Admission control** — a bounded in-flight counter in front of
//!   [`CqadsWriter::answer_batch`](crate::CqadsWriter::answer_batch). A burst
//!   that arrives while the bound is saturated is *shed* with a typed
//!   [`CqadsError::Overloaded`](crate::CqadsError) instead of queueing without
//!   bound; under sustained deadline pressure the controller also steps the
//!   effective deadline down (and back up once batches run clean again).
//! * **Cooperative cancellation** — a [`QueryBudget`] token threaded into the
//!   partial-match engine's loops, which poll it at posting-block granularity
//!   (every [`BUDGET_CHECK_EVERY`](crate::partial) candidates); once the
//!   deadline passes, the engine stops at its next checkpoint, and so does
//!   every later question and part of the batch.
//! * **Explicit degradation** — a deadline-cut question returns the *provably
//!   correct prefix* of its best-so-far top-k (see
//!   [`partial`](crate::partial#deadlines-and-degradation)) and is flagged
//!   [`AnswerQuality::Degraded`]; optionally a generation-stale cached answer
//!   is served instead, flagged [`AnswerQuality::Stale`]. **No silently short
//!   or silently stale answer ever leaves the system** (invariant #6 in
//!   ARCHITECTURE.md).
//!
//! Time comes from an injected clock (re-exported from the storage crate's
//! retry layer, which shares it): production uses
//! [`RealClock`](cqads_storage::RealClock), tests use
//! [`ManualClock`](cqads_storage::ManualClock) so every deadline cut is
//! reproducible.

use cqads_storage::RetryClock;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

pub use crate::cache::CacheStats;

/// How an [`AnswerSet`](crate::AnswerSet) relates to the answer an unbounded,
/// fault-free run would have produced.
///
/// This is the "degradation is always explicit" invariant made type-level:
/// every path that can return less than the full answer must say so here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnswerQuality {
    /// The full pipeline ran to completion: exactly the answer the system
    /// without any resilience layer would return.
    #[default]
    Complete,
    /// The partial-match phase was cut by a [`QueryBudget`] deadline. The
    /// answer list is the certified prefix of the complete answer (exact
    /// answers are always complete; partial answers are kept only when
    /// provably in the global top-k — see the partial-matcher docs).
    Degraded {
        /// Candidates the whole batch had visited when this question was cut.
        visited: u64,
        /// Always `true` today: the only degradation trigger is an exhausted
        /// [`QueryBudget`]. Kept explicit so future triggers (per-shard
        /// hedging, fault-path fallbacks) stay distinguishable.
        budget_exhausted: bool,
    },
    /// The fresh path missed its deadline and a **generation-stale** cached
    /// answer was served instead (the table or model has mutated since it was
    /// computed). Complete as of an older generation, marked so the caller
    /// can tell.
    Stale,
}

impl AnswerQuality {
    /// True only for [`AnswerQuality::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, AnswerQuality::Complete)
    }
}

/// Serving-resilience knobs, installed via
/// [`CqadsConfig::resilience`](crate::CqadsConfig).
///
/// Like [`StorageOptions`](crate::StorageOptions), these describe *this
/// process* and are never persisted in snapshots.
#[derive(Debug, Clone)]
pub struct ResilienceOptions {
    /// Deadline for one `answer_batch` call's partial-match work, in
    /// microseconds. `None` = no deadline (admission control still applies).
    pub deadline_micros: Option<u64>,
    /// Maximum concurrently admitted `answer_batch` calls; further calls are
    /// shed with [`CqadsError::Overloaded`](crate::CqadsError). `0` =
    /// unbounded.
    pub max_in_flight: usize,
    /// When a question is deadline-cut and a cached answer for it exists —
    /// even a generation-stale one — serve that instead, flagged
    /// [`AnswerQuality::Stale`].
    pub serve_stale_on_timeout: bool,
    /// After this many *consecutive* degraded batches, halve the effective
    /// deadline (pressure step-down); after the same number of consecutive
    /// clean batches, step back up. `0` disables stepping.
    pub step_down_after: u32,
    /// Maximum number of halvings the step-down may apply.
    pub max_step_down: u32,
    /// The effective deadline never steps below this floor (microseconds).
    pub min_deadline_micros: u64,
    /// Time source for deadlines. Tests inject
    /// [`ManualClock`](cqads_storage::ManualClock).
    pub clock: Arc<dyn RetryClock>,
}

impl Default for ResilienceOptions {
    fn default() -> Self {
        ResilienceOptions {
            deadline_micros: None,
            max_in_flight: 0,
            serve_stale_on_timeout: true,
            step_down_after: 0,
            max_step_down: 3,
            min_deadline_micros: 1_000,
            clock: Arc::new(cqads_storage::RealClock::new()),
        }
    }
}

/// Cooperative cancellation token for one `answer_batch` call.
///
/// Created by the pipeline when a deadline is configured and threaded down
/// into the partial-match engine, which calls [`QueryBudget::expired`] at
/// posting-block checkpoints; the first check to see the deadline pass flips
/// the cancel flag, so every later pass stops at its next checkpoint
/// without ever looking at the clock again.
#[derive(Debug)]
pub struct QueryBudget {
    clock: Arc<dyn RetryClock>,
    /// Absolute clock time (micros) after which the budget is exhausted.
    deadline_micros: u64,
    cancelled: AtomicBool,
    visited: AtomicU64,
}

impl QueryBudget {
    /// A budget of `budget_micros` starting now on `clock`.
    pub fn new(clock: Arc<dyn RetryClock>, budget_micros: u64) -> Self {
        let deadline_micros = clock.now_micros().saturating_add(budget_micros);
        QueryBudget {
            clock,
            deadline_micros,
            cancelled: AtomicBool::new(false),
            visited: AtomicU64::new(0),
        }
    }

    /// Cancel cooperatively: the engine observes this at its next checkpoint.
    pub fn cancel(&self) {
        // ordering: the flag is the entire message — no other memory is
        // published with it, and a checkpoint reading it one iteration late
        // only does a little extra (correct) work. Relaxed suffices.
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Has the budget been cancelled or its deadline passed? Reads the clock
    /// only while the cancel flag is still clear (and latches it once set).
    pub fn expired(&self) -> bool {
        // ordering: see cancel() — the latch is self-contained, Relaxed.
        if self.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if self.clock.now_micros() >= self.deadline_micros {
            self.cancel();
            return true;
        }
        false
    }

    /// Cheap check of the cancel flag alone (no clock read).
    pub fn is_cancelled(&self) -> bool {
        // ordering: see cancel() — the latch is self-contained, Relaxed.
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Add `n` visited candidates to the batch-wide tally.
    pub fn add_visited(&self, n: u64) {
        // ordering: monotone stats tally read for reporting only; Relaxed.
        self.visited.fetch_add(n, Ordering::Relaxed);
    }

    /// Candidates visited across the whole batch so far.
    pub fn visited(&self) -> u64 {
        // ordering: advisory read of the monotone tally; Relaxed.
        self.visited.load(Ordering::Relaxed)
    }
}

/// Operator-facing snapshot of the serving path's health: the cache counters
/// plus every degradation signal the resilience and storage layers maintain.
///
/// Returned by [`CqadsWriter::serving_stats`](crate::CqadsWriter::serving_stats).
/// All counters start at zero at construction/open and only ever grow (except
/// [`pressure_level`](ServingStats::pressure_level), which tracks the current
/// step-down state, and [`routes`](ServingStats::routes), which restarts with
/// each new route memo).
#[derive(Debug, Clone, PartialEq)]
pub struct ServingStats {
    /// Answer-cache counters (hits, misses, evictions, occupancy).
    pub cache: CacheStats,
    /// Route-memo counters of the snapshot being served: a hit is a cached
    /// ask without an explicit domain that skipped the classifier and the
    /// cache key's tokenizer, a miss one that ran them. The one exception to
    /// "counters only grow": a classifier retrain or a newly registered domain
    /// name installs a fresh memo, and these counts restart at zero. All zero
    /// when [`CqadsConfig::cache_capacity`](crate::CqadsConfig::cache_capacity)
    /// is `0`.
    pub routes: CacheStats,
    /// Best-effort audit frames that failed to persist (after retries).
    pub audit_failures: u64,
    /// Batches rejected by admission control with `Overloaded`.
    pub shed: u64,
    /// Questions whose answers were flagged `Degraded` by a deadline cut.
    pub degraded: u64,
    /// Degraded questions answered from a generation-stale cache entry
    /// (flagged `Stale`).
    pub stale_served: u64,
    /// WAL append attempts that were retried after a transient failure.
    pub wal_retries: u64,
    /// Times the storage circuit breaker opened.
    pub breaker_opens: u64,
    /// Appends rejected outright because the breaker was open.
    pub breaker_rejections: u64,
    /// Current deadline step-down level (0 = full deadline; each level halves
    /// it, down to the configured floor).
    pub pressure_level: u32,
}

/// Shared state behind the resilience knobs: the admission counter, the
/// degradation tallies and the pressure step-down level.
#[derive(Debug)]
pub(crate) struct ResilienceRuntime {
    pub(crate) opts: ResilienceOptions,
    in_flight: AtomicUsize,
    shed: AtomicU64,
    degraded: AtomicU64,
    stale_served: AtomicU64,
    pressure: AtomicU32,
    degraded_streak: AtomicU32,
    clean_streak: AtomicU32,
}

impl ResilienceRuntime {
    pub(crate) fn new(opts: ResilienceOptions) -> Self {
        ResilienceRuntime {
            opts,
            in_flight: AtomicUsize::new(0),
            shed: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            stale_served: AtomicU64::new(0),
            pressure: AtomicU32::new(0),
            degraded_streak: AtomicU32::new(0),
            clean_streak: AtomicU32::new(0),
        }
    }

    /// Try to admit one batch. `None` means the in-flight bound is saturated
    /// and the batch was shed (counted). The permit releases its slot on drop.
    pub(crate) fn try_admit(&self) -> Option<AdmissionPermit<'_>> {
        // ordering: the in-flight bound needs only the *atomicity* of the
        // RMWs (add-then-check-then-undo keeps the count exact); the permit
        // guards no memory of its own, and shed is a monotone stats counter.
        // Relaxed throughout.
        let prev = self.in_flight.fetch_add(1, Ordering::Relaxed);
        if self.opts.max_in_flight > 0 && prev >= self.opts.max_in_flight {
            // ordering: undo + stats count, per the block comment above.
            self.in_flight.fetch_sub(1, Ordering::Relaxed);
            self.shed.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        Some(AdmissionPermit { runtime: self })
    }

    /// The configured deadline after pressure step-down, if any.
    pub(crate) fn effective_deadline_micros(&self) -> Option<u64> {
        let deadline = self.opts.deadline_micros?;
        // ordering: the pressure level is an independent tuning dial; a
        // slightly stale read picks a slightly stale deadline. Relaxed.
        let level = self.pressure.load(Ordering::Relaxed).min(63);
        let floor = self.opts.min_deadline_micros.min(deadline).max(1);
        Some((deadline >> level).max(floor))
    }

    /// Feed the step-down controller one batch outcome. Streak bookkeeping is
    /// best-effort under concurrency (Relaxed read-modify-write per field);
    /// the level always stays within `[0, max_step_down]`.
    pub(crate) fn note_batch(&self, any_degraded: bool) {
        if self.opts.step_down_after == 0 {
            return;
        }
        // ordering: streak bookkeeping is documented best-effort — racing
        // batches may under-count a streak, which only delays a step, and
        // the fetch_update RMWs keep the level itself exact and bounded.
        // Nothing synchronizes through these fields: Relaxed throughout.
        if any_degraded {
            // ordering: best-effort streak fields (block comment above).
            self.clean_streak.store(0, Ordering::Relaxed);
            let streak = self.degraded_streak.fetch_add(1, Ordering::Relaxed) + 1;
            if streak >= self.opts.step_down_after {
                self.degraded_streak.store(0, Ordering::Relaxed);
                let _ = self
                    .pressure
                    // ordering: part of the best-effort controller above.
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |level| {
                        (level < self.opts.max_step_down).then_some(level + 1)
                    });
            }
        } else {
            // ordering: best-effort streak controller, see above.
            self.degraded_streak.store(0, Ordering::Relaxed);
            let streak = self.clean_streak.fetch_add(1, Ordering::Relaxed) + 1;
            if streak >= self.opts.step_down_after {
                self.clean_streak.store(0, Ordering::Relaxed);
                let _ = self
                    .pressure
                    // ordering: part of the best-effort controller above.
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |level| {
                        level.checked_sub(1)
                    });
            }
        }
    }

    pub(crate) fn note_degraded(&self, n: u64) {
        // ordering: monotone stats counter; Relaxed.
        self.degraded.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn note_stale(&self, n: u64) {
        // ordering: monotone stats counter; Relaxed.
        self.stale_served.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn shed(&self) -> u64 {
        // ordering: advisory stats read; Relaxed.
        self.shed.load(Ordering::Relaxed)
    }

    pub(crate) fn degraded(&self) -> u64 {
        // ordering: advisory stats read; Relaxed.
        self.degraded.load(Ordering::Relaxed)
    }

    pub(crate) fn stale_served(&self) -> u64 {
        // ordering: advisory stats read; Relaxed.
        self.stale_served.load(Ordering::Relaxed)
    }

    pub(crate) fn pressure_level(&self) -> u32 {
        // ordering: advisory stats read; Relaxed.
        self.pressure.load(Ordering::Relaxed)
    }
}

/// RAII admission slot: dropping it releases the in-flight permit.
#[derive(Debug)]
pub(crate) struct AdmissionPermit<'a> {
    runtime: &'a ResilienceRuntime,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        // ordering: releases only the counted slot, not any memory — the
        // batch's results were handed over before the permit drops. Relaxed.
        self.runtime.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqads_storage::ManualClock;

    fn opts(clock: &Arc<ManualClock>) -> ResilienceOptions {
        ResilienceOptions {
            clock: Arc::clone(clock) as Arc<dyn RetryClock>,
            ..ResilienceOptions::default()
        }
    }

    #[test]
    fn budget_expires_by_clock_and_latches() {
        let clock = Arc::new(ManualClock::new());
        let budget = QueryBudget::new(Arc::clone(&clock) as Arc<dyn RetryClock>, 100);
        assert!(!budget.expired());
        clock.advance(99);
        assert!(!budget.expired());
        clock.advance(1);
        assert!(budget.expired());
        assert!(budget.is_cancelled(), "deadline latches the cancel flag");
        budget.add_visited(3);
        budget.add_visited(4);
        assert_eq!(budget.visited(), 7);
    }

    #[test]
    fn explicit_cancel_propagates() {
        let clock = Arc::new(ManualClock::new());
        let budget = QueryBudget::new(Arc::clone(&clock) as Arc<dyn RetryClock>, u64::MAX);
        assert!(!budget.expired());
        budget.cancel();
        assert!(budget.expired());
    }

    #[test]
    fn admission_bounds_in_flight_and_releases_on_drop() {
        let clock = Arc::new(ManualClock::new());
        let runtime = ResilienceRuntime::new(ResilienceOptions {
            max_in_flight: 2,
            ..opts(&clock)
        });
        let a = runtime.try_admit().expect("slot 1");
        let _b = runtime.try_admit().expect("slot 2");
        assert!(runtime.try_admit().is_none(), "third is shed");
        assert_eq!(runtime.shed(), 1);
        drop(a);
        assert!(runtime.try_admit().is_some(), "released slot readmits");
    }

    #[test]
    fn unbounded_admission_never_sheds() {
        let clock = Arc::new(ManualClock::new());
        let runtime = ResilienceRuntime::new(opts(&clock));
        let permits: Vec<_> = (0..100).map(|_| runtime.try_admit().unwrap()).collect();
        assert_eq!(runtime.shed(), 0);
        drop(permits);
    }

    #[test]
    fn pressure_steps_down_and_recovers() {
        let clock = Arc::new(ManualClock::new());
        let runtime = ResilienceRuntime::new(ResilienceOptions {
            deadline_micros: Some(8_000),
            step_down_after: 2,
            max_step_down: 2,
            min_deadline_micros: 1_000,
            ..opts(&clock)
        });
        assert_eq!(runtime.effective_deadline_micros(), Some(8_000));
        runtime.note_batch(true);
        assert_eq!(runtime.effective_deadline_micros(), Some(8_000));
        runtime.note_batch(true);
        assert_eq!(runtime.effective_deadline_micros(), Some(4_000));
        runtime.note_batch(true);
        runtime.note_batch(true);
        assert_eq!(runtime.effective_deadline_micros(), Some(2_000));
        // Capped at max_step_down.
        runtime.note_batch(true);
        runtime.note_batch(true);
        assert_eq!(runtime.effective_deadline_micros(), Some(2_000));
        assert_eq!(runtime.pressure_level(), 2);
        // Two clean batches step back up; a degraded one resets the streak.
        runtime.note_batch(false);
        runtime.note_batch(true);
        runtime.note_batch(false);
        assert_eq!(runtime.effective_deadline_micros(), Some(2_000));
        runtime.note_batch(false);
        runtime.note_batch(false);
        assert_eq!(runtime.effective_deadline_micros(), Some(4_000));
    }

    #[test]
    fn deadline_floor_holds() {
        let clock = Arc::new(ManualClock::new());
        let runtime = ResilienceRuntime::new(ResilienceOptions {
            deadline_micros: Some(2_000),
            step_down_after: 1,
            max_step_down: 10,
            min_deadline_micros: 1_500,
            ..opts(&clock)
        });
        for _ in 0..5 {
            runtime.note_batch(true);
        }
        assert_eq!(runtime.effective_deadline_micros(), Some(1_500));
    }

    #[test]
    fn quality_default_is_complete() {
        assert!(AnswerQuality::default().is_complete());
        assert!(!AnswerQuality::Stale.is_complete());
        assert!(!AnswerQuality::Degraded {
            visited: 1,
            budget_exhausted: true
        }
        .is_complete());
    }
}
