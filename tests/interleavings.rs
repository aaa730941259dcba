//! Exhaustive-interleaving model checks of the workspace's hand-rolled
//! concurrency protocols, run with the vendored `miniloom` checker.
//!
//! These tests exercise the **production types** — not re-implementations:
//! `cqads`/`cqads-storage` are built here with their `miniloom` cargo
//! feature, which swaps their `sync` facade modules to miniloom's
//! model-aware shims (plain `std` passthrough outside a model). Inside
//! [`miniloom::model`] every atomic/mutex operation becomes a scheduler
//! yield point and the checker runs the closure once per distinct thread
//! schedule, so an assertion here holds for **every** interleaving of the
//! protocol's shimmed operations (under sequential consistency — the
//! per-site ordering-strength arguments live in the `// ordering:` comments
//! that `cargo xtask lint` enforces).
//!
//! Three protocols are checked, matching ARCHITECTURE.md invariants #7–#8:
//!
//! 1. [`CircuitBreaker`] — trip exactly-once under concurrent threshold
//!    crossing, and the half-open probe race leaves only expected states.
//! 2. [`AnswerCache`] — the generation-stamp fill/lookup protocol: a racing
//!    stale filler can never mask a fresher entry, and a lookup at the
//!    current stamp never returns a provably-stale answer.
//! 3. [`ArcSwap`] — the snapshot-publication slot ring behind the
//!    reader/writer handle split: loads never observe a torn or regressing
//!    snapshot, and racing writers serialize without losing a displaced
//!    snapshot.

use arcswap::ArcSwap;
use cqads::cache::{AnswerCache, CacheKey, GenerationStamp};
use cqads::pipeline::AnswerSet;
use cqads_storage::retry::CircuitBreaker;
use std::sync::{Arc, Mutex};

/// Floor asserted on every three-thread model: all `3! = 6` serial orders
/// exist, so exploring fewer means the checker degenerated and proves
/// nothing about races.
const MIN_SCHEDULES_3T: u64 = 6;

/// Floor for the two-thread models: strictly more than the two serial
/// orders, i.e. at least one genuinely interleaved schedule was explored.
const MIN_SCHEDULES_2T: u64 = 3;

// ---------------------------------------------------------------------------
// CircuitBreaker — trip / half-open / close races (crates/storage/src/retry.rs)
// ---------------------------------------------------------------------------

/// Two workers exhaust their retries concurrently with `threshold = 2`:
/// the `fetch_add` RMW guarantees the streak reaches 2 in every schedule, so
/// the breaker must end **open** — and exactly one worker observes the
/// crossing (`times_opened == 1`), so trip side effects never double-fire.
#[test]
fn circuit_breaker_concurrent_failures_trip_exactly_once() {
    let report = miniloom::model(|| {
        let breaker = Arc::new(CircuitBreaker::new(2, 1_000));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let breaker = Arc::clone(&breaker);
                miniloom::thread::spawn(move || breaker.record_failure(0))
            })
            .collect();
        for worker in workers {
            worker.join().unwrap();
        }
        assert!(
            !breaker.allows(999),
            "two concurrent failures at threshold 2 must leave the breaker open"
        );
        assert!(breaker.allows(1_000), "cooldown expiry half-opens");
        assert_eq!(
            breaker.times_opened(),
            1,
            "the threshold crossing must be observed by exactly one failure"
        );
    });
    assert!(report.schedules >= MIN_SCHEDULES_2T, "explored {report}");
    println!("circuit_breaker trip: {report}");
}

/// The half-open probe race: after a cooldown, a succeeding probe races a
/// failing one (`threshold = 1`). Both final states are legitimate — which
/// ever bookkeeping lands last wins — but every schedule must end in exactly
/// one of the two *coherent* states: fully closed (streak reset) or re-opened
/// for a full cooldown; and both outcomes must actually be reachable.
#[test]
fn circuit_breaker_half_open_probe_race_reaches_only_coherent_states() {
    let outcomes = Arc::new(Mutex::new(std::collections::BTreeSet::new()));
    let sink = Arc::clone(&outcomes);
    let report = miniloom::model(move || {
        let breaker = Arc::new(CircuitBreaker::new(1, 1_000));
        // Trip once; the probe race happens after the cooldown at t=1000.
        breaker.record_failure(0);
        assert!(!breaker.allows(999));
        assert!(breaker.allows(1_000), "half-open");

        let success = {
            let breaker = Arc::clone(&breaker);
            miniloom::thread::spawn(move || breaker.record_success())
        };
        let failure = {
            let breaker = Arc::clone(&breaker);
            miniloom::thread::spawn(move || breaker.record_failure(1_000))
        };
        success.join().unwrap();
        failure.join().unwrap();

        let open_now = !breaker.allows(1_000);
        let open_after_cooldown = !breaker.allows(2_000);
        assert!(
            !open_after_cooldown,
            "no schedule may leave the breaker open past a full cooldown"
        );
        sink.lock().unwrap().insert(open_now);
    });
    let outcomes = outcomes.lock().unwrap();
    assert!(
        outcomes.contains(&true) && outcomes.contains(&false),
        "both race winners must be reachable, saw {outcomes:?}"
    );
    assert!(report.schedules >= MIN_SCHEDULES_2T, "explored {report}");
    println!("circuit_breaker half-open race: {report}");
}

// ---------------------------------------------------------------------------
// AnswerCache — generation-stamp fill/lookup races (crates/core/src/cache.rs)
// ---------------------------------------------------------------------------

/// An [`AnswerSet`] distinguishable by its domain label (the answer payload
/// plays no role in the stamp protocol).
fn labeled_answer(label: &str) -> Arc<AnswerSet> {
    Arc::new(AnswerSet {
        domain: label.to_string(),
        tagged: Default::default(),
        interpretation: Default::default(),
        sql: String::new(),
        answers: Vec::new(),
        exact_count: 0,
        quality: Default::default(),
        elapsed: std::time::Duration::ZERO,
    })
}

/// The racing-fillers protocol: a slow filler holding a **stale** stamp races
/// a fresh filler and a reader at the current stamp. In every schedule:
///
/// * the reader never receives the stale answer (stamp `covers` gates it),
/// * after both fills, the fresh entry survives (a stale fill can't mask it).
#[test]
fn answer_cache_stale_filler_never_masks_or_serves() {
    let report = miniloom::model(|| {
        let cache = Arc::new(AnswerCache::new(4, 1));
        let key = CacheKey::new("cars", "blue honda");
        let stale_stamp = GenerationStamp::new(6, 0); // read before an insert
        let fresh_stamp = GenerationStamp::new(7, 0); // read after it

        let stale_filler = {
            let (cache, key) = (Arc::clone(&cache), key.clone());
            miniloom::thread::spawn(move || cache.fill(key, stale_stamp, labeled_answer("stale")))
        };
        let fresh_filler = {
            let (cache, key) = (Arc::clone(&cache), key.clone());
            miniloom::thread::spawn(move || cache.fill(key, fresh_stamp, labeled_answer("fresh")))
        };
        let reader = {
            let (cache, key) = (Arc::clone(&cache), key.clone());
            miniloom::thread::spawn(move || cache.lookup(&key, fresh_stamp))
        };

        if let Some(hit) = reader.join().unwrap() {
            assert_eq!(
                hit.domain, "fresh",
                "a lookup at the current stamp served a provably-stale answer"
            );
        }
        stale_filler.join().unwrap();
        fresh_filler.join().unwrap();

        // Whatever the interleaving, the surviving entry must be the fresh
        // one: fill only overwrites when the incoming stamp covers the
        // resident one, and lookup evicts anything the current stamp beats.
        let resident = cache
            .lookup(&key, fresh_stamp)
            .expect("the fresh fill must survive every race");
        assert_eq!(resident.domain, "fresh");
    });
    assert!(report.schedules >= MIN_SCHEDULES_3T, "explored {report}");
    println!("answer_cache stamp race: {report}");
}

/// Lookup-evicts-stale racing a stale re-fill: even when the stale filler
/// lands *after* the eviction, a reader at the current stamp still never
/// sees it — and the stale entry cannot permanently occupy the key (a fresh
/// fill afterwards always wins).
#[test]
fn answer_cache_eviction_and_stale_refill_race_stays_conservative() {
    let report = miniloom::model(|| {
        let cache = Arc::new(AnswerCache::new(4, 1));
        let key = CacheKey::new("cars", "blue honda");
        let stale_stamp = GenerationStamp::new(1, 0);
        let fresh_stamp = GenerationStamp::new(2, 0);
        cache.fill(key.clone(), stale_stamp, labeled_answer("stale"));

        let evicting_reader = {
            let (cache, key) = (Arc::clone(&cache), key.clone());
            miniloom::thread::spawn(move || cache.lookup(&key, fresh_stamp))
        };
        let stale_refiller = {
            let (cache, key) = (Arc::clone(&cache), key.clone());
            miniloom::thread::spawn(move || cache.fill(key, stale_stamp, labeled_answer("stale")))
        };
        assert!(
            evicting_reader.join().unwrap().is_none(),
            "a stale entry must never satisfy a current-stamp lookup"
        );
        stale_refiller.join().unwrap();

        // The stale re-fill may legitimately re-occupy the key, but it can
        // never be *served* at the current stamp, and a fresh fill displaces
        // it in every schedule.
        assert!(cache.lookup(&key, fresh_stamp).is_none());
        cache.fill(key.clone(), fresh_stamp, labeled_answer("fresh"));
        let resident = cache
            .lookup(&key, fresh_stamp)
            .expect("fresh fill must land");
        assert_eq!(resident.domain, "fresh");
    });
    assert!(report.schedules >= MIN_SCHEDULES_2T, "explored {report}");
    println!("answer_cache eviction race: {report}");
}

// ---------------------------------------------------------------------------
// ArcSwap — snapshot publication slot ring (vendor/arcswap, used by
// crates/core/src/handle.rs for the reader/writer handle split)
// ---------------------------------------------------------------------------

/// ArcSwap's per-operation yield points (slot mutexes, the cursor mutex and
/// the `current` index) give these models a much larger state space than the
/// protocols above, so they bound context switches per schedule like loom
/// does. A bound of 3 preemptions covers every race the slot ring can
/// express between two adjacent operations while keeping the search small.
fn bounded_model<F>(f: F) -> miniloom::Report
where
    F: Fn() + Send + Sync + 'static,
{
    miniloom::Builder {
        preemption_bound: Some(3),
        ..miniloom::Builder::default()
    }
    .check(f)
}

/// A publisher races two readers, each loading twice. In every schedule:
///
/// * no load observes a **torn** snapshot — the two fields of the published
///   pair always agree (writers build the value before touching the ring,
///   and `Release`-publish the slot index only after the slot holds it);
/// * consecutive loads on one thread never **regress** to an older snapshot
///   (the slot a reader locks can only be overwritten by a writer that
///   already published newer values);
/// * after the publisher finishes, a load returns the latest snapshot.
///
/// This is ARCHITECTURE.md invariant #8's mechanism: `CqadsWriter::publish`
/// stores a fully-built `Arc<Snapshot>` and `CqadsReader` loads it once per
/// call, so a half-applied mutation is unobservable by construction.
#[test]
fn arcswap_loads_never_observe_torn_or_regressing_snapshots() {
    let report = bounded_model(|| {
        // The "snapshot" is a pair whose halves must agree — a stand-in for
        // Snapshot's (database, models) built-together invariant.
        let swap = Arc::new(ArcSwap::new(Arc::new((0u64, 0u64))));
        let publisher = {
            let swap = Arc::clone(&swap);
            miniloom::thread::spawn(move || {
                swap.store(Arc::new((1, 10)));
                swap.store(Arc::new((2, 20)));
            })
        };
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let swap = Arc::clone(&swap);
                miniloom::thread::spawn(move || {
                    let first = **swap.load();
                    let second = **swap.load();
                    for snap in [first, second] {
                        assert_eq!(snap.1, snap.0 * 10, "torn snapshot observed: {snap:?}");
                    }
                    assert!(
                        second.0 >= first.0,
                        "snapshot regressed between loads: {first:?} -> {second:?}"
                    );
                })
            })
            .collect();
        publisher.join().unwrap();
        for reader in readers {
            reader.join().unwrap();
        }
        assert_eq!(
            **swap.load(),
            (2, 20),
            "the last publish must be the one served once the writer is done"
        );
    });
    assert!(report.schedules >= MIN_SCHEDULES_3T, "explored {report}");
    println!("arcswap torn/regress: {report}");
}

/// Two writers race `swap` from an initial snapshot. Writers serialize on the
/// cursor, so in every schedule the two displaced values plus the finally
/// published one are exactly {initial, first write, second write} — no
/// snapshot is ever lost (leaked) or returned twice (double-freed, in the
/// refcounting sense) — and both serialization orders are actually reachable.
#[test]
fn arcswap_racing_writers_serialize_and_account_for_every_snapshot() {
    let finals = Arc::new(Mutex::new(std::collections::BTreeSet::new()));
    let sink = Arc::clone(&finals);
    let report = bounded_model(move || {
        let swap = Arc::new(ArcSwap::new(Arc::new(0u8)));
        let writers: Vec<_> = [1u8, 2]
            .into_iter()
            .map(|value| {
                let swap = Arc::clone(&swap);
                miniloom::thread::spawn(move || *swap.swap(Arc::new(value)))
            })
            .collect();
        let mut displaced: Vec<u8> = writers.into_iter().map(|w| w.join().unwrap()).collect();
        let final_value = **swap.load();
        displaced.push(final_value);
        displaced.sort_unstable();
        assert_eq!(
            displaced,
            vec![0, 1, 2],
            "a displaced snapshot was lost or served twice"
        );
        sink.lock().unwrap().insert(final_value);
    });
    let finals = finals.lock().unwrap();
    assert!(
        finals.contains(&1) && finals.contains(&2),
        "both writer serialization orders must be reachable, saw {finals:?}"
    );
    assert!(report.schedules >= MIN_SCHEDULES_2T, "explored {report}");
    println!("arcswap writer race: {report}");
}
