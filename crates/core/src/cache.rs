//! Generation-invalidated answer cache for the serving front-end.
//!
//! Real ad-search traffic is heavily repetitive: the same normalized questions arrive
//! over and over, while the underlying ads tables change only occasionally (new
//! listings). [`AnswerCache`] memoizes whole [`AnswerSet`]s so a repeated question
//! costs one hash lookup instead of a full classify → tag → interpret → execute →
//! partial-match pass.
//!
//! The implementation, [`GenerationCache`], is generic over its key and what it
//! stores, and is the crate's only cache: [`AnswerCache`] is its whole-answer
//! instance, and every snapshot holds one keyed by question text, the route memo
//! below — same stamp protocol, same LRU and counters.
//!
//! # Key
//!
//! Entries are keyed by [`CacheKey`]: the domain name plus the question's normalized
//! token stream (plain strings — see the [`CacheKey`] docs for why user-controlled
//! text is deliberately *not* interned). Normalization is exactly the
//! pipeline's own [`cqads_text::tokenize()`] (lowercasing and punctuation
//! trimming), so `"Blue Honda?"` and `"blue honda"` share an entry. The key is
//! *conservative by construction*: the tagger — and therefore the whole downstream
//! pipeline — is a pure function of the token stream, and every token is itself a
//! pure function of its normalized text, so two questions with equal keys are
//! guaranteed to produce identical answer sets against the same table state. The key
//! stores each token's text, not its parsed value, so questions that differ only in
//! ways the pipeline ignores (e.g. `"20k"` vs `"20000"`) occupy two entries; that
//! costs an extra miss, never a wrong hit.
//!
//! A routed ask (one without an explicit domain) does not build its key per ask: it
//! reaches the key through its snapshot's **route memo** (`crate::handle`), which
//! maps the *exact question text* to the domain the classifier chose and that
//! domain's [`CacheKey`]. The memo is keyed by the text, not by the tokens, because
//! the classifier tokenizes differently from [`cqads_text::tokenize()`]
//! (`"blue,red"` is one classifier token and two tagger tokens), so two questions
//! with equal token streams can be routed to different domains. The memo is never
//! stamped (it uses one constant stamp): routing depends only on the classifier and
//! the set of registered domain names, and a change to either installs a fresh memo
//! in the snapshot.
//!
//! # Generation-stamp invalidation protocol
//!
//! An answer depends on two mutable inputs: the domain's **table** (which records
//! exist) and the domain's **similarity model** (how partial answers are ranked —
//! the TI-matrix learned from the query log plus the WS-matrix). Both carry
//! monotonic mutation generations: [`addb::Table::generation`] bumps on each
//! successful insert, and
//! [`SimilarityModel::generation`](crate::ranking::SimilarityModel::generation)
//! bumps whenever a query-log delta is ingested or the WS-matrix is swapped. The
//! cache never observes those mutations directly; instead each entry is **stamped**
//! with a [`GenerationStamp`] — the *(table, model)* generation pair — and
//! staleness is proven arithmetically at lookup time:
//!
//! 1. A filler reads the stamp `S` **before** computing the answer and stamps the
//!    entry with `S`. If an insert or a model update raced the computation, the
//!    entry is stamped with the *pre-mutation* component — deliberately too old.
//! 2. A reader passes the *current* stamp `S'` to [`GenerationCache::lookup`]. An entry
//!    whose stamp trails `S'` in **either** component predates at least one
//!    mutation of that input; it is evicted on the spot and reported as a miss.
//!
//! Consequently a stale answer can never be served after an insert *or* after a
//! live TI-matrix update: once either generation has advanced, every entry filled
//! before (or concurrently with) the mutation fails the component-wise stamp
//! comparison. There is no invalidation walk, no epoch fence and no coordination
//! with writers — replacing a whole table stays correct too, because
//! [`addb::Database`] carries generations forward across replacement, and the
//! pipeline does the same for a domain's model generation across WS-matrix swaps
//! and re-registration. The cost is that a mutation invalidates the domain's
//! *entire* cached set (stamps are per-table and per-model, not per-record or
//! per-value-pair); for ads workloads, where inserts and model refreshes are rare
//! relative to queries, that trade is the right one.
//!
//! # Concurrency
//!
//! The cache is **lock-striped**: keys hash onto [`CacheStats::shards`] independent
//! shards, each behind its own [`Mutex`], so concurrent readers of different
//! questions do not serialize on one lock. Within a shard, entries form a bounded
//! LRU: each hit refreshes a per-shard tick, and a fill that overflows the shard's
//! capacity evicts the least-recently-used entry (an `O(shard capacity)` scan —
//! shards are deliberately small, and eviction runs only on overflow, so this beats
//! the pointer-chasing of a linked-list LRU on every touch).

use crate::pipeline::AnswerSet;
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Mutex;
use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

/// Cache key: domain name plus the question's normalized token stream.
///
/// The tokens are kept as plain strings, **not** interned: question text is
/// user-controlled and unbounded, and the process-global interner
/// (`cqads_text::intern`) never evicts — interning every incoming token would grow
/// memory with traffic diversity forever, while the cache itself is bounded and
/// evicts. Keys also hash with the default DoS-resistant hasher for the same
/// reason (the fast `SymHasher` is reserved for internally-assigned symbols).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    domain: Box<str>,
    question: Box<[Box<str>]>,
}

impl CacheKey {
    /// Build the key for a question in a domain, normalizing the question exactly the
    /// way the tagging pipeline does.
    pub fn new(domain: &str, question: &str) -> Self {
        CacheKey {
            domain: domain.into(),
            question: cqads_text::tokenize(question)
                .into_iter()
                .map(|t| t.text.into_boxed_str())
                .collect(),
        }
    }

    /// The domain the question is answered in.
    pub fn domain(&self) -> &str {
        &self.domain
    }
}

/// The freshness stamp of a cached answer: the generations of both mutable inputs
/// the answer was computed against.
///
/// Freshness is component-wise ([`GenerationStamp::covers`]): an entry is served
/// only when its stamp is at least the current stamp in *both* components, so a
/// table insert and a live model update each invalidate independently.
///
/// ```
/// use cqads::cache::GenerationStamp;
///
/// let entry = GenerationStamp::new(3, 1);
/// assert!(entry.covers(GenerationStamp::new(3, 1)));
/// assert!(!entry.covers(GenerationStamp::new(4, 1))); // a record was inserted
/// assert!(!entry.covers(GenerationStamp::new(3, 2))); // the TI-matrix learned
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenerationStamp {
    /// [`addb::Table::generation`] of the domain's table.
    pub table: u64,
    /// [`SimilarityModel::generation`](crate::ranking::SimilarityModel::generation)
    /// of the domain's similarity model.
    pub model: u64,
}

impl GenerationStamp {
    /// Pair a table generation with a model generation.
    pub const fn new(table: u64, model: u64) -> Self {
        GenerationStamp { table, model }
    }

    /// True when an entry stamped `self` is still fresh under the `current` stamp:
    /// neither the table nor the model has advanced past what the entry saw.
    pub fn covers(self, current: GenerationStamp) -> bool {
        self.table >= current.table && self.model >= current.model
    }
}

/// One cached value, stamped with the (table, model) generations observed
/// before it was computed.
#[derive(Debug)]
struct CacheEntry<V> {
    stamp: GenerationStamp,
    value: V,
    /// Last-touched tick of the owning shard (LRU ordering).
    used: u64,
}

/// One lock stripe: a bounded map plus its LRU tick counter.
#[derive(Debug)]
struct Shard<K, V> {
    map: HashMap<K, CacheEntry<V>>,
    tick: u64,
}

/// Point-in-time counters of cache behaviour (see [`GenerationCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing usable (includes stale evictions).
    pub misses: u64,
    /// Misses caused specifically by a generation-stamp mismatch.
    pub stale_evictions: u64,
    /// Entries evicted to keep a shard within its capacity bound.
    pub capacity_evictions: u64,
    /// Live entries across all shards.
    pub entries: usize,
    /// Number of lock stripes.
    pub shards: usize,
}

/// The serving cache of whole answers: [`GenerationCache`] over shared
/// [`AnswerSet`]s.
///
/// ```
/// use cqads::cache::{AnswerCache, CacheKey, GenerationStamp};
/// use cqads::pipeline::AnswerSet;
/// use std::sync::Arc;
///
/// let cache = AnswerCache::new(64, 4);
/// let key = CacheKey::new("cars", "Blue Honda?");
/// let stamp = GenerationStamp::new(1, 0); // read *before* computing the answer
/// assert!(cache.lookup(&key, stamp).is_none());
///
/// let answer = Arc::new(AnswerSet {
///     domain: "cars".into(),
///     tagged: Default::default(),
///     interpretation: Default::default(),
///     sql: String::new(),
///     answers: Vec::new(),
///     exact_count: 0,
///     quality: Default::default(),
///     elapsed: std::time::Duration::ZERO,
/// });
/// cache.fill(key.clone(), stamp, answer);
///
/// // Case/punctuation variants share the entry; both stamp components gate it.
/// let variant = CacheKey::new("cars", "blue honda");
/// assert!(cache.lookup(&variant, stamp).is_some());
/// assert!(cache.lookup(&variant, GenerationStamp::new(2, 0)).is_none()); // insert
/// ```
pub type AnswerCache = GenerationCache<CacheKey, Arc<AnswerSet>>;

/// Sharded, capacity-bounded, generation-invalidated LRU cache of cheaply
/// clonable values (a hit clones the value out under the stripe lock, so store
/// `Arc`s), keyed by any `K` and looked up through any borrowed form of it
/// (a `Box<str>` key by `&str`, as [`HashMap::get`] does).
///
/// See the [module docs](self) for the invalidation protocol. A capacity of `0`
/// disables the cache entirely: lookups miss and fills are dropped.
#[derive(Debug)]
pub struct GenerationCache<K, V> {
    shards: Box<[Mutex<Shard<K, V>>]>,
    shard_capacity: usize,
    hasher: RandomState,
    hits: AtomicU64,
    misses: AtomicU64,
    stale: AtomicU64,
    evicted: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> GenerationCache<K, V> {
    /// Create a cache holding at most `capacity` values spread over `shards`
    /// lock stripes (both clamped to sensible minimums; `capacity == 0` disables the
    /// cache). Each shard is bounded by `ceil(capacity / shards)`.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1).min(capacity.max(1));
        let shard_capacity = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(shards)
        };
        let stripe = || Shard {
            map: HashMap::new(),
            tick: 0,
        };
        GenerationCache {
            shards: (0..shards).map(|_| Mutex::new(stripe())).collect(),
            shard_capacity,
            hasher: RandomState::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// A new, empty cache of the same shape — stripes and per-stripe capacity —
    /// with every counter at zero.
    pub fn empty_like(&self) -> Self {
        let shards = self.shards.len();
        Self::new(self.shard_capacity * shards, shards)
    }

    /// True when the cache can hold entries at all (capacity > 0).
    pub fn is_enabled(&self) -> bool {
        self.shard_capacity > 0
    }

    fn shard<Q: Hash + ?Sized>(&self, key: &Q) -> &Mutex<Shard<K, V>> {
        let hash = self.hasher.hash_one(key);
        &self.shards[(hash as usize) % self.shards.len()]
    }

    /// Look up a question, treating any entry whose stamp trails `current` in
    /// **either** component as a miss (the stale entry is evicted on the spot).
    /// Callers must pass the *current* [`GenerationStamp`] of the domain — table
    /// generation and model generation, both read from one consistent view of
    /// the domain (the caller's loaded snapshot in a concurrent deployment —
    /// see [`crate::handle`]).
    pub fn lookup<Q>(&self, key: &Q, current: GenerationStamp) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if !self.is_enabled() {
            // ordering: monotone stats counter; nothing synchronizes through it.
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        enum Outcome<V> {
            Hit(V),
            Stale,
            Miss,
        }
        // lock: sharded stripe; the critical section is O(1) map ops plus one
        // value (Arc) clone — no answer computation ever happens under it.
        let mut shard = self.shard(key).lock();
        let Shard { map, tick } = &mut *shard;
        let outcome = match map.get_mut(key) {
            Some(entry) if entry.stamp.covers(current) => {
                *tick += 1;
                entry.used = *tick;
                Outcome::Hit(entry.value.clone())
            }
            Some(_) => {
                map.remove(key);
                Outcome::Stale
            }
            None => Outcome::Miss,
        };
        drop(shard);
        // ordering: all four outcome counters are monotone statistics read
        // only by stats(); no other memory is published through them, so
        // Relaxed increments cannot reorder anything that matters.
        match outcome {
            Outcome::Hit(value) => {
                // ordering: monotone stats counter (block comment above).
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            Outcome::Stale => {
                // ordering: monotone stats counters (block comment above).
                self.stale.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Outcome::Miss => {
                // ordering: same monotone stats counter as above.
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Look up a question **ignoring freshness**: return whatever entry exists
    /// for the key, however stale, without evicting it and without touching
    /// the hit/miss counters. This is the graceful-degradation fallback — when
    /// the fresh path misses its deadline, the pipeline may serve this entry
    /// flagged [`Stale`](crate::AnswerQuality::Stale) rather than a deeply
    /// truncated fresh answer. Never use it on a healthy path: freshness is
    /// exactly what [`GenerationCache::lookup`] exists to prove.
    pub fn peek_stale<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if !self.is_enabled() {
            return None;
        }
        // lock: sharded stripe; O(1) lookup plus one value (Arc) clone.
        let shard = self.shard(key).lock();
        shard.map.get(key).map(|entry| entry.value.clone())
    }

    /// Insert (or refresh) a value stamped with the [`GenerationStamp`] that was
    /// read **before** the value was computed — never the stamp read afterwards, or
    /// a mutation racing the computation could be masked (see the module docs).
    pub fn fill(&self, key: K, stamp: GenerationStamp, value: V) {
        if !self.is_enabled() {
            return;
        }
        // lock: sharded stripe; the value is already computed — the critical
        // section only compares stamps and moves it in.
        let mut shard = self.shard(&key).lock();
        shard.tick += 1;
        let tick = shard.tick;
        // A concurrent filler may have raced us with a *newer* stamp; keep the
        // freshest stamp for the key rather than blindly overwriting. (If the two
        // stamps are component-wise incomparable — one saw a later insert, the
        // other a later model update — either choice is safe: lookup re-checks
        // both components against the current stamp and evicts on any shortfall.)
        match shard.map.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut occupied) => {
                let entry = occupied.get_mut();
                if stamp.covers(entry.stamp) {
                    entry.stamp = stamp;
                    entry.value = value;
                }
                entry.used = tick;
            }
            std::collections::hash_map::Entry::Vacant(vacant) => {
                vacant.insert(CacheEntry {
                    stamp,
                    value,
                    used: tick,
                });
            }
        }
        if shard.map.len() > self.shard_capacity {
            // Overflow by exactly one entry: drop the least recently used.
            if let Some(lru) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.used)
                .map(|(k, _)| k.clone())
            {
                shard.map.remove(&lru);
                // ordering: monotone stats counter; the map change itself is
                // protected by the shard lock.
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Live entries across all shards.
    pub fn len(&self) -> usize {
        // lock: per-stripe O(1) len read; stats path, not a serving call.
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (counters are preserved).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            // lock: operator path; clearing one stripe frees Arcs, no compute.
            shard.lock().map.clear();
        }
    }

    /// Snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        // ordering: counters are independent monotone statistics; a snapshot
        // is advisory and need not be a consistent cut across them.
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            // ordering: same advisory snapshot reads as above.
            stale_evictions: self.stale.load(Ordering::Relaxed),
            capacity_evictions: self.evicted.load(Ordering::Relaxed),
            entries: self.len(),
            shards: self.shards.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::AnswerSet;
    use crate::tagging::TaggedQuestion;
    use crate::translate::Interpretation;
    use std::time::Duration;

    fn answer_set(domain: &str) -> Arc<AnswerSet> {
        Arc::new(AnswerSet {
            domain: domain.to_string(),
            tagged: TaggedQuestion::default(),
            interpretation: Interpretation::default(),
            sql: String::new(),
            answers: Vec::new(),
            exact_count: 0,
            quality: Default::default(),
            elapsed: Duration::ZERO,
        })
    }

    #[test]
    fn keys_normalize_like_the_tokenizer() {
        assert_eq!(
            CacheKey::new("cars", "Blue Honda?"),
            CacheKey::new("cars", "blue honda")
        );
        assert_ne!(
            CacheKey::new("cars", "blue honda"),
            CacheKey::new("jobs", "blue honda")
        );
        assert_ne!(
            CacheKey::new("cars", "blue honda"),
            CacheKey::new("cars", "gold honda")
        );
    }

    /// A stamp with the given table generation and model generation 0 (most tests
    /// vary one component at a time).
    fn table_stamp(table: u64) -> GenerationStamp {
        GenerationStamp::new(table, 0)
    }

    #[test]
    fn lookup_hits_until_the_table_generation_advances() {
        let cache = AnswerCache::new(64, 4);
        let key = CacheKey::new("cars", "blue honda");
        assert!(cache.lookup(&key, table_stamp(5)).is_none());
        cache.fill(key.clone(), table_stamp(5), answer_set("cars"));
        assert!(cache.lookup(&key, table_stamp(5)).is_some());
        // An insert bumps the table generation: the stamp now trails and the entry
        // must be evicted, not served.
        assert!(cache.lookup(&key, table_stamp(6)).is_none());
        assert!(
            cache.lookup(&key, table_stamp(6)).is_none(),
            "stale entry was evicted"
        );
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.stale_evictions, 1);
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn lookup_misses_when_the_model_generation_advances() {
        let cache = AnswerCache::new(64, 4);
        let key = CacheKey::new("cars", "blue honda");
        cache.fill(key.clone(), GenerationStamp::new(5, 1), answer_set("cars"));
        assert!(cache.lookup(&key, GenerationStamp::new(5, 1)).is_some());
        // A live TI-matrix update bumps the model generation while the table stays
        // put: the cached ranking is stale and must not be served.
        assert!(
            cache.lookup(&key, GenerationStamp::new(5, 2)).is_none(),
            "model update must invalidate"
        );
        assert_eq!(cache.stats().stale_evictions, 1);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn racing_fill_with_older_stamp_does_not_mask_a_newer_one() {
        let cache = AnswerCache::new(64, 1);
        let key = CacheKey::new("cars", "blue honda");
        cache.fill(key.clone(), table_stamp(7), answer_set("fresh"));
        // A slow filler that started before the insert arrives late with an older
        // stamp; the fresher entry must survive.
        cache.fill(key.clone(), table_stamp(6), answer_set("stale"));
        let hit = cache
            .lookup(&key, table_stamp(7))
            .expect("fresh entry survives");
        assert_eq!(hit.domain, "fresh");
        // Same race on the model component.
        cache.fill(key.clone(), GenerationStamp::new(7, 3), answer_set("newer"));
        cache.fill(key.clone(), GenerationStamp::new(7, 2), answer_set("older"));
        let hit = cache
            .lookup(&key, GenerationStamp::new(7, 3))
            .expect("newer-model entry survives");
        assert_eq!(hit.domain, "newer");
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let cache = AnswerCache::new(2, 1);
        let a = CacheKey::new("cars", "question a");
        let b = CacheKey::new("cars", "question b");
        let c = CacheKey::new("cars", "question c");
        cache.fill(a.clone(), table_stamp(1), answer_set("a"));
        cache.fill(b.clone(), table_stamp(1), answer_set("b"));
        // Touch `a` so `b` becomes the LRU victim.
        assert!(cache.lookup(&a, table_stamp(1)).is_some());
        cache.fill(c.clone(), table_stamp(1), answer_set("c"));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&a, table_stamp(1)).is_some());
        assert!(cache.lookup(&b, table_stamp(1)).is_none(), "LRU evicted");
        assert!(cache.lookup(&c, table_stamp(1)).is_some());
        assert_eq!(cache.stats().capacity_evictions, 1);
    }

    #[test]
    fn peek_stale_serves_outdated_entries_without_evicting() {
        let cache = AnswerCache::new(8, 2);
        let key = CacheKey::new("cars", "blue honda");
        assert!(cache.peek_stale(&key).is_none());
        cache.fill(key.clone(), table_stamp(5), answer_set("cars"));
        let before = cache.stats();
        // The entry is stale under generation 6, but peek still returns it…
        assert!(cache.peek_stale(&key).is_some());
        // …without counting a hit or a miss, and without evicting.
        let after = cache.stats();
        assert_eq!((before.hits, before.misses), (after.hits, after.misses));
        assert_eq!(cache.len(), 1);
        // The strict path still evicts it as usual afterwards.
        assert!(cache.lookup(&key, table_stamp(6)).is_none());
        assert!(cache.peek_stale(&key).is_none(), "eviction is shared state");
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let cache = AnswerCache::new(0, 8);
        assert!(!cache.is_enabled());
        let key = CacheKey::new("cars", "blue honda");
        cache.fill(key.clone(), table_stamp(1), answer_set("cars"));
        assert!(cache.lookup(&key, table_stamp(1)).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn clear_preserves_counters() {
        let cache = AnswerCache::new(8, 2);
        let key = CacheKey::new("cars", "blue honda");
        cache.fill(key.clone(), table_stamp(1), answer_set("cars"));
        assert!(cache.lookup(&key, table_stamp(1)).is_some());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn text_keys_look_up_by_str_and_empty_like_keeps_the_shape() {
        let memo: GenerationCache<Box<str>, u32> = GenerationCache::new(4, 2);
        let stamp = GenerationStamp::new(0, 0);
        memo.fill("blue,red".into(), stamp, 7);
        assert_eq!(memo.lookup("blue,red", stamp), Some(7));
        // The exact text is the key: no normalization at all.
        assert_eq!(memo.lookup("blue red", stamp), None);
        assert_eq!(memo.peek_stale("blue,red"), Some(7));

        let fresh = memo.empty_like();
        assert!(fresh.is_empty() && fresh.is_enabled());
        let zeroed = CacheStats {
            shards: 2,
            ..CacheStats::default()
        };
        assert_eq!(fresh.stats(), zeroed);
        assert!(!GenerationCache::<Box<str>, u32>::new(0, 2)
            .empty_like()
            .is_enabled());
    }

    #[test]
    fn cache_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AnswerCache>();
    }
}
