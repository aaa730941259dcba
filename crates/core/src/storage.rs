//! Durable persistence for [`CqadsWriter`](crate::CqadsWriter).
//!
//! This module is the glue between the pipeline and the `cqads-storage`
//! engine: it converts live state ([`DomainSpec`], tables, TI/WS matrices,
//! config) to and from the engine's serializable mirror types, and holds the
//! engine behind a lock so the `&self` serving paths can append audit frames.
//!
//! Durability is **opt-in**: with [`CqadsConfig::storage`](crate::CqadsConfig)
//! left at `None`, nothing here runs and the system behaves bit-identically to
//! the in-memory implementation it grew from.

use crate::domain::DomainSpec;
use crate::error::{CqadsError, CqadsResult};
use cqads_storage::{
    CircuitBreaker, ConfigSnap, RecoveryReport, RetryOptions, SpecData, StorageEngine,
    StorageError, StorageResult, Vfs, WalRecord,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Where and how a [`CqadsWriter`](crate::CqadsWriter) persists itself.
///
/// ```
/// use cqads::StorageOptions;
///
/// let opts = StorageOptions::at("/tmp/cqads-db");
/// assert!(opts.fsync);
/// assert_eq!(opts.snapshot_every, 1024);
/// ```
#[derive(Debug, Clone)]
pub struct StorageOptions {
    /// Directory holding the WAL and snapshot files (created on open).
    pub dir: PathBuf,
    /// Fsync the WAL after every append. On by default; turning it off trades
    /// the last few frames on power loss for append throughput (the frame
    /// format still guarantees a consistent prefix).
    pub fsync: bool,
    /// Rotate to a fresh snapshot + WAL epoch after this many *mutation*
    /// frames (audit frames do not count). `0` disables automatic rotation;
    /// call [`CqadsWriter::write_snapshot`](crate::CqadsWriter::write_snapshot) manually.
    pub snapshot_every: u64,
    /// Append an audit frame for every served question (cached paths only),
    /// making the WAL a replayable audit trail. Audit appends are best-effort:
    /// an I/O failure increments a counter instead of failing the answer.
    pub audit_queries: bool,
    /// Filesystem implementation. Defaults to the real one; tests inject
    /// [`MemFs`](cqads_storage::MemFs) or [`FaultFs`](cqads_storage::FaultFs).
    pub vfs: Arc<dyn Vfs>,
    /// Retry-with-backoff + circuit breaking around WAL appends (mutations
    /// *and* audit frames). `None` (the default) keeps the pre-existing
    /// behavior: one attempt, first error surfaces. Between attempts the
    /// engine rewinds the WAL to its last acknowledged length, so a retried
    /// append lands **exactly once** — never as a duplicated frame.
    pub retry: Option<RetryOptions>,
}

impl StorageOptions {
    /// Durable storage in a directory on the real filesystem, with fsync on,
    /// a snapshot every 1024 mutations and the audit trail enabled.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        StorageOptions {
            dir: dir.into(),
            fsync: true,
            snapshot_every: 1024,
            audit_queries: true,
            vfs: Arc::new(cqads_storage::RealFs),
            retry: None,
        }
    }

    /// Same defaults over an injected filesystem (tests; fsync stays on so the
    /// engine exercises its sync path even against [`MemFs`](cqads_storage::MemFs)).
    pub fn with_vfs(dir: impl Into<PathBuf>, vfs: Arc<dyn Vfs>) -> Self {
        StorageOptions {
            vfs,
            ..Self::at(dir)
        }
    }
}

/// The storage side-car a durable [`CqadsWriter`](crate::CqadsWriter) carries.
#[derive(Debug)]
pub(crate) struct DurableStorage {
    engine: Mutex<StorageEngine>,
    pub(crate) opts: StorageOptions,
    pub(crate) report: RecoveryReport,
    audit_failures: AtomicU64,
    last_audit_error: Mutex<Option<StorageError>>,
    retry: Option<RetryState>,
}

/// Live retry machinery built from [`StorageOptions::retry`]: the breaker and
/// the operator-facing counters ([`ServingStats`](crate::ServingStats)).
#[derive(Debug)]
struct RetryState {
    opts: RetryOptions,
    breaker: CircuitBreaker,
    retries: AtomicU64,
    rejections: AtomicU64,
}

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panic while holding the lock (impossible in release use, but tests may
    // do it) must not wedge storage forever.
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl DurableStorage {
    pub(crate) fn new(engine: StorageEngine, opts: StorageOptions, report: RecoveryReport) -> Self {
        let retry = opts.retry.clone().map(|r| RetryState {
            breaker: CircuitBreaker::new(r.breaker_threshold, r.breaker_cooldown_micros),
            retries: AtomicU64::new(0),
            rejections: AtomicU64::new(0),
            opts: r,
        });
        DurableStorage {
            engine: Mutex::new(engine),
            opts,
            report,
            audit_failures: AtomicU64::new(0),
            last_audit_error: Mutex::new(None),
            retry,
        }
    }

    /// Run a closure against the engine under its lock.
    pub(crate) fn with_engine<T>(
        &self,
        f: impl FnOnce(&mut StorageEngine) -> StorageResult<T>,
    ) -> CqadsResult<T> {
        f(&mut relock(&self.engine)).map_err(CqadsError::Storage)
    }

    /// Append a batch through the retry layer (when configured): rejected fast
    /// while the circuit breaker is open, otherwise attempted up to
    /// `policy.attempts` times with exponential backoff, rewinding the WAL to
    /// its last acknowledged length between attempts so the retried records
    /// land exactly once. Without [`StorageOptions::retry`] this is a plain
    /// single-attempt append — byte-identical to the pre-retry behavior.
    fn append_resilient(
        &self,
        engine: &mut StorageEngine,
        records: &[WalRecord],
    ) -> StorageResult<()> {
        let Some(state) = &self.retry else {
            return engine.append_batch(records);
        };
        if !state.breaker.allows(state.opts.clock.now_micros()) {
            // ordering: monotone stats counter; nothing synchronizes through it.
            state.rejections.fetch_add(1, Ordering::Relaxed);
            return Err(StorageError::Unavailable {
                detail: format!(
                    "{} consecutive append failures; cooling down",
                    state.opts.breaker_threshold
                ),
            });
        }
        let mut attempt = 1u32;
        loop {
            match engine.append_batch(records) {
                Ok(()) => {
                    state.breaker.record_success();
                    return Ok(());
                }
                Err(e) => {
                    if attempt >= state.opts.policy.attempts.max(1) {
                        state.breaker.record_failure(state.opts.clock.now_micros());
                        return Err(e);
                    }
                    // Drop whatever the failed attempt left past the
                    // acknowledged length; if even the rewind fails the
                    // backend is not transiently sick and retrying would risk
                    // duplicated frames — surface the original error.
                    if engine.rewind_wal().is_err() {
                        state.breaker.record_failure(state.opts.clock.now_micros());
                        return Err(e);
                    }
                    // ordering: monotone stats counter; Relaxed.
                    state.retries.fetch_add(1, Ordering::Relaxed);
                    state
                        .opts
                        .clock
                        .sleep_micros(state.opts.policy.backoff_micros(attempt));
                    attempt += 1;
                }
            }
        }
    }

    /// Append mutation frames, surfacing failures as typed errors. Callers
    /// append *before* they apply, so on error nothing was applied; and the
    /// WAL is rewound to its last acknowledged frame, so a crash cannot
    /// replay a frame the caller was told failed. Should that rewind fail
    /// too, the engine repeats it before its next append.
    pub(crate) fn append_mutations(&self, records: &[WalRecord]) -> CqadsResult<()> {
        let mut engine = relock(&self.engine);
        let appended = self.append_resilient(&mut engine, records);
        if appended.is_err() {
            engine.rewind_wal().ok();
        }
        appended.map_err(CqadsError::Storage)
    }

    /// Best-effort audit append from the `&self` serving paths: failures are
    /// counted and remembered, never returned — audit I/O must not take the
    /// serving path down.
    pub(crate) fn append_audit(&self, record: WalRecord) {
        self.append_audit_batch(std::slice::from_ref(&record));
    }

    /// Batch form of [`DurableStorage::append_audit`]: one write and one sync
    /// for a whole burst's audit frames, same best-effort contract.
    pub(crate) fn append_audit_batch(&self, records: &[WalRecord]) {
        if records.is_empty() {
            return;
        }
        if let Err(e) = self.append_resilient(&mut relock(&self.engine), records) {
            // ordering: monotone stats counter; the error itself travels
            // under the last_audit_error lock, not through this atomic.
            self.audit_failures
                .fetch_add(records.len() as u64, Ordering::Relaxed);
            *relock(&self.last_audit_error) = Some(e);
        }
    }

    /// Audit frames that failed to persist since open.
    pub(crate) fn audit_failures(&self) -> u64 {
        // ordering: advisory stats read; Relaxed.
        self.audit_failures.load(Ordering::Relaxed)
    }

    /// WAL append attempts retried after a transient failure.
    pub(crate) fn wal_retries(&self) -> u64 {
        self.retry
            .as_ref()
            // ordering: advisory stats read; Relaxed.
            .map_or(0, |s| s.retries.load(Ordering::Relaxed))
    }

    /// Times the append circuit breaker has opened.
    pub(crate) fn breaker_opens(&self) -> u64 {
        self.retry.as_ref().map_or(0, |s| s.breaker.times_opened())
    }

    /// Appends rejected outright because the breaker was open.
    pub(crate) fn breaker_rejections(&self) -> u64 {
        self.retry
            .as_ref()
            // ordering: advisory stats read; Relaxed.
            .map_or(0, |s| s.rejections.load(Ordering::Relaxed))
    }

    /// The most recent audit-append failure, if any.
    pub(crate) fn last_audit_error(&self) -> Option<StorageError> {
        relock(&self.last_audit_error).clone()
    }
}

/// Flatten a [`DomainSpec`] into the storage crate's serializable mirror.
pub(crate) fn spec_to_data(spec: &DomainSpec) -> SpecData {
    let pairs = |m: &std::collections::BTreeMap<String, String>| {
        m.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    };
    SpecData {
        schema: spec.schema.clone(),
        type1_values: pairs(&spec.type1_values),
        type2_values: pairs(&spec.type2_values),
        type3_keywords: pairs(&spec.type3_keywords),
        price_attribute: spec.price_attribute.clone(),
        year_attribute: spec.year_attribute.clone(),
    }
}

/// Rebuild a [`DomainSpec`] from its persisted mirror.
pub(crate) fn data_to_spec(data: &SpecData) -> DomainSpec {
    let mut spec = DomainSpec::new(data.schema.clone());
    // Values were lowercased by the original add_* calls; inserting them back
    // through the maps directly preserves them verbatim.
    spec.type1_values = data.type1_values.iter().cloned().collect();
    spec.type2_values = data.type2_values.iter().cloned().collect();
    spec.type3_keywords = data.type3_keywords.iter().cloned().collect();
    spec.price_attribute = data.price_attribute.clone();
    spec.year_attribute = data.year_attribute.clone();
    spec
}

/// Capture the persistable scalars of a [`CqadsConfig`](crate::CqadsConfig).
pub(crate) fn config_to_snap(config: &crate::CqadsConfig) -> ConfigSnap {
    ConfigSnap {
        answer_limit: config.answer_limit as u64,
        partial_threshold: config.partial_threshold as u64,
        cache_capacity: config.cache_capacity as u64,
        cache_shards: config.cache_shards as u64,
    }
}

/// Overwrite a config's scalars with persisted ones (storage options are left
/// untouched — they describe *this* process, not the one that wrote the
/// snapshot).
pub(crate) fn apply_snap_to_config(config: &mut crate::CqadsConfig, snap: &ConfigSnap) {
    config.answer_limit = snap.answer_limit as usize;
    config.partial_threshold = snap.partial_threshold as usize;
    config.cache_capacity = snap.cache_capacity as usize;
    config.cache_shards = snap.cache_shards as usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::toy_car_domain;

    #[test]
    fn spec_round_trips_through_its_mirror() {
        let spec = toy_car_domain();
        let data = spec_to_data(&spec);
        let back = data_to_spec(&data);
        assert_eq!(back.schema, spec.schema);
        assert_eq!(back.type1_values, spec.type1_values);
        assert_eq!(back.type2_values, spec.type2_values);
        assert_eq!(back.type3_keywords, spec.type3_keywords);
        assert_eq!(back.price_attribute, spec.price_attribute);
        assert_eq!(back.year_attribute, spec.year_attribute);
        // And the mirror itself round-trips through the WAL codec.
        let rec = WalRecord::RegisterDomain {
            spec: Box::new(data.clone()),
            records: vec![],
            ti: Default::default(),
            table_gen: 0,
            model_gen: 0,
        };
        assert_eq!(WalRecord::decode(&rec.encode()).unwrap(), rec);
    }

    #[test]
    fn config_round_trips_through_its_snap() {
        let config = crate::CqadsConfig {
            answer_limit: 7,
            partial_threshold: 3,
            cache_capacity: 99,
            cache_shards: 5,
            ..crate::CqadsConfig::default()
        };
        let snap = config_to_snap(&config);
        let mut fresh = crate::CqadsConfig::default();
        apply_snap_to_config(&mut fresh, &snap);
        assert_eq!(fresh.answer_limit, 7);
        assert_eq!(fresh.partial_threshold, 3);
        assert_eq!(fresh.cache_capacity, 99);
        assert_eq!(fresh.cache_shards, 5);
    }
}
