//! The system under test, behind the few calls the harness makes.
//!
//! This is the **only** file of the benchmark that names `CqadsWriter`,
//! `CqadsReader`, `AnswerRequest` (through `CqadsReader::ask`), `CqadsConfig` or
//! `StorageOptions`, so a change to the engine's handles or config is a change to
//! this file alone. `CqadsSystem` appears once, for `open_with` → `into_writer`.

use crate::clock::Clock;
use crate::inputs::{Inputs, CHUNK};
use crate::stats::Fnv;
use addb::{Record, Table};
use cqads::{
    AnswerSet, ConditionSketch, CqadsConfig, CqadsReader, CqadsSystem, CqadsWriter, DomainSpec,
    MatchKind, ShardedCqads, StorageOptions,
};
use cqads_classifier::LabelledDoc;
use cqads_querylog::{QueryLogDelta, TIMatrix};
use cqads_storage::{MemFs, Vfs};
use cqads_wordsim::WordSimMatrix;
use std::path::Path;
use std::sync::Arc;

/// Directory of the durable store inside its filesystem.
const STORE_DIR: &str = "db";

/// What a timed set-up op did; per-layer set-up metrics group by this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetupKind {
    /// `Table::insert` of one chunk of [`CHUNK`] pre-generated records.
    TableChunk,
    /// `TIMatrix::build` over one domain's query log.
    TiBuild,
    /// `WordSimMatrix::build` over the corpus.
    WsBuild,
    /// `set_word_sim` or `add_domain`: tagger, similarity model and (when durable)
    /// the WAL frame.
    Register,
    /// `train_classifier`.
    Train,
    /// The first `reader()`, which publishes the first snapshot.
    Reader,
}

/// One timed set-up op.
#[derive(Debug, Clone, Copy)]
pub struct SetupOp {
    /// What the op did.
    pub kind: SetupKind,
    /// How long it took.
    pub ns: u64,
}

/// Where the system keeps its state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Store {
    /// Memory only: the engine's default.
    Memory,
    /// `StorageOptions::with_vfs(MemFs)` defaults: fsync on, audit trail on,
    /// a snapshot every 1024 mutations.
    MemFs,
}

/// Counters of the system's answer cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that computed.
    pub misses: u64,
    /// Entries dropped because a generation moved past them.
    pub stale_evictions: u64,
    /// Entries dropped to make room.
    pub capacity_evictions: u64,
}

impl CacheCounts {
    /// Counter growth since `earlier`.
    pub fn since(self, earlier: CacheCounts) -> CacheCounts {
        CacheCounts {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            stale_evictions: self.stale_evictions - earlier.stale_evictions,
            capacity_evictions: self.capacity_evictions - earlier.capacity_evictions,
        }
    }

    /// Hits over lookups.
    pub fn hit_share(self) -> f64 {
        crate::stats::ratio(self.hits as f64, (self.hits + self.misses) as f64)
    }
}

/// One answer, as the system returned it.
#[derive(Debug, Clone)]
pub struct Answered(Arc<AnswerSet>);

/// Hash of every answer's id, `rank_sim` bits and match kind, in order.
pub fn digest_of(set: &AnswerSet) -> u64 {
    digest(
        set.answers
            .iter()
            .map(|a| (a.id.0, a.rank_sim.to_bits(), a.kind == MatchKind::Exact)),
    )
}

impl Answered {
    /// Hash of every answer's id, `rank_sim` bits and match kind, in order.
    pub fn digest(&self) -> u64 {
        digest_of(&self.0)
    }

    /// Exact answers in the set.
    pub fn exact_count(&self) -> usize {
        self.0.exact_count
    }

    /// The domain the question was answered in.
    pub fn domain(&self) -> &str {
        &self.0.domain
    }

    /// Conditions in the system's interpretation of the question.
    pub fn conditions(&self) -> usize {
        self.0.interpretation.condition_count()
    }

    /// Whether the interpretation excludes a value or a range ("not blue").
    pub fn has_negation(&self) -> bool {
        self.0
            .interpretation
            .all_sketches()
            .iter()
            .any(|s| match s {
                ConditionSketch::Categorical { negated, .. } => *negated,
                ConditionSketch::Numeric { negated, .. } => *negated,
            })
    }

    /// The engine's answer set, for the traced run's stage probes.
    pub fn set(&self) -> &Arc<AnswerSet> {
        &self.0
    }
}

/// The answer digest over `(record id, rank_sim bits, is exact)` triples; the staged
/// probes of the traced run build the same digest from the layers' own outputs.
pub fn digest(answers: impl Iterator<Item = (u32, u64, bool)>) -> u64 {
    let mut hash = Fnv::default();
    for (id, rank_bits, exact) in answers {
        hash.word(u64::from(id));
        hash.word(rank_bits);
        hash.word(u64::from(exact));
    }
    hash.finish()
}

fn config(store: Option<StorageOptions>) -> CqadsConfig {
    CqadsConfig {
        // Two shared cores: worker scheduling is the largest noise source, and
        // answers are byte-identical for every worker count.
        partial_workers: 1,
        storage: store,
        ..CqadsConfig::default()
    }
}

fn storage_options(fs: &Arc<MemFs>) -> StorageOptions {
    StorageOptions::with_vfs(STORE_DIR, Arc::clone(fs) as Arc<dyn Vfs>)
}

/// The system's inputs in built form: what set-up computes before anything is
/// registered. The traced run clones these for its mirror and its sharded twins
/// instead of rebuilding the tables.
#[derive(Clone)]
pub struct Parts {
    /// The shared WS-matrix.
    pub word_sim: WordSimMatrix,
    /// Per domain, in input order: spec, populated table, TI-matrix.
    pub domains: Vec<(DomainSpec, Table, TIMatrix)>,
}

impl Parts {
    /// Build every table (chunk by chunk), TI-matrix and the WS-matrix, timing each
    /// step as one op of the fixed set-up list.
    pub fn build(inputs: &Inputs, clock: &Clock, ops: &mut Vec<SetupOp>) -> Result<Parts, String> {
        let mut op = |kind, ns| ops.push(SetupOp { kind, ns });
        let (word_sim, ns) = clock.time(|| WordSimMatrix::build(&inputs.corpus));
        op(SetupKind::WsBuild, ns);
        let mut domains = Vec::new();
        for domain in &inputs.domains {
            let spec = domain.blueprint.to_spec();
            let mut table = Table::new(spec.schema.clone());
            for chunk in domain.records.chunks(CHUNK) {
                let owned = chunk.to_vec();
                let (result, ns) = clock.time(|| {
                    owned
                        .into_iter()
                        .try_for_each(|r| table.insert(r).map(drop))
                });
                result.map_err(|e| format!("table insert: {e}"))?;
                op(SetupKind::TableChunk, ns);
            }
            let (ti, ns) = clock.time(|| TIMatrix::build(&domain.log));
            op(SetupKind::TiBuild, ns);
            domains.push((spec, table, ti));
        }
        Ok(Parts { word_sim, domains })
    }
}

/// The system under test: one writer, one reader, and the in-memory filesystem of a
/// durable store.
pub struct Sut {
    writer: CqadsWriter,
    reader: CqadsReader,
    fs: Option<Arc<MemFs>>,
}

impl Sut {
    /// Register built parts with a fresh system, train its classifier and mint the
    /// reader, timing each call as one set-up op.
    pub fn assemble(
        parts: Parts,
        training: &[LabelledDoc],
        store: Store,
        clock: &Clock,
        ops: &mut Vec<SetupOp>,
    ) -> Result<Sut, String> {
        let mut op = |kind, ns| ops.push(SetupOp { kind, ns });
        let fs = (store == Store::MemFs).then(|| Arc::new(MemFs::default()));
        let mut writer = CqadsWriter::try_with_config(config(fs.as_ref().map(storage_options)))
            .map_err(|e| format!("open: {e}"))?;
        let (result, ns) = clock.time(|| writer.try_set_word_sim(parts.word_sim));
        result.map_err(|e| format!("set_word_sim: {e}"))?;
        op(SetupKind::Register, ns);
        for (spec, table, ti) in parts.domains {
            let (result, ns) = clock.time(|| writer.try_add_domain(spec, table, ti));
            result.map_err(|e| format!("add_domain: {e}"))?;
            op(SetupKind::Register, ns);
        }
        let ((), ns) = clock.time(|| writer.train_classifier(training));
        op(SetupKind::Train, ns);
        let (reader, ns) = clock.time(|| writer.reader());
        op(SetupKind::Reader, ns);
        Ok(Sut { writer, reader, fs })
    }

    /// Set-up end to end: [`Parts::build`] then [`Sut::assemble`].
    pub fn build(
        inputs: &Inputs,
        store: Store,
        clock: &Clock,
    ) -> Result<(Sut, Vec<SetupOp>), String> {
        let mut ops = Vec::new();
        let parts = Parts::build(inputs, clock, &mut ops)?;
        let sut = Sut::assemble(parts, &inputs.training, store, clock, &mut ops)?;
        Ok((sut, ops))
    }

    /// Ask through `CqadsReader::ask`: classification first, then the cached or the
    /// uncached path.
    #[inline]
    pub fn ask(&self, question: &str, cached: bool) -> Result<Answered, String> {
        let request = self.reader.ask(question);
        let request = if cached { request } else { request.uncached() };
        request.get().map(Answered).map_err(|e| e.to_string())
    }

    /// Ask uncached in a named domain (the visibility probes know theirs).
    pub fn ask_in(&self, domain: &str, question: &str) -> Result<Answered, String> {
        self.reader
            .ask(question)
            .domain(domain)
            .uncached()
            .get()
            .map(Answered)
            .map_err(|e| e.to_string())
    }

    /// The domain the classifier routes a question to.
    pub fn classify(&self, question: &str) -> Result<String, String> {
        self.reader.classify(question).map_err(|e| e.to_string())
    }

    /// `CqadsWriter::insert_record`; publication to the reader is synchronous.
    #[inline]
    pub fn insert(&mut self, domain: &str, record: Record) -> Result<u32, String> {
        self.writer
            .insert_record(domain, record)
            .map(|id| id.0)
            .map_err(|e| e.to_string())
    }

    /// `CqadsWriter::ingest_query_log`.
    #[inline]
    pub fn ingest(&mut self, domain: &str, delta: &QueryLogDelta) -> Result<(), String> {
        self.writer
            .ingest_query_log(domain, delta)
            .map(drop)
            .map_err(|e| e.to_string())
    }

    /// Train the classifier (a reopened system has none: it is not persisted).
    pub fn train(&mut self, docs: &[LabelledDoc]) {
        self.writer.train_classifier(docs);
    }

    /// The answer cache's counters.
    pub fn cache_counts(&self) -> CacheCounts {
        let stats = self.reader.cache_stats();
        CacheCounts {
            hits: stats.hits,
            misses: stats.misses,
            stale_evictions: stats.stale_evictions,
            capacity_evictions: stats.capacity_evictions,
        }
    }

    /// Records over all tables.
    pub fn total_records(&mut self) -> usize {
        self.writer.database_mut().total_records()
    }

    /// `(table generation, model generation)` of a domain, as the reader sees them.
    pub fn stamp(&self, domain: &str) -> (u64, u64) {
        (
            self.reader.table_generation(domain).unwrap_or(0),
            self.reader.model_generation(domain).unwrap_or(0),
        )
    }

    /// `CqadsWriter::publish`.
    pub fn publish(&self) {
        self.writer.publish();
    }

    /// `CqadsWriter::write_snapshot`; `false` on a memory-only system.
    pub fn write_snapshot(&self) -> Result<bool, String> {
        self.writer
            .write_snapshot()
            .map(|epoch| epoch.is_some())
            .map_err(|e| e.to_string())
    }

    /// `(path, length)` of every file of the durable store.
    pub fn stored_files(&self) -> Vec<(String, u64)> {
        let Some(fs) = &self.fs else {
            return Vec::new();
        };
        fs.paths()
            .into_iter()
            .map(|p| {
                let len = fs.file_bytes(&p).map_or(0, |b| b.len() as u64);
                (p.to_string_lossy().into_owned(), len)
            })
            .collect()
    }

    /// Bytes in the durable store.
    pub fn stored_bytes(&self) -> u64 {
        self.stored_files().iter().map(|(_, len)| len).sum()
    }

    /// Copy the durable store's files into a directory of the real filesystem.
    pub fn export_store(&self, dir: &Path) -> Result<(), String> {
        let Some(fs) = &self.fs else {
            return Err("memory-only system has no store".to_string());
        };
        for path in fs.paths() {
            let Ok(relative) = path.strip_prefix(STORE_DIR) else {
                continue;
            };
            let target = dir.join(relative);
            if let Some(parent) = target.parent() {
                std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
            }
            let bytes = fs.file_bytes(&path).unwrap_or_default();
            std::fs::write(&target, bytes).map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Drop both handles, keeping only what a restart would find.
    pub fn shutdown(self) -> Option<Arc<MemFs>> {
        self.fs
    }

    /// Recover from the in-memory store a previous system wrote. The timed span is
    /// `CqadsSystem::open_with` alone.
    pub fn reopen(fs: &Arc<MemFs>, clock: &Clock) -> Result<(Sut, u64), String> {
        Self::finish_reopen(storage_options(fs), Some(Arc::clone(fs)), clock)
    }

    /// Recover from a store on the real filesystem (see [`Sut::export_store`]).
    pub fn reopen_real(dir: &Path, clock: &Clock) -> Result<(Sut, u64), String> {
        Self::finish_reopen(StorageOptions::at(dir), None, clock)
    }

    fn finish_reopen(
        options: StorageOptions,
        fs: Option<Arc<MemFs>>,
        clock: &Clock,
    ) -> Result<(Sut, u64), String> {
        let (system, ns) = clock.time(|| CqadsSystem::open_with(options));
        let writer = system.map_err(|e| format!("reopen: {e}"))?.into_writer();
        let reader = writer.reader();
        Ok((Sut { writer, reader, fs }, ns))
    }
}

/// A sharded front-end over the same parts, for the traced run's shard probe. Its
/// contribution cache is off, so every ask computes like an uncached one.
pub fn build_sharded(
    parts: Parts,
    training: &[LabelledDoc],
    shards: usize,
) -> Result<ShardedCqads, String> {
    let mut sharded = ShardedCqads::with_config(CqadsConfig {
        shards: Some(shards),
        cache_capacity: 0,
        ..config(None)
    })
    .map_err(|e| e.to_string())?;
    sharded.set_word_sim(parts.word_sim);
    for (spec, table, ti) in parts.domains {
        sharded.add_domain(spec, table, ti);
    }
    sharded.train_classifier(training);
    Ok(sharded)
}
