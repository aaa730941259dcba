//! Spans: one per call into a layer, kept in memory and written out at exit.

use std::io::Write;
use std::path::Path;

/// What a span timed. The `Op*` stages are the end-to-end calls; every other stage
/// is a probe's call into one layer's public function and has its op's span as parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `CqadsReader::ask(..).get()` end to end.
    OpAsk,
    /// `CqadsWriter::insert_record` end to end.
    OpInsert,
    /// `CqadsWriter::ingest_query_log` end to end.
    OpIngest,
    /// `CqadsReader::classify`.
    Classify,
    /// `CacheKey::new`.
    CacheKey,
    /// `AnswerCache::lookup` that hit.
    CacheLookupHit,
    /// `AnswerCache::lookup` that missed.
    CacheLookupMiss,
    /// `Tagger::tag`.
    Tag,
    /// `translate::interpret` + `to_query_with_limit` + `addb::sql::render`.
    Interpret,
    /// `Executor::execute`.
    Execute,
    /// `PartialMatcher::partial_answers`.
    Partial,
    /// `AnswerCache::fill`.
    CacheFill,
    /// `Table::insert` on the mirror table.
    TableInsert,
    /// `SimilarityModel::apply_log_deltas` on the mirror model.
    ModelApply,
}

impl Stage {
    /// Every stage, in declaration order.
    pub const ALL: [Stage; 14] = [
        Stage::OpAsk,
        Stage::OpInsert,
        Stage::OpIngest,
        Stage::Classify,
        Stage::CacheKey,
        Stage::CacheLookupHit,
        Stage::CacheLookupMiss,
        Stage::Tag,
        Stage::Interpret,
        Stage::Execute,
        Stage::Partial,
        Stage::CacheFill,
        Stage::TableInsert,
        Stage::ModelApply,
    ];

    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Stage::OpAsk => "op.ask",
            Stage::OpInsert => "op.insert",
            Stage::OpIngest => "op.ingest",
            Stage::Classify => "classifier.classify",
            Stage::CacheKey => "cache.key",
            Stage::CacheLookupHit => "cache.lookup_hit",
            Stage::CacheLookupMiss => "cache.lookup_miss",
            Stage::Tag => "tagging.tag",
            Stage::Interpret => "translate.interpret",
            Stage::Execute => "exec.execute",
            Stage::Partial => "partial.topk",
            Stage::CacheFill => "cache.fill",
            Stage::TableInsert => "table.insert",
            Stage::ModelApply => "querylog.apply",
        }
    }

    /// Whether this stage is part of answering a question (everything the
    /// end-to-end ask does that a probe can reach).
    pub fn is_ask_stage(self) -> bool {
        !matches!(
            self,
            Stage::OpAsk
                | Stage::OpInsert
                | Stage::OpIngest
                | Stage::TableInsert
                | Stage::ModelApply
        )
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What it timed.
    pub stage: Stage,
    /// Replay number.
    pub replay: u32,
    /// Position of its op in the op list.
    pub op: u32,
    /// Index of the op span that caused it; `None` for op spans.
    pub parent: Option<u32>,
    /// Clock reading at the start.
    pub start_ns: u64,
    /// Clock reading at the end.
    pub end_ns: u64,
}

/// The spans of one run, in recording order.
#[derive(Default)]
pub struct Spans(Vec<Span>);

impl Spans {
    /// Record a span and return its index.
    pub fn record(&mut self, span: Span) -> u32 {
        self.0.push(span);
        (self.0.len() - 1) as u32
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Write every span as
    /// `[name index, replay, op, parent span or -1, start ns, end ns]`.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let names: Vec<String> = Stage::ALL
            .iter()
            .map(|s| format!("\"{}\"", s.name()))
            .collect();
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"names\":[{}],\"spans\":[",
            names.join(",")
        )?;
        for (i, s) in self.0.iter().enumerate() {
            let name = Stage::ALL.iter().position(|&x| x == s.stage).unwrap_or(0);
            let parent = s.parent.map_or(-1, i64::from);
            let comma = if i == 0 { "" } else { "," };
            write!(
                out,
                "{comma}\n[{name},{},{},{parent},{},{}]",
                s.replay, s.op, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}
