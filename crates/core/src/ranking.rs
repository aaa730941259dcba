//! Similarity measures and `Rank_Sim` (Section 4.3.2, Equations 3–5).
//!
//! When a condition is relaxed by the N−1 strategy, the answers that only partially
//! match are ranked by
//!
//! ```text
//! Rank_Sim(r, Q) = (N − 1) + sim(T, V)
//! ```
//!
//! where `N` is the number of selection criteria in the question, `T` is the value the
//! question requested for the relaxed condition, `V` is the record's value for the same
//! attribute and `sim` is chosen by attribute type:
//!
//! * Type I — `TI_Sim` from the query-log matrix, normalized by the largest matrix
//!   entry,
//! * Type II — `Feat_Sim` from the WS word-correlation matrix, normalized likewise,
//! * Type III — `Num_Sim(T, V) = 1 − |T − V| / Attribute_Value_Range` (Equation 4).

use crate::identifiers::BoundaryOp;
use crate::translate::ConditionSketch;
use addb::{
    IdStream, NumericColumn, PostingList, Record, RecordId, Schema, Table, TextColumn, ValueIndex,
};
use cqads_querylog::{QueryLogDelta, TIMatrix};
use cqads_text::intern::{self, Sym};
use cqads_text::porter_stem;
use cqads_wordsim::WordSimMatrix;
use std::cmp::Ordering;
use std::sync::Arc;

/// Which similarity measure produced a partial-match score — reported in the answer so
/// that Table 2 of the paper can be reproduced verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimilarityMeasure {
    /// `TI_Sim` on a Type I attribute.
    TiSim,
    /// `Feat_Sim` on a Type II attribute.
    FeatSim,
    /// `Num_Sim` on a Type III attribute.
    NumSim,
    /// The relaxed condition had no comparable value in the record.
    None,
}

impl std::fmt::Display for SimilarityMeasure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimilarityMeasure::TiSim => write!(f, "TI_Sim"),
            SimilarityMeasure::FeatSim => write!(f, "Feat_Sim"),
            SimilarityMeasure::NumSim => write!(f, "Num_Sim"),
            SimilarityMeasure::None => write!(f, "-"),
        }
    }
}

/// The per-domain similarity model: TI-matrix + WS-matrix + schema ranges, plus a
/// monotonic **model generation** that advances whenever the model's behaviour can
/// change (a query-log delta applied to the TI-matrix, a WS-matrix swap).
///
/// The generation is the model-side analogue of [`addb::Table::generation`]: cached
/// answers are stamped with the generation of the model they were ranked by, so a
/// live TI-matrix update provably invalidates them without any flush — see the
/// [`cache`](crate::cache) module docs for the protocol.
#[derive(Debug, Clone)]
pub struct SimilarityModel {
    ti: Arc<TIMatrix>,
    ws: Arc<WordSimMatrix>,
    schema: Schema,
    /// Bumped on every mutation that can change a similarity score.
    generation: u64,
}

impl SimilarityModel {
    /// Build a model from the domain's TI-matrix, the shared WS-matrix and the schema.
    /// A fresh model starts at generation 0; the pipeline raises it when replacing a
    /// domain's model so generations never regress.
    pub fn new(ti: Arc<TIMatrix>, ws: Arc<WordSimMatrix>, schema: Schema) -> Self {
        SimilarityModel {
            ti,
            ws,
            schema,
            generation: 0,
        }
    }

    /// Shared handle to the TI-matrix (used when the pipeline rebuilds the model after
    /// the WS-matrix changes).
    pub fn ti_matrix(&self) -> Arc<TIMatrix> {
        Arc::clone(&self.ti)
    }

    /// The model's mutation generation (see the type-level docs).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Never let the generation regress below `floor` — the model analogue of
    /// `addb::Table::raise_generation`, used when a domain's model is replaced
    /// wholesale (WS-matrix swap, domain re-registration).
    pub(crate) fn raise_generation(&mut self, floor: u64) {
        self.generation = self.generation.max(floor);
    }

    /// Apply freshly collected query-log deltas to the TI-matrix in place
    /// (`O(delta)` accumulation + one renormalization — see
    /// [`TIMatrix::apply_all`]) and advance the model generation. Returns the new
    /// generation.
    ///
    /// In-flight questions are unaffected: they hold the previous `Arc` snapshot of
    /// the matrix ([`Arc::make_mut`] clones when a snapshot is still referenced), and
    /// compiled probes ([`SimilarityModel::compile`]) are built per question, so the
    /// next question lazily "recompiles" against the updated matrix with no
    /// coordination.
    pub fn apply_log_deltas<'d, I>(&mut self, deltas: I) -> u64
    where
        I: IntoIterator<Item = &'d QueryLogDelta>,
    {
        Arc::make_mut(&mut self.ti).apply_all(deltas);
        self.generation += 1;
        self.generation
    }

    /// Normalized `TI_Sim` between two Type I values.
    pub fn ti_sim(&self, question_value: &str, record_value: &str) -> f64 {
        self.ti.normalized(question_value, record_value)
    }

    /// `Feat_Sim` between two Type II values (already normalized to `[0, 1]`).
    pub fn feat_sim(&self, question_value: &str, record_value: &str) -> f64 {
        self.ws.value_similarity(question_value, record_value)
    }

    /// `Num_Sim` of Equation 4: `1 − |T − V| / range`, clamped to `[0, 1]`.
    pub fn num_sim(&self, attribute: &str, question_value: f64, record_value: f64) -> f64 {
        let range = self
            .schema
            .attribute(attribute)
            .and_then(|a| a.range_width())
            .unwrap_or(0.0);
        if range <= 0.0 {
            return if (question_value - record_value).abs() < f64::EPSILON {
                1.0
            } else {
                0.0
            };
        }
        (1.0 - (question_value - record_value).abs() / range).clamp(0.0, 1.0)
    }

    /// Similarity contribution of one relaxed condition against a record, together with
    /// the measure that produced it.
    pub fn condition_similarity(
        &self,
        relaxed: &ConditionSketch,
        record: &Record,
    ) -> (f64, SimilarityMeasure) {
        match relaxed {
            ConditionSketch::Categorical {
                attribute,
                value,
                is_type1,
                negated,
            } => {
                let Some(record_value) = record.get_text(attribute) else {
                    return (0.0, SimilarityMeasure::None);
                };
                if *negated {
                    // The user excluded this value; a record that does not carry it
                    // already satisfies the intent, otherwise it is maximally dissimilar.
                    let sim = if record_value == value { 0.0 } else { 1.0 };
                    let measure = if *is_type1 {
                        SimilarityMeasure::TiSim
                    } else {
                        SimilarityMeasure::FeatSim
                    };
                    return (sim, measure);
                }
                if *is_type1 {
                    (self.ti_sim(value, record_value), SimilarityMeasure::TiSim)
                } else {
                    (
                        self.feat_sim(value, record_value),
                        SimilarityMeasure::FeatSim,
                    )
                }
            }
            ConditionSketch::Numeric {
                attribute,
                value,
                value2,
                ..
            } => {
                // For an incomplete (attribute-less) condition, score against the best
                // candidate attribute: the user meant one of them.
                let candidates: Vec<String> = match attribute {
                    Some(a) => vec![a.clone()],
                    None => self
                        .schema
                        .numeric_candidates(*value)
                        .iter()
                        .map(|a| a.name.clone())
                        .collect(),
                };
                let target = match value2 {
                    Some(v2) => (*value + *v2) / 2.0,
                    None => *value,
                };
                let mut best = 0.0_f64;
                let mut found = false;
                for attr in &candidates {
                    // A NaN cell is missing, as the table's numeric column reads it.
                    if let Some(v) = record.get_number(attr).filter(|v| !v.is_nan()) {
                        best = best.max(self.num_sim(attr, target, v));
                        found = true;
                    }
                }
                if found {
                    (best, SimilarityMeasure::NumSim)
                } else {
                    (0.0, SimilarityMeasure::None)
                }
            }
        }
    }

    /// `Rank_Sim` (Equation 5): the number of exactly-matched conditions plus the
    /// similarity of the relaxed one.
    pub fn rank_sim(
        &self,
        condition_count: usize,
        relaxed: &ConditionSketch,
        record: &Record,
    ) -> (f64, SimilarityMeasure) {
        let (sim, measure) = self.condition_similarity(relaxed, record);
        ((condition_count.saturating_sub(1)) as f64 + sim, measure)
    }

    /// Compile a condition sketch against a table for allocation-free batch scoring.
    ///
    /// All string work — attribute-name resolution, lowercasing, stemming, interning —
    /// happens exactly once here; every subsequent [`CompiledProbe::similarity`] /
    /// [`CompiledProbe::satisfied`] call is pure integer and float work against the
    /// table's interned columns. The produced scores are bit-identical to
    /// [`SimilarityModel::condition_similarity`] over the same record.
    pub fn compile<'m>(&'m self, sketch: &ConditionSketch, table: &'m Table) -> CompiledProbe<'m> {
        let kind = match sketch {
            ConditionSketch::Categorical {
                attribute,
                value,
                is_type1,
                negated,
            } => ProbeKind::Text {
                column: table.text_column(attribute),
                values: table.value_index(attribute),
                // Exact-equality symbol of the question value *as written* (used by
                // negation and by the satisfaction check, which compare raw strings).
                raw_qsym: intern::lookup(value),
                // Normalized symbol for the TI-matrix probe.
                qsym: intern::lookup(&value.to_lowercase()),
                // Stemmed question words for the WS-matrix probe, memoized per
                // question instead of per record pair.
                qstems: value
                    .split_whitespace()
                    .map(|w| intern::lookup(&porter_stem(&w.to_lowercase())))
                    .collect(),
                is_type1: *is_type1,
                negated: *negated,
            },
            ConditionSketch::Numeric {
                attribute,
                op,
                value,
                value2,
                negated,
            } => {
                let names: Vec<String> = match attribute {
                    Some(a) => vec![a.clone()],
                    None => self
                        .schema
                        .numeric_candidates(*value)
                        .iter()
                        .map(|a| a.name.clone())
                        .collect(),
                };
                let candidates = names
                    .iter()
                    .filter_map(|name| {
                        table.numeric_column(name).map(|column| NumericCandidate {
                            column,
                            range: self
                                .schema
                                .attribute(name)
                                .and_then(|a| a.range_width())
                                .unwrap_or(0.0),
                        })
                    })
                    .collect();
                // Satisfaction mirrors `ConditionSketch`-level semantics: an explicit
                // attribute checks that column, an incomplete condition is satisfied
                // when *any* numeric attribute matches.
                let sat_columns = match attribute {
                    Some(a) => table.numeric_column(a).into_iter().collect(),
                    None => self
                        .schema
                        .attributes()
                        .iter()
                        .filter_map(|a| table.numeric_column(&a.name))
                        .collect(),
                };
                ProbeKind::Numeric {
                    candidates,
                    sat_columns,
                    target: match value2 {
                        Some(v2) => (*value + *v2) / 2.0,
                        None => *value,
                    },
                    op: *op,
                    value: *value,
                    value2: *value2,
                    negated: *negated,
                }
            }
        };
        CompiledProbe { model: self, kind }
    }
}

/// A [`ConditionSketch`] compiled against a table: scoring and satisfaction checks
/// run without any per-record string allocation (see [`SimilarityModel::compile`]).
#[derive(Debug)]
pub struct CompiledProbe<'m> {
    model: &'m SimilarityModel,
    kind: ProbeKind<'m>,
}

#[derive(Debug)]
enum ProbeKind<'m> {
    Text {
        column: Option<&'m TextColumn>,
        values: Option<&'m ValueIndex>,
        raw_qsym: Option<Sym>,
        qsym: Option<Sym>,
        qstems: Vec<Option<Sym>>,
        is_type1: bool,
        negated: bool,
    },
    Numeric {
        candidates: Vec<NumericCandidate<'m>>,
        sat_columns: Vec<&'m NumericColumn>,
        target: f64,
        op: BoundaryOp,
        value: f64,
        value2: Option<f64>,
        negated: bool,
    },
}

#[derive(Debug)]
struct NumericCandidate<'m> {
    column: &'m NumericColumn,
    range: f64,
}

impl<'m> CompiledProbe<'m> {
    /// Similarity contribution of the compiled (relaxed) condition against record
    /// `id`, with the measure that produced it — allocation-free equivalent of
    /// [`SimilarityModel::condition_similarity`].
    pub fn similarity(&self, id: RecordId) -> (f64, SimilarityMeasure) {
        match &self.kind {
            ProbeKind::Text {
                column,
                values,
                raw_qsym,
                qsym,
                qstems,
                is_type1,
                negated,
            } => {
                let Some(sym) = column.and_then(|c| c.sym(id)) else {
                    return (0.0, SimilarityMeasure::None);
                };
                let measure = if *is_type1 {
                    SimilarityMeasure::TiSim
                } else {
                    SimilarityMeasure::FeatSim
                };
                if *negated {
                    // The user excluded this value; a record that does not carry it
                    // already satisfies the intent, otherwise it is maximally
                    // dissimilar.
                    let sim = if Some(sym) == *raw_qsym { 0.0 } else { 1.0 };
                    return (sim, measure);
                }
                if *is_type1 {
                    (self.model.ti.normalized_sym(*qsym, sym), measure)
                } else {
                    // A symbol read off the column always has a directory entry.
                    let stems = values.and_then(|v| v.stems(sym)).unwrap_or_default();
                    (self.model.ws.value_similarity_syms(qstems, stems), measure)
                }
            }
            ProbeKind::Numeric {
                candidates, target, ..
            } => {
                let mut best = 0.0_f64;
                let mut found = false;
                for cand in candidates {
                    if let Some(v) = cand.column.value(id) {
                        let sim = if cand.range <= 0.0 {
                            if (target - v).abs() < f64::EPSILON {
                                1.0
                            } else {
                                0.0
                            }
                        } else {
                            (1.0 - (target - v).abs() / cand.range).clamp(0.0, 1.0)
                        };
                        best = best.max(sim);
                        found = true;
                    }
                }
                if found {
                    (best, SimilarityMeasure::NumSim)
                } else {
                    (0.0, SimilarityMeasure::None)
                }
            }
        }
    }

    /// `Rank_Sim` (Equation 5) of record `id` for this relaxed condition.
    pub fn rank_sim(&self, condition_count: usize, id: RecordId) -> (f64, SimilarityMeasure) {
        let (sim, measure) = self.similarity(id);
        ((condition_count.saturating_sub(1)) as f64 + sim, measure)
    }

    /// Does record `id` satisfy the compiled condition *exactly*? Used by the
    /// degree-of-match fallback to count matched conditions without re-executing
    /// queries (allocation-free equivalent of sketch-level satisfaction).
    /// Numeric equality is exact, like the executor's ([`boundary_matches`]).
    pub fn satisfied(&self, id: RecordId) -> bool {
        match &self.kind {
            ProbeKind::Text {
                column,
                raw_qsym,
                negated,
                ..
            } => {
                let held = column
                    .and_then(|c| c.sym(id))
                    .is_some_and(|sym| Some(sym) == *raw_qsym);
                held != *negated
            }
            ProbeKind::Numeric {
                sat_columns,
                op,
                value,
                value2,
                negated,
                ..
            } => {
                let held = sat_columns.iter().any(|col| match col.value(id) {
                    Some(n) => boundary_matches(*op, *value, *value2, n),
                    None => false,
                });
                held != *negated
            }
        }
    }

    /// Exactly the records [`CompiledProbe::satisfied`] holds for, read off the index
    /// — how the degree-of-match fallback finds near matches without a scan. A
    /// positive categorical probe is satisfied by the records whose column symbol is
    /// the question value as written: that value's posting list in the value
    /// directory, or nothing when the value is interned nowhere or stored in no
    /// record of the column. Numeric and negated probes return `None` (a range or a
    /// complement, which the fallback scans for).
    pub(crate) fn satisfying_ids(&self) -> Option<IdStream<'m>> {
        let ProbeKind::Text {
            values,
            raw_qsym,
            negated: false,
            ..
        } = &self.kind
        else {
            return None;
        };
        let postings = values
            .zip(*raw_qsym)
            .and_then(|(values, sym)| values.get(sym));
        Some(postings.map_or(IdStream::Empty, IdStream::postings))
    }

    /// The value-ordered scoring plan of this probe: every **distinct value** of the
    /// probed column, scored exactly, sorted by descending similarity — the traversal
    /// order of the WAND-style partial scorer for a single-condition question. A
    /// relaxation of a multi-condition question walks it without the value the probe
    /// is satisfied by (`unsatisfied_order`).
    ///
    /// The per-value similarities double as **upper bounds** for threshold pruning,
    /// and they are *tight*: a categorical cell's similarity depends only on its
    /// value symbol (the stems a `Feat_Sim` probe walks are derived from that same
    /// value), so every record carrying value `v` scores exactly `entry(v).sim` —
    /// bit-identical to [`CompiledProbe::similarity`]. Pruning on these bounds is
    /// therefore lossless (admissibility is asserted by the unit tests below).
    ///
    /// Returns `None` when value ordering cannot help and the caller should fall back
    /// to the exhaustive per-candidate scan:
    ///
    /// * numeric (Type III) probes — similarity varies continuously per record, not
    ///   per distinct value;
    /// * negated categorical probes — every value except the excluded one scores the
    ///   constant `1.0`, one giant tie that degenerates into the flat scan anyway.
    ///
    /// A probe over an attribute the table does not index yields an *empty* order
    /// (every record is scored `(0.0, None)` by the residual pass).
    pub fn value_order(&self) -> Option<ValueOrder<'m>> {
        let ProbeKind::Text {
            values,
            qsym,
            qstems,
            is_type1,
            negated,
            ..
        } = &self.kind
        else {
            return None;
        };
        if *negated {
            return None;
        }
        let measure = if *is_type1 {
            SimilarityMeasure::TiSim
        } else {
            SimilarityMeasure::FeatSim
        };
        let Some(values) = values else {
            return Some(ValueOrder {
                entries: Vec::new(),
                positive_len: 0,
                measure,
            });
        };
        let mut entries: Vec<ScoredValue<'m>> = values
            .entries()
            .map(|(sym, postings)| {
                let sim = if *is_type1 {
                    self.model.ti.normalized_sym(*qsym, sym)
                } else {
                    let stems = values.stems(sym).unwrap_or_default();
                    self.model.ws.value_similarity_syms(qstems, stems)
                };
                ScoredValue { sym, sim, postings }
            })
            .collect();
        // Stable sort: equal similarities keep the directory's first-seen order, so
        // the traversal order is deterministic across runs and worker counts.
        entries.sort_by(|a, b| b.sim.partial_cmp(&a.sim).unwrap_or(Ordering::Equal));
        let positive_len = entries.partition_point(|e| e.sim > 0.0);
        Some(ValueOrder {
            entries,
            positive_len,
            measure,
        })
    }

    /// [`CompiledProbe::value_order`] without the value the probe is satisfied by:
    /// the order a relaxation of this probe walks, in the partial matcher's phase 1
    /// and in its degree-of-match fallback. A record holding the value satisfies the
    /// probe, so it is an exact answer rather than a relaxation's (phase 1), or it
    /// scores a layer higher (the fallback). `None` exactly when
    /// [`CompiledProbe::satisfying_ids`] is.
    pub(crate) fn unsatisfied_order(&self) -> Option<ValueOrder<'m>> {
        let ProbeKind::Text {
            raw_qsym,
            negated: false,
            ..
        } = &self.kind
        else {
            return None;
        };
        let mut order = self.value_order()?;
        order.entries.retain(|e| Some(e.sym) != *raw_qsym);
        order.positive_len = order.entries.partition_point(|e| e.sim > 0.0);
        Some(order)
    }
}

/// One distinct column value in a [`ValueOrder`]: its interned symbol, its exact
/// similarity against the (relaxed) question value, and its posting list.
#[derive(Debug)]
pub struct ScoredValue<'m> {
    /// Interned symbol of the value.
    pub sym: Sym,
    /// Exact similarity of the value against the question value — also the
    /// (tight) upper bound used for threshold pruning.
    pub sim: f64,
    /// All records carrying the value, sorted by id with block-max metadata.
    pub postings: &'m PostingList,
}

/// The value-ordered scoring plan of one categorical relaxed condition: the probed
/// column's distinct values sorted by descending exact similarity (ties in first-seen
/// directory order). Built once per question by [`CompiledProbe::value_order`] and
/// shared read-only across the partial matcher's worker threads.
#[derive(Debug)]
pub struct ValueOrder<'m> {
    entries: Vec<ScoredValue<'m>>,
    /// Entries `[..positive_len]` have `sim > 0`; the zero-similarity tail is never
    /// drained value-by-value (the residual scan covers it together with the records
    /// missing the attribute, whenever the threshold still admits a zero score).
    positive_len: usize,
    measure: SimilarityMeasure,
}

impl<'m> ValueOrder<'m> {
    /// The scored values, best first (full directory, including the zero tail).
    pub fn entries(&self) -> &[ScoredValue<'m>] {
        &self.entries
    }

    /// How many leading entries have strictly positive similarity.
    pub fn positive_len(&self) -> usize {
        self.positive_len
    }

    /// The similarity measure every present value of this column scores under.
    pub fn measure(&self) -> SimilarityMeasure {
        self.measure
    }
}

/// A mutable scoring cursor over one [`CompiledProbe`]: memoizes text-cell scores by
/// interned value symbol.
///
/// Within one relaxation stream the probe is fixed, so a categorical cell's
/// similarity depends *only* on the cell's value symbol (the stems a `Feat_Sim` probe
/// walks are derived from that same value). Candidate streams are typically thousands
/// of records drawn from a column with a few dozen distinct values, so after warm-up
/// every score is one integer-keyed map probe instead of a matrix walk. Memoized
/// results are the exact tuples the probe computed, so scores stay bit-identical.
/// Numeric probes score continuous values and pass straight through.
///
/// Each worker thread owns its scorers (the shared [`CompiledProbe`] stays immutable
/// and `Sync`); the memo is intentionally per-stream, not global, so no
/// synchronization is ever needed on the hot path.
#[derive(Debug)]
pub struct ProbeScorer<'p, 'm> {
    probe: &'p CompiledProbe<'m>,
    memo: std::collections::HashMap<Sym, (f64, SimilarityMeasure), intern::SymHashBuilder>,
    memoize: bool,
}

impl<'p, 'm> ProbeScorer<'p, 'm> {
    /// Wrap a compiled probe (memoization enabled for categorical probes).
    pub fn new(probe: &'p CompiledProbe<'m>) -> Self {
        ProbeScorer {
            probe,
            memo: std::collections::HashMap::default(),
            memoize: matches!(probe.kind, ProbeKind::Text { .. }),
        }
    }

    /// The wrapped probe (for satisfaction checks, which need no memo).
    pub fn probe(&self) -> &'p CompiledProbe<'m> {
        self.probe
    }

    /// Memoized equivalent of [`CompiledProbe::similarity`].
    pub fn similarity(&mut self, id: RecordId) -> (f64, SimilarityMeasure) {
        if !self.memoize {
            return self.probe.similarity(id);
        }
        let ProbeKind::Text { column, .. } = &self.probe.kind else {
            return self.probe.similarity(id);
        };
        // The symbol column: the only per-candidate memory touch on a memo hit.
        let Some(sym) = column.and_then(|c| c.sym(id)) else {
            return (0.0, SimilarityMeasure::None);
        };
        match self.memo.get(&sym) {
            Some(hit) => *hit,
            None => {
                let computed = self.probe.similarity(id);
                self.memo.insert(sym, computed);
                computed
            }
        }
    }

    /// Memoized equivalent of [`CompiledProbe::rank_sim`].
    pub fn rank_sim(&mut self, condition_count: usize, id: RecordId) -> (f64, SimilarityMeasure) {
        let (sim, measure) = self.similarity(id);
        ((condition_count.saturating_sub(1)) as f64 + sim, measure)
    }
}

// The parallel partial matcher shares the similarity model, its compiled probes'
// borrow sources (table columns, matrices) and the interner across scoped worker
// threads. Everything here is plain read-only data behind `Arc`/`&`, so `Send + Sync`
// hold structurally; these compile-time assertions pin that down so a future field
// (say, a `RefCell` memo cache) cannot silently break the fan-out.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SimilarityModel>();
    assert_send_sync::<CompiledProbe<'static>>();
    assert_send_sync::<Table>();
    assert_send_sync::<TIMatrix>();
    assert_send_sync::<WordSimMatrix>();
    assert_send_sync::<Sym>();
};

/// Numeric boundary satisfaction: does `actual` meet the boundary described by `op`,
/// `value` and (for ranges) `value2`? Shared by the degree-of-match fallback scorer
/// and the baseline rankers' sketch-satisfaction helper. Equality is **exact**
/// (`actual == value`, no tolerance), the same definition as
/// [`addb::Comparison::matches`] and the executor's index, so a record the executor
/// answers for `attr = n` is one this counts as matched, a hair off `n` included.
pub fn boundary_matches(op: BoundaryOp, value: f64, value2: Option<f64>, actual: f64) -> bool {
    match op {
        BoundaryOp::Lt => actual < value,
        BoundaryOp::Le => actual <= value,
        BoundaryOp::Gt => actual > value,
        BoundaryOp::Ge => actual >= value,
        BoundaryOp::Eq => actual == value,
        BoundaryOp::Between => {
            let hi = value2.unwrap_or(value);
            actual >= value.min(hi) && actual <= value.max(hi)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identifiers::BoundaryOp;
    use addb::Schema;

    fn schema() -> Schema {
        Schema::builder("cars")
            .type1("make")
            .type1("model")
            .type2("color")
            .type3("price", 0.0, 10_000.0, Some("usd"))
            .type3("year", 1985.0, 2011.0, None)
            .build()
            .unwrap()
    }

    fn model() -> SimilarityModel {
        let mut ti = TIMatrix::default();
        ti.insert("accord", "camry", 4.0);
        ti.insert("accord", "mustang", 0.5);
        let mut ws = WordSimMatrix::default();
        ws.insert("blue", "silver", 0.7);
        ws.insert("blue", "gold", 0.3);
        SimilarityModel::new(Arc::new(ti), Arc::new(ws), schema())
    }

    #[test]
    fn num_sim_matches_example_4() {
        // Example 4: range 10,000; |10000-7500| → 0.75; |10000-11000| → 0.90.
        let m = model();
        assert!((m.num_sim("price", 10_000.0, 7_500.0) - 0.75).abs() < 1e-9);
        assert!((m.num_sim("price", 10_000.0, 11_000.0) - 0.90).abs() < 1e-9);
        // clamped at zero for very distant values
        assert_eq!(m.num_sim("price", 0.0, 1_000_000.0), 0.0);
        // unknown attribute: only exact matches count
        assert_eq!(m.num_sim("unknown", 5.0, 5.0), 1.0);
        assert_eq!(m.num_sim("unknown", 5.0, 6.0), 0.0);
    }

    #[test]
    fn ti_and_feat_sim_are_normalized() {
        let m = model();
        assert_eq!(m.ti_sim("accord", "camry"), 1.0);
        assert!(m.ti_sim("accord", "mustang") < 0.2);
        assert_eq!(m.feat_sim("blue", "silver"), 0.7);
        assert_eq!(m.feat_sim("blue", "blue"), 1.0);
        assert_eq!(m.feat_sim("blue", "unknown"), 0.0);
    }

    #[test]
    fn condition_similarity_picks_the_right_measure() {
        let m = model();
        let record = Record::builder()
            .text("make", "toyota")
            .text("model", "camry")
            .text("color", "silver")
            .number("price", 8561.0)
            .build();
        let relaxed = ConditionSketch::Categorical {
            attribute: "model".into(),
            value: "accord".into(),
            is_type1: true,
            negated: false,
        };
        let (sim, measure) = m.condition_similarity(&relaxed, &record);
        assert_eq!(measure, SimilarityMeasure::TiSim);
        assert_eq!(sim, 1.0);

        let relaxed = ConditionSketch::Categorical {
            attribute: "color".into(),
            value: "blue".into(),
            is_type1: false,
            negated: false,
        };
        let (sim, measure) = m.condition_similarity(&relaxed, &record);
        assert_eq!(measure, SimilarityMeasure::FeatSim);
        assert!((sim - 0.7).abs() < 1e-9);

        let relaxed = ConditionSketch::Numeric {
            attribute: Some("price".into()),
            op: BoundaryOp::Lt,
            value: 6000.0,
            value2: None,
            negated: false,
        };
        let (sim, measure) = m.condition_similarity(&relaxed, &record);
        assert_eq!(measure, SimilarityMeasure::NumSim);
        assert!(sim > 0.7 && sim < 0.8);
    }

    #[test]
    fn missing_record_values_and_negations_are_handled() {
        let m = model();
        let record = Record::builder().text("make", "toyota").build();
        let relaxed = ConditionSketch::Categorical {
            attribute: "color".into(),
            value: "blue".into(),
            is_type1: false,
            negated: false,
        };
        assert_eq!(
            m.condition_similarity(&relaxed, &record),
            (0.0, SimilarityMeasure::None)
        );

        let record = Record::builder().text("color", "blue").build();
        let negated = ConditionSketch::Categorical {
            attribute: "color".into(),
            value: "blue".into(),
            is_type1: false,
            negated: true,
        };
        let (sim, _) = m.condition_similarity(&negated, &record);
        assert_eq!(sim, 0.0);
        let record = Record::builder().text("color", "red").build();
        let (sim, _) = m.condition_similarity(&negated, &record);
        assert_eq!(sim, 1.0);

        // A NaN number is missing, in the record path as in the table's column.
        let record = Record::builder().number("price", f64::NAN).build();
        let price = ConditionSketch::Numeric {
            attribute: Some("price".into()),
            op: BoundaryOp::Lt,
            value: 9000.0,
            value2: None,
            negated: false,
        };
        assert_eq!(
            m.condition_similarity(&price, &record),
            (0.0, SimilarityMeasure::None)
        );
    }

    #[test]
    fn rank_sim_adds_the_exact_match_count() {
        let m = model();
        let record = Record::builder()
            .text("model", "camry")
            .number("price", 9000.0)
            .build();
        let relaxed = ConditionSketch::Categorical {
            attribute: "model".into(),
            value: "accord".into(),
            is_type1: true,
            negated: false,
        };
        let (score, measure) = m.rank_sim(4, &relaxed, &record);
        assert_eq!(measure, SimilarityMeasure::TiSim);
        assert!((score - 4.0).abs() < 1e-9); // (4-1) + 1.0
        let (score_low_n, _) = m.rank_sim(2, &relaxed, &record);
        assert!(score_low_n < score);
    }

    #[test]
    fn value_order_bounds_are_admissible_and_tight() {
        use addb::{Record, Table};
        let m = model();
        let mut table = Table::new(schema());
        for (make, model_v, color, price) in [
            ("honda", "accord", "blue", 6_000.0),
            ("honda", "accord", "gold", 9_000.0),
            ("toyota", "camry", "silver", 8_000.0),
            ("ford", "mustang", "silver", 7_000.0),
            ("ford", "mustang", "green", 3_000.0),
        ] {
            table
                .insert(
                    Record::builder()
                        .text("make", make)
                        .text("model", model_v)
                        .text("color", color)
                        .number("price", price)
                        .build(),
                )
                .unwrap();
        }
        let sketches = [
            ConditionSketch::Categorical {
                attribute: "model".into(),
                value: "accord".into(),
                is_type1: true,
                negated: false,
            },
            ConditionSketch::Categorical {
                attribute: "color".into(),
                value: "blue".into(),
                is_type1: false,
                negated: false,
            },
        ];
        for sketch in &sketches {
            let probe = m.compile(sketch, &table);
            let order = probe.value_order().expect("categorical probes have orders");
            // Sorted descending, zero tail identified, all bounds in [0, 1].
            let entries = order.entries();
            for pair in entries.windows(2) {
                assert!(pair[0].sim >= pair[1].sim, "order not descending");
            }
            for (i, e) in entries.iter().enumerate() {
                assert!((0.0..=1.0).contains(&e.sim));
                assert_eq!(i < order.positive_len(), e.sim > 0.0);
                // Admissibility + tightness: the bound equals (so in particular is
                // never below) the true similarity of every record carrying the
                // value, bit for bit.
                for &id in e.postings.ids() {
                    let (sim, measure) = probe.similarity(id);
                    assert_eq!(sim.to_bits(), e.sim.to_bits(), "bound not tight");
                    assert_eq!(measure, order.measure());
                }
            }
            // Every record is covered by exactly one value entry (columns partition
            // their records by value).
            let covered: usize = entries.iter().map(|e| e.postings.len()).sum();
            assert_eq!(covered, table.len());
        }

        // Numeric probes decline value ordering but their implied cap (1.0) is
        // admissible for every record.
        let numeric = ConditionSketch::Numeric {
            attribute: Some("price".into()),
            op: BoundaryOp::Lt,
            value: 6_500.0,
            value2: None,
            negated: false,
        };
        let probe = m.compile(&numeric, &table);
        assert!(probe.value_order().is_none());
        for id in 0..table.len() as u32 {
            assert!(probe.similarity(RecordId(id)).0 <= 1.0);
        }

        // Negated categorical probes decline too (one giant 1.0-tie).
        let negated = ConditionSketch::Categorical {
            attribute: "color".into(),
            value: "blue".into(),
            is_type1: false,
            negated: true,
        };
        assert!(m.compile(&negated, &table).value_order().is_none());

        // A probe over an unknown attribute yields an empty order.
        let unknown = ConditionSketch::Categorical {
            attribute: "bodystyle".into(),
            value: "coupe".into(),
            is_type1: false,
            negated: false,
        };
        let order = m.compile(&unknown, &table).value_order().unwrap();
        assert!(order.entries().is_empty());
        assert_eq!(order.positive_len(), 0);
    }

    #[test]
    fn numeric_equality_is_exact_like_the_executor() {
        use addb::{BoolExpr, Condition, Executor, Query};
        let m = model();
        let n = 5_000.0;
        let prices = [n, n + 5e-10, n - 5e-10, n + 2e-9, n - 2e-9];
        let mut table = Table::new(schema());
        for price in prices {
            let record = Record::builder()
                .text("make", "honda")
                .text("model", "accord")
                .number("price", price)
                .build();
            table.insert(record).unwrap();
        }
        assert!(boundary_matches(BoundaryOp::Eq, n, None, n));
        for price in &prices[1..] {
            assert!(
                !boundary_matches(BoundaryOp::Eq, n, None, *price),
                "{price}"
            );
        }
        let query = Query::new("cars")
            .with_expr(BoolExpr::Cond(Condition::eq_number("price", n)))
            .with_limit(usize::MAX);
        let indexed: Vec<RecordId> = Executor::new(&table)
            .execute(&query)
            .unwrap()
            .into_iter()
            .map(|a| a.id)
            .collect();
        assert_eq!(indexed, vec![RecordId(0)]);
        for negated in [false, true] {
            let sketch = ConditionSketch::Numeric {
                attribute: Some("price".into()),
                op: BoundaryOp::Eq,
                value: n,
                value2: None,
                negated,
            };
            let probe = m.compile(&sketch, &table);
            for id in (0..prices.len() as u32).map(RecordId) {
                let held = indexed.contains(&id) != negated;
                assert_eq!(probe.satisfied(id), held, "{id:?} negated {negated}");
            }
            assert!(probe.satisfying_ids().is_none(), "numeric probes scan");
        }
    }

    #[test]
    fn satisfying_ids_are_exactly_what_satisfied_holds_for() {
        let m = model();
        let mut table = Table::new(schema());
        for (make, color) in [
            ("honda", Some("blue")),
            ("ford", None),
            ("honda", Some("gold")),
            ("ford", Some("blue")),
        ] {
            let mut record = Record::builder().text("make", make).text("model", "accord");
            if let Some(color) = color {
                record = record.text("color", color);
            }
            table.insert(record.build()).unwrap();
        }
        let categorical =
            |attribute: &str, value: &str, negated: bool| ConditionSketch::Categorical {
                attribute: attribute.into(),
                value: value.into(),
                is_type1: attribute != "color",
                negated,
            };
        for (attribute, value) in [
            ("make", "honda"),
            ("color", "blue"),
            ("color", "silver"),                  // interned, stored nowhere here
            ("color", "interned-nowhere-5d21c0"), // never interned at all
            ("bodystyle", "coupe"),               // not an attribute of the table
        ] {
            let probe = m.compile(&categorical(attribute, value, false), &table);
            let indexed: Vec<RecordId> = probe.satisfying_ids().unwrap().collect();
            let held: Vec<RecordId> = (0..table.len() as u32)
                .map(RecordId)
                .filter(|id| probe.satisfied(*id))
                .collect();
            assert_eq!(indexed, held, "{attribute} = {value}");
            let negated = m.compile(&categorical(attribute, value, true), &table);
            assert!(negated.satisfying_ids().is_none(), "negated probes scan");
        }
    }

    #[test]
    fn incomplete_numeric_conditions_score_best_candidate() {
        let m = model();
        let record = Record::builder()
            .number("price", 2100.0)
            .number("year", 2005.0)
            .build();
        let relaxed = ConditionSketch::Numeric {
            attribute: None,
            op: BoundaryOp::Eq,
            value: 2000.0,
            value2: None,
            negated: false,
        };
        let (sim, measure) = m.condition_similarity(&relaxed, &record);
        assert_eq!(measure, SimilarityMeasure::NumSim);
        // price is within 100 of 2000 over a 10k range → 0.99; year 2005 vs 2000 over a
        // 26-year range → ~0.81; the best candidate wins.
        assert!(sim > 0.98);
    }
}
