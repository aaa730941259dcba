//! The N−1 partial-matching strategy (Section 4.3.1).
//!
//! When a question with `N ≥ 2` conditions retrieves few or no exact answers, CQAds
//! removes each condition in turn, evaluates the `N−1` remaining conditions, and ranks
//! the extra answers by `Rank_Sim`. For single-condition questions the similarity
//! matching is applied directly (every record is scored against that one condition).
//! Results are capped so that exact plus partial answers never exceed the 30-answer
//! budget derived from the iProspect study.
//!
//! # Execution model and complexity
//!
//! The engine is **index-driven, bounded and value-ordered**:
//!
//! * Each relaxation executes through [`Executor::execute_stream`], a lazy sorted-merge
//!   over index posting lists. A numeric relaxation drains it once; a categorical one
//!   drains it into one posting list (4 bytes per candidate) the first time a value
//!   run needs it, and every later run intersects that list (next section).
//! * Each relaxed condition is compiled once
//!   ([`SimilarityModel::compile`](crate::ranking::SimilarityModel::compile)) so that
//!   scoring a candidate is integer-keyed matrix lookups against the table's interned
//!   columns — zero string allocation per probe.
//! * Candidates feed a `budget`-sized min-heap (`TopK`) with per-record best-score
//!   dedup (lazy deletion). Memory is `O(budget)` and the final ordering costs
//!   `O(budget · log budget)`, independent of table size — the original pipeline held a
//!   HashMap over *every* candidate and globally sorted it.
//! * Categorical relaxations traverse the relaxed column **value by value in
//!   descending similarity order** with threshold pruning — WAND-style — instead of
//!   scoring every candidate (next section).
//! * The relaxations themselves run **best bound first**, and in a question without
//!   a superlative **no categorical relaxation offers a record that still holds its
//!   relaxed value** — such a record matches all N conditions, so it is an exact
//!   answer, not a new one (section after next).
//!
//! For a question with `k` relaxations whose candidate streams total `C` ids, the
//! engine runs in `O(C · (log budget + s))` time and `O(budget)` extra space besides
//! the one drained candidate list a categorical relaxation holds while it runs, where
//! `s` is the per-candidate scoring cost (a constant number of hash probes). The seed
//! pipeline cost `O(C · a + D log D)` where `a` includes two string allocations
//! (`to_lowercase` + `porter_stem`) per similarity lookup and `D ≤ C` is the number of
//! distinct candidates, all of which were buffered and sorted. Value-ordered pruning
//! reduces the `C` that is ever visited: only the candidates of values whose score can
//! still enter the top-k are streamed at all.
//!
//! # Value-ordered (WAND-style) traversal and the upper-bound contract
//!
//! A relaxed categorical condition scores a candidate as `(N−1) + sim(T, V)` where `V`
//! is the candidate's value for the relaxed attribute — the score depends **only on
//! `V`**, never on the rest of the record. The engine exploits this:
//!
//! 1. [`CompiledProbe::value_order`](crate::ranking::CompiledProbe::value_order)
//!    walks the column's value directory ([`addb::ValueIndex`]) once and scores every
//!    distinct value **exactly**, sorting descending; `CompiledProbe::unsatisfied_order`
//!    leaves out the relaxed value itself, which then is **never a run** (next
//!    section). The per-value similarity is therefore a *tight upper bound*: every
//!    record carrying `v` scores exactly `(N−1) + sim(v)`, bit for bit.
//! 2. The traversal visits values best-first. Before each run of equal-similarity
//!    values it asks the heap whether `(N−1) + sim` can still beat the current worst
//!    live entry (`TopK::can_beat`). Because later values bound lower and the worst
//!    live score of a full heap never decreases, a failed check ends the relaxation:
//!    the posting lists of all remaining values — and the zero-similarity residual —
//!    are **never opened**. The relaxations are visited the same way, best bound
//!    first, so a failed check before a relaxation's first run ends the question.
//! 3. A surviving single value drains `rest ∩ postings(v)` through the galloping
//!    intersection; an equal-similarity run merges its posting lists with one
//!    [`ScoredUnion`] and leapfrogs it against `rest` in a single pass. `rest` is the
//!    candidate set of the remaining `N−1` conditions, drained from the executor at
//!    most once per relaxation — the first time a run is drained, never for a
//!    relaxation pruned before its first run — so a relaxation that drains
//!    twenty runs plans, and applies its superlative, once. For single-condition
//!    questions `rest` is the whole table, and the O(table) similarity scan collapses
//!    to the same pruned traversal over the full `value_order`: the relaxation rule
//!    does not apply to them (next section).
//! 4. The residual pass (zero-similarity values plus records missing the attribute,
//!    all scoring exactly `N−1`) runs only when the threshold still admits a zero
//!    similarity, as the plain exhaustive scan. When the relaxed value is left out,
//!    the residual skips the records its run would have held.
//!
//! **Why pruning is lossless (byte-identical answers).** The final heap content is
//! invariant under the order in which `(id, score)` pairs are offered: scores are
//! per-value constants within a run, the `(rank_sim desc, id asc)` order is total,
//! and per-record dedup across relaxations keeps the record's **best score and,
//! among equal best scores, the smallest relaxed index** (with its measure) — a
//! rule no offer order can change, so relaxations may run in any order. A pruned
//! offer is one that scores strictly below the current worst of a *full* heap;
//! since that worst never decreases, the offer would be rejected now and at every
//! later point, so skipping it changes nothing (a live record at the worst score
//! never has an id above the worst's, so no pruned offer is an equal-score offer to
//! a live record either). The residual pass may re-offer ids already offered by a
//! value run of the same relaxation at the same score; such a re-offer is provably a
//! no-op (`TopK::offer` updates only on a better score or, at an equal one, a
//! smaller index, and an evicted or rejected entry stays below the monotone
//! threshold). The equivalence tests (`tests/topk_equivalence.rs`) assert
//! byte-identity against the full-scan oracle ([`crate::oracle`]) across skewed and
//! uniform value distributions.
//!
//! # Relaxations best bound first, and the relaxation rule
//!
//! **The rule: in a question without a superlative, a categorical relaxation offers
//! only records that miss its value** — the rule the fallback's near layer follows
//! too. The relaxation of `attr = v` walks `E₋ᵢ`, the records of the question
//! without condition `i`. A record of `E₋ᵢ` holding `v` (the set `Sᵢ`,
//! [`CompiledProbe::satisfied`](crate::ranking::CompiledProbe::satisfied)) satisfies
//! all `N` conditions: `E₋ᵢ ∩ Sᵢ ⊆ E`, the exact answers. That holds for one segment
//! and OR segments, same-attribute OR groups, duplicated conditions, `Between` and
//! negations, and `tests/properties.rs`
//! (`a_relaxation_finds_no_new_record_its_condition_matches`) checks it on generated
//! questions. The engine runs only when the exact phase returned all of `E` (a
//! partial budget above zero means fewer exact answers than the page), and every
//! production caller excludes exactly `E`, so the rule removes only records that
//! are excluded anyway; the engine does not need `exclude` to keep them out. The
//! oracle applies the same rule ([`crate::oracle`]), so the two agree under any
//! `exclude`. So such a relaxation leaves `v` out of its order (its run would be
//! `E₋ᵢ ∩ Sᵢ`), and its residual skips `Sᵢ`.
//!
//! Nothing else skips, because the lemma holds nowhere else:
//!
//! * Under a superlative, a relaxation that drops an OR branch (its only condition)
//!   takes its extreme over fewer records than the question does: in "cheapest blue
//!   car or honda" the cheapest honda may be blue and still dearer than a blue
//!   toyota. A superlative question walks the full `value_order`; its relaxations
//!   keep one extreme each, so its own-value runs are short.
//! * A numeric probe's satisfaction is not the query's: an incomplete condition
//!   ("honda accord under 5000", no attribute) is satisfied by any numeric column in
//!   the probe — a 2005 `year` is under 5000 — but only by the columns whose range
//!   holds the value in the query.
//! * A negated categorical relaxation keeps its exhaustive scan.
//! * A single-condition question keeps its own value: its candidates are the whole
//!   table, not `E₋₀`, and under a superlative ("cheapest honda") the hondas that are
//!   not the cheapest hold its value without being exact answers.
//!
//! **Best bound first.** Each plan's `start_bound` is `(N−1) +` its best remaining
//! value similarity — the relaxed value is gone, so often well below 1 — or
//! `(N−1) + 1` for an exhaustive (numeric or negated) arm. The plans are sorted by
//! it, descending and stable, so a numeric relaxation, whose `Num_Sim` is often
//! near 1, usually runs first and fills the heap; a categorical relaxation after it
//! then fails its first `TopK::can_beat` before it drains its candidates, and a
//! plan the heap cannot take ends the question, every later plan bounding no
//! higher. This is the threshold algorithm (Fagin, Lotem & Naor, PODS 2001) and
//! WAND (Broder et al., CIKM 2003) applied one level up, to the relaxations.
//!
//! When the index-driven pass cannot fill the budget — sparse data, where every
//! relaxation collapses to the already-returned exact answers, and above all
//! superlatives, whose relaxations each keep only their extreme — the engine falls
//! back to **degree of match**: every remaining record scores
//! `min(#matched conditions, N−1) + best similarity over its unmatched conditions`,
//! which generalizes `Rank_Sim` (an exact N−1 match scores identically) and ranks
//! records with fewer matches strictly below genuine N−1 matches. This keeps the
//! paper's "top up to 30 answers" behaviour on sparse tables.
//!
//! The fallback reads the index before it scans. With the question's `K` conditions
//! compiled to probes whose satisfying sets `Sᵢ` the index holds
//! (`CompiledProbe::satisfying_ids`: a positive categorical value's posting list), it
//! first offers the **near matches** — every record satisfying at least `K−1` probes
//! — in two layers, each record at exactly the score degree of match gives it:
//!
//! * **Layer K**, `∩ⱼ Sⱼ`: nothing is unmatched, so every record scores the constant
//!   `min(K, N−1)`. One intersection (shortest set first), pulled while the heap can
//!   take that score.
//! * **Layer K−1, branch `i`**, `∩ⱼ≠ᵢ Sⱼ ∖ Sᵢ`: probe `i` is the only one unmatched,
//!   so a record scores `min(K−1, N−1) + simᵢ(v)` — a function of its value `v` of
//!   probe `i`'s attribute alone. That is a relaxation of probe `i` over the base
//!   `min(K−1, N−1)` instead of `N−1`, and it runs through the same value-ordered
//!   traversal as phase 1 (runs best first, `TopK::can_beat` before each,
//!   `TopK::ascending_run_alive` inside, the residual last) over the candidates
//!   `∩ⱼ≠ᵢ Sⱼ`. As in phase 1, the value probe `i` is satisfied by is left out of
//!   its order, and the records holding it — layer K's — are skipped with phase 1's,
//!   so none is offered a score it does not have. Its similarity (often 1.0) would
//!   otherwise tie the worst of a heap full of layer-K entries and open a run for
//!   nothing.
//!
//! The branches are disjoint (a record outside `Sᵢ` and `Sₖ` is in neither), so
//! every near match is offered its own score once, or again at the same score, and
//! every pruned offer lies strictly below the worst of a full heap — lossless by the
//! argument above. Every other record satisfies at most `K−2` probes, so it scores
//! at most `min(K−2, N−1) + 1`; the table is scanned only when the heap can still
//! take that score (`TopK::can_beat`, ties included — an equal score can win on a
//! smaller id). Skipping the scan is lossless for the same reason. Scanning after the
//! near matches changes nothing either: a record's degree-of-match score is a pure
//! function of the record, so a near match the scan meets again is re-offered its
//! own score — a provable no-op — and the heap content is invariant under offer
//! order. A numeric or negated probe has no index set (a range, a complement); such
//! a question scans as before.
//!
//! Every question runs on the calling thread, over the whole table. The seed's
//! full-scan/full-sort pipeline lives on only as the reference the tests compare
//! against: [`crate::oracle::full_scan_partial_answers`].
//!
//! # Deadlines and degradation
//!
//! [`PartialMatcher::partial_answers_batch_budgeted`] threads an optional
//! [`QueryBudget`] through both passes. The engine polls it cooperatively —
//! between questions, between relaxation plans, and every [`BUDGET_CHECK_EVERY`]
//! scored candidates inside a drain — so cancellation costs one predictable branch
//! per candidate when armed (and nothing at all when the budget is `None`: the
//! unbudgeted arms are the exact pre-existing loops, fold specialization included).
//!
//! A cut must never *silently* truncate: the contract is that a degraded answer
//! list is a **certified prefix** of the answer list the undegraded engine would
//! have returned, bit for bit, and is explicitly flagged
//! ([`PartialOutcome::degraded`]). The certificate is an upper bound `B` on every
//! score the engine could still have offered after the cut, maintained per
//! question as the max over every cut:
//!
//! * cut before a question starts → the question's precomputed maximum possible
//!   score (`(N−1) +` the best value similarity, or `(N−1) + 1` for exhaustive
//!   arms) — the first plan's start bound;
//! * cut before relaxation plan `i` → plan `i`'s start bound: plans run best bound
//!   first, so it bounds every later plan too;
//! * cut inside a value run at similarity `s` → `(N−1) + s` (later runs bound
//!   lower, the residual bounds at `(N−1)`), maxed with the next plan's start
//!   bound;
//! * cut inside the residual → `(N−1)` (unvisited residual candidates score
//!   exactly the base; any higher-scoring id the residual could meet is a re-offer
//!   the heap provably ignores), again maxed with the next plan's start bound;
//! * cut inside an exhaustive arm → that plan's start bound (its stream is
//!   unordered in score);
//! * any cut that touches the degree-of-match fallback — in either index layer or in
//!   its scan → `N` (its scores are bounded by `min(matched, N−1) + 1`).
//!
//! Every heap entry scoring **strictly above** the merged `B` already beat every
//! offer the cut skipped — its score, measure and relaxed-condition index are the
//! ones the undegraded engine computes, and since the output order
//! `(rank_sim desc, id asc)` ranks all certified entries ahead of every possible
//! uncertified one, keeping exactly the `score > B` prefix yields a literal
//! element-wise prefix of the undegraded answer list. Entries at or below `B` are
//! dropped, never guessed at. Overestimating `B` only shrinks the certified
//! prefix; it can never certify a wrong entry.

use crate::domain::DomainSpec;
use crate::error::{CqadsError, CqadsResult};
use crate::ranking::{CompiledProbe, ProbeScorer, SimilarityMeasure, SimilarityModel, ValueOrder};
use crate::resilience::QueryBudget;
use crate::translate::Interpretation;
use addb::{Executor, IdStream, PostingList, Query, RecordId, ScoredUnion, Table};
use std::cell::{Cell, OnceCell};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// How many visited candidates the engine scores between deadline polls. A
/// [`QueryBudget`] is checked at this granularity (plus once between every
/// relaxation plan and every question), so a deadline overshoots by at most one
/// block of scoring work — cheap enough that the unbudgeted fast path stays
/// branch-predictable, fine enough that cancellation latency stays microseconds
/// even on mega posting lists.
pub const BUDGET_CHECK_EVERY: u64 = 256;

/// One partially-matched answer.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialAnswer {
    /// The matching record.
    pub id: RecordId,
    /// `Rank_Sim` score (Equation 5).
    pub rank_sim: f64,
    /// Which similarity measure scored the relaxed condition.
    pub measure: SimilarityMeasure,
    /// Index (in [`Interpretation::all_sketches`] order) of the relaxed condition.
    pub relaxed_condition: usize,
}

impl PartialAnswer {
    /// Bit-exact equality (`rank_sim` compared by its float bits, every other field
    /// by value). This is the *byte-identical answers* contract the engine is held
    /// to against the full-scan oracle ([`crate::oracle`]) — the single definition
    /// the equivalence tests share.
    pub fn bits_eq(&self, other: &PartialAnswer) -> bool {
        self.id == other.id
            && self.rank_sim.to_bits() == other.rank_sim.to_bits()
            && self.measure == other.measure
            && self.relaxed_condition == other.relaxed_condition
    }
}

/// The result of one question in a budgeted batch
/// ([`PartialMatcher::partial_answers_batch_budgeted`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PartialOutcome {
    /// The ranked partial answers. When `degraded` is set this is a *certified
    /// prefix* of the list the undegraded engine would have returned — entries the
    /// cut left uncertain are dropped, never silently included (see the
    /// [module docs](self#deadlines-and-degradation)).
    pub answers: Vec<PartialAnswer>,
    /// Candidates the whole batch had visited when the outcomes were assembled
    /// (the batch shares one [`QueryBudget`], so this is a batch-wide figure, not
    /// a per-question one). `0` when no budget was armed.
    pub visited: u64,
    /// Whether the deadline cut this question's computation. `false` means
    /// `answers` is complete and bit-identical to the unbudgeted engine's output.
    pub degraded: bool,
    /// The certification bound `B` this outcome was truncated at
    /// (`f64::NEG_INFINITY` when the question completed losslessly, i.e. whenever
    /// `degraded` is `false`): every kept entry scores strictly above it, and no
    /// offer the cut skipped could have scored above it (see the
    /// [module docs](self#deadlines-and-degradation) for where each cut puts it).
    pub cut_bound: f64,
}

/// One pass's view of a [`QueryBudget`]: a local visit counter flushed into the
/// shared atomic every [`BUDGET_CHECK_EVERY`] candidates (when the deadline is also
/// polled), plus a latched cut flag so that once the pass observes expiry it stops
/// paying for clock reads entirely.
struct BudgetProbe<'b> {
    budget: &'b QueryBudget,
    since_flush: Cell<u64>,
    cut: Cell<bool>,
}

impl BudgetProbe<'_> {
    fn new(budget: &QueryBudget) -> BudgetProbe<'_> {
        BudgetProbe {
            budget,
            since_flush: Cell::new(0),
            cut: Cell::new(budget.expired()),
        }
    }

    /// Count one visited candidate; `true` once the budget is gone (the candidate
    /// must then *not* be offered — it is covered by the caller's cut bound).
    fn visit(&self) -> bool {
        if self.cut.get() {
            return true;
        }
        let n = self.since_flush.get() + 1;
        if n >= BUDGET_CHECK_EVERY {
            self.since_flush.set(n);
            self.flush();
            if self.budget.expired() {
                self.cut.set(true);
                return true;
            }
        } else {
            self.since_flush.set(n);
        }
        false
    }

    /// Poll between plans/questions without counting a visit.
    fn cut(&self) -> bool {
        if self.cut.get() {
            return true;
        }
        if self.budget.expired() {
            self.cut.set(true);
            return true;
        }
        false
    }

    /// Publish any locally-counted visits into the shared budget.
    fn flush(&self) {
        let n = self.since_flush.get();
        if n > 0 {
            self.budget.add_visited(n);
            self.since_flush.set(0);
        }
    }
}

/// Ignored by [`PartialMatcher`], which runs every question on the calling thread.
/// Kept only because `crates/benchmark` still builds it; a `[benchmark]` change
/// deletes it along with the benchmark's mirror.
///
/// ```
/// use cqads::domain::toy_car_domain;
/// use cqads::{PartialMatchOptions, PartialMatcher, SimilarityModel};
/// use std::sync::Arc;
///
/// let spec = toy_car_domain();
/// let sim = SimilarityModel::new(Arc::default(), Arc::default(), spec.schema.clone());
/// let ignored = PartialMatchOptions { workers: 8 };
/// assert_eq!(
///     format!("{:?}", PartialMatcher::with_options(&spec, &sim, ignored)),
///     format!("{:?}", PartialMatcher::new(&spec, &sim)),
/// );
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct PartialMatchOptions {
    /// Ignored (see the type docs).
    pub workers: usize,
}

/// Runs the N−1 strategy for one domain.
#[derive(Debug, Clone)]
pub struct PartialMatcher<'a> {
    spec: &'a DomainSpec,
    similarity: &'a SimilarityModel,
}

impl<'a> PartialMatcher<'a> {
    /// Create a matcher for a domain and its similarity model.
    pub fn new(spec: &'a DomainSpec, similarity: &'a SimilarityModel) -> Self {
        PartialMatcher { spec, similarity }
    }

    /// [`PartialMatcher::new`]; `options` is ignored (see [`PartialMatchOptions`]).
    pub fn with_options(
        spec: &'a DomainSpec,
        similarity: &'a SimilarityModel,
        _options: PartialMatchOptions,
    ) -> Self {
        PartialMatcher::new(spec, similarity)
    }

    /// Retrieve and rank partially-matched answers.
    ///
    /// * `interpretation` — the interpreted question,
    /// * `table` — the ads table of the domain,
    /// * `exclude` — record ids already returned as exact answers,
    /// * `budget` — maximum number of partial answers to return.
    pub fn partial_answers(
        &self,
        interpretation: &Interpretation,
        table: &Table,
        exclude: &HashSet<RecordId>,
        budget: usize,
    ) -> CqadsResult<Vec<PartialAnswer>> {
        // The one-question special case of the batch engine.
        let request = PartialBatchRequest {
            interpretation,
            exclude,
            budget,
        };
        let outcomes = self.partial_answers_batch_budgeted(&[request], table, None)?;
        Ok(take_single(outcomes)?.answers)
    }

    /// Answer a whole batch of questions on the calling thread, under an optional
    /// cooperative deadline.
    ///
    /// With `budget: None` this is element-wise identical (bit for bit) to
    /// calling [`PartialMatcher::partial_answers`] per request, but all questions
    /// share one executor and one deadline probe per pass — the serving shape for
    /// query bursts. With a [`QueryBudget`] armed, the engine polls it at
    /// [`BUDGET_CHECK_EVERY`]-candidate granularity; on expiry each question
    /// returns its best-so-far answers truncated to the *certified prefix* of the
    /// undegraded answer list and explicitly flagged
    /// [`degraded`](PartialOutcome::degraded) — see the
    /// [module docs](self#deadlines-and-degradation) for the certification
    /// argument.
    ///
    /// The per-candidate hot loop avoids every avoidable cost: relaxation plans
    /// (query + compiled probe) are built once per question, exclusion is a binary
    /// search over a small sorted slice instead of a hash-set probe, text scoring is
    /// memoized per distinct column value ([`ProbeScorer`]) and the top-k heap
    /// rejects below-threshold candidates with two comparisons.
    pub fn partial_answers_batch_budgeted(
        &self,
        requests: &[PartialBatchRequest<'_>],
        table: &Table,
        budget: Option<&QueryBudget>,
    ) -> CqadsResult<Vec<PartialOutcome>> {
        let universe = 0..table.len() as u32;
        let prepared: Vec<PreparedQuestion<'_>> = requests
            .iter()
            .map(|r| self.prepare_question(r, table))
            .collect();
        let mut heaps: Vec<TopK> = prepared.iter().map(|p| TopK::new(p.budget)).collect();
        // Per-question upper bound on every score a deadline cut could still have
        // offered; `NEG_INFINITY` = the question completed losslessly.
        let mut bounds = vec![f64::NEG_INFINITY; requests.len()];
        index_pass(&prepared, &mut heaps, &mut bounds, table, budget);

        // Phase 2: degree-of-match fallback for sparse questions. A heap below
        // budget holds exactly the candidates the index pass found. A question
        // cut in phase 1 skips the fallback outright: the fallback can
        // offer scores up to N, so its bound becomes N (a full heap cut in phase 1
        // implies the undegraded heap is full too, i.e. the undegraded engine
        // would not have run the fallback either — the phase-1 bound stands).
        let fallback: Vec<Option<Fallback<'_>>> = prepared
            .iter()
            .zip(heaps.iter())
            .zip(requests.iter())
            .enumerate()
            .map(|(q, ((prep, topk), request))| {
                let sparse =
                    matches!(prep.kind, PreparedKind::Multi(_)) && topk.len() < prep.budget;
                if sparse && bounds[q] > f64::NEG_INFINITY {
                    bounds[q] = bounds[q].max(prep.n as f64);
                    return None;
                }
                sparse.then(|| {
                    let mut found: Vec<RecordId> = topk.live_ids().collect();
                    found.sort_unstable();
                    let probes: Vec<CompiledProbe<'_>> = request
                        .interpretation
                        .all_sketches()
                        .iter()
                        .map(|s| self.similarity.compile(s, table))
                        .collect();
                    let near = probes
                        .iter()
                        .map(CompiledProbe::unsatisfied_order)
                        .collect();
                    Fallback {
                        found,
                        probes,
                        near,
                    }
                })
            })
            .collect();
        if fallback.iter().any(Option::is_some) {
            let meter = budget.map(BudgetProbe::new);
            let meter = meter.as_ref();
            for (q, ((prep, fb), topk)) in prepared
                .iter()
                .zip(&fallback)
                .zip(heaps.iter_mut())
                .enumerate()
            {
                let Some(fb) = fb else { continue };
                if meter.is_some_and(BudgetProbe::cut) {
                    bounds[q] = bounds[q].max(prep.n as f64);
                    continue;
                }
                // The index layers first: every record matching at least K−1 of the
                // K probes. Any other record matches at most K−2, so it scores at
                // most `min(K−2, N−1) + 1`; the table is scanned only while the heap
                // could still take that.
                let mut complete = true;
                let mut scan = true;
                if let Some(orders) = &fb.near {
                    let k = fb.probes.len();
                    let beyond = k.saturating_sub(2).min(prep.n.saturating_sub(1)) as f64 + 1.0;
                    complete = near_layers(prep, fb, orders, topk, meter);
                    scan = complete && topk.can_beat(beyond);
                }
                if scan {
                    let mut scorers: Vec<ProbeScorer<'_, '_>> =
                        fb.probes.iter().map(ProbeScorer::new).collect();
                    let all = universe.clone().map(RecordId);
                    complete =
                        offer_degree_of_match(all, prep, &fb.found, &mut scorers, topk, meter);
                }
                if !complete {
                    // Degree-of-match scores bound at N.
                    bounds[q] = bounds[q].max(prep.n as f64);
                }
            }
            if let Some(m) = meter {
                m.flush();
            }
        }
        let visited = budget.map_or(0, |b| b.visited());
        Ok(heaps
            .into_iter()
            .zip(bounds)
            .map(|(topk, bound)| {
                let mut answers = topk.into_sorted();
                let degraded = bound > f64::NEG_INFINITY;
                if degraded {
                    // Keep exactly the certified prefix: entries scoring strictly
                    // above the cut bound already beat everything the cut skipped.
                    let keep = answers.iter().take_while(|a| a.rank_sim > bound).count();
                    answers.truncate(keep);
                }
                PartialOutcome {
                    answers,
                    visited,
                    degraded,
                    cut_bound: bound,
                }
            })
            .collect())
    }

    /// Compile one request into the state both passes read.
    fn prepare_question<'m>(
        &'m self,
        request: &PartialBatchRequest<'_>,
        table: &'m Table,
    ) -> PreparedQuestion<'m> {
        let interpretation = request.interpretation;
        let sketches = interpretation.all_sketches();
        let mut exclude_sorted: Vec<RecordId> = request.exclude.iter().copied().collect();
        exclude_sorted.sort_unstable();
        let n = interpretation.condition_count();
        let base = (n.saturating_sub(1)) as f64;
        // Upper bound on every score one relaxation arm can offer: the best value
        // similarity when a value order exists (entries are sorted descending and
        // the residual scores at most the base), `base + 1` for exhaustive arms.
        let arm_bound = |values: &Option<ValueOrder<'m>>| {
            base + values
                .as_ref()
                .map_or(1.0, |o| o.entries().first().map_or(0.0, |e| e.sim))
        };
        let kind = if request.budget == 0 || interpretation.is_empty() {
            PreparedKind::Inert
        } else if sketches.len() <= 1 {
            match sketches.first() {
                Some(sketch) => {
                    let probe = self.similarity.compile(sketch, table);
                    let values = probe.value_order();
                    PreparedKind::Single { probe, values }
                }
                None => PreparedKind::Inert,
            }
        } else {
            // Build each relaxation's plan once. Interpretation errors for a particular relaxation (e.g. the removed
            // condition resolved a contradiction) simply skip that relaxation.
            let skips_value = interpretation.superlatives.is_empty();
            let mut plans: Vec<RelaxationPlan<'m>> = sketches
                .iter()
                .enumerate()
                .filter_map(|(skip, relaxed)| {
                    let query = interpretation.to_query_excluding(self.spec, skip).ok()?;
                    let probe = self.similarity.compile(relaxed, table);
                    let values = if skips_value {
                        probe.unsatisfied_order()
                    } else {
                        probe.value_order()
                    };
                    let start_bound = arm_bound(&values);
                    Some(RelaxationPlan {
                        skip,
                        query,
                        probe,
                        values,
                        skips_value,
                        start_bound,
                    })
                })
                .collect();
            // Best bound first (stable, so equal bounds keep condition order): the
            // first plans fill the heap that prunes the later ones.
            plans.sort_by(|a, b| b.start_bound.total_cmp(&a.start_bound));
            PreparedKind::Multi(plans)
        };
        let max_start_bound = match &kind {
            PreparedKind::Inert => f64::NEG_INFINITY,
            PreparedKind::Single { values, .. } => arm_bound(values),
            PreparedKind::Multi(plans) => {
                plans.first().map_or(f64::NEG_INFINITY, |p| p.start_bound)
            }
        };
        PreparedQuestion {
            n,
            budget: request.budget,
            exclude_sorted,
            kind,
            max_start_bound,
        }
    }
}

/// Degree-of-match score for the sparse-data fallback:
/// `min(#matched, N−1) + best similarity over the unmatched conditions`, reporting the
/// measure and index of the best unmatched condition. Matches `Rank_Sim` exactly for
/// records matching exactly N−1 conditions. Takes scorers (not bare probes) because
/// the fallback's scan scores the whole table when the heap still admits a record
/// matching K−2 probes — memoized text scores matter most here.
pub(crate) fn degree_of_match(
    scorers: &mut [ProbeScorer<'_, '_>],
    condition_count: usize,
    id: RecordId,
) -> PartialAnswer {
    let mut matched = 0usize;
    let mut best_sim = 0.0_f64;
    let mut best_measure = SimilarityMeasure::None;
    let mut best_idx = 0usize;
    let mut any_unmatched = false;
    for (idx, scorer) in scorers.iter_mut().enumerate() {
        if scorer.probe().satisfied(id) {
            matched += 1;
        } else {
            let (sim, measure) = scorer.similarity(id);
            if !any_unmatched || sim > best_sim {
                best_sim = sim;
                best_measure = measure;
                best_idx = idx;
            }
            any_unmatched = true;
        }
    }
    let matched_cap = condition_count.saturating_sub(1) as f64;
    let base = (matched as f64).min(matched_cap);
    PartialAnswer {
        id,
        rank_sim: base + if any_unmatched { best_sim } else { 0.0 },
        measure: best_measure,
        relaxed_condition: best_idx,
    }
}

/// Offer every id of `ids` that is neither excluded nor `found` by the index pass its
/// degree-of-match score. Returns `false` when the deadline cut the pass (the caller
/// then certifies at `N`). An id offered twice is offered the same score twice, which
/// the heap provably ignores (module docs).
fn offer_degree_of_match(
    ids: impl Iterator<Item = RecordId>,
    prep: &PreparedQuestion<'_>,
    found: &[RecordId],
    scorers: &mut [ProbeScorer<'_, '_>],
    topk: &mut TopK,
    meter: Option<&BudgetProbe<'_>>,
) -> bool {
    for id in ids {
        if meter.is_some_and(BudgetProbe::visit) {
            return false;
        }
        if prep.excluded(id) || found.binary_search(&id).is_ok() {
            continue;
        }
        let fb = degree_of_match(scorers, prep.n, id);
        topk.offer(id, fb.rank_sim, fb.measure, fb.relaxed_condition);
    }
    true
}

/// The degree-of-match fallback's index layers: every record that is neither
/// excluded nor found by phase 1 and satisfies at least K−1 of the K probes,
/// offered the score [`degree_of_match`] gives it. `orders` holds each probe's
/// [`CompiledProbe::unsatisfied_order`]. Returns `false` when the deadline cut the
/// layers (the caller then certifies at `N`).
///
/// * **Layer K** — the records in every probe's set `Sⱼ`: nothing is unmatched, so
///   each scores `min(K, N−1)` with no measure and condition index 0. One
///   intersection, pulled while the heap can still take its constant score.
/// * **Layer K−1, branch `i`** — the records of `∩ⱼ≠ᵢ Sⱼ` outside `Sᵢ`: probe `i` is
///   the only one unmatched, so each scores `min(K−1, N−1) + simᵢ` under probe `i`'s
///   measure and index — a relaxation of probe `i` over the base `min(K−1, N−1)`,
///   walked by [`wand_relaxation`] with its pruning: runs of values best first, the
///   residual last. The value probe `i` is satisfied by is not in its order, and the
///   records holding it (layer K's) are skipped with the found ones.
fn near_layers(
    prep: &PreparedQuestion<'_>,
    fb: &Fallback<'_>,
    orders: &[ValueOrder<'_>],
    topk: &mut TopK,
    meter: Option<&BudgetProbe<'_>>,
) -> bool {
    let k = fb.probes.len();
    let fresh = |id: RecordId| !prep.excluded(id) && fb.found.binary_search(&id).is_err();
    // `∩ⱼ Sⱼ` over every probe but `missed` (`None`: every probe).
    let matching = |missed: Option<usize>| {
        let sets = fb
            .probes
            .iter()
            .enumerate()
            .filter(|&(j, _)| Some(j) != missed);
        let sets = sets
            .filter_map(|(_, probe)| probe.satisfying_ids())
            .collect();
        IdStream::intersect_all(sets)
    };
    let all_matched = k.min(prep.n.saturating_sub(1)) as f64;
    if topk.can_beat(all_matched) {
        if let Some(layer) = matching(None) {
            for id in layer {
                if meter.is_some_and(BudgetProbe::visit) {
                    return false;
                }
                if fresh(id) {
                    topk.offer(id, all_matched, SimilarityMeasure::None, 0);
                }
                if !topk.ascending_run_alive(all_matched, id) {
                    break;
                }
            }
        }
    }
    let base = k.saturating_sub(1).min(prep.n.saturating_sub(1)) as f64;
    for (i, (probe, order)) in fb.probes.iter().zip(orders).enumerate() {
        let rest = OnceCell::new();
        let make_rest = || drained_once(&rest, || matching(Some(i)));
        let skip = |id| !fresh(id) || probe.satisfied(id);
        if wand_relaxation(topk, order, probe, i, base, skip, make_rest, meter).is_some() {
            return false;
        }
    }
    true
}

/// What the degree-of-match fallback of one sparse question works from.
struct Fallback<'m> {
    /// The records phase 1 offered, ascending: they keep their relaxation scores.
    found: Vec<RecordId>,
    /// Every condition of the question, in [`Interpretation::all_sketches`] order.
    probes: Vec<CompiledProbe<'m>>,
    /// Each probe's [`CompiledProbe::unsatisfied_order`]; `None` when a probe has no
    /// index set (numeric or negated), and the fallback scans instead.
    near: Option<Vec<ValueOrder<'m>>>,
}

/// The candidates of one relaxation, for the value runs of [`wand_relaxation`]:
/// `stream` drained into `cell` as one posting list the first time a run asks,
/// borrowed by every later run. A relaxation pruned before its first run never
/// builds it. `None` when `stream` cannot be built (the relaxation's query does not
/// execute), which is remembered too.
fn drained_once<'c, 's>(
    cell: &'c OnceCell<Option<PostingList>>,
    stream: impl FnOnce() -> Option<IdStream<'s>>,
) -> Option<IdStream<'c>> {
    cell.get_or_init(|| Some(PostingList::from_sorted(stream()?.into_ids())))
        .as_ref()
        .map(IdStream::postings)
}

/// The value-ordered (WAND-style) traversal of one relaxation.
///
/// Values of the relaxed column are visited in descending exact-similarity order
/// ([`ValueOrder`]); before each run of equal-similarity values the current top-k
/// threshold is consulted ([`TopK::can_beat`]) and, because every later value (and
/// the zero-similarity residual) bounds at most the current similarity, a failed
/// check ends the whole relaxation — the posting lists of sub-threshold values are
/// never opened. A run of one value drains `rest ∩ postings(v)` through the
/// galloping/flattening machinery; a longer run (score ties) merges its posting
/// lists with a [`ScoredUnion`] and leapfrogs it against `rest`. The residual pass —
/// zero-similarity values plus records missing the attribute — is the plain
/// exhaustive scan; any id it re-offers was already offered at the same score, which
/// the top-k provably ignores (see the module docs).
///
/// Every candidate scores `base + sim` and is offered under condition index
/// `relaxed`: phase 1 relaxes condition `relaxed` over the base `N−1`, the
/// fallback's near layer misses probe `relaxed` alone over `min(K−1, N−1)`. `skip`
/// names the candidates never offered: the excluded records, those the probe is
/// satisfied by when the relaxation rule applies (module docs), and in the fallback
/// also the records phase 1 found.
///
/// `make_rest` produces the candidate stream of the remaining conditions (the whole
/// table for single-condition questions, a posting list drained at most once
/// otherwise — [`drained_once`]); it is called once per drained run, so a relaxation
/// pruned before its first run never pays for it. `None` means the relaxation's query
/// cannot execute — the relaxation is skipped, exactly like the exhaustive engine's
/// `continue`.
///
/// `meter` is the pass's deadline probe, polled per visited candidate. Returns
/// `None` when the relaxation finished losslessly (pruned stops included) and
/// `Some(bound)` when the deadline cut it — `bound` then covers every score the
/// rest of *this* relaxation could have offered: the current run's constant score
/// for a mid-run cut (later runs bound lower, the residual at `base`), and `base`
/// for a cut inside the residual (unvisited residual candidates score exactly
/// `base`; anything higher the residual meets is a re-offer the heap provably
/// ignores — see the module docs).
#[allow(clippy::too_many_arguments)]
fn wand_relaxation<'s>(
    topk: &mut TopK,
    order: &ValueOrder<'s>,
    probe: &CompiledProbe<'_>,
    relaxed: usize,
    base: f64,
    skip: impl Fn(RecordId) -> bool,
    mut make_rest: impl FnMut() -> Option<IdStream<'s>>,
    meter: Option<&BudgetProbe<'_>>,
) -> Option<f64> {
    let entries = order.entries();
    let measure = order.measure();
    let mut i = 0;
    while i < order.positive_len() {
        let sim = entries[i].sim;
        if !topk.can_beat(base + sim) {
            // Every remaining value scores <= sim, and the residual scores exactly
            // `base`: nothing below this point can enter the heap. Lossless stop.
            return None;
        }
        let score = base + sim;
        let mut j = i + 1;
        while j < order.positive_len() && entries[j].sim == sim {
            j += 1;
        }
        let rest = make_rest()?;
        if j - i == 1 {
            let mut stream = rest.intersect(IdStream::postings(entries[i].postings));
            // A run yields ascending ids at one constant score, so the drain can
            // stop as soon as the heap proves no later id of the run can enter —
            // this caps an exact-match mega value at ~budget visited ids.
            for id in stream.by_ref() {
                if let Some(m) = meter {
                    if m.visit() {
                        return Some(score);
                    }
                }
                if !skip(id) {
                    topk.offer(id, score, measure, relaxed);
                }
                if !topk.ascending_run_alive(score, id) {
                    break;
                }
            }
        } else {
            // Equal-similarity run: one union, one pass over `rest`.
            let mut union = ScoredUnion::new(
                entries[i..j]
                    .iter()
                    .map(|e| IdStream::postings(e.postings))
                    .collect(),
            );
            let mut rest = rest;
            let mut cut = false;
            drain_union(&mut union, &mut rest, |id| {
                if let Some(m) = meter {
                    if m.visit() {
                        cut = true;
                        return false;
                    }
                }
                if !skip(id) {
                    topk.offer(id, score, measure, relaxed);
                }
                topk.ascending_run_alive(score, id)
            });
            if cut {
                return Some(score);
            }
        }
        i = j;
    }
    // Residual: zero-similarity values and records missing the attribute, all of
    // which score exactly `base`.
    if !topk.can_beat(base) {
        return None;
    }
    let mut rest = make_rest()?;
    let mut scorer = ProbeScorer::new(probe);
    // The residual is also breakable at the constant `base`: new candidates here
    // score exactly `base` (zero similarity), and any higher-scoring id it meets is
    // a re-offer of an already-drained (or provably-rejected) value run — a no-op
    // either way. Once `base` can no longer enter, nothing downstream can change.
    for id in rest.by_ref() {
        if let Some(m) = meter {
            if m.visit() {
                return Some(base);
            }
        }
        if !skip(id) {
            let (sim, measure) = scorer.similarity(id);
            topk.offer(id, base + sim, measure, relaxed);
        }
        if !topk.ascending_run_alive(base, id) {
            break;
        }
    }
    None
}

/// Leapfrog a [`ScoredUnion`] against the remaining-conditions stream, calling `f`
/// for every id present in both; `f` returns whether the drain is still worth
/// continuing (ids arrive ascending at one constant score, so the heap can prove the
/// tail unable to enter). `rest` is forward-only, so the last id it yielded is
/// remembered — the union re-reaching it is a match without a second (impossible)
/// seek.
fn drain_union(
    union: &mut ScoredUnion<'_>,
    rest: &mut IdStream<'_>,
    mut f: impl FnMut(RecordId) -> bool,
) {
    let mut target = RecordId(0);
    let mut rest_at: Option<RecordId> = None;
    while let Some((id, _)) = union.seek_ge(target) {
        if rest_at == Some(id) {
            if !f(id) {
                return;
            }
            target = RecordId(id.0 + 1);
            continue;
        }
        match rest.seek_ge(id) {
            None => return,
            Some(m) => {
                rest_at = Some(m);
                if m == id {
                    if !f(id) {
                        return;
                    }
                    target = RecordId(id.0 + 1);
                } else {
                    target = m;
                }
            }
        }
    }
}

/// One relaxation, fully planned: the query with the condition removed, the compiled
/// probe that scores the removed condition, and — for categorical relaxed conditions —
/// the value-ordered traversal plan (`None` routes the relaxation through the
/// exhaustive scan). Built once per question; the query's candidates are drained into
/// a posting list the first time a value run needs them ([`drained_once`]). A
/// question's plans are sorted by `start_bound`, best first.
#[derive(Debug)]
struct RelaxationPlan<'m> {
    /// Index of the relaxed condition in [`Interpretation::all_sketches`] order.
    skip: usize,
    query: Query,
    probe: CompiledProbe<'m>,
    /// Distinct values of the relaxed column, scored exactly and sorted descending:
    /// all but the one the probe is satisfied by when `skips_value` holds
    /// ([`CompiledProbe::unsatisfied_order`]), every one otherwise.
    values: Option<ValueOrder<'m>>,
    /// Whether a categorical relaxation leaves out the records holding its value —
    /// the relaxation rule, which holds for questions without a superlative (module
    /// docs).
    skips_value: bool,
    /// Upper bound on every score this plan can offer: its best value similarity
    /// over the base, or `base + 1` for the exhaustive arm. In the sorted order it
    /// also bounds every later plan, so it is what a deadline cut landing before
    /// this plan certifies against.
    start_bound: f64,
}

/// One question of a [`PartialMatcher::partial_answers_batch_budgeted`] call.
#[derive(Debug, Clone, Copy)]
pub struct PartialBatchRequest<'q> {
    /// The interpreted question.
    pub interpretation: &'q Interpretation,
    /// Record ids already returned as exact answers. The matcher does not depend on
    /// it to keep a categorical relaxation's exact matches out: in a question
    /// without a superlative, no such relaxation offers a record that holds its
    /// relaxed value (module docs).
    pub exclude: &'q HashSet<RecordId>,
    /// Maximum number of partial answers for this question.
    pub budget: usize,
}

/// A question prepared for both passes: plans/probes compiled once, exclusion set
/// sorted once.
struct PreparedQuestion<'m> {
    n: usize,
    budget: usize,
    exclude_sorted: Vec<RecordId>,
    kind: PreparedKind<'m>,
    /// Upper bound on every score the phase-1 pass can offer for this question —
    /// the certification bound for a deadline cut landing before it starts
    /// (`NEG_INFINITY` for inert questions, which offer nothing).
    max_start_bound: f64,
}

enum PreparedKind<'m> {
    /// Empty interpretation or zero budget: nothing to do.
    Inert,
    /// Single-condition question: direct similarity matching with this probe —
    /// value-ordered when an order exists, a full scan otherwise.
    Single {
        probe: CompiledProbe<'m>,
        values: Option<ValueOrder<'m>>,
    },
    /// N−1 relaxations over the index.
    Multi(Vec<RelaxationPlan<'m>>),
}

impl PreparedQuestion<'_> {
    fn excluded(&self, id: RecordId) -> bool {
        self.exclude_sorted.binary_search(&id).is_ok()
    }

    /// What a relaxation adds a candidate's similarity to: `N−1` matched conditions.
    fn base(&self) -> f64 {
        self.n.saturating_sub(1) as f64
    }
}

/// Phase 1 of [`PartialMatcher`]'s batch engine: the index-driven pass over every
/// question — the N−1 relaxations best bound first, or a single condition's value
/// runs — offering into `heaps` and widening `bounds` at any deadline cut.
fn index_pass(
    prepared: &[PreparedQuestion<'_>],
    heaps: &mut [TopK],
    bounds: &mut [f64],
    table: &Table,
    budget: Option<&QueryBudget>,
) {
    let universe = 0..table.len() as u32;
    let meter = budget.map(BudgetProbe::new);
    let executor = Executor::new(table);
    for (q, (prep, topk)) in prepared.iter().zip(heaps.iter_mut()).enumerate() {
        if let Some(m) = &meter {
            if m.cut() {
                // Cut before the question started: everything it could have
                // offered is covered by its precomputed maximum.
                bounds[q] = bounds[q].max(prep.max_start_bound);
                continue;
            }
        }
        match &prep.kind {
            PreparedKind::Inert => {}
            PreparedKind::Single { probe, values } => match values {
                // Value-ordered traversal: the "rest of the conditions" of a
                // single-condition question is the whole table, so each value's
                // posting list drains directly — the O(table) scan collapses to
                // the few posting lists whose similarity can still beat the
                // threshold.
                Some(order) => {
                    if let Some(cut_at) = wand_relaxation(
                        topk,
                        order,
                        probe,
                        0,
                        prep.base(),
                        |id| prep.excluded(id),
                        || Some(IdStream::All(universe.clone())),
                        meter.as_ref(),
                    ) {
                        bounds[q] = bounds[q].max(cut_at);
                    }
                }
                // Exhaustive scan: apply similarity matching directly over the
                // table (Section 4.3.1, last paragraph). Inherently O(table), but
                // scoring is allocation-free and ranking memory stays O(budget).
                None => {
                    let mut scorer = ProbeScorer::new(probe);
                    for id in universe.clone().map(RecordId) {
                        if let Some(m) = &meter {
                            if m.visit() {
                                bounds[q] = bounds[q].max(prep.max_start_bound);
                                break;
                            }
                        }
                        if prep.excluded(id) {
                            continue;
                        }
                        let (score, measure) = scorer.rank_sim(prep.n, id);
                        topk.offer(id, score, measure, 0);
                    }
                }
            },
            PreparedKind::Multi(plans) => {
                'plans: for (pi, plan) in plans.iter().enumerate() {
                    // Plans run best bound first: once the heap cannot take this
                    // plan's bound, it cannot take any later plan's.
                    if !topk.can_beat(plan.start_bound) {
                        break 'plans;
                    }
                    if let Some(m) = &meter {
                        if m.cut() {
                            // Cut between plans: this plan's start bound is the
                            // highest of the remaining ones.
                            bounds[q] = bounds[q].max(plan.start_bound);
                            break 'plans;
                        }
                    }
                    let later_bound = || {
                        plans
                            .get(pi + 1)
                            .map_or(f64::NEG_INFINITY, |p| p.start_bound)
                    };
                    match &plan.values {
                        Some(order) => {
                            // A record holding the relaxed value matches every
                            // condition: an exact answer, not a new one.
                            let skip = |id| {
                                prep.excluded(id) || (plan.skips_value && plan.probe.satisfied(id))
                            };
                            // The remaining N−1 conditions, drained once: every
                            // later run intersects the list instead of re-planning
                            // the query (and re-applying a superlative).
                            let rest = OnceCell::new();
                            let make_rest = || {
                                drained_once(&rest, || executor.execute_stream(&plan.query).ok())
                            };
                            if let Some(cut_at) = wand_relaxation(
                                topk,
                                order,
                                &plan.probe,
                                plan.skip,
                                prep.base(),
                                skip,
                                make_rest,
                                meter.as_ref(),
                            ) {
                                bounds[q] = bounds[q].max(cut_at.max(later_bound()));
                                break 'plans;
                            }
                        }
                        None => {
                            let stream = match executor.execute_stream(&plan.query) {
                                Ok(s) => s,
                                Err(_) => continue,
                            };
                            let mut scorer = ProbeScorer::new(&plan.probe);
                            match &meter {
                                // `for_each` funnels through the stream's
                                // specialized `fold`: posting-list tails, flattened
                                // intersections and wide-range filters run as
                                // tight slice/range loops. The unbudgeted arm
                                // keeps that exact shape.
                                None => stream.for_each(|id| {
                                    if prep.excluded(id) {
                                        return;
                                    }
                                    let (score, measure) = scorer.rank_sim(prep.n, id);
                                    topk.offer(id, score, measure, plan.skip);
                                }),
                                Some(m) => {
                                    let mut cut = false;
                                    for id in stream {
                                        if m.visit() {
                                            cut = true;
                                            break;
                                        }
                                        if prep.excluded(id) {
                                            continue;
                                        }
                                        let (score, measure) = scorer.rank_sim(prep.n, id);
                                        topk.offer(id, score, measure, plan.skip);
                                    }
                                    if cut {
                                        // Mid-stream cut: the stream is unordered
                                        // in score, so the whole plan's start
                                        // bound — the highest of the remaining
                                        // plans' — must cover the remainder.
                                        bounds[q] = bounds[q].max(plan.start_bound);
                                        break 'plans;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    if let Some(m) = &meter {
        m.flush();
    }
}

/// The single result of a one-request call. The engine and the answering core
/// return exactly one result per request; the error arm is unreachable but
/// cheaper than a panic on the serving path.
pub(crate) fn take_single<T>(mut results: Vec<T>) -> CqadsResult<T> {
    results
        .pop()
        .ok_or_else(|| CqadsError::Config("internal: one request produced no result".to_string()))
}

// ---------------------------------------------------------------------------
// Bounded top-k collector
// ---------------------------------------------------------------------------

/// A `budget`-bounded top-k collector over `(rank_sim desc, id asc)` with per-record
/// best-score dedup.
///
/// Updates use lazy deletion: improving an in-heap record pushes a fresh heap entry
/// under a new generation and invalidates the old one, so no decrease-key is needed.
/// Live memory is `O(budget)`; the heap is compacted if stale entries ever dominate.
struct TopK {
    budget: usize,
    heap: BinaryHeap<std::cmp::Reverse<HeapEntry>>,
    /// id -> (current generation, best answer so far). Only ids currently in the top-k
    /// are tracked. Keyed by the fast symbol hasher — record ids are internal, dense
    /// `u32`s, so DoS-resistant hashing buys nothing on this per-candidate path.
    live: HashMap<RecordId, (u32, PartialAnswer), cqads_text::intern::SymHashBuilder>,
    next_gen: u32,
    /// `(score, id)` of the worst live entry, maintained whenever the heap is full —
    /// lets `offer` reject a below-threshold candidate with two comparisons and no
    /// hash or heap access at all. `None` while the heap is below budget.
    cached_worst: Option<(f64, RecordId)>,
}

/// Heap key ordered so that the *worst* candidate is the minimum: lower score is
/// worse; on equal scores the larger id is worse (final order is id-ascending).
#[derive(Debug)]
struct HeapEntry {
    score: f64,
    id: RecordId,
    gen: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .partial_cmp(&other.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl TopK {
    fn new(budget: usize) -> Self {
        TopK {
            budget,
            heap: BinaryHeap::with_capacity(budget + 1),
            live: HashMap::with_capacity_and_hasher(budget, Default::default()),
            next_gen: 0,
            cached_worst: None,
        }
    }

    fn len(&self) -> usize {
        self.live.len()
    }

    /// Could a candidate scoring at most `upper` still enter the heap or improve a
    /// live entry? `false` only when the heap is full and `upper` lies strictly below
    /// the worst live score — an *equal* score can still win its tie-break on a
    /// smaller record id, so equality must keep scanning. This is the threshold the
    /// value-ordered traversal prunes on: since the worst live score never decreases,
    /// a candidate rejected here would be rejected by [`TopK::offer`] now and at any
    /// later point, which makes skipping it lossless.
    fn can_beat(&self, upper: f64) -> bool {
        match self.cached_worst {
            None => true,
            Some((worst, _)) => upper >= worst,
        }
    }

    /// For a drain that yields **ascending** ids all scoring exactly `score`: after
    /// seeing `last_id`, can any later id of the drain still enter the heap? `false`
    /// once the heap is full and its worst live entry already beats `(score,
    /// any id > last_id)` — i.e. the worst scores higher, or ties at an id `<=
    /// last_id`. Every later candidate of the run then loses the `(rank_sim desc,
    /// id asc)` tie-break against a worst that never gets worse, so it would be
    /// rejected by [`TopK::offer`] now and forever: breaking the drain is lossless.
    /// This is what caps a mega posting list (an exact-match value over a skewed
    /// column) at ~`budget` visited ids instead of its full length.
    fn ascending_run_alive(&self, score: f64, last_id: RecordId) -> bool {
        match self.cached_worst {
            None => true,
            Some((worst, worst_id)) => match score.partial_cmp(&worst).unwrap_or(Ordering::Equal) {
                Ordering::Less => false,
                Ordering::Equal => worst_id > last_id,
                Ordering::Greater => true,
            },
        }
    }

    fn live_ids(&self) -> impl Iterator<Item = RecordId> + '_ {
        self.live.keys().copied()
    }

    /// Recompute [`TopK::cached_worst`] after a mutation (cheap: the heap top is
    /// usually live; stale entries are popped lazily).
    fn refresh_worst(&mut self) {
        self.cached_worst = if self.budget > 0 && self.live.len() >= self.budget {
            self.peek_worst().map(|entry| (entry.score, entry.id))
        } else {
            None
        };
    }

    /// Pop stale entries until the heap top is live, then peek it.
    fn peek_worst(&mut self) -> Option<&HeapEntry> {
        while let Some(std::cmp::Reverse(entry)) = self.heap.peek() {
            let is_live = self
                .live
                .get(&entry.id)
                .is_some_and(|(gen, _)| *gen == entry.gen);
            if is_live {
                break;
            }
            self.heap.pop();
        }
        self.heap.peek().map(|rev| &rev.0)
    }

    fn offer(&mut self, id: RecordId, score: f64, measure: SimilarityMeasure, relaxed: usize) {
        if self.budget == 0 {
            return;
        }
        // Threshold fast path: once the heap is full, a candidate below the cached
        // worst live entry (in `(score, id)` order) can neither enter as a new
        // record nor improve a live one — every live score is `>=` the worst score,
        // and a live record at the worst score has an id `<=` the worst's. Only the
        // worst entry itself may take an equal offer (a smaller relaxed index).
        // Rejecting here costs two comparisons and touches neither the hash map nor
        // the heap, which is the common case once the top-k stabilizes.
        if let Some((worst_score, worst_id)) = self.cached_worst {
            match score.partial_cmp(&worst_score).unwrap_or(Ordering::Equal) {
                Ordering::Less => return,
                Ordering::Equal if id > worst_id => return,
                _ => {}
            }
        }
        let full = self.live.len() >= self.budget;
        if let Some((gen, existing)) = self.live.get_mut(&id) {
            // Per-record dedup: keep the best score and, among offers of that
            // score, the smallest relaxed index — what the oracle's first-seen
            // rule keeps, since it visits relaxations in index order. The entry
            // then depends on no offer order, such as the plans' best-bound-first
            // order.
            if score == existing.rank_sim && relaxed < existing.relaxed_condition {
                existing.measure = measure;
                existing.relaxed_condition = relaxed;
            } else if score > existing.rank_sim {
                existing.rank_sim = score;
                existing.measure = measure;
                existing.relaxed_condition = relaxed;
                *gen = self.next_gen;
                self.heap.push(std::cmp::Reverse(HeapEntry {
                    score,
                    id,
                    gen: self.next_gen,
                }));
                self.next_gen += 1;
                // The improved entry may have been the worst; re-cache.
                self.refresh_worst();
            }
            return;
        }
        if full {
            // Evict the current worst: clean stale heap entries first so the pop is
            // guaranteed to remove a live record (the threshold fast path no longer
            // keeps the top clean on rejects).
            self.peek_worst();
            if let Some(std::cmp::Reverse(worst)) = self.heap.pop() {
                self.live.remove(&worst.id);
            }
        }
        let gen = self.next_gen;
        self.next_gen += 1;
        self.live.insert(
            id,
            (
                gen,
                PartialAnswer {
                    id,
                    rank_sim: score,
                    measure,
                    relaxed_condition: relaxed,
                },
            ),
        );
        self.heap
            .push(std::cmp::Reverse(HeapEntry { score, id, gen }));
        // Lazy deletion can accumulate stale entries; compact if they dominate.
        if self.heap.len() > 4 * self.budget + 16 {
            self.compact();
        }
        self.refresh_worst();
    }

    fn compact(&mut self) {
        self.heap = self
            .live
            .iter()
            .map(|(id, (gen, answer))| {
                std::cmp::Reverse(HeapEntry {
                    score: answer.rank_sim,
                    id: *id,
                    gen: *gen,
                })
            })
            .collect();
    }

    /// Drain into the final `(rank_sim desc, id asc)` order.
    fn into_sorted(self) -> Vec<PartialAnswer> {
        let mut out: Vec<PartialAnswer> =
            self.live.into_values().map(|(_, answer)| answer).collect();
        out.sort_by(|a, b| {
            b.rank_sim
                .partial_cmp(&a.rank_sim)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.id.cmp(&b.id))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::toy_car_domain;
    use crate::identifiers::BoundaryOp;
    use crate::oracle::full_scan_partial_answers;
    use crate::tagging::Tagger;
    use crate::translate::{interpret, ConditionSketch};
    use addb::{Record, Superlative, Table};
    use cqads_querylog::TIMatrix;
    use cqads_wordsim::WordSimMatrix;
    use std::sync::Arc;

    fn car(make: &str, model: &str, color: &str, price: f64) -> Record {
        Record::builder()
            .text("make", make)
            .text("model", model)
            .text("color", color)
            .number("price", price)
            .number("year", 2005.0)
            .number("mileage", 60_000.0)
            .build()
    }

    fn setup() -> (crate::domain::DomainSpec, Table, SimilarityModel) {
        let spec = toy_car_domain();
        let mut table = Table::new(spec.schema.clone());
        table
            .insert(car("honda", "accord", "blue", 16_536.0))
            .unwrap();
        table
            .insert(car("honda", "accord", "gold", 6_600.0))
            .unwrap();
        table
            .insert(car("toyota", "camry", "blue", 8_561.0))
            .unwrap();
        table
            .insert(car("chevy", "malibu", "blue", 5_899.0))
            .unwrap();
        table
            .insert(car("ford", "mustang", "red", 21_000.0))
            .unwrap();
        let mut ti = TIMatrix::default();
        ti.insert("accord", "camry", 4.5);
        ti.insert("accord", "malibu", 3.8);
        ti.insert("accord", "mustang", 0.4);
        ti.insert("honda", "toyota", 3.5);
        ti.insert("honda", "chevy", 2.5);
        ti.insert("honda", "ford", 1.0);
        let mut ws = WordSimMatrix::default();
        ws.insert("blue", "gold", 0.45);
        ws.insert("blue", "red", 0.4);
        let sim = SimilarityModel::new(Arc::new(ti), Arc::new(ws), spec.schema.clone());
        (spec, table, sim)
    }

    #[test]
    fn n_minus_1_finds_the_table_2_style_answers() {
        let (spec, table, sim) = setup();
        let tagger = Tagger::new(&spec);
        // "Find Honda Accord blue less than 15,000 dollars"
        let interp = interpret(
            &tagger.tag("Find Honda Accord blue less than 15,000 dollars"),
            &spec,
        )
        .unwrap();
        let matcher = PartialMatcher::new(&spec, &sim);
        let answers = matcher
            .partial_answers(&interp, &table, &HashSet::new(), 30)
            .unwrap();
        assert!(!answers.is_empty());
        // Every answer has a bounded Rank_Sim: at most N (= 4) and more than N - 1 - ε.
        let n = interp.condition_count() as f64;
        for a in &answers {
            assert!(a.rank_sim <= n + 1e-9);
            assert!(a.rank_sim >= 0.0);
        }
        // Scores are sorted descending.
        for w in answers.windows(2) {
            assert!(w[0].rank_sim >= w[1].rank_sim);
        }
        // The gold accord (exact make/model, close price, related color) should rank
        // above the unrelated red mustang.
        let gold_pos = answers
            .iter()
            .position(|a| table.get(a.id).unwrap().get_text("color") == Some("gold"))
            .unwrap();
        let mustang_pos = answers
            .iter()
            .position(|a| table.get(a.id).unwrap().get_text("model") == Some("mustang"));
        if let Some(mpos) = mustang_pos {
            assert!(gold_pos < mpos);
        }
    }

    #[test]
    fn exact_answers_are_excluded_and_budget_respected() {
        let (spec, table, sim) = setup();
        let tagger = Tagger::new(&spec);
        let interp =
            interpret(&tagger.tag("blue honda accord under 20000 dollars"), &spec).unwrap();
        let matcher = PartialMatcher::new(&spec, &sim);
        let exact: HashSet<RecordId> = [RecordId(0)].into_iter().collect();
        let answers = matcher.partial_answers(&interp, &table, &exact, 2).unwrap();
        assert!(answers.len() <= 2);
        assert!(answers.iter().all(|a| a.id != RecordId(0)));
        let none = matcher.partial_answers(&interp, &table, &exact, 0).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn single_condition_questions_use_direct_similarity() {
        let (spec, table, sim) = setup();
        let tagger = Tagger::new(&spec);
        let interp = interpret(&tagger.tag("mustang"), &spec).unwrap();
        assert_eq!(interp.condition_count(), 1);
        let matcher = PartialMatcher::new(&spec, &sim);
        let answers = matcher
            .partial_answers(&interp, &table, &HashSet::new(), 30)
            .unwrap();
        // Every non-excluded record is scored.
        assert_eq!(answers.len(), table.len());
        // The accord (ti_sim 0.4/4.5 with mustang) still scores above records whose
        // model has no recorded relation? All others are unrelated; just check bounds.
        for a in &answers {
            assert!(a.rank_sim >= 0.0 && a.rank_sim <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn each_record_keeps_its_best_relaxation() {
        let (spec, table, sim) = setup();
        let tagger = Tagger::new(&spec);
        let interp = interpret(&tagger.tag("blue toyota camry"), &spec).unwrap();
        let matcher = PartialMatcher::new(&spec, &sim);
        let answers = matcher
            .partial_answers(&interp, &table, &HashSet::new(), 30)
            .unwrap();
        // No duplicate record ids.
        let mut ids: Vec<RecordId> = answers.iter().map(|a| a.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), answers.len());
    }

    #[test]
    fn both_engines_agree_on_every_toy_question() {
        let (spec, table, sim) = setup();
        let tagger = Tagger::new(&spec);
        let fast = PartialMatcher::new(&spec, &sim);
        for question in [
            "Find Honda Accord blue less than 15,000 dollars",
            "blue honda accord under 20000 dollars",
            "mustang",
            "blue toyota camry",
            "red chevy malibu above 4000 dollars",
            "blue honda accord or toyota camry",
            "honda accord not blue under 20000 dollars",
        ] {
            let interp = interpret(&tagger.tag(question), &spec).unwrap();
            for budget in [0usize, 1, 2, 3, 30, 100] {
                for exclude in [
                    HashSet::new(),
                    [RecordId(0)].into_iter().collect::<HashSet<_>>(),
                    (0..table.len() as u32)
                        .map(RecordId)
                        .collect::<HashSet<_>>(),
                ] {
                    let a = fast
                        .partial_answers(&interp, &table, &exclude, budget)
                        .unwrap();
                    let b =
                        full_scan_partial_answers(&spec, &sim, &interp, &table, &exclude, budget)
                            .unwrap();
                    assert_eq!(a, b, "engines diverged on {question:?} budget {budget}");
                }
            }
        }
    }

    #[test]
    fn sparse_questions_top_up_by_degree_of_match() {
        let (spec, table, sim) = setup();
        let tagger = Tagger::new(&spec);
        // No record is a red accord under 3000: every relaxation is still empty, so
        // the fallback must rank records by how many conditions they do satisfy.
        let interp = interpret(&tagger.tag("red honda accord under 3000 dollars"), &spec).unwrap();
        let matcher = PartialMatcher::new(&spec, &sim);
        let answers = matcher
            .partial_answers(&interp, &table, &HashSet::new(), 30)
            .unwrap();
        assert!(!answers.is_empty(), "fallback should fill the budget");
        let n = interp.condition_count() as f64;
        for a in &answers {
            assert!(a.rank_sim <= n - 1.0 + 1.0 + 1e-9);
        }
        for w in answers.windows(2) {
            assert!(w[0].rank_sim >= w[1].rank_sim);
        }
    }

    #[test]
    fn topk_collector_keeps_the_best_budget_entries() {
        let mut topk = TopK::new(3);
        for (id, score) in [(0u32, 0.5), (1, 0.9), (2, 0.1), (3, 0.7), (4, 0.8)] {
            topk.offer(RecordId(id), score, SimilarityMeasure::None, 0);
        }
        let out = topk.into_sorted();
        let ids: Vec<u32> = out.iter().map(|a| a.id.0).collect();
        assert_eq!(ids, vec![1, 4, 3]);
    }

    #[test]
    fn topk_collector_updates_in_place_and_breaks_ties_by_id() {
        let mut topk = TopK::new(2);
        topk.offer(RecordId(5), 0.5, SimilarityMeasure::None, 0);
        topk.offer(RecordId(1), 0.5, SimilarityMeasure::None, 1);
        // id 3 ties the worst (0.5 @ id 5 is worse than 0.5 @ id 1): id 3 < id 5 wins.
        topk.offer(RecordId(3), 0.5, SimilarityMeasure::TiSim, 2);
        // improving a live record re-keys it without duplication
        topk.offer(RecordId(1), 0.9, SimilarityMeasure::NumSim, 3);
        let out = topk.into_sorted();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id, RecordId(1));
        assert_eq!(out[0].rank_sim, 0.9);
        assert_eq!(out[0].measure, SimilarityMeasure::NumSim);
        assert_eq!(out[1].id, RecordId(3));
    }

    #[test]
    fn topk_dedup_keeps_the_smallest_relaxed_index_in_any_offer_order() {
        // Record 7's best score comes from relaxations 3, 1 and 2, each under its own
        // measure; index 1 and its measure must win whatever order the offers arrive
        // in — also when record 7 is the worst entry of a full heap, where an equal
        // re-offer has to get past the threshold fast path.
        let measures = [
            SimilarityMeasure::None,
            SimilarityMeasure::TiSim,
            SimilarityMeasure::NumSim,
            SimilarityMeasure::FeatSim,
        ];
        for order in [[3usize, 1, 2], [2, 1, 3]] {
            for budget in [2usize, 30] {
                let mut topk = TopK::new(budget);
                topk.offer(RecordId(1), 0.9, SimilarityMeasure::None, 0);
                topk.offer(RecordId(7), 0.2, SimilarityMeasure::None, 0);
                for relaxed in order {
                    topk.offer(RecordId(7), 0.5, measures[relaxed], relaxed);
                }
                if budget == 2 {
                    assert_eq!(topk.cached_worst, Some((0.5, RecordId(7))));
                }
                let out = topk.into_sorted();
                let kept = out.iter().find(|a| a.id == RecordId(7)).unwrap();
                assert_eq!(
                    (kept.rank_sim, kept.relaxed_condition, kept.measure),
                    (0.5, 1, SimilarityMeasure::TiSim),
                    "offers {order:?}, budget {budget}"
                );
            }
        }
    }

    #[test]
    fn topk_zero_budget_collects_nothing() {
        let mut topk = TopK::new(0);
        topk.offer(RecordId(0), 1.0, SimilarityMeasure::None, 0);
        assert!(topk.into_sorted().is_empty());
    }

    fn assert_bit_identical(a: &[PartialAnswer], b: &[PartialAnswer], context: &str) {
        assert_eq!(a.len(), b.len(), "{context}");
        for (x, y) in a.iter().zip(b) {
            assert!(x.bits_eq(y), "{context}: {x:?} != {y:?}");
        }
    }

    #[test]
    fn wand_matches_exhaustive_engine_on_every_toy_question() {
        let (spec, table, sim) = setup();
        let tagger = Tagger::new(&spec);
        let wand = PartialMatcher::new(&spec, &sim);
        for question in [
            "Find Honda Accord blue less than 15,000 dollars",
            "blue honda accord under 20000 dollars",
            "mustang",
            "blue toyota camry",
            "red honda accord under 3000 dollars",
            "cheapest blue honda",
        ] {
            let interp = interpret(&tagger.tag(question), &spec).unwrap();
            // Budgets cover: all-sub-threshold pruning (1), typical (2/30) and
            // k-larger-than-table (100).
            for budget in [1usize, 2, 30, 100] {
                for exclude in [
                    HashSet::new(),
                    [RecordId(0), RecordId(2)].into_iter().collect(),
                ] {
                    let a = wand
                        .partial_answers(&interp, &table, &exclude, budget)
                        .unwrap();
                    let b =
                        full_scan_partial_answers(&spec, &sim, &interp, &table, &exclude, budget)
                            .unwrap();
                    assert_bit_identical(&a, &b, &format!("{question:?} budget {budget}"));
                }
            }
        }
    }

    #[test]
    fn wand_early_stop_edge_cases_match_exhaustive() {
        let spec = toy_car_domain();
        let sim = {
            let mut ti = TIMatrix::default();
            ti.insert("accord", "camry", 4.0);
            SimilarityModel::new(
                Arc::new(ti),
                Arc::new(WordSimMatrix::default()),
                spec.schema.clone(),
            )
        };
        let tagger = Tagger::new(&spec);
        let wand = PartialMatcher::new(&spec, &sim);
        let compare = |table: &Table, question: &str, context: &str| {
            let interp = interpret(&tagger.tag(question), &spec).unwrap();
            for budget in [1usize, 30, 500] {
                let a = wand
                    .partial_answers(&interp, table, &HashSet::new(), budget)
                    .unwrap();
                let b =
                    full_scan_partial_answers(&spec, &sim, &interp, table, &HashSet::new(), budget)
                        .unwrap();
                assert_bit_identical(&a, &b, &format!("{context}: {question:?} @ {budget}"));
            }
        };

        // Empty table: every relaxation's column directory is empty.
        let empty = Table::new(spec.schema.clone());
        compare(&empty, "blue honda accord", "empty table");
        compare(&empty, "mustang", "empty table, single condition");

        // Empty relaxed column: no record carries the (optional, Type II) color, so
        // the relaxed color condition scores through the residual pass only.
        let mut colorless = Table::new(spec.schema.clone());
        for i in 0..5 {
            colorless
                .insert(
                    Record::builder()
                        .text("make", "honda")
                        .text("model", "accord")
                        .number("price", 5_000.0 + 100.0 * i as f64)
                        .build(),
                )
                .unwrap();
        }
        compare(&colorless, "blue honda accord", "empty relaxed column");

        // All-sub-threshold: the model and make relaxations run first and find only
        // the blue honda accord, which holds their values; with budget 1 the gold
        // accord then saturates the heap in the color relaxation and every lower
        // color value must be pruned, including the zero-similarity tail.
        let (_, table, sim2) = setup();
        let wand2 = PartialMatcher::new(&spec, &sim2);
        let interp = interpret(&tagger.tag("blue honda accord"), &spec).unwrap();
        let a = wand2
            .partial_answers(&interp, &table, &HashSet::new(), 1)
            .unwrap();
        let b =
            full_scan_partial_answers(&spec, &sim2, &interp, &table, &HashSet::new(), 1).unwrap();
        assert_bit_identical(&a, &b, "all-sub-threshold");
        assert_eq!(a.len(), 1);
    }

    const BATCH_QUESTIONS: [&str; 4] = [
        "Find Honda Accord blue less than 15,000 dollars",
        "mustang",
        "blue toyota camry",
        "red honda accord under 3000 dollars",
    ];

    /// The per-request reference every batch form is held to.
    fn per_request(
        matcher: &PartialMatcher<'_>,
        requests: &[PartialBatchRequest<'_>],
        table: &Table,
    ) -> Vec<Vec<PartialAnswer>> {
        let one = |r: &PartialBatchRequest<'_>| {
            matcher.partial_answers(r.interpretation, table, r.exclude, r.budget)
        };
        requests.iter().map(|r| one(r).unwrap()).collect()
    }

    fn batch_interps(spec: &crate::domain::DomainSpec) -> Vec<crate::translate::Interpretation> {
        let tagger = Tagger::new(spec);
        BATCH_QUESTIONS
            .iter()
            .map(|q| interpret(&tagger.tag(q), spec).unwrap())
            .collect()
    }

    #[test]
    fn budgeted_batch_without_budget_is_byte_identical() {
        let (spec, table, sim) = setup();
        let interps = batch_interps(&spec);
        let exclude = HashSet::new();
        let requests: Vec<PartialBatchRequest<'_>> = interps
            .iter()
            .map(|interpretation| PartialBatchRequest {
                interpretation,
                exclude: &exclude,
                budget: 30,
            })
            .collect();
        let matcher = PartialMatcher::new(&spec, &sim);
        let plain = per_request(&matcher, &requests, &table);
        let budgeted = matcher
            .partial_answers_batch_budgeted(&requests, &table, None)
            .unwrap();
        for (p, outcome) in plain.iter().zip(&budgeted) {
            assert!(!outcome.degraded);
            assert_eq!(outcome.visited, 0);
            assert_bit_identical(p, &outcome.answers, "budget=None");
        }
    }

    #[test]
    fn generous_budget_never_degrades_and_stays_byte_identical() {
        use crate::clock::{Clock, ManualClock};
        let (spec, table, sim) = setup();
        let interps = batch_interps(&spec);
        let exclude = HashSet::new();
        let requests: Vec<PartialBatchRequest<'_>> = interps
            .iter()
            .map(|interpretation| PartialBatchRequest {
                interpretation,
                exclude: &exclude,
                budget: 30,
            })
            .collect();
        let matcher = PartialMatcher::new(&spec, &sim);
        let plain = per_request(&matcher, &requests, &table);
        let clock = Arc::new(ManualClock::new());
        let budget = QueryBudget::new(clock as Arc<dyn Clock>, u64::MAX);
        let budgeted = matcher
            .partial_answers_batch_budgeted(&requests, &table, Some(&budget))
            .unwrap();
        for (p, outcome) in plain.iter().zip(&budgeted) {
            assert!(!outcome.degraded, "nothing expires under a huge deadline");
            assert_bit_identical(p, &outcome.answers, "generous budget");
        }
    }

    /// A clock that jumps forward on every read: the batch starts inside its
    /// deadline and expires after a fixed number of polls, cutting the batch
    /// mid-flight deterministically.
    #[derive(Debug)]
    struct SteppingClock {
        now: std::sync::atomic::AtomicU64,
        step: u64,
    }

    impl crate::clock::Clock for SteppingClock {
        fn now_micros(&self) -> u64 {
            self.now
                .fetch_add(self.step, std::sync::atomic::Ordering::Relaxed)
        }
    }

    #[test]
    fn deadline_cut_answers_are_flagged_certified_prefixes() {
        use crate::clock::Clock;
        let (spec, table, sim) = setup();
        let interps = batch_interps(&spec);
        let exclude = HashSet::new();
        let requests: Vec<PartialBatchRequest<'_>> = interps
            .iter()
            .map(|interpretation| PartialBatchRequest {
                interpretation,
                exclude: &exclude,
                budget: 30,
            })
            .collect();
        let matcher = PartialMatcher::new(&spec, &sim);
        let full = per_request(&matcher, &requests, &table);
        // Sweep the number of clock reads the batch survives, from "cut
        // immediately" to "cut near the end".
        for deadline in [0u64, 1, 3, 7, 15, 40] {
            let clock = Arc::new(SteppingClock {
                now: std::sync::atomic::AtomicU64::new(0),
                step: 1,
            });
            let budget = QueryBudget::new(clock as Arc<dyn Clock>, deadline);
            let outcomes = matcher
                .partial_answers_batch_budgeted(&requests, &table, Some(&budget))
                .unwrap();
            for (q, (outcome, full_answers)) in outcomes.iter().zip(&full).enumerate() {
                let got = &outcome.answers;
                assert!(
                    got.len() <= full_answers.len(),
                    "deadline {deadline} q{q}: degraded cannot exceed complete"
                );
                if got.len() < full_answers.len() {
                    assert!(
                        outcome.degraded,
                        "deadline {deadline} q{q}: a short answer must be flagged"
                    );
                }
                // Certified prefix: whatever survives is bit-identical to the front
                // of the complete answer.
                assert_bit_identical(
                    got,
                    &full_answers[..got.len()],
                    &format!("deadline {deadline} q{q}"),
                );
            }
        }

        // "honda blue under 10000": the numeric condition comes last, but its
        // relaxation runs first — its bound `(N−1) + 1` beats the make relaxation's
        // 2 + TI_Sim(honda, toyota) and the color relaxation's 2 + 0.45, since no
        // categorical order holds its own value. Two more blue hondas fill the heap
        // in the numeric relaxation with a worst below the make relaxation's bound,
        // so the make relaxation still runs, and a cut before it certifies exactly
        // the numeric entries above its start bound.
        let (spec, mut table, sim) = setup();
        table
            .insert(car("honda", "accord", "blue", 12_000.0))
            .unwrap();
        table
            .insert(car("honda", "civic", "blue", 50_000.0))
            .unwrap();
        let interp = question(
            vec![
                categorical("make", "honda"),
                categorical("color", "blue"),
                ConditionSketch::Numeric {
                    attribute: Some("price".into()),
                    op: BoundaryOp::Lt,
                    value: 10_000.0,
                    value2: None,
                    negated: false,
                },
            ],
            false,
        );
        let request = PartialBatchRequest {
            interpretation: &interp,
            exclude: &exclude,
            budget: 3,
        };
        let matcher = PartialMatcher::new(&spec, &sim);
        let PreparedKind::Multi(plans) = matcher.prepare_question(&request, &table).kind else {
            panic!("a three-condition question has relaxation plans");
        };
        let order: Vec<usize> = plans.iter().map(|p| p.skip).collect();
        assert_eq!(order, vec![2, 0, 1], "relaxations run best bound first");
        let full = &per_request(&matcher, &[request], &table)[0];
        let mut between = 0;
        for deadline in 0..8u64 {
            let clock = Arc::new(SteppingClock {
                now: std::sync::atomic::AtomicU64::new(0),
                step: 1,
            });
            let budget = QueryBudget::new(clock as Arc<dyn Clock>, deadline);
            let outcome = take_single(
                matcher
                    .partial_answers_batch_budgeted(&[request], &table, Some(&budget))
                    .unwrap(),
            )
            .unwrap();
            let context = format!("reordered plans, deadline {deadline}");
            assert!(outcome.answers.len() <= full.len(), "{context}");
            assert_bit_identical(&outcome.answers, &full[..outcome.answers.len()], &context);
            if outcome.degraded && outcome.cut_bound == plans[1].start_bound {
                // Cut between the numeric and the make relaxation: the numeric
                // relaxation's entries above the make relaxation's bound survive.
                let kept: Vec<usize> = outcome
                    .answers
                    .iter()
                    .map(|a| a.relaxed_condition)
                    .collect();
                assert_eq!(kept, vec![2, 2], "{context}");
                between += 1;
            }
        }
        assert_eq!(
            between, 1,
            "exactly one deadline cuts between the first two plans"
        );
    }

    #[test]
    fn a_single_condition_question_keeps_the_records_its_condition_matches() {
        // "cheapest honda": one sketch and a superlative, N = 2. The exact answer is
        // the cheapest honda; the other honda satisfies the one condition without
        // being an exact answer, and it is the best partial answer (1 + TI_Sim 1.0).
        // A single-condition question walks the whole table, not a relaxation's
        // candidates, so the relaxation rule must not skip it.
        let (spec, table, sim) = setup();
        let interp = question(vec![categorical("make", "honda")], true);
        let exact = exact_answers(&spec, &table, &interp);
        assert_eq!(exact, [RecordId(1)].into_iter().collect());
        let answers = PartialMatcher::new(&spec, &sim)
            .partial_answers(&interp, &table, &exact, 30)
            .unwrap();
        let oracle = full_scan_partial_answers(&spec, &sim, &interp, &table, &exact, 30).unwrap();
        assert_bit_identical(&answers, &oracle, "cheapest honda");
        assert_eq!((answers[0].id, answers[0].rank_sim), (RecordId(0), 2.0));
    }

    #[test]
    fn a_superlative_relaxation_keeps_the_records_holding_its_value() {
        // "cheapest blue car or honda": relaxing `blue` drops its OR branch, so the
        // relaxation's extreme is the cheapest honda — a blue one, dearer than the
        // blue toyota the question itself returns. It holds the relaxed value without
        // being an exact answer, so the relaxation must offer it.
        let (spec, _, sim) = setup();
        let mut table = Table::new(spec.schema.clone());
        for (make, model, color, price) in [
            ("toyota", "camry", "blue", 3_000.0),
            ("honda", "accord", "blue", 5_000.0),
            ("honda", "civic", "red", 9_000.0),
        ] {
            table.insert(toy_record(make, model, color, price)).unwrap();
        }
        let interp = Interpretation {
            segments: vec![
                vec![categorical("color", "blue")],
                vec![categorical("make", "honda")],
            ],
            ..question(Vec::new(), true)
        };
        let exact = exact_answers(&spec, &table, &interp);
        assert_eq!(exact, [RecordId(0)].into_iter().collect());
        let answers = PartialMatcher::new(&spec, &sim)
            .partial_answers(&interp, &table, &exact, 30)
            .unwrap();
        let oracle = full_scan_partial_answers(&spec, &sim, &interp, &table, &exact, 30).unwrap();
        assert_bit_identical(&answers, &oracle, "cheapest blue car or honda");
        let first = &answers[0];
        assert_eq!(
            (first.id, first.rank_sim, first.relaxed_condition),
            (RecordId(1), 3.0, 0)
        );
    }

    #[test]
    fn a_numeric_relaxation_offers_records_its_probe_counts_as_matched() {
        // "honda accord under 5000" names no attribute: the query asks the columns
        // whose range holds 5000 (price, mileage), the probe is satisfied by any
        // numeric column, and both accords' 2005 `year` is under 5000. Neither
        // accord is an exact answer, so the numeric relaxation must still offer them.
        let (spec, table, sim) = setup();
        let tagger = Tagger::new(&spec);
        let interp = interpret(&tagger.tag("honda accord under 5000"), &spec).unwrap();
        assert!(matches!(
            interp.all_sketches()[2],
            ConditionSketch::Numeric {
                attribute: None,
                ..
            }
        ));
        let exact = exact_answers(&spec, &table, &interp);
        assert!(exact.is_empty());
        let answers = PartialMatcher::new(&spec, &sim)
            .partial_answers(&interp, &table, &exact, 30)
            .unwrap();
        let oracle = full_scan_partial_answers(&spec, &sim, &interp, &table, &exact, 30).unwrap();
        assert_bit_identical(&answers, &oracle, "honda accord under 5000");
        let relaxed: Vec<(u32, usize)> = answers[..2]
            .iter()
            .map(|a| (a.id.0, a.relaxed_condition))
            .collect();
        assert_eq!(
            relaxed,
            vec![(1, 2), (0, 2)],
            "the accords, nearest 5000 first"
        );
    }

    /// The question's exact answers: what the answering pipeline excludes.
    fn exact_answers(
        spec: &DomainSpec,
        table: &Table,
        interp: &Interpretation,
    ) -> HashSet<RecordId> {
        let query = interp.to_query(spec).unwrap();
        let answers = Executor::new(table).execute(&query).unwrap();
        answers.into_iter().map(|a| a.id).collect()
    }

    #[test]
    fn zero_deadline_cuts_every_question_immediately() {
        use crate::clock::{Clock, ManualClock};
        let (spec, table, sim) = setup();
        let interps = batch_interps(&spec);
        let exclude = HashSet::new();
        let requests: Vec<PartialBatchRequest<'_>> = interps
            .iter()
            .map(|interpretation| PartialBatchRequest {
                interpretation,
                exclude: &exclude,
                budget: 30,
            })
            .collect();
        let matcher = PartialMatcher::new(&spec, &sim);
        let clock = Arc::new(ManualClock::new());
        clock.advance(10);
        let budget = QueryBudget::new(Arc::clone(&clock) as Arc<dyn Clock>, 0);
        assert!(budget.expired());
        let outcomes = matcher
            .partial_answers_batch_budgeted(&requests, &table, Some(&budget))
            .unwrap();
        for outcome in &outcomes {
            assert!(
                outcome.degraded,
                "expired before start must flag every question"
            );
            assert!(outcome.answers.is_empty(), "nothing was certified");
        }
    }

    // -----------------------------------------------------------------------
    // The degree-of-match fallback: index layer first, the scan past its bound
    // -----------------------------------------------------------------------

    fn categorical(attribute: &str, value: &str) -> ConditionSketch {
        ConditionSketch::Categorical {
            attribute: attribute.into(),
            value: value.into(),
            is_type1: attribute != "color",
            negated: false,
        }
    }

    fn question(sketches: Vec<ConditionSketch>, cheapest: bool) -> Interpretation {
        Interpretation {
            domain: "cars".into(),
            segments: vec![sketches],
            superlatives: if cheapest {
                vec![Superlative::min("price")]
            } else {
                Vec::new()
            },
        }
    }

    fn toy_record(make: &str, model: &str, color: &str, price: f64) -> Record {
        Record::builder()
            .text("make", make)
            .text("model", model)
            .text("color", color)
            .number("price", price)
            .build()
    }

    /// One sparse question through the budgeted batch engine under a deadline no
    /// run reaches, so `visited` counts what the engine touched.
    fn metered(
        matcher: &PartialMatcher<'_>,
        interp: &Interpretation,
        table: &Table,
        budget: usize,
    ) -> PartialOutcome {
        use crate::clock::{Clock, ManualClock};
        let clock = Arc::new(ManualClock::new()) as Arc<dyn Clock>;
        let exclude = HashSet::new();
        let request = PartialBatchRequest {
            interpretation: interp,
            exclude: &exclude,
            budget,
        };
        let far = QueryBudget::new(clock, u64::MAX);
        let outcome = matcher
            .partial_answers_batch_budgeted(&[request], table, Some(&far))
            .unwrap();
        take_single(outcome).unwrap()
    }

    /// "cheapest honda accord blue" over `fillers` records matching none of its three
    /// values and `near` records matching exactly two of them, each with a positive
    /// similarity on the third — so every near match scores above the `2 + 0` that
    /// bounds a record matching one value, and the index layer alone fills the heap.
    fn near_match_fixture(fillers: usize, near: usize) -> (DomainSpec, Table, SimilarityModel) {
        let spec = toy_car_domain();
        let mut table = Table::new(spec.schema.clone());
        for i in 0..fillers {
            let price = 10_000.0 + (i % 5_000) as f64;
            table
                .insert(toy_record("ford", "focus", "red", price))
                .unwrap();
        }
        let kinds = [
            ("honda", "accord", "navy"),
            ("honda", "civic", "blue"),
            ("toyota", "accord", "blue"),
        ];
        for i in 0..near {
            let (make, model, color) = kinds[i % 3];
            table
                .insert(toy_record(make, model, color, 4_000.0 + i as f64))
                .unwrap();
        }
        let mut ti = TIMatrix::default();
        ti.insert("accord", "civic", 2.0);
        ti.insert("honda", "toyota", 2.0);
        let mut ws = WordSimMatrix::default();
        ws.insert("blue", "navy", 0.5);
        let sim = SimilarityModel::new(Arc::new(ti), Arc::new(ws), spec.schema.clone());
        (spec, table, sim)
    }

    fn honda_accord_blue(cheapest: bool) -> Interpretation {
        question(
            vec![
                categorical("make", "honda"),
                categorical("model", "accord"),
                categorical("color", "blue"),
            ],
            cheapest,
        )
    }

    #[test]
    fn fallback_reads_the_index_and_skips_the_scan_past_its_bound() {
        // Laziness by count, not time: the superlative starves every relaxation to
        // its one extreme, so the fallback runs. Its near layer walks each probe's
        // values best first and stops once the heap is full above what is left, so
        // the whole question — phase 1 included — visits a small multiple of the
        // budget: fewer records than the 120 near matches, and no table scan.
        let near = 120;
        let budget = 30;
        let (spec, table, sim) = near_match_fixture(100_000, near);
        assert!(table.len() >= 100_000);
        let matcher = PartialMatcher::new(&spec, &sim);
        let interp = honda_accord_blue(true);
        let outcome = metered(&matcher, &interp, &table, budget);
        let oracle =
            full_scan_partial_answers(&spec, &sim, &interp, &table, &HashSet::new(), budget)
                .unwrap();
        assert_bit_identical(&outcome.answers, &oracle, "near-match superlative");
        assert!(!outcome.degraded);
        assert_eq!(outcome.answers.len(), budget);
        let visited = outcome.visited as usize;
        assert!(
            visited <= 2 * budget && visited < near,
            "visited {visited} records for a budget of {budget} ({near} near matches in a \
             {}-record table)",
            table.len()
        );

        // A numeric probe has no index set: the fallback still scans the table.
        let numeric = question(
            vec![
                categorical("make", "honda"),
                categorical("model", "accord"),
                ConditionSketch::Numeric {
                    attribute: Some("price".into()),
                    op: BoundaryOp::Lt,
                    value: 5_000.0,
                    value2: None,
                    negated: false,
                },
            ],
            true,
        );
        let outcome = metered(&matcher, &numeric, &table, 30);
        assert!(!outcome.degraded);
        assert!(
            outcome.visited as usize >= table.len(),
            "visited {}",
            outcome.visited
        );
    }

    #[test]
    fn fallback_scans_when_the_worst_ties_the_bound() {
        // "cheapest honda blue": K = 2 probes, N = 3, so a record outside the index
        // layer (matching no probe) scores at most min(K−2, N−1) + 1 = 1 = K−1. The
        // hondas fill the heap at exactly 1 (1 matched + Feat_Sim(blue, green) = 0),
        // the fords tie them at 1 (TI_Sim(honda, ford) = 1) with smaller ids: only a
        // scan finds them, and it must run although the heap is full.
        let spec = toy_car_domain();
        let mut table = Table::new(spec.schema.clone());
        for i in 0..3 {
            table
                .insert(toy_record("ford", "focus", "red", 9_000.0 + i as f64))
                .unwrap();
        }
        for i in 0..4 {
            table
                .insert(toy_record("honda", "accord", "green", 5_000.0 + i as f64))
                .unwrap();
        }
        let mut ti = TIMatrix::default();
        ti.insert("honda", "ford", 2.0);
        let sim = SimilarityModel::new(
            Arc::new(ti),
            Arc::new(WordSimMatrix::default()),
            spec.schema.clone(),
        );
        let interp = question(
            vec![categorical("make", "honda"), categorical("color", "blue")],
            true,
        );
        let matcher = PartialMatcher::new(&spec, &sim);
        let outcome = metered(&matcher, &interp, &table, 4);
        let oracle =
            full_scan_partial_answers(&spec, &sim, &interp, &table, &HashSet::new(), 4).unwrap();
        assert_bit_identical(&outcome.answers, &oracle, "tie");
        let ids: Vec<u32> = outcome.answers.iter().map(|a| a.id.0).collect();
        assert_eq!(
            ids,
            vec![3, 0, 1, 2],
            "the cheapest honda, then the tied fords"
        );
        assert!(outcome.answers[1..].iter().all(|a| a.rank_sim == 1.0));
        assert!(outcome.visited as usize >= table.len(), "the scan ran");
    }

    #[test]
    fn deadline_cut_inside_the_index_layer_keeps_the_certified_prefix() {
        use crate::clock::{Clock, ManualClock};
        // 1 200 near matches and a budget of 1 000: the heap fills only in the last
        // value run, so the index layer visits ≈ 1 800 records (runs and residuals)
        // and polls the deadline several times before it ends above the scan's
        // bound; any cut past phase 1 certifies at N.
        let near = 1_200;
        let budget = 1_000;
        let (spec, table, sim) = near_match_fixture(2_000, near);
        let interp = honda_accord_blue(true);
        let exclude = HashSet::new();
        let request = PartialBatchRequest {
            interpretation: &interp,
            exclude: &exclude,
            budget,
        };
        let matcher = PartialMatcher::new(&spec, &sim);
        let full = metered(&matcher, &interp, &table, budget);
        assert!(!full.degraded);
        assert_eq!(full.answers.len(), budget);
        // Phase 1 alone, under a budget that only counts.
        let far = QueryBudget::new(Arc::new(ManualClock::new()), u64::MAX);
        let prepared = [matcher.prepare_question(&request, &table)];
        let (mut heaps, mut bounds) = ([TopK::new(budget)], [f64::NEG_INFINITY]);
        index_pass(&prepared, &mut heaps, &mut bounds, &table, Some(&far));
        let before_index_layer = far.visited();
        // The scan is skipped: every visit past phase 1's is the index layer's.
        let index_layer = full.visited - before_index_layer;
        assert!(
            index_layer >= 4 * BUDGET_CHECK_EVERY && (full.visited as usize) < table.len(),
            "index layer {index_layer} of {} visits",
            full.visited
        );
        let mut cut_inside = 0;
        for deadline in 0..40u64 {
            let clock = Arc::new(SteppingClock {
                now: std::sync::atomic::AtomicU64::new(0),
                step: 1,
            });
            let cut = QueryBudget::new(clock as Arc<dyn Clock>, deadline);
            let outcome = take_single(
                matcher
                    .partial_answers_batch_budgeted(&[request], &table, Some(&cut))
                    .unwrap(),
            )
            .unwrap();
            let context = format!("deadline {deadline}");
            assert!(outcome.answers.len() <= full.answers.len(), "{context}");
            assert_bit_identical(
                &outcome.answers,
                &full.answers[..outcome.answers.len()],
                &context,
            );
            if outcome.degraded && outcome.visited > before_index_layer {
                assert_eq!(
                    outcome.cut_bound,
                    interp.condition_count() as f64,
                    "{context}"
                );
                cut_inside += 1;
            }
        }
        assert!(cut_inside > 0, "no deadline landed inside the index layer");
    }

    #[test]
    fn numeric_equality_is_exact_in_the_degree_of_match_count() {
        // Stored n, n ± 5e-10 and n ± 2e-9: only n satisfies `price = n`, in the
        // executor (phase 1 finds it, alone) and in the fallback's matched count —
        // the others score 1 + Num_Sim < 2, not 2 + 0.
        let spec = toy_car_domain();
        let n = 5_000.0;
        let mut table = Table::new(spec.schema.clone());
        for price in [n, n + 5e-10, n - 5e-10, n + 2e-9, n - 2e-9] {
            table
                .insert(toy_record("honda", "accord", "red", price))
                .unwrap();
        }
        let sim = SimilarityModel::new(
            Arc::new(TIMatrix::default()),
            Arc::new(WordSimMatrix::default()),
            spec.schema.clone(),
        );
        let interp = question(
            vec![
                categorical("make", "honda"),
                categorical("color", "blue"),
                ConditionSketch::Numeric {
                    attribute: Some("price".into()),
                    op: BoundaryOp::Eq,
                    value: n,
                    value2: None,
                    negated: false,
                },
            ],
            false,
        );
        let matcher = PartialMatcher::new(&spec, &sim);
        for budget in [1usize, 3, 30] {
            let got = matcher
                .partial_answers(&interp, &table, &HashSet::new(), budget)
                .unwrap();
            let want =
                full_scan_partial_answers(&spec, &sim, &interp, &table, &HashSet::new(), budget)
                    .unwrap();
            assert_bit_identical(&got, &want, &format!("budget {budget}"));
            assert_eq!(got[0].id, RecordId(0));
            assert_eq!(got[0].rank_sim, 2.0);
            assert!(got[1..]
                .iter()
                .all(|a| a.rank_sim < 2.0 && a.rank_sim > 1.0));
        }
    }
}
