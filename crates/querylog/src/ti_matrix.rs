//! TI-matrix construction (Equation 3 of the paper) and incremental live-log updates.
//!
//! The TI-matrix stores `TI_Sim(A, B)` for every pair of distinct Type I attribute
//! values of a domain. Each of the five features is computed over the whole query log
//! and then normalized by its maximum so that every feature lies in `[0, 1]`;
//! `TI_Sim = Mod + Time + Ad_Time + Rank + Click` therefore lies in `[0, 5]`.
//!
//! Feature semantics (Section 4.3.2):
//! * `Mod(A, B)` — number of reformulations between A and B (either direction),
//! * `Time(A, B)` — average time between submissions of A and B in the same session,
//!   *inverted* after normalization (shorter gaps mean more related),
//! * `Ad_Time(A, B)` — average dwell time on an ad containing B when A was searched,
//! * `Rank(A, B)` — average rank of an ad containing B when A was searched, inverted
//!   (rank 1 is best: "the higher B is ranked, the more likely B is similar to A"),
//! * `Click(A, B)` — number of clicks on ads containing B when A was searched.
//!
//! # Incremental updates (`build` vs [`TIMatrix::apply`])
//!
//! Construction is split into two phases, and the matrix **retains** the output of
//! the first:
//!
//! 1. **Accumulate** — a single pass over sessions updates the raw per-pair feature
//!    accumulators (`Mod`/`Click` counts, `Time`/`Ad_Time`/`Rank` sums with their
//!    observation counts). Cost: `O(events in the sessions)`.
//! 2. **Finalize** — per-feature maxima are recomputed over the accumulators and
//!    every pair's normalized `TI_Sim` entry is rebuilt. Cost: `O(distinct pairs)`,
//!    which is bounded by the square of the domain's Type I vocabulary — orders of
//!    magnitude below the log size a production system accumulates.
//!
//! [`TIMatrix::build`] runs both phases over a whole log; [`TIMatrix::apply`]
//! accumulates only a [`QueryLogDelta`] of fresh sessions and re-finalizes, so a
//! live system learns from traffic without ever re-reading its log.
//!
//! **Why `apply` is bit-identical to a full rebuild.** Every raw accumulator field
//! is a sum (or count) over the log's events *in log order*. `build(log ++ delta)`
//! adds the base log's events first and the delta's events second; `build(log)`
//! followed by `apply(delta)` performs the *same float additions in the same order*
//! on the retained accumulators — IEEE 754 addition is deterministic, so the raw
//! sums agree bit for bit. Finalization is a pure per-pair function of the raw
//! accumulators plus per-feature maxima, and a maximum over finite floats is
//! order-independent; both paths therefore produce identical entries and an
//! identical `max_value`. The `tests/properties.rs` proptest asserts this equality
//! (entry bits, pair sets, maxima) over random logs and deltas.
//!
//! Manually [`insert`](TIMatrix::insert)ed pairs live in a separate overlay that
//! finalization re-applies on top of the log-derived entries, so test fixtures and
//! hand-built matrices survive an `apply`.
//!
//! **Vocabulary contract:** log values are interned into the process-global string
//! pool (`cqads_text::intern`, which never evicts) — by `build` since PR 1, and now
//! by every `apply`. The values of a query log are the domain's Type I attribute
//! values (car models, job titles, ...), a vocabulary bounded by the ads tables
//! themselves, so the pool stays bounded too. Do **not** feed raw, unnormalized
//! user text through a live delta stream; match it against the domain vocabulary
//! first, the way the paper's log pipeline (and the synthetic [`generator`
//! ](crate::generator)) does.

use crate::log::{QueryLog, QueryLogDelta, Session};
use cqads_text::intern::{self, sym_pair, Sym, SymHashBuilder};
use std::collections::HashMap;

/// Raw (un-normalized) feature accumulators for one value pair. Sums and counts
/// only — everything normalization needs is recomputed from these in
/// `O(distinct pairs)` at finalize time.
#[derive(Debug, Clone, Copy, Default)]
struct PairStats {
    /// `Mod(A, B)`: number of reformulations between the values.
    mod_count: f64,
    /// Sum and count of within-session submission gaps (`Time` feature).
    time_sum: f64,
    time_n: f64,
    /// Sum and count of ad dwell times (`Ad_Time` feature).
    ad_time_sum: f64,
    ad_time_n: f64,
    /// Sum and count of shown ranks (`Rank` feature).
    rank_sum: f64,
    rank_n: f64,
    /// `Click(A, B)`: number of clicks.
    click_count: f64,
}

/// Symmetric matrix of `TI_Sim` values over Type I attribute values, incrementally
/// updatable from a live query-log stream.
///
/// Entries are keyed by interned symbols of the *lowercased* values, so the hot-path
/// lookup ([`TIMatrix::normalized_sym`]) is a pure integer-pair hash probe with zero
/// string allocation; the string-based accessors remain for construction, tests and
/// reports and normalize (allocate) on the way in.
///
/// The matrix retains its raw per-pair feature accumulators, so
/// [`TIMatrix::apply`] can absorb a [`QueryLogDelta`] in time proportional to the
/// delta (plus a cheap `O(distinct pairs)` renormalization) while staying
/// bit-identical to a full [`TIMatrix::build`] over the concatenated log — see the
/// [module docs](self) for the argument.
///
/// ```
/// use cqads_querylog::{generate_log, AffinityModel, LogGeneratorConfig};
/// use cqads_querylog::{QueryLogDelta, TIMatrix};
///
/// let mut model = AffinityModel::new(&["accord", "camry"]);
/// model.set_affinity("accord", "camry", 0.9);
/// let base = generate_log(&model, &LogGeneratorConfig { sessions: 50, ..Default::default() });
/// let fresh = generate_log(&model, &LogGeneratorConfig { sessions: 5, seed: 9, ..Default::default() });
/// let delta = QueryLogDelta::from_sessions(fresh.sessions);
///
/// let mut live = TIMatrix::build(&base);
/// live.apply(&delta); // O(delta) accumulation, no log re-read
/// assert_eq!(live.len(), TIMatrix::build(&base.concat(&delta)).len());
/// ```
#[derive(Debug, Clone, Default)]
pub struct TIMatrix {
    entries: HashMap<(Sym, Sym), f64, SymHashBuilder>,
    max_value: f64,
    /// Retained raw accumulators (phase 1 output) — the state `apply` extends.
    stats: HashMap<(Sym, Sym), PairStats, SymHashBuilder>,
    /// Manually inserted pairs, overlaid onto the log-derived entries at finalize.
    manual: HashMap<(Sym, Sym), f64, SymHashBuilder>,
}

impl TIMatrix {
    /// Estimate the matrix from a query log (accumulate every session, then
    /// finalize). Equivalent to `TIMatrix::default()` followed by one
    /// [`apply`](TIMatrix::apply) of the whole log as a delta.
    pub fn build(log: &QueryLog) -> Self {
        let mut matrix = TIMatrix::default();
        matrix.accumulate(&log.sessions);
        matrix.finalize();
        matrix
    }

    /// Absorb a delta of freshly recorded sessions: `O(delta events)` accumulator
    /// updates plus an `O(distinct pairs)` renormalization. The result is
    /// bit-identical to a full [`TIMatrix::build`] over `log ++ delta` (see the
    /// [module docs](self)).
    pub fn apply(&mut self, delta: &QueryLogDelta) {
        self.accumulate(&delta.sessions);
        self.finalize();
    }

    /// Absorb several deltas with a single renormalization at the end — the batch
    /// form used by `CqadsWriter::ingest_query_log_batch`. Identical to applying
    /// the deltas one by one (intermediate finalizations are pure functions of the
    /// accumulators and leave them untouched), but pays the `O(distinct pairs)`
    /// finalize cost once.
    pub fn apply_all<'d, I>(&mut self, deltas: I)
    where
        I: IntoIterator<Item = &'d QueryLogDelta>,
    {
        for delta in deltas {
            self.accumulate(&delta.sessions);
        }
        self.finalize();
    }

    /// Phase 1: fold sessions into the raw per-pair accumulators, in session order.
    fn accumulate(&mut self, sessions: &[Session]) {
        for session in sessions {
            // Mod + Time features from reformulations within the session.
            for pair in session.queries.windows(2) {
                let (a, b) = (&pair[0].value, &pair[1].value);
                if a == b {
                    continue;
                }
                let e = self.stats.entry(sym_key(a, b)).or_default();
                e.mod_count += 1.0;
                let dt = (pair[1].at_seconds - pair[0].at_seconds).abs();
                e.time_sum += dt;
                e.time_n += 1.0;
            }
            // Ad_Time, Rank, Click features from result pages and clicks.
            for q in &session.queries {
                for (idx, shown) in q.shown.iter().enumerate() {
                    if shown == &q.value {
                        continue;
                    }
                    let e = self.stats.entry(sym_key(&q.value, shown)).or_default();
                    e.rank_sum += (idx + 1) as f64;
                    e.rank_n += 1.0;
                }
                for click in &q.clicks {
                    if click.ad_value == q.value {
                        continue;
                    }
                    let e = self
                        .stats
                        .entry(sym_key(&q.value, &click.ad_value))
                        .or_default();
                    e.click_count += 1.0;
                    e.ad_time_sum += click.dwell_seconds;
                    e.ad_time_n += 1.0;
                }
            }
        }
    }

    /// Phase 2: recompute per-feature maxima and rebuild every normalized entry
    /// from the raw accumulators, then re-apply the manual overlay. A pure function
    /// of `stats` + `manual`: running it twice in a row changes nothing.
    fn finalize(&mut self) {
        // Raw per-pair feature values: [Mod, Time, Ad_Time, Rank, Click].
        let raw = |s: &PairStats| -> [f64; 5] {
            let avg = |sum: f64, n: f64| if n > 0.0 { sum / n } else { 0.0 };
            [
                s.mod_count,
                avg(s.time_sum, s.time_n),
                avg(s.ad_time_sum, s.ad_time_n),
                avg(s.rank_sum, s.rank_n),
                s.click_count,
            ]
        };

        // Per-feature maxima for normalization (max over finite floats is
        // order-independent, so map iteration order cannot leak into the result).
        let mut maxima = [0.0_f64; 5];
        for s in self.stats.values() {
            let v = raw(s);
            for i in 0..5 {
                maxima[i] = maxima[i].max(v[i]);
            }
        }

        let mut entries =
            HashMap::with_capacity_and_hasher(self.stats.len() + self.manual.len(), SymHashBuilder);
        let mut max_value = 0.0_f64;
        for (k, s) in &self.stats {
            let v = raw(s);
            let norm = |i: usize| {
                if maxima[i] > 0.0 {
                    v[i] / maxima[i]
                } else {
                    0.0
                }
            };
            // Time and Rank are inverted: smaller is more related. Pairs never observed
            // for those features contribute 0, not 1, because absence of evidence is not
            // evidence of relatedness.
            let time_feat = if v[1] > 0.0 { 1.0 - norm(1) } else { 0.0 };
            let rank_feat = if v[3] > 0.0 {
                1.0 - (v[3] - 1.0) / maxima[3].max(1.0)
            } else {
                0.0
            };
            let ti = norm(0) + time_feat + norm(2) + rank_feat + norm(4);
            max_value = max_value.max(ti);
            entries.insert(*k, ti);
        }
        // Manual overlay wins over log-derived entries (test fixtures, hand-built
        // matrices) and participates in the normalization maximum like before.
        for (k, v) in &self.manual {
            entries.insert(*k, *v);
            max_value = max_value.max(*v);
        }
        self.entries = entries;
        self.max_value = max_value;
    }

    /// `TI_Sim(a, b)` in `[0, 5]`; identical values score the maximum observed value
    /// (they are exact matches, handled before partial ranking kicks in).
    pub fn ti_sim(&self, a: &str, b: &str) -> f64 {
        if a.eq_ignore_ascii_case(b) {
            return self.max_value.max(1.0);
        }
        match (
            intern::lookup(&a.to_lowercase()),
            intern::lookup(&b.to_lowercase()),
        ) {
            (Some(sa), Some(sb)) => self.entries.get(&sym_pair(sa, sb)).copied().unwrap_or(0.0),
            _ => 0.0,
        }
    }

    /// `TI_Sim` normalized by the maximum entry of the matrix, as required when it is
    /// combined into `Rank_Sim` (Equation 5): result in `[0, 1]`.
    pub fn normalized(&self, a: &str, b: &str) -> f64 {
        if self.max_value <= 0.0 {
            return if a.eq_ignore_ascii_case(b) { 1.0 } else { 0.0 };
        }
        (self.ti_sim(a, b) / self.max_value).clamp(0.0, 1.0)
    }

    /// Allocation-free equivalent of [`TIMatrix::normalized`] over interned symbols of
    /// *lowercased* values. `None` on the question side means the value was never
    /// interned anywhere in the process, so it cannot equal any stored pair.
    pub fn normalized_sym(&self, question: Option<Sym>, record: Sym) -> f64 {
        let Some(q) = question else { return 0.0 };
        if self.max_value <= 0.0 {
            return if q == record { 1.0 } else { 0.0 };
        }
        let ti = if q == record {
            self.max_value.max(1.0)
        } else {
            self.entries
                .get(&sym_pair(q, record))
                .copied()
                .unwrap_or(0.0)
        };
        (ti / self.max_value).clamp(0.0, 1.0)
    }

    /// Number of stored pairs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no pair has been observed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Largest `TI_Sim` entry (the normalization factor used in Equation 5).
    pub fn max_value(&self) -> f64 {
        self.max_value
    }

    /// Manually insert a similarity (used in unit tests and examples). The pair is
    /// kept in a separate overlay, so it survives later [`TIMatrix::apply`] calls
    /// (the overlay is re-applied on top of the log-derived entries).
    pub fn insert(&mut self, a: &str, b: &str, value: f64) {
        let value = value.max(0.0);
        self.manual.insert(sym_key(a, b), value);
        self.entries.insert(sym_key(a, b), value);
        self.max_value = self.max_value.max(value);
    }
}

/// Lowercase both values, intern them, and order the pair canonically.
fn sym_key(a: &str, b: &str) -> (Sym, Sym) {
    sym_pair(
        intern::intern(&a.to_lowercase()),
        intern::intern(&b.to_lowercase()),
    )
}

/// Raw accumulator state of one value pair with the pair's values resolved to
/// strings — interned symbols are process-local and do not survive a restart,
/// so a persisted matrix must carry the strings themselves.
///
/// The eight `f64` fields mirror the private per-pair accumulators exactly;
/// persisting them bit-for-bit (e.g. via `f64::to_bits`) and re-finalizing
/// reproduces the live matrix bit-identically, because finalization is a pure
/// function of the accumulators (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct PairState {
    /// First value of the pair (lowercased, canonical order not guaranteed
    /// to match the in-memory symbol order — restore re-canonicalizes).
    pub a: String,
    /// Second value of the pair (lowercased).
    pub b: String,
    /// `Mod(A, B)` reformulation count.
    pub mod_count: f64,
    /// Sum of within-session submission gaps.
    pub time_sum: f64,
    /// Number of submission-gap observations.
    pub time_n: f64,
    /// Sum of ad dwell times.
    pub ad_time_sum: f64,
    /// Number of dwell-time observations.
    pub ad_time_n: f64,
    /// Sum of shown ranks.
    pub rank_sum: f64,
    /// Number of rank observations.
    pub rank_n: f64,
    /// `Click(A, B)` click count.
    pub click_count: f64,
}

/// Portable snapshot of a [`TIMatrix`]'s retained raw state: the log-derived
/// accumulators plus the manual overlay. Produced by
/// [`TIMatrix::export_state`], consumed by [`TIMatrix::from_state`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TiMatrixState {
    /// One entry per observed value pair, sorted by `(a, b)` for deterministic
    /// serialization.
    pub pairs: Vec<PairState>,
    /// Manually inserted `(a, b, value)` overlay entries, sorted likewise.
    pub manual: Vec<(String, String, f64)>,
}

impl TIMatrix {
    /// Export the retained raw state (accumulators + manual overlay) with
    /// every interned symbol resolved back to its string, sorted for
    /// deterministic bytes. The normalized entries are *not* exported — they
    /// are a pure function of this state and are rebuilt on restore.
    pub fn export_state(&self) -> TiMatrixState {
        let mut pairs: Vec<PairState> = self
            .stats
            .iter()
            .map(|(&(a, b), s)| PairState {
                a: intern::resolve(a),
                b: intern::resolve(b),
                mod_count: s.mod_count,
                time_sum: s.time_sum,
                time_n: s.time_n,
                ad_time_sum: s.ad_time_sum,
                ad_time_n: s.ad_time_n,
                rank_sum: s.rank_sum,
                rank_n: s.rank_n,
                click_count: s.click_count,
            })
            .collect();
        pairs.sort_by(|x, y| (x.a.as_str(), x.b.as_str()).cmp(&(y.a.as_str(), y.b.as_str())));
        let mut manual: Vec<(String, String, f64)> = self
            .manual
            .iter()
            .map(|(&(a, b), &v)| (intern::resolve(a), intern::resolve(b), v))
            .collect();
        manual.sort_by(|x, y| (x.0.as_str(), x.1.as_str()).cmp(&(y.0.as_str(), y.1.as_str())));
        TiMatrixState { pairs, manual }
    }

    /// Rebuild a matrix from exported state: re-intern every value (fresh
    /// process, fresh symbols), restore the raw accumulators bit-for-bit and
    /// run one finalization. The result's entries and normalization maximum
    /// are bit-identical to the matrix the state was exported from, because
    /// finalization is a pure, iteration-order-independent function of the
    /// accumulators and the overlay.
    pub fn from_state(state: &TiMatrixState) -> Self {
        let mut stats: HashMap<(Sym, Sym), PairStats, SymHashBuilder> = HashMap::default();
        for p in &state.pairs {
            stats.insert(
                sym_key(&p.a, &p.b),
                PairStats {
                    mod_count: p.mod_count,
                    time_sum: p.time_sum,
                    time_n: p.time_n,
                    ad_time_sum: p.ad_time_sum,
                    ad_time_n: p.ad_time_n,
                    rank_sum: p.rank_sum,
                    rank_n: p.rank_n,
                    click_count: p.click_count,
                },
            );
        }
        let mut manual: HashMap<(Sym, Sym), f64, SymHashBuilder> = HashMap::default();
        for (a, b, v) in &state.manual {
            manual.insert(sym_key(a, b), *v);
        }
        let mut matrix = TIMatrix {
            entries: HashMap::default(),
            max_value: 0.0,
            stats,
            manual,
        };
        matrix.finalize();
        matrix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_log, AffinityModel, LogGeneratorConfig};
    use proptest::prelude::*;

    fn built_matrix() -> &'static (AffinityModel, TIMatrix) {
        use std::sync::OnceLock;
        static BUILT: OnceLock<(AffinityModel, TIMatrix)> = OnceLock::new();
        BUILT.get_or_init(|| {
            let mut m = AffinityModel::new(&["accord", "camry", "civic", "corolla", "mustang"]);
            m.set_affinity("accord", "camry", 0.9);
            m.set_affinity("civic", "corolla", 0.85);
            m.set_affinity("accord", "civic", 0.35);
            m.set_affinity("accord", "mustang", 0.05);
            let log = generate_log(
                &m,
                &LogGeneratorConfig {
                    sessions: 1200,
                    seed: 21,
                    ..Default::default()
                },
            );
            let ti = TIMatrix::build(&log);
            (m, ti)
        })
    }

    #[test]
    fn estimated_similarity_recovers_affinity_ordering() {
        let (_, ti) = built_matrix();
        // The estimator, which never saw the affinity model, should still rank
        // accord~camry above accord~mustang.
        assert!(ti.ti_sim("accord", "camry") > ti.ti_sim("accord", "mustang"));
        assert!(ti.ti_sim("civic", "corolla") > ti.ti_sim("civic", "mustang"));
    }

    #[test]
    fn values_are_bounded_and_symmetric() {
        let (_, ti) = built_matrix();
        for (a, b) in [
            ("accord", "camry"),
            ("civic", "corolla"),
            ("camry", "mustang"),
        ] {
            let v = ti.ti_sim(a, b);
            assert!((0.0..=5.0 + 1e-9).contains(&v), "{a}-{b} = {v}");
            assert_eq!(v, ti.ti_sim(b, a));
            let n = ti.normalized(a, b);
            assert!((0.0..=1.0).contains(&n));
        }
        assert!(ti.ti_sim("accord", "accord") >= ti.ti_sim("accord", "camry"));
        assert_eq!(ti.normalized("accord", "accord"), 1.0);
    }

    #[test]
    fn unknown_pairs_score_zero() {
        let (_, ti) = built_matrix();
        assert_eq!(ti.ti_sim("accord", "not-a-model"), 0.0);
        assert_eq!(ti.normalized("accord", "not-a-model"), 0.0);
    }

    #[test]
    fn empty_log_builds_empty_matrix() {
        let ti = TIMatrix::build(&QueryLog::default());
        assert!(ti.is_empty());
        assert_eq!(ti.max_value(), 0.0);
        assert_eq!(ti.normalized("a", "b"), 0.0);
        assert_eq!(ti.normalized("a", "a"), 1.0);
    }

    #[test]
    fn manual_insert_updates_max() {
        let mut ti = TIMatrix::default();
        ti.insert("a", "b", 3.0);
        ti.insert("a", "c", 1.5);
        assert_eq!(ti.max_value(), 3.0);
        assert_eq!(ti.len(), 2);
        assert!(!ti.is_empty());
        assert_eq!(ti.normalized("a", "b"), 1.0);
        assert_eq!(ti.normalized("a", "c"), 0.5);
    }

    /// Bit-level equality of two matrices: same pair set, same entry bits, same
    /// normalization maximum.
    fn assert_bit_identical(a: &TIMatrix, b: &TIMatrix) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.max_value().to_bits(), b.max_value().to_bits());
        for (k, v) in &a.entries {
            let other = b.entries.get(k).unwrap_or_else(|| panic!("missing {k:?}"));
            assert_eq!(v.to_bits(), other.to_bits(), "entry {k:?} diverged");
        }
    }

    #[test]
    fn apply_matches_full_rebuild_bit_for_bit() {
        let (model, _) = built_matrix();
        let base = generate_log(
            model,
            &LogGeneratorConfig {
                sessions: 300,
                seed: 5,
                ..Default::default()
            },
        );
        let fresh = generate_log(
            model,
            &LogGeneratorConfig {
                sessions: 40,
                seed: 6,
                ..Default::default()
            },
        );
        let delta = crate::QueryLogDelta::from_sessions(fresh.sessions);

        let full = TIMatrix::build(&base.concat(&delta));
        let mut incremental = TIMatrix::build(&base);
        incremental.apply(&delta);
        assert_bit_identical(&full, &incremental);

        // Batch form: splitting the delta and finalizing once is identical too.
        let mid = delta.sessions.len() / 2;
        let first = crate::QueryLogDelta::from_sessions(delta.sessions[..mid].to_vec());
        let second = crate::QueryLogDelta::from_sessions(delta.sessions[mid..].to_vec());
        let mut batched = TIMatrix::build(&base);
        batched.apply_all([&first, &second]);
        assert_bit_identical(&full, &batched);

        // An empty delta is a no-op on the entries.
        let before = incremental.clone();
        incremental.apply(&crate::QueryLogDelta::default());
        assert_bit_identical(&before, &incremental);
    }

    #[test]
    fn apply_absorbs_new_evidence() {
        let (model, _) = built_matrix();
        let base = generate_log(
            model,
            &LogGeneratorConfig {
                sessions: 200,
                seed: 31,
                ..Default::default()
            },
        );
        let mut ti = TIMatrix::build(&base);
        // A delta with heavy accord<->camry traffic must not lower their ordering
        // over the barely-related accord<->mustang pair.
        let fresh = generate_log(
            model,
            &LogGeneratorConfig {
                sessions: 100,
                seed: 32,
                ..Default::default()
            },
        );
        ti.apply(&crate::QueryLogDelta::from_sessions(fresh.sessions));
        assert!(ti.ti_sim("accord", "camry") > ti.ti_sim("accord", "mustang"));
        assert!(!ti.is_empty());
    }

    #[test]
    fn manual_inserts_survive_apply() {
        let (model, _) = built_matrix();
        let mut ti = TIMatrix::default();
        ti.insert("zzz-custom", "qqq-custom", 4.5);
        let fresh = generate_log(
            model,
            &LogGeneratorConfig {
                sessions: 30,
                seed: 8,
                ..Default::default()
            },
        );
        ti.apply(&crate::QueryLogDelta::from_sessions(fresh.sessions));
        assert_eq!(ti.ti_sim("zzz-custom", "qqq-custom"), 4.5);
        assert!(ti.max_value() >= 4.5);
    }

    #[test]
    fn export_restore_round_trip_is_bit_identical() {
        let (model, _) = built_matrix();
        let base = generate_log(
            model,
            &LogGeneratorConfig {
                sessions: 150,
                seed: 44,
                ..Default::default()
            },
        );
        let mut live = TIMatrix::build(&base);
        live.insert("zzz-manual", "qqq-manual", 4.25);

        let state = live.export_state();
        assert_eq!(state.pairs.len(), live.stats.len());
        assert_eq!(state.manual.len(), 1);
        // Deterministic export: sorted, and stable across repeated calls.
        assert_eq!(state, live.export_state());

        let restored = TIMatrix::from_state(&state);
        assert_bit_identical(&live, &restored);

        // The restored matrix keeps learning identically: applying the same
        // delta to both sides stays bit-identical (accumulators round-tripped
        // exactly, not just the normalized entries).
        let fresh = generate_log(
            model,
            &LogGeneratorConfig {
                sessions: 25,
                seed: 45,
                ..Default::default()
            },
        );
        let delta = crate::QueryLogDelta::from_sessions(fresh.sessions);
        let mut a = live;
        let mut b = restored;
        a.apply(&delta);
        b.apply(&delta);
        assert_bit_identical(&a, &b);

        // Empty state restores an empty matrix.
        let empty = TIMatrix::from_state(&TiMatrixState::default());
        assert!(empty.is_empty());
        assert_eq!(empty.max_value(), 0.0);
    }

    proptest! {
        #[test]
        fn ti_sim_never_exceeds_five(a in "[a-z]{2,8}", b in "[a-z]{2,8}") {
            let (_, ti) = built_matrix();
            let v = ti.ti_sim(&a, &b);
            prop_assert!(v <= 5.0 + 1e-9);
            prop_assert!(v >= 0.0);
        }
    }
}
