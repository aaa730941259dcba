//! The four workloads: their sizes, how their question pools are chosen and the
//! fixed op list each one replays.
//!
//! All four build the same eight-domain system shape with a trained classifier and
//! ask through `CqadsReader::ask`, so classification is on every path. They differ in
//! which layers the asks reach:
//!
//! * `ask_plenty` — uncached asks that all have a full page (≥ 30) of exact answers:
//!   the front-end and `addb::exec` do all the work, `cqads::partial` none.
//! * `ask_scarce` — uncached asks with fewer than 30 exact answers: the paper's N−1
//!   relaxation (`cqads::partial`, `cqads::ranking`) dominates.
//! * `serve_hot` — cached asks over a warmed cache: classifier, cache key and cache
//!   lookup only.
//! * `ingest_mixed` — inserts and a live query-log delta beside cached asks on a
//!   durable system: copy-on-write publication, WAL, audit trail, invalidation; its
//!   misses are plenty questions.

use crate::clock::Clock;
use crate::inputs::{hash_record, zipf, DomainInput, Inputs, Scale};
use crate::stats::Fnv;
use crate::sut::{Store, Sut};
use cqads_querylog::QueryLogDelta;
use std::collections::HashSet;

/// `--seconds` at which the replay counts below apply; other values scale them.
pub const REFERENCE_SECONDS: u64 = 20;

/// Replays never drop below this: the quiet-latency estimator is a minimum over
/// replays and needs enough of them to find a quiet one for every op.
pub const MIN_REPLAYS: usize = 25;

/// The engine's page size: a question with this many exact answers gets no partial
/// matching.
const PAGE: usize = 30;

/// Every n-th insert is followed by a visibility probe.
pub const PROBE_EVERY: usize = 8;

/// One of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Uncached asks with a full page of exact answers.
    AskPlenty,
    /// Uncached asks with fewer exact answers than a page.
    AskScarce,
    /// Cached asks over a warm cache.
    ServeHot,
    /// Inserts and a query-log delta beside cached asks, durable.
    IngestMixed,
}

impl Workload {
    /// All four, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::AskPlenty,
        Workload::AskScarce,
        Workload::ServeHot,
        Workload::IngestMixed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AskPlenty => "ask_plenty",
            Workload::AskScarce => "ask_scarce",
            Workload::ServeHot => "serve_hot",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The sizes of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Which workload.
    pub workload: Workload,
    /// Input sizes.
    pub scale: Scale,
    /// Memory-only or durable.
    pub store: Store,
    /// Distinct questions in the pool (`ingest_mixed`: the largest slice size that
    /// tuning to the hit share may choose).
    pub distinct: usize,
    /// Ask ops per replay (`ingest_mixed`: per cycle).
    pub asks: usize,
    /// `ingest_mixed`: insert-then-asks cycles per replay.
    pub cycles: usize,
    /// Replays of the op list.
    pub replays: usize,
    /// Memory-only workloads: inserts per replay of the write coda that follows the
    /// asks, and its replays.
    pub coda: (usize, usize),
    /// Times set-up is rebuilt.
    pub rebuilds: usize,
    /// Times the durable store is reopened.
    pub reopens: usize,
}

impl Shape {
    /// The shape of `workload` for a run of `seconds`, or the `--smoke` shape.
    pub fn new(workload: Workload, seconds: u64, smoke: bool) -> Shape {
        // (cars records, distinct, asks, cycles, replays at the reference seconds)
        let (cars, distinct, asks, cycles, replays) = match workload {
            Workload::AskPlenty => (50_000, 1_200, 1_200, 0, 50),
            Workload::AskScarce => (50_000, 480, 480, 0, 25),
            Workload::ServeHot => (20_000, 512, 20_000, 0, 60),
            Workload::IngestMixed => (20_000, 36, 63, 12, 60),
        };
        let store = if workload == Workload::IngestMixed {
            Store::MemFs
        } else {
            Store::Memory
        };
        let coda = match store {
            Store::Memory => (4, 16),
            Store::MemFs => (0, 0),
        };
        if smoke {
            let (distinct, asks, cycles) = match workload {
                Workload::AskPlenty => (40, 40, 0),
                Workload::AskScarce => (30, 30, 0),
                Workload::ServeHot => (64, 1_000, 0),
                Workload::IngestMixed => (36, 63, 3),
            };
            return Shape {
                workload,
                scale: Scale::smoke(),
                store,
                distinct,
                asks,
                cycles,
                replays: 2,
                coda: (coda.0.min(2), coda.1.min(2)),
                rebuilds: 2,
                reopens: 2,
            };
        }
        let scaled = (replays as u64 * seconds).div_ceil(REFERENCE_SECONDS) as usize;
        Shape {
            workload,
            scale: Scale::full(cars),
            store,
            distinct,
            asks,
            cycles,
            replays: scaled.max(MIN_REPLAYS),
            coda,
            // A 20 000-record system builds in half a second: more rebuilds are cheap
            // there, and three would leave its set-up time to the host's mood.
            rebuilds: if cars > 20_000 { 3 } else { 7 },
            reopens: 7,
        }
    }

    /// Inserts in one replay of the main op list.
    pub fn inserts_per_replay(&self) -> usize {
        self.cycles
    }

    /// Fresh records a run needs: `main_replays` of the op list plus the coda.
    pub fn fresh_needed(&self, main_replays: usize) -> usize {
        main_replays * self.inserts_per_replay() + self.coda.0 * self.coda.1
    }
}

/// One step of a replayed op list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Ask pool question `question`, through the cache or past it.
    Ask {
        /// Index into [`Plan::questions`].
        question: u32,
        /// Whether the ask goes through the answer cache.
        cached: bool,
    },
    /// Insert the replay's `slot`-th fresh record into cars.
    Insert {
        /// Position among the replay's inserts.
        slot: u32,
    },
    /// Ingest the replay's query-log delta into cars.
    Ingest,
}

/// What pool selection saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Candidate questions asked.
    pub asked: u64,
    /// Candidates the front-end rejected with an error.
    pub rejected: u64,
    /// Pool questions answered in another domain than the one they were generated for.
    pub misrouted: u64,
    /// Wall time of the selection.
    pub select_ns: u64,
}

/// A workload's fixed op list.
pub struct Plan {
    /// The distinct questions of the pool.
    pub questions: Vec<String>,
    /// The ops of one replay, in order.
    pub ops: Vec<Op>,
    /// One query-log delta per replay (`ingest_mixed` only).
    pub deltas: Vec<QueryLogDelta>,
    /// What selection saw.
    pub pool: PoolStats,
}

impl Plan {
    /// Whether replays leave the system as they found it.
    pub fn is_read_only(&self) -> bool {
        self.ops.iter().all(|op| matches!(op, Op::Ask { .. }))
    }

    /// Hash of everything the replays feed the system: every question, the op order,
    /// and the first `replays` replays' records and deltas.
    pub fn ops_hash(&self, inputs: &Inputs, shape: &Shape, replays: usize) -> u64 {
        let mut hash = Fnv::default();
        self.questions.iter().for_each(|q| hash.text(q));
        for op in &self.ops {
            match *op {
                Op::Ask { question, cached } => {
                    hash.word(1 + u64::from(cached));
                    hash.word(u64::from(question));
                }
                Op::Insert { slot } => {
                    hash.word(3);
                    hash.word(u64::from(slot));
                }
                Op::Ingest => hash.word(4),
            }
        }
        for record in inputs.fresh.iter().take(shape.fresh_needed(replays)) {
            hash_record(&mut hash, record);
        }
        for delta in self.deltas.iter().take(replays) {
            hash.word(delta.len() as u64);
            for query in delta.sessions.iter().flat_map(|s| &s.queries) {
                hash.text(&query.value);
            }
        }
        hash.finish()
    }
}

/// The cost class a pool question is drawn for. Within a class question costs are
/// alike; pools are filled class by class in fixed proportions, so that the seed
/// changes which questions are asked but not the mix of cheap and dear ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Any question the system answers.
    Any,
    /// At least a page of exact answers: no partial matching.
    Plenty,
    /// Less than a page of exact answers and this many conditions (3, 4 or 5): the
    /// N−1 relaxation runs, and its cost grows with the condition count.
    Scarce(usize),
}

/// Condition counts the scarce classes cover. Questions with 3 to 5 conditions are
/// nine tenths of the generated scarce questions; the rest are too rare to fill a
/// class from.
pub const SCARCE_CONDITIONS: [usize; 3] = [3, 4, 5];

/// The cache's notion of question identity: the token sequence.
fn cache_identity(question: &str) -> String {
    let tokens: Vec<String> = cqads_text::tokenize(question)
        .into_iter()
        .map(|t| t.text)
        .collect();
    tokens.join(" ")
}

/// Ask seeded candidate questions of one domain, uncached, until every class in
/// `quotas` has its count of distinct questions. Questions with a negated condition
/// are left out of every class but [`Class::Any`]: they take the exhaustive paths of
/// `addb::exec` and `cqads::partial` (5 ms and 10–140 ms at 50 000 records against
/// 0.13 ms and 1 ms for the rest), so the handful a pool would hold decides its mean
/// and tail. The traced run measures them on their own.
fn select(
    sut: &Sut,
    inputs: &Inputs,
    domain: &DomainInput,
    quotas: &[(Class, usize)],
    stats: &mut PoolStats,
) -> Result<Vec<Vec<String>>, String> {
    const BATCH: usize = 400;
    const MAX_BATCHES: u64 = 60;
    let mut picked: Vec<Vec<String>> = quotas.iter().map(|_| Vec::new()).collect();
    let mut seen: HashSet<String> = HashSet::new();
    let full = |picked: &[Vec<String>]| picked.iter().zip(quotas).all(|(p, q)| p.len() >= q.1);
    for batch in 0..MAX_BATCHES {
        for (question, negated) in inputs.candidates(domain, batch, BATCH) {
            if full(&picked) {
                return Ok(picked);
            }
            // A negated question is only ever wanted as `Any`; do not pay for asking it.
            let wanted = !negated || quotas.iter().any(|&(class, _)| class == Class::Any);
            if !wanted || !seen.insert(cache_identity(&question)) {
                continue;
            }
            stats.asked += 1;
            let Ok(answer) = sut.ask(&question, false) else {
                stats.rejected += 1;
                continue;
            };
            let class = if answer.exact_count() >= PAGE {
                Class::Plenty
            } else {
                Class::Scarce(answer.conditions())
            };
            let slot = quotas
                .iter()
                .zip(&picked)
                .position(|(&(want, count), have)| {
                    have.len() < count
                        && (want == Class::Any || (want == class && !answer.has_negation()))
                });
            if let Some(slot) = slot {
                stats.misrouted += u64::from(answer.domain() != domain.name());
                picked[slot].push(question);
            }
        }
    }
    if full(&picked) {
        Ok(picked)
    } else {
        let have: Vec<usize> = picked.iter().map(Vec::len).collect();
        Err(format!(
            "{}: pool classes {quotas:?} filled only to {have:?} after {} candidates",
            domain.name(),
            stats.asked
        ))
    }
}

/// Deal the lists out in turn, one question from each until all are empty.
fn interleave(lists: Vec<Vec<String>>) -> Vec<String> {
    let longest = lists.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::new();
    for i in 0..longest {
        out.extend(lists.iter().filter_map(|l| l.get(i).cloned()));
    }
    out
}

/// `0..n` in bit-reversed (van der Corput) order: consecutive positions land far
/// apart, so every prefix covers the whole range evenly.
fn spread_order(n: usize) -> Vec<usize> {
    let width = n.next_power_of_two();
    let bits = width.trailing_zeros();
    (0..width)
        .map(|k| match bits {
            0 => 0,
            _ => k.reverse_bits() >> (usize::BITS - bits),
        })
        .filter(|&k| k < n)
        .collect()
}

/// Reorder questions so that every prefix holds the same mix of question lengths.
///
/// A hit costs what its question's tokens cost to classify and hash, and under
/// Zipf(1.0) the dozen most popular questions are 45 % of the asks. Handing out
/// popularity ranks in bit-reversed order of token count keeps the length mix of
/// every popularity band the same whatever the seed.
fn spread_by_length(mut questions: Vec<String>) -> Vec<String> {
    questions.sort_by_key(|q| cache_identity(q).split(' ').count());
    spread_order(questions.len())
        .into_iter()
        .map(|position| questions[position].clone())
        .collect()
}

/// Hit share of `ops` in steady state: every insert or ingest invalidates all of
/// cars, so the first ask of each question after one is a miss.
fn simulated_hit_share(ops: &[Op]) -> f64 {
    let hits = steady_hits(ops).iter().filter(|&&h| h).count();
    hits as f64
        / ops
            .iter()
            .filter(|op| matches!(op, Op::Ask { .. }))
            .count()
            .max(1) as f64
}

/// Per op: whether it is an ask that hits the cache in steady state.
pub fn steady_hits(ops: &[Op]) -> Vec<bool> {
    let mut valid: HashSet<u32> = HashSet::new();
    ops.iter()
        .map(|op| match *op {
            Op::Ask { question, .. } => !valid.insert(question),
            Op::Insert { .. } | Op::Ingest => {
                valid.clear();
                false
            }
        })
        .collect()
}

/// `ingest_mixed`'s op list: `cycles` × [insert, `asks` Zipf-distributed cached asks
/// over the cycle's own slice of `slice` questions], with the query-log delta in the
/// middle of the middle cycle. Question `cycle * slice + rank` is the cycle's
/// `rank`-th most popular.
fn ingest_ops(inputs: &Inputs, shape: &Shape, slice: usize) -> Vec<Op> {
    let mut rng = inputs.op_rng();
    let mut ops = Vec::new();
    for cycle in 0..shape.cycles {
        ops.push(Op::Insert { slot: cycle as u32 });
        for (i, rank) in zipf(&mut rng, slice, shape.asks).into_iter().enumerate() {
            if cycle == shape.cycles / 2 && i == shape.asks / 2 {
                ops.push(Op::Ingest);
            }
            ops.push(Op::Ask {
                question: (cycle * slice) as u32 + rank,
                cached: true,
            });
        }
    }
    ops
}

/// Choose the workload's question pool by asking seeded candidates against the built
/// system, and lay out its op list. `total_replays` sizes the per-replay deltas.
pub fn plan(
    sut: &Sut,
    inputs: &Inputs,
    shape: &Shape,
    total_replays: usize,
    clock: &Clock,
) -> Result<Plan, String> {
    let start = clock.now_ns();
    let mut stats = PoolStats::default();
    let cars = inputs.cars();
    let scarce = |each: usize| SCARCE_CONDITIONS.map(|n| (Class::Scarce(n), each));
    let ask_each = |questions: &[String], cached| {
        (0..questions.len() as u32)
            .map(|question| Op::Ask { question, cached })
            .collect::<Vec<Op>>()
    };
    let (questions, ops, deltas) = match shape.workload {
        Workload::AskPlenty => {
            let quotas = [(Class::Plenty, shape.distinct)];
            let questions = interleave(select(sut, inputs, cars, &quotas, &mut stats)?);
            let ops = ask_each(&questions, false);
            (questions, ops, Vec::new())
        }
        Workload::AskScarce => {
            let quotas = scarce(shape.distinct / SCARCE_CONDITIONS.len());
            let questions = interleave(select(sut, inputs, cars, &quotas, &mut stats)?);
            let ops = ask_each(&questions, false);
            (questions, ops, Vec::new())
        }
        Workload::ServeHot => {
            let quotas = [(Class::Any, shape.distinct / inputs.domains.len())];
            let mut by_domain = Vec::new();
            for domain in &inputs.domains {
                by_domain.extend(select(sut, inputs, domain, &quotas, &mut stats)?);
            }
            let questions = spread_by_length(interleave(by_domain));
            // Warm the cache once; every replayed ask is then a hit.
            for question in &questions {
                sut.ask(question, true)?;
            }
            let mut rng = inputs.op_rng();
            let ops = zipf(&mut rng, questions.len(), shape.asks)
                .into_iter()
                .map(|question| Op::Ask {
                    question,
                    cached: true,
                })
                .collect();
            (questions, ops, Vec::new())
        }
        Workload::IngestMixed => {
            // Slice size is the knob for the hit share: aim for 0.70, so that the
            // median ask is a hit and the 95th percentile a miss.
            let slice = (2..=shape.distinct)
                .min_by(|&a, &b| {
                    let off = |s| (simulated_hit_share(&ingest_ops(inputs, shape, s)) - 0.70).abs();
                    off(a).total_cmp(&off(b))
                })
                .unwrap_or(2);
            // Plenty questions only: a miss then costs tagging, interpretation and
            // exec, alike for every question, and the 95th percentile sits inside one
            // mode. With scarce questions mixed in it sat wherever the seed put the
            // few dozen partial-match misses of a replay (335–696 µs over ten seeds).
            let quotas = [(Class::Plenty, shape.cycles * slice)];
            let mut plenty =
                spread_by_length(interleave(select(sut, inputs, cars, &quotas, &mut stats)?))
                    .into_iter();
            // Fill rank by rank across the cycles, so that the popular ranks of the
            // twelve slices share one mix of question lengths.
            let mut questions = vec![String::new(); shape.cycles * slice];
            for rank in 0..slice {
                for cycle in 0..shape.cycles {
                    questions[cycle * slice + rank] = plenty
                        .next()
                        .ok_or("pool selection filled its quota short")?;
                }
            }
            let deltas = (0..total_replays).map(|i| inputs.delta(i)).collect();
            (questions, ingest_ops(inputs, shape, slice), deltas)
        }
    };
    stats.select_ns = clock.now_ns() - start;
    Ok(Plan {
        questions,
        ops,
        deltas,
        pool: stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn replays_scale_with_seconds_but_never_below_the_floor() {
        let at = |w, s| Shape::new(w, s, false).replays;
        assert_eq!(at(Workload::ServeHot, REFERENCE_SECONDS), 60);
        assert_eq!(at(Workload::ServeHot, 2 * REFERENCE_SECONDS), 120);
        assert_eq!(at(Workload::ServeHot, 1), MIN_REPLAYS);
        assert_eq!(at(Workload::AskScarce, REFERENCE_SECONDS), MIN_REPLAYS);
        assert_eq!(Shape::new(Workload::AskScarce, 60, true).replays, 2);
    }

    #[test]
    fn spread_is_a_permutation_that_covers_evenly() {
        for n in [1usize, 2, 5, 8, 512] {
            let mut seen = spread_order(n);
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>());
        }
        assert_eq!(spread_order(512)[..4], [0, 256, 128, 384]);
    }

    #[test]
    fn interleave_deals_round_robin() {
        let lists = vec![
            vec!["a1".to_string(), "a2".to_string()],
            vec!["b1".to_string()],
        ];
        assert_eq!(interleave(lists), vec!["a1", "b1", "a2"]);
    }

    #[test]
    fn every_invalidation_costs_one_miss_per_distinct_question() {
        let ask = |question| Op::Ask {
            question,
            cached: true,
        };
        let ops = [
            Op::Insert { slot: 0 },
            ask(0),
            ask(0),
            ask(1),
            Op::Ingest,
            ask(0),
            ask(0),
        ];
        assert_eq!(simulated_hit_share(&ops), 2.0 / 5.0);
    }
}
