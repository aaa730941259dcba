//! The closed-loop replay driver and the quiet-latency estimator.
//!
//! One client thread runs the workload's op list front to back, waiting for each
//! reply before the next op, and the whole list is replayed R times. Every op is
//! timed individually; the reported time of op *i* is its **quiet latency**: the
//! minimum of `latency[r][i]` over the replays `r` of the modal half — the half of
//! the replays whose total times lie closest together, that is, the replays that ran
//! in the host's prevailing speed state ([`crate::stats::quiet_latency`] has the
//! reasoning). The as-observed per-replay figures and the plain minimum are kept
//! beside it, so nobody mistakes quiet latency for what a noisy host delivers.

use crate::clock::Clock;
use crate::inputs::{probe_question, Inputs, CARS};
use crate::stats::{fold_min, median, quiet_latency, Fnv};
use crate::sut::{Answered, CacheCounts, Sut};
use crate::workload::{Op, Plan, Shape, PROBE_EVERY};
use addb::Record;
use cqads_querylog::QueryLogDelta;

/// Failures counted over operations attempted.
#[derive(Debug, Default)]
pub struct Tally {
    /// Timed operations and correctness checks attempted.
    pub attempted: u64,
    /// Those that errored or gave a wrong result.
    pub failed: u64,
    /// The first few failure descriptions.
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one attempted operation or check.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Count one failure.
    pub fn fail(&mut self, note: impl FnOnce() -> String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note());
        }
    }

    /// Count one check and its failure when `ok` is false.
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempt();
        if !ok {
            self.fail(note);
        }
    }
}

/// What an op operated on and what came back.
pub enum Outcome<'a> {
    /// An ask and its answer.
    Asked {
        /// The question text.
        question: &'a str,
        /// Whether it went through the cache.
        cached: bool,
        /// The answer (`None` when the ask failed).
        answer: Option<&'a Answered>,
    },
    /// An insert into cars.
    Inserted {
        /// The record inserted.
        record: &'a Record,
    },
    /// A query-log delta ingested into cars.
    Ingested {
        /// The delta.
        delta: &'a QueryLogDelta,
    },
}

/// One executed op, as handed to an [`Observer`] after its timed span closed.
pub struct OpEvent<'a> {
    /// Replay number.
    pub replay: usize,
    /// Position in the op list.
    pub index: usize,
    /// Clock reading before the op.
    pub start_ns: u64,
    /// Clock reading after the op.
    pub end_ns: u64,
    /// What happened.
    pub outcome: Outcome<'a>,
}

/// Runs between timed ops. The end-to-end binary replays with [`Untraced`]; the
/// traced binary's stage probes and the cached-equals-uncached check are observers.
pub trait Observer {
    /// Called after every op, outside its timed span.
    fn after_op(&mut self, sut: &Sut, event: &OpEvent<'_>, tally: &mut Tally);

    /// Called after every replay.
    fn after_replay(&mut self, _replay: usize) {}
}

/// The observer that does nothing.
pub struct Untraced;

impl Observer for Untraced {
    #[inline]
    fn after_op(&mut self, _sut: &Sut, _event: &OpEvent<'_>, _tally: &mut Tally) {}
}

/// After every cached ask, ask the same question uncached: the answers must agree.
pub struct CachedEqualsUncached;

impl Observer for CachedEqualsUncached {
    fn after_op(&mut self, sut: &Sut, event: &OpEvent<'_>, tally: &mut Tally) {
        if let Outcome::Asked {
            question,
            cached: true,
            answer: Some(answer),
        } = event.outcome
        {
            let fresh = sut.ask(question, false).map(|a| a.digest());
            tally.check(fresh == Ok(answer.digest()), || {
                format!("cached answer differs from uncached: {question}")
            });
        }
    }
}

/// What a run of replays measured.
pub struct Replayed {
    /// Quiet latency per op of the list.
    pub quiet: Vec<u64>,
    /// Observed latency per replay and op.
    pub observed: Vec<Vec<u64>>,
    /// Per replay: hash over every op's answer digest.
    pub checksums: Vec<u64>,
    /// Per op: the answer digest in the first replay (0 for writes).
    pub first_digests: Vec<u64>,
    /// Answer-cache counter growth over these replays.
    pub cache: CacheCounts,
}

impl Replayed {
    /// One hash over every replay's answers.
    pub fn answers_checksum(&self) -> u64 {
        let mut hash = Fnv::default();
        self.checksums.iter().for_each(|&c| hash.word(c));
        hash.finish()
    }

    /// Per replay: the sum of its observed op latencies.
    pub fn observed_sums(&self) -> Vec<u64> {
        self.observed.iter().map(|r| r.iter().sum()).collect()
    }

    /// Σ over ops of the plain minimum over all replays: the fastest state the host
    /// showed, whether or not it prevailed.
    pub fn fastest_sum(&self) -> u64 {
        let mut fastest = vec![u64::MAX; self.quiet.len()];
        self.observed.iter().for_each(|r| fold_min(&mut fastest, r));
        fastest.iter().sum()
    }

    /// Per replay: the median observed ask latency.
    pub fn observed_ask_p50(&self, plan: &Plan) -> Vec<u64> {
        self.observed
            .iter()
            .map(|replay| {
                let asks: Vec<u64> = plan
                    .ops
                    .iter()
                    .zip(replay)
                    .filter(|(op, _)| is_ask(op))
                    .map(|(_, &ns)| ns)
                    .collect();
                median(&asks)
            })
            .collect()
    }

    /// Sum of quiet latencies over the ops `keep` selects.
    pub fn quiet_sum(&self, plan: &Plan, keep: impl Fn(&Op) -> bool) -> u64 {
        self.quiet_of(plan, keep).iter().sum()
    }

    /// Quiet latencies of the ops `keep` selects.
    pub fn quiet_of(&self, plan: &Plan, keep: impl Fn(&Op) -> bool) -> Vec<u64> {
        plan.ops
            .iter()
            .zip(&self.quiet)
            .filter(|(op, _)| keep(op))
            .map(|(_, &ns)| ns)
            .collect()
    }
}

/// Is this op an ask?
pub fn is_ask(op: &Op) -> bool {
    matches!(op, Op::Ask { .. })
}

/// Is this op an insert?
pub fn is_insert(op: &Op) -> bool {
    matches!(op, Op::Insert { .. })
}

/// Exact answers the probe question of `record` has right now.
fn probe_count(sut: &Sut, inputs: &Inputs, record: &Record) -> Result<usize, String> {
    sut.ask_in(CARS, &probe_question(inputs, record))
        .map(|a| a.exact_count())
}

/// Replay the plan's op list for every replay number in `replays`.
///
/// Replay `r` inserts fresh records `r * inserts_per_replay ..` and ingests delta
/// `r`, so numbering continues across calls on one system. Every `PROBE_EVERY`-th
/// insert is bracketed by a visibility probe: the question spelled from the record
/// must gain exactly one exact answer. On a read-only plan every replay must give
/// the answers the first one gave.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    sut: &mut Sut,
    inputs: &Inputs,
    shape: &Shape,
    plan: &Plan,
    replays: std::ops::Range<usize>,
    clock: &Clock,
    observer: &mut impl Observer,
    tally: &mut Tally,
) -> Replayed {
    let per_replay = shape.inserts_per_replay();
    let mut out = Replayed {
        quiet: Vec::new(),
        observed: Vec::with_capacity(replays.len()),
        checksums: Vec::with_capacity(replays.len()),
        first_digests: Vec::new(),
        cache: CacheCounts::default(),
    };
    let cache_before = sut.cache_counts();
    let first = replays.start;
    for r in replays {
        let mut observed = Vec::with_capacity(plan.ops.len());
        let mut digests = Vec::with_capacity(plan.ops.len());
        for (index, op) in plan.ops.iter().enumerate() {
            tally.attempt();
            // Outlives the match: the observer sees the ask's reply by reference.
            let answer;
            let (start_ns, end_ns, digest, outcome) = match *op {
                Op::Ask { question, cached } => {
                    let text = plan.questions[question as usize].as_str();
                    let start_ns = clock.now_ns();
                    answer = sut.ask(text, cached);
                    let end_ns = clock.now_ns();
                    if let Err(e) = &answer {
                        tally.fail(|| format!("ask failed: {text}: {e}"));
                    }
                    let outcome = Outcome::Asked {
                        question: text,
                        cached,
                        answer: answer.as_ref().ok(),
                    };
                    let digest = answer.as_ref().map_or(0, Answered::digest);
                    (start_ns, end_ns, digest, outcome)
                }
                Op::Insert { slot } => {
                    let number = r * per_replay + slot as usize;
                    let record = &inputs.fresh[number];
                    let before = number
                        .is_multiple_of(PROBE_EVERY)
                        .then(|| probe_count(sut, inputs, record));
                    let owned = record.clone();
                    let start_ns = clock.now_ns();
                    let inserted = sut.insert(CARS, owned);
                    let end_ns = clock.now_ns();
                    if let Err(e) = &inserted {
                        tally.fail(|| format!("insert failed: {e}"));
                    }
                    if let Some(before) = before {
                        let after = probe_count(sut, inputs, record);
                        tally.check(
                            matches!((&before, &after), (Ok(b), Ok(a)) if *a == b + 1),
                            || {
                                format!(
                                    "insert {number} not visible: probe {before:?} -> {after:?}"
                                )
                            },
                        );
                    }
                    let digest = inserted.map_or(0, |id| u64::from(id) + 1);
                    (start_ns, end_ns, digest, Outcome::Inserted { record })
                }
                Op::Ingest => {
                    let delta = &plan.deltas[r];
                    let start_ns = clock.now_ns();
                    let ingested = sut.ingest(CARS, delta);
                    let end_ns = clock.now_ns();
                    if let Err(e) = &ingested {
                        tally.fail(|| format!("ingest failed: {e}"));
                    }
                    (start_ns, end_ns, 0, Outcome::Ingested { delta })
                }
            };
            let event = OpEvent {
                replay: r,
                index,
                start_ns,
                end_ns,
                outcome,
            };
            observer.after_op(sut, &event, tally);
            observed.push(end_ns - start_ns);
            digests.push(digest);
        }
        let mut checksum = Fnv::default();
        digests.iter().for_each(|&d| checksum.word(d));
        let checksum = checksum.finish();
        if plan.is_read_only() {
            tally.check(out.checksums.first().is_none_or(|&c| c == checksum), || {
                format!("replay {r} answers differ from replay {first}")
            });
        }
        if r == first {
            out.first_digests = digests;
        }
        out.checksums.push(checksum);
        out.observed.push(observed);
        observer.after_replay(r);
    }
    out.quiet = quiet_latency(&out.observed);
    out.cache = sut.cache_counts().since(cache_before);
    out
}

/// What the write coda of a memory-only workload measured.
#[derive(Default)]
pub struct Coda {
    /// Quiet latency of each insert op of the coda.
    pub insert_quiet: Vec<u64>,
    /// Quiet latency of the first ask after each insert.
    pub first_ask_quiet: Vec<u64>,
}

/// The write coda: after the asks, replay a short list of inserts into the
/// workload's own system, so that every workload reports an insert latency at its
/// table size. Every insert is bracketed by its visibility probe, and the probe after
/// it is timed as the first ask after an insert.
pub fn write_coda(
    sut: &mut Sut,
    inputs: &Inputs,
    shape: &Shape,
    first_record: usize,
    clock: &Clock,
    tally: &mut Tally,
) -> Coda {
    let (inserts, replays) = shape.coda;
    let mut observed = Vec::with_capacity(replays);
    for r in 0..replays {
        // One row per replay: the inserts, then the asks that follow them.
        let mut row = vec![0u64; 2 * inserts];
        for slot in 0..inserts {
            let number = first_record + r * inserts + slot;
            let record = &inputs.fresh[number];
            let before = probe_count(sut, inputs, record);
            tally.attempt();
            let owned = record.clone();
            let (inserted, ns) = clock.time(|| sut.insert(CARS, owned));
            if let Err(e) = &inserted {
                tally.fail(|| format!("coda insert failed: {e}"));
            }
            row[slot] = ns;
            let (after, ns) = clock.time(|| probe_count(sut, inputs, record));
            row[inserts + slot] = ns;
            tally.check(
                matches!((&before, &after), (Ok(b), Ok(a)) if *a == b + 1),
                || format!("coda insert {number} not visible: probe {before:?} -> {after:?}"),
            );
        }
        observed.push(row);
    }
    let mut quiet = quiet_latency(&observed);
    let first_ask_quiet = quiet.split_off(inserts.min(quiet.len()));
    Coda {
        insert_quiet: quiet,
        first_ask_quiet,
    }
}

/// For every distinct question of a read-only plan: the cached answer, both when it
/// fills the cache and when it hits it, must equal the uncached one. `uncached` holds
/// the uncached digests per question when the replays already produced them.
pub fn check_cached_answers(sut: &Sut, plan: &Plan, uncached: Option<&[u64]>, tally: &mut Tally) {
    for (i, question) in plan.questions.iter().enumerate() {
        let expected = match uncached {
            Some(known) => Ok(known[i]),
            None => sut.ask(question, false).map(|a| a.digest()),
        };
        let fill = sut.ask(question, true).map(|a| a.digest());
        let hit = sut.ask(question, true).map(|a| a.digest());
        tally.check(expected.is_ok() && expected == fill && fill == hit, || {
            format!("cached answer differs from uncached: {question}")
        });
    }
}
