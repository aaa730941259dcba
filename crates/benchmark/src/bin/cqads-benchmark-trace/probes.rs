//! The observers and side probes of the traced run.

use crate::mirror::Mirror;
use crate::spans::{Span, Spans, Stage};
use cqads::ShardedCqads;
use cqads_benchmark::clock::Clock;
use cqads_benchmark::inputs::CARS;
use cqads_benchmark::replay::{Observer, OpEvent, Outcome, Tally};
use cqads_benchmark::stats::{fold_min, percentile, ratio, us};
use cqads_benchmark::sut::{digest_of, CacheCounts, Sut};

/// Time per stage, replay and op; `u64::MAX` where the stage did not run.
pub struct StageTimes {
    first_replay: usize,
    ops: usize,
    by_stage: Vec<Vec<Vec<u64>>>,
}

impl StageTimes {
    /// Room for `replays` replays of `ops` ops, numbered from `first_replay`.
    pub fn new(first_replay: usize, replays: usize, ops: usize) -> Self {
        StageTimes {
            first_replay,
            ops,
            by_stage: Stage::ALL
                .iter()
                .map(|_| vec![vec![u64::MAX; ops]; replays])
                .collect(),
        }
    }

    fn slot(stage: Stage) -> usize {
        Stage::ALL.iter().position(|&s| s == stage).unwrap_or(0)
    }

    fn set(&mut self, stage: Stage, replay: usize, op: usize, ns: u64) {
        self.by_stage[Self::slot(stage)][replay - self.first_replay][op] = ns;
    }

    /// Per op: the stage's minimum over the `modal` replays (indices from 0).
    pub fn quiet(&self, stage: Stage, modal: &[usize]) -> Vec<u64> {
        let mut quiet = vec![u64::MAX; self.ops];
        for &r in modal {
            fold_min(&mut quiet, &self.by_stage[Self::slot(stage)][r]);
        }
        quiet
    }
}

/// A stage's quiet times over the ops it ran for.
pub struct Layer(Vec<u64>);

impl Layer {
    /// Keep the ops where the stage ran.
    pub fn of(quiet: Vec<u64>) -> Self {
        Layer(quiet.into_iter().filter(|&ns| ns != u64::MAX).collect())
    }

    /// Σ of per-op minima.
    pub fn sum_ns(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Mean time per call in microseconds; 0 when the stage never ran.
    pub fn mean_us(&self) -> f64 {
        ratio(us(self.sum_ns()), self.0.len() as f64)
    }

    /// 95th percentile of the per-op minima in microseconds.
    pub fn p95_us(&self) -> f64 {
        us(percentile(&self.0, 0.95))
    }
}

/// Counts taken from the end-to-end answers while tracing.
#[derive(Default)]
pub struct AskStats {
    /// Asks observed.
    pub asks: u64,
    /// Asks whose tagging repaired a token.
    pub repaired: u64,
    /// Σ exact answers.
    pub exact: u64,
    /// Σ partial answers.
    pub partial: u64,
    /// Asks that ran partial matching in the staged pipeline.
    pub partial_ops: u64,
    /// Σ conditions over those.
    pub conditions: u64,
}

/// The stage probes: after every end-to-end op, record its span and re-execute it
/// stage by stage against the mirror, one child span per call into a layer.
pub struct Tracer<'a> {
    /// The harness clock.
    pub clock: &'a Clock,
    /// The probes' copy of the layers.
    pub mirror: &'a mut Mirror,
    /// Every span recorded.
    pub spans: Spans,
    /// Stage time per replay and op.
    pub times: StageTimes,
    /// Counts over the end-to-end answers.
    pub stats: AskStats,
    /// Cache counters after the previous op, to tell a hit from a miss.
    pub counts: CacheCounts,
}

impl Observer for Tracer<'_> {
    fn after_op(&mut self, sut: &Sut, event: &OpEvent<'_>, tally: &mut Tally) {
        let Tracer {
            clock,
            mirror,
            spans,
            times,
            stats,
            counts,
        } = self;
        let (replay, op) = (event.replay, event.index);
        let root = match event.outcome {
            Outcome::Asked { .. } => Stage::OpAsk,
            Outcome::Inserted { .. } => Stage::OpInsert,
            Outcome::Ingested { .. } => Stage::OpIngest,
        };
        let mut span = |stage, parent, start_ns, end_ns| {
            times.set(stage, replay, op, end_ns - start_ns);
            spans.record(Span {
                stage,
                replay: replay as u32,
                op: op as u32,
                parent,
                start_ns,
                end_ns,
            })
        };
        let parent = Some(span(root, None, event.start_ns, event.end_ns));
        let mut rec = |stage, start_ns, end_ns| {
            span(stage, parent, start_ns, end_ns);
        };

        let staged: Result<(), String> = match event.outcome {
            Outcome::Asked {
                question,
                cached,
                answer: Some(answer),
            } => (|| {
                let now = sut.cache_counts();
                let hit = now.hits > counts.hits;
                *counts = now;

                let start = clock.now_ns();
                let domain = sut.classify(question)?;
                rec(Stage::Classify, start, clock.now_ns());
                if domain != answer.domain() {
                    return Err(format!("classified {domain}, answered {}", answer.domain()));
                }

                stats.asks += 1;
                stats.repaired += u64::from(!answer.set().tagged.corrections.is_empty());
                stats.exact += answer.exact_count() as u64;
                stats.partial += (answer.set().answers.len() - answer.exact_count()) as u64;

                let stamp = sut.stamp(&domain);
                let pending = if cached {
                    let system_hit = hit.then(|| answer.set());
                    let (key, found) =
                        mirror.lookup(&domain, question, stamp, system_hit, clock, &mut rec);
                    match found {
                        Some(set) => return check_digest(digest_of(&set), answer.digest()),
                        None => Some(key),
                    }
                } else {
                    None
                };
                let result = mirror.compute(&domain, question, clock, &mut rec)?;
                if result.ran_partial {
                    stats.partial_ops += 1;
                    stats.conditions += result.conditions as u64;
                }
                if let Some(key) = pending {
                    mirror.fill(key, stamp, answer.set().clone(), clock, &mut rec);
                }
                check_digest(result.digest, answer.digest())
            })(),
            Outcome::Asked { answer: None, .. } => Ok(()),
            Outcome::Inserted { record } => mirror.insert(CARS, record.clone(), clock, &mut rec),
            Outcome::Ingested { delta } => mirror.ingest(CARS, delta, clock, &mut rec),
        };
        tally.attempt();
        if let Err(e) = staged {
            tally.fail(|| format!("replay {replay} op {op}: staged probe: {e}"));
        }
    }
}

fn check_digest(staged: u64, end_to_end: u64) -> Result<(), String> {
    if staged == end_to_end {
        Ok(())
    } else {
        Err("staged answer differs from the end-to-end answer".to_string())
    }
}

/// The observer of the untraced replays. It keeps the mirror in step with the
/// system's writes (untimed, no spans), and between replays runs a fixed
/// register-only kernel whose spread says how far the host's clock speed wandered
/// during the run (it does not see cache or sibling-thread contention — the replays'
/// own spread does).
pub struct Follower<'a> {
    /// The harness clock.
    pub clock: &'a Clock,
    /// The probes' copy of the layers.
    pub mirror: &'a mut Mirror,
    /// One kernel reading per replay.
    pub readings: Vec<u64>,
}

impl Observer for Follower<'_> {
    fn after_op(&mut self, _sut: &Sut, event: &OpEvent<'_>, tally: &mut Tally) {
        let followed = match event.outcome {
            Outcome::Asked { .. } => Ok(()),
            Outcome::Inserted { record } => {
                self.mirror
                    .insert(CARS, record.clone(), self.clock, &mut |_, _, _| {})
            }
            Outcome::Ingested { delta } => {
                self.mirror
                    .ingest(CARS, delta, self.clock, &mut |_, _, _| {})
            }
        };
        if let Err(e) = followed {
            tally.fail(|| format!("mirror could not follow a write: {e}"));
        }
    }

    fn after_replay(&mut self, _replay: usize) {
        let (x, ns) = self.clock.time(|| {
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..400_000u64 {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
            }
            x
        });
        std::hint::black_box(x);
        self.readings.push(ns);
    }
}

impl Follower<'_> {
    /// Slowest kernel reading over fastest.
    pub fn spread(&self) -> f64 {
        let max = self.readings.iter().max().copied().unwrap_or(0);
        let min = self.readings.iter().min().copied().unwrap_or(0);
        ratio(max as f64, min as f64)
    }
}

/// Passes over a side probe's questions; each question keeps its fastest pass.
pub const PASSES: usize = 3;

/// Per question: the fastest of [`PASSES`] timings of `ask`, which returns the answer
/// digest to hold against `expected`.
pub fn quiet_each(
    questions: &[String],
    expected: &[u64],
    clock: &Clock,
    tally: &mut Tally,
    what: &str,
    mut ask: impl FnMut(&str) -> Result<u64, String>,
) -> Vec<u64> {
    let mut best = vec![u64::MAX; questions.len()];
    for _ in 0..PASSES {
        for (i, question) in questions.iter().enumerate() {
            let (found, ns) = clock.time(|| ask(question));
            best[i] = best[i].min(ns);
            tally.check(found == Ok(expected[i]), || {
                format!("{what} answers differently: {question}: {found:?}")
            });
        }
    }
    best
}

/// Ask the sharded front-end the questions in order, once each, until `budget_ns` is
/// spent (but at least two): a superlative costs it seconds at 50 000 records, so the
/// whole pool is out of reach. Returns the time per question asked.
pub fn sharded_each(
    sharded: &ShardedCqads,
    questions: &[String],
    expected: &[u64],
    budget_ns: u64,
    clock: &Clock,
    tally: &mut Tally,
) -> Vec<u64> {
    let start = clock.now_ns();
    let mut times = Vec::new();
    for (question, &expected) in questions.iter().zip(expected) {
        if times.len() >= 2 && clock.now_ns() - start > budget_ns {
            break;
        }
        let (found, ns) = clock.time(|| sharded.answer(question).map(|set| digest_of(&set)));
        tally.check(found.as_ref().ok() == Some(&expected), || {
            format!("sharded system answers differently: {question}")
        });
        times.push(ns);
    }
    times
}
