//! The one answering core, `answer_in_table`: the whole answering procedure (§4.3)
//! for `k` questions of one domain over its one table — compile, execute the exact
//! answers, top them up with the N−1 relaxations ranked by `Rank_Sim` in one
//! batched [`PartialMatcher`] call, truncate, time. It has one caller, the
//! read path's compute step in [`crate::handle`], which serves `ask` and
//! `answer_batch` alike. [`ShardedCqads`] and [`CqadsConfig::shards`]
//! survive only because the benchmark crate still names them; the part count is
//! ignored.

use crate::clock::Clock;
use crate::error::CqadsResult;
use crate::handle::{CqadsWriter, DomainRuntime};
use crate::partial::{PartialBatchRequest, PartialMatcher, PartialOutcome};
use crate::pipeline::{Answer, AnswerSet, CqadsConfig, MatchKind};
use crate::ranking::SimilarityMeasure;
use crate::resilience::{AnswerQuality, QueryBudget};
use crate::translate::interpret;
use addb::{Executor, RecordId, Table};
use std::collections::HashSet;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::Duration;

/// A [`CqadsWriter`] behind [`CqadsConfig::validate`]; its part count
/// ([`CqadsConfig::shards`]) is ignored, and everything else is the writer's own
/// surface, reached through `Deref`.
///
/// ```
/// use cqads::{domain::toy_car_domain, CqadsConfig, ShardedCqads};
///
/// let spec = toy_car_domain();
/// let table = addb::Table::new(spec.schema.clone());
/// let config = CqadsConfig { shards: Some(3), ..CqadsConfig::default() };
/// let mut system = ShardedCqads::with_config(config).unwrap();
/// system.add_domain(spec, table, Default::default());
/// assert_eq!(system.answer("red manual cars").unwrap().answers.len(), 0);
/// ```
#[derive(Debug)]
pub struct ShardedCqads(CqadsWriter);

impl ShardedCqads {
    /// [`CqadsWriter::try_with_config`] behind [`CqadsConfig::validate`].
    pub fn with_config(config: CqadsConfig) -> CqadsResult<Self> {
        config.validate()?;
        CqadsWriter::try_with_config(config).map(ShardedCqads)
    }

    /// Classify, then answer: `self.ask(question).get()`.
    pub fn answer(&self, question: &str) -> CqadsResult<Arc<AnswerSet>> {
        self.0.ask(question).get()
    }
}

impl Deref for ShardedCqads {
    type Target = CqadsWriter;

    fn deref(&self) -> &CqadsWriter {
        &self.0
    }
}

impl DerefMut for ShardedCqads {
    fn deref_mut(&mut self) -> &mut CqadsWriter {
        &mut self.0
    }
}

/// One question between the exact and the partial phase.
struct InFlight {
    /// The answer so far: exact answers only, not yet timed.
    set: AnswerSet,
    /// Clock reading when the answer began.
    start_micros: u64,
    /// Ids of the exact answers — what the partial phase excludes.
    exact_ids: HashSet<RecordId>,
    /// `0` when the exact answers already satisfy the partial threshold.
    partial_budget: usize,
}

/// The answering pipeline (§4.3) for `k` questions of one domain over its
/// `table`: compile against the domain's `runtime` (failures reported in
/// place) → exact answers → partial budget → one batched partial phase, armed
/// with `budget` → absorb, truncate, time. The outer error is a
/// partial-engine failure, which fails the call.
pub(crate) fn answer_in_table(
    config: &CqadsConfig,
    clock: &dyn Clock,
    runtime: &DomainRuntime,
    questions: &[&str],
    table: &Table,
    budget: Option<&QueryBudget>,
) -> CqadsResult<Vec<CqadsResult<AnswerSet>>> {
    let domain = runtime.spec.name();
    let mut flights: Vec<CqadsResult<InFlight>> = questions
        .iter()
        .map(|question| {
            let start_micros = clock.now_micros();
            let tagged = runtime.tagger.tag(question);
            let interpretation = interpret(&tagged, &runtime.spec)?;
            let query = interpretation.to_query_with_limit(&runtime.spec, config.answer_limit)?;
            let sql = addb::sql::render(&query);
            let found = Executor::new(table).execute(&query)?;
            let n_conds = interpretation.condition_count();
            let answers: Vec<Answer> = found
                .iter()
                .filter_map(|found| {
                    table.get_shared(found.id).map(|record| Answer {
                        id: found.id,
                        record,
                        kind: MatchKind::Exact,
                        rank_sim: n_conds as f64,
                        measure: SimilarityMeasure::None,
                    })
                })
                .collect();
            // Top up with partially-matched answers when exact answers are scarce.
            let partial_budget = config.partial_budget(answers.len());
            Ok(InFlight {
                set: AnswerSet {
                    domain: domain.to_string(),
                    tagged,
                    interpretation,
                    sql,
                    exact_count: answers.len(),
                    answers,
                    quality: AnswerQuality::Complete,
                    elapsed: Duration::ZERO,
                },
                start_micros,
                exact_ids: found.iter().map(|found| found.id).collect(),
                partial_budget,
            })
        })
        .collect();

    let needy: Vec<&mut InFlight> = flights
        .iter_mut()
        .filter_map(|flight| flight.as_mut().ok())
        .filter(|flight| flight.partial_budget > 0)
        .collect();
    let partials: Vec<PartialOutcome> = if needy.is_empty() {
        Vec::new()
    } else {
        // One batched engine call serves every question of the call.
        let requests: Vec<PartialBatchRequest<'_>> = needy
            .iter()
            .map(|flight| PartialBatchRequest {
                interpretation: &flight.set.interpretation,
                exclude: &flight.exact_ids,
                budget: flight.partial_budget,
            })
            .collect();
        PartialMatcher::new(&runtime.spec, &runtime.similarity)
            .partial_answers_batch_budgeted(&requests, table, budget)?
    };
    for (flight, outcome) in needy.into_iter().zip(partials) {
        if outcome.degraded {
            flight.set.quality = AnswerQuality::Degraded {
                visited: outcome.visited,
                budget_exhausted: true,
            };
        }
        let absorbed = outcome.answers.into_iter().filter_map(|p| {
            table.get_shared(p.id).map(|record| Answer {
                id: p.id,
                record,
                kind: MatchKind::Partial,
                rank_sim: p.rank_sim,
                measure: p.measure,
            })
        });
        flight.set.answers.extend(absorbed);
        flight.set.answers.truncate(config.answer_limit);
    }

    let timed = flights.into_iter().map(|flight| {
        let mut flight = flight?;
        let micros = clock.now_micros().saturating_sub(flight.start_micros);
        flight.set.elapsed = Duration::from_micros(micros);
        Ok(flight.set)
    });
    Ok(timed.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{toy_car_domain, DomainSpec};
    use crate::error::CqadsError;
    use addb::{DbError, Record};
    use cqads_querylog::TIMatrix;

    /// make, model, color, transmission; price, year.
    const ROWS: [([&str; 4], f64, f64); 6] = [
        (["honda", "accord", "blue", "automatic"], 6600.0, 2004.0),
        (["honda", "accord", "gold", "manual"], 16_536.0, 2009.0),
        (["honda", "civic", "red", "automatic"], 4500.0, 2001.0),
        (["toyota", "camry", "blue", "automatic"], 8561.0, 2006.0),
        (["toyota", "corolla", "silver", "manual"], 3900.0, 1999.0),
        (["ford", "focus", "blue", "manual"], 6795.0, 2005.0),
    ];

    const QUESTIONS: [&str; 6] = [
        "Do you have automatic blue cars?",
        "red manual cars",
        "honda accord under 10000 dollars",
        "cheapest blue car",
        "newest honda",
        "toyota camry automatic blue",
    ];

    fn car(([make, model, color, transmission], price, year): ([&str; 4], f64, f64)) -> Record {
        let text = Record::builder()
            .text("make", make)
            .text("model", model)
            .text("color", color)
            .text("transmission", transmission);
        let numbers = text.number("price", price).number("year", year);
        numbers.number("mileage", 50_000.0).build()
    }

    /// Register `spec` over the six seed cars.
    fn fill(writer: &mut CqadsWriter, spec: DomainSpec) {
        let table = Table::from_records(spec.schema.clone(), ROWS.map(car), 0).unwrap();
        writer.add_domain(spec, table, TIMatrix::default());
    }

    /// The contract the benchmark crate relies on: a writer built with
    /// `shards` set answers like the default writer, inserts like it, and its
    /// `database()` holds every record; [`ShardedCqads::answer`] is the default
    /// writer's `ask(q).get()`.
    #[test]
    fn sharded_answers_match_unsharded_byte_for_byte() {
        let key = |set: &AnswerSet| {
            let answers = set.answers.iter();
            let ids: Vec<_> = answers
                .map(|a| (a.id, a.kind, a.rank_sim.to_bits()))
                .collect();
            (set.sql.clone(), set.exact_count, set.quality, ids)
        };
        let mut reference = CqadsWriter::new();
        fill(&mut reference, toy_car_domain());
        let shards = |n| CqadsConfig {
            shards: Some(n),
            ..CqadsConfig::default()
        };
        let mut three = CqadsWriter::with_config(shards(3));
        fill(&mut three, toy_car_domain());
        let mut sharded = ShardedCqads::with_config(shards(2)).unwrap();
        fill(&mut sharded, toy_car_domain());
        assert_eq!(three.database().total_records(), ROWS.len());
        for q in QUESTIONS {
            let want = key(&reference.ask(q).get().unwrap());
            assert_eq!(key(&three.ask(q).get().unwrap()), want, "{q:?}");
            assert_eq!(key(&sharded.answer(q).unwrap()), want, "{q:?}");
        }
        let extra = car((["ford", "focus", "red", "manual"], 7000.0, 2007.0));
        let id = reference.insert_record("cars", extra.clone()).unwrap();
        assert_eq!(three.insert_record("cars", extra), Ok(id));
        assert_eq!(three.database().total_records(), ROWS.len() + 1);
        let generation = |w: &CqadsWriter| w.database().generation("cars");
        assert_eq!(generation(&three), generation(&reference));
    }

    /// Every erroring question fails with its concrete error. The toy domain
    /// itself cannot make the executor fail, so the last two cases misdeclare
    /// it: a superlative over the categorical `color` compiles and is rejected
    /// by `Executor::validate`, a numeric comparison over it is rejected by the
    /// translator.
    #[test]
    fn unknown_domain_and_empty_question_errors_match() {
        let mut hue = toy_car_domain();
        hue.set_price_attribute("color");
        hue.add_type3_keyword("color", "hue");
        let contradiction = "honda above 9000 dollars and below 2000 dollars";
        let range = CqadsError::ContradictoryRange {
            attribute: "price".into(),
        };
        let invalid = |why: &str| CqadsError::Database(DbError::InvalidQuery(why.into()));
        let superlative = invalid("superlative over non-numeric attribute `color`");
        let numeric = invalid("numeric constraint on categorical attribute `color`");
        let unknown = CqadsError::UnknownDomain("boats".into());
        let toy = toy_car_domain;
        let cases = [
            (toy(), "blue cars", "boats", unknown),
            (toy(), "the of and", "cars", CqadsError::EmptyQuestion),
            (toy(), contradiction, "cars", range),
            (hue.clone(), "cheapest blue car", "cars", superlative),
            (hue, "honda hue under 5", "cars", numeric),
        ];
        for (spec, question, domain, want) in cases {
            let mut system = CqadsWriter::new();
            fill(&mut system, spec);
            let err = system.ask(question).domain(domain).get().unwrap_err();
            assert_eq!(err, want, "{question:?} in {domain:?}");
        }
    }
}
