//! The single trusted reference for partial matching: the seed's full-scan/full-sort
//! pipeline, kept verbatim but for one rule.
//!
//! [`full_scan_partial_answers`] materializes every relaxation's result, scores each
//! record through string-based similarity lookups, keeps an unbounded per-record best
//! map and sorts it globally — slow and obviously correct. No option reaches it and no
//! serving path calls it; the equivalence tests (`tests/topk_equivalence.rs`,
//! `tests/properties.rs`, the `partial` unit tests) hold the production engine
//! ([`crate::partial`]) to byte-identical output ([`PartialAnswer::bits_eq`]).
//!
//! **The relaxation rule.** In a question without a superlative, the relaxation of a
//! categorical condition `attr = v` offers only the records of its query `E₋ᵢ` (the
//! question without condition `i`) that do not hold `v`. A record of `E₋ᵢ` holding
//! `v` (the set `Sᵢ`, as
//! [`CompiledProbe::satisfied`](crate::ranking::CompiledProbe::satisfied) decides it)
//! satisfies every condition, so it is an exact answer, not a new one: `E₋ᵢ ∩ Sᵢ ⊆ E`,
//! the question's exact answers. That holds for one segment and for OR segments,
//! same-attribute OR groups, duplicated conditions, negations and `Between`, and
//! `tests/properties.rs` checks it on generated questions. The engine partially
//! matches only after the exact phase returned all of `E`, and excludes exactly `E`,
//! so the rule removes nothing a production caller sees. With an arbitrary `exclude`
//! it does: the rule is part of what this reference defines.
//!
//! The rule covers nothing else, because the lemma does not:
//! - Under a superlative, a relaxation that drops an OR branch (its only condition)
//!   takes its extreme over fewer records than the question does. "cheapest blue car
//!   or honda": the cheapest honda may be blue and still dearer than a blue toyota,
//!   so it holds `blue` without being an exact answer.
//! - A numeric probe's satisfaction is not the query's: an incomplete condition
//!   ("honda accord under 5000", no attribute) is satisfied by any numeric column in
//!   the probe but only by the columns whose range holds the value in the query — a
//!   2005 `year` is under 5000.
//! - A negated categorical relaxation keeps its exhaustive scan.
//! - A single-condition question's candidates are the whole table, not `E₋₀`.

use crate::domain::DomainSpec;
use crate::error::CqadsResult;
use crate::partial::{degree_of_match, PartialAnswer};
use crate::ranking::{CompiledProbe, ProbeScorer, SimilarityModel};
use crate::translate::{ConditionSketch, Interpretation};
use addb::{Executor, RecordId, Table};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

/// Retrieve and rank partially-matched answers by full scan and full sort: the
/// reference [`PartialMatcher::partial_answers`](crate::PartialMatcher::partial_answers)
/// must match bit for bit (same arguments, same `(rank_sim desc, id asc)` order, same
/// degree-of-match fallback on sparse data).
pub fn full_scan_partial_answers(
    spec: &DomainSpec,
    similarity: &SimilarityModel,
    interpretation: &Interpretation,
    table: &Table,
    exclude: &HashSet<RecordId>,
    budget: usize,
) -> CqadsResult<Vec<PartialAnswer>> {
    if budget == 0 || interpretation.is_empty() {
        return Ok(Vec::new());
    }
    let sketches = interpretation.all_sketches();
    let n = interpretation.condition_count();
    let executor = Executor::new(table);
    // best score seen per record
    let mut best: HashMap<RecordId, PartialAnswer> = HashMap::new();

    if sketches.len() <= 1 {
        if let Some(sketch) = sketches.first() {
            for (id, record) in table.iter() {
                if exclude.contains(&id) {
                    continue;
                }
                let (score, measure) = similarity.rank_sim(n, sketch, record);
                consider(
                    &mut best,
                    PartialAnswer {
                        id,
                        rank_sim: score,
                        measure,
                        relaxed_condition: 0,
                    },
                );
            }
        }
    } else {
        for (skip, relaxed) in sketches.iter().enumerate() {
            let query = match interpretation.to_query_excluding(spec, skip) {
                Ok(q) => q.with_limit(usize::MAX),
                Err(_) => continue,
            };
            let answers = match executor.execute(&query) {
                Ok(a) => a,
                Err(_) => continue,
            };
            // The relaxation rule (module docs): without a superlative, a categorical
            // relaxation skips the records holding its value.
            let rule = interpretation.superlatives.is_empty()
                && matches!(relaxed, ConditionSketch::Categorical { negated: false, .. });
            let own_value = rule.then(|| similarity.compile(relaxed, table));
            for answer in answers {
                let holds_value = own_value.as_ref().is_some_and(|p| p.satisfied(answer.id));
                if exclude.contains(&answer.id) || holds_value {
                    continue;
                }
                let Some(record) = table.get(answer.id) else {
                    continue;
                };
                let (score, measure) = similarity.rank_sim(n, relaxed, record);
                consider(
                    &mut best,
                    PartialAnswer {
                        id: answer.id,
                        rank_sim: score,
                        measure,
                        relaxed_condition: skip,
                    },
                );
            }
        }
        if best.len() < budget {
            // Same degree-of-match fallback as the top-k engine, so both engines
            // stay byte-identical on sparse data.
            let probes: Vec<CompiledProbe<'_>> = sketches
                .iter()
                .map(|s| similarity.compile(s, table))
                .collect();
            let mut scorers: Vec<ProbeScorer<'_, '_>> =
                probes.iter().map(ProbeScorer::new).collect();
            for id in (0..table.len() as u32).map(RecordId) {
                if exclude.contains(&id) || best.contains_key(&id) {
                    continue;
                }
                best.insert(id, degree_of_match(&mut scorers, n, id));
            }
        }
    }

    let mut out: Vec<PartialAnswer> = best.into_values().collect();
    out.sort_by(|a, b| {
        b.rank_sim
            .partial_cmp(&a.rank_sim)
            .unwrap_or(Ordering::Equal)
            .then_with(|| a.id.cmp(&b.id))
    });
    out.truncate(budget);
    Ok(out)
}

fn consider(best: &mut HashMap<RecordId, PartialAnswer>, candidate: PartialAnswer) {
    best.entry(candidate.id)
        .and_modify(|existing| {
            if candidate.rank_sim > existing.rank_sim {
                *existing = candidate.clone();
            }
        })
        .or_insert(candidate);
}
