//! Everything the system under test is fed, generated from the workload seed.
//!
//! The seed drives `cqads_datagen` (records, questions), the query logs, the
//! word-similarity corpus and — in [`crate::workload`] — the op order. Generation is
//! data preparation, not system work: none of it is timed as set-up.

use addb::{Record, Table, Value};
use cqads::ConditionSketch;
use cqads_classifier::LabelledDoc;
use cqads_datagen::ads::generate_record;
use cqads_datagen::{
    affinity_model, all_blueprints, generate_questions, topic_groups, DomainBlueprint, QuestionMix,
};
use cqads_querylog::{generate_log, LogGeneratorConfig, QueryLog, QueryLogDelta};
use cqads_wordsim::{CorpusSpec, SyntheticCorpus};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The domain every workload's writes go to, and the large table of every system.
pub const CARS: &str = "cars";

/// Records inserted per timed set-up op, and the size of the per-domain sample table
/// questions are anchored on.
pub const CHUNK: usize = 2_000;

/// Sizes of the generated inputs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Records in the cars table.
    pub cars: usize,
    /// Records in each of the other seven tables.
    pub others: usize,
    /// Query-log sessions per domain.
    pub sessions: usize,
    /// Documents in the word-similarity corpus.
    pub corpus_documents: usize,
    /// Classifier training questions per domain.
    pub training_per_domain: usize,
    /// Sessions in each live query-log delta.
    pub delta_sessions: usize,
}

impl Scale {
    /// The full-size inputs around a cars table of `cars` records.
    pub fn full(cars: usize) -> Self {
        Scale {
            cars,
            others: 2_000,
            sessions: 500,
            corpus_documents: 400,
            training_per_domain: 120,
            delta_sessions: 20,
        }
    }

    /// `--smoke`: 2 000-record tables and small models.
    pub fn smoke() -> Self {
        Scale {
            cars: 2_000,
            others: 2_000,
            sessions: 120,
            corpus_documents: 80,
            training_per_domain: 40,
            delta_sessions: 5,
        }
    }
}

/// One domain's generated inputs.
pub struct DomainInput {
    /// The blueprint records and questions are drawn from.
    pub blueprint: DomainBlueprint,
    /// The table's records, in insertion order.
    pub records: Vec<Record>,
    /// The query log its TI-matrix is built from.
    pub log: QueryLog,
    /// The first [`CHUNK`] records as a table: the anchor for question generation.
    pub sample: Table,
}

impl DomainInput {
    /// The domain name.
    pub fn name(&self) -> &'static str {
        self.blueprint.name
    }
}

/// All generated inputs of one run.
pub struct Inputs {
    seed: u64,
    scale: Scale,
    /// The eight domains, cars first.
    pub domains: Vec<DomainInput>,
    /// The corpus the WS-matrix is built from.
    pub corpus: SyntheticCorpus,
    /// The classifier's training questions.
    pub training: Vec<LabelledDoc>,
    /// Cars records beyond the table, for the workloads' inserts. Each carries at
    /// least four Type II values, so the question spelled from its text values
    /// ([`probe_question`]) matches few stored records.
    pub fresh: Vec<Record>,
}

/// Independent sub-seed for one named input stream.
fn stream(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn text_values(bp: &DomainBlueprint, record: &Record) -> Vec<String> {
    bp.all_pools()
        .filter_map(|pool| record.get_text(pool.attribute).map(str::to_string))
        .collect()
}

impl Inputs {
    /// Generate the inputs for `seed`: tables of `scale` and `fresh` extra cars records.
    pub fn generate(seed: u64, scale: Scale, fresh: usize) -> Inputs {
        let blueprints = all_blueprints();
        let mut groups = Vec::new();
        for bp in &blueprints {
            groups.extend(topic_groups(bp));
        }
        let corpus = SyntheticCorpus::generate(
            &groups,
            &CorpusSpec {
                documents: scale.corpus_documents,
                seed: stream(seed, 1),
                ..CorpusSpec::default()
            },
        );

        let mut domains = Vec::new();
        let mut training = Vec::new();
        let mut fresh_records = Vec::new();
        for (index, bp) in blueprints.into_iter().enumerate() {
            let count = if bp.name == CARS {
                scale.cars
            } else {
                scale.others
            };
            let mut rng = StdRng::seed_from_u64(stream(seed, 0x100 + index as u64));
            let records: Vec<Record> = (0..count).map(|_| generate_record(&bp, &mut rng)).collect();
            if bp.name == CARS {
                let rich = bp.type2.len().saturating_sub(1);
                while fresh_records.len() < fresh {
                    let record = generate_record(&bp, &mut rng);
                    let present = bp
                        .type2
                        .iter()
                        .filter(|pool| record.has(pool.attribute))
                        .count();
                    if present >= rich {
                        fresh_records.push(record);
                    }
                }
            }
            let mut sample = Table::new(bp.to_spec().schema.clone());
            for record in records.iter().take(CHUNK) {
                sample
                    .insert(record.clone())
                    .expect("generated records fit their blueprint's schema");
            }
            let log = generate_log(
                &affinity_model(&bp),
                &LogGeneratorConfig {
                    sessions: scale.sessions,
                    seed: stream(seed, 0x200 + index as u64),
                    ..Default::default()
                },
            );
            for q in generate_questions(
                &bp,
                &sample,
                scale.training_per_domain,
                stream(seed, 0x300 + index as u64),
                &QuestionMix::plain_only(),
            ) {
                training.push(LabelledDoc::from_text(bp.name, &q.text));
            }
            domains.push(DomainInput {
                blueprint: bp,
                records,
                log,
                sample,
            });
        }
        Inputs {
            seed,
            scale,
            domains,
            corpus,
            training,
            fresh: fresh_records,
        }
    }

    /// The cars domain.
    pub fn cars(&self) -> &DomainInput {
        self.domains
            .iter()
            .find(|d| d.name() == CARS)
            .expect("the cars blueprint is one of the eight")
    }

    /// Batch `batch` of `count` candidate questions for a domain, in the default
    /// [`QuestionMix`] (plain, misspelled, run-together, shorthand, incomplete,
    /// Boolean), each with whether its generator negated a condition ("not blue").
    pub fn candidates(
        &self,
        domain: &DomainInput,
        batch: u64,
        count: usize,
    ) -> Vec<(String, bool)> {
        let tag = 0x1000 + batch * 64 + self.domain_index(domain) as u64;
        generate_questions(
            &domain.blueprint,
            &domain.sample,
            count,
            stream(self.seed, tag),
            &QuestionMix::default(),
        )
        .into_iter()
        .map(|q| {
            let negated = q.gold.all_sketches().iter().any(|s| match s {
                ConditionSketch::Categorical { negated, .. } => *negated,
                ConditionSketch::Numeric { negated, .. } => *negated,
            });
            (q.text, negated)
        })
        .collect()
    }

    fn domain_index(&self, domain: &DomainInput) -> usize {
        self.domains
            .iter()
            .position(|d| d.name() == domain.name())
            .unwrap_or(0)
    }

    /// The `index`-th live query-log delta for cars.
    pub fn delta(&self, index: usize) -> QueryLogDelta {
        let log = generate_log(
            &affinity_model(&self.cars().blueprint),
            &LogGeneratorConfig {
                sessions: self.scale.delta_sessions,
                seed: stream(self.seed, 0x4000 + index as u64),
                ..Default::default()
            },
        );
        QueryLogDelta::from_sessions(log.sessions)
    }

    /// A generator for the workload's op order.
    pub fn op_rng(&self) -> StdRng {
        StdRng::seed_from_u64(stream(self.seed, 0x5000))
    }
}

/// The question that spells out every text value of a cars record: after the record
/// is inserted it must have exactly one more exact answer.
pub fn probe_question(inputs: &Inputs, record: &Record) -> String {
    text_values(&inputs.cars().blueprint, record).join(" ")
}

/// Absorb a record's fields (the map is ordered, so this is canonical).
pub fn hash_record(hash: &mut crate::stats::Fnv, record: &Record) {
    for (name, value) in record.fields() {
        hash.text(name);
        match value {
            Value::Text(text) => hash.text(text),
            Value::Number(n) => hash.word(n.to_bits()),
        }
    }
}

/// `count` draws from Zipf(1.0) over `items` ranks (rank 0 the most popular).
pub fn zipf(rng: &mut StdRng, items: usize, count: usize) -> Vec<u32> {
    let mut cumulative = Vec::with_capacity(items);
    let mut total = 0.0f64;
    for rank in 1..=items {
        total += 1.0 / rank as f64;
        cumulative.push(total);
    }
    (0..count)
        .map(|_| {
            let draw = rng.random::<f64>() * total;
            cumulative.partition_point(|&c| c < draw).min(items - 1) as u32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_the_same_inputs() {
        let a = Inputs::generate(7, Scale::smoke(), 8);
        let b = Inputs::generate(7, Scale::smoke(), 8);
        let c = Inputs::generate(8, Scale::smoke(), 8);
        assert_eq!(a.cars().records, b.cars().records);
        assert_eq!(a.fresh, b.fresh);
        assert_ne!(a.cars().records, c.cars().records);
        assert_eq!(a.candidates(a.cars(), 0, 5), b.candidates(b.cars(), 0, 5));
        assert_ne!(a.candidates(a.cars(), 0, 5), a.candidates(a.cars(), 1, 5));
        let negated = a.candidates(a.cars(), 0, 400);
        assert!(negated.iter().any(|(q, n)| *n && q.contains("not ")));
        assert!(negated.iter().any(|(_, n)| !*n));
        assert_eq!(a.domains.len(), 8);
        assert_eq!(a.domains[0].name(), CARS);
    }

    #[test]
    fn fresh_records_are_rich_enough_to_probe() {
        let inputs = Inputs::generate(3, Scale::smoke(), 16);
        for record in &inputs.fresh {
            assert!(probe_question(&inputs, record).split(' ').count() >= 6);
        }
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let draws = zipf(&mut rng, 64, 10_000);
        assert!(draws.iter().all(|&d| d < 64));
        let top = draws.iter().filter(|&&d| d == 0).count();
        let tail = draws.iter().filter(|&&d| d == 63).count();
        assert!(top > 10 * tail.max(1));
    }
}
