//! Crash-recovery property tests: a durable [`CqadsSystem`] cut off at an
//! arbitrary WAL byte offset must reopen to exactly the state of the longest
//! fully-persisted mutation prefix, without panicking, and without any
//! generation counter regressing below a stamp the crashed process durably
//! handed out. Recovery must also be idempotent: opening twice lands on the
//! same state, generations included.

use cqads_suite::addb::{DbError, Record, Schema, Table};
use cqads_suite::cqads::domain::toy_car_domain;
use cqads_suite::cqads::{CqadsConfig, CqadsError, CqadsSystem, StorageOptions};
use cqads_suite::querylog::{QueryLogDelta, Session, SubmittedQuery, TIMatrix};
use cqads_suite::storage::{scan_frames, MemFs, Vfs};
use cqads_suite::wordsim::WordSimMatrix;
use proptest::prelude::*;
use std::path::Path;
use std::sync::Arc;

const DOMAIN: &str = "cars";
const MAKES: [&str; 4] = ["honda", "toyota", "ford", "chevy"];
const MODELS: [&str; 4] = ["accord", "camry", "focus", "civic"];
const COLORS: [&str; 3] = ["blue", "red", "gold"];

/// One WAL-frame-sized mutation: every variant appends exactly one frame, so
/// frame `i` of the log is mutation `i` and a byte cut maps 1:1 onto a
/// mutation-prefix cut.
#[derive(Debug, Clone)]
enum Mutation {
    Insert {
        make: u8,
        model: u8,
        color: u8,
        price: u32,
    },
    Ingest {
        from: u8,
        to: u8,
    },
    SetWordSim {
        a: u8,
        b: u8,
        weight: u8,
    },
    ReRegister {
        rows: u8,
    },
}

fn car(make: u8, model: u8, color: u8, price: u32) -> Record {
    Record::builder()
        .text("make", MAKES[make as usize % MAKES.len()])
        .text("model", MODELS[model as usize % MODELS.len()])
        .text("color", COLORS[color as usize % COLORS.len()])
        .text("transmission", "automatic")
        .number("price", price as f64)
        .number("year", 2004.0)
        .number("mileage", 50_000.0)
        .build()
}

fn base_table(rows: u8) -> Table {
    let spec = toy_car_domain();
    let mut table = Table::new(spec.schema.clone());
    for i in 0..rows {
        table
            .insert(car(i, i.wrapping_add(1), i, 4_000 + 100 * i as u32))
            .unwrap();
    }
    table
}

fn apply(system: &mut CqadsSystem, mutation: &Mutation) {
    match mutation {
        Mutation::Insert {
            make,
            model,
            color,
            price,
        } => {
            system
                .insert_record(DOMAIN, car(*make, *model, *color, *price))
                .unwrap();
        }
        Mutation::Ingest { from, to } => {
            let delta = QueryLogDelta::from_sessions(vec![Session {
                user_id: 1,
                queries: vec![
                    SubmittedQuery {
                        value: MODELS[*from as usize % MODELS.len()].into(),
                        at_seconds: 0.0,
                        clicks: vec![],
                        shown: vec![],
                    },
                    SubmittedQuery {
                        value: MODELS[*to as usize % MODELS.len()].into(),
                        at_seconds: 3.0,
                        clicks: vec![],
                        shown: vec![],
                    },
                ],
            }]);
            system.ingest_query_log(DOMAIN, &delta).unwrap();
        }
        Mutation::SetWordSim { a, b, weight } => {
            let mut ws = WordSimMatrix::default();
            ws.insert(
                COLORS[*a as usize % COLORS.len()],
                COLORS[*b as usize % COLORS.len()],
                0.1 + (*weight as f64) / 512.0,
            );
            system.try_set_word_sim(ws).unwrap();
        }
        Mutation::ReRegister { rows } => {
            system
                .try_add_domain(
                    toy_car_domain(),
                    base_table(2 + rows % 3),
                    TIMatrix::default(),
                )
                .unwrap();
        }
    }
}

/// Weighted mutation generator (the vendored proptest shim has no
/// `prop_oneof`/`prop_map`, so the strategy samples directly).
#[derive(Debug, Clone)]
struct MutationStrategy;

impl Strategy for MutationStrategy {
    type Value = Mutation;
    fn sample(&self, rng: &mut proptest::TestRng) -> Mutation {
        match rng.below(9) {
            0..=3 => Mutation::Insert {
                make: rng.below(4) as u8,
                model: rng.below(4) as u8,
                color: rng.below(3) as u8,
                price: 1_000 + rng.below(39_000) as u32,
            },
            4..=6 => Mutation::Ingest {
                from: rng.below(4) as u8,
                to: rng.below(4) as u8,
            },
            7 => Mutation::SetWordSim {
                a: rng.below(3) as u8,
                b: rng.below(3) as u8,
                weight: rng.below(256) as u8,
            },
            _ => Mutation::ReRegister {
                rows: rng.below(3) as u8,
            },
        }
    }
}

fn durable_config(fs: &Arc<MemFs>) -> CqadsConfig {
    let mut opts = StorageOptions::with_vfs("db", Arc::clone(fs) as _);
    // No rotation: the whole history stays in wal-000000.log so a byte cut
    // maps directly onto a frame-prefix cut. No audits: only mutations write.
    opts.snapshot_every = 0;
    opts.audit_queries = false;
    CqadsConfig {
        storage: Some(opts),
        ..CqadsConfig::default()
    }
}

/// What a system answers, down to rank-score bits.
fn observable_answers(system: &CqadsSystem) -> Vec<String> {
    let questions = [
        "blue automatic cars",
        "cheapest honda",
        "red toyota camry under 9000 dollars",
        "gold ford focus",
    ];
    let answer = |q| system.ask(q).domain(DOMAIN).uncached().get().unwrap();
    let line = |a: &cqads_suite::cqads::Answer| {
        format!(
            "{:?}:{:?}:{}:{:?}",
            a.id,
            a.kind,
            a.rank_sim.to_bits(),
            a.record
        )
    };
    let render = |q| {
        let set = answer(q);
        let answers: Vec<String> = set.answers.iter().map(line).collect();
        format!("{}|{}|{}", set.sql, set.exact_count, answers.join(","))
    };
    questions.into_iter().map(render).collect()
}

/// The domain's `(table, model)` generations as a detached reader sees them.
fn generations(system: &CqadsSystem) -> (u64, u64) {
    let reader = system.reader();
    (
        reader.table_generation(DOMAIN).unwrap(),
        reader.model_generation(DOMAIN).unwrap(),
    )
}

/// The observable state the recovery contract promises to restore.
fn observable(system: &CqadsSystem) -> (Vec<(u32, Record)>, Vec<String>, String) {
    let table = system.database().table(DOMAIN).unwrap();
    let rows: Vec<(u32, Record)> = table.iter().map(|(id, r)| (id.0, r.clone())).collect();
    let answers: Vec<String> = system
        .ask("blue automatic cars")
        .domain(DOMAIN)
        .uncached()
        .get()
        .unwrap()
        .answers
        .iter()
        .map(|a| format!("{:?}:{:?}:{}", a.id, a.kind, a.rank_sim.to_bits()))
        .collect();
    let sql = system
        .ask("cheapest honda")
        .domain(DOMAIN)
        .uncached()
        .get()
        .unwrap()
        .sql
        .clone();
    (rows, answers, sql)
}

/// A store persists `spec.schema` only and recovery rebuilds the table under
/// it, so a durable system refuses a table under any other schema up front —
/// typed, nothing registered, nothing appended — instead of acknowledging a
/// registration that makes every later reopen fail.
#[test]
fn a_durable_system_rejects_a_table_whose_schema_is_not_its_specs() {
    let wider = Schema::builder(DOMAIN)
        .type1("make")
        .type1("model")
        .type2("color")
        .type2("transmission")
        .type2("trim")
        .type3("price", 500.0, 120_000.0, Some("usd"))
        .type3("year", 1985.0, 2011.0, None)
        .type3("mileage", 0.0, 300_000.0, Some("miles"))
        .build()
        .unwrap();
    let trimmed = || {
        let mut record = car(0, 0, 0, 5_000);
        record.set("trim", "sport");
        Table::from_records(wider.clone(), [record], 0).unwrap()
    };
    let wal_frames = |fs: &MemFs| {
        fs.file_bytes(Path::new("db/wal-000000.log"))
            .map_or(0, |bytes| scan_frames(&bytes).payloads.len())
    };

    let fs = Arc::new(MemFs::default());
    let mut durable = CqadsSystem::try_with_config(durable_config(&fs)).unwrap();
    let err = durable
        .try_add_domain(toy_car_domain(), trimmed(), TIMatrix::default())
        .unwrap_err();
    assert!(
        matches!(err, CqadsError::Database(DbError::InvalidSchema(_))),
        "{err:?}"
    );
    assert!(durable.domain_names().is_empty());
    assert!(durable.database().table(DOMAIN).is_none());
    assert_eq!(wal_frames(&fs), 0);

    durable
        .try_add_domain(toy_car_domain(), base_table(3), TIMatrix::default())
        .unwrap();
    assert_eq!(wal_frames(&fs), 1);
    drop(durable);

    let reopened = CqadsSystem::try_with_config(durable_config(&fs)).unwrap();
    assert!(reopened.storage_report().unwrap().is_clean());
    assert_eq!(reopened.database().table(DOMAIN).unwrap().len(), 3);
}

/// An empty query-log batch changes nothing, so it hands out no generation:
/// the writer reports the generation it had, a reopen reads the same one, and
/// a real ingest afterwards comes back from a reopen at its own generation.
#[test]
fn an_empty_query_log_batch_hands_out_no_generation() {
    let fs = Arc::new(MemFs::default());
    let mut durable = CqadsSystem::try_with_config(durable_config(&fs)).unwrap();
    durable
        .try_add_domain(toy_car_domain(), base_table(3), TIMatrix::default())
        .unwrap();
    let before = durable.model_generation(DOMAIN).unwrap();
    let report = durable.ingest_query_log_batch(DOMAIN, &[]).unwrap();
    assert_eq!(
        (report.sessions, report.queries, report.model_generation),
        (0, 0, before)
    );
    assert_eq!(durable.model_generation(DOMAIN), Some(before));
    assert!(matches!(
        durable.ingest_query_log_batch("boats", &[]),
        Err(CqadsError::UnknownDomain(_))
    ));
    drop(durable);

    let mut reopened = CqadsSystem::try_with_config(durable_config(&fs)).unwrap();
    assert_eq!(reopened.model_generation(DOMAIN), Some(before));
    apply(&mut reopened, &Mutation::Ingest { from: 0, to: 1 });
    let ingested = reopened.model_generation(DOMAIN).unwrap();
    assert!(ingested > before);
    drop(reopened);

    let again = CqadsSystem::try_with_config(durable_config(&fs)).unwrap();
    assert_eq!(again.model_generation(DOMAIN), Some(ingested));
}

/// One whole-file edit: a run of random bytes written over the file, a range
/// deleted, random bytes inserted, or a range written twice. `at` places the
/// edit in the file as a fraction of the room it has.
#[derive(Debug, Clone)]
enum FileEdit {
    Overwrite { at: f64, bytes: Vec<u8> },
    Delete { at: f64, len: usize },
    Insert { at: f64, bytes: Vec<u8> },
    Duplicate { at: f64, len: usize },
}

impl FileEdit {
    fn apply(&self, file: &[u8]) -> Vec<u8> {
        // The start of a `len`-byte range that fits in the file.
        let start = |at: f64, len: usize| (file.len().saturating_sub(len) as f64 * at) as usize;
        let mut out = file.to_vec();
        match self {
            FileEdit::Overwrite { at, bytes } => {
                let len = bytes.len().min(file.len());
                let from = start(*at, len);
                out[from..from + len].copy_from_slice(&bytes[..len]);
            }
            FileEdit::Delete { at, len } => {
                let len = (*len).min(file.len());
                let from = start(*at, len);
                out.drain(from..from + len);
            }
            FileEdit::Insert { at, bytes } => {
                let from = start(*at, 0);
                out.splice(from..from, bytes.iter().copied());
            }
            FileEdit::Duplicate { at, len } => {
                let len = (*len).min(file.len());
                let from = start(*at, len);
                let range = file[from..from + len].to_vec();
                out.splice(from + len..from + len, range);
            }
        }
        out
    }
}

/// Samples [`FileEdit`]s of 1 to 64 bytes, the four kinds equally often.
#[derive(Debug, Clone)]
struct FileEditStrategy;

impl Strategy for FileEditStrategy {
    type Value = FileEdit;
    fn sample(&self, rng: &mut proptest::TestRng) -> FileEdit {
        let at = rng.unit_f64();
        let len = 1 + rng.below(64) as usize;
        let bytes = (0..len).map(|_| rng.below(256) as u8).collect();
        match rng.below(4) {
            0 => FileEdit::Overwrite { at, bytes },
            1 => FileEdit::Delete { at, len },
            2 => FileEdit::Insert { at, bytes },
            _ => FileEdit::Duplicate { at, len },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Editing the newest WAL, or the newest snapshot, with one
    /// [`FileEdit`] never panics the reopen: it recovers the state of a
    /// prefix of the acknowledged mutations, or fails with a typed
    /// [`CqadsError::Storage`].
    #[test]
    fn any_whole_file_edit_recovers_a_prefix_or_fails_typed(
        before in prop::collection::vec(MutationStrategy, 0..5),
        after in prop::collection::vec(MutationStrategy, 1..5),
        edit in FileEditStrategy,
        edit_snapshot in 0u8..2,
    ) {
        // Epoch 0 holds the registration and `before`, snapshot 1 their
        // state, and epoch 1's WAL holds `after`.
        let fs = Arc::new(MemFs::default());
        let mut durable = CqadsSystem::try_with_config(durable_config(&fs)).unwrap();
        durable
            .try_add_domain(toy_car_domain(), base_table(3), TIMatrix::default())
            .unwrap();
        for mutation in &before {
            apply(&mut durable, mutation);
        }
        prop_assert_eq!(durable.write_snapshot().unwrap(), Some(1));
        for mutation in &after {
            apply(&mut durable, mutation);
        }
        drop(durable);

        let file = if edit_snapshot == 1 { "db/snapshot-000001.bin" } else { "db/wal-000001.log" };
        let file = Path::new(file);
        let bytes = fs.file_bytes(file).unwrap();
        fs.write_atomic(file, &edit.apply(&bytes)).unwrap();

        // Every state a recovery may land on: nothing, the registration,
        // then the registration and each prefix of the mutations.
        let mut reference = CqadsSystem::new();
        reference.try_add_domain(toy_car_domain(), base_table(3), TIMatrix::default()).unwrap();
        let mut prefixes = vec![None, Some(observable(&reference))];
        for mutation in before.iter().chain(&after) {
            apply(&mut reference, mutation);
            prefixes.push(Some(observable(&reference)));
        }

        match CqadsSystem::try_with_config(durable_config(&fs)) {
            Err(e) => prop_assert!(matches!(e, CqadsError::Storage(_)), "{:?}", e),
            Ok(reopened) => {
                let got = (!reopened.domain_names().is_empty()).then(|| observable(&reopened));
                prop_assert!(prefixes.contains(&got), "not a prefix after {:?}", edit);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash at an arbitrary WAL byte offset, reopen, and the recovered
    /// system equals the in-memory system that applied only the surviving
    /// mutation prefix; generations never regress; recovery is idempotent.
    #[test]
    fn any_wal_cut_recovers_the_exact_mutation_prefix(
        mutations in prop::collection::vec(MutationStrategy, 1..10),
        cut_fraction in 0.0f64..1.0,
    ) {
        // Run the full mutation history against a durable system, recording
        // the generation stamp after every mutation.
        let fs = Arc::new(MemFs::default());
        let mut durable = CqadsSystem::try_with_config(durable_config(&fs)).unwrap();
        durable
            .try_add_domain(toy_car_domain(), base_table(3), TIMatrix::default())
            .unwrap();
        let mut stamps = vec![(
            durable.database().generation(DOMAIN).unwrap(),
            durable.model_generation(DOMAIN).unwrap(),
        )];
        for mutation in &mutations {
            apply(&mut durable, mutation);
            stamps.push((
                durable.database().generation(DOMAIN).unwrap(),
                durable.model_generation(DOMAIN).unwrap(),
            ));
        }

        // Crash: the WAL survives only up to an arbitrary byte offset.
        let wal = Path::new("db/wal-000000.log");
        let bytes = fs.file_bytes(wal).unwrap();
        let cut = (bytes.len() as f64 * cut_fraction) as u64;
        fs.truncate_file(wal, cut).unwrap();

        // Frame i of the log is mutation i (frame 0 = the registration), so
        // the number of complete frames before the cut tells us exactly which
        // mutation prefix must come back.
        let surviving = scan_frames(&bytes[..cut as usize]).payloads.len();

        // Reference: a memory-only system that applies just that prefix.
        let reopened = CqadsSystem::try_with_config(durable_config(&fs)).unwrap();
        prop_assert_eq!(
            reopened.domain_names(),
            if surviving == 0 { Vec::<&str>::new() } else { vec![DOMAIN] }
        );
        if surviving > 0 {
            let mut reference = CqadsSystem::new();
            reference.try_add_domain(toy_car_domain(), base_table(3), TIMatrix::default()).unwrap();
            for mutation in &mutations[..surviving - 1] {
                apply(&mut reference, mutation);
            }
            prop_assert_eq!(observable(&reference), observable(&reopened));

            // Generation floor: every stamp the crashed process durably
            // handed out (i.e. after its last fully-persisted mutation) is
            // covered by the recovered counters.
            let (table_floor, model_floor) = stamps[surviving - 1];
            prop_assert!(reopened.database().generation(DOMAIN).unwrap() >= table_floor);
            prop_assert!(reopened.model_generation(DOMAIN).unwrap() >= model_floor);

            // Double recovery is idempotent, generations included.
            let again = CqadsSystem::try_with_config(durable_config(&fs)).unwrap();
            prop_assert_eq!(observable(&reopened), observable(&again));
            prop_assert_eq!(
                reopened.database().generation(DOMAIN),
                again.database().generation(DOMAIN)
            );
            prop_assert_eq!(reopened.model_generation(DOMAIN), again.model_generation(DOMAIN));
        }
    }

    /// Flipping one arbitrary bit anywhere in the WAL never panics the
    /// recovery path, and everything from the corrupt frame onward is cut.
    #[test]
    fn any_single_bit_flip_recovers_a_valid_prefix(
        mutations in prop::collection::vec(MutationStrategy, 1..6),
        flip_fraction in 0.0f64..1.0,
    ) {
        let fs = Arc::new(MemFs::default());
        let mut durable = CqadsSystem::try_with_config(durable_config(&fs)).unwrap();
        durable
            .try_add_domain(toy_car_domain(), base_table(3), TIMatrix::default())
            .unwrap();
        for mutation in &mutations {
            apply(&mut durable, mutation);
        }
        let wal = Path::new("db/wal-000000.log");
        let len = fs.file_bytes(wal).unwrap().len() as u64;
        let offset = ((len.saturating_sub(1)) as f64 * flip_fraction) as u64;
        fs.flip_bit(wal, offset).unwrap();

        let reopened = CqadsSystem::try_with_config(durable_config(&fs)).unwrap();
        let report = reopened.storage_report().unwrap();
        // The flipped byte invalidates its frame's CRC (or a length prefix),
        // so recovery reports the defect and drops the tail; the survivors
        // still answer questions.
        prop_assert!(!report.is_clean());
        if !reopened.domain_names().is_empty() {
            let _ = observable(&reopened);
        }
    }

    /// A store written through inserts, ingests, WS swaps and
    /// re-registrations, with automatic snapshot rotation, then a crash that
    /// tears the newest WAL at an arbitrary byte, reopens to the state of a
    /// never-crashed default-config system that applied the surviving mutation
    /// prefix: same rows, same answers byte for byte, same next record id.
    /// Generations never regress below what the crashed process handed out,
    /// and a second recovery lands on the same generations.
    #[test]
    fn a_torn_store_reopens_to_the_never_crashed_state(
        mutations in prop::collection::vec(MutationStrategy, 1..12),
        cut_fraction in 0.0f64..1.0,
    ) {
        let fs = Arc::new(MemFs::default());
        let mut config = durable_config(&fs);
        if let Some(opts) = &mut config.storage {
            opts.snapshot_every = 4;
        }
        let mut durable = CqadsSystem::try_with_config(config.clone()).unwrap();
        durable
            .try_add_domain(toy_car_domain(), base_table(3), TIMatrix::default())
            .unwrap();
        let mut stamps = vec![generations(&durable)];
        for mutation in &mutations {
            apply(&mut durable, mutation);
            stamps.push(generations(&durable));
        }
        drop(durable);

        // Crash: the newest WAL epoch survives only up to an arbitrary byte.
        // One frame per mutation (and one for the registration), so the
        // frames that outlive the cut name the surviving mutation prefix;
        // everything before the newest epoch is covered by its snapshot.
        let epoch = fs
            .paths()
            .iter()
            .filter_map(|p| {
                let name = p.file_name()?.to_str()?;
                name.strip_prefix("snapshot-")?.strip_suffix(".bin")?.parse::<u64>().ok()
            })
            .max()
            .unwrap_or(0);
        let wal = Path::new("db").join(format!("wal-{epoch:06}.log"));
        let mut surviving = 1 + mutations.len();
        // (A rotation on the very last mutation leaves no newest WAL to tear.)
        if let Some(bytes) = fs.file_bytes(&wal) {
            let cut = (bytes.len() as f64 * cut_fraction) as usize;
            fs.truncate_file(&wal, cut as u64).unwrap();
            surviving -= scan_frames(&bytes).payloads.len() - scan_frames(&bytes[..cut]).payloads.len();
        }
        if surviving == 0 {
            let reopened = CqadsSystem::try_with_config(config).unwrap();
            prop_assert!(reopened.domain_names().is_empty());
            return Ok(());
        }

        let mut reference = CqadsSystem::new();
        reference.try_add_domain(toy_car_domain(), base_table(3), TIMatrix::default()).unwrap();
        for mutation in &mutations[..surviving - 1] {
            apply(&mut reference, mutation);
        }
        let (table_floor, model_floor) = stamps[surviving - 1];

        let reopened = CqadsSystem::try_with_config(config.clone()).unwrap();
        prop_assert_eq!(observable(&reopened), observable(&reference));
        prop_assert_eq!(observable_answers(&reopened), observable_answers(&reference));
        let (table_gen, model_gen) = generations(&reopened);
        prop_assert!(table_gen >= table_floor, "{} < {}", table_gen, table_floor);
        prop_assert!(model_gen >= model_floor, "{} < {}", model_gen, model_floor);
        drop(reopened);

        // Double recovery is idempotent, generations included.
        let mut again = CqadsSystem::try_with_config(config).unwrap();
        prop_assert_eq!(generations(&again), (table_gen, model_gen));
        prop_assert_eq!(observable_answers(&again), observable_answers(&reference));

        // Every record came back: the next one gets the id the never-crashed
        // system gives it.
        let probe = car(1, 0, 0, 5_000);
        let id = reference.insert_record(DOMAIN, probe.clone()).unwrap();
        prop_assert_eq!(again.insert_record(DOMAIN, probe), Ok(id));
    }
}
