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
use cqads_suite::storage::{scan_frames, MemFs, StorageEngine, Vfs};
use cqads_suite::wordsim::WordSimMatrix;
use proptest::prelude::*;
use std::io;
use std::path::Path;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

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
    // maps directly onto a frame-prefix cut.
    opts.snapshot_every = 0;
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

/// A [`MemFs`] whose first snapshot write parks until the test releases it,
/// and says so on a channel when it parks.
#[derive(Debug)]
struct GatedFs {
    inner: MemFs,
    /// Taken by the first snapshot write: where to say it parked, and where
    /// to wait for the release.
    gate: Mutex<Option<(Sender<()>, Receiver<()>)>>,
}

impl Vfs for GatedFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn write_atomic(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let snapshot = path.to_string_lossy().contains("snapshot-");
        let gate = if snapshot {
            self.gate.lock().unwrap().take()
        } else {
            None
        };
        if let Some((parked, release)) = gate {
            parked.send(()).unwrap();
            release.recv().unwrap();
        }
        self.inner.write_atomic(path, data)
    }
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.inner.append(path, data)
    }
    fn sync(&self, path: &Path) -> io::Result<()> {
        self.inner.sync(path)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }
    fn file_len(&self, path: &Path) -> io::Result<Option<u64>> {
        self.inner.file_len(path)
    }
}

/// A reader never waits on the writer's storage: while the writer is parked
/// inside a snapshot write, holding its storage engine, a detached reader's
/// cached ask is answered. A reader that reached storage would wait for the
/// release instead, and the ask would time out.
#[test]
fn a_reader_never_waits_on_the_writers_storage() {
    let (parked_tx, parked_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let fs = Arc::new(GatedFs {
        inner: MemFs::default(),
        gate: Mutex::new(Some((parked_tx, release_rx))),
    });
    let mut opts = StorageOptions::with_vfs("db", Arc::clone(&fs) as Arc<dyn Vfs>);
    opts.snapshot_every = 0;
    let config = CqadsConfig {
        storage: Some(opts),
        ..CqadsConfig::default()
    };
    let mut writer = CqadsSystem::try_with_config(config).unwrap();
    writer
        .try_add_domain(toy_car_domain(), base_table(3), TIMatrix::default())
        .unwrap();
    let reader = writer.reader();
    let question = "blue automatic cars";
    let warm = reader.ask(question).domain(DOMAIN).get().unwrap();

    std::thread::scope(|scope| {
        let snapshot = scope.spawn(|| writer.write_snapshot());
        parked_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the snapshot write parks");
        let (answered_tx, answered_rx) = mpsc::channel();
        let asker = scope.spawn(move || {
            let answer = reader.ask(question).domain(DOMAIN).get();
            answered_tx.send(answer).unwrap();
        });
        let answered = answered_rx.recv_timeout(Duration::from_secs(5));
        release_tx.send(()).unwrap();
        asker.join().unwrap();
        assert_eq!(snapshot.join().unwrap().unwrap(), Some(1));
        let answer = answered.expect("a cached ask waited on the writer's snapshot");
        assert!(
            Arc::ptr_eq(&answer.unwrap(), &warm),
            "served from the cache"
        );
    });
}

/// The tail of a WAL written while every served question left an audit
/// frame (record tag 5), as that encoder wrote it: after the registration of
/// `toy_car_domain` over `base_table(2)`, the inserts of [`audited_inserts`]
/// (table generations 3, 4 and 5), with two audit frames after each of the
/// first two.
const AUDITED_TAIL: &str =
    "a1000000517c217b0204000000636172730700000005000000636f6c6f720004000000626c7565040000006d\
    616b650005000000686f6e6461070000006d696c656167650100000000006ae840050000006d6f64656c0005\
    000000636976696305000000707269636501000000000058bb400c0000007472616e736d697373696f6e0009\
    0000006175746f6d617469630400000079656172010000000000509f400300000000000000360000007a2b6c\
    360510000000626c756520686f6e646120636976696304000000636172730003000000000000000000000000\
    0000005c0000000000000036000000635dc45d0510000000626c756520686f6e646120636976696304000000\
    6361727301030000000000000000000000000000000100000000000000a10000003901f17802040000006361\
    72730700000005000000636f6c6f720003000000726564040000006d616b650006000000746f796f74610700\
    00006d696c656167650100000000006ae840050000006d6f64656c000500000063616d727905000000707269\
    636501000000000040bf400c0000007472616e736d697373696f6e00090000006175746f6d61746963040000\
    0079656172010000000000509f400400000000000000360000008ab29973051000000072656420746f796f74\
    612063616d727904000000636172730004000000000000000000000000000000510000000000000039000000\
    ff1b69a60513000000626c7565206175746f6d61746963206361727304000000636172730004000000000000\
    0000000000000000003a00000000000000a0000000c0de46000204000000636172730700000005000000636f\
    6c6f720004000000676f6c64040000006d616b650004000000666f7264070000006d696c6561676501000000\
    00006ae840050000006d6f64656c0005000000666f63757305000000707269636501000000000094c1400c00\
    00007472616e736d697373696f6e00090000006175746f6d617469630400000079656172010000000000509f\
    400500000000000000";

/// The records [`AUDITED_TAIL`] inserts, in order.
fn audited_inserts() -> [Record; 3] {
    [
        car(0, 3, 0, 7_000),
        car(1, 1, 1, 8_000),
        car(2, 2, 2, 9_000),
    ]
}

fn unhex(hex: &str) -> Vec<u8> {
    let digit = |i: usize| u8::from_str_radix(&hex[i..i + 2], 16).unwrap();
    (0..hex.len()).step_by(2).map(digit).collect()
}

/// A store that still holds audit frames reopens exactly as one that never
/// had them: same rows, answers and generations, the same mutation frames
/// counted toward the next rotation, and a clean recovery report.
#[test]
fn a_store_with_audit_frames_reopens_as_one_without_them() {
    let wal = Path::new("db/wal-000000.log");
    let registered = |fs: &Arc<MemFs>| {
        let mut writer = CqadsSystem::try_with_config(durable_config(fs)).unwrap();
        writer
            .try_add_domain(toy_car_domain(), base_table(2), TIMatrix::default())
            .unwrap();
        writer
    };
    let audited = Arc::new(MemFs::default());
    drop(registered(&audited));
    audited.append(wal, &unhex(AUDITED_TAIL)).unwrap();
    let frames = scan_frames(&audited.file_bytes(wal).unwrap());
    assert_eq!((frames.payloads.len(), frames.defect), (8, None));

    let plain = Arc::new(MemFs::default());
    let mut writer = registered(&plain);
    for record in audited_inserts() {
        writer.insert_record(DOMAIN, record).unwrap();
    }
    drop(writer);

    let reopen = |fs: &Arc<MemFs>| CqadsSystem::try_with_config(durable_config(fs)).unwrap();
    let (from_audited, from_plain) = (reopen(&audited), reopen(&plain));
    let report = from_audited.storage_report().unwrap();
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(Some(report), from_plain.storage_report());
    assert_eq!(observable(&from_audited), observable(&from_plain));
    assert_eq!(generations(&from_audited), generations(&from_plain));
    assert_eq!(generations(&from_audited).0, 5);
    drop((from_audited, from_plain));

    let mutation_frames = |fs: &Arc<MemFs>| {
        let vfs = Arc::clone(fs) as Arc<dyn Vfs>;
        StorageEngine::open(vfs, "db", false)
            .unwrap()
            .0
            .mutation_frames()
    };
    assert_eq!(mutation_frames(&audited), 4);
    assert_eq!(mutation_frames(&plain), 4);
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
