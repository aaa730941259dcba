//! Chaos tests for the resilience layer: injected deadlines, injected storage
//! faults and concurrent admission — every degraded path must stay *explicit*
//! (invariant #6: no silently short, silently stale or silently lossy answer),
//! and with resilience disabled the system must stay byte-identical to the
//! plain pipeline.
//!
//! Deterministic by construction: time comes from injected clocks (a deadline
//! only expires when the test's clock says so) and faults from [`FaultFs`]
//! plans. Run single-threaded (`RUST_TEST_THREADS=1`) in CI's chaos job so
//! fault schedules never interleave across tests.

use cqads_suite::addb::{Record, RecordId, Table};
use cqads_suite::cqads::domain::toy_car_domain;
use cqads_suite::cqads::{
    AnswerQuality, Clock, CqadsConfig, CqadsError, CqadsReader, CqadsSystem, ManualClock,
    ResilienceOptions, StorageOptions,
};
use cqads_suite::querylog::{QueryLogDelta, Session, SubmittedQuery, TIMatrix};
use cqads_suite::storage::{FaultFs, FaultPlan, MemFs, Vfs};
use cqads_suite::wordsim::WordSimMatrix;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const DOMAIN: &str = "cars";

/// Questions that exercise the partial-match phase (scarce exact answers), a
/// single-condition WAND run, the degree-of-match fallback and an exact hit.
const QUESTIONS: [&str; 5] = [
    "Find Honda Accord blue less than 15,000 dollars",
    "mustang",
    "blue toyota camry",
    "red honda accord under 3000 dollars",
    "blue automatic cars",
];

fn car(make: &str, model: &str, color: &str, price: f64) -> Record {
    Record::builder()
        .text("make", make)
        .text("model", model)
        .text("color", color)
        .text("transmission", "automatic")
        .number("price", price)
        .number("year", 2005.0)
        .number("mileage", 60_000.0)
        .build()
}

fn base_table() -> Table {
    let spec = toy_car_domain();
    let mut table = Table::new(spec.schema.clone());
    for (make, model, color, price) in [
        ("honda", "accord", "blue", 16_536.0),
        ("honda", "accord", "gold", 6_600.0),
        ("toyota", "camry", "blue", 8_561.0),
        ("chevy", "malibu", "blue", 5_899.0),
        ("ford", "mustang", "red", 21_000.0),
    ] {
        table.insert(car(make, model, color, price)).unwrap();
    }
    table
}

fn system_with(config: CqadsConfig) -> CqadsSystem {
    let mut system = CqadsSystem::try_with_config(config).unwrap();
    system
        .try_add_domain(toy_car_domain(), base_table(), TIMatrix::default())
        .unwrap();
    system
}

/// Fingerprint an answer burst down to rank-score bits, so "byte-identical"
/// is literal.
fn fingerprint(results: &[Result<Arc<cqads_suite::cqads::AnswerSet>, CqadsError>]) -> Vec<String> {
    results
        .iter()
        .map(|r| match r {
            Err(e) => format!("err:{e}"),
            Ok(set) => {
                let answers: Vec<String> = set
                    .answers
                    .iter()
                    .map(|a| format!("{}:{:?}:{}", a.id.0, a.kind, a.rank_sim.to_bits()))
                    .collect();
                format!("{:?}|{}|{}", set.quality, set.sql, answers.join(","))
            }
        })
        .collect()
}

/// A clock that jumps forward by a mutable step on every read: step 0 freezes
/// time (nothing ever expires), a large step expires any deadline at the next
/// cooperative checkpoint.
#[derive(Debug, Default)]
struct StepClock {
    now: AtomicU64,
    step: AtomicU64,
}

impl StepClock {
    fn set_step(&self, step: u64) {
        self.step.store(step, Ordering::Relaxed);
    }
}

impl Clock for StepClock {
    fn now_micros(&self) -> u64 {
        self.now
            .fetch_add(self.step.load(Ordering::Relaxed), Ordering::Relaxed)
    }
}

#[test]
fn resilience_with_no_deadline_and_no_faults_is_byte_identical() {
    let plain = system_with(CqadsConfig::default());
    let resilient = system_with(CqadsConfig {
        resilience: Some(ResilienceOptions::default()),
        ..CqadsConfig::default()
    });
    let a = plain.answer_batch(&QUESTIONS);
    let b = resilient.answer_batch(&QUESTIONS);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    for r in &b {
        assert!(r.as_ref().unwrap().quality.is_complete());
    }
    let stats = resilient.serving_stats();
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.degraded, 0);
    assert_eq!(stats.stale_served, 0);
    assert_eq!(stats.pressure_level, 0);
}

#[test]
fn expiring_deadline_flags_every_short_answer_as_degraded() {
    let clock = Arc::new(StepClock::default());
    clock.set_step(1_000);
    let resilient = system_with(CqadsConfig {
        resilience: Some(ResilienceOptions {
            deadline_micros: Some(5),
            serve_stale_on_timeout: false,
            clock: Arc::clone(&clock) as Arc<dyn Clock>,
            ..ResilienceOptions::default()
        }),
        ..CqadsConfig::default()
    });
    let plain = system_with(CqadsConfig::default());
    let full = plain.answer_batch(&QUESTIONS);
    // The same questions as one burst, then one ask at a time.
    let burst = resilient.answer_batch(&QUESTIONS);
    let asked: Vec<_> = QUESTIONS.iter().map(|q| resilient.ask(q).get()).collect();

    for cut in [burst, asked] {
        let mut saw_degraded = false;
        for (got, complete) in cut.iter().zip(&full) {
            let got = got.as_ref().unwrap();
            let complete = complete.as_ref().unwrap();
            // Degradation is always explicit: an answer list shorter than the
            // complete one must carry the Degraded flag...
            if got.answers.len() < complete.answers.len() {
                assert!(
                    matches!(
                        got.quality,
                        AnswerQuality::Degraded {
                            budget_exhausted: true,
                            ..
                        }
                    ),
                    "silently short answer: {:?}",
                    got.quality
                );
                saw_degraded = true;
            }
            // ...and whatever is served is the certified prefix of the
            // complete answer, bit for bit.
            for (x, y) in got.answers.iter().zip(&complete.answers) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.rank_sim.to_bits(), y.rank_sim.to_bits());
            }
        }
        assert!(saw_degraded, "a 5-microsecond deadline must cut something");
    }
    assert!(resilient.serving_stats().degraded > 0);
}

#[test]
fn stale_cached_answer_is_served_flagged_when_deadline_cuts() {
    let clock = Arc::new(StepClock::default());
    let mut resilient = system_with(CqadsConfig {
        resilience: Some(ResilienceOptions {
            deadline_micros: Some(1_000),
            serve_stale_on_timeout: true,
            clock: Arc::clone(&clock) as Arc<dyn Clock>,
            ..ResilienceOptions::default()
        }),
        ..CqadsConfig::default()
    });
    let question = "Find Honda Accord blue less than 15,000 dollars";
    // Once through a burst of one, once through a single ask.
    for single in [false, true] {
        let serve = |system: &CqadsSystem| {
            if single {
                system.ask(question).get().unwrap()
            } else {
                system.answer_batch(&[question]).pop().unwrap().unwrap()
            }
        };

        // Frozen clock: the deadline never expires, the answer completes and
        // fills the cache.
        clock.set_step(0);
        let fresh = serve(&resilient);
        assert!(fresh.quality.is_complete());

        // A new record bumps the generation: the cached entry is now stale.
        resilient
            .insert_record(DOMAIN, car("honda", "accord", "red", 9_000.0))
            .unwrap();

        // Expire the deadline at the first checkpoint: the fresh path is cut,
        // and the generation-stale cached answer is served — explicitly
        // flagged.
        clock.set_step(1_000_000);
        let stale = serve(&resilient);
        assert_eq!(stale.quality, AnswerQuality::Stale, "single ask: {single}");
        // The stale answer is the cached one, verbatim.
        assert_eq!(stale.answers.len(), fresh.answers.len());
        for (x, y) in stale.answers.iter().zip(&fresh.answers) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.rank_sim.to_bits(), y.rank_sim.to_bits());
        }

        // The stale answer must not have been re-cached as fresh: answering
        // with a frozen clock recomputes a complete answer that sees the new
        // record.
        clock.set_step(0);
        let recomputed = serve(&resilient);
        assert!(recomputed.quality.is_complete());
        assert!(
            recomputed.answers.len() >= fresh.answers.len(),
            "the complete answer sees the inserted record"
        );
    }
    let stats = resilient.serving_stats();
    assert_eq!(stats.stale_served, 2);
    assert!(stats.degraded >= 2, "stale serving still counts the cut");
}

#[test]
fn sustained_pressure_steps_the_deadline_down_and_recovery_steps_back_up() {
    let clock = Arc::new(StepClock::default());
    clock.set_step(1_000);
    let resilient = system_with(CqadsConfig {
        resilience: Some(ResilienceOptions {
            deadline_micros: Some(8_000),
            serve_stale_on_timeout: false,
            step_down_after: 2,
            max_step_down: 2,
            min_deadline_micros: 1,
            clock: Arc::clone(&clock) as Arc<dyn Clock>,
            ..ResilienceOptions::default()
        }),
        ..CqadsConfig::default()
    });
    for _ in 0..4 {
        let _ = resilient.answer_batch(&QUESTIONS);
    }
    assert!(
        resilient.serving_stats().pressure_level >= 1,
        "consecutive degraded batches must step the deadline down"
    );
    // Freeze the clock: batches run clean again and pressure recovers.
    clock.set_step(0);
    for _ in 0..8 {
        let _ = resilient.answer_batch(&QUESTIONS);
    }
    assert_eq!(resilient.serving_stats().pressure_level, 0);
}

#[test]
fn concurrent_admission_sheds_whole_batches_and_recovers() {
    let resilient = system_with(CqadsConfig {
        resilience: Some(ResilienceOptions {
            max_in_flight: 1,
            ..ResilienceOptions::default()
        }),
        ..CqadsConfig::default()
    });
    let barrier = std::sync::Barrier::new(4);
    // Two threads send bursts and two send single asks: each call is one
    // request to admission control, whichever kind it is.
    let outcomes: Vec<Vec<Result<_, _>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|thread| {
                let (resilient, barrier) = (&resilient, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    if thread % 2 == 0 {
                        resilient.answer_batch(&QUESTIONS)
                    } else {
                        vec![resilient.ask(QUESTIONS[thread]).get()]
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut shed_requests = 0u64;
    for request in &outcomes {
        let sheds = request
            .iter()
            .filter(|r| matches!(r, Err(CqadsError::Overloaded)))
            .count();
        // Shedding is all-or-nothing per request: either every question was
        // rejected before any work, or none was.
        assert!(sheds == 0 || sheds == request.len());
        if sheds > 0 {
            shed_requests += 1;
        }
    }
    assert_eq!(resilient.serving_stats().shed, shed_requests);
    // The permit released: a later burst and a later ask are admitted and
    // complete.
    let after = resilient.answer_batch(&QUESTIONS);
    assert!(after.iter().all(|r| r.is_ok()));
    assert!(resilient.ask(QUESTIONS[0]).get().is_ok());
}

// ---------------------------------------------------------------------------
// A single ask is a batch of one
// ---------------------------------------------------------------------------

/// The resilience setups a single ask and a batch of one must agree under.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Setup {
    /// No resilience layer.
    Plain,
    /// A deadline on a frozen clock: never reached.
    FarDeadline,
    /// A deadline the clock passes at the first checkpoint, no stale serving.
    Expiring,
    /// Stale serving armed: the cache is warm, an insert made every entry
    /// stale, and the deadline expires at the first checkpoint.
    Stale,
}

/// A fresh system under `setup`, durable over `fs` when given. Two calls
/// with the same arguments build identical systems.
fn setup_system(setup: Setup, fs: Option<&Arc<MemFs>>) -> CqadsSystem {
    let clock = Arc::new(StepClock::default());
    let resilience = |deadline_micros, serve_stale_on_timeout| ResilienceOptions {
        deadline_micros: Some(deadline_micros),
        serve_stale_on_timeout,
        step_down_after: 2,
        clock: Arc::clone(&clock) as Arc<dyn Clock>,
        ..ResilienceOptions::default()
    };
    let resilience = match setup {
        Setup::Plain => None,
        Setup::FarDeadline => Some(resilience(1_000, true)),
        Setup::Expiring => Some(resilience(5, false)),
        Setup::Stale => Some(resilience(1_000, true)),
    };
    let storage = fs.map(|fs| {
        let mut opts = StorageOptions::with_vfs("db", Arc::clone(fs) as Arc<dyn Vfs>);
        opts.snapshot_every = 0;
        opts
    });
    let mut system = system_with(CqadsConfig {
        resilience,
        storage,
        ..CqadsConfig::default()
    });
    match setup {
        Setup::Plain | Setup::FarDeadline => {}
        Setup::Expiring => clock.set_step(1_000),
        Setup::Stale => {
            for result in system.answer_batch(&QUESTIONS) {
                assert!(result.unwrap().quality.is_complete());
            }
            system
                .insert_record(DOMAIN, car("honda", "accord", "red", 9_000.0))
                .unwrap();
            clock.set_step(1_000_000);
        }
    }
    system
}

/// What a caller sees of one answer: the sql, each answer's id, kind and
/// rank bits, and the quality flag (with `Degraded`'s visit count).
fn seen(result: &Result<Arc<cqads_suite::cqads::AnswerSet>, CqadsError>) -> String {
    fingerprint(std::slice::from_ref(result)).remove(0)
}

/// The serving counters a request can move: shed, degraded, stale-served and
/// the pressure level, then hits, misses, stale evictions and entries of the
/// answer cache and of the route memo.
fn serving_counters(system: &CqadsSystem) -> [u64; 12] {
    let stats = system.serving_stats();
    let (cache, routes) = (&stats.cache, &stats.routes);
    [
        stats.shed,
        stats.degraded,
        stats.stale_served,
        u64::from(stats.pressure_level),
        cache.hits,
        cache.misses,
        cache.stale_evictions,
        cache.entries as u64,
        routes.hits,
        routes.misses,
        routes.stale_evictions,
        routes.entries as u64,
    ]
}

/// `ask(q).get()` is `answer_batch(&[q])[0]`: on two fresh, identical
/// systems, one asking and one sending bursts of one, every question twice
/// (a miss, then a hit or another miss), under every resilience setup,
/// memory-only and durable. The two agree on the answer down to its rank
/// bits and quality flag, and on every serving counter after every question.
#[test]
fn a_single_ask_is_a_batch_of_one() {
    let setups = [
        Setup::Plain,
        Setup::FarDeadline,
        Setup::Expiring,
        Setup::Stale,
    ];
    for setup in setups {
        for durable in [false, true] {
            let stores = [Arc::new(MemFs::default()), Arc::new(MemFs::default())];
            let store = |i: usize| durable.then_some(&stores[i]);
            let asker = setup_system(setup, store(0));
            let batcher = setup_system(setup, store(1));
            let mut qualities = Vec::new();
            for question in QUESTIONS.iter().chain(&QUESTIONS) {
                let single = asker.ask(question).get();
                let batch = batcher.answer_batch(&[question]).pop().unwrap();
                let context = format!("{setup:?}, durable: {durable}, {question:?}");
                assert_eq!(seen(&single), seen(&batch), "{context}");
                assert_eq!(
                    serving_counters(&asker),
                    serving_counters(&batcher),
                    "{context}"
                );
                qualities.push(single.unwrap().quality);
            }
            // Each setup shows what it sets up.
            let degraded = |q: &AnswerQuality| matches!(q, AnswerQuality::Degraded { .. });
            match setup {
                Setup::Plain | Setup::FarDeadline => {
                    assert!(qualities.iter().all(AnswerQuality::is_complete))
                }
                Setup::Expiring => assert!(qualities.iter().any(degraded)),
                Setup::Stale => assert!(qualities.contains(&AnswerQuality::Stale)),
            }
        }
    }
}

fn durable_config(fault: &Arc<FaultFs>) -> CqadsConfig {
    let mut opts = StorageOptions::with_vfs("db", Arc::clone(fault) as Arc<dyn Vfs>);
    opts.snapshot_every = 0;
    CqadsConfig {
        storage: Some(opts),
        ..CqadsConfig::default()
    }
}

/// Reopen against an existing store (no re-registration).
fn system_with_existing(config: CqadsConfig) -> CqadsSystem {
    CqadsSystem::try_with_config(config).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A deadline cut at an arbitrary point never produces a silently short
    /// answer: each result is either complete and byte-identical to the
    /// unbounded run, or flagged and a bit-identical prefix of it.
    #[test]
    fn any_deadline_cut_yields_a_flagged_certified_prefix(
        survive_reads in 0u64..60,
    ) {
        let clock = Arc::new(StepClock::default());
        clock.set_step(1);
        let resilient = system_with(CqadsConfig {
            resilience: Some(ResilienceOptions {
                deadline_micros: Some(survive_reads),
                serve_stale_on_timeout: false,
                clock: Arc::clone(&clock) as Arc<dyn Clock>,
                ..ResilienceOptions::default()
            }),
            ..CqadsConfig::default()
        });
        let plain = system_with(CqadsConfig::default());
        let full = plain.answer_batch(&QUESTIONS);
        let cut = resilient.answer_batch(&QUESTIONS);
        for (got, complete) in cut.iter().zip(&full) {
            let got = got.as_ref().unwrap();
            let complete = complete.as_ref().unwrap();
            prop_assert!(got.answers.len() <= complete.answers.len());
            if got.answers.len() < complete.answers.len() {
                prop_assert!(!got.quality.is_complete());
            }
            if got.quality.is_complete() {
                prop_assert_eq!(got.answers.len(), complete.answers.len());
            }
            for (x, y) in got.answers.iter().zip(&complete.answers) {
                prop_assert_eq!(x.id, y.id);
                prop_assert_eq!(x.rank_sim.to_bits(), y.rank_sim.to_bits());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// A failed mutation changes nothing anyone can see
// ---------------------------------------------------------------------------

/// A question whose exact answers are the inserted civics (the base table has
/// none).
const CIVIC: &str = "blue honda civic";

/// What a handle shows of the domain: table and model generations, the
/// registered names, and the ids and rank bits of an uncached answer to
/// [`CIVIC`].
type View = (Option<u64>, Option<u64>, Vec<String>, Vec<(u32, u64)>);

fn answer_bits(set: &cqads_suite::cqads::AnswerSet) -> Vec<(u32, u64)> {
    set.answers
        .iter()
        .map(|a| (a.id.0, a.rank_sim.to_bits()))
        .collect()
}

fn writer_view(writer: &CqadsSystem) -> View {
    let names = writer
        .domain_names()
        .into_iter()
        .map(String::from)
        .collect();
    let answer = writer.ask(CIVIC).domain(DOMAIN).uncached().get().unwrap();
    (
        writer.database().generation(DOMAIN),
        writer.model_generation(DOMAIN),
        names,
        answer_bits(&answer),
    )
}

fn reader_view(reader: &CqadsReader) -> View {
    let answer = reader.ask(CIVIC).domain(DOMAIN).uncached().get().unwrap();
    (
        reader.table_generation(DOMAIN),
        reader.model_generation(DOMAIN),
        reader.domain_names(),
        answer_bits(&answer),
    )
}

fn rows(writer: &CqadsSystem) -> Vec<(u32, Record)> {
    let table = writer.database().table(DOMAIN).unwrap();
    table.iter().map(|(id, r)| (id.0, r.clone())).collect()
}

/// One query-log session: a reformulation from `from` to `to`.
fn reformulation(from: &str, to: &str) -> QueryLogDelta {
    let query = |value: &str, at_seconds| SubmittedQuery {
        value: value.into(),
        at_seconds,
        clicks: vec![],
        shown: vec![],
    };
    QueryLogDelta::from_sessions(vec![Session {
        user_id: 1,
        queries: vec![query(from, 0.0), query(to, 3.0)],
    }])
}

fn word_sim() -> WordSimMatrix {
    let mut ws = WordSimMatrix::default();
    ws.insert("blue", "gold", 0.5);
    ws
}

/// An insert whose append fails is not applied, published or
/// served; after the fault heals, the next insert's acknowledged id names the
/// same record in a reopened store.
#[test]
fn a_failed_insert_changes_nothing_and_acknowledged_ids_survive_a_reopen() {
    let fault = Arc::new(FaultFs::new(Arc::new(MemFs::default()) as Arc<dyn Vfs>));
    let mut writer = system_with(durable_config(&fault));
    let reader = writer.reader();
    let (rows_before, writer_before, reader_before) =
        (rows(&writer), writer_view(&writer), reader_view(&reader));
    assert!(writer_before.3.iter().all(|&(id, _)| id < 5));

    let civic = car("honda", "civic", "blue", 7_000.0);
    fault.set_plan(FaultPlan {
        fail_appends: 1,
        ..FaultPlan::default()
    });
    let err = writer.insert_record(DOMAIN, civic.clone()).unwrap_err();
    assert!(matches!(err, CqadsError::Storage(_)), "{err:?}");
    assert_eq!(rows(&writer), rows_before);
    assert_eq!(writer_view(&writer), writer_before);
    assert_eq!(reader_view(&reader), reader_before);

    fault.set_plan(FaultPlan::default());
    let id = writer.insert_record(DOMAIN, civic.clone()).unwrap();
    assert_eq!(id, RecordId(5));
    let exact = reader.ask(CIVIC).domain(DOMAIN).uncached().get().unwrap();
    assert_eq!((exact.exact_count, exact.answers[0].id), (1, id));

    drop((writer, reader));
    let reopened = system_with_existing(durable_config(&fault));
    let table = reopened.database().table(DOMAIN).unwrap();
    assert_eq!(table.len(), 6);
    assert_eq!(table.get(id), Some(&civic));
}

/// A failed query-log ingest, WS-matrix swap or domain registration leaves
/// both handles' model generations and domain names as they were, and a
/// reopen agrees with the writer.
#[test]
fn failed_ingest_word_sim_swap_and_registration_change_nothing() {
    let fault = Arc::new(FaultFs::new(Arc::new(MemFs::default()) as Arc<dyn Vfs>));
    let mut writer = system_with(durable_config(&fault));
    let reader = writer.reader();
    let (writer_before, reader_before) = (writer_view(&writer), reader_view(&reader));
    let fail_next_append = || {
        fault.set_plan(FaultPlan {
            fail_appends: 1,
            ..FaultPlan::default()
        })
    };

    fail_next_append();
    let err = writer
        .ingest_query_log(DOMAIN, &reformulation("accord", "civic"))
        .unwrap_err();
    assert!(matches!(err, CqadsError::Storage(_)), "{err:?}");
    assert_eq!(writer_view(&writer), writer_before);
    assert_eq!(reader_view(&reader), reader_before);

    fail_next_append();
    let err = writer.try_set_word_sim(word_sim()).unwrap_err();
    assert!(matches!(err, CqadsError::Storage(_)), "{err:?}");
    assert_eq!(writer_view(&writer), writer_before);
    assert_eq!(reader_view(&reader), reader_before);

    let mut trucks = toy_car_domain();
    trucks.schema.name = "trucks".into();
    let table = Table::new(trucks.schema.clone());
    fail_next_append();
    let err = writer
        .try_add_domain(trucks, table, TIMatrix::default())
        .unwrap_err();
    assert!(matches!(err, CqadsError::Storage(_)), "{err:?}");
    assert!(writer.database().table("trucks").is_none());
    assert_eq!(writer_view(&writer), writer_before);
    assert_eq!(reader_view(&reader), reader_before);

    fault.set_plan(FaultPlan::default());
    drop(reader);
    let reopened = system_with_existing(durable_config(&fault));
    assert_eq!(writer_view(&reopened), writer_before);
    assert_eq!(rows(&reopened), rows(&writer));
}

/// The auto-snapshot check runs before the append: a rotation that fails
/// fails a mutation that has not changed anything yet.
#[test]
fn a_failed_rotation_fails_the_mutation_before_it_changes_anything() {
    let fault = Arc::new(FaultFs::new(Arc::new(MemFs::default()) as Arc<dyn Vfs>));
    let config = || {
        let mut config = durable_config(&fault);
        config.storage.as_mut().unwrap().snapshot_every = 1;
        config
    };
    // The registration is the epoch's one mutation frame: the next mutation
    // rotates first.
    let mut writer = system_with(config());
    let reader = writer.reader();
    let (rows_before, writer_before, reader_before) =
        (rows(&writer), writer_view(&writer), reader_view(&reader));

    let civic = car("honda", "civic", "blue", 7_000.0);
    fault.set_plan(FaultPlan {
        fail_write_atomic: true,
        ..FaultPlan::default()
    });
    let err = writer.insert_record(DOMAIN, civic.clone()).unwrap_err();
    assert!(matches!(err, CqadsError::Storage(_)), "{err:?}");
    assert_eq!(rows(&writer), rows_before);
    assert_eq!(writer_view(&writer), writer_before);
    assert_eq!(reader_view(&reader), reader_before);

    fault.set_plan(FaultPlan::default());
    let id = writer.insert_record(DOMAIN, civic.clone()).unwrap();
    assert_eq!(id, RecordId(5));
    drop((writer, reader));
    let reopened = system_with_existing(config());
    assert_eq!(
        reopened.database().table(DOMAIN).unwrap().get(id),
        Some(&civic)
    );
}

/// An append whose bytes land but whose fsync fails is rewound: a reopen
/// right after the failed insert does not replay the frame.
#[test]
fn a_failed_sync_leaves_no_frame_for_a_reopen_to_replay() {
    let fault = Arc::new(FaultFs::new(Arc::new(MemFs::default()) as Arc<dyn Vfs>));
    let mut writer = system_with(durable_config(&fault));
    let rows_before = rows(&writer);
    fault.set_plan(FaultPlan {
        fail_sync: true,
        ..FaultPlan::default()
    });
    let err = writer
        .insert_record(DOMAIN, car("honda", "civic", "blue", 7_000.0))
        .unwrap_err();
    assert!(matches!(err, CqadsError::Storage(_)), "{err:?}");
    assert_eq!(rows(&writer), rows_before);

    fault.set_plan(FaultPlan::default());
    drop(writer);
    let reopened = system_with_existing(durable_config(&fault));
    assert!(reopened.storage_report().unwrap().is_clean());
    assert_eq!(rows(&reopened), rows_before);
}

/// A torn append whose rewind fails too leaves bytes behind; the next append
/// drops them before it writes, so the record it acknowledges is not lost
/// behind a torn frame on reopen.
#[test]
fn an_append_after_an_unrewound_tear_is_not_lost() {
    let fault = Arc::new(FaultFs::new(Arc::new(MemFs::default()) as Arc<dyn Vfs>));
    let mut writer = system_with(durable_config(&fault));
    fault.set_plan(FaultPlan {
        append_budget: Some(5),
        fail_write_atomic: true,
        ..FaultPlan::default()
    });
    let civic = car("honda", "civic", "blue", 7_000.0);
    writer.insert_record(DOMAIN, civic.clone()).unwrap_err();

    fault.set_plan(FaultPlan::default());
    let id = writer.insert_record(DOMAIN, civic.clone()).unwrap();
    drop(writer);
    let reopened = system_with_existing(durable_config(&fault));
    assert!(reopened.storage_report().unwrap().is_clean());
    assert_eq!(
        reopened.database().table(DOMAIN).unwrap().get(id),
        Some(&civic)
    );
}

/// A registration whose append fails registers nothing; once the fault heals
/// the same registration goes through and survives a reopen.
#[test]
fn a_failed_registration_registers_nothing() {
    let fault = Arc::new(FaultFs::new(Arc::new(MemFs::default()) as Arc<dyn Vfs>));
    let mut writer = CqadsSystem::try_with_config(durable_config(&fault)).unwrap();
    fault.set_plan(FaultPlan {
        append_budget: Some(0),
        ..FaultPlan::default()
    });
    let err = writer
        .try_add_domain(toy_car_domain(), base_table(), TIMatrix::default())
        .unwrap_err();
    assert!(matches!(err, CqadsError::Storage(_)), "{err:?}");
    assert!(writer.domain_names().is_empty());
    assert!(writer.database().table(DOMAIN).is_none());
    let err = writer
        .insert_record(DOMAIN, car("honda", "civic", "blue", 7_000.0))
        .unwrap_err();
    assert!(matches!(err, CqadsError::UnknownDomain(_)), "{err:?}");

    fault.set_plan(FaultPlan::default());
    writer
        .try_add_domain(toy_car_domain(), base_table(), TIMatrix::default())
        .unwrap();
    drop(writer);
    let reopened = system_with_existing(durable_config(&fault));
    assert_eq!(reopened.domain_names(), vec![DOMAIN]);
    assert_eq!(reopened.database().table(DOMAIN).unwrap().len(), 5);
}

/// One step of a fault schedule: a mutation, and how many clean append
/// failures to arm before it (0..=4). Each mutation makes one append, so any
/// armed failure fails the step.
#[derive(Debug, Clone)]
enum Step {
    Insert {
        fails: u32,
        price: f64,
    },
    /// A batch of a valid record and one the schema rejects.
    Invalid {
        fails: u32,
    },
    Log {
        fails: u32,
        to: usize,
    },
    WordSim {
        fails: u32,
    },
}

#[derive(Debug, Clone)]
struct StepStrategy;

impl Strategy for StepStrategy {
    type Value = Step;
    fn sample(&self, rng: &mut proptest::TestRng) -> Step {
        let fails = rng.below(5) as u32;
        match rng.below(4) {
            0 => Step::Insert {
                fails,
                price: 5_000.0 + rng.below(1_000) as f64,
            },
            1 => Step::Invalid { fails },
            2 => Step::Log {
                fails,
                to: rng.below(2) as usize,
            },
            _ => Step::WordSim { fails },
        }
    }
}

impl Step {
    fn fails(&self) -> u32 {
        match *self {
            Step::Insert { fails, .. }
            | Step::Invalid { fails }
            | Step::Log { fails, .. }
            | Step::WordSim { fails } => fails,
        }
    }

    /// Apply the step; `Ok` when it committed.
    fn apply(&self, system: &mut CqadsSystem) -> Result<(), CqadsError> {
        match *self {
            Step::Insert { price, .. } => {
                let record = car("honda", "civic", "blue", price);
                system.insert_record(DOMAIN, record).map(drop)
            }
            Step::Invalid { .. } => {
                let mut invalid = car("honda", "civic", "red", 9_000.0);
                invalid.set("sunroof", "yes");
                let batch = vec![car("honda", "civic", "gold", 8_000.0), invalid];
                system.insert_record_batch(DOMAIN, batch).map(drop)
            }
            Step::Log { to, .. } => {
                let delta = reformulation("civic", ["accord", "camry"][to]);
                system.ingest_query_log(DOMAIN, &delta).map(drop)
            }
            Step::WordSim { .. } => system.try_set_word_sim(word_sim()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Under any schedule of append faults and schema-invalid batches, the
    /// writer, an attached reader and a fault-free in-memory reference that
    /// applies only the steps that returned `Ok` agree after every step —
    /// rows by id, table generation, model generation and answers — and a
    /// reopen holds the reference's rows.
    #[test]
    fn any_fault_schedule_leaves_writer_reader_and_store_in_agreement(
        schedule in prop::collection::vec(StepStrategy, 1..10),
    ) {
        let fault = Arc::new(FaultFs::new(Arc::new(MemFs::default()) as Arc<dyn Vfs>));
        let mut durable = system_with(durable_config(&fault));
        let reader = durable.reader();
        let mut reference = system_with(CqadsConfig::default());

        for step in &schedule {
            fault.set_plan(FaultPlan { fail_appends: step.fails(), ..FaultPlan::default() });
            let committed = step.apply(&mut durable).is_ok();
            let invalid = matches!(step, Step::Invalid { .. });
            prop_assert_eq!(committed, !invalid && step.fails() == 0, "{:?}", step);
            if committed {
                step.apply(&mut reference).unwrap();
            }
            prop_assert_eq!(rows(&durable), rows(&reference));
            let want = writer_view(&reference);
            prop_assert_eq!(writer_view(&durable), want.clone());
            prop_assert_eq!(reader_view(&reader), want);
        }

        fault.set_plan(FaultPlan::default());
        drop((durable, reader));
        let reopened = system_with_existing(durable_config(&fault));
        prop_assert_eq!(rows(&reopened), rows(&reference));
        prop_assert_eq!(writer_view(&reopened), writer_view(&reference));
    }
}

// ---------------------------------------------------------------------------
// An expired deadline, pinned exactly
// ---------------------------------------------------------------------------

/// Under a deadline already expired on the same clock, `answer_batch` cuts
/// every question's partial phase before it visits a record: each cut answer
/// keeps its exact answers and is flagged `Degraded` with `visited == 0`, and
/// the cut is counted once per question.
#[test]
fn one_shard_under_an_expired_budget_is_the_unsharded_expired_batch() {
    // A clock at the end of time: every deadline, even the resilience
    // layer's 1 µs floor, is expired the moment its budget is created.
    let clock = Arc::new(ManualClock::new());
    clock.advance(u64::MAX);
    let expired = system_with(CqadsConfig {
        resilience: Some(ResilienceOptions {
            deadline_micros: Some(1),
            serve_stale_on_timeout: false,
            clock: Arc::clone(&clock) as Arc<dyn Clock>,
            ..ResilienceOptions::default()
        }),
        ..CqadsConfig::default()
    });
    let full = system_with(CqadsConfig::default()).answer_batch(&QUESTIONS);
    let got = expired.answer_batch(&QUESTIONS);
    let flagged = AnswerQuality::Degraded {
        visited: 0,
        budget_exhausted: true,
    };
    let mut cut = 0;
    for (got, full) in got.iter().zip(&full) {
        let (got, full) = (got.as_ref().unwrap(), full.as_ref().unwrap());
        assert_eq!((&got.sql, got.exact_count), (&full.sql, full.exact_count));
        for (x, y) in got.answers.iter().zip(&full.answers) {
            assert_eq!((x.id, x.rank_sim.to_bits()), (y.id, y.rank_sim.to_bits()));
        }
        if got.quality.is_complete() {
            assert_eq!(got.answers.len(), full.answers.len());
        } else {
            assert_eq!(got.quality, flagged);
            let partial = got.answers.len() - got.exact_count;
            assert_eq!(partial, 0, "nothing partial is certified");
            cut += 1;
        }
    }
    assert!(cut > 0, "an expired deadline must cut something");
    assert_eq!(expired.serving_stats().degraded, cut);
}
