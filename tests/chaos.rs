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

use cqads_suite::addb::{Record, Table};
use cqads_suite::cqads::domain::toy_car_domain;
use cqads_suite::cqads::{
    AnswerQuality, CqadsConfig, CqadsError, CqadsSystem, ResilienceOptions, StorageOptions,
};
use cqads_suite::querylog::TIMatrix;
use cqads_suite::storage::{
    FaultFs, FaultPlan, ManualClock, MemFs, RetryClock, RetryOptions, RetryPolicy, Vfs,
};
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

impl RetryClock for StepClock {
    fn now_micros(&self) -> u64 {
        self.now
            .fetch_add(self.step.load(Ordering::Relaxed), Ordering::Relaxed)
    }
    fn sleep_micros(&self, micros: u64) {
        self.now.fetch_add(micros, Ordering::Relaxed);
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
            clock: Arc::clone(&clock) as Arc<dyn RetryClock>,
            ..ResilienceOptions::default()
        }),
        ..CqadsConfig::default()
    });
    let plain = system_with(CqadsConfig::default());
    let full = plain.answer_batch(&QUESTIONS);
    let cut = resilient.answer_batch(&QUESTIONS);

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
        // ...and whatever is served is the certified prefix of the complete
        // answer, bit for bit.
        for (x, y) in got.answers.iter().zip(&complete.answers) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.rank_sim.to_bits(), y.rank_sim.to_bits());
        }
    }
    assert!(saw_degraded, "a 5-microsecond deadline must cut something");
    let stats = resilient.serving_stats();
    assert!(stats.degraded > 0);
    assert_eq!(stats.degraded, resilient.serving_stats().degraded);
}

#[test]
fn stale_cached_answer_is_served_flagged_when_deadline_cuts() {
    let clock = Arc::new(StepClock::default());
    let resilient = system_with(CqadsConfig {
        resilience: Some(ResilienceOptions {
            deadline_micros: Some(1_000),
            serve_stale_on_timeout: true,
            clock: Arc::clone(&clock) as Arc<dyn RetryClock>,
            ..ResilienceOptions::default()
        }),
        ..CqadsConfig::default()
    });
    let question = ["Find Honda Accord blue less than 15,000 dollars"];

    // Frozen clock: the deadline never expires, the answer completes and
    // fills the cache.
    let fresh = resilient.answer_batch(&question);
    let fresh = fresh[0].as_ref().unwrap();
    assert!(fresh.quality.is_complete());

    // A new record bumps the generation: the cached entry is now stale.
    let mut resilient = resilient;
    resilient
        .insert_record(DOMAIN, car("honda", "accord", "red", 9_000.0))
        .unwrap();

    // Expire the deadline at the first checkpoint: the fresh path is cut, and
    // the generation-stale cached answer is served — explicitly flagged.
    clock.set_step(1_000_000);
    let stale = resilient.answer_batch(&question);
    let stale = stale[0].as_ref().unwrap();
    assert_eq!(stale.quality, AnswerQuality::Stale);
    // The stale answer is the cached one, verbatim.
    assert_eq!(stale.answers.len(), fresh.answers.len());
    for (x, y) in stale.answers.iter().zip(&fresh.answers) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.rank_sim.to_bits(), y.rank_sim.to_bits());
    }
    let stats = resilient.serving_stats();
    assert!(stats.stale_served >= 1);
    assert!(stats.degraded >= 1, "stale serving still counts the cut");

    // The stale answer must not have been re-cached as fresh: answering with
    // a frozen clock recomputes a complete answer that sees the new record.
    clock.set_step(0);
    let recomputed = resilient.answer_batch(&question);
    let recomputed = recomputed[0].as_ref().unwrap();
    assert!(recomputed.quality.is_complete());
    assert!(
        recomputed.answers.len() >= fresh.answers.len(),
        "the complete answer sees the inserted record"
    );
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
            clock: Arc::clone(&clock) as Arc<dyn RetryClock>,
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
    let outcomes: Vec<Vec<Result<_, _>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    resilient.answer_batch(&QUESTIONS)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut shed_batches = 0u64;
    for batch in &outcomes {
        let sheds = batch
            .iter()
            .filter(|r| matches!(r, Err(CqadsError::Overloaded)))
            .count();
        // Shedding is all-or-nothing per batch: either every question was
        // rejected before any work, or none was.
        assert!(sheds == 0 || sheds == batch.len());
        if sheds > 0 {
            shed_batches += 1;
        }
    }
    assert_eq!(resilient.serving_stats().shed, shed_batches);
    // The permit released: a later batch is admitted and completes.
    let after = resilient.answer_batch(&QUESTIONS);
    assert!(after.iter().all(|r| r.is_ok()));
}

fn durable_config(fault: &Arc<FaultFs>, retry: Option<RetryOptions>) -> CqadsConfig {
    let mut opts = StorageOptions::with_vfs("db", Arc::clone(fault) as Arc<dyn Vfs>);
    opts.snapshot_every = 0;
    opts.audit_queries = true;
    opts.retry = retry;
    CqadsConfig {
        storage: Some(opts),
        ..CqadsConfig::default()
    }
}

fn test_retry(clock: &Arc<ManualClock>) -> RetryOptions {
    RetryOptions {
        policy: RetryPolicy {
            attempts: 3,
            base_delay_micros: 10,
            max_delay_micros: 1_000,
            jitter_seed: 7,
        },
        breaker_threshold: 2,
        breaker_cooldown_micros: 1_000,
        clock: Arc::clone(clock) as Arc<dyn RetryClock>,
    }
}

#[test]
fn transient_wal_fault_is_retried_and_lands_exactly_once() {
    let mem = Arc::new(MemFs::default());
    let fault = Arc::new(FaultFs::new(Arc::clone(&mem) as Arc<dyn Vfs>));
    let clock = Arc::new(ManualClock::new());
    let mut system = system_with(durable_config(&fault, Some(test_retry(&clock))));
    let rows_before = system.database().table(DOMAIN).unwrap().len();

    // One clean transient failure: the retry layer absorbs it.
    fault.set_plan(FaultPlan {
        fail_appends: 1,
        ..FaultPlan::default()
    });
    system
        .insert_record(DOMAIN, car("honda", "civic", "red", 7_500.0))
        .unwrap();
    let stats = system.serving_stats();
    assert_eq!(stats.wal_retries, 1);
    assert_eq!(stats.breaker_opens, 0);

    // Exactly once: recovery replays the WAL and sees the row a single time.
    drop(system);
    let reopened = system_with_existing(durable_config(&fault, Some(test_retry(&clock))));
    let table = reopened.database().table(DOMAIN).unwrap();
    assert_eq!(table.len(), rows_before + 1);
    assert_eq!(
        table
            .iter()
            .filter(|(_, r)| r.get_text("model") == Some("civic"))
            .count(),
        1
    );
}

/// Reopen against an existing store (no re-registration).
fn system_with_existing(config: CqadsConfig) -> CqadsSystem {
    CqadsSystem::try_with_config(config).unwrap()
}

#[test]
fn persistent_wal_faults_trip_the_breaker_which_cools_down_and_closes() {
    let mem = Arc::new(MemFs::default());
    let fault = Arc::new(FaultFs::new(Arc::clone(&mem) as Arc<dyn Vfs>));
    let clock = Arc::new(ManualClock::new());
    let mut system = system_with(durable_config(&fault, Some(test_retry(&clock))));

    // Fail always: every insert exhausts its 3 attempts; after 2 exhausted
    // calls the breaker opens.
    fault.set_plan(FaultPlan {
        fail_appends: u32::MAX,
        ..FaultPlan::default()
    });
    for _ in 0..2 {
        let err = system
            .insert_record(DOMAIN, car("ford", "focus", "blue", 4_200.0))
            .unwrap_err();
        assert!(matches!(err, CqadsError::Storage(_)));
    }
    let stats = system.serving_stats();
    assert_eq!(stats.breaker_opens, 1);
    assert_eq!(stats.wal_retries, 4, "two calls x two retries each");

    // Open breaker: the next call is rejected fast, without touching the
    // (still faulty) filesystem.
    let err = system
        .insert_record(DOMAIN, car("ford", "focus", "blue", 4_300.0))
        .unwrap_err();
    assert!(
        err.to_string().contains("circuit breaker open"),
        "fast rejection is typed: {err}"
    );
    assert!(system.serving_stats().breaker_rejections >= 1);

    // Cooldown passes, the backend heals: the half-open probe succeeds and
    // the breaker closes fully.
    clock.advance(1_000);
    fault.set_plan(FaultPlan::default());
    system
        .insert_record(DOMAIN, car("ford", "focus", "gold", 4_400.0))
        .unwrap();
    assert_eq!(system.serving_stats().breaker_opens, 1, "no re-open");
}

#[test]
fn audit_appends_ride_the_same_retry_layer() {
    let mem = Arc::new(MemFs::default());
    let fault = Arc::new(FaultFs::new(Arc::clone(&mem) as Arc<dyn Vfs>));
    let clock = Arc::new(ManualClock::new());
    let system = system_with(durable_config(&fault, Some(test_retry(&clock))));

    // A transient blip during the burst's audit append: retried, not counted
    // as a failure.
    fault.set_plan(FaultPlan {
        fail_appends: 1,
        ..FaultPlan::default()
    });
    let results = system.answer_batch(&QUESTIONS);
    assert!(results.iter().all(|r| r.is_ok()));
    assert_eq!(system.audit_failures(), 0, "the retry absorbed the blip");
    assert!(system.serving_stats().wal_retries >= 1);
}

/// One insert step of the proptest schedule: how many clean transient append
/// failures to arm immediately before it.
#[derive(Debug, Clone)]
struct FaultSchedule;

impl Strategy for FaultSchedule {
    type Value = u32;
    fn sample(&self, rng: &mut proptest::TestRng) -> u32 {
        // 0..=2 transient failures; retry attempts = 3, so every schedule is
        // absorbable.
        rng.below(3) as u32
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Under any absorbable schedule of transient WAL faults, every insert
    /// succeeds, lands exactly once, and the recovered state equals a
    /// fault-free in-memory reference.
    #[test]
    fn any_absorbable_fault_schedule_preserves_exactly_once(
        schedule in prop::collection::vec(FaultSchedule, 1..8),
    ) {
        let mem = Arc::new(MemFs::default());
        let fault = Arc::new(FaultFs::new(Arc::clone(&mem) as Arc<dyn Vfs>));
        let clock = Arc::new(ManualClock::new());
        let mut durable = system_with(durable_config(&fault, Some(test_retry(&clock))));
        let mut reference = system_with(CqadsConfig::default());

        let mut expected_retries = 0u64;
        for (i, &blips) in schedule.iter().enumerate() {
            fault.set_plan(FaultPlan { fail_appends: blips, ..FaultPlan::default() });
            let record = car("honda", "civic", "blue", 5_000.0 + i as f64);
            durable.insert_record(DOMAIN, record.clone()).unwrap();
            reference.insert_record(DOMAIN, record).unwrap();
            expected_retries += u64::from(blips);
        }
        prop_assert_eq!(durable.serving_stats().wal_retries, expected_retries);
        prop_assert_eq!(durable.serving_stats().breaker_opens, 0);

        // Reopen: the recovered table equals the fault-free reference, row
        // for row — no lost and no duplicated frames.
        fault.set_plan(FaultPlan::default());
        drop(durable);
        let reopened = system_with_existing(durable_config(&fault, Some(test_retry(&clock))));
        let got: Vec<(u32, Record)> = reopened
            .database().table(DOMAIN).unwrap()
            .iter().map(|(id, r)| (id.0, r.clone())).collect();
        let want: Vec<(u32, Record)> = reference
            .database().table(DOMAIN).unwrap()
            .iter().map(|(id, r)| (id.0, r.clone())).collect();
        prop_assert_eq!(got, want);
    }

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
                clock: Arc::clone(&clock) as Arc<dyn RetryClock>,
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
            clock: Arc::clone(&clock) as Arc<dyn RetryClock>,
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
