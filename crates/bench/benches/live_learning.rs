//! Live query-log learning bench: incremental TI-matrix updates vs full rebuilds,
//! and serving throughput while updates stream in.
//!
//! Part 1 — **model refresh cost**. A production system accumulates a large query
//! log; fresh traffic arrives in small deltas. The bench builds a TI-matrix from a
//! large base log, then compares
//!
//! * a **full rebuild** over `base ++ delta` (what the system did before PR 5), vs
//! * an **incremental apply** of the delta onto the retained matrix
//!   ([`TIMatrix::apply`]: `O(delta)` accumulation + `O(distinct pairs)`
//!   renormalization).
//!
//! Bit-identity of the two paths is asserted before any timing, in every mode. On
//! small deltas over a large log the incremental path is expected to be **≥ 10x**
//! faster (asserted in full mode; the gap grows linearly with the log size).
//!
//! Part 2 — **serving while learning**. A `CqadsSystem` behind an `RwLock` serves a
//! repeated-question burst from reader threads while the writer ingests query-log
//! deltas ([`CqadsSystem::ingest_query_log`]) between bursts. Every ingest bumps the
//! domain's model generation, so cached answers ranked by the stale matrix are
//! evicted — the bench asserts the invalidation (no pre-ingest `Arc` is served
//! afterwards) and reports the sustained answer throughput under the update stream.
//!
//! Results land in `BENCH_live_learning.json` at the workspace root (full mode
//! only).

// This target measures real wall time by design.
#![allow(clippy::disallowed_methods)]

use cqads::{CqadsConfig, CqadsSystem};
use cqads_datagen::{affinity_model, blueprint, generate_questions, generate_table, QuestionMix};
use cqads_querylog::{generate_log, AffinityModel, LogGeneratorConfig, QueryLogDelta, TIMatrix};
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Sessions in the accumulated base log (full mode).
const BASE_SESSIONS: usize = 20_000;
/// Sessions per freshly collected delta.
const DELTA_SESSIONS: usize = 50;
/// Records in the serving table (full mode).
const TABLE_SIZE: usize = 10_000;
/// Deltas the writer ingests during the serving phase.
const INGESTS: usize = 8;
/// Reader threads serving bursts during the serving phase.
const READERS: usize = 2;

fn base_log(model: &AffinityModel, sessions: usize) -> cqads_querylog::QueryLog {
    generate_log(
        model,
        &LogGeneratorConfig {
            sessions,
            seed: 4242,
            ..Default::default()
        },
    )
}

fn fresh_delta(model: &AffinityModel, sessions: usize, seed: u64) -> QueryLogDelta {
    QueryLogDelta::from_sessions(
        generate_log(
            model,
            &LogGeneratorConfig {
                sessions,
                seed,
                ..Default::default()
            },
        )
        .sessions,
    )
}

/// Bit-level equality over the whole vocabulary (plus pair count and maximum):
/// the incremental path must be indistinguishable from the full rebuild.
fn assert_bit_identical(model: &AffinityModel, full: &TIMatrix, incremental: &TIMatrix) {
    assert_eq!(full.len(), incremental.len(), "pair sets diverged");
    assert_eq!(
        full.max_value().to_bits(),
        incremental.max_value().to_bits(),
        "normalization maximum diverged"
    );
    for a in &model.values {
        for b in &model.values {
            assert_eq!(
                full.ti_sim(a, b).to_bits(),
                incremental.ti_sim(a, b).to_bits(),
                "ti_sim({a}, {b}) diverged"
            );
        }
    }
}

fn median_secs(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    samples[samples.len() / 2]
}

fn bench(c: &mut Criterion) {
    let test_mode = c.is_test_mode();
    let (base_sessions, table_size, iterations) = if test_mode {
        (400, 1_000, 3)
    } else {
        (BASE_SESSIONS, TABLE_SIZE, 9)
    };

    // ---- Part 1: incremental apply vs full rebuild --------------------------
    let bp = blueprint("cars");
    let affinities = affinity_model(&bp);
    let base = base_log(&affinities, base_sessions);
    let delta = fresh_delta(&affinities, DELTA_SESSIONS, 777);
    let combined = base.concat(&delta);

    // Correctness first, in every mode: apply == full rebuild, bit for bit.
    let prebuilt = TIMatrix::build(&base);
    let full = TIMatrix::build(&combined);
    let mut incremental = prebuilt.clone();
    incremental.apply(&delta);
    assert_bit_identical(&affinities, &full, &incremental);

    // Full rebuild timing: re-scan the whole concatenated log.
    let rebuild_samples: Vec<f64> = (0..iterations)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(TIMatrix::build(&combined));
            start.elapsed().as_secs_f64()
        })
        .collect();
    // Incremental timing: the clone stands in for the retained live matrix and is
    // excluded from the measured window.
    let apply_samples: Vec<f64> = (0..iterations)
        .map(|_| {
            let mut live = prebuilt.clone();
            let start = Instant::now();
            live.apply(std::hint::black_box(&delta));
            let elapsed = start.elapsed().as_secs_f64();
            std::hint::black_box(live);
            elapsed
        })
        .collect();
    let rebuild_secs = median_secs(rebuild_samples);
    let apply_secs = median_secs(apply_samples);
    let speedup = rebuild_secs / apply_secs;
    println!(
        "live_learning: base {} sessions, delta {} sessions, {} pairs: full rebuild \
         {:.2} ms, incremental apply {:.3} ms ({speedup:.0}x)",
        combined.len() - delta.len(),
        delta.len(),
        prebuilt.len(),
        rebuild_secs * 1e3,
        apply_secs * 1e3,
    );
    if !test_mode {
        assert!(
            speedup >= 10.0,
            "incremental apply must beat a full rebuild by >= 10x on small deltas \
             (measured {speedup:.1}x)"
        );
    }

    // ---- Part 2: serving throughput while updates stream in -----------------
    let table = generate_table(&bp, table_size, 4242);
    let mut system = CqadsSystem::with_config(CqadsConfig::default());
    system.add_domain(bp.to_spec(), table, prebuilt.clone());
    let table_ref = system.database().table("cars").unwrap();
    let generated = generate_questions(&bp, table_ref, 80, 99, &QuestionMix::plain_only());
    let mut questions: Vec<String> = Vec::new();
    for q in generated {
        if system.ask(&q.text).domain("cars").uncached().get().is_ok()
            && !questions.contains(&q.text)
        {
            questions.push(q.text);
        }
        if questions.len() == 12 {
            break;
        }
    }
    assert!(questions.len() >= 6, "workload too small");
    let burst: Vec<String> = questions
        .iter()
        .cycle()
        .take(questions.len() * 8)
        .cloned()
        .collect();

    let system = Arc::new(RwLock::new(system));
    let done = Arc::new(AtomicBool::new(false));
    let answered = Arc::new(AtomicU64::new(0));

    // Invalidation proof: a cached answer from before an ingest is never served
    // after it (its model stamp trails). Warm one question, ingest, re-ask.
    {
        let probe = questions[0].clone();
        let sys = system.read().unwrap();
        let warm = sys.ask(&probe).domain("cars").get().unwrap();
        let again = sys.ask(&probe).domain("cars").get().unwrap();
        assert!(Arc::ptr_eq(&warm, &again), "cache never warmed");
        drop(sys);
        let delta = fresh_delta(&affinities, DELTA_SESSIONS, 31);
        let report = {
            let mut sys = system.write().unwrap();
            sys.ingest_query_log("cars", &delta).unwrap()
        };
        assert_eq!(report.sessions, DELTA_SESSIONS);
        let sys = system.read().unwrap();
        let fresh = sys.ask(&probe).domain("cars").get().unwrap();
        assert!(
            !Arc::ptr_eq(&warm, &fresh),
            "stale-model answer served after ingest"
        );
    }

    // Counters are cumulative and the proof block above already evicted once;
    // snapshot so the serving-phase assertion measures only the phase itself.
    let stale_before = system.read().unwrap().cache_stats().stale_evictions;

    // The ingests are spread evenly across a fixed measurement window (rather than
    // fired back to back) so the cold/hot burst mix — and therefore the gated
    // qps_under_updates metric — is stable run to run instead of depending on how
    // quickly the writer wins its 8 write-lock acquisitions.
    let ingest_gap = std::time::Duration::from_millis(if test_mode { 5 } else { 40 });

    let serving_start = Instant::now();
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let system = Arc::clone(&system);
            let done = Arc::clone(&done);
            let answered = Arc::clone(&answered);
            let burst = burst.clone();
            std::thread::spawn(move || {
                while !done.load(Ordering::Acquire) {
                    let sys = system.read().expect("reader lock");
                    let results = sys.answer_batch(&burst);
                    drop(sys);
                    let ok = results.iter().filter(|r| r.is_ok()).count() as u64;
                    answered.fetch_add(ok, Ordering::Relaxed);
                }
            })
        })
        .collect();

    let mut generations = Vec::with_capacity(INGESTS);
    for i in 0..INGESTS {
        std::thread::sleep(ingest_gap);
        let delta = fresh_delta(&affinities, DELTA_SESSIONS, 1_000 + i as u64);
        {
            let mut sys = system.write().expect("writer lock");
            let report = sys.ingest_query_log("cars", &delta).unwrap();
            generations.push(report.model_generation);
        }
    }
    // Let the readers serve one more gap's worth of bursts after the final ingest,
    // so its invalidation is observed inside the measured window.
    std::thread::sleep(ingest_gap);
    done.store(true, Ordering::Release);
    for handle in readers {
        handle.join().expect("reader panicked");
    }
    let serving_secs = serving_start.elapsed().as_secs_f64();
    let answered = answered.load(Ordering::Relaxed);
    let qps_under_updates = answered as f64 / serving_secs;
    // Each ingest advanced the model generation exactly once, monotonically.
    assert!(generations.windows(2).all(|w| w[1] == w[0] + 1));

    let (stale_evictions, hits) = {
        let sys = system.read().unwrap();
        let stats = sys.cache_stats();
        (stats.stale_evictions, stats.hits)
    };
    assert!(
        stale_evictions > stale_before,
        "the serving phase's ingests never evicted a stale-model entry"
    );
    println!(
        "live_learning serving: {answered} answers in {serving_secs:.2}s under {INGESTS} \
         ingests ({qps_under_updates:.0} q/s, {stale_evictions} stale evictions, {hits} hits)"
    );

    if !test_mode {
        let serving_json = serde_json::json!({
            "records": table_size,
            "readers": READERS,
            "ingests": INGESTS,
            "answers": answered,
            "qps_under_updates": qps_under_updates,
            "stale_evictions": stale_evictions,
            "cache_hits": hits,
        });
        let json = serde_json::json!({
            "bench": "live_learning",
            "hardware_threads": std::thread::available_parallelism().map(usize::from).unwrap_or(1),
            "base_sessions": base_sessions,
            "delta_sessions": DELTA_SESSIONS,
            "ti_pairs": prebuilt.len(),
            "iterations": iterations,
            "full_rebuild_ms": rebuild_secs * 1e3,
            "incremental_apply_ms": apply_secs * 1e3,
            "apply_speedup_vs_rebuild": speedup,
            "serving": serving_json,
        });
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_live_learning.json"
        );
        std::fs::write(
            path,
            serde_json::to_string_pretty(&json).expect("serializable"),
        )
        .expect("write BENCH_live_learning.json");
        println!("wrote {path}");
    }

    let mut group = c.benchmark_group("live_learning");
    group.sample_size(10);
    group.bench_function("full_rebuild", |b| {
        b.iter(|| std::hint::black_box(TIMatrix::build(&combined)))
    });
    group.bench_function("incremental_apply", |b| {
        b.iter(|| {
            let mut live = prebuilt.clone();
            live.apply(std::hint::black_box(&delta));
            std::hint::black_box(live)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
