//! Durability bench: WAL append throughput (with and without fsync), snapshot
//! write time, and recovery time as a function of WAL tail length.
//!
//! Correctness is asserted before any timing, in every mode: a durable
//! [`CqadsSystem`] is mutated, reopened from its files, and must come back
//! with identical records, identical answers and non-regressed generations —
//! the same contract the crash-recovery property tests enforce.
//!
//! * **WAL appends** run against the real filesystem (a scratch directory
//!   under `target/`) so the fsync column measures actual disk syncs; the
//!   no-fsync column is the engine + codec overhead. Batched appends
//!   ([`StorageEngine::append_batch`]) amortize the write syscall and are the
//!   bulk-load path ([`CqadsSystem::insert_record_batch`]).
//! * **Recovery** replays system-level WAL tails of two lengths from an
//!   in-memory filesystem, isolating decode + replay CPU from disk variance;
//!   the gated metric is milliseconds per 1000 replayed frames.
//!
//! Results land in `BENCH_durability.json` at the workspace root (full mode
//! only).

// This target measures real wall time by design.
#![allow(clippy::disallowed_methods)]

use addb::{Record, Table};
use cqads::domain::toy_car_domain;
use cqads::{CqadsConfig, CqadsSystem, StorageOptions};
use cqads_querylog::TIMatrix;
use cqads_storage::{MemFs, RealFs, StorageEngine, Vfs, WalRecord};
use criterion::{criterion_group, criterion_main, Criterion};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

fn car(i: u32) -> Record {
    const MAKES: [&str; 4] = ["honda", "toyota", "ford", "chevy"];
    const MODELS: [&str; 4] = ["accord", "camry", "focus", "civic"];
    const COLORS: [&str; 3] = ["blue", "red", "gold"];
    Record::builder()
        .text("make", MAKES[i as usize % MAKES.len()])
        .text("model", MODELS[i as usize % MODELS.len()])
        .text("color", COLORS[i as usize % COLORS.len()])
        .text(
            "transmission",
            if i.is_multiple_of(2) {
                "automatic"
            } else {
                "manual"
            },
        )
        .number("price", 4_000.0 + (i % 977) as f64 * 13.0)
        .number("year", 2000.0 + (i % 10) as f64)
        .number("mileage", 30_000.0 + (i % 7_919) as f64 * 11.0)
        .build()
}

/// Scratch directory under `target/` (kept inside the workspace).
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn mem_opts(fs: &Arc<MemFs>, dir: &str) -> StorageOptions {
    let mut opts = StorageOptions::with_vfs(dir, Arc::clone(fs) as Arc<dyn Vfs>);
    opts.snapshot_every = 0; // keep every frame in one epoch
    opts.audit_queries = false;
    opts
}

/// Build a durable system over `fs`, register the toy car domain and insert
/// `rows` records one by one (one WAL frame each).
fn build_durable(fs: &Arc<MemFs>, rows: u32) -> CqadsSystem {
    let config = CqadsConfig {
        storage: Some(mem_opts(fs, "db")),
        ..CqadsConfig::default()
    };
    let mut system = CqadsSystem::try_with_config(config).expect("open fresh MemFs store");
    let spec = toy_car_domain();
    let table = Table::new(spec.schema.clone());
    system
        .try_add_domain(spec, table, TIMatrix::default())
        .expect("register domain");
    for i in 0..rows {
        system.insert_record("cars", car(i)).expect("insert");
    }
    system
}

/// The identity contract, asserted before any timing: reopening must restore
/// the exact records and answers, and generations must never regress.
fn assert_recovery_identity() {
    let fs = Arc::new(MemFs::default());
    let system = build_durable(&fs, 50);
    let stamp = (
        system.database().generation("cars").unwrap(),
        system.model_generation("cars").unwrap(),
    );
    let probe = |s: &CqadsSystem| {
        s.ask("blue automatic cars")
            .domain("cars")
            .uncached()
            .get()
            .unwrap()
            .answers
            .iter()
            .map(|a| (a.id, a.rank_sim.to_bits()))
            .collect::<Vec<_>>()
    };
    let reopened = CqadsSystem::try_with_config(CqadsConfig {
        storage: Some(mem_opts(&fs, "db")),
        ..CqadsConfig::default()
    })
    .expect("reopen");
    assert!(reopened.storage_report().unwrap().is_clean());
    let rows = |s: &CqadsSystem| {
        s.database()
            .table("cars")
            .unwrap()
            .iter()
            .map(|(id, r)| (id, r.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(rows(&system), rows(&reopened), "records diverged");
    assert_eq!(probe(&system), probe(&reopened), "answers diverged");
    assert!(reopened.database().generation("cars").unwrap() >= stamp.0);
    assert!(reopened.model_generation("cars").unwrap() >= stamp.1);
}

fn median_secs(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    samples[samples.len() / 2]
}

/// Append `count` insert frames to a fresh engine in `dir`, one engine-level
/// append (and one sync when `fsync`) per frame; returns appends per second.
fn wal_append_rate(dir: &PathBuf, fsync: bool, count: u32) -> f64 {
    let (mut engine, recovered) =
        StorageEngine::open(Arc::new(RealFs) as Arc<dyn Vfs>, dir, fsync).expect("open scratch");
    assert!(recovered.report.is_clean());
    let frames: Vec<WalRecord> = (0..count)
        .map(|i| WalRecord::Insert {
            domain: "cars".into(),
            record: car(i),
            table_gen: (i + 1) as u64,
        })
        .collect();
    let start = Instant::now();
    for frame in &frames {
        engine.append(std::hint::black_box(frame)).expect("append");
    }
    count as f64 / start.elapsed().as_secs_f64()
}

fn bench(c: &mut Criterion) {
    let test_mode = c.is_test_mode();
    let (appends_nofsync, appends_fsync, snap_rows, tails) = if test_mode {
        (200u32, 10u32, 200u32, [100u32, 300u32])
    } else {
        (20_000u32, 100u32, 5_000u32, [1_000u32, 4_000u32])
    };

    // Correctness first, in every mode.
    assert_recovery_identity();

    // ---- WAL append throughput, real filesystem -----------------------------
    let dir = scratch("bench_durability_wal");
    let per_sec_nofsync = wal_append_rate(&dir.join("nofsync"), false, appends_nofsync);
    let per_sec_fsync = wal_append_rate(&dir.join("fsync"), true, appends_fsync);

    // Batched appends: one write (no sync) per 64-frame batch.
    let batch: Vec<WalRecord> = (0..64u32)
        .map(|i| WalRecord::Insert {
            domain: "cars".into(),
            record: car(i),
            table_gen: (i + 1) as u64,
        })
        .collect();
    let (mut engine, _) =
        StorageEngine::open(Arc::new(RealFs) as Arc<dyn Vfs>, dir.join("batch"), false)
            .expect("open scratch");
    let batches = (appends_nofsync / 64).max(1);
    let start = Instant::now();
    for _ in 0..batches {
        engine
            .append_batch(std::hint::black_box(&batch))
            .expect("append_batch");
    }
    let batched_per_sec = (batches * 64) as f64 / start.elapsed().as_secs_f64();

    // ---- Snapshot write time, real filesystem -------------------------------
    let snap_dir = dir.join("snapshot");
    let mut opts = StorageOptions::at(&snap_dir);
    opts.fsync = false;
    opts.snapshot_every = 0;
    opts.audit_queries = false;
    let config = CqadsConfig {
        storage: Some(opts),
        ..CqadsConfig::default()
    };
    let mut snap_system = CqadsSystem::try_with_config(config).expect("open scratch store");
    let spec = toy_car_domain();
    snap_system
        .try_add_domain(
            spec.clone(),
            Table::new(spec.schema.clone()),
            TIMatrix::default(),
        )
        .expect("register domain");
    snap_system
        .insert_record_batch("cars", (0..snap_rows).map(car).collect())
        .expect("bulk load");
    let snapshot_samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let seq = snap_system.write_snapshot().expect("snapshot");
            assert!(seq.is_some());
            start.elapsed().as_secs_f64()
        })
        .collect();
    let snapshot_ms = median_secs(snapshot_samples) * 1e3;

    // ---- Recovery time vs tail length, in-memory filesystem -----------------
    let mut recovery = Vec::new();
    let mut per_1k_ms = 0.0;
    for &tail in &tails {
        let fs = Arc::new(MemFs::default());
        let system = build_durable(&fs, tail);
        let expected_rows = system.database().table("cars").unwrap().iter().count();
        drop(system);
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                let start = Instant::now();
                let reopened = CqadsSystem::try_with_config(CqadsConfig {
                    storage: Some(mem_opts(&fs, "db")),
                    ..CqadsConfig::default()
                })
                .expect("reopen");
                let elapsed = start.elapsed().as_secs_f64();
                assert_eq!(
                    reopened.database().table("cars").unwrap().iter().count(),
                    expected_rows
                );
                elapsed
            })
            .collect();
        let reopen_ms = median_secs(samples) * 1e3;
        per_1k_ms = reopen_ms / (tail as f64 / 1_000.0);
        recovery.push((tail, reopen_ms));
    }

    println!(
        "durability: wal append {per_sec_nofsync:.0}/s (no fsync), {per_sec_fsync:.0}/s (fsync), \
         {batched_per_sec:.0}/s batched; snapshot of {snap_rows} rows {snapshot_ms:.2} ms"
    );
    for (tail, reopen_ms) in &recovery {
        println!("durability: recovery of a {tail}-frame tail {reopen_ms:.2} ms");
    }
    println!("durability: recovery {per_1k_ms:.2} ms per 1k frames");

    if !test_mode {
        let wal_json = serde_json::json!({
            "appends_nofsync": appends_nofsync,
            "appends_per_sec_nofsync": per_sec_nofsync,
            "appends_fsync": appends_fsync,
            "appends_per_sec_fsync": per_sec_fsync,
            "batched_appends_per_sec": batched_per_sec,
        });
        let snapshot_json = serde_json::json!({
            "rows": snap_rows,
            "write_ms": snapshot_ms,
        });
        let recovery_json: Vec<serde_json::Value> = recovery
            .iter()
            .map(|(tail, ms)| {
                serde_json::json!({
                    "frames": tail,
                    "reopen_ms": ms,
                })
            })
            .collect();
        let json = serde_json::json!({
            "bench": "durability",
            "hardware_threads": std::thread::available_parallelism().map(usize::from).unwrap_or(1),
            "identity": "asserted",
            "wal": wal_json,
            "snapshot": snapshot_json,
            "recovery": recovery_json,
            "recovery_ms_per_1k_frames": per_1k_ms,
        });
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_durability.json");
        std::fs::write(
            path,
            serde_json::to_string_pretty(&json).expect("serializable"),
        )
        .expect("write BENCH_durability.json");
        println!("wrote {path}");
    }
    let _ = std::fs::remove_dir_all(&dir);

    let mut group = c.benchmark_group("durability");
    group.sample_size(10);
    let append_dir = scratch("bench_durability_group");
    let (mut engine, _) = StorageEngine::open(Arc::new(RealFs) as Arc<dyn Vfs>, &append_dir, false)
        .expect("open scratch");
    let mut i = 0u32;
    group.bench_function("wal_append_nofsync", |b| {
        b.iter(|| {
            i += 1;
            engine
                .append(std::hint::black_box(&WalRecord::Insert {
                    domain: "cars".into(),
                    record: car(i),
                    table_gen: i as u64,
                }))
                .expect("append")
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&append_dir);
}

criterion_group!(benches, bench);
criterion_main!(benches);
