//! `cqads-benchmark-trace`: one workload, traced — the per-layer metrics.
//!
//! ```text
//! cargo run --release -p cqads-benchmark --bin cqads-benchmark-trace -- --workload ask_scarce --seed 1
//! ```
//!
//! The run replays the workload's op list untraced (the reference for what tracing
//! costs), then replays it again with the stage probes attached: after every
//! end-to-end op the probes re-execute it stage by stage through the layers' public
//! functions, record one span per call, and hold the staged answer against the
//! end-to-end one. Side probes measure what no op of the list reaches (a second
//! partial worker, sharded twins, negated questions, a full cache stripe, snapshot
//! and real-disk recovery). Spans go to `<target dir>/benchmark/<workload>.trace.json`.
//!
//! Every engine type the probes touch beyond `sut.rs` lives in this target, so an
//! engine API change can break this binary but never the end-to-end numbers.

#![forbid(unsafe_code)]

mod mirror;
mod probes;
mod spans;

use cqads_benchmark::args::Args;
use cqads_benchmark::clock::Clock;
use cqads_benchmark::inputs::{Inputs, CARS};
use cqads_benchmark::metrics::{Report, PER_LAYER};
use cqads_benchmark::replay::{is_ask, is_insert, replay, write_coda, Tally, Untraced};
use cqads_benchmark::stats::{
    median, median_f64, modal_half, percentile, quiet_latency, ratio, secs, us,
};
use cqads_benchmark::sut::{build_sharded, Parts, SetupKind, Store, Sut};
use cqads_benchmark::workload::{plan, steady_hits, Op, Plan, Shape};
use mirror::{overflow_fill_ns, Mirror};
use probes::{quiet_each, sharded_each, AskStats, Follower, Layer, StageTimes, Tracer, PASSES};
use spans::{Spans, Stage};
use std::path::PathBuf;
use std::process::ExitCode;

/// Questions the second-worker probe asks at most.
const SIDE_POOL: usize = 150;

/// Questions the sharded twins are asked at most, and the time each twin gets.
const SHARD_POOL: usize = 64;
const SHARD_BUDGET_NS: u64 = 3_000_000_000;

/// How many replays each phase of the traced run makes.
struct Phases {
    untraced: usize,
    traced: usize,
    twin: usize,
}

/// `$CARGO_TARGET_DIR` (or `target`) `/benchmark`.
fn output_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()))
        .join("benchmark")
}

fn mean_us(values: &[u64]) -> f64 {
    ratio(us(values.iter().sum()), values.len() as f64)
}

/// Time of the sharded front-end with 1 and 2 shards over the unsharded reader's, on
/// the pool questions (asked uncached, in pool order) that fit [`SHARD_BUDGET_NS`].
fn shard_ratios(
    sut: &Sut,
    parts: &Parts,
    inputs: &Inputs,
    plan: &Plan,
    clock: &Clock,
    tally: &mut Tally,
) -> Result<[f64; 2], String> {
    let questions: Vec<String> = plan.questions.iter().take(SHARD_POOL).cloned().collect();
    let expected: Vec<u64> = questions
        .iter()
        .map(|q| sut.ask(q, false).map(|a| a.digest()))
        .collect::<Result<_, _>>()?;
    let unsharded = quiet_each(
        &questions,
        &expected,
        clock,
        tally,
        "uncached reader",
        |q| sut.ask(q, false).map(|a| a.digest()),
    );
    let mut ratios = [0.0; 2];
    for (slot, shards) in [1usize, 2].into_iter().enumerate() {
        let sharded = build_sharded(parts.clone(), &inputs.training, shards)?;
        let times = sharded_each(
            &sharded,
            &questions,
            &expected,
            SHARD_BUDGET_NS,
            clock,
            tally,
        );
        let same_questions: u64 = unsharded[..times.len()].iter().sum();
        ratios[slot] = ratio(times.iter().sum::<u64>() as f64, same_questions as f64);
    }
    Ok(ratios)
}

/// Mean quiet `Executor::execute` time of negated questions with a page of exact
/// answers, and mean quiet `partial_answers` time of negated questions without: the
/// questions the gated pools leave out.
fn negated_costs(
    sut: &Sut,
    mirror: &Mirror,
    inputs: &Inputs,
    smoke: bool,
    clock: &Clock,
) -> (f64, f64) {
    let (want_exec, want_partial, batches) = if smoke { (4, 1, 2) } else { (40, 6, 8) };
    let (mut exec, mut partial) = (Vec::new(), Vec::new());
    'gather: for batch in 0..batches {
        // Batches far from the ones pool selection uses.
        for (question, negated) in inputs.candidates(inputs.cars(), 1_000 + batch, 400) {
            if exec.len() >= want_exec && partial.len() >= want_partial {
                break 'gather;
            }
            if !negated {
                continue;
            }
            let Ok(answer) = sut.ask(&question, false) else {
                continue;
            };
            if answer.domain() != CARS || !answer.has_negation() {
                continue;
            }
            let full_page = answer.exact_count() >= addb::DEFAULT_ANSWER_LIMIT;
            let list = if full_page { &mut exec } else { &mut partial };
            let want = if full_page { want_exec } else { want_partial };
            if list.len() < want {
                list.push(question);
            }
        }
    }
    let stage_mean = |questions: &[String], stage: Stage| {
        let mut best = vec![u64::MAX; questions.len()];
        for _ in 0..PASSES {
            for (i, question) in questions.iter().enumerate() {
                let mut rec = |s: Stage, start: u64, end: u64| {
                    if s == stage {
                        best[i] = best[i].min(end - start);
                    }
                };
                let _ = mirror.compute(CARS, question, clock, &mut rec);
            }
        }
        best.retain(|&ns| ns != u64::MAX);
        mean_us(&best)
    };
    (
        stage_mean(&exec, Stage::Execute),
        stage_mean(&partial, Stage::Partial),
    )
}

/// Σ quiet `partial_answers` time with two workers over one, on the first
/// [`SIDE_POOL`] pool questions that need partial matching.
fn workers2_ratio(mirror: &Mirror, sut: &Sut, plan: &Plan, clock: &Clock) -> f64 {
    let mut sums = [0u64; 2];
    let mut used = 0;
    for question in &plan.questions {
        if used == SIDE_POOL {
            break;
        }
        let Ok(domain) = sut.classify(question) else {
            continue;
        };
        let Ok(prepared) = mirror.prepare(&domain, question, clock, &mut |_, _, _| {}) else {
            continue;
        };
        let mut best = [u64::MAX; 2];
        for _ in 0..PASSES {
            for (slot, workers) in [1usize, 2].into_iter().enumerate() {
                let mut rec = |stage: Stage, start: u64, end: u64| {
                    if stage == Stage::Partial {
                        best[slot] = best[slot].min(end - start);
                    }
                };
                let _ = mirror.finish(&prepared, workers, clock, &mut rec);
            }
        }
        if best[0] != u64::MAX && best[1] != u64::MAX {
            sums[0] += best[0];
            sums[1] += best[1];
            used += 1;
        }
    }
    ratio(sums[1] as f64, sums[0] as f64)
}

/// What the durable store's side probes measured.
#[derive(Default)]
struct StorageProbe {
    wal_bytes_per_record: f64,
    snapshot_write_s: f64,
    snapshot_bytes_per_record: f64,
    realfs_recover_s: f64,
}

fn storage_probe(
    sut: &mut Sut,
    inputs: &Inputs,
    first_record: usize,
    workload: &str,
    clock: &Clock,
    tally: &mut Tally,
) -> Result<StorageProbe, String> {
    let mut probe = StorageProbe::default();
    // WAL growth per insert, with no asks (and so no audit frames) in between.
    let before = sut.stored_bytes();
    let extra = &inputs.fresh[first_record..];
    for record in extra {
        sut.insert(CARS, record.clone())?;
    }
    probe.wal_bytes_per_record = ratio((sut.stored_bytes() - before) as f64, extra.len() as f64);

    let mut writes = Vec::new();
    for _ in 0..PASSES {
        let (written, ns) = clock.time(|| sut.write_snapshot());
        tally.check(written == Ok(true), || {
            format!("write_snapshot: {written:?}")
        });
        writes.push(ns);
    }
    probe.snapshot_write_s = secs(writes.iter().min().copied().unwrap_or(0));
    let snapshot_bytes = sut
        .stored_files()
        .iter()
        .filter(|(path, _)| path.contains("snapshot-"))
        .map(|(_, len)| *len)
        .max()
        .unwrap_or(0);
    let records = sut.total_records();
    probe.snapshot_bytes_per_record = ratio(snapshot_bytes as f64, records as f64);

    // The same store on the real filesystem of the sandbox.
    let dir = output_dir().join(format!("{workload}.store"));
    let _ = std::fs::remove_dir_all(&dir);
    sut.export_store(&dir)?;
    let mut reopens = Vec::new();
    for _ in 0..PASSES {
        let (mut reopened, ns) = Sut::reopen_real(&dir, clock)?;
        tally.check(reopened.total_records() == records, || {
            "real-disk recovery lost records".to_string()
        });
        reopens.push(ns);
    }
    probe.realfs_recover_s = secs(reopens.iter().min().copied().unwrap_or(0));
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    Ok(probe)
}

fn run(args: &Args) -> Result<(Report, Tally), String> {
    let clock = Clock::start();
    let shape = Shape::new(args.workload, args.seconds, args.smoke);
    let durable = shape.store == Store::MemFs;
    let phases = if args.smoke {
        Phases {
            untraced: 2,
            traced: 2,
            twin: 1,
        }
    } else {
        Phases {
            untraced: 8,
            traced: 10,
            twin: 4,
        }
    };
    let main_replays = phases.untraced + phases.traced;
    let wal_probe = if durable { 8 } else { 0 };
    let inputs = Inputs::generate(
        args.seed,
        shape.scale,
        shape.fresh_needed(main_replays) + wal_probe,
    );
    let mut tally = Tally::default();

    let mut setup = Vec::new();
    let parts = Parts::build(&inputs, &clock, &mut setup)?;
    let mut sut = Sut::assemble(
        parts.clone(),
        &inputs.training,
        shape.store,
        &clock,
        &mut setup,
    )?;
    let setup_secs = |kind: SetupKind| -> f64 {
        secs(
            setup
                .iter()
                .filter(|op| op.kind == kind)
                .map(|op| op.ns)
                .sum(),
        )
    };
    let plan = plan(&sut, &inputs, &shape, main_replays, &clock)?;
    let (cache_capacity, cache_shards) = (4096, 16);

    // Side probes that need the system as built, before any replay writes to it.
    let shards = shard_ratios(&sut, &parts, &inputs, &plan, &clock, &mut tally)?;
    let publish_ns = (0..20)
        .map(|_| clock.time(|| sut.publish()).1)
        .min()
        .unwrap_or(0);

    // A memory-only twin of a durable system: what the store adds is the difference.
    let twin = if durable {
        let mut twin = Sut::assemble(
            parts.clone(),
            &inputs.training,
            Store::Memory,
            &clock,
            &mut Vec::new(),
        )?;
        let replayed = replay(
            &mut twin,
            &inputs,
            &shape,
            &plan,
            0..phases.twin,
            &clock,
            &mut Untraced,
            &mut tally,
        );
        Some(replayed)
    } else {
        None
    };

    let mut mirror = Mirror::new(parts, cache_capacity, cache_shards);
    let (negated_exec_us, negated_partial_us) =
        negated_costs(&sut, &mirror, &inputs, args.smoke, &clock);

    // The untraced reference, then the traced replays.
    let mut follower = Follower {
        clock: &clock,
        mirror: &mut mirror,
        readings: Vec::new(),
    };
    let untraced = replay(
        &mut sut,
        &inputs,
        &shape,
        &plan,
        0..phases.untraced,
        &clock,
        &mut follower,
        &mut tally,
    );
    let host_spread = follower.spread();
    let mut tracer = Tracer {
        clock: &clock,
        mirror: &mut mirror,
        spans: Spans::default(),
        times: StageTimes::new(phases.untraced, phases.traced, plan.ops.len()),
        stats: AskStats::default(),
        counts: sut.cache_counts(),
    };
    let traced = replay(
        &mut sut,
        &inputs,
        &shape,
        &plan,
        phases.untraced..main_replays,
        &clock,
        &mut tracer,
        &mut tally,
    );
    let Tracer {
        spans,
        times,
        stats,
        ..
    } = tracer;
    let modal = modal_half(&traced.observed_sums());
    let layer = |stage: Stage| Layer::of(times.quiet(stage, &modal));

    // What the op list does not reach.
    let workers2 = workers2_ratio(&mirror, &sut, &plan, &clock);
    let first_answer = sut.ask(&plan.questions[0], false)?;
    let overflow_ns = overflow_fill_ns(cache_capacity, cache_shards, first_answer.set(), &clock);

    let first_fresh = main_replays * shape.inserts_per_replay();
    let (memory_insert_us, first_ask_us, table_insert_us) = if durable {
        let twin = twin.as_ref().ok_or("durable run without its twin")?;
        let after_insert: Vec<u64> = plan
            .ops
            .windows(2)
            .zip(&untraced.quiet[1..])
            .filter(|(pair, _)| is_insert(&pair[0]) && is_ask(&pair[1]))
            .map(|(_, &ns)| ns)
            .collect();
        (
            mean_us(&twin.quiet_of(&plan, is_insert)),
            mean_us(&after_insert),
            layer(Stage::TableInsert).mean_us(),
        )
    } else {
        let coda = write_coda(&mut sut, &inputs, &shape, first_fresh, &clock, &mut tally);
        // The same records into the mirror's table: raw `Table::insert` at this size.
        let count = shape.coda.0 * shape.coda.1;
        let mut raw = Vec::new();
        for record in &inputs.fresh[first_fresh..first_fresh + count] {
            mirror.insert(CARS, record.clone(), &clock, &mut |_, start, end| {
                raw.push(end - start)
            })?;
        }
        (
            mean_us(&coda.insert_quiet),
            mean_us(&coda.first_ask_quiet),
            mean_us(&quiet_latency(&[raw.clone()])),
        )
    };
    let storage = if durable {
        let first = shape.fresh_needed(main_replays);
        storage_probe(
            &mut sut,
            &inputs,
            first,
            args.workload.name(),
            &clock,
            &mut tally,
        )?
    } else {
        StorageProbe::default()
    };

    let trace_path = output_dir().join(format!("{}.trace.json", args.workload.name()));
    spans
        .write(&trace_path, args.workload.name(), args.seed)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    // ---- the per-layer metrics ----------------------------------------------
    let asks = untraced.quiet_of(&plan, is_ask);
    // Stage times come from the traced replays, where every op runs after a probe
    // has walked the mirror's copy of the data through the caches; shares are taken
    // over the end-to-end time under those same conditions.
    let ask_time = traced.quiet_sum(&plan, is_ask) as f64;
    let staged_time: u64 = Stage::ALL
        .iter()
        .filter(|s| s.is_ask_stage())
        .map(|&s| layer(s).sum_ns())
        .sum();
    let hits = steady_hits(&plan.ops);
    let hit_mean = |replayed: &cqads_benchmark::replay::Replayed| -> f64 {
        let quiet: Vec<u64> = replayed
            .quiet
            .iter()
            .zip(&hits)
            .filter(|(_, &hit)| hit)
            .map(|(&ns, _)| ns)
            .collect();
        mean_us(&quiet)
    };
    let durable_insert_us = mean_us(&untraced.quiet_of(&plan, is_insert));
    let (wal_append_us, audit_append_us) = match &twin {
        Some(twin) => (
            durable_insert_us - memory_insert_us,
            hit_mean(&untraced) - hit_mean(twin),
        ),
        None => (0.0, 0.0),
    };
    let observed_qps: Vec<f64> = untraced
        .observed_sums()
        .iter()
        .map(|&ns| ratio(asks.len() as f64, secs(ns)))
        .collect();
    let asks_seen = stats.asks.max(1) as f64;

    let mut report = Report::default();
    report.metric("classifier.classify_us", layer(Stage::Classify).mean_us());
    report.metric(
        "classifier.misroute_share",
        ratio(plan.pool.misrouted as f64, plan.questions.len() as f64),
    );
    report.metric("tagging.tag_us", layer(Stage::Tag).mean_us());
    report.metric("tagging.repaired_share", stats.repaired as f64 / asks_seen);
    report.metric("translate.interpret_us", layer(Stage::Interpret).mean_us());
    report.metric(
        "translate.rejected_share",
        ratio(plan.pool.rejected as f64, plan.pool.asked as f64),
    );
    report.metric("exec.execute_us", layer(Stage::Execute).mean_us());
    report.metric("exec.execute_p95_us", layer(Stage::Execute).p95_us());
    report.metric(
        "exec.time_share",
        ratio(layer(Stage::Execute).sum_ns() as f64, ask_time),
    );
    report.metric("exec.exact_count_mean", stats.exact as f64 / asks_seen);
    report.metric("exec.negated_us", negated_exec_us);
    report.metric("partial.topk_us", layer(Stage::Partial).mean_us());
    report.metric("partial.topk_p95_us", layer(Stage::Partial).p95_us());
    report.metric(
        "partial.time_share",
        ratio(layer(Stage::Partial).sum_ns() as f64, ask_time),
    );
    report.metric("partial.answers_mean", stats.partial as f64 / asks_seen);
    report.metric(
        "partial.conditions_mean",
        ratio(stats.conditions as f64, stats.partial_ops as f64),
    );
    report.metric("partial.workers2_ratio", workers2);
    report.metric("partial.negated_us", negated_partial_us);
    report.metric(
        "pipeline.glue_share",
        1.0 - ratio(staged_time as f64, ask_time),
    );
    report.metric("pipeline.answer_p99_us", us(percentile(&asks, 0.99)));
    report.metric(
        "pipeline.answer_max_us",
        us(asks.iter().max().copied().unwrap_or(0)),
    );
    report.metric("cache.key_us", layer(Stage::CacheKey).mean_us());
    report.metric(
        "cache.lookup_hit_us",
        layer(Stage::CacheLookupHit).mean_us(),
    );
    report.metric("cache.fill_us", layer(Stage::CacheFill).mean_us());
    report.metric("cache.hit_share", untraced.cache.hit_share());
    report.metric(
        "cache.stale_evictions",
        untraced.cache.stale_evictions as f64,
    );
    report.metric(
        "cache.capacity_evictions",
        untraced.cache.capacity_evictions as f64,
    );
    report.metric("cache.overflow_fill_us", us(overflow_ns));
    report.metric("handle.insert_us", memory_insert_us);
    report.metric("handle.publish_us", us(publish_ns));
    report.metric("handle.first_ask_after_insert_us", first_ask_us);
    report.metric("table.insert_us", table_insert_us);
    report.metric("table.build_s", setup_secs(SetupKind::TableChunk));
    report.metric("storage.wal_append_us", wal_append_us);
    report.metric("storage.audit_append_us", audit_append_us);
    report.metric("storage.snapshot_write_s", storage.snapshot_write_s);
    report.metric("storage.wal_bytes_per_record", storage.wal_bytes_per_record);
    report.metric(
        "storage.snapshot_bytes_per_record",
        storage.snapshot_bytes_per_record,
    );
    report.metric("storage.realfs_recover_s", storage.realfs_recover_s);
    report.metric(
        "querylog.ingest_us",
        mean_us(&untraced.quiet_of(&plan, |op| matches!(op, Op::Ingest))),
    );
    report.metric("querylog.build_s", setup_secs(SetupKind::TiBuild));
    report.metric("shard.n1_ratio", shards[0]);
    report.metric("shard.n2_ratio", shards[1]);
    report.metric("loadgen.observed_qps_median", median_f64(&observed_qps));
    report.metric(
        "loadgen.observed_p50_us",
        us(median(&untraced.observed_ask_p50(&plan))),
    );
    report.metric("loadgen.host_spread", host_spread);
    report.metric(
        "loadgen.fastest_ratio",
        ratio(
            untraced.fastest_sum() as f64,
            untraced.quiet.iter().sum::<u64>() as f64,
        ),
    );
    report.metric("loadgen.replays", phases.untraced as f64);
    report.metric("loadgen.pool_select_s", secs(plan.pool.select_ns));
    report.metric(
        "trace.overhead_ratio",
        ratio(
            traced.quiet.iter().sum::<u64>() as f64,
            untraced.quiet.iter().sum::<u64>() as f64,
        ),
    );
    debug_assert!(PER_LAYER.iter().all(|m| report.value(m.0).is_some()));

    report.count("spans", spans.len());
    report.count("trace_file", trace_path.display());
    report.count(
        "ops_hash",
        format!("{:016x}", plan.ops_hash(&inputs, &shape, main_replays)),
    );
    report.count(
        "answers_checksum",
        format!("{:016x}", untraced.answers_checksum()),
    );
    report.count("wall_s", format!("{:.1}", secs(clock.now_ns())));
    Ok((report, tally))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1), true) {
        Ok(args) if args.trace && args.audit.is_none() => args,
        Ok(_) => {
            eprintln!("--trace 0 and --audit are the cqads-benchmark binary");
            return ExitCode::from(2);
        }
        Err(usage) => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((report, tally)) => {
            report.print(&tally);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark trace: {e}");
            ExitCode::FAILURE
        }
    }
}
