//! The end-to-end run: build, replay untraced, check the answers, report the seven
//! end-to-end metrics.

use crate::args::Args;
use crate::clock::Clock;
use crate::inputs::Inputs;
use crate::metrics::{peak_rss_mb, Report};
use crate::replay::{
    check_cached_answers, is_ask, is_insert, replay, write_coda, CachedEqualsUncached, Replayed,
    Tally, Untraced,
};
use crate::stats::{median, median_f64, percentile, quiet_latency, ratio, secs, us};
use crate::sut::{SetupOp, Store, Sut};
use crate::workload::{plan, Plan, Shape, Workload};

/// Set-up measured as an op list: rebuilt [`Shape::rebuilds`] times, every op keeping
/// its quiet latency over the rebuilds. Returns the last system built and its ops
/// with their quiet times.
pub fn quiet_setup(
    inputs: &Inputs,
    shape: &Shape,
    clock: &Clock,
) -> Result<(Sut, Vec<SetupOp>), String> {
    let mut observed = Vec::new();
    let mut kept = None;
    for _ in 0..shape.rebuilds {
        // Drop the previous system first: peak memory is one system, not two.
        drop(kept.take());
        let (sut, ops) = Sut::build(inputs, shape.store, clock)?;
        observed.push(ops.iter().map(|op| op.ns).collect::<Vec<u64>>());
        kept = Some((sut, ops));
    }
    let (sut, mut ops) = kept.ok_or("set-up needs at least one build")?;
    for (op, ns) in ops.iter_mut().zip(quiet_latency(&observed)) {
        op.ns = ns;
    }
    Ok((sut, ops))
}

/// Shut the durable system down and recover it [`Shape::reopens`] times: the quiet
/// latency of `open_with` is the recovery time. The recovered system must hold the
/// records and give the pool answers the system had before shutdown.
fn recover(
    mut sut: Sut,
    inputs: &Inputs,
    shape: &Shape,
    plan: &Plan,
    clock: &Clock,
    tally: &mut Tally,
) -> Result<(Sut, u64), String> {
    let records = sut.total_records();
    let digests = |sut: &Sut| -> Vec<u64> {
        plan.questions
            .iter()
            .map(|q| sut.ask(q, false).map_or(0, |a| a.digest()))
            .collect()
    };
    let answers = digests(&sut);
    let fs = sut
        .shutdown()
        .ok_or_else(|| "recovery needs a durable store".to_string())?;
    let mut reopens = Vec::new();
    let mut recovered = None;
    for _ in 0..shape.reopens {
        drop(recovered.take());
        tally.attempt();
        let (sut, ns) = Sut::reopen(&fs, clock)?;
        reopens.push(vec![ns]);
        recovered = Some(sut);
    }
    let quiet = quiet_latency(&reopens).first().copied().unwrap_or(0);
    let mut sut = recovered.ok_or_else(|| "recovery needs at least one reopen".to_string())?;
    // The classifier is not persisted; retrain it before asking.
    sut.train(&inputs.training);
    let found = sut.total_records();
    tally.check(found == records, || {
        format!("recovered {found} records, had {records}")
    });
    tally.check(digests(&sut) == answers, || {
        "recovered system answers the pool differently".to_string()
    });
    Ok((sut, quiet))
}

/// Run one workload end to end, untraced.
pub fn run(args: &Args) -> Result<(Report, Tally), String> {
    let clock = Clock::start();
    let shape = Shape::new(args.workload, args.seconds, args.smoke);
    let durable = shape.store == Store::MemFs;
    // A plan with writes replays once more, untimed, to compare cached with uncached.
    let total_replays = shape.replays + usize::from(shape.cycles > 0);
    let inputs = Inputs::generate(args.seed, shape.scale, shape.fresh_needed(total_replays));

    let generated_ns = clock.now_ns();
    let (mut sut, setup) = quiet_setup(&inputs, &shape, &clock)?;
    let built_ns = clock.now_ns();
    let setup_ns: u64 = setup.iter().map(|op| op.ns).sum();
    let plan = plan(&sut, &inputs, &shape, total_replays, &clock)?;

    let planned_ns = clock.now_ns();

    let mut tally = Tally::default();
    let replayed: Replayed = replay(
        &mut sut,
        &inputs,
        &shape,
        &plan,
        0..shape.replays,
        &clock,
        &mut Untraced,
        &mut tally,
    );
    let replayed_ns = clock.now_ns();
    match args.workload {
        Workload::ServeHot => tally.check(
            replayed.cache.misses == 0 && replayed.cache.capacity_evictions == 0,
            || format!("serve_hot must only hit: {:?}", replayed.cache),
        ),
        Workload::IngestMixed => tally
            .check((0.65..=0.75).contains(&replayed.cache.hit_share()), || {
                format!("ingest_mixed hit share {}", replayed.cache.hit_share())
            }),
        Workload::AskPlenty | Workload::AskScarce => tally
            .check(replayed.cache.hits + replayed.cache.misses == 0, || {
                format!("uncached asks touched the cache: {:?}", replayed.cache)
            }),
    }
    if plan.is_read_only() {
        // The ask workloads' ops are their questions in order, asked uncached.
        let known = (args.workload != Workload::ServeHot).then_some(&replayed.first_digests[..]);
        check_cached_answers(&sut, &plan, known, &mut tally);
    } else {
        replay(
            &mut sut,
            &inputs,
            &shape,
            &plan,
            shape.replays..total_replays,
            &clock,
            &mut CachedEqualsUncached,
            &mut tally,
        );
    }

    let insert_quiet = if durable {
        replayed.quiet_of(&plan, is_insert)
    } else {
        let first = total_replays * shape.inserts_per_replay();
        write_coda(&mut sut, &inputs, &shape, first, &clock, &mut tally).insert_quiet
    };
    // A memory-only system recovers by rebuilding: its recovery time is its set-up.
    let recover_ns = if durable {
        let (recovered, ns) = recover(sut, &inputs, &shape, &plan, &clock, &mut tally)?;
        drop(recovered);
        ns
    } else {
        drop(sut);
        setup_ns
    };

    let asks = replayed.quiet_of(&plan, is_ask);
    let mut report = Report::default();
    report.metric("setup_s", secs(setup_ns));
    report.metric(
        "answer_qps",
        ratio(asks.len() as f64, secs(replayed.quiet_sum(&plan, |_| true))),
    );
    report.metric("answer_p50_us", us(median(&asks)));
    report.metric("answer_p95_us", us(percentile(&asks, 0.95)));
    report.metric("insert_p50_us", us(median(&insert_quiet)));
    report.metric("recover_s", secs(recover_ns));
    report.metric("peak_rss_mb", peak_rss_mb());

    report.count("replays", shape.replays);
    report.count("ops_per_replay", plan.ops.len());
    report.count("pool_questions", plan.questions.len());
    report.count(
        "ops_hash",
        format!("{:016x}", plan.ops_hash(&inputs, &shape, shape.replays)),
    );
    report.count(
        "answers_checksum",
        format!("{:016x}", replayed.answers_checksum()),
    );
    report.count("cache_hits", replayed.cache.hits);
    report.count("cache_misses", replayed.cache.misses);
    report.count("cache_stale_evictions", replayed.cache.stale_evictions);
    report.count(
        "cache_capacity_evictions",
        replayed.cache.capacity_evictions,
    );
    let observed_qps: Vec<f64> = replayed
        .observed_sums()
        .iter()
        .map(|&ns| ratio(asks.len() as f64, secs(ns)))
        .collect();
    report.count(
        "fastest_qps",
        format!(
            "{:.1}",
            ratio(asks.len() as f64, secs(replayed.fastest_sum()))
        ),
    );
    report.count(
        "observed_qps_median",
        format!("{:.1}", median_f64(&observed_qps)),
    );
    report.count(
        "wall_s",
        format!(
            "generate {:.1} + set-up {:.1} + select {:.1} + replay {:.1} + checks {:.1}",
            secs(generated_ns),
            secs(built_ns - generated_ns),
            secs(planned_ns - built_ns),
            secs(replayed_ns - planned_ns),
            secs(clock.now_ns() - replayed_ns)
        ),
    );
    Ok((report, tally))
}
