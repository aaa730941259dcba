//! Figure 5 bench: P@1 / P@5 / MRR of CQAds vs Random, cosine, AIMQ and FAQFinder over
//! the 40 test questions, plus a per-ranker timing breakdown of a single question so
//! the relative cost of each ranking strategy is visible in isolation.

use cqads_baselines::{AimqRanker, CosineRanker, FaqFinderRanker, RandomRanker, Ranker};
use cqads_bench::shared_testbed;
use cqads_eval::experiments::fig5_ranking;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let bed = shared_testbed();
    println!("{}", fig5_ranking::run(bed).report());

    let mut group = c.benchmark_group("fig5_ranking");
    group.sample_size(10);
    group.bench_function("full_comparison", |b| {
        b.iter(|| std::hint::black_box(fig5_ranking::run(bed)))
    });

    // Per-ranker micro comparison on one interpreted question.
    let question = &fig5_ranking::test_questions(bed)[0];
    let table = bed
        .system
        .database()
        .table(&question.domain)
        .expect("registered");
    let interp = question.gold.clone();
    let rankers: Vec<Box<dyn Ranker>> = vec![
        Box::new(RandomRanker::new(1)),
        Box::new(CosineRanker::new()),
        Box::new(AimqRanker::new()),
        Box::new(FaqFinderRanker::new()),
    ];
    for ranker in &rankers {
        group.bench_function(format!("rank_one_question/{}", ranker.name()), |b| {
            b.iter(|| std::hint::black_box(ranker.rank(&interp, table, 5)))
        });
    }
    group.bench_function("rank_one_question/CQAds", |b| {
        b.iter(|| {
            std::hint::black_box(
                bed.system
                    .ask(&question.text)
                    .domain(&question.domain)
                    .uncached()
                    .get(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
