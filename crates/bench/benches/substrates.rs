//! Criterion micro-benchmarks for the substrates underneath the flows:
//! bit-parallel simulation, cone re-simulation, batch estimation, MIS
//! solving, conflict-graph construction, and technology mapping.

use accals::conflict::{conflict_graph, find_solve_conflicts};
use aig::NodeId;
use bitsim::{simulate, ConeSimulator, Patterns};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use errmetrics::{ErrorEval, MetricKind};
use estimate::BatchEstimator;
use lac::{generate_candidates, CandidateConfig, ScoredLac};
use misolver::{solve, Graph, MisStrategy};
use techmap::{map, Library, MapMode};

fn bench_simulation(c: &mut Criterion) {
    let g = benchgen::suite::by_name("mtp8").expect("known circuit");
    let pats = Patterns::random(g.n_pis(), 1 << 13, 1);
    c.bench_function("simulate/mtp8/8192pats", |b| {
        b.iter(|| simulate(&g, &pats))
    });

    let sim = simulate(&g, &pats);
    let mid = g.and_ids().nth(g.n_ands() / 2).expect("nonempty");
    let forced: Vec<u64> = sim.sig(mid).iter().map(|w| !w).collect();
    c.bench_function("cone_resim/mtp8/mid_node", |b| {
        b.iter_batched(
            || ConeSimulator::new(&g),
            |mut cs| cs.output_flips(&g, &sim, mid, &forced),
            BatchSize::SmallInput,
        )
    });
}

fn bench_estimator(c: &mut Criterion) {
    let g = benchgen::suite::by_name("c880").expect("known circuit");
    let pats = Patterns::random(g.n_pis(), 1 << 13, 1);
    let sim = simulate(&g, &pats);
    let golden = sim.output_sigs(&g);
    let mut eval = ErrorEval::new(MetricKind::Er, &golden, pats.n_patterns());
    eval.rebase(&golden);
    let cands = generate_candidates(&g, &sim, &CandidateConfig::default());
    c.bench_function("estimator/c880/all_candidates", |b| {
        b.iter(|| {
            let mut est = BatchEstimator::new(&g, &sim, &eval);
            est.score_all(&cands)
        })
    });
    c.bench_function("candidate_gen/c880", |b| {
        b.iter(|| generate_candidates(&g, &sim, &CandidateConfig::default()))
    });
}

fn random_graph(n: usize, avg_degree: usize, seed: u64) -> Graph {
    let mut g = Graph::new(n);
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 33) as usize
    };
    for _ in 0..n * avg_degree / 2 {
        let u = next() % n;
        let v = next() % n;
        g.add_edge(u, v);
    }
    g
}

fn bench_mis(c: &mut Criterion) {
    let g200 = random_graph(200, 8, 42);
    c.bench_function("mis/greedy/200v", |b| {
        b.iter(|| solve(&g200, MisStrategy::Greedy))
    });
    c.bench_function("mis/local_search/200v", |b| {
        b.iter(|| {
            solve(
                &g200,
                MisStrategy::LocalSearch {
                    iterations: 100,
                    seed: 7,
                },
            )
        })
    });
    let g36 = random_graph(36, 6, 43);
    c.bench_function("mis/exact/36v", |b| b.iter(|| solve(&g36, MisStrategy::Exact)));
}

fn bench_conflicts(c: &mut Criterion) {
    // Synthetic top set: 200 LACs over 120 target nodes with overlapping
    // substitutes.
    let lacs: Vec<ScoredLac> = (0..200)
        .map(|i| ScoredLac {
            lac: lac::Lac::new(
                NodeId::new(10 + i % 120),
                lac::LacKind::Wire {
                    sn: NodeId::new(10 + (i * 7) % 130),
                    neg: i % 2 == 0,
                },
            ),
            delta_e: i as f64 * 1e-4,
            gain: 1,
        })
        .collect();
    c.bench_function("conflict_graph/200lacs", |b| b.iter(|| conflict_graph(&lacs)));
    c.bench_function("conflict_solve/200lacs", |b| {
        b.iter(|| find_solve_conflicts(&lacs))
    });
}

fn bench_techmap(c: &mut Criterion) {
    let g = benchgen::adders::rca(32);
    let lib = Library::mcnc_mini();
    c.bench_function("techmap/rca32/area", |b| b.iter(|| map(&g, &lib, MapMode::Area)));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_simulation, bench_estimator, bench_mis, bench_conflicts, bench_techmap
}
criterion_main!(benches);
