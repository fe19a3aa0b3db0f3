//! Runtime scaling of the dynamic programs (the paper's Table III CPU
//! column, generalized): DelayOpt vs BuffOpt over growing net sizes.
//!
//! The paper observes BuffOpt running *faster* than DelayOpt(k ≥ 3)
//! because pruning noise-violating candidates shrinks the lists; the
//! `candidate_pressure` group measures exactly that effect.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use buffopt::buffopt::{self as algo3, BuffOptOptions};
use buffopt::{DpWorkspace, Solution};
use buffopt_buffers::{catalog, BufferLibrary};
use buffopt_noise::NoiseScenario;
use buffopt_tree::{segment, Driver, RoutingTree, SinkSpec, Technology, TreeBuilder};

/// A comb-shaped net: a trunk with `sinks` teeth — representative of the
/// multi-sink global nets in the population.
fn comb_net(sinks: usize) -> RoutingTree {
    let tech = Technology::global_layer();
    let mut b = TreeBuilder::new(Driver::new(300.0, 20e-12));
    let mut trunk = b.source();
    for i in 0..sinks {
        trunk = b.add_internal(trunk, tech.wire(800.0)).expect("trunk");
        b.add_sink(
            trunk,
            tech.wire(600.0 + 100.0 * (i % 5) as f64),
            SinkSpec::new(15e-15, 1.5e-9, 0.8),
        )
        .expect("tooth");
    }
    segment::segment_wires(&b.build().expect("tree"), 400.0)
        .expect("segment")
        .tree
}

/// One DP run read as its best slack: BuffOpt with a scenario, DelayOpt
/// without one.
fn max_slack(
    tree: &RoutingTree,
    scenario: Option<&NoiseScenario>,
    lib: &BufferLibrary,
    max_buffers: Option<usize>,
) -> Solution {
    let opts = BuffOptOptions {
        max_buffers,
        ..BuffOptOptions::default()
    };
    algo3::solve(&mut DpWorkspace::new(), tree, scenario, lib, &opts)
        .expect("solves")
        .max_slack()
}

fn bench_scaling(c: &mut Criterion) {
    let lib = catalog::ibm_like();
    let mut group = c.benchmark_group("dp_scaling");
    group.sample_size(10);
    for sinks in [2usize, 4, 8, 16] {
        let tree = comb_net(sinks);
        let scenario = NoiseScenario::estimation(&tree, 0.7, 7.2e9);
        group.bench_with_input(BenchmarkId::new("delayopt", sinks), &sinks, |b, _| {
            b.iter(|| max_slack(&tree, None, &lib, None))
        });
        group.bench_with_input(BenchmarkId::new("buffopt", sinks), &sinks, |b, _| {
            b.iter(|| max_slack(&tree, Some(&scenario), &lib, None))
        });
    }
    group.finish();
}

fn bench_candidate_pressure(c: &mut Criterion) {
    // With a hard buffer cap (the paper's DelayOpt(4) setting) noise
    // pruning gives BuffOpt fewer candidates than DelayOpt.
    let lib = catalog::ibm_like();
    let tree = comb_net(10);
    let scenario = NoiseScenario::estimation(&tree, 0.7, 7.2e9);
    let mut group = c.benchmark_group("candidate_pressure");
    group.sample_size(10);
    group.bench_function("delayopt_k4", |b| {
        b.iter(|| max_slack(&tree, None, &lib, Some(4)))
    });
    group.bench_function("buffopt_k4", |b| {
        b.iter(|| max_slack(&tree, Some(&scenario), &lib, Some(4)))
    });
    group.finish();
}

fn bench_greedy_baseline(c: &mut Criterion) {
    // The related-work greedy (one audited buffer per round) against the
    // DP on the same net: slower *and* suboptimal, which is the paper's
    // case for building on van Ginneken.
    use buffopt::iterative::{self, IterativeOptions};
    let lib = catalog::ibm_like();
    let tree = comb_net(6);
    let scenario = NoiseScenario::estimation(&tree, 0.7, 7.2e9);
    let mut group = c.benchmark_group("greedy_vs_dp");
    group.sample_size(10);
    group.bench_function("greedy", |b| {
        b.iter(|| {
            iterative::optimize(
                &tree,
                &scenario,
                &lib,
                &IterativeOptions {
                    noise: false,
                    max_buffers: None,
                    ..Default::default()
                },
            )
            .expect("solves")
        })
    });
    group.bench_function("dp", |b| b.iter(|| max_slack(&tree, None, &lib, None)));
    group.finish();
}

criterion_group!(
    benches,
    bench_scaling,
    bench_candidate_pressure,
    bench_greedy_baseline
);
criterion_main!(benches);
