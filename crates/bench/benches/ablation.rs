//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * wire-segmenting granularity (the Alpert–Devgan quality/run-time
//!   trade-off, paper reference [1] and footnote 3);
//! * paper pruning vs conservative 4-D pruning in the BuffOpt DP;
//! * buffer-library size (1 vs 11 types).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use buffopt::buffopt::{self as algo3, BuffOptOptions};
use buffopt::{DpWorkspace, Solution};
use buffopt_buffers::{catalog, BufferLibrary};
use buffopt_noise::NoiseScenario;
use buffopt_tree::{segment, Driver, RoutingTree, SinkSpec, Technology, TreeBuilder};

fn base_net() -> RoutingTree {
    let tech = Technology::global_layer();
    let mut b = TreeBuilder::new(Driver::new(300.0, 20e-12));
    let j = b.add_internal(b.source(), tech.wire(4_000.0)).expect("j");
    for i in 0..3 {
        b.add_sink(
            j,
            tech.wire(3_000.0 + 1_000.0 * i as f64),
            SinkSpec::new(15e-15, 1.5e-9, 0.8),
        )
        .expect("sink");
    }
    b.build().expect("tree")
}

fn prepared(max_segment: f64) -> (RoutingTree, NoiseScenario) {
    let t0 = base_net();
    let seg = segment::segment_wires(&t0, max_segment).expect("segment");
    let scenario = NoiseScenario::estimation(&t0, 0.7, 7.2e9).for_segmented(&seg);
    (seg.tree, scenario)
}

/// Problem 2: one DP run read as its best slack.
fn max_slack(
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    lib: &BufferLibrary,
    opts: &BuffOptOptions,
) -> Solution {
    algo3::solve(&mut DpWorkspace::new(), tree, Some(scenario), lib, opts)
        .expect("solves")
        .max_slack()
}

fn bench_segmenting(c: &mut Criterion) {
    let lib = catalog::ibm_like();
    let mut group = c.benchmark_group("segment_granularity");
    group.sample_size(10);
    // Coarser than ~1 mm leaves too few candidate sites for the noise
    // constraints on this net (the Theorem 1 spacing is ~2.2 mm from a
    // clean state but shrinks near the junction).
    for max_seg in [1_000.0, 500.0, 250.0, 125.0] {
        let (tree, scenario) = prepared(max_seg);
        group.bench_with_input(
            BenchmarkId::from_parameter(max_seg as usize),
            &max_seg,
            |b, _| b.iter(|| max_slack(&tree, &scenario, &lib, &BuffOptOptions::default())),
        );
    }
    group.finish();
}

fn bench_pruning_modes(c: &mut Criterion) {
    let lib = catalog::ibm_like();
    let (tree, scenario) = prepared(400.0);
    let mut group = c.benchmark_group("pruning_mode");
    group.sample_size(10);
    group.bench_function("paper_cq", |b| {
        b.iter(|| max_slack(&tree, &scenario, &lib, &BuffOptOptions::default()))
    });
    group.bench_function("conservative_4d", |b| {
        let opts = BuffOptOptions {
            conservative_pruning: true,
            ..BuffOptOptions::default()
        };
        b.iter(|| max_slack(&tree, &scenario, &lib, &opts))
    });
    group.finish();
}

fn bench_library_size(c: &mut Criterion) {
    let (tree, scenario) = prepared(400.0);
    let full = catalog::ibm_like();
    let single = catalog::single_buffer();
    let non_inverting: BufferLibrary = full.non_inverting();
    let mut group = c.benchmark_group("library_size");
    group.sample_size(10);
    for (name, lib) in [
        ("single", &single),
        ("non_inverting_6", &non_inverting),
        ("full_11", &full),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| max_slack(&tree, &scenario, lib, &BuffOptOptions::default()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_segmenting,
    bench_pruning_modes,
    bench_library_size
);
criterion_main!(benches);
