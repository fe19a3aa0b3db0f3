//! The headline robustness scenario: a batch over a directory holding a
//! valid net, a malformed net, a noise-infeasible net, and a
//! budget-busting net must complete all four with per-net outcome
//! records — no panic, no hang — and the budget must be honored with
//! typed errors while the default budget changes nothing.

use std::time::Duration;

use buffopt::buffopt::{self as algo3, BuffOptOptions};
use buffopt::{CoreError, DpWorkspace, RunBudget};
use buffopt_buffers::catalog;
use buffopt_netlist::{parse, write, ParsedNet};
use buffopt_pipeline::{run_batch, NetInput, Outcome, PipelineConfig, Rung};
use buffopt_workload::{adversarial, WorkloadConfig};

/// Round-trips a constructed net through the text format, as the CLI's
/// `--batch` directory scan would.
fn via_format(
    name: &str,
    tree: buffopt_tree::RoutingTree,
    scenario: buffopt_noise::NoiseScenario,
) -> String {
    let node_names = (0..tree.len()).map(|_| None).collect();
    write(&ParsedNet {
        name: Some(name.to_string()),
        tree,
        scenario,
        node_names,
    })
}

/// Builds the four-net directory on disk, scans it back like the CLI
/// does, and runs the batch.
#[test]
fn four_net_batch_completes_with_records() {
    let cfg = WorkloadConfig::default();
    let dir = std::env::temp_dir().join(format!("buffopt-batch-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    let (vt, vs) = adversarial::valid_net(&cfg);
    let (nt, ns) = adversarial::noise_infeasible_net(&cfg);
    let (bt, bs) = adversarial::budget_busting_net(&cfg, 60);
    std::fs::write(dir.join("a_valid.net"), via_format("valid", vt, vs)).expect("write");
    std::fs::write(
        dir.join("b_malformed.net"),
        adversarial::malformed_net_text(),
    )
    .expect("write");
    std::fs::write(dir.join("c_noise.net"), via_format("noisy", nt, ns)).expect("write");
    std::fs::write(dir.join("d_budget.net"), via_format("buster", bt, bs)).expect("write");

    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("readable")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    paths.sort();
    let inputs: Vec<NetInput> = paths
        .iter()
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            match parse(&std::fs::read_to_string(p).expect("readable")) {
                Ok(net) => NetInput::Parsed {
                    name,
                    tree: net.tree,
                    scenario: net.scenario,
                },
                Err(e) => NetInput::Failed {
                    name,
                    error: e.to_string(),
                },
            }
        })
        .collect();
    assert_eq!(inputs.len(), 4);

    let pipeline_cfg = PipelineConfig {
        // Admits the other nets (the valid net segments to ~17 nodes, the
        // noisy one to ~13) but not the buster, whose chain segments to
        // ~123 nodes for the DP rungs.
        max_tree_nodes: Some(70),
        time_limit: Some(Duration::from_secs(60)),
        ..PipelineConfig::new(catalog::ibm_like())
    };
    let report = run_batch(&inputs, &pipeline_cfg);

    assert_eq!(report.outcomes.len(), 4, "every net gets a record");
    let by_name = |n: &str| {
        report
            .outcomes
            .iter()
            .find(|o| o.name.starts_with(n))
            .unwrap_or_else(|| panic!("record for {n}"))
    };
    let valid = by_name("a_valid");
    assert_eq!(valid.outcome, Outcome::Optimized);
    assert_eq!(valid.rung, Some(Rung::Problem3));
    assert!(valid.solution.is_some());

    let malformed = by_name("b_malformed");
    assert_eq!(malformed.outcome, Outcome::ParseError);
    assert!(malformed.error.as_deref().unwrap().contains("line"));

    let noisy = by_name("c_noise");
    assert_eq!(noisy.outcome, Outcome::Infeasible);
    assert_eq!(noisy.rung, Some(Rung::Unbuffered));
    assert!(
        noisy.worst_headroom.unwrap() < 0.0,
        "diagnosis shows the violation"
    );

    let buster = by_name("d_budget");
    assert_ne!(buster.outcome, Outcome::Optimized);
    assert!(
        buster
            .attempts
            .iter()
            .any(|a| a.error.contains("tree nodes")),
        "budget rejection is recorded: {:?}",
        buster.attempts
    );

    // The JSONL report serializes one line per net and the summary adds up.
    let jsonl = report.to_jsonl();
    assert_eq!(jsonl.lines().count(), 4);
    let s = report.summary();
    assert_eq!(
        s.optimized + s.degraded + s.infeasible + s.parse_errors + s.failed,
        4
    );
    assert_eq!(report.exit_code(), 3, "parse error dominates the exit code");

    std::fs::remove_dir_all(&dir).ok();
}

/// Tiny caps produce the typed errors; the unlimited default reproduces
/// the unbudgeted result exactly.
#[test]
fn budgets_yield_typed_errors_and_default_is_identity() {
    let cfg = WorkloadConfig::default();
    let (tree, scenario) = adversarial::valid_net(&cfg);
    let seg = buffopt_tree::segment::segment_wires(&tree, 500.0).expect("segment");
    let scenario = scenario.for_segmented(&seg);
    let tree = seg.tree;
    let lib = catalog::ibm_like();
    // Problem 3 with its best-slack fallback, as the pipeline serves it.
    let min_buffers = |opts: &BuffOptOptions| {
        algo3::solve(&mut DpWorkspace::new(), &tree, Some(&scenario), &lib, opts)
            .map(|f| f.min_buffers())
    };

    let squeezed = BuffOptOptions {
        budget: RunBudget::default().with_max_candidates(1),
        ..BuffOptOptions::default()
    };
    assert!(matches!(
        min_buffers(&squeezed),
        Err(CoreError::BudgetExceeded { .. })
    ));

    let expired = BuffOptOptions {
        budget: RunBudget::default().with_time_limit(Duration::ZERO),
        ..BuffOptOptions::default()
    };
    assert!(matches!(
        min_buffers(&expired),
        Err(CoreError::DeadlineExceeded)
    ));

    let unbudgeted = min_buffers(&BuffOptOptions::default()).expect("solves");
    let roomy = BuffOptOptions {
        budget: RunBudget::default()
            .with_time_limit(Duration::from_secs(600))
            .with_max_candidates(1_000_000)
            .with_max_tree_nodes(1_000_000),
        ..BuffOptOptions::default()
    };
    let budgeted = min_buffers(&roomy).expect("solves");
    assert_eq!(unbudgeted.buffers, budgeted.buffers);
    assert_eq!(unbudgeted.slack, budgeted.slack);
    assert_eq!(unbudgeted.assignment, budgeted.assignment);
}
