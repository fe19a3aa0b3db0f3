//! The engine's headline guarantees, end to end: a parallel batch over
//! healthy, panicking, and budget-exploding nets yields exactly one
//! record per input, in input order, byte-identical to a serial run;
//! and repeated nets are served from the cache as identical records.

use std::time::{Duration, Instant};

use buffopt_buffers::catalog;
use buffopt_pipeline::{NetInput, Outcome, PipelineConfig};
use buffopt_server::{CacheStatus, Engine, EngineOptions, Job};
use buffopt_workload::{adversarial, estimation_scenario, WorkloadConfig};

fn healthy(name: &str, cfg: &WorkloadConfig) -> NetInput {
    let (tree, scenario) = adversarial::valid_net(cfg);
    NetInput::Parsed {
        name: name.to_string(),
        tree,
        scenario,
    }
}

/// A net whose optimization *panics*: the scenario was built for a
/// different (smaller) tree, so `for_segmented` indexes out of bounds.
/// The pipeline's guards must turn that into a record, and the pool must
/// not lose the slot.
fn panicking(name: &str, cfg: &WorkloadConfig) -> NetInput {
    let (big_tree, _) = adversarial::budget_busting_net(cfg, 10);
    let (small_tree, _) = adversarial::valid_net(cfg);
    let wrong_scenario = estimation_scenario(&small_tree, cfg);
    assert!(
        wrong_scenario.len() < big_tree.len(),
        "the mismatch must index out of bounds"
    );
    NetInput::Parsed {
        name: name.to_string(),
        tree: big_tree,
        scenario: wrong_scenario,
    }
}

/// A net that explodes every DP budget (caught by `max_tree_nodes`).
fn buster(name: &str, cfg: &WorkloadConfig) -> NetInput {
    let (tree, scenario) = adversarial::budget_busting_net(cfg, 60);
    NetInput::Parsed {
        name: name.to_string(),
        tree,
        scenario,
    }
}

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        max_tree_nodes: Some(70),
        time_limit: Some(Duration::from_secs(60)),
        ..PipelineConfig::new(catalog::ibm_like())
    }
}

fn mixed_batch(n_healthy: usize) -> Vec<Job> {
    let cfg = WorkloadConfig::default();
    let mut inputs = vec![panicking("panics", &cfg)];
    for i in 0..n_healthy {
        inputs.push(healthy(&format!("ok{i}"), &cfg));
    }
    inputs.push(buster("buster", &cfg));
    inputs
        .into_iter()
        .map(|input| Job {
            input,
            cache_key: None,
        })
        .collect()
}

#[test]
fn mixed_batch_yields_one_record_per_input_in_order() {
    const HEALTHY: usize = 8;
    let engine = Engine::new(
        pipeline_config(),
        EngineOptions {
            jobs: 4,
            ..EngineOptions::default()
        },
    );
    let report = engine.run_jobs(mixed_batch(HEALTHY));

    assert_eq!(report.outcomes.len(), HEALTHY + 2, "no record lost");
    let names: Vec<&str> = report.outcomes.iter().map(|o| o.name.as_str()).collect();
    let mut expected = vec!["panics".to_string()];
    expected.extend((0..HEALTHY).map(|i| format!("ok{i}")));
    expected.push("buster".to_string());
    assert_eq!(names, expected, "records come back in input order");

    // The panicking net got a record, not a hung slot, and did not take
    // the healthy nets down with it.
    let panicked = &report.outcomes[0];
    assert_ne!(panicked.outcome, Outcome::Optimized);
    for o in &report.outcomes[1..=HEALTHY] {
        assert_eq!(o.outcome, Outcome::Optimized, "{} suffered", o.name);
    }
    let buster = report.outcomes.last().unwrap();
    assert!(
        buster
            .attempts
            .iter()
            .any(|a| a.error.contains("tree nodes")),
        "budget rejection recorded: {:?}",
        buster.attempts
    );
    // Exit-code semantics are the pipeline's own.
    assert_eq!(report.exit_code(), 3);
}

#[test]
fn parallel_report_matches_serial() {
    const HEALTHY: usize = 6;
    let serial = Engine::new(
        pipeline_config(),
        EngineOptions {
            jobs: 1,
            cache_capacity: 0,
            ..EngineOptions::default()
        },
    );
    let parallel = Engine::new(
        pipeline_config(),
        EngineOptions {
            jobs: 4,
            cache_capacity: 0,
            ..EngineOptions::default()
        },
    );
    let a = serial.run_jobs(mixed_batch(HEALTHY));
    let b = parallel.run_jobs(mixed_batch(HEALTHY));
    assert_eq!(
        a.to_jsonl(),
        b.to_jsonl(),
        "--jobs must not change the report"
    );
    assert_eq!(a.exit_code(), b.exit_code());
}

#[test]
fn repeated_nets_hit_the_cache_with_identical_records() {
    let cfg = WorkloadConfig::default();
    let engine = Engine::new(
        pipeline_config(),
        EngineOptions {
            jobs: 2,
            ..EngineOptions::default()
        },
    );
    let body = "synthetic-net-body";
    let job = || Job {
        input: healthy("repeat", &cfg),
        cache_key: Some(engine.key_for("repeat", body)),
    };

    let first = engine.optimize(job());
    assert_eq!(first.cache, CacheStatus::Miss);
    let asked = Instant::now();
    let second = engine.optimize(job());
    let around = asked.elapsed();
    assert_eq!(second.cache, CacheStatus::Hit);
    assert_eq!(
        first.outcome.to_json(),
        second.outcome.to_json(),
        "a hit returns the record byte-for-byte"
    );
    assert!(
        second.outcome.wall <= around && second.outcome.wall < first.outcome.wall,
        "a hit stamps its own time ({:?} within {around:?}), not the miss's {:?}",
        second.outcome.wall,
        first.outcome.wall
    );
    assert_eq!(
        first.worker, second.worker,
        "hit reports the original worker"
    );

    let snap = engine.metrics_snapshot();
    assert_eq!(snap.requests, 2);
    assert_eq!(snap.cache.hits, 1);
    assert_eq!(snap.cache.misses, 1);
    assert_eq!(
        snap.outcomes.iter().sum::<u64>(),
        1,
        "cache hits are not recorded as fresh outcomes"
    );
}

#[test]
fn cached_batch_rerun_is_identical_and_all_hits() {
    let cfg = WorkloadConfig::default();
    let engine = Engine::new(pipeline_config(), EngineOptions::default());
    let batch = || -> Vec<Job> {
        (0..4)
            .map(|i| {
                let name = format!("net{i}");
                Job {
                    cache_key: Some(engine.key_for(&name, "same-content")),
                    input: healthy(&name, &cfg),
                }
            })
            .collect()
    };
    let first = engine.run_jobs(batch());
    let second = engine.run_jobs(batch());
    assert_eq!(
        first.to_jsonl(),
        second.to_jsonl(),
        "hits replay the stored records"
    );
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.cache.misses, 4);
    assert_eq!(snap.cache.hits, 4);
}
