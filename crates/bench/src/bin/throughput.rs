//! Worker-pool throughput: batch wall time vs `--jobs`, plus the
//! solution cache's effect on a repeated batch.
//!
//! ```text
//! cargo run --release -p buffopt-bench --bin throughput [-- NETS [JOBS...]]
//! ```
//!
//! Runs the same prepared batch through engines with increasing pool
//! sizes (default 1, 2, 4) and reports wall time and speedup over the
//! serial engine, then re-submits the batch to a warm cache. Per-net
//! records are checked byte-identical across pool sizes, so the table
//! measures the pool, not noise in the work.
//! Speedups track the machine's actual core count — on a single-core
//! host every row lands near 1.0×.

use std::time::Instant;

use buffopt_bench::{prepare, ExperimentSetup};
use buffopt_pipeline::{NetInput, PipelineConfig};
use buffopt_server::{Engine, EngineOptions, Job};

fn main() {
    let mut args = std::env::args().skip(1);
    let nets: usize = args
        .next()
        .map(|v| v.parse().expect("NETS is a number"))
        .unwrap_or(100);
    let pool_sizes: Vec<usize> = {
        let rest: Vec<usize> = args.map(|v| v.parse().expect("JOBS is a number")).collect();
        if rest.is_empty() {
            vec![1, 2, 4]
        } else {
            rest
        }
    };

    let mut setup = ExperimentSetup::default();
    setup.config.net_count = nets;
    let prepared = prepare(&setup).expect("population prepares");
    println!(
        "throughput: {} nets, pools {:?}, {} cores available",
        prepared.len(),
        pool_sizes,
        buffopt_server::default_jobs()
    );

    let batch = || -> Vec<Job> {
        prepared
            .iter()
            .map(|n| Job {
                input: NetInput::Parsed {
                    name: format!("net{}", n.id),
                    tree: n.tree.clone(),
                    scenario: n.scenario.clone(),
                },
                cache_key: None,
            })
            .collect()
    };
    let cfg = || PipelineConfig {
        max_segment: None, // `prepare` already segmented the trees
        ..PipelineConfig::new(setup.library.clone())
    };

    println!("{:>6} {:>10} {:>8}", "jobs", "wall", "speedup");
    let mut serial_wall = None;
    let mut reference: Option<String> = None;
    for &jobs in &pool_sizes {
        let engine = Engine::new(
            cfg(),
            EngineOptions {
                jobs,
                cache_capacity: 0,
                ..EngineOptions::default()
            },
        );
        let report = engine.run_jobs(batch());
        let wall = report.wall;
        let base = *serial_wall.get_or_insert(wall);
        println!(
            "{:>6} {:>9.2}s {:>7.2}x",
            jobs,
            wall.as_secs_f64(),
            base.as_secs_f64() / wall.as_secs_f64()
        );
        let records = report.to_jsonl();
        match &reference {
            None => reference = Some(records),
            Some(r) => assert_eq!(*r, records, "records must not depend on the pool size"),
        }
    }

    // Cache effect: the same batch twice against one engine, keyed.
    let engine = Engine::new(
        cfg(),
        EngineOptions {
            jobs: *pool_sizes.last().expect("non-empty"),
            cache_capacity: 2 * nets,
            ..EngineOptions::default()
        },
    );
    let keyed = || -> Vec<Job> {
        batch()
            .into_iter()
            .map(|j| Job {
                cache_key: Some(engine.key_for(j.input.name(), "throughput-body")),
                input: j.input,
            })
            .collect()
    };
    let cold_t = Instant::now();
    let cold = engine.run_jobs(keyed());
    let cold_wall = cold_t.elapsed();
    let warm_t = Instant::now();
    let warm = engine.run_jobs(keyed());
    let warm_wall = warm_t.elapsed();
    assert_eq!(cold.to_jsonl(), warm.to_jsonl(), "hits replay records");
    let stats = engine.metrics_snapshot();
    println!(
        "cache: cold {:.2}s, warm {:.3}s ({:.0}x), {} hits / {} misses",
        cold_wall.as_secs_f64(),
        warm_wall.as_secs_f64(),
        cold_wall.as_secs_f64() / warm_wall.as_secs_f64().max(1e-9),
        stats.cache.hits,
        stats.cache.misses,
    );
}
