//! Seed-robustness sweep: the headline numbers of Tables II–IV are a
//! property of the population *distribution*, not of one seed. This
//! harness re-runs the core experiment (metric violations before/after
//! BuffOpt, buffer totals, delay penalty) across several seeds.
//!
//! ```text
//! cargo run --release -p buffopt-bench --bin robustness [SEEDS]
//! ```

use buffopt::{Assignment, DpWorkspace};
use buffopt_bench::{
    audited_max_delay, delayopt_k, metric_violations, prepare, run_buffopt, ExperimentSetup,
};

fn main() -> std::process::ExitCode {
    let seeds: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    println!("robustness sweep over {seeds} seeds (500 nets each)");
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>12}",
        "seed", "violating", "after", "buffers", "penalty"
    );
    for k in 0..seeds {
        let mut setup = ExperimentSetup::default();
        setup.config.seed = setup.config.seed.wrapping_add(k.wrapping_mul(0x9E37_79B9));
        let nets = match prepare(&setup) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("population preparation failed: {e}");
                return std::process::ExitCode::from(3);
            }
        };
        let none = vec![None; nets.len()];
        let before = metric_violations(&nets, &setup.library, &none);
        let run = run_buffopt(&nets, &setup.library);
        let after = metric_violations(&nets, &setup.library, &run.solutions);
        let (_, total) = run.buffer_histogram();

        // Delay penalty at matched counts.
        let mut ws = DpWorkspace::new();
        let (mut red_b, mut red_d) = (0.0f64, 0.0f64);
        for (net, sol) in nets.iter().zip(&run.solutions) {
            let Some(sol) = sol else { continue };
            if sol.buffers == 0 {
                continue;
            }
            let base = audited_max_delay(&net.tree, &setup.library, &Assignment::empty(&net.tree));
            red_b += base - audited_max_delay(&net.tree, &setup.library, &sol.assignment);
            let d = delayopt_k(&mut ws, &net.tree, &setup.library, sol.buffers)
                .expect("delay-only solves");
            red_d += base - audited_max_delay(&net.tree, &setup.library, &d.assignment);
        }
        let penalty = if red_d > 0.0 {
            format!("{:.2}%", (red_d - red_b) / red_d * 100.0)
        } else {
            "-".into()
        };
        println!(
            "{:<#10x} {before:>10} {after:>10} {total:>10} {penalty:>12}",
            setup.config.seed
        );
    }
    println!();
    println!(
        "expected shape on every seed: most nets violate before, zero after, \
         penalty well under the paper's 2% bound"
    );
    std::process::ExitCode::SUCCESS
}
