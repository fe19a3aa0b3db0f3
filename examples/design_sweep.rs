//! A miniature version of the paper's full experiment (Tables II–IV) on
//! a 60-net sample, runnable in seconds: violations before/after, buffer
//! histograms for BuffOpt vs DelayOpt(2), and the delay penalty of noise
//! avoidance.
//!
//! ```text
//! cargo run --release --example design_sweep
//! ```

use buffopt::{Assignment, DpWorkspace};
use buffopt_bench::{
    audited_max_delay, delayopt_k, metric_violations, prepare, run_buffopt, run_delayopt_k, secs,
    ExperimentSetup,
};

fn main() {
    let mut setup = ExperimentSetup::default();
    setup.config.net_count = 60;
    let nets = match prepare(&setup) {
        Ok(nets) => nets,
        Err(e) => {
            eprintln!("population preparation failed: {e}");
            return;
        }
    };
    let none = vec![None; nets.len()];

    let before = metric_violations(&nets, &setup.library, &none);
    println!(
        "{} of {} nets violate the Devgan metric unbuffered",
        before,
        nets.len()
    );

    let b = run_buffopt(&nets, &setup.library);
    let after = metric_violations(&nets, &setup.library, &b.solutions);
    let (hist, total) = b.buffer_histogram();
    println!(
        "BuffOpt: {after} violations left, {total} buffers (histogram {hist:?}), {} s",
        secs(b.cpu)
    );

    let d2 = run_delayopt_k(&nets, &setup.library, 2);
    let after_d = metric_violations(&nets, &setup.library, &d2.solutions);
    let (hist_d, total_d) = d2.buffer_histogram();
    println!(
        "DelayOpt(2): {after_d} violations left, {total_d} buffers (histogram {hist_d:?}), {} s",
        secs(d2.cpu)
    );

    // Delay penalty at matched buffer counts.
    let mut red_b = 0.0;
    let mut red_d = 0.0;
    let mut counted = 0;
    let mut ws = DpWorkspace::new();
    for (net, sol) in nets.iter().zip(&b.solutions) {
        let Some(sol) = sol else { continue };
        if sol.buffers == 0 {
            continue;
        }
        let base = audited_max_delay(&net.tree, &setup.library, &Assignment::empty(&net.tree));
        red_b += base - audited_max_delay(&net.tree, &setup.library, &sol.assignment);
        let d = delayopt_k(&mut ws, &net.tree, &setup.library, sol.buffers)
            .expect("delay-only always solves");
        red_d += base - audited_max_delay(&net.tree, &setup.library, &d.assignment);
        counted += 1;
    }
    if counted > 0 && red_d > 0.0 {
        println!(
            "delay penalty of noise avoidance over {counted} buffered nets: {:.2}%",
            (red_d - red_b) / red_d * 100.0
        );
    }
}
