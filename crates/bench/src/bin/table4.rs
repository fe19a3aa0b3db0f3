//! Table IV — average delay reduction from buffer insertion, BuffOpt vs
//! DelayOpt at matched buffer counts, and the overall delay penalty of
//! noise avoidance.
//!
//! Paper shape: an apples-to-apples comparison (DelayOpt capped at the
//! buffer count BuffOpt chose per net) shows BuffOpt giving up < 2 % of
//! the delay reduction on average.
//!
//! ```text
//! cargo run --release -p buffopt-bench --bin table4
//! ```

use buffopt::{Assignment, DpWorkspace};
use buffopt_bench::{audited_max_delay, delayopt_k, prepare, run_buffopt, ExperimentSetup};

fn main() -> std::process::ExitCode {
    let setup = ExperimentSetup::default();
    eprintln!("preparing {} nets ...", setup.config.net_count);
    let nets = match prepare(&setup) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("population preparation failed: {e}");
            return std::process::ExitCode::from(3);
        }
    };
    eprintln!("running BuffOpt ...");
    let b = run_buffopt(&nets, &setup.library);

    // Group nets by the number of buffers BuffOpt inserted; for each net
    // run DelayOpt with the same cap.
    const MAXK: usize = 10;
    let mut count = [0usize; MAXK + 1];
    let mut red_buffopt = [0.0f64; MAXK + 1];
    let mut red_delayopt = [0.0f64; MAXK + 1];

    eprintln!("running matched DelayOpt and audits ...");
    let mut ws = DpWorkspace::new();
    for (net, sol) in nets.iter().zip(&b.solutions) {
        let Some(sol) = sol else { continue };
        if sol.buffers == 0 {
            count[0] += 1;
            continue;
        }
        let k = sol.buffers.min(MAXK);
        let unbuffered =
            audited_max_delay(&net.tree, &setup.library, &Assignment::empty(&net.tree));
        let with_buffopt = audited_max_delay(&net.tree, &setup.library, &sol.assignment);
        let d = delayopt_k(&mut ws, &net.tree, &setup.library, sol.buffers)
            .expect("delay-only optimization always has candidates");
        let with_delayopt = audited_max_delay(&net.tree, &setup.library, &d.assignment);
        count[k] += 1;
        red_buffopt[k] += unbuffered - with_buffopt;
        red_delayopt[k] += unbuffered - with_delayopt;
    }

    println!("Table IV: average delay reduction (ps) by inserted buffer count");
    println!(
        "{:<8} {:>6} {:>14} {:>14} {:>12}",
        "buffers", "nets", "BuffOpt", "DelayOpt", "penalty"
    );
    let mut tot_nets = 0usize;
    let (mut tot_b, mut tot_d) = (0.0f64, 0.0f64);
    for k in 1..=MAXK {
        if count[k] == 0 {
            continue;
        }
        let rb = red_buffopt[k] / count[k] as f64 * 1e12;
        let rd = red_delayopt[k] / count[k] as f64 * 1e12;
        let pen = if rd.abs() > 1e-9 {
            format!("{:.2}%", (rd - rb) / rd * 100.0)
        } else {
            "-".into()
        };
        println!("{k:<8} {:>6} {rb:>14.1} {rd:>14.1} {pen:>12}", count[k]);
        tot_nets += count[k];
        tot_b += red_buffopt[k];
        tot_d += red_delayopt[k];
    }
    if tot_nets > 0 {
        let avg_b = tot_b / tot_nets as f64 * 1e12;
        let avg_d = tot_d / tot_nets as f64 * 1e12;
        println!(
            "{:<8} {:>6} {avg_b:>14.1} {avg_d:>14.1} {:>11.2}%",
            "overall",
            tot_nets,
            (avg_d - avg_b) / avg_d * 100.0
        );
        println!();
        println!(
            "average delay penalty for avoiding noise: {:.2}% (paper: < 2%)",
            (avg_d - avg_b) / avg_d * 100.0
        );
    }
    println!(
        "nets with zero buffers (excluded from averages): {}",
        count[0]
    );
    std::process::ExitCode::SUCCESS
}
