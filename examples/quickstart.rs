//! Quickstart: fix the noise and delay of one long global net.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a 7 mm two-sink net, checks it with the Devgan metric
//! (violating), runs BuffOpt (Algorithm 3 in its Problem 3 production
//! mode), and audits the result.

use buffopt::buffopt::{self as algo3, BuffOptOptions};
use buffopt::{audit, Assignment, DpWorkspace};
use buffopt_buffers::catalog;
use buffopt_noise::{metric::NoiseReport, NoiseScenario};
use buffopt_tree::{segment, Driver, SinkSpec, Technology, TreeBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe the net: a 400 Ω driver, a 4 mm trunk, two arms.
    let tech = Technology::global_layer();
    let mut b = TreeBuilder::new(Driver::new(400.0, 30.0e-12));
    let junction = b.add_internal(b.source(), tech.wire(4_000.0))?;
    b.add_sink(
        junction,
        tech.wire(3_000.0),
        SinkSpec::new(20.0e-15, 1.2e-9, 0.8),
    )?;
    b.add_sink(
        junction,
        tech.wire(1_500.0),
        SinkSpec::new(12.0e-15, 1.2e-9, 0.8),
    )?;
    let net = b.build()?;

    // 2. Segment wires so the DP has candidate buffer sites every 500 µm.
    let segmented = segment::segment_wires(&net, 500.0)?;
    let tree = segmented.tree;

    // 3. Estimation-mode noise: λ = 0.7, 1.8 V / 0.25 ns aggressors.
    let scenario = NoiseScenario::estimation(&tree, 0.7, 7.2e9);
    let before = NoiseReport::analyze(&tree, &scenario);
    println!(
        "before: worst sink noise headroom = {:+.1} mV ({})",
        before.worst_headroom() * 1e3,
        if before.has_violation() {
            "VIOLATING"
        } else {
            "clean"
        }
    );

    // 4. Optimize with the 11-buffer library.
    let lib = catalog::ibm_like();
    //    One DP run; Problem 3 (fewest buffers meeting noise and timing)
    //    is read off its frontier, with the best-slack fallback.
    let mut ws = DpWorkspace::new();
    let sol = algo3::solve(
        &mut ws,
        &tree,
        Some(&scenario),
        &lib,
        &BuffOptOptions::default(),
    )?
    .min_buffers();
    println!(
        "BuffOpt inserted {} buffer(s); source timing slack = {:+.1} ps",
        sol.buffers,
        sol.slack * 1e12
    );
    for (node, buf) in sol.assignment.iter() {
        println!("  {} <- {}", node, lib.buffer(buf).name);
    }

    // 5. Independent audits: noise and delay recomputed from scratch.
    let noise = audit::noise(&tree, &scenario, &lib, &sol.assignment).expect("audit");
    let delay = audit::delay(&tree, &lib, &sol.assignment).expect("audit");
    let unbuffered = audit::delay(&tree, &lib, &Assignment::empty(&tree)).expect("audit");
    println!(
        "after: worst noise headroom = {:+.1} mV ({})",
        noise.worst_headroom() * 1e3,
        if noise.has_violation() {
            "VIOLATING"
        } else {
            "clean"
        }
    );
    println!(
        "max source-to-sink delay: {:.1} ps -> {:.1} ps",
        unbuffered.max_delay() * 1e12,
        delay.max_delay() * 1e12
    );
    assert!(!noise.has_violation());
    Ok(())
}
