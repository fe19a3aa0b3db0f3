//! Geometric coupling: a victim routed between two bus neighbours, with
//! the coupling extracted from the layout (`λ(d) = κ/d`, paper eq. 16–17)
//! rather than assumed. Sweeps the routing pitch to show the spacing-vs-
//! buffering trade-off the paper's separation-distance formula predicts.
//!
//! ```text
//! cargo run --release --example coupled_bus
//! ```

use buffopt::buffopt::{self as algo3, BuffOptOptions};
use buffopt::DpWorkspace;
use buffopt_buffers::catalog;
use buffopt_noise::metric::NoiseReport;
use buffopt_steiner::coupling::{extract_scenario, AggressorTrack, CouplingModel};
use buffopt_steiner::{steiner_tree_routed, NetGeometry, Point};
use buffopt_tree::{segment, Driver, SinkSpec, Technology};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let len = 7_000.0;
    let tech = Technology::global_layer();
    let lib = catalog::ibm_like();
    let mut ws = DpWorkspace::new();
    let model = CouplingModel::default();
    let mu = 1.8 / 0.25e-9; // 7.2 V/ns edges on the neighbours

    println!(
        "victim: {:.0} mm bus bit; neighbours above and below at pitch d",
        len / 1000.0
    );
    println!(
        "{:>9} {:>12} {:>14} {:>10}",
        "d (um)", "lambda_eff", "noise (mV)", "buffers"
    );
    for pitch in [0.8, 1.2, 2.0, 3.2, 5.0] {
        let net = NetGeometry {
            source: Point::new(0.0, 0.0),
            driver: Driver::new(350.0, 25e-12),
            sinks: vec![(Point::new(len, 0.0), SinkSpec::new(20e-15, 1.4e-9, 0.8))],
        };
        let routed = steiner_tree_routed(&net, &tech)?;
        let tracks = [
            AggressorTrack {
                path: vec![Point::new(0.0, pitch), Point::new(len, pitch)],
                slope: mu,
            },
            AggressorTrack {
                path: vec![Point::new(0.0, -pitch), Point::new(len, -pitch)],
                slope: mu,
            },
        ];
        let scenario = extract_scenario(&routed, &tracks, &model);
        let sink = routed.tree.sinks()[0];
        let lambda_eff = scenario.factor(sink) / mu;
        let report = NoiseReport::analyze(&routed.tree, &scenario);

        // Optimize on a segmented copy.
        let seg = segment::segment_wires(&routed.tree, 500.0)?;
        let s2 = scenario.for_segmented(&seg);
        let opts = BuffOptOptions::default();
        let buffers = match algo3::solve(&mut ws, &seg.tree, Some(&s2), &lib, &opts) {
            Ok(f) => f.min_buffers().buffers.to_string(),
            Err(_) => "infeasible".to_string(),
        };
        println!(
            "{pitch:>9.1} {lambda_eff:>12.3} {:>14.0} {buffers:>10}",
            report.sinks[0].noise * 1e3
        );
    }
    println!();
    println!(
        "wider pitch -> weaker coupling -> fewer repeaters; beyond the model's \
         {} um cutoff the net needs none for noise",
        CouplingModel::default().max_distance
    );
    Ok(())
}
