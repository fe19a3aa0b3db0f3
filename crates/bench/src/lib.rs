//! Shared experiment machinery for regenerating the paper's tables and
//! figures.
//!
//! Every table harness (`src/bin/table*.rs`) runs the same flow:
//!
//! 1. [`prepare`] — generate the seeded 500-net population, segment every
//!    wire (Alpert–Devgan preprocessing) and attach the estimation-mode
//!    noise scenario;
//! 2. run BuffOpt (Problem 3 production mode) and/or `DelayOpt(k)`;
//! 3. audit each solution independently ([`buffopt::audit`]) and, where
//!    the experiment calls for it, verify with the transient-simulation
//!    referee ([`buffopt_sim::referee`]), the reproduction's 3dnoise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use buffopt::audit;
use buffopt::buffopt::{self as algo3, BuffOptOptions};
use buffopt::{Assignment, DpWorkspace, Solution};
use buffopt_buffers::{catalog, BufferLibrary};
use buffopt_noise::NoiseScenario;
use buffopt_pipeline::{run_batch, BatchReport, NetInput, PipelineConfig};
use buffopt_sim::referee::{self, RefereeOptions};
use buffopt_tree::{segment, RoutingTree, TreeError};
use buffopt_workload::{estimation_scenario, generate, WorkloadConfig};

/// Experiment-wide setup: workload, library, segmenting granularity.
#[derive(Debug, Clone)]
pub struct ExperimentSetup {
    /// Population configuration (paper Section V defaults).
    pub config: WorkloadConfig,
    /// Buffer library (paper: 5 inverting + 6 non-inverting).
    pub library: BufferLibrary,
    /// Maximum wire-segment length (µm) for the Alpert–Devgan
    /// preprocessing.
    pub max_segment: f64,
}

impl Default for ExperimentSetup {
    fn default() -> Self {
        ExperimentSetup {
            config: WorkloadConfig::default(),
            library: catalog::ibm_like(),
            max_segment: 500.0,
        }
    }
}

/// A net prepared for optimization: segmented tree plus noise scenario.
#[derive(Debug, Clone)]
pub struct PreparedNet {
    /// Stable population index.
    pub id: usize,
    /// Sink count of the original net.
    pub sink_count: usize,
    /// Segmented routing tree.
    pub tree: RoutingTree,
    /// Estimation-mode scenario on the segmented tree.
    pub scenario: NoiseScenario,
}

/// Generates and prepares the whole population.
///
/// # Errors
///
/// Propagates the segmentation error (e.g. a non-positive
/// `max_segment`) instead of panicking, so harnesses can report it and
/// exit cleanly.
pub fn prepare(setup: &ExperimentSetup) -> Result<Vec<PreparedNet>, TreeError> {
    generate(&setup.config)
        .into_iter()
        .map(|net| {
            let seg = segment::segment_wires(&net.tree, setup.max_segment)?;
            let scenario = estimation_scenario(&net.tree, &setup.config).for_segmented(&seg);
            Ok(PreparedNet {
                id: net.id,
                sink_count: net.tree.sinks().len(),
                tree: seg.tree,
                scenario,
            })
        })
        .collect()
}

/// Outcome of one optimizer run over the population.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Per-net solutions (`None` when the optimizer found no feasible
    /// candidate, which the tables report as an unresolved violation).
    pub solutions: Vec<Option<Solution>>,
    /// Total wall-clock time of the optimizer calls.
    pub cpu: Duration,
}

impl RunOutcome {
    /// Histogram of inserted-buffer counts `0, 1, 2, 3, ≥4` plus total.
    pub fn buffer_histogram(&self) -> ([usize; 5], usize) {
        let mut hist = [0usize; 5];
        let mut total = 0;
        for sol in self.solutions.iter().flatten() {
            hist[sol.buffers.min(4)] += 1;
            total += sol.buffers;
        }
        (hist, total)
    }
}

/// Runs BuffOpt in its production mode (Problem 3: fewest buffers meeting
/// noise and timing, slack secondary) over every net, through the
/// fault-isolated pipeline: a net that panics, busts its budget, or turns
/// out infeasible yields `None` instead of taking the run down.
pub fn run_buffopt(nets: &[PreparedNet], library: &BufferLibrary) -> RunOutcome {
    let report = run_buffopt_batch(nets, library);
    RunOutcome {
        solutions: report.outcomes.into_iter().map(|o| o.solution).collect(),
        cpu: report.wall,
    }
}

/// The same run with the full per-net outcome records (degradation rung,
/// attempts, wall time) preserved, for harnesses that report them.
pub fn run_buffopt_batch(nets: &[PreparedNet], library: &BufferLibrary) -> BatchReport {
    let inputs: Vec<NetInput> = nets
        .iter()
        .map(|n| NetInput::Parsed {
            name: format!("net{}", n.id),
            tree: n.tree.clone(),
            scenario: n.scenario.clone(),
        })
        .collect();
    let cfg = PipelineConfig {
        max_segment: None, // `prepare` already segmented the trees
        ..PipelineConfig::new(library.clone())
    };
    run_batch(&inputs, &cfg)
}

/// `DelayOpt(k)` on one net: the best delay-only slack with at most `k`
/// buffers (`None` when the DP finds no solution).
pub fn delayopt_k(
    ws: &mut DpWorkspace,
    tree: &RoutingTree,
    library: &BufferLibrary,
    k: usize,
) -> Option<Solution> {
    let opts = BuffOptOptions {
        max_buffers: Some(k),
        ..BuffOptOptions::default()
    };
    let frontier = algo3::solve(ws, tree, None, library, &opts).ok()?;
    Some(frontier.max_slack())
}

/// Runs `DelayOpt(k)` (delay-optimal with at most `k` buffers) over every
/// net.
pub fn run_delayopt_k(nets: &[PreparedNet], library: &BufferLibrary, k: usize) -> RunOutcome {
    let start = Instant::now();
    let mut ws = DpWorkspace::new();
    let solutions = nets
        .iter()
        .map(|n| delayopt_k(&mut ws, &n.tree, library, k))
        .collect();
    RunOutcome {
        solutions,
        cpu: start.elapsed(),
    }
}

/// Counts nets whose (possibly buffered) state violates the **Devgan
/// metric** according to the independent audit.
pub fn metric_violations(
    nets: &[PreparedNet],
    library: &BufferLibrary,
    solutions: &[Option<Solution>],
) -> usize {
    nets.iter()
        .zip(solutions)
        .filter(|(n, sol)| {
            let empty = Assignment::empty(&n.tree);
            let a = sol.as_ref().map(|s| &s.assignment).unwrap_or(&empty);
            audit::noise(&n.tree, &n.scenario, library, a)
                .expect("prepared nets audit cleanly")
                .has_violation()
        })
        .count()
}

/// Counts nets whose state violates according to the **simulation
/// referee** (3dnoise substitute): every restoring stage is simulated and
/// each end compared against its margin.
pub fn referee_violations(
    nets: &[PreparedNet],
    library: &BufferLibrary,
    solutions: &[Option<Solution>],
    opts: &RefereeOptions,
) -> usize {
    nets.iter()
        .zip(solutions)
        .filter(|(n, sol)| {
            let empty = Assignment::empty(&n.tree);
            let a = sol.as_ref().map(|s| &s.assignment).unwrap_or(&empty);
            net_has_referee_violation(&n.tree, &n.scenario, library, a, opts)
        })
        .count()
}

/// Simulates every stage of a buffered net and reports whether any end
/// exceeds its noise margin.
pub fn net_has_referee_violation(
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    library: &BufferLibrary,
    assignment: &Assignment,
    opts: &RefereeOptions,
) -> bool {
    for stage in audit::stages(tree, library, assignment) {
        if stage.ends.is_empty() {
            continue;
        }
        let ends: Vec<_> = stage.ends.iter().map(|&(n, _, c)| (n, c)).collect();
        let peaks = referee::stage_peak_noise(
            tree,
            scenario,
            stage.root,
            stage.gate_resistance,
            &ends,
            opts,
        )
        .expect("stage networks are grounded through the gate");
        for (peak, &(_, margin, _)) in peaks.iter().zip(&stage.ends) {
            if peak.peak > margin + 1e-12 {
                return true;
            }
        }
    }
    false
}

/// Audited worst source-to-sink delay of a net under an assignment.
pub fn audited_max_delay(
    tree: &RoutingTree,
    library: &BufferLibrary,
    assignment: &Assignment,
) -> f64 {
    audit::delay(tree, library, assignment)
        .expect("prepared nets audit cleanly")
        .max_delay()
}

/// Formats a `Duration` in seconds with two decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_setup() -> ExperimentSetup {
        let mut s = ExperimentSetup::default();
        s.config.net_count = 20;
        s
    }

    #[test]
    fn prepare_produces_segmented_nets() {
        let setup = small_setup();
        let nets = prepare(&setup).expect("prepare");
        assert_eq!(nets.len(), 20);
        for n in &nets {
            assert!(n.tree.check_invariants().is_empty());
            assert_eq!(n.scenario.len(), n.tree.len());
            // Every wire is at most max_segment long.
            for v in n.tree.node_ids() {
                if let Some(w) = n.tree.parent_wire(v) {
                    assert!(w.length <= setup.max_segment + 1e-9);
                }
            }
        }
    }

    #[test]
    fn buffopt_clears_metric_violations_on_sample() {
        let setup = small_setup();
        let nets = prepare(&setup).expect("prepare");
        let before = metric_violations(&nets, &setup.library, &vec![None; nets.len()]);
        let run = run_buffopt(&nets, &setup.library);
        let after = metric_violations(&nets, &setup.library, &run.solutions);
        assert!(before > 0, "sample population should violate");
        assert_eq!(after, 0, "BuffOpt fixes everything the metric flags");
        assert!(run.solutions.iter().all(Option::is_some));
    }

    #[test]
    fn referee_flags_at_most_metric_count() {
        let setup = small_setup();
        let nets = prepare(&setup).expect("prepare");
        let none = vec![None; nets.len()];
        let metric = metric_violations(&nets, &setup.library, &none);
        let refv = referee_violations(
            &nets,
            &setup.library,
            &none,
            &RefereeOptions {
                segments_per_wire: 2,
                steps_per_rise: 60,
                ..RefereeOptions::default()
            },
        );
        assert!(
            refv <= metric,
            "the referee is more accurate: {refv} > {metric}"
        );
    }

    #[test]
    fn histogram_sums_to_population() {
        let setup = small_setup();
        let nets = prepare(&setup).expect("prepare");
        let run = run_buffopt(&nets, &setup.library);
        let (hist, total) = run.buffer_histogram();
        assert_eq!(hist.iter().sum::<usize>(), 20);
        assert!(total >= hist[1]);
    }

    #[test]
    fn delayopt_k_respects_cap() {
        let setup = small_setup();
        let nets = prepare(&setup).expect("prepare");
        let run = run_delayopt_k(&nets, &setup.library, 2);
        for sol in run.solutions.iter().flatten() {
            assert!(sol.buffers <= 2);
        }
    }
}
