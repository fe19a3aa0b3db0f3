//! Buffer insertion for noise and delay optimization.
//!
//! This crate implements the three algorithms of Alpert, Devgan and Quay,
//! *Buffer Insertion for Noise and Delay Optimization* (DAC 1998; extended
//! TCAD 1999), together with the delay-only baseline they compare against:
//!
//! * [`algorithm1`] — optimal, linear-time noise avoidance for single-sink
//!   nets: walk from the sink toward the source and drop each buffer at the
//!   maximal distance Theorem 1 allows.
//! * [`algorithm2`] — optimal noise avoidance for multi-sink nets:
//!   candidate tuples `(I, NS, M)` propagate bottom-up; when merging two
//!   branches would violate, both branch-buffer alternatives are kept.
//! * [`buffopt`] (Algorithm 3) — van Ginneken dynamic programming over
//!   5-tuples `(C, q, I, NS, M)`: maximize source timing slack subject to
//!   every noise constraint. The same engine provides **DelayOpt** (no
//!   noise checks — the paper's baseline), the Lillis buffer-count-indexed
//!   variant `DelayOpt(k)`, and the Problem 3 solver (fewest buffers such
//!   that noise *and* timing are met).
//! * [`audit`] — independent re-analysis of a buffered net (delay and
//!   Devgan noise recomputed from scratch by splitting the tree at its
//!   restoring stages); every optimizer result in the test-suite is
//!   cross-checked against it.
//!
//! # Quickstart
//!
//! ```
//! use buffopt_tree::{TreeBuilder, Driver, SinkSpec, Wire, Technology, segment};
//! use buffopt_noise::NoiseScenario;
//! use buffopt_buffers::catalog;
//! use buffopt::buffopt::BuffOptOptions;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A 6 mm two-pin net on the global layer.
//! let tech = Technology::global_layer();
//! let mut b = TreeBuilder::new(Driver::new(150.0, 30.0e-12));
//! b.add_sink(b.source(), tech.wire(6000.0), SinkSpec::new(20.0e-15, 1.2e-9, 0.8))?;
//! let tree = segment::segment_wires(&b.build()?, 500.0)?.tree;
//!
//! let scenario = NoiseScenario::estimation(&tree, 0.7, 7.2e9);
//! let lib = catalog::ibm_like();
//! let sol = buffopt::buffopt::optimize(&tree, &scenario, &lib, &BuffOptOptions::default())?;
//! assert!(sol.meets_noise);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm1;
pub mod algorithm2;
mod arena;
mod assignment;
pub mod audit;
mod budget;
pub mod buffopt;
mod candidate;
mod climb;
pub mod delayopt;
#[cfg(test)]
mod difftest;
mod dp;
#[cfg(any(test, feature = "reference"))]
pub mod dp_reference;
mod error;
pub mod feasibility;
pub mod iterative;
#[cfg(test)]
mod memotest;
mod probe;
mod rebuild;
pub mod wiresize;
mod workspace;

pub use assignment::Assignment;
pub use budget::RunBudget;
pub use buffopt_analysis::{CancelReason, CancelToken};
pub use buffopt_memo::{MemoStats, MemoTable};
pub use delayopt::Solution;
pub use error::{BudgetResource, CoreError};
pub use workspace::{DpWork, DpWorkspace};
