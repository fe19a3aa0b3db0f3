//! Concurrent serving engine for the buffer-insertion pipeline.
//!
//! The paper's production setting is a sweep over the 500 noisiest nets
//! of a PowerPC design; buffer insertion is embarrassingly parallel
//! across nets (each `(tree, scenario, library)` triple is independent).
//! This crate multiplies throughput on the hardware at hand without any
//! external runtime — `std::thread` and bounded `std::sync::mpsc`
//! channels only:
//!
//! * [`Engine`] — a supervised fixed-size worker pool that fans batches
//!   of [`NetInput`]s out to workers and reassembles the per-net records
//!   in **deterministic input order**, so `--jobs N` output is
//!   byte-identical to serial output (records carry no run telemetry).
//!   The pool detects workers that die outside their panic boundary,
//!   respawns them, retries the orphaned request a bounded number of
//!   times, and sheds load ([`Rejection`]) when the bounded queue hits
//!   its high-watermark or a per-request deadline expires;
//! * [`SolutionCache`] — a sharded LRU keyed by a content digest of
//!   `(net, scenario, library, budget)`, serving repeated nets (ECO-style
//!   re-runs) without re-optimizing, with hit/miss/eviction counters;
//! * [`Metrics`] — atomic request/outcome/rung counters plus a
//!   fixed-bucket latency histogram per degradation rung, aggregated
//!   across workers and snapshot as JSON;
//! * [`service`] — a long-running newline-delimited-JSON TCP front end:
//!   one request line per net, one response line per record (the
//!   pipeline's JSONL record followed by an envelope: `cache`, `worker`
//!   and the computing run's telemetry), plus
//!   `stats` and `shutdown` commands, served by the sharded epoll
//!   reactor ([`serve_sharded`]). Shards answer cache hits and control
//!   commands inline and hand misses straight to engine workers, whose
//!   completions post the responses back.
//!
//! [`NetInput`]: buffopt_pipeline::NetInput
//! [`SolutionCache`]: cache::SolutionCache
//! [`Metrics`]: metrics::Metrics

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod metrics;
mod reactor;
pub mod service;

pub use cache::{digest, SolutionCache};
pub use engine::{default_jobs, CacheStatus, Engine, EngineOptions, Job, Rejection, Served};
pub use metrics::{Metrics, MetricsSnapshot, ShardStat};
pub use reactor::serve_sharded;
pub use service::{NetDecoder, ServeOptions};
