//! Aggregated serving metrics: atomic counters and per-rung latency
//! histograms, shared by every worker and snapshot without stopping the
//! world.
//!
//! All counters are `AtomicU64` with relaxed ordering — a snapshot is a
//! statistically consistent view, not a linearizable one, which is what
//! an operations dashboard needs. The latency histogram uses fixed
//! logarithmic-ish bucket bounds ([`LATENCY_BOUNDS_MS`]) so snapshots
//! from different workers (or machines) can be summed bucket-wise.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use buffopt::{CancelReason, MemoStats, Solution};
use buffopt_pipeline::{NetOutcome, Outcome, Rung};

use crate::cache::CacheStats;
use crate::engine::Rejection;

/// Admission-rejection counter order: `overloaded`,
/// `deadline_exceeded`, `shutting_down`.
pub const REJECTIONS: [Rejection; 3] = [
    Rejection::Overloaded,
    Rejection::DeadlineExceeded,
    Rejection::ShuttingDown,
];

fn rejection_index(r: Rejection) -> usize {
    REJECTIONS
        .iter()
        .position(|&x| x == r)
        .expect("all rejections listed")
}

fn cancel_index(r: CancelReason) -> usize {
    CancelReason::ALL
        .iter()
        .position(|&x| x == r)
        .expect("all cancel reasons listed")
}

/// Upper bounds (inclusive, milliseconds) of the latency histogram
/// buckets; a final unbounded bucket catches everything slower, so each
/// histogram has `LATENCY_BOUNDS_MS.len() + 1` counters.
pub const LATENCY_BOUNDS_MS: [u64; 8] = [1, 3, 10, 30, 100, 300, 1000, 3000];

const BUCKETS: usize = LATENCY_BOUNDS_MS.len() + 1;
const RUNGS: [Rung; 4] = [
    Rung::Problem3,
    Rung::Problem2,
    Rung::NoiseOnly,
    Rung::Unbuffered,
];
const OUTCOMES: [Outcome; 5] = [
    Outcome::Optimized,
    Outcome::Degraded,
    Outcome::Infeasible,
    Outcome::ParseError,
    Outcome::Failed,
];

fn bucket_of(wall: Duration) -> usize {
    let ms = wall.as_secs_f64() * 1e3;
    LATENCY_BOUNDS_MS
        .iter()
        .position(|&b| ms <= b as f64)
        .unwrap_or(BUCKETS - 1)
}

fn rung_index(r: Rung) -> usize {
    RUNGS
        .iter()
        .position(|&x| x == r)
        .expect("all rungs listed")
}

fn outcome_index(o: Outcome) -> usize {
    OUTCOMES
        .iter()
        .position(|&x| x == o)
        .expect("all outcomes listed")
}

#[derive(Default)]
struct RungStats {
    served: AtomicU64,
    latency: [AtomicU64; BUCKETS],
}

/// Live counters, updated concurrently by every worker.
#[derive(Default)]
pub struct Metrics {
    requests: AtomicU64,
    outcomes: [AtomicU64; 5],
    rungs: [RungStats; 4],
    rejections: [AtomicU64; 3],
    worker_deaths: AtomicU64,
    respawns: AtomicU64,
    retries: AtomicU64,
    stale_drops: AtomicU64,
    bad_outputs: AtomicU64,
    conn_errors: AtomicU64,
    rejected_max_conns: AtomicU64,
    candidate_peak: AtomicU64,
    merge_peak: AtomicU64,
    merge_enumerated: AtomicU64,
    merge_pruned: AtomicU64,
    cancellations: [AtomicU64; 4],
    arena_peak_bytes: AtomicU64,
    degraded_pressure: AtomicU64,
    bad_frames: AtomicU64,
    verify_samples: AtomicU64,
    verify_failures: AtomicU64,
}

impl Metrics {
    /// Counts one incoming request (cache hits included).
    pub fn record_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request refused by admission control.
    pub fn record_rejection(&self, r: Rejection) {
        self.rejections[rejection_index(r)].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one worker thread that died outside its panic boundary.
    pub fn record_worker_death(&self) {
        self.worker_deaths.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one replacement worker spawned by the supervisor.
    pub fn record_respawn(&self) {
        self.respawns.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one bounded retry of a request whose worker died.
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one queued task dropped unstarted because its deadline
    /// expired while waiting.
    pub fn record_stale_drop(&self) {
        self.stale_drops.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one record rejected by the output integrity check.
    pub fn record_bad_output(&self) {
        self.bad_outputs.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one connection terminated for a protocol violation
    /// (oversized request line, read timeout, or unreadable stream).
    pub fn record_conn_error(&self) {
        self.conn_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one framed request rejected by its length/CRC check (the
    /// client got a typed `bad_frame` error, not a parse guess).
    pub fn record_bad_frame(&self) {
        self.bad_frames.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one connection refused at accept time because the server
    /// was at its `--max-conns` ceiling (the client got a typed
    /// `overloaded` refusal line).
    pub fn record_rejected_max_conns(&self) {
        self.rejected_max_conns.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one served response picked up by the sampled
    /// re-verification audit.
    pub fn record_verify_sample(&self) {
        self.verify_samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one sampled response whose independent audit disagreed
    /// with the served record (the cache entry was invalidated).
    pub fn record_verify_failure(&self) {
        self.verify_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Current sampled-audit tally as `(samples, failures)`.
    pub fn verify_tally(&self) -> (u64, u64) {
        (
            self.verify_samples.load(Ordering::Relaxed),
            self.verify_failures.load(Ordering::Relaxed),
        )
    }

    /// Counts one in-flight run cancelled, attributed to `reason`. Call
    /// only when [`buffopt::CancelToken::cancel`] reported the winning
    /// delivery, so each cancellation is counted exactly once however
    /// many parties race to trip the token.
    pub fn record_cancelled(&self, reason: CancelReason) {
        self.cancellations[cancel_index(reason)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a freshly computed record: its outcome, the rung that
    /// served it, and where its wall time lands in that rung's histogram.
    /// Cache hits are *not* recorded here — the original computation
    /// already was.
    pub fn record_outcome(&self, o: &NetOutcome) {
        self.outcomes[outcome_index(o.outcome)].fetch_add(1, Ordering::Relaxed);
        if let Some(rung) = o.rung {
            let r = &self.rungs[rung_index(rung)];
            r.served.fetch_add(1, Ordering::Relaxed);
            r.latency[bucket_of(o.wall)].fetch_add(1, Ordering::Relaxed);
        }
        // The serving DP run's counters (zeros without a DP solution).
        let stat = |f: fn(&Solution) -> usize| o.solution.as_ref().map_or(0, f) as u64;
        // Candidate-pressure gauges: high-water marks over every served
        // net, the serving-side view of how close the DP runs to its
        // candidate budget.
        self.candidate_peak
            .fetch_max(stat(|s| s.peak_candidates), Ordering::Relaxed);
        self.merge_peak
            .fetch_max(stat(|s| s.peak_merge_product), Ordering::Relaxed);
        // Cumulative merge-work split: rows the DP actually enumerated vs
        // pairs predictive pruning (and the block filters) skipped. The
        // ratio is the serving-side view of pruning effectiveness.
        self.merge_enumerated
            .fetch_add(stat(|s| s.merge_products_enumerated), Ordering::Relaxed);
        self.merge_pruned
            .fetch_add(stat(|s| s.merge_products_pruned), Ordering::Relaxed);
        // Resource-governor gauges: the provenance arena's high-water
        // mark across every worker, and how many runs finished by
        // degrading in place under a memory cap.
        self.arena_peak_bytes
            .fetch_max(stat(|s| s.peak_arena_bytes), Ordering::Relaxed);
        if o.degraded_by.is_some() {
            self.degraded_pressure.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of every counter, combined with the cache's
    /// counters, the subtree memo table's counters (zeroed default when
    /// the engine runs without one), and the pool size.
    pub fn snapshot(
        &self,
        cache: CacheStats,
        memo: MemoStats,
        workers: usize,
        uptime: Duration,
    ) -> MetricsSnapshot {
        MetricsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            outcomes: std::array::from_fn(|i| self.outcomes[i].load(Ordering::Relaxed)),
            rungs: std::array::from_fn(|i| RungSnapshot {
                served: self.rungs[i].served.load(Ordering::Relaxed),
                latency: std::array::from_fn(|b| self.rungs[i].latency[b].load(Ordering::Relaxed)),
            }),
            rejections: std::array::from_fn(|i| self.rejections[i].load(Ordering::Relaxed)),
            worker_deaths: self.worker_deaths.load(Ordering::Relaxed),
            respawns: self.respawns.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            stale_drops: self.stale_drops.load(Ordering::Relaxed),
            bad_outputs: self.bad_outputs.load(Ordering::Relaxed),
            conn_errors: self.conn_errors.load(Ordering::Relaxed),
            rejected_max_conns: self.rejected_max_conns.load(Ordering::Relaxed),
            candidate_peak: self.candidate_peak.load(Ordering::Relaxed),
            merge_peak: self.merge_peak.load(Ordering::Relaxed),
            merge_enumerated: self.merge_enumerated.load(Ordering::Relaxed),
            merge_pruned: self.merge_pruned.load(Ordering::Relaxed),
            cancellations: std::array::from_fn(|i| self.cancellations[i].load(Ordering::Relaxed)),
            arena_peak_bytes: self.arena_peak_bytes.load(Ordering::Relaxed),
            degraded_pressure: self.degraded_pressure.load(Ordering::Relaxed),
            bad_frames: self.bad_frames.load(Ordering::Relaxed),
            verify_samples: self.verify_samples.load(Ordering::Relaxed),
            verify_failures: self.verify_failures.load(Ordering::Relaxed),
            cache,
            memo,
            workers,
            uptime_ms: uptime.as_millis() as u64,
            version: env!("CARGO_PKG_VERSION"),
            shards: Vec::new(),
        }
    }
}

/// Frozen per-rung counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RungSnapshot {
    /// Nets this rung served.
    pub served: u64,
    /// Wall-time histogram (bounds [`LATENCY_BOUNDS_MS`] + overflow).
    pub latency: [u64; BUCKETS],
}

/// The histogram value reported for samples past the last bucket bound:
/// the overflow bucket has no upper edge, so percentiles landing there
/// are pinned to twice the final bound rather than pretending precision.
pub const LATENCY_OVERFLOW_MS: u64 = LATENCY_BOUNDS_MS[LATENCY_BOUNDS_MS.len() - 1] * 2;

impl RungSnapshot {
    /// The upper bound (ms) of the bucket where quantile `q` (in
    /// `(0, 1]`) falls, or 0 when the histogram is empty. Samples in the
    /// overflow bucket report [`LATENCY_OVERFLOW_MS`]. Bucketed
    /// percentiles are upper bounds, not interpolations — good enough
    /// to gate a benchmark, honest about their resolution.
    pub fn percentile_ms(&self, q: f64) -> u64 {
        let total: u64 = self.latency.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &n) in self.latency.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return LATENCY_BOUNDS_MS
                    .get(i)
                    .copied()
                    .unwrap_or(LATENCY_OVERFLOW_MS);
            }
        }
        LATENCY_OVERFLOW_MS
    }
}

/// One reactor shard's live gauges and per-engine counters, reported in
/// the `stats` response's `shards` array so operators can see routing
/// skew and per-shard saturation at a glance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStat {
    /// Shard index (also the engine index: shards and engines are 1:1).
    pub shard: usize,
    /// Connections currently owned by this shard's event loop.
    pub conns: u64,
    /// Tasks queued (submitted, not yet dequeued) in the shard engine's
    /// bounded submission queue right now.
    pub queue: u64,
    /// Requests this shard's engine has accepted so far.
    pub requests: u64,
    /// Solution-cache hits on this shard's engine.
    pub cache_hits: u64,
    /// Solution-cache misses on this shard's engine.
    pub cache_misses: u64,
    /// Subtree-memo hits on this shard's engine.
    pub memo_hits: u64,
}

/// A frozen view of the engine's counters, serializable as one JSON
/// object (the `stats` response of the network service).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Requests accepted (cache hits included).
    pub requests: u64,
    /// Records per final classification, `OUTCOMES` order.
    pub outcomes: [u64; 5],
    /// Per-rung counters, ladder order.
    pub rungs: [RungSnapshot; 4],
    /// Requests refused by admission control, [`REJECTIONS`] order.
    pub rejections: [u64; 3],
    /// Worker threads that died outside their panic boundary.
    pub worker_deaths: u64,
    /// Replacement workers spawned (deaths repaired + stalled slots
    /// backfilled).
    pub respawns: u64,
    /// Bounded retries of requests whose worker died.
    pub retries: u64,
    /// Queued tasks dropped unstarted after their deadline expired.
    pub stale_drops: u64,
    /// Records rejected by the output integrity check.
    pub bad_outputs: u64,
    /// Connections terminated for protocol violations.
    pub conn_errors: u64,
    /// Connections refused at accept time by the `--max-conns` ceiling.
    pub rejected_max_conns: u64,
    /// Largest per-net DP candidate list served so far (high-water mark).
    pub candidate_peak: u64,
    /// Largest per-net count of enumerated merge rows served so far
    /// (high-water mark); the gap to `candidate_peak` is the fused
    /// merge-prune's savings.
    pub merge_peak: u64,
    /// Merge rows enumerated across every served net (cumulative).
    pub merge_enumerated: u64,
    /// Merge pairs skipped unenumerated across every served net
    /// (cumulative) — block filters plus predictive witness skips. The
    /// `pruned / (enumerated + pruned)` ratio is the fleet-wide
    /// predictive-pruning effectiveness.
    pub merge_pruned: u64,
    /// In-flight runs cancelled, by reason ([`CancelReason::ALL`] order:
    /// `deadline`, `shutdown`, `disconnect`, `supervisor`).
    pub cancellations: [u64; 4],
    /// Largest provenance-arena footprint any worker's run reached so
    /// far, in bytes (high-water mark over every served net).
    pub arena_peak_bytes: u64,
    /// Runs that finished by degrading in place under a memory cap
    /// (feasible but possibly suboptimal, tagged in their records).
    pub degraded_pressure: u64,
    /// Framed requests rejected by their length/CRC check.
    pub bad_frames: u64,
    /// Served responses picked up by the sampled re-verification audit.
    pub verify_samples: u64,
    /// Sampled responses whose independent audit disagreed with the
    /// served record.
    pub verify_failures: u64,
    /// Cache counters at snapshot time.
    pub cache: CacheStats,
    /// Subtree memo table counters at snapshot time (all-zero when the
    /// engine runs without a memo table).
    pub memo: MemoStats,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Milliseconds since the engine was created, so operators can
    /// correlate counter deltas across restarts.
    pub uptime_ms: u64,
    /// The serving crate's version string.
    pub version: &'static str,
    /// Per-shard breakdown: empty in an engine's own snapshot; the
    /// reactor's `stats` command fills it before serializing.
    pub shards: Vec<ShardStat>,
}

impl MetricsSnapshot {
    /// Folds another engine's snapshot into this one, producing the
    /// fleet view the `stats` command reports when serving runs across
    /// several per-shard engines: counters and histograms sum bucket-wise
    /// (the bounds are shared by construction), high-water marks take
    /// the max, and uptime keeps the longest-lived engine's clock.
    /// `workers` sums, so the fleet view reports total pool strength.
    /// Per-shard breakdowns concatenate.
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        self.requests += other.requests;
        for (a, b) in self.outcomes.iter_mut().zip(other.outcomes) {
            *a += b;
        }
        for (r, o) in self.rungs.iter_mut().zip(&other.rungs) {
            r.served += o.served;
            for (a, b) in r.latency.iter_mut().zip(o.latency) {
                *a += b;
            }
        }
        for (a, b) in self.rejections.iter_mut().zip(other.rejections) {
            *a += b;
        }
        self.worker_deaths += other.worker_deaths;
        self.respawns += other.respawns;
        self.retries += other.retries;
        self.stale_drops += other.stale_drops;
        self.bad_outputs += other.bad_outputs;
        self.conn_errors += other.conn_errors;
        self.rejected_max_conns += other.rejected_max_conns;
        self.candidate_peak = self.candidate_peak.max(other.candidate_peak);
        self.merge_peak = self.merge_peak.max(other.merge_peak);
        self.merge_enumerated += other.merge_enumerated;
        self.merge_pruned += other.merge_pruned;
        for (a, b) in self.cancellations.iter_mut().zip(other.cancellations) {
            *a += b;
        }
        self.arena_peak_bytes = self.arena_peak_bytes.max(other.arena_peak_bytes);
        self.degraded_pressure += other.degraded_pressure;
        self.bad_frames += other.bad_frames;
        self.verify_samples += other.verify_samples;
        self.verify_failures += other.verify_failures;
        self.cache.hits += other.cache.hits;
        self.cache.misses += other.cache.misses;
        self.cache.evictions += other.cache.evictions;
        self.cache.entries += other.cache.entries;
        self.cache.capacity += other.cache.capacity;
        self.cache.integrity_checks += other.cache.integrity_checks;
        self.cache.corrupt_evictions += other.cache.corrupt_evictions;
        self.memo.hits += other.memo.hits;
        self.memo.misses += other.memo.misses;
        self.memo.sig_conflicts += other.memo.sig_conflicts;
        self.memo.seeded += other.memo.seeded;
        self.memo.stores += other.memo.stores;
        self.memo.evictions += other.memo.evictions;
        self.memo.bytes += other.memo.bytes;
        self.memo.entries += other.memo.entries;
        self.memo.budget_bytes += other.memo.budget_bytes;
        self.memo.integrity_checks += other.memo.integrity_checks;
        self.memo.corrupt_evictions += other.memo.corrupt_evictions;
        self.workers += other.workers;
        self.uptime_ms = self.uptime_ms.max(other.uptime_ms);
        self.shards.extend(other.shards.iter().cloned());
    }
    /// This snapshot as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str(&format!(
            "{{\"requests\":{},\"workers\":{},\"uptime_ms\":{},\"version\":\"{}\"",
            self.requests, self.workers, self.uptime_ms, self.version
        ));
        s.push_str(&format!(
            ",\"cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"entries\":{},\"capacity\":{}}}",
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.entries,
            self.cache.capacity
        ));
        s.push_str(&format!(
            ",\"memo\":{{\"hits\":{},\"misses\":{},\"sig_conflicts\":{},\"seeded_merges\":{},\"stores\":{},\"evictions\":{},\"bytes\":{},\"entries\":{},\"budget_bytes\":{}}}",
            self.memo.hits,
            self.memo.misses,
            self.memo.sig_conflicts,
            self.memo.seeded,
            self.memo.stores,
            self.memo.evictions,
            self.memo.bytes,
            self.memo.entries,
            self.memo.budget_bytes
        ));
        s.push_str(",\"admission\":{");
        for (i, r) in REJECTIONS.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{}", r.as_str(), self.rejections[i]));
        }
        s.push_str(&format!(",\"stale_drops\":{}}}", self.stale_drops));
        s.push_str(&format!(
            ",\"supervision\":{{\"worker_deaths\":{},\"respawns\":{},\"retries\":{},\"bad_outputs\":{},\"cancelled\":{}}}",
            self.worker_deaths,
            self.respawns,
            self.retries,
            self.bad_outputs,
            self.cancellations.iter().sum::<u64>()
        ));
        s.push_str(&format!(
            ",\"connections\":{{\"errors\":{},\"bad_frames\":{},\"rejected_max_conns\":{}}}",
            self.conn_errors, self.bad_frames, self.rejected_max_conns
        ));
        if !self.shards.is_empty() {
            s.push_str(",\"shards\":[");
            for (i, sh) in self.shards.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"shard\":{},\"conns\":{},\"queue\":{},\"requests\":{},\
                     \"cache_hits\":{},\"cache_misses\":{},\"memo_hits\":{}}}",
                    sh.shard,
                    sh.conns,
                    sh.queue,
                    sh.requests,
                    sh.cache_hits,
                    sh.cache_misses,
                    sh.memo_hits
                ));
            }
            s.push(']');
        }
        // Aggregated integrity counters: checks and corrupt evictions
        // sum the solution cache's and memo table's verify-on-hit work;
        // samples/failures come from the post-hoc audit.
        s.push_str(&format!(
            ",\"integrity\":{{\"checks\":{},\"corrupt_evictions\":{},\"verify_samples\":{},\"verify_failures\":{}}}",
            self.cache.integrity_checks + self.memo.integrity_checks,
            self.cache.corrupt_evictions + self.memo.corrupt_evictions,
            self.verify_samples,
            self.verify_failures
        ));
        s.push_str(&format!(
            ",\"candidates\":{{\"peak\":{},\"merge_peak\":{},\"merge_enumerated\":{},\"merge_pruned\":{}}}",
            self.candidate_peak, self.merge_peak, self.merge_enumerated, self.merge_pruned
        ));
        s.push_str(&format!(
            ",\"resource\":{{\"arena_peak_bytes\":{},\"degraded_pressure\":{},\"cancellations\":{{",
            self.arena_peak_bytes, self.degraded_pressure
        ));
        for (i, r) in CancelReason::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{}", r.as_str(), self.cancellations[i]));
        }
        s.push_str("}}");
        s.push_str(",\"outcomes\":{");
        for (i, o) in OUTCOMES.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{}", o.as_str(), self.outcomes[i]));
        }
        s.push_str("},\"latency_bounds_ms\":[");
        for (i, b) in LATENCY_BOUNDS_MS.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&b.to_string());
        }
        s.push_str("],\"rungs\":{");
        for (i, r) in RUNGS.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\"{}\":{{\"served\":{},\"p50_ms\":{},\"p99_ms\":{},\"p999_ms\":{},\"latency\":[",
                r.as_str(),
                self.rungs[i].served,
                self.rungs[i].percentile_ms(0.50),
                self.rungs[i].percentile_ms(0.99),
                self.rungs[i].percentile_ms(0.999)
            ));
            for (b, n) in self.rungs[i].latency.iter().enumerate() {
                if b > 0 {
                    s.push(',');
                }
                s.push_str(&n.to_string());
            }
            s.push_str("]}");
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffopt_pipeline::{NetInput, PipelineConfig};

    /// A Problem 3 record of a small healthy net: it carries a DP
    /// solution whose counters the tests overwrite through [`dp_stats`].
    fn dp_record() -> NetOutcome {
        let (tree, scenario) =
            buffopt_workload::adversarial::valid_net(&buffopt_workload::WorkloadConfig::default());
        let rec = buffopt_pipeline::optimize_input(
            &NetInput::Parsed {
                name: "d".into(),
                tree,
                scenario,
            },
            &PipelineConfig::new(buffopt_buffers::catalog::ibm_like()),
        );
        assert_eq!(rec.rung, Some(Rung::Problem3));
        rec
    }

    fn dp_stats(rec: &mut NetOutcome) -> &mut Solution {
        rec.solution.as_mut().expect("a DP rung served the record")
    }

    fn parse_error_record() -> NetOutcome {
        buffopt_pipeline::optimize_input(
            &NetInput::Failed {
                name: "m".into(),
                error: "bad".into(),
            },
            &PipelineConfig::new(buffopt_buffers::catalog::single_buffer()),
        )
    }

    #[test]
    fn buckets_cover_the_axis() {
        assert_eq!(bucket_of(Duration::ZERO), 0);
        assert_eq!(bucket_of(Duration::from_millis(1)), 0);
        assert_eq!(bucket_of(Duration::from_millis(2)), 1);
        assert_eq!(bucket_of(Duration::from_millis(500)), 6);
        assert_eq!(bucket_of(Duration::from_secs(60)), BUCKETS - 1);
    }

    #[test]
    fn outcome_and_rung_counters_accumulate() {
        let m = Metrics::default();
        m.record_request();
        m.record_request();
        let mut rec = parse_error_record();
        m.record_outcome(&rec);
        // Fake a served rung to exercise the histogram path.
        rec.outcome = Outcome::Degraded;
        rec.rung = Some(Rung::NoiseOnly);
        rec.wall = Duration::from_millis(7);
        m.record_outcome(&rec);
        let snap = m.snapshot(
            CacheStats::default(),
            MemoStats::default(),
            4,
            Duration::ZERO,
        );
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.outcomes[outcome_index(Outcome::ParseError)], 1);
        assert_eq!(snap.outcomes[outcome_index(Outcome::Degraded)], 1);
        let noise = &snap.rungs[rung_index(Rung::NoiseOnly)];
        assert_eq!(noise.served, 1);
        assert_eq!(noise.latency[2], 1, "7 ms lands in the ≤10 ms bucket");
    }

    #[test]
    fn candidate_pressure_gauges_track_high_water_marks() {
        let m = Metrics::default();
        let mut rec = dp_record();
        let s = dp_stats(&mut rec);
        s.peak_candidates = 40;
        s.peak_merge_product = 900;
        s.merge_products_enumerated = 1000;
        s.merge_products_pruned = 600;
        m.record_outcome(&rec);
        let s = dp_stats(&mut rec);
        s.peak_candidates = 25;
        s.peak_merge_product = 1200;
        s.merge_products_enumerated = 500;
        s.merge_products_pruned = 900;
        m.record_outcome(&rec);
        let snap = m.snapshot(
            CacheStats::default(),
            MemoStats::default(),
            1,
            Duration::ZERO,
        );
        assert_eq!(snap.candidate_peak, 40, "keeps the max, not the last");
        assert_eq!(snap.merge_peak, 1200);
        assert_eq!(snap.merge_enumerated, 1500, "totals accumulate");
        assert_eq!(snap.merge_pruned, 1500);
        let j = snap.to_json();
        assert!(
            j.contains(
                "\"candidates\":{\"peak\":40,\"merge_peak\":1200,\
                 \"merge_enumerated\":1500,\"merge_pruned\":1500}"
            ),
            "{j}"
        );
    }

    #[test]
    fn snapshot_serializes_every_section() {
        let m = Metrics::default();
        m.record_request();
        m.record_bad_frame();
        m.record_verify_sample();
        m.record_verify_sample();
        m.record_verify_failure();
        let j = m
            .snapshot(
                CacheStats {
                    hits: 1,
                    misses: 2,
                    evictions: 0,
                    entries: 1,
                    capacity: 64,
                    integrity_checks: 5,
                    corrupt_evictions: 1,
                },
                MemoStats {
                    integrity_checks: 3,
                    corrupt_evictions: 1,
                    ..MemoStats::default()
                },
                2,
                Duration::from_millis(1234),
            )
            .to_json();
        let version_needle = format!("\"version\":\"{}\"", env!("CARGO_PKG_VERSION"));
        for needle in [
            "\"requests\":1",
            "\"workers\":2",
            "\"uptime_ms\":1234",
            version_needle.as_str(),
            "\"cache\":{\"hits\":1,\"misses\":2",
            "\"memo\":{\"hits\":0,\"misses\":0,\"sig_conflicts\":0,\"seeded_merges\":0,\
             \"stores\":0,\"evictions\":0,\"bytes\":0,\"entries\":0,\"budget_bytes\":0}",
            "\"admission\":{\"overloaded\":0,\"deadline_exceeded\":0,\"shutting_down\":0,\"stale_drops\":0}",
            "\"supervision\":{\"worker_deaths\":0,\"respawns\":0,\"retries\":0,\"bad_outputs\":0,\"cancelled\":0}",
            "\"connections\":{\"errors\":0,\"bad_frames\":1,\"rejected_max_conns\":0}",
            // checks = cache 5 + memo 3, corrupt_evictions = cache 1 + memo 1.
            "\"integrity\":{\"checks\":8,\"corrupt_evictions\":2,\"verify_samples\":2,\"verify_failures\":1}",
            "\"candidates\":{\"peak\":0,\"merge_peak\":0,\"merge_enumerated\":0,\"merge_pruned\":0}",
            "\"resource\":{\"arena_peak_bytes\":0,\"degraded_pressure\":0,\
             \"cancellations\":{\"deadline\":0,\"shutdown\":0,\"disconnect\":0,\"supervisor\":0}}",
            "\"outcomes\":{\"optimized\":0",
            "\"latency_bounds_ms\":[1,3,10,30,100,300,1000,3000]",
            "\"rungs\":{\"problem3\":{\"served\":0,\"p50_ms\":0,\"p99_ms\":0,\"p999_ms\":0,\
             \"latency\":[0,0,0,0,0,0,0,0,0]}",
        ] {
            assert!(j.contains(needle), "{needle} missing from {j}");
        }
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn resource_gauges_and_cancellations_accumulate() {
        let m = Metrics::default();
        let mut rec = dp_record();
        dp_stats(&mut rec).peak_arena_bytes = 4096;
        rec.degraded_by = Some(buffopt::BudgetResource::ArenaBytes);
        m.record_outcome(&rec);
        dp_stats(&mut rec).peak_arena_bytes = 1024; // lower peak must not shrink the gauge
        rec.degraded_by = None;
        m.record_outcome(&rec);
        m.record_cancelled(CancelReason::Deadline);
        m.record_cancelled(CancelReason::Disconnect);
        m.record_cancelled(CancelReason::Disconnect);
        let snap = m.snapshot(
            CacheStats::default(),
            MemoStats::default(),
            1,
            Duration::ZERO,
        );
        assert_eq!(snap.arena_peak_bytes, 4096, "keeps the max, not the last");
        assert_eq!(snap.degraded_pressure, 1);
        assert_eq!(snap.cancellations, [1, 0, 2, 0]);
        let j = snap.to_json();
        assert!(
            j.contains(
                "\"resource\":{\"arena_peak_bytes\":4096,\"degraded_pressure\":1,\
                 \"cancellations\":{\"deadline\":1,\"shutdown\":0,\"disconnect\":2,\"supervisor\":0}}"
            ),
            "{j}"
        );
        assert!(j.contains("\"cancelled\":3"), "{j}");
    }

    #[test]
    fn percentiles_read_bucket_upper_bounds() {
        let empty = RungSnapshot {
            served: 0,
            latency: [0; BUCKETS],
        };
        assert_eq!(empty.percentile_ms(0.99), 0, "empty histogram reports 0");

        // 90 fast (≤1 ms), 9 medium (≤30 ms), 1 in the overflow bucket.
        let mut latency = [0u64; BUCKETS];
        latency[0] = 90;
        latency[3] = 9;
        latency[BUCKETS - 1] = 1;
        let r = RungSnapshot {
            served: 100,
            latency,
        };
        assert_eq!(r.percentile_ms(0.50), 1);
        assert_eq!(r.percentile_ms(0.90), 1);
        assert_eq!(r.percentile_ms(0.99), 30);
        assert_eq!(r.percentile_ms(0.999), LATENCY_OVERFLOW_MS);
        assert_eq!(r.percentile_ms(1.0), LATENCY_OVERFLOW_MS);
    }

    #[test]
    fn absorb_sums_counters_and_keeps_high_water_marks() {
        let a = Metrics::default();
        a.record_request();
        a.record_conn_error();
        a.record_cancelled(CancelReason::Disconnect);
        let mut rec = dp_record();
        dp_stats(&mut rec).peak_candidates = 40;
        rec.wall = Duration::from_millis(2);
        a.record_outcome(&rec);

        let b = Metrics::default();
        b.record_request();
        b.record_request();
        b.record_rejected_max_conns();
        dp_stats(&mut rec).peak_candidates = 90;
        m_record_with_wall(&b, &mut rec, Duration::from_millis(500));

        let mut snap = a.snapshot(
            CacheStats {
                hits: 1,
                misses: 2,
                ..CacheStats::default()
            },
            MemoStats::default(),
            2,
            Duration::from_millis(10),
        );
        snap.shards.push(ShardStat {
            shard: 0,
            conns: 3,
            queue: 1,
            requests: 1,
            cache_hits: 1,
            cache_misses: 2,
            memo_hits: 0,
        });
        let other = b.snapshot(
            CacheStats {
                hits: 4,
                misses: 1,
                ..CacheStats::default()
            },
            MemoStats::default(),
            3,
            Duration::from_millis(25),
        );
        snap.absorb(&other);

        assert_eq!(snap.requests, 3);
        assert_eq!(snap.conn_errors, 1);
        assert_eq!(snap.rejected_max_conns, 1);
        assert_eq!(snap.cancellations, [0, 0, 1, 0]);
        assert_eq!(snap.candidate_peak, 90, "gauges keep the max");
        assert_eq!(snap.cache.hits, 5);
        assert_eq!(snap.cache.misses, 3);
        assert_eq!(snap.workers, 5, "pool strength sums");
        assert_eq!(snap.uptime_ms, 25, "longest-lived clock wins");
        let p3 = &snap.rungs[rung_index(Rung::Problem3)];
        assert_eq!(p3.served, 2, "histograms sum bucket-wise");
        assert_eq!(p3.latency[1] + p3.latency[6], 2);
        let j = snap.to_json();
        assert!(
            j.contains(
                "\"shards\":[{\"shard\":0,\"conns\":3,\"queue\":1,\"requests\":1,\
                 \"cache_hits\":1,\"cache_misses\":2,\"memo_hits\":0}]"
            ),
            "{j}"
        );
    }

    fn m_record_with_wall(m: &Metrics, rec: &mut NetOutcome, wall: Duration) {
        rec.wall = wall;
        m.record_outcome(rec);
    }

    #[test]
    fn supervision_and_admission_counters_accumulate() {
        let m = Metrics::default();
        m.record_rejection(Rejection::Overloaded);
        m.record_rejection(Rejection::Overloaded);
        m.record_rejection(Rejection::DeadlineExceeded);
        m.record_worker_death();
        m.record_respawn();
        m.record_retry();
        m.record_stale_drop();
        m.record_bad_output();
        m.record_conn_error();
        let snap = m.snapshot(
            CacheStats::default(),
            MemoStats::default(),
            1,
            Duration::ZERO,
        );
        assert_eq!(snap.rejections, [2, 1, 0]);
        assert_eq!(snap.worker_deaths, 1);
        assert_eq!(snap.respawns, 1);
        assert_eq!(snap.retries, 1);
        assert_eq!(snap.stale_drops, 1);
        assert_eq!(snap.bad_outputs, 1);
        assert_eq!(snap.conn_errors, 1);
        let j = snap.to_json();
        assert!(j.contains("\"admission\":{\"overloaded\":2"), "{j}");
        assert!(j.contains("\"worker_deaths\":1"), "{j}");
    }
}
