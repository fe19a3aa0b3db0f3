//! The concurrent execution engine: a supervised fixed-size worker pool
//! fed through a bounded queue, fronted by the solution cache and the
//! metrics, with admission control for interactive callers.
//!
//! # One submit path
//!
//! Every request enters through one completion-based submit: admission
//! (shutdown, cache probe, the queue's high-watermark), then a task on
//! the queue that carries its own completion callback. The worker that
//! finishes the task triages the result and fires the completion on its
//! own thread. The TCP reactor's completion posts the response line to
//! the shard that owns the connection; the blocking entry points
//! ([`Engine::try_optimize`], [`Engine::optimize`], [`Engine::run_jobs`])
//! are thin waits on a channel that their completion sends to.
//!
//! # Determinism
//!
//! [`Engine::run_jobs`] tags every job with its input index, lets workers
//! complete in whatever order the scheduler produces, and reassembles the
//! records by index — so a parallel batch emits records in exactly the
//! input order, and the content of each record is independent of which
//! worker computed it (per-net optimization is single-threaded and
//! deterministic). A record holds the answer only, so a parallel
//! batch's JSONL is byte-identical to a serial one. Run telemetry — the
//! measured `wall` and the serving solution's DP counters — stays on
//! [`NetOutcome`] for the metrics and the service's response envelope.
//!
//! # Supervision
//!
//! Per-net panics are contained inside the worker's panic boundary and
//! become `failed` records. A worker that dies *outside* that boundary
//! (a panic in the dequeue/bookkeeping path, or an injected
//! [`FaultAction::KillWorker`]) is detected immediately: every dequeued
//! task is held by a drop guard that, if the worker unwinds or exits
//! without completing it, decrements the live-worker count and hands the
//! task to the completion path as a death. Triage there — the only
//! place a worker's result is judged — counts the death, reaps the dead
//! thread, spawns a replacement, and re-queues the request up to
//! [`EngineOptions::max_retries`] times before failing **only that
//! request**. A completed record whose net name does not match the
//! submitted job is treated the same way (a corrupt worker is a dead
//! worker as far as the caller is concerned). Retries bypass the queue's
//! admission bound, so a worker re-queueing a request never waits on
//! its own pool.
//!
//! # Admission control
//!
//! The task queue is bounded. Interactive submissions —
//! [`Engine::try_optimize`] and the TCP service — **shed** instead of
//! blocking when the queue is at its high-watermark
//! ([`Rejection::Overloaded`]) and arm the per-request deadline at
//! admission (queue wait counts against it). Every submission is refused
//! with [`Rejection::ShuttingDown`] once [`Engine::begin_shutdown`] has
//! been called. Blocking callers ([`Engine::optimize`],
//! [`Engine::run_jobs`]) feel backpressure instead of shedding and carry
//! no deadline.
//!
//! Deadlines are enforced by the waiter, not the worker: the blocking
//! wrappers wait with a timeout, the reactor shard with its timer heap.
//! Either way an expiry goes through `Engine::expire`, which counts
//! the request's one `deadline_exceeded` rejection. The waiter and the
//! worker race to *settle* each request through a shared ticket; exactly
//! one wins. If the waiter wins, the request is still queued or
//! running: `expire` trips its token and spawns a surplus worker so the
//! stalled slot does not shrink the pool, and the worker that later
//! reaches the request discards it uncounted and retires. If the worker
//! wins, it was already done with the request and nothing is spawned.
//! Workers additionally drop queued tasks whose deadline expired while
//! waiting ("stale"), so an overloaded queue drains at memcpy speed
//! instead of computing answers nobody is waiting for; the waiter's
//! clock answers those requests.
//!
//! # Cancellation
//!
//! Every task carries a [`CancelToken`] checked by the optimizer at
//! merge-row stride granularity. A deadline expiry trips it, so the
//! stalled run aborts within microseconds and the slot frees instead of
//! grinding to completion for nobody; the TCP service trips the same
//! token when it sees the client disconnect mid-request. Injected
//! resource faults resolve into the run rather than the machinery:
//! `MemPressure` forces one run under a tiny arena cap with
//! degrade-in-place on, and `CancelRun` trips the token with the
//! supervisor reason. A cancelled run's record is never cached. Shutdown
//! deliberately does NOT cancel in-flight work — the drain contract
//! ("every admitted request gets its response") stays intact.
//!
//! [`FaultAction::KillWorker`]: buffopt_pipeline::fault::FaultAction::KillWorker

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use buffopt::{CancelReason, CancelToken};
use buffopt_pipeline::fault::{FaultAction, FaultPlan, Seam};
use buffopt_pipeline::{
    hush_panics, optimize_input, optimize_input_with_cancel, reverify_outcome, BatchReport,
    NetInput, NetOutcome, Outcome, PanicHush, PipelineConfig, Reverify,
};

use crate::cache::{digest, SolutionCache, CACHE_SHARDS};
use crate::metrics::{Metrics, MetricsSnapshot};

/// One unit of work: a net plus an optional cache key. Jobs without a
/// key bypass the cache entirely (both lookup and fill).
#[derive(Debug, Clone)]
pub struct Job {
    /// The net to optimize (or the parse failure to record).
    pub input: NetInput,
    /// Content digest over `(net, scenario, library, budget)`; see
    /// [`Engine::key_for`].
    pub cache_key: Option<u64>,
}

/// Whether a request was answered from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served from the cache without re-optimizing.
    Hit,
    /// Computed by a worker (and cached if the job carried a key).
    Miss,
}

impl CacheStatus {
    /// Stable lowercase identifier used in service responses.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
        }
    }
}

/// A served request: the record plus serving provenance.
#[derive(Debug, Clone)]
pub struct Served {
    /// The per-net outcome record.
    pub outcome: NetOutcome,
    /// Cache hit or miss.
    pub cache: CacheStatus,
    /// Index of the worker that computed the record (for a hit, the
    /// worker that computed it originally).
    pub worker: usize,
}

/// Why an interactive request was refused without a record. Each variant
/// maps to one structured `{"error":...}` response of the TCP service
/// and one admission counter in the metrics snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// The queue is at its high-watermark; retry later.
    Overloaded,
    /// The per-request deadline passed before a worker finished.
    DeadlineExceeded,
    /// [`Engine::begin_shutdown`] was called; no new work is admitted.
    ShuttingDown,
}

impl Rejection {
    /// Stable lowercase identifier used in service error responses and
    /// the metrics snapshot.
    pub fn as_str(self) -> &'static str {
        match self {
            Rejection::Overloaded => "overloaded",
            Rejection::DeadlineExceeded => "deadline_exceeded",
            Rejection::ShuttingDown => "shutting_down",
        }
    }
}

/// Engine construction knobs.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Worker threads in the pool (≥ 1; clamped).
    pub jobs: usize,
    /// Total solution-cache capacity in records; 0 disables caching.
    pub cache_capacity: usize,
    /// Queue high-watermark for [`Engine::try_optimize`] admission;
    /// 0 means `2 × jobs` (the default backpressure depth).
    pub queue_depth: usize,
    /// Per-request deadline for [`Engine::try_optimize`], armed at
    /// admission (queue wait counts); `None` disables it. Distinct from
    /// the pipeline's per-net compute budget, which arms at dequeue.
    pub request_deadline: Option<Duration>,
    /// How many times a request whose worker died (or returned a record
    /// for the wrong net) is retried before it fails.
    pub max_retries: u32,
    /// Deterministic fault-injection plan for chaos tests; `None` in
    /// production.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Fraction of served responses (cache hits included) handed to an
    /// off-critical-path audit thread that independently re-derives the
    /// record's slack and noise headroom
    /// ([`buffopt_pipeline::reverify_outcome`]). `0.0` (the default)
    /// disables the auditor entirely; `1.0` audits every response.
    /// Sampling is deterministic (every ⌈1/rate⌉-th response), never
    /// random. A failed audit counts `integrity.verify_failures` and
    /// evicts the record's cache entry so the lie is never served again.
    pub verify_sample_rate: f64,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            jobs: default_jobs(),
            cache_capacity: 1024,
            queue_depth: 0,
            request_deadline: None,
            max_retries: 1,
            fault_plan: None,
            verify_sample_rate: 0.0,
        }
    }
}

/// The machine's available parallelism (≥ 1).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Receives a request's final record on the worker thread that finished
/// it. Dropped uncalled when the request's waiter has already answered
/// it — a stale drop, or a late completion after [`Engine::expire`].
pub(crate) type Completion = Box<dyn FnOnce(Served) + Send>;

/// What [`Engine::submit`] did with an admitted request.
//
// `Hit` dwarfs `Queued`, but a `Submitted` lives only for the match right
// after `submit` returns — boxing the record would cost an allocation
// per cache hit to shrink a value that never outlives a frame.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Submitted {
    /// Answered from the cache on the spot; the completion was dropped.
    Hit(Served),
    /// Queued for a worker; the completion fires when it finishes. A
    /// waiter whose `deadline` passes first calls [`Engine::expire`].
    Queued {
        deadline: Option<Instant>,
        ticket: Ticket,
    },
}

/// A waiter's handle on a queued request.
#[derive(Clone)]
pub(crate) struct Ticket {
    /// Trip it to abort the worker's run at its next stride checkpoint
    /// (client disconnect; [`Engine::expire`] trips it too).
    pub(crate) cancel: CancelToken,
    /// Set by whichever side settles the request first: the worker that
    /// finishes or stale-drops it, or the waiter that expires it.
    settled: Arc<AtomicBool>,
}

impl Ticket {
    /// Claims the request; `false` if the other side already had.
    fn settle(&self) -> bool {
        !self.settled.swap(true, Ordering::SeqCst)
    }
}

struct Task {
    attempt: u32,
    job: Job,
    deadline: Option<Instant>,
    ticket: Ticket,
    done: Completion,
}

/// How a task enters the queue.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Admission {
    /// Refuse with [`Rejection::Overloaded`] at the high-watermark.
    Shed,
    /// Wait for room at the high-watermark.
    Block,
    /// A retry of admitted work: always enters.
    Retry,
}

/// The bounded task queue. The bound is an admission policy applied to
/// first submissions; retries of admitted work always enter.
struct TaskQueue {
    state: Mutex<QueueState>,
    /// Signalled when a task arrives or the queue closes.
    ready: Condvar,
    /// Signalled when a task leaves or the queue closes.
    room: Condvar,
    depth: usize,
}

struct QueueState {
    tasks: VecDeque<Task>,
    closed: bool,
}

impl TaskQueue {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueues `task`, or drops it and says why it was refused.
    fn push(&self, task: Task, admission: Admission) -> Result<(), Rejection> {
        let mut st = self.lock();
        loop {
            if st.closed {
                return Err(Rejection::ShuttingDown);
            }
            if st.tasks.len() < self.depth || admission == Admission::Retry {
                break;
            }
            if admission == Admission::Shed {
                return Err(Rejection::Overloaded);
            }
            st = self.room.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.tasks.push_back(task);
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// The next task; `None` once the queue is closed and empty.
    fn pop(&self) -> Option<Task> {
        let mut st = self.lock();
        loop {
            if let Some(task) = st.tasks.pop_front() {
                drop(st);
                self.room.notify_one();
                return Some(task);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Refuses new tasks; workers drain what is queued, then exit.
    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
        self.room.notify_all();
    }
}

/// State shared by the engine handle and every worker thread.
struct Inner {
    queue: TaskQueue,
    cfg: Arc<PipelineConfig>,
    plan: Option<Arc<FaultPlan>>,
    cache: Arc<SolutionCache>,
    metrics: Arc<Metrics>,
    /// Worker threads alive right now — incremented when a thread is
    /// promised (at spawn), decremented by the death guard and by a
    /// worker retiring after an expired request, so supervisors never
    /// over-spawn.
    live: AtomicUsize,
    /// Nominal pool size.
    target: usize,
    max_retries: u32,
    workers: Mutex<Vec<JoinHandle<()>>>,
    next_worker_id: AtomicUsize,
    /// Sampled re-verification (see [`EngineOptions::verify_sample_rate`]).
    verify_rate: f64,
    verify_seen: AtomicU64,
    verify_tx: Mutex<Option<mpsc::Sender<VerifyTask>>>,
}

impl Inner {
    /// Starts one worker thread. The caller has already counted it in
    /// `live` — a worker counts from the moment it is promised, so
    /// concurrent supervisors never over-spawn.
    fn start_worker(self: &Arc<Self>) {
        let wid = self.next_worker_id.fetch_add(1, Ordering::SeqCst);
        let inner = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("buffopt-worker-{wid}"))
            .spawn(move || worker_loop(wid, &inner))
            .expect("spawn worker thread");
        self.workers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(handle);
    }

    /// Reaps dead worker threads and spawns replacements until the pool
    /// is back at target strength. Called whenever a worker dies or
    /// retires; idempotent and safe to call concurrently.
    fn supervise(self: &Arc<Self>) {
        self.workers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|w| !w.is_finished());
        // The caller decremented `live` before calling, so this count
        // already reflects the thread being reacted to.
        while self
            .live
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |l| {
                (l < self.target).then_some(l + 1)
            })
            .is_ok()
        {
            self.start_worker();
            self.metrics.record_respawn();
        }
    }

    /// Exits the calling worker, whose request the waiter expired: the
    /// surplus worker spawned by [`Engine::expire`] takes its place.
    /// Should a death have left the pool short meanwhile, the supervisor
    /// tops it up first.
    fn retire(self: &Arc<Self>) {
        self.live.fetch_sub(1, Ordering::SeqCst);
        self.supervise();
    }

    /// Arms the [`Seam::Store`] fault seam right after a cache insert and
    /// applies any state-corruption fault to the state just committed —
    /// modelling bit rot between the write and the next read, which the
    /// verify-on-hit checks must turn into a detected eviction instead of
    /// a served lie.
    fn fire_store_fault(&self, key: u64) {
        let Some(plan) = self.plan.as_deref() else {
            return;
        };
        match plan.fire(Seam::Store) {
            Some(FaultAction::BitFlipCacheEntry) => {
                self.cache.corrupt(key, false);
            }
            Some(FaultAction::BitFlipMemoEntry) => {
                if let Some(memo) = self.cfg.memo.as_ref() {
                    memo.corrupt_any();
                }
            }
            _ => {}
        }
    }

    /// Hands this response to the audit thread if it wins the
    /// deterministic sample: response `n` is sampled iff `⌊n·rate⌋`
    /// advances, which spaces samples evenly at any rate and samples
    /// everything at 1.0. Called on every serving path — fresh
    /// computations AND cache hits — so replayed corruption is as
    /// auditable as fresh corruption.
    fn maybe_verify(&self, cache_key: Option<u64>, input: &NetInput, outcome: &NetOutcome) {
        if self.verify_rate <= 0.0 {
            return;
        }
        let tx = self.verify_tx.lock().unwrap_or_else(|e| e.into_inner());
        let Some(tx) = tx.as_ref() else { return };
        let n = self.verify_seen.fetch_add(1, Ordering::Relaxed) + 1;
        let scaled = |k: u64| (k as f64 * self.verify_rate).floor();
        if scaled(n) > scaled(n - 1) {
            let _ = tx.send(VerifyTask {
                cache_key,
                input: input.clone(),
                outcome: outcome.clone(),
            });
        }
    }

    /// The completion path: the one place a worker's result is triaged.
    /// `outcome` is `None` when the worker died holding the task. Runs on
    /// the worker thread that finished (or died holding) the task, and
    /// returns `true` when the waiter had already expired the request —
    /// the worker was the stalled slot a surplus worker replaced.
    fn finish(self: &Arc<Self>, task: Task, outcome: Option<NetOutcome>, worker: usize) -> bool {
        let failure = match &outcome {
            None => {
                self.metrics.record_worker_death();
                self.supervise();
                Some("worker died while holding the request")
            }
            Some(o) if o.name != task.job.input.name() => {
                // Integrity check: a record for the wrong net means the
                // worker (or an injected fault) corrupted its output.
                self.metrics.record_bad_output();
                Some("worker returned a record for the wrong net")
            }
            Some(_) => None,
        };
        let Some(failure) = failure else {
            let outcome = outcome.expect("present when no failure");
            return self.deliver(task, outcome, worker, true);
        };
        if task.attempt < self.max_retries && !task.ticket.settled.load(Ordering::SeqCst) {
            self.metrics.record_retry();
            let retry = Task {
                attempt: task.attempt + 1,
                ..task
            };
            // Refused only once the engine is being dropped, when no
            // caller can still be waiting for the request.
            let _ = self.queue.push(retry, Admission::Retry);
            return false;
        }
        let attempts = task.attempt + 1;
        let name = task.job.input.name().to_string();
        // A synthesized failure is never cached or audited: the next
        // request for this net deserves a fresh computation.
        let record = failed_record(name, &format!("{failure} ({attempts} attempts)"));
        self.deliver(task, record, worker, false)
    }

    /// Settles the request and hands `outcome` to its completion; a
    /// record a worker `computed` also fills the cache and is offered to
    /// the audit. Returns `true`, delivering nothing, when the waiter had
    /// already expired the request.
    fn deliver(&self, task: Task, outcome: NetOutcome, worker: usize, computed: bool) -> bool {
        if !task.ticket.settle() {
            return true;
        }
        self.metrics.record_outcome(&outcome);
        if computed {
            // A cancelled run answers nobody's future request.
            if let (Some(key), false) = (task.job.cache_key, task.ticket.cancel.is_cancelled()) {
                self.cache.insert(key, outcome.clone(), worker);
                self.fire_store_fault(key);
            }
            self.maybe_verify(task.job.cache_key, &task.job.input, &outcome);
        }
        (task.done)(Served {
            outcome,
            cache: CacheStatus::Miss,
            worker,
        });
        false
    }
}

/// Holds a dequeued task and hands it to the completion path as a death
/// if the worker unwinds or exits without completing it — the
/// supervisor's detection signal. The live count is decremented *before*
/// triage runs, so the respawn math already reflects the death.
struct TaskGuard<'a> {
    inner: &'a Arc<Inner>,
    task: Option<Task>,
    worker: usize,
}

impl TaskGuard<'_> {
    fn task(&self) -> &Task {
        self.task.as_ref().expect("task in hand")
    }

    /// Triages the finished task; `true` when its waiter had expired
    /// it, so this worker is surplus and retires.
    fn complete(&mut self, outcome: NetOutcome) -> bool {
        let task = self.task.take().expect("task in hand");
        self.inner.finish(task, Some(outcome), self.worker)
    }
}

impl Drop for TaskGuard<'_> {
    fn drop(&mut self) {
        if let Some(task) = self.task.take() {
            self.inner.live.fetch_sub(1, Ordering::SeqCst);
            let _ = self.inner.finish(task, None, self.worker);
        }
    }
}

/// One response handed to the audit thread: everything needed to
/// independently re-derive the record's figures.
struct VerifyTask {
    cache_key: Option<u64>,
    input: NetInput,
    outcome: NetOutcome,
}

/// The worker-pool execution engine. Create once, submit batches
/// ([`Engine::run_jobs`]) or single requests ([`Engine::optimize`] /
/// [`Engine::try_optimize`]) from any number of threads; drop to shut
/// the pool down.
pub struct Engine {
    inner: Arc<Inner>,
    cfg_digest: u64,
    request_deadline: Option<Duration>,
    shutting_down: AtomicBool,
    started: Instant,
    verify_handle: Option<JoinHandle<()>>,
    _hush: PanicHush,
}

impl Engine {
    /// Spawns the worker pool and takes ownership of the pipeline
    /// configuration every net will run under.
    pub fn new(cfg: PipelineConfig, opts: EngineOptions) -> Self {
        let jobs = opts.jobs.max(1);
        let queue_depth = if opts.queue_depth == 0 {
            jobs * 2
        } else {
            opts.queue_depth
        };
        let cfg = Arc::new(cfg);
        // The config fingerprint folds the library, budget, and every
        // optimizer flag into the cache key, so two engines with
        // different configs never alias records. `Debug` output is
        // stable within a process, which is all an in-memory cache needs.
        let cfg_digest = digest(&[format!("{cfg:?}").as_bytes()]);
        let metrics = Arc::new(Metrics::default());
        let cache = Arc::new(SolutionCache::new(opts.cache_capacity, CACHE_SHARDS));
        let verify_rate = opts.verify_sample_rate.clamp(0.0, 1.0);
        let (verify_tx, verify_handle) = if verify_rate > 0.0 {
            let (vtx, vrx) = mpsc::channel::<VerifyTask>();
            let vcfg = Arc::clone(&cfg);
            let vcache = Arc::clone(&cache);
            let vmetrics = Arc::clone(&metrics);
            let handle = std::thread::Builder::new()
                .name("buffopt-verifier".into())
                .spawn(move || verifier_loop(vrx, &vcfg, &vcache, &vmetrics))
                .expect("spawn verifier thread");
            (Some(vtx), Some(handle))
        } else {
            (None, None)
        };
        let inner = Arc::new(Inner {
            // Bounded queue: submitters shed (or block) once the pool is
            // saturated instead of buffering an unbounded batch.
            queue: TaskQueue {
                state: Mutex::new(QueueState {
                    tasks: VecDeque::new(),
                    closed: false,
                }),
                ready: Condvar::new(),
                room: Condvar::new(),
                depth: queue_depth,
            },
            cfg,
            plan: opts.fault_plan,
            cache,
            metrics,
            live: AtomicUsize::new(0),
            target: jobs,
            max_retries: opts.max_retries,
            workers: Mutex::new(Vec::with_capacity(jobs)),
            next_worker_id: AtomicUsize::new(0),
            verify_rate,
            verify_seen: AtomicU64::new(0),
            verify_tx: Mutex::new(verify_tx),
        });
        inner.live.store(jobs, Ordering::SeqCst);
        for _ in 0..jobs {
            inner.start_worker();
        }
        Engine {
            inner,
            cfg_digest,
            request_deadline: opts.request_deadline,
            shutting_down: AtomicBool::new(false),
            started: Instant::now(),
            verify_handle,
            _hush: hush_panics(),
        }
    }

    /// Worker threads the pool targets (its nominal size).
    pub fn jobs(&self) -> usize {
        self.inner.target
    }

    /// Tasks submitted but not yet picked up by a worker right now — a
    /// racy instantaneous gauge, suitable for stats reporting only.
    pub fn queue_len(&self) -> usize {
        self.inner.queue.lock().tasks.len()
    }

    /// Worker threads alive right now (exceeds [`Engine::jobs`] while a
    /// stalled worker's surplus replacement is active).
    pub fn live_workers(&self) -> usize {
        self.inner.live.load(Ordering::SeqCst)
    }

    /// The configuration every net runs under.
    pub fn config(&self) -> &PipelineConfig {
        &self.inner.cfg
    }

    pub(crate) fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    pub(crate) fn fault_plan(&self) -> Option<&FaultPlan> {
        self.inner.plan.as_deref()
    }

    /// The cache key for a net identified by `name` with raw content
    /// `body` (the `.net` text, or any canonical byte form): a digest of
    /// the content *and* this engine's full configuration, so records
    /// computed under different libraries, budgets, or flags never alias.
    pub fn key_for(&self, name: &str, body: &str) -> u64 {
        digest(&[
            &self.cfg_digest.to_le_bytes(),
            name.as_bytes(),
            body.as_bytes(),
        ])
    }

    /// A point-in-time metrics snapshot (counters + cache + subtree memo
    /// table + pool size).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let memo = self
            .inner
            .cfg
            .memo
            .as_ref()
            .map(|t| t.stats())
            .unwrap_or_default();
        self.inner.metrics.snapshot(
            self.inner.cache.stats(),
            memo,
            self.inner.target,
            self.started.elapsed(),
        )
    }

    /// Closes the sampled-verification channel, waits for the auditor to
    /// drain its backlog, and returns the final `(samples, failures)`
    /// tally. For batch runs that want a complete audit before printing
    /// their summary; sampling stops afterwards. `(0, 0)` when sampling
    /// was off.
    pub fn drain_verification(&mut self) -> (u64, u64) {
        self.inner
            .verify_tx
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(v) = self.verify_handle.take() {
            let _ = v.join();
        }
        self.inner.metrics.verify_tally()
    }

    /// Test-only: corrupts the cached record for `key` in place (see
    /// `SolutionCache::corrupt`). `rehash` recomputes the stored checksum
    /// over the corrupted bytes, modelling corruption that *predates*
    /// checksumming — invisible to verify-on-hit, catchable only by the
    /// sampled audit.
    #[doc(hidden)]
    pub fn corrupt_cache_entry(&self, key: u64, rehash: bool) -> bool {
        self.inner.cache.corrupt(key, rehash)
    }

    /// Stops admitting new requests: every subsequent submission is
    /// refused with [`Rejection::ShuttingDown`]. Work already admitted
    /// (queued or in flight) still completes — dropping the engine joins
    /// the workers after the queue drains.
    pub fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
    }

    /// Whether [`Engine::begin_shutdown`] has been called.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// The one submit path: refuses during shutdown, counts the request,
    /// answers a cache hit on the spot, and otherwise queues a task whose
    /// completion `done` receives the record. With `shed`, a full queue
    /// refuses with [`Rejection::Overloaded`] and the request's deadline
    /// arms here — at admission — so queue wait counts against it;
    /// without, the caller waits for room and carries no deadline.
    pub(crate) fn submit(
        &self,
        job: Job,
        shed: bool,
        cancel: CancelToken,
        done: Completion,
    ) -> Result<Submitted, Rejection> {
        if self.is_shutting_down() {
            self.inner.metrics.record_rejection(Rejection::ShuttingDown);
            return Err(Rejection::ShuttingDown);
        }
        let entered = Instant::now();
        self.inner.metrics.record_request();
        if let Some(key) = job.cache_key {
            if let Some((mut outcome, worker)) = self.inner.cache.get(key) {
                self.inner.maybe_verify(Some(key), &job.input, &outcome);
                // The hit's own time; the record and the DP counters are
                // the computing run's.
                outcome.wall = entered.elapsed();
                return Ok(Submitted::Hit(Served {
                    outcome,
                    cache: CacheStatus::Hit,
                    worker,
                }));
            }
        }
        let deadline = if shed {
            self.request_deadline.map(|d| Instant::now() + d)
        } else {
            None
        };
        let ticket = Ticket {
            cancel,
            settled: Arc::new(AtomicBool::new(false)),
        };
        let task = Task {
            attempt: 0,
            job,
            deadline,
            ticket: ticket.clone(),
            done,
        };
        let admission = if shed {
            Admission::Shed
        } else {
            Admission::Block
        };
        match self.inner.queue.push(task, admission) {
            Ok(()) => Ok(Submitted::Queued { deadline, ticket }),
            Err(rejection) => {
                self.inner.metrics.record_rejection(rejection);
                Err(rejection)
            }
        }
    }

    /// A waiter's deadline passed before the completion arrived: counts
    /// the request's one `deadline_exceeded` rejection. If the request
    /// is still queued or running, also trips its token (the run aborts
    /// at its next checkpoint; its late completion is discarded) and
    /// spawns a surplus worker around the stalled slot — the worker that
    /// reaches the request retires in its place.
    pub(crate) fn expire(&self, ticket: &Ticket) -> Rejection {
        let inner = &self.inner;
        inner.metrics.record_rejection(Rejection::DeadlineExceeded);
        // Promise the surplus worker before settling, so the worker that
        // loses the race already sees it counted when it retires.
        inner.live.fetch_add(1, Ordering::SeqCst);
        if ticket.settle() {
            if ticket.cancel.cancel(CancelReason::Deadline) {
                inner.metrics.record_cancelled(CancelReason::Deadline);
            }
            inner.metrics.record_respawn();
            inner.start_worker();
        } else {
            inner.live.fetch_sub(1, Ordering::SeqCst);
        }
        Rejection::DeadlineExceeded
    }

    /// Submits one request and waits for its completion, enforcing the
    /// request deadline (if `shed` armed one) with the channel's timeout.
    fn wait(&self, job: Job, shed: bool) -> Result<Served, Rejection> {
        let (tx, rx) = mpsc::channel();
        let done: Completion = Box::new(move |served| {
            let _ = tx.send(served);
        });
        let (deadline, ticket) = match self.submit(job, shed, CancelToken::new(), done)? {
            Submitted::Hit(served) => return Ok(served),
            Submitted::Queued { deadline, ticket } => (deadline, ticket),
        };
        // A disconnect means the completion was dropped uncalled: a
        // worker found the deadline already passed.
        let served = match deadline {
            Some(d) => rx
                .recv_timeout(d.saturating_duration_since(Instant::now()))
                .ok(),
            None => rx.recv().ok(),
        };
        served.ok_or_else(|| self.expire(&ticket))
    }

    /// Serves one request with admission control: cache lookup, then a
    /// shed-don't-block submit, then a deadline-bounded wait, with
    /// supervised retries if the worker dies.
    pub fn try_optimize(&self, job: Job) -> Result<Served, Rejection> {
        self.wait(job, true)
    }

    /// Serves one request, blocking for queue space and without a
    /// request deadline (for in-process callers that prefer backpressure
    /// over shedding). Worker-death supervision and retries still apply;
    /// the only rejection left — submitting during shutdown — surfaces
    /// as a `failed` record.
    pub fn optimize(&self, job: Job) -> Served {
        let name = job.input.name().to_string();
        self.wait(job, false).unwrap_or_else(|r| Served {
            outcome: failed_record(name, &format!("engine is {}", r.as_str())),
            cache: CacheStatus::Miss,
            worker: 0,
        })
    }

    /// Runs a whole batch through the pool and reassembles the records
    /// in input order. Cache hits are resolved inline; misses are fanned
    /// out. The report is the same type the serial pipeline produces, so
    /// summaries and exit codes are unchanged.
    pub fn run_jobs(&self, jobs: Vec<Job>) -> BatchReport {
        self.run_jobs_with(jobs, |_, _| {})
    }

    /// [`Engine::run_jobs`], invoking `on_done(idx, record)` the moment
    /// each record is final (in completion order, not input order).
    /// Batch drivers use the callback to checkpoint completed records
    /// before the run finishes.
    pub fn run_jobs_with(
        &self,
        jobs: Vec<Job>,
        mut on_done: impl FnMut(usize, &NetOutcome),
    ) -> BatchReport {
        let start = Instant::now();
        let mut names: Vec<String> = jobs.iter().map(|j| j.input.name().to_string()).collect();
        let mut results: Vec<Option<NetOutcome>> = (0..jobs.len()).map(|_| None).collect();
        let (tx, rx) = mpsc::channel::<(usize, NetOutcome)>();
        std::thread::scope(|s| {
            // Feed from a separate thread: blocking submission gives
            // backpressure while this thread checkpoints records as they
            // complete. The channel closes once the feeder and every
            // completion are done with their senders.
            s.spawn(move || {
                for (idx, job) in jobs.into_iter().enumerate() {
                    let reply = tx.clone();
                    let done: Completion = Box::new(move |served| {
                        let _ = reply.send((idx, served.outcome));
                    });
                    if let Ok(Submitted::Hit(served)) =
                        self.submit(job, false, CancelToken::new(), done)
                    {
                        let _ = tx.send((idx, served.outcome));
                    }
                }
            });
            for (idx, outcome) in rx {
                on_done(idx, &outcome);
                results[idx] = Some(outcome);
            }
        });
        let outcomes = results
            .iter_mut()
            .enumerate()
            .map(|(idx, slot)| {
                slot.take().unwrap_or_else(|| {
                    let rec = failed_record(
                        std::mem::take(&mut names[idx]),
                        "engine shut down before this net was computed",
                    );
                    on_done(idx, &rec);
                    rec
                })
            })
            .collect();
        BatchReport {
            outcomes,
            wall: start.elapsed(),
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Closing the queue drains it and lets workers exit. A death
        // during the drain may spawn a replacement, so join until none
        // is left.
        self.inner.queue.close();
        loop {
            let workers =
                std::mem::take(&mut *self.inner.workers.lock().unwrap_or_else(|e| e.into_inner()));
            if workers.is_empty() {
                break;
            }
            for w in workers {
                let _ = w.join();
            }
        }
        // Then drain the audit backlog: closing the sample channel lets
        // the verifier finish its queue and exit, so every sample taken
        // before shutdown is actually audited.
        self.inner
            .verify_tx
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(v) = self.verify_handle.take() {
            let _ = v.join();
        }
    }
}

/// The audit thread (see [`EngineOptions::verify_sample_rate`]): drains
/// sampled responses and independently re-derives each record's audited
/// figures, off the serving path. Every received sample counts
/// `integrity.verify_samples`; a mismatch counts
/// `integrity.verify_failures` and evicts the record's cache entry so a
/// corrupted record is never served again.
fn verifier_loop(
    rx: mpsc::Receiver<VerifyTask>,
    cfg: &PipelineConfig,
    cache: &SolutionCache,
    metrics: &Metrics,
) {
    let mut ws = buffopt::DpWorkspace::new();
    while let Ok(task) = rx.recv() {
        metrics.record_verify_sample();
        match reverify_outcome(&mut ws, &task.input, cfg, &task.outcome) {
            Reverify::Consistent | Reverify::NotApplicable => {}
            Reverify::Mismatch(_why) => {
                // Evict first, then count: anyone who observes the
                // failure counter is guaranteed the lie is already gone.
                if let Some(key) = task.cache_key {
                    cache.remove(key);
                }
                metrics.record_verify_failure();
            }
        }
    }
}

fn failed_record(name: String, why: &str) -> NetOutcome {
    let mut o = optimize_input(
        &NetInput::Failed {
            name,
            error: String::new(),
        },
        // The config is irrelevant for the Failed variant; build the
        // cheapest possible one.
        &PipelineConfig::new(buffopt_buffers::BufferLibrary::new()),
    );
    o.outcome = Outcome::Failed;
    o.error = Some(why.to_string());
    o
}

fn worker_loop(wid: usize, inner: &Arc<Inner>) {
    // One DP workspace per worker thread, reused across every net this
    // worker serves. A run fully resets the scratch on entry, so reuse
    // after a caught panic is safe.
    let mut ws = buffopt::DpWorkspace::new();
    loop {
        let Some(task) = inner.queue.pop() else {
            return; // engine dropped: shut down
        };
        let cancel = task.ticket.cancel.clone();
        // Drop tasks whose deadline expired while queued: the waiter
        // answers them from its own clock, so computing would only stall
        // the pool for nobody.
        if task.deadline.is_some_and(|d| Instant::now() >= d) {
            inner.metrics.record_stale_drop();
            if !task.ticket.settle() {
                // The waiter expired it first and spawned a surplus
                // worker for it: this one retires in its place.
                return inner.retire();
            }
            if cancel.cancel(CancelReason::Deadline) {
                inner.metrics.record_cancelled(CancelReason::Deadline);
            }
            continue;
        }
        let mut guard = TaskGuard {
            inner,
            task: Some(task),
            worker: wid,
        };
        // Worker-seam faults fire OUTSIDE the panic boundary: they model
        // defects in the worker machinery itself, which is exactly what
        // the supervisor exists to repair. Resource faults are the
        // exception — they resolve into this run's budget or token
        // rather than into worker death.
        let mut corrupt_output = false;
        let mut io_error = false;
        let mut forced_cap: Option<usize> = None;
        match inner.plan.as_deref().and_then(|p| p.fire(Seam::Worker)) {
            Some(FaultAction::Panic) => panic!("injected worker panic"),
            // Exiting with the task in hand: the guard's drop reports
            // the death.
            Some(FaultAction::KillWorker) => return,
            Some(FaultAction::StallMs(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            Some(FaultAction::WrongOutput) => corrupt_output = true,
            Some(FaultAction::IoError) => io_error = true,
            Some(FaultAction::MemPressure { at_bytes }) => forced_cap = Some(at_bytes as usize),
            Some(FaultAction::CancelRun) => {
                let won = cancel.cancel(CancelReason::Supervisor);
                if won {
                    inner.metrics.record_cancelled(CancelReason::Supervisor);
                }
            }
            // State-corruption faults belong to the Store and Decode
            // seams; armed here they are plan misconfigurations and do
            // nothing.
            Some(FaultAction::CorruptJournalLine)
            | Some(FaultAction::BitFlipCacheEntry)
            | Some(FaultAction::BitFlipMemoEntry)
            | Some(FaultAction::TruncateFrame)
            | None => {}
        }
        let mut outcome = if io_error {
            let name = guard.task().job.input.name().to_string();
            failed_record(name, "injected worker I/O error")
        } else {
            let input = &guard.task().job.input;
            // Optimize-seam faults fire INSIDE the panic boundary: they
            // model defects in per-net computation, which must stay
            // contained to one record.
            let mut fault = inner.plan.as_deref().and_then(|p| p.fire(Seam::Optimize));
            // Resolve resource faults at this seam the same way: into
            // the run's budget/token, then optimize normally under them.
            match fault {
                Some(FaultAction::MemPressure { at_bytes }) => {
                    forced_cap = Some(at_bytes as usize);
                    fault = None;
                }
                Some(FaultAction::CancelRun) => {
                    if cancel.cancel(CancelReason::Supervisor) {
                        inner.metrics.record_cancelled(CancelReason::Supervisor);
                    }
                    fault = None;
                }
                _ => {}
            }
            // An injected memory-pressure fault forces this one run under
            // a tiny arena cap (degrade-in-place turns on with it); the
            // shared config is untouched.
            let cfg_override = forced_cap.map(|cap| {
                let mut c = (*inner.cfg).clone();
                c.max_arena_bytes = Some(cap);
                c
            });
            let run_cfg: &PipelineConfig = cfg_override.as_ref().unwrap_or(&inner.cfg);
            // `optimize_input` contains per-rung panic boundaries
            // already; this outer guard turns even a bookkeeping panic
            // into a record, so the collector never waits on a dead slot.
            panic::catch_unwind(AssertUnwindSafe(|| match fault {
                Some(FaultAction::Panic) | Some(FaultAction::KillWorker) => {
                    panic!("injected optimizer panic")
                }
                Some(FaultAction::IoError) => failed_record(
                    input.name().to_string(),
                    "injected I/O error while optimizing",
                ),
                Some(FaultAction::StallMs(ms)) => {
                    std::thread::sleep(Duration::from_millis(ms));
                    optimize_input_with_cancel(&mut ws, input, run_cfg, &cancel)
                }
                Some(FaultAction::WrongOutput) => {
                    let mut r = optimize_input_with_cancel(&mut ws, input, run_cfg, &cancel);
                    r.name = format!("__fault__{}", r.name);
                    r
                }
                // Resource faults were folded into `run_cfg`/`cancel`
                // above; state-corruption faults belong to other seams.
                // Both take the normal path.
                Some(FaultAction::MemPressure { .. })
                | Some(FaultAction::CancelRun)
                | Some(FaultAction::CorruptJournalLine)
                | Some(FaultAction::BitFlipCacheEntry)
                | Some(FaultAction::BitFlipMemoEntry)
                | Some(FaultAction::TruncateFrame)
                | None => optimize_input_with_cancel(&mut ws, input, run_cfg, &cancel),
            }))
            .unwrap_or_else(|_| {
                failed_record(
                    input.name().to_string(),
                    "worker panicked outside the net boundary",
                )
            })
        };
        if corrupt_output {
            outcome.name = format!("__fault__{}", outcome.name);
        }
        if guard.complete(outcome) {
            // The waiter expired this request and spawned a surplus
            // worker around the stall: retire in its place.
            return inner.retire();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_is_send_and_sync() {
        fn ok<T: Send + Sync>() {}
        ok::<Engine>();
        ok::<Job>();
        ok::<Served>();
    }

    #[test]
    fn key_for_separates_name_content_and_config() {
        let lib = buffopt_buffers::catalog::single_buffer();
        let e1 = Engine::new(
            PipelineConfig::new(lib.clone()),
            EngineOptions {
                jobs: 1,
                ..EngineOptions::default()
            },
        );
        let k = e1.key_for("a", "body");
        assert_eq!(k, e1.key_for("a", "body"), "stable");
        assert_ne!(k, e1.key_for("b", "body"), "name matters");
        assert_ne!(k, e1.key_for("a", "other"), "content matters");
        let mut cfg2 = PipelineConfig::new(lib);
        cfg2.conservative = true;
        let e2 = Engine::new(
            cfg2,
            EngineOptions {
                jobs: 1,
                ..EngineOptions::default()
            },
        );
        assert_ne!(k, e2.key_for("a", "body"), "config matters");
    }

    #[test]
    fn empty_batch_returns_empty_report() {
        let e = Engine::new(
            PipelineConfig::new(buffopt_buffers::catalog::single_buffer()),
            EngineOptions {
                jobs: 2,
                ..EngineOptions::default()
            },
        );
        let report = e.run_jobs(Vec::new());
        assert!(report.outcomes.is_empty());
        assert_eq!(e.metrics_snapshot().requests, 0);
    }

    #[test]
    fn shutdown_rejects_new_requests() {
        let e = Engine::new(
            PipelineConfig::new(buffopt_buffers::catalog::single_buffer()),
            EngineOptions {
                jobs: 1,
                ..EngineOptions::default()
            },
        );
        e.begin_shutdown();
        let r = e.try_optimize(Job {
            input: NetInput::Failed {
                name: "n".into(),
                error: "x".into(),
            },
            cache_key: None,
        });
        assert_eq!(r.unwrap_err(), Rejection::ShuttingDown);
        let snap = e.metrics_snapshot();
        assert_eq!(snap.rejections[2], 1, "shutdown rejection counted");
    }
}
