//! The sharded readiness-driven front end: an epoll reactor per shard
//! and one engine per shard. Shards answer what they can on the spot and
//! hand admitted misses straight to their engine's workers, whose
//! completions post the responses back.
//!
//! # Architecture
//!
//! ```text
//!             ┌ acceptor (calling thread): nonblocking listener ┐
//!             │   round-robin handoff, max-conns ceiling        │
//!             └──────┬──────────────┬──────────────┬────────────┘
//!                 shard 0        shard 1   ...  shard N-1   (epoll loops:
//!                    │              │              │   decode, route,
//!                    │              │              │   cache probe)
//!                    └───── misses → engine queues ┘
//!                               │
//!                      engine workers (optimize, triage)
//!                               │
//!                completions → shard inboxes (eventfd wakeups)
//! ```
//!
//! * The **acceptor** owns the listening socket. Accepted connections
//!   are handed round-robin to the shards through their inboxes; beyond
//!   [`ServeOptions::max_conns`] the accept is refused with one typed
//!   `{"error":"overloaded","detail":"max_conns"}` line.
//! * Each **shard** is one event loop owning its connections' state
//!   machines: nonblocking buffered reads with the line cap enforced
//!   incrementally, frame decoding, write backpressure through
//!   [`SendBuf`], and read and request deadlines in one timer heap. A
//!   connection with a request in flight stops reading (its kernel
//!   receive buffer is the backpressure), so per-connection memory is
//!   bounded. The clock for [`ServeOptions::read_timeout`] arms when the
//!   connection starts waiting for a request and is *not* reset by
//!   partial bytes — a slow-loris client trickling one byte per tick is
//!   closed on schedule.
//! * **Requests are served inline on the shard.** The shard classifies a
//!   complete line and answers protocol errors, `stats` and `shutdown`
//!   itself. An optimize request is routed, decoded (decoding stays
//!   ahead of the cache probe so that verify-on-hit has a parsed input
//!   to audit a hit against) and submitted to the engine:
//!   a cache hit or an admission refusal is answered on the spot; an
//!   admitted miss waits in the engine's bounded queue, and the worker's
//!   completion formats the record and posts it to this shard's inbox.
//!   A panic anywhere on this inline path costs one `{"error":...}`
//!   line; the connection and the server survive.
//! * **Deadlines live in the shard's timer heap.** When an optimize
//!   request's deadline passes before its completion, the shard calls
//!   [`Engine::expire`] (trip the token, count the one
//!   `deadline_exceeded`, add a surplus worker) and answers at once; the
//!   connection takes its next request. Every dispatched request carries
//!   a per-connection sequence number next to the slot token, so a late
//!   completion for the expired request is dropped instead of answering
//!   the next one.
//! * **Cancellation by readiness**: every registration asks for
//!   `EPOLLRDHUP`. When a client hangs up while its request is in
//!   flight and no pipelined bytes remain buffered, the request's
//!   [`CancelToken`] trips with the `disconnect` reason — a kernel
//!   notification, not a polling thread. Pipelined requests a client
//!   sent before hanging up are still served (their responses go to the
//!   peer's half-open read side).
//! * **Routing**: optimize requests route to an engine by a rendezvous
//!   (highest-random-weight) hash of the net digest, so repeated nets
//!   land on the same engine and its solution cache / memo table shard
//!   cleanly without cross-engine chatter. `stats` aggregates every
//!   engine's snapshot ([`MetricsSnapshot::absorb`]) and appends a
//!   per-shard breakdown; `shutdown` closes admission on every engine
//!   before acknowledging.
//!
//! # Drain contract
//!
//! `shutdown` acknowledges, then the acceptor stops accepting and posts
//! a drain to every shard: idle connections close, buffered complete
//! lines are served (the engines reject them with `shutting_down`),
//! in-flight requests finish and their responses are flushed before the
//! shard exits. A connection stays in its slab until its in-flight
//! request is answered, so a shard outlives every completion it waits
//! for; a late completion for an expired request may still post to an
//! exited shard's inbox, which is harmless.
//!
//! [`MetricsSnapshot::absorb`]: crate::metrics::MetricsSnapshot::absorb

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use buffopt::{CancelReason, CancelToken};
use buffopt_integrity::{decode_frame, encode_frame, is_framed};
use buffopt_netpoll::{
    accept_nonblocking, Event, FillOutcome, Interest, Poller, RecvBuf, SendBuf, TakeLine, Waker,
};

use crate::cache::digest;
use crate::engine::{Completion, Engine, Job, Submitted, Ticket};
use crate::metrics::ShardStat;
use crate::service::{
    bad_frame_json, classify_request, error_json, served_json, Command, NetDecoder, ServeOptions,
};

/// Token of each shard's inbox waker (never collides with connection
/// tokens, whose high 32 bits are a generation starting at 1).
const WAKER_TOKEN: u64 = u64::MAX;
/// Acceptor-poller token for the listening socket.
const LISTENER_TOKEN: u64 = 0;
/// Acceptor-poller token for the shutdown waker.
const ACCEPT_WAKER_TOKEN: u64 = 1;

/// How many events one `epoll_wait` may deliver per loop turn.
const EVENT_BATCH: usize = 256;

/// Per-connection receive-buffer headroom past the line cap: room for
/// pipelined complete lines in one read burst. Once the buffer is at
/// `max_line_bytes + RECV_SLACK` the shard stops filling until lines
/// are consumed; the kernel socket buffer backpressures the client.
const RECV_SLACK: usize = 64 * 1024;

/// The typed refusal line written to accepts beyond the
/// [`ServeOptions::max_conns`] ceiling.
const MAX_CONNS_REFUSAL: &[u8] = b"{\"error\":\"overloaded\",\"detail\":\"max_conns\"}\n";

/// Messages into a shard's event loop (paired with an eventfd wakeup).
enum Inbox {
    /// A freshly accepted connection to adopt.
    Conn(TcpStream),
    /// An engine worker finished request `seq` of connection `token`.
    Reply {
        token: u64,
        seq: u64,
        response: String,
    },
    /// Stop reading, serve what is buffered, flush, close, exit.
    Drain,
}

/// A shard's mailbox as seen by the acceptor and the engine workers.
struct ShardPost {
    inbox: Mutex<VecDeque<Inbox>>,
    waker: Arc<Waker>,
}

impl ShardPost {
    fn post(&self, msg: Inbox) {
        self.inbox
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(msg);
        self.waker.wake();
    }
}

/// State shared by the acceptor and every shard.
struct Shared {
    engines: Vec<Arc<Engine>>,
    decode: NetDecoder,
    opts: ServeOptions,
    /// Live connections across all shards (the `max_conns` gauge).
    conn_count: AtomicUsize,
    /// Live connections per shard (the `stats` breakdown).
    shard_conns: Vec<AtomicUsize>,
    /// Set by the shard that served a `shutdown` command.
    shutdown_requested: AtomicBool,
    /// Wakes the acceptor loop when `shutdown_requested` flips.
    accept_waker: Arc<Waker>,
    /// Completions hold their own handle, so a late one can post after
    /// its shard exited.
    shard_posts: Vec<Arc<ShardPost>>,
}

/// One connection's state machine, owned by exactly one shard.
struct Conn {
    stream: TcpStream,
    token: u64,
    recv: RecvBuf,
    send: SendBuf,
    /// The optimize request at an engine worker, if any. While set, the
    /// connection stops reading.
    inflight: Option<InFlight>,
    /// Sequence number of the last optimize request dispatched from this
    /// connection.
    seq: u64,
    /// No more request bytes will ever arrive (peer write-half closed,
    /// EOF read, or socket error).
    eof: bool,
    /// The write path is dead; close as soon as no reply is in flight.
    doomed: bool,
    /// Flush pending output, then close (error lines, shutdown ack,
    /// drain).
    closing: bool,
    /// The fd is registered with the shard's poller.
    registered: bool,
    /// Last interest submitted to the poller, to elide no-op modifies.
    interest: Option<Interest>,
    /// While idle, the read deadline — deliberately NOT refreshed by
    /// partial bytes. While a request is in flight, its deadline (if
    /// its engine arms one).
    deadline: Option<Instant>,
}

/// An optimize request waiting on its engine's completion.
struct InFlight {
    /// Matches the completion to this request: a late completion for an
    /// expired request carries an older number and is dropped.
    seq: u64,
    framed: bool,
    /// Index of the engine the request was routed to.
    engine: usize,
    /// Its token trips on client disconnect; expired on deadline.
    ticket: Ticket,
}

/// What the shard does with one request line.
enum Action {
    /// Answer now.
    Reply(String),
    /// Answer now, then close the connection (the `shutdown` ack).
    Close(String),
    /// Submitted to engine `engine`; its completion posts the answer.
    Pending {
        engine: usize,
        ticket: Ticket,
        deadline: Option<Instant>,
    },
}

/// One reactor shard: an epoll loop over its connections plus the inbox.
struct Shard {
    id: usize,
    poller: Poller,
    /// Kept alive by `Shared::shard_posts` past this shard's exit, so a
    /// late completion's `wake()` can never hit a recycled fd.
    waker: Arc<Waker>,
    shared: Arc<Shared>,
    /// Slot-indexed connections; `gens` gives each slot reuse a fresh
    /// token so stale events and replies are ignored.
    conns: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    live: usize,
    /// Read and request deadlines, lazily deleted (entries are validated
    /// against the connection's current deadline when they fire).
    timeouts: BinaryHeap<Reverse<(Instant, u64)>>,
    draining: bool,
}

/// Serves the protocol across `engines.len()` reactor shards until a
/// `shutdown` command arrives, then drains every shard (each in-flight
/// response is written before this returns). The calling thread runs
/// the acceptor. See the module docs for the architecture.
pub fn serve_sharded(
    listener: TcpListener,
    engines: Vec<Arc<Engine>>,
    decode: NetDecoder,
    opts: ServeOptions,
) -> std::io::Result<()> {
    assert!(
        !engines.is_empty(),
        "serve_sharded needs at least one engine"
    );
    listener.set_nonblocking(true)?;
    let nshards = engines.len();

    let accept_poller = Poller::new()?;
    let accept_waker = Arc::new(Waker::new(&accept_poller, ACCEPT_WAKER_TOKEN)?);
    accept_poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;

    // Shard pollers and wakers are created here (not in the shard
    // threads) so their mailboxes exist before anything posts to them.
    let mut shard_posts = Vec::with_capacity(nshards);
    let mut shard_setup = Vec::with_capacity(nshards);
    for _ in 0..nshards {
        let poller = Poller::new()?;
        let waker = Arc::new(Waker::new(&poller, WAKER_TOKEN)?);
        shard_posts.push(Arc::new(ShardPost {
            inbox: Mutex::new(VecDeque::new()),
            waker: Arc::clone(&waker),
        }));
        shard_setup.push((poller, waker));
    }
    let shared = Arc::new(Shared {
        engines,
        decode,
        opts,
        conn_count: AtomicUsize::new(0),
        shard_conns: (0..nshards).map(|_| AtomicUsize::new(0)).collect(),
        shutdown_requested: AtomicBool::new(false),
        accept_waker: Arc::clone(&accept_waker),
        shard_posts,
    });

    let mut shard_handles = Vec::with_capacity(nshards);
    for (id, (poller, waker)) in shard_setup.into_iter().enumerate() {
        let shard = Shard {
            id,
            poller,
            waker,
            shared: Arc::clone(&shared),
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            live: 0,
            timeouts: BinaryHeap::new(),
            draining: false,
        };
        shard_handles.push(
            std::thread::Builder::new()
                .name(format!("buffopt-shard-{id}"))
                .spawn(move || shard_loop(shard))
                .expect("spawn shard thread"),
        );
    }

    // The accept loop. Round-robin is balanced enough for homogeneous
    // shards and keeps the handoff O(1); the max-conns ceiling is
    // checked against the global gauge before the handoff.
    let mut fatal: Option<std::io::Error> = None;
    let mut events: Vec<Event> = Vec::new();
    let mut rr = 0usize;
    'accept: while !shared.shutdown_requested.load(Ordering::SeqCst) {
        if let Err(e) = accept_poller.wait(&mut events, 64, None) {
            fatal = Some(e);
            break;
        }
        for ev in &events {
            if ev.token == ACCEPT_WAKER_TOKEN {
                accept_waker.drain();
                continue;
            }
            loop {
                match accept_nonblocking(&listener) {
                    Ok(None) => break,
                    Ok(Some(stream)) => {
                        let max = shared.opts.max_conns;
                        if max > 0 && shared.conn_count.load(Ordering::SeqCst) >= max {
                            shared.engines[0].metrics().record_rejected_max_conns();
                            refuse(stream);
                            continue;
                        }
                        shared.conn_count.fetch_add(1, Ordering::SeqCst);
                        shared.shard_posts[rr % nshards].post(Inbox::Conn(stream));
                        rr += 1;
                    }
                    // Per-connection failures (peer reset before accept):
                    // skip and keep accepting.
                    Err(e)
                        if matches!(
                            e.kind(),
                            ErrorKind::ConnectionAborted
                                | ErrorKind::ConnectionReset
                                | ErrorKind::Interrupted
                        ) =>
                    {
                        continue
                    }
                    // Listener-level failure: drain and surface it.
                    Err(e) => {
                        fatal = Some(e);
                        break 'accept;
                    }
                }
            }
        }
    }

    // Drain (see the module docs for the contract). `begin_shutdown` is
    // idempotent; the shard that served the shutdown command already
    // called it before acknowledging.
    for engine in &shared.engines {
        engine.begin_shutdown();
    }
    for post in &shared.shard_posts {
        post.post(Inbox::Drain);
    }
    for handle in shard_handles {
        let _ = handle.join();
    }
    match fatal {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Writes the typed max-conns refusal and closes. The socket is fresh
/// out of accept, so its (empty) send buffer takes the line without
/// blocking; a failure just means the client is already gone.
fn refuse(mut stream: TcpStream) {
    let _ = stream.write_all(MAX_CONNS_REFUSAL);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Picks the engine serving `(id, net)` by rendezvous hashing of the net
/// digest: every engine scores the request, highest score wins. Stable
/// under engine-count changes for most keys, and — the property serving
/// actually needs — deterministic, so repeated nets always land on the
/// engine whose cache and memo already hold them.
fn route(engines: &[Arc<Engine>], id: &str, net: &str) -> usize {
    let key = digest(&[id.as_bytes(), net.as_bytes()]);
    (0..engines.len())
        .max_by_key(|i| digest(&[&key.to_le_bytes(), &(*i as u64).to_le_bytes()]))
        .expect("serve_sharded requires at least one engine")
}

/// The aggregated `stats` response: every engine's snapshot folded into
/// one fleet view, plus the per-shard breakdown.
fn aggregate_stats(shared: &Shared) -> String {
    let mut snap = shared.engines[0].metrics_snapshot();
    for engine in &shared.engines[1..] {
        snap.absorb(&engine.metrics_snapshot());
    }
    snap.shards = shared
        .engines
        .iter()
        .enumerate()
        .map(|(i, engine)| {
            let es = engine.metrics_snapshot();
            ShardStat {
                shard: i,
                conns: shared.shard_conns[i].load(Ordering::SeqCst) as u64,
                queue: engine.queue_len() as u64,
                requests: es.requests,
                cache_hits: es.cache.hits,
                cache_misses: es.cache.misses,
                memo_hits: es.memo.hits,
            }
        })
        .collect();
    snap.to_json()
}

/// Executes one request line on the shard. Protocol errors, `stats` and
/// `shutdown` are answered on the spot. An optimize request is routed,
/// decoded and submitted: a cache hit or an admission refusal is
/// answered on the spot, an admitted miss is left to its completion,
/// which posts response `seq` of connection `token` to this shard.
fn respond(shared: &Shared, shard: usize, token: u64, seq: u64, line: &str) -> Action {
    match classify_request(line) {
        Err(response) => Action::Reply(response),
        Ok(Command::Optimize { id, net }) => {
            let e = route(&shared.engines, &id, &net);
            let engine = &shared.engines[e];
            let job = Job {
                input: (shared.decode)(&id, &net),
                cache_key: Some(engine.key_for(&id, &net)),
            };
            let post = Arc::clone(&shared.shard_posts[shard]);
            let done: Completion = Box::new(move |served| {
                post.post(Inbox::Reply {
                    token,
                    seq,
                    response: served_json(&served),
                })
            });
            match engine.submit(job, true, CancelToken::new(), done) {
                Ok(Submitted::Hit(served)) => Action::Reply(served_json(&served)),
                Ok(Submitted::Queued { deadline, ticket }) => Action::Pending {
                    engine: e,
                    ticket,
                    deadline,
                },
                Err(rejection) => Action::Reply(error_json(rejection.as_str())),
            }
        }
        Ok(Command::Stats) => Action::Reply(aggregate_stats(shared)),
        Ok(Command::Shutdown) => {
            // Close admission on every engine before acknowledging, so
            // requests racing the shutdown are refused explicitly from
            // this moment on.
            for engine in &shared.engines {
                engine.begin_shutdown();
            }
            shared.shutdown_requested.store(true, Ordering::SeqCst);
            shared.accept_waker.wake();
            Action::Close("{\"ok\":\"shutdown\"}".to_string())
        }
    }
}

/// Appends a response (framed or plain) and its newline to the send
/// buffer.
fn queue_response(conn: &mut Conn, response: &str, framed: bool) {
    if framed {
        conn.send.queue(&encode_frame(response.as_bytes()));
    } else {
        conn.send.queue(response.as_bytes());
    }
    conn.send.queue(b"\n");
}

/// Fills the connection's receive buffer from the socket, bounded by the
/// line cap plus pipelining slack.
fn fill(conn: &mut Conn, opts: &ServeOptions) -> std::io::Result<FillOutcome> {
    let cap = opts.max_line_bytes.saturating_add(RECV_SLACK);
    let stream = &mut conn.stream;
    conn.recv.fill_from(stream, cap)
}

/// The shard's event loop: wait for readiness, handle inbox and
/// connection events, expire deadlines, exit once draining with no
/// connections left.
fn shard_loop(mut shard: Shard) {
    let mut events: Vec<Event> = Vec::new();
    loop {
        let timeout = shard
            .timeouts
            .peek()
            .map(|&Reverse((t, _))| t.saturating_duration_since(Instant::now()));
        if shard
            .poller
            .wait(&mut events, EVENT_BATCH, timeout)
            .is_err()
        {
            // An unhealthy epoll fd cannot be polled again; bail out
            // rather than spin. Connections die with the shard.
            return;
        }
        for &ev in &events {
            if ev.token == WAKER_TOKEN {
                shard.waker.drain();
                shard.drain_inbox();
            } else {
                shard.on_conn_event(ev);
            }
        }
        shard.expire_deadlines();
        if shard.draining && shard.live == 0 {
            return;
        }
    }
}

impl Shard {
    /// Resolves a token to a live slot, ignoring stale generations.
    fn lookup(&self, token: u64) -> Option<usize> {
        let idx = (token & 0xffff_ffff) as usize;
        let gen = (token >> 32) as u32;
        if idx < self.gens.len() && self.gens[idx] == gen && self.conns[idx].is_some() {
            Some(idx)
        } else {
            None
        }
    }

    /// Processes every queued inbox message.
    fn drain_inbox(&mut self) {
        loop {
            let msg = self.shared.shard_posts[self.id]
                .inbox
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_front();
            match msg {
                None => return,
                Some(Inbox::Conn(stream)) => self.adopt(stream),
                Some(Inbox::Reply {
                    token,
                    seq,
                    response,
                }) => self.on_reply(token, seq, &response),
                Some(Inbox::Drain) => {
                    self.draining = true;
                    for idx in 0..self.conns.len() {
                        if self.conns[idx].is_some() {
                            self.progress(idx);
                        }
                    }
                }
            }
        }
    }

    /// Takes ownership of a freshly accepted connection: slab slot,
    /// poller registration, read-deadline arming (via `progress`).
    fn adopt(&mut self, stream: TcpStream) {
        let idx = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.gens.push(1);
            self.conns.len() - 1
        });
        let token = ((self.gens[idx] as u64) << 32) | idx as u64;
        let fd = stream.as_raw_fd();
        let mut conn = Conn {
            stream,
            token,
            recv: RecvBuf::new(),
            send: SendBuf::new(),
            inflight: None,
            seq: 0,
            eof: false,
            doomed: false,
            closing: false,
            registered: false,
            interest: None,
            deadline: None,
        };
        if self.poller.register(fd, token, Interest::READ).is_ok() {
            conn.registered = true;
            conn.interest = Some(Interest::READ);
        } else {
            // Cannot poll it; progress() closes it below.
            conn.doomed = true;
        }
        self.conns[idx] = Some(conn);
        self.live += 1;
        self.shared.shard_conns[self.id].fetch_add(1, Ordering::SeqCst);
        self.progress(idx);
    }

    /// Closes a connection and retires its slot. Never called with a
    /// request in flight — a busy connection waits for its completion
    /// (or its deadline).
    fn close(&mut self, idx: usize) {
        let conn = self.conns[idx].take().expect("closing a live connection");
        debug_assert!(conn.inflight.is_none(), "close() with a request in flight");
        if conn.registered {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
        }
        let _ = conn.stream.shutdown(Shutdown::Both);
        self.gens[idx] = self.gens[idx].wrapping_add(1).max(1);
        self.free.push(idx);
        self.live -= 1;
        self.shared.conn_count.fetch_sub(1, Ordering::SeqCst);
        self.shared.shard_conns[self.id].fetch_sub(1, Ordering::SeqCst);
    }

    /// An engine worker finished request `seq` of this connection. A
    /// completion for anything but the request in flight — one already
    /// answered `deadline_exceeded` — is dropped.
    fn on_reply(&mut self, token: u64, seq: u64, response: &str) {
        let Some(idx) = self.lookup(token) else {
            return;
        };
        let conn = self.conns[idx].as_mut().expect("lookup returned live slot");
        if conn.inflight.as_ref().map(|f| f.seq) != Some(seq) {
            return;
        }
        let inflight = conn.inflight.take().expect("checked above");
        conn.deadline = None;
        if conn.doomed {
            self.close(idx);
            return;
        }
        queue_response(conn, response, inflight.framed);
        self.progress(idx);
    }

    /// Readiness arrived for a connection's socket.
    fn on_conn_event(&mut self, ev: Event) {
        let Some(idx) = self.lookup(ev.token) else {
            return;
        };
        {
            let shared = Arc::clone(&self.shared);
            let conn = self.conns[idx].as_mut().expect("lookup returned live slot");
            if ev.error || ev.hup {
                // Fully dead socket (error state or both directions
                // closed): salvage any pipelined bytes the kernel still
                // holds, then stop polling it — writes would fail anyway.
                conn.eof = true;
                conn.doomed = true;
                let _ = fill(conn, &shared.opts);
                if conn.registered {
                    let _ = self.poller.deregister(conn.stream.as_raw_fd());
                    conn.registered = false;
                    conn.interest = None;
                }
            } else {
                if ev.rdhup {
                    // Peer closed its write half: collect the pipelined
                    // tail now (no more readable events will announce
                    // it), keep the write path for its responses.
                    conn.eof = true;
                    let _ = fill(conn, &shared.opts);
                } else if ev.readable && conn.inflight.is_none() && !conn.eof {
                    match fill(conn, &shared.opts) {
                        Ok(FillOutcome::Eof) => conn.eof = true,
                        Ok(_) => {}
                        Err(_) => {
                            // Unreadable stream: close silently.
                            conn.eof = true;
                            conn.doomed = true;
                        }
                    }
                }
                // Writable readiness needs no flag: progress() always
                // starts by flushing.
            }
        }
        self.progress(idx);
    }

    /// Fires expired deadlines. An idle connection past its read clock
    /// gets the typed timeout error and closes; a request past its
    /// deadline is expired at its engine and answered
    /// `deadline_exceeded`, and the connection takes its next request.
    /// Heap entries are lazily deleted — anything stale (slot reused,
    /// request answered, deadline re-armed later) is skipped.
    fn expire_deadlines(&mut self) {
        loop {
            let now = Instant::now();
            let (when, token) = match self.timeouts.peek() {
                Some(&Reverse((t, tok))) if t <= now => (t, tok),
                _ => return,
            };
            self.timeouts.pop();
            let Some(idx) = self.lookup(token) else {
                continue;
            };
            {
                let conn = self.conns[idx].as_mut().expect("lookup returned live slot");
                if conn.deadline != Some(when) {
                    continue;
                }
                conn.deadline = None;
                if let Some(inflight) = conn.inflight.take() {
                    let rejection = self.shared.engines[inflight.engine].expire(&inflight.ticket);
                    queue_response(conn, &error_json(rejection.as_str()), inflight.framed);
                } else {
                    if conn.closing || conn.doomed {
                        continue;
                    }
                    self.shared.engines[0].metrics().record_conn_error();
                    queue_response(
                        conn,
                        &error_json("read timed out; closing connection"),
                        false,
                    );
                    conn.closing = true;
                }
            }
            self.progress(idx);
        }
    }

    /// The per-connection state machine: flush output, then (unless a
    /// request is in flight) consume buffered lines — answering what the
    /// shard can answer, submitting misses, honoring drain/EOF/doom
    /// transitions — until the connection blocks, closes, or goes busy.
    fn progress(&mut self, idx: usize) {
        loop {
            let shared = Arc::clone(&self.shared);
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            if let buffopt_netpoll::FlushOutcome::Closed = conn.send.flush_to(&mut conn.stream) {
                conn.doomed = true;
            }
            if conn.doomed {
                if conn.inflight.is_some() {
                    // Keep the slot until the in-flight request is
                    // answered; nothing more to poll for.
                    self.update_interest(idx);
                } else {
                    self.close(idx);
                }
                return;
            }
            if conn.closing {
                if conn.send.is_empty() && conn.inflight.is_none() {
                    self.close(idx);
                } else {
                    self.update_interest(idx);
                }
                return;
            }
            if let Some(inflight) = &conn.inflight {
                // Disconnect-by-readiness: the peer is gone and nothing
                // pipelined remains, so the in-flight run is for nobody.
                // EOF during the shutdown drain never cancels: the drain
                // contract is that admitted work completes and its
                // response is written. The token counts each
                // cancellation once, however often this runs.
                let engine = &shared.engines[inflight.engine];
                if conn.eof
                    && conn.recv.is_empty()
                    && !engine.is_shutting_down()
                    && inflight.ticket.cancel.cancel(CancelReason::Disconnect)
                {
                    engine.metrics().record_cancelled(CancelReason::Disconnect);
                }
                self.update_interest(idx);
                return;
            }
            match conn.recv.take_line(shared.opts.max_line_bytes) {
                TakeLine::TooLong(_) => {
                    shared.engines[0].metrics().record_conn_error();
                    let msg = format!(
                        "request line exceeds {} bytes; closing connection",
                        shared.opts.max_line_bytes
                    );
                    queue_response(conn, &error_json(&msg), false);
                    conn.closing = true;
                    continue;
                }
                TakeLine::Partial => {
                    if conn.eof || self.draining {
                        // No more bytes will complete this line; the
                        // trailing fragment is discarded.
                        conn.closing = true;
                        continue;
                    }
                    if conn.deadline.is_none() {
                        if let Some(t) = shared.opts.read_timeout {
                            let when = Instant::now() + t;
                            conn.deadline = Some(when);
                            let token = conn.token;
                            self.timeouts.push(Reverse((when, token)));
                        }
                    }
                    self.update_interest(idx);
                    return;
                }
                TakeLine::Line(bytes) => {
                    conn.deadline = None;
                    let framed = is_framed(&bytes);
                    let line: String = if framed {
                        match decode_frame(&bytes) {
                            Err(e) => {
                                shared.engines[0].metrics().record_bad_frame();
                                queue_response(conn, &bad_frame_json(&e.to_string()), true);
                                continue;
                            }
                            Ok(payload) => match std::str::from_utf8(payload) {
                                Err(_) => {
                                    shared.engines[0].metrics().record_bad_frame();
                                    queue_response(
                                        conn,
                                        &bad_frame_json("frame payload is not UTF-8"),
                                        true,
                                    );
                                    continue;
                                }
                                Ok(p) => p.trim().to_string(),
                            },
                        }
                    } else {
                        String::from_utf8_lossy(&bytes).trim().to_string()
                    };
                    if line.is_empty() {
                        continue;
                    }
                    // A panic while serving — in the injected decoder or
                    // anywhere else on this path — costs one error
                    // response, not the connection or the server.
                    let (shard, token, seq) = (self.id, conn.token, conn.seq + 1);
                    let action = panic::catch_unwind(AssertUnwindSafe(|| {
                        respond(&shared, shard, token, seq, &line)
                    }))
                    .unwrap_or_else(|_| {
                        shared.engines[0].metrics().record_conn_error();
                        Action::Reply(error_json("internal error while serving the request"))
                    });
                    match action {
                        Action::Reply(response) => queue_response(conn, &response, framed),
                        Action::Close(response) => {
                            queue_response(conn, &response, framed);
                            conn.closing = true;
                        }
                        Action::Pending {
                            engine,
                            ticket,
                            deadline,
                        } => {
                            conn.seq = seq;
                            conn.inflight = Some(InFlight {
                                seq,
                                framed,
                                engine,
                                ticket,
                            });
                            if let Some(when) = deadline {
                                conn.deadline = Some(when);
                                self.timeouts.push(Reverse((when, token)));
                            }
                        }
                    }
                    continue;
                }
            }
        }
    }

    /// Reconciles the poller registration with the connection's state:
    /// read interest only while idle and readable bytes matter, write
    /// interest only while output is pending, half-close notification
    /// only until observed. No-op when nothing changed.
    fn update_interest(&mut self, idx: usize) {
        let draining = self.draining;
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        if !conn.registered {
            return;
        }
        let want = Interest {
            readable: conn.inflight.is_none()
                && !conn.eof
                && !conn.closing
                && !conn.doomed
                && !draining,
            writable: !conn.send.is_empty(),
            rdhup: !conn.eof,
        };
        if conn.interest != Some(want)
            && self
                .poller
                .modify(conn.stream.as_raw_fd(), conn.token, want)
                .is_ok()
        {
            conn.interest = Some(want);
        }
    }
}
