//! The serving loop: per-worker **epoll reactors** over one shared
//! non-blocking `TcpListener`, each worker multiplexing many
//! connections through a pinned per-shard [`ShardedMapHandle`].
//!
//! Worker/handle pinning is the design's point: a worker thread owns
//! one `ShardedMapHandle` — one pin-amortizing [`nmbst::MapHandle`] per
//! shard — so every descent that worker makes into a given shard reuses
//! that shard's guard, seek record, and node cache, all resident in the
//! worker's core cache. There is no cross-worker handle sharing and
//! therefore no handle synchronization.
//!
//! Concurrency model: every worker registers the shared listener in its
//! own epoll instance (level-triggered). Whichever worker wakes first
//! accepts, and each accepted connection is assigned **round-robin**
//! across workers — a connection for another worker is handed off
//! through that worker's inbox and an eventfd wake. Each worker drives
//! its connections as non-blocking state machines ([`crate::conn`]):
//! partial frames assemble incrementally, a connection may have many
//! frames in flight (**pipelining** — responses are written in request
//! order, which the FIFO parse→execute→buffer path guarantees), and a
//! connection whose write buffer exceeds `write_budget` stops being
//! read (**backpressure**) until it drains below half the budget.
//!
//! ## Routing policy: connections round-robin, keys inside the worker
//!
//! Connection→worker assignment is deliberately **not** key-affine (no
//! routing by a frame's first key, batch hash, or anything else derived
//! from keys): every worker owns a pinned handle *per shard*, so any
//! worker can serve any key at full handle speed, and a connection's
//! mixed-key traffic never has to hop workers. Key locality is
//! recovered one level down, per frame: the engine partitions each
//! BATCH by `RouteHasher` shard, sorts each shard's run, executes it
//! through that shard's finger-anchored handle
//! ([`nmbst::ShardedMapHandle::execute_batch`]), and scatters replies
//! back to request order — so wire batches inherit the finger-seek win
//! regardless of which worker the connection landed on.
//!
//! ## Zero-copy serve path
//!
//! A steady-state point or BATCH frame is served without touching the
//! heap: the frame body is a *range* into the connection's assembly
//! buffer (never copied out), BATCH ops decode into a reusable
//! per-reactor scratch, and the response is encoded directly into the
//! connection's write buffer behind a reserved length prefix
//! (`wire::begin_frame`/`end_frame`) — no staging `Vec`, no
//! per-response memcpy. SCAN/METRICS/SLOWLOG still build owned
//! payloads; their cost is the payload, not the framing.
//!
//! Shutdown: a stop flag plus one eventfd signal per worker — the
//! eventfd wake replaces the old dummy-`connect()` hack, which raced
//! against real clients for the accept queue. The 100 ms `epoll_wait`
//! timeout is the idle tick: workers `flush_stats()` their handles
//! there (and every `flush_every` ops), which keeps the METRICS verb's
//! view of in-flight workers honest.

use crate::conn::{Conn, FillOutcome, NextFrame};
use crate::sys::{
    set_nonblocking, Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::wire::{
    self, op_name, BatchOp, BatchReply, MetricsFormat, Request, Response, OP_BATCH, OP_COUNT,
    STATUS_OK,
};
use nmbst::metric_row;
use nmbst::obs::slow::SlowRing;
use nmbst::obs::{
    render_json, render_prometheus, Family, Histogram, Row, ServeGauges, SlowOp, Value, SLOW_EVENTS,
};
use nmbst::{BatchCmd, BatchScratch, BatchVerdict, Ebr, ShardedMap, ShardedMapHandle, TreeConfig};
use nmbst_sync::CachePadded;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The store the tier serves: `u64 → u64` over epoch-reclaimed sharded
/// trees. Fixed-width keys keep the wire protocol trivial; richer
/// payloads belong in a layer above.
pub type Store = ShardedMap<u64, u64, Ebr>;

/// Everything tunable about a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Reactor worker threads, each multiplexing its share of the
    /// connections. Defaults to the machine's available parallelism
    /// (thread-per-core).
    pub workers: usize,
    /// Tree shards in the store; `0` (default) means one per worker.
    pub shards: usize,
    /// Configuration for every shard's tree.
    pub tree: TreeConfig,
    /// Ops between a worker's `flush_stats` sampling ticks.
    pub flush_every: u32,
    /// Frames whose wire time (request assembled → response buffered)
    /// meets this threshold deposit a server-origin [`SlowOp`] into the
    /// server's slow ring (served by the SLOWLOG verb). `0` disables
    /// capture. Default 1 ms.
    pub slow_frame_ns: u64,
    /// Backpressure watermark: a connection whose buffered response
    /// bytes reach this budget stops being read (and therefore stops
    /// having requests executed) until the buffer drains below half.
    /// The buffer may overshoot by one response (responses are queued
    /// whole), so this is a watermark, not a hard cap. Default 256 KiB.
    pub write_budget: usize,
    /// Execute BATCH frames shard-fused: partition by shard, sort each
    /// shard's run by key, run it through that shard's finger-anchored
    /// handle, and scatter replies back to request order (default).
    /// `false` unrolls each batch op through the routing handle in
    /// request order — the pre-fusion behaviour, kept for A/B
    /// attribution (the `serving_batch_fusion` perf cell).
    pub fuse_batches: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            shards: 0,
            tree: TreeConfig::default(),
            flush_every: 1024,
            slow_frame_ns: 1_000_000,
            write_budget: 256 * 1024,
            fuse_batches: true,
        }
    }
}

/// Records the server-level slow-frame ring retains.
const SERVER_SLOW_CAP: usize = 128;

/// Epoll token for the worker's wake eventfd.
const TOKEN_WAKE: u64 = u64::MAX;
/// Epoll token for the shared listener.
const TOKEN_LISTENER: u64 = u64::MAX - 1;

/// Per-phase latency histograms for one request opcode: where a frame's
/// time went. `wire` spans request-assembled → response-buffered;
/// `decode`/`execute`/`encode` partition its interior (encode includes
/// queuing the frame into the connection's write buffer), so
/// `wire ≈ decode + execute + encode` per frame — the breakdown that
/// tells a slow-frame investigation whether the store or the wire
/// handling is the problem. Socket flush time is *not* attributed to
/// individual frames: under pipelining many responses share one write.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseHists {
    /// Full frame: request assembled → response buffered.
    pub wire: Histogram,
    /// `Request::decode` time.
    pub decode: Histogram,
    /// Store execution time (the tree/batch/scan work).
    pub execute: Histogram,
    /// `Response::encode` + write-buffer queue time.
    pub encode: Histogram,
}

impl PhaseHists {
    /// The phase histograms with their exposition labels, in fixed
    /// order.
    pub fn by_phase(&self) -> [(&'static str, &Histogram); 4] {
        [
            ("wire", &self.wire),
            ("decode", &self.decode),
            ("execute", &self.execute),
            ("encode", &self.encode),
        ]
    }

    fn merge(&mut self, other: &PhaseHists) {
        self.wire.merge(&other.wire);
        self.decode.merge(&other.decode);
        self.execute.merge(&other.execute);
        self.encode.merge(&other.encode);
    }
}

/// One worker's request timing: a [`PhaseHists`] per opcode, indexed by
/// `opcode - 1`. Behind a per-worker mutex that only the owning worker
/// (per frame) and scrapes (rarely) take — never contended on the
/// serving path, so the lock costs an uncontended CAS per frame.
struct WorkerTiming {
    ops: [PhaseHists; OP_COUNT],
}

impl WorkerTiming {
    fn new() -> Self {
        WorkerTiming {
            ops: std::array::from_fn(|_| PhaseHists::default()),
        }
    }
}

/// One worker's connection gauges, cache-padded like the op counters.
/// `open`/`paused`/`wbuf_bytes` are gauges the owning reactor maintains
/// (exact at its loop boundaries); `backpressure` counts pause
/// transitions monotonically.
#[derive(Debug, Default)]
struct WorkerServe {
    open: AtomicU64,
    paused: AtomicU64,
    wbuf_bytes: AtomicU64,
    backpressure: AtomicU64,
}

/// Server-level counters, one step above the store's tree metrics.
/// Worker op counts are cache-padded like the tree's own counter shards
/// — workers must not ping-pong a stats line while serving.
#[derive(Debug)]
pub struct ServerStats {
    worker_ops: Box<[CachePadded<AtomicU64>]>,
    connections: AtomicU64,
    frames: AtomicU64,
    wire_errors: AtomicU64,
    batch_fused_ops: AtomicU64,
    batch_single_ops: AtomicU64,
    encode_bytes: Box<[AtomicU64]>,
    timing: Box<[Mutex<WorkerTiming>]>,
    serve: Box<[CachePadded<WorkerServe>]>,
    slow: SlowRing,
    slow_frame_ns: u64,
}

impl std::fmt::Debug for WorkerTiming {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerTiming").finish_non_exhaustive()
    }
}

impl ServerStats {
    fn new(workers: usize, slow_frame_ns: u64) -> Self {
        ServerStats {
            worker_ops: (0..workers)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            connections: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            wire_errors: AtomicU64::new(0),
            batch_fused_ops: AtomicU64::new(0),
            batch_single_ops: AtomicU64::new(0),
            encode_bytes: (0..OP_COUNT).map(|_| AtomicU64::new(0)).collect(),
            timing: (0..workers)
                .map(|_| Mutex::new(WorkerTiming::new()))
                .collect(),
            serve: (0..workers)
                .map(|_| CachePadded::new(WorkerServe::default()))
                .collect(),
            slow: SlowRing::new(SERVER_SLOW_CAP),
            slow_frame_ns,
        }
    }

    /// One served frame's timing: records the four phase durations into
    /// the worker's per-opcode histograms and deposits a slow-frame
    /// record when the wire time crosses the configured threshold.
    fn record_frame(&self, worker: usize, opcode: u8, key: u64, ns: [u64; 4]) {
        let [wire, decode, execute, encode] = ns;
        {
            let mut t = self.timing[worker]
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let p = &mut t.ops[usize::from(opcode - 1).min(OP_COUNT - 1)];
            p.wire.record(wire);
            p.decode.record(decode);
            p.execute.record(execute);
            p.encode.record(encode);
        }
        if self.slow_frame_ns != 0 && wire >= self.slow_frame_ns {
            self.slow.push(SlowOp {
                kind: opcode,
                origin: 1,
                n_events: 0,
                key,
                ns: wire,
                events: [0; SLOW_EVENTS],
            });
        }
    }

    /// Per-opcode request timing merged across workers, labelled with
    /// the opcode's exposition name, in opcode order. Opcodes that have
    /// served no frames are included (empty histograms).
    pub fn request_timing(&self) -> Vec<(&'static str, PhaseHists)> {
        let mut merged: Vec<PhaseHists> = (0..OP_COUNT).map(|_| PhaseHists::default()).collect();
        for w in self.timing.iter() {
            let t = w.lock().unwrap_or_else(|e| e.into_inner());
            for (dst, src) in merged.iter_mut().zip(t.ops.iter()) {
                dst.merge(src);
            }
        }
        merged
            .into_iter()
            .enumerate()
            .map(|(i, p)| (op_name(i as u8 + 1), p))
            .collect()
    }

    /// The full-frame (wire) latency histogram for one opcode, merged
    /// across workers — e.g. `wire::OP_BATCH` for the replay bench's
    /// server-vs-client percentile cross-check.
    pub fn wire_hist(&self, opcode: u8) -> Histogram {
        let mut h = Histogram::new();
        if opcode == 0 || usize::from(opcode) > OP_COUNT {
            return h;
        }
        for w in self.timing.iter() {
            let t = w.lock().unwrap_or_else(|e| e.into_inner());
            h.merge(&t.ops[usize::from(opcode - 1)].wire);
        }
        h
    }

    /// The server-origin slow-frame records currently retained, oldest
    /// first (the SLOWLOG verb merges these with the store's
    /// tree-origin records and sorts slowest-first).
    pub fn slow_frames(&self) -> Vec<SlowOp> {
        self.slow.snapshot()
    }

    /// Total slow frames ever deposited (including ones the ring has
    /// since overwritten).
    pub fn slow_frames_deposited(&self) -> u64 {
        self.slow.deposited()
    }

    /// Tree operations each worker has routed through its pinned
    /// handles, index-aligned with worker threads. The replay gate
    /// hard-fails if any entry is zero — a worker that served traffic
    /// without touching its handle means the pinning is broken.
    pub fn worker_ops(&self) -> Vec<u64> {
        self.worker_ops
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Connections accepted over the server's lifetime.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Request frames served.
    pub fn frames(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }

    /// Malformed frames (connection dropped after each).
    pub fn wire_errors(&self) -> u64 {
        self.wire_errors.load(Ordering::Relaxed)
    }

    /// BATCH ops executed shard-fused (partition → per-shard sorted run
    /// through the finger-anchored handle → scatter). The fusion gate
    /// hard-fails if a fused server serves a replay with this at zero.
    pub fn batch_fused_ops(&self) -> u64 {
        self.batch_fused_ops.load(Ordering::Relaxed)
    }

    /// BATCH ops executed unrolled in request order through the routing
    /// handle (`fuse_batches: false`, the A/B control arm).
    pub fn batch_single_ops(&self) -> u64 {
        self.batch_single_ops.load(Ordering::Relaxed)
    }

    /// Response-frame bytes encoded per opcode (body + 4-byte length
    /// prefix), labelled with the opcode's exposition name, in opcode
    /// order. Error replies are not attributed (the opcode is what
    /// failed to parse).
    pub fn encode_bytes(&self) -> Vec<(&'static str, u64)> {
        self.encode_bytes
            .iter()
            .enumerate()
            .map(|(i, b)| (op_name(i as u8 + 1), b.load(Ordering::Relaxed)))
            .collect()
    }

    /// Attributes one encoded response frame's bytes to its opcode.
    fn note_encode(&self, opcode: u8, bytes: u64) {
        self.encode_bytes[usize::from(opcode - 1).min(OP_COUNT - 1)]
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// This worker's connection gauges (racy point reads).
    fn worker_gauges(&self, w: usize) -> ServeGauges {
        let g = &self.serve[w];
        ServeGauges {
            open_connections: g.open.load(Ordering::Relaxed),
            read_paused_connections: g.paused.load(Ordering::Relaxed),
            write_buffered_bytes: g.wbuf_bytes.load(Ordering::Relaxed),
            backpressure_events: g.backpressure.load(Ordering::Relaxed),
        }
    }

    /// Per-reactor connection/backpressure gauges, index-aligned with
    /// worker threads.
    pub fn worker_serve(&self) -> Vec<ServeGauges> {
        (0..self.serve.len())
            .map(|w| self.worker_gauges(w))
            .collect()
    }

    /// Fleet-aggregate connection gauges — the values the METRICS verb
    /// folds into the store snapshot's `serve` field.
    pub fn serve_gauges(&self) -> ServeGauges {
        let mut total = ServeGauges::default();
        for w in 0..self.serve.len() {
            let g = self.worker_gauges(w);
            total.open_connections += g.open_connections;
            total.read_paused_connections += g.read_paused_connections;
            total.write_buffered_bytes += g.write_buffered_bytes;
            total.backpressure_events += g.backpressure_events;
        }
        total
    }
}

/// A worker's cross-thread mailbox: connections assigned to it by
/// whichever worker ran the accept, plus the eventfd that wakes its
/// `epoll_wait` (for handoffs and shutdown).
struct WorkerShared {
    inbox: Mutex<Vec<TcpStream>>,
    wake: EventFd,
}

/// A running serving tier over one [`Store`].
///
/// # Examples
///
/// ```
/// use nmbst_server::{Client, Server, ServerConfig};
///
/// let server = Server::start(ServerConfig {
///     workers: 2,
///     ..ServerConfig::default()
/// })
/// .unwrap();
/// let mut client = Client::connect(server.addr()).unwrap();
/// assert!(client.insert(7, 70).unwrap());
/// assert_eq!(client.get(&7).unwrap(), Some(70));
/// drop(client);
/// server.shutdown();
/// ```
pub struct Server {
    addr: SocketAddr,
    store: Arc<Store>,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
    shared: Vec<Arc<WorkerShared>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and spawns the workers; serving begins before this returns.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let workers = config.workers.max(1);
        let shards = if config.shards == 0 {
            workers
        } else {
            config.shards
        };
        let listener = TcpListener::bind(&config.addr)?;
        set_nonblocking(listener.as_raw_fd())?;
        let addr = listener.local_addr()?;
        let listener = Arc::new(listener);
        let store = Arc::new(Store::with_config(shards, config.tree));
        let stats = Arc::new(ServerStats::new(workers, config.slow_frame_ns));
        let stop = Arc::new(AtomicBool::new(false));
        let rr = Arc::new(AtomicUsize::new(0));
        let shared = (0..workers)
            .map(|_| {
                Ok(Arc::new(WorkerShared {
                    inbox: Mutex::new(Vec::new()),
                    wake: EventFd::new()?,
                }))
            })
            .collect::<io::Result<Vec<_>>>()?;

        let handles = (0..workers)
            .map(|w| {
                let listener = Arc::clone(&listener);
                let shared: Vec<_> = shared.iter().map(Arc::clone).collect();
                let store = Arc::clone(&store);
                let stats = Arc::clone(&stats);
                let stop = Arc::clone(&stop);
                let rr = Arc::clone(&rr);
                let flush_every = config.flush_every.max(1);
                let write_budget = config.write_budget.max(1);
                let fuse_batches = config.fuse_batches;
                std::thread::Builder::new()
                    .name(format!("nmbst-worker-{w}"))
                    .spawn(move || {
                        worker_loop(
                            w,
                            &listener,
                            &shared,
                            &rr,
                            &store,
                            &stats,
                            &stop,
                            flush_every,
                            write_budget,
                            fuse_batches,
                        )
                    })
            })
            .collect::<io::Result<Vec<_>>>()?;

        Ok(Server {
            addr,
            store,
            stats,
            stop,
            shared,
            workers: handles,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The store being served (e.g. for out-of-band verification).
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// Server-level counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// A shared handle to the counters that outlives the server — lets
    /// a bench snapshot request timing *after* `shutdown` has joined
    /// the workers, when every frame's record is certainly published.
    pub fn stats_arc(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// Aggregated store metrics — the same snapshot the METRICS verb
    /// serves, minus the server counters.
    pub fn metrics(&self) -> nmbst::obs::MetricsSnapshot {
        self.store.metrics()
    }

    /// Stops the reactors (eventfd wake, no dummy connections) and
    /// joins them. Connections are closed where they stand; buffered
    /// responses that have not reached the socket are dropped with
    /// them.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        for sh in &self.shared {
            sh.wake.signal();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// One worker's reactor state: its epoll instance, connection slab, and
/// pinned store handle. Connections are identified by slab slot, which
/// doubles as the epoll registration token; freed slots are reused only
/// after the event batch that might still reference them has been fully
/// processed (accepts and inbox handoffs are deferred to the end of
/// each loop iteration for exactly this reason).
struct Reactor<'a> {
    idx: usize,
    workers: usize,
    epoll: Epoll,
    listener: &'a TcpListener,
    shared: &'a [Arc<WorkerShared>],
    rr: &'a AtomicUsize,
    stats: &'a ServerStats,
    stop: &'a AtomicBool,
    engine: Engine<'a>,
    slab: Vec<Option<Conn>>,
    free: Vec<usize>,
    write_budget: usize,
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    idx: usize,
    listener: &TcpListener,
    shared: &[Arc<WorkerShared>],
    rr: &AtomicUsize,
    store: &Store,
    stats: &ServerStats,
    stop: &AtomicBool,
    flush_every: u32,
    write_budget: usize,
    fuse_batches: bool,
) {
    let epoll = match Epoll::new() {
        Ok(e) => e,
        Err(_) => return,
    };
    if epoll
        .add(shared[idx].wake.fd(), EPOLLIN, TOKEN_WAKE)
        .is_err()
    {
        return;
    }
    if epoll
        .add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)
        .is_err()
    {
        return;
    }
    let mut reactor = Reactor {
        idx,
        workers: shared.len(),
        epoll,
        listener,
        shared,
        rr,
        stats,
        stop,
        engine: Engine::new(idx, store, stats, fuse_batches, flush_every),
        slab: Vec::new(),
        free: Vec::new(),
        write_budget,
    };
    reactor.run();
}

impl Reactor<'_> {
    fn run(&mut self) {
        let mut events = vec![EpollEvent::ZERO; 128];
        loop {
            let n = match self.epoll.wait(&mut events, 100) {
                Ok(n) => n,
                Err(_) => {
                    // An epoll failure is unrecoverable for this worker,
                    // but don't spin on it — check the flag and park.
                    if self.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            };
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let mut accept_ready = false;
            for ev in events.iter().take(n) {
                let ev = *ev; // copy out of the packed buffer
                match ev.data {
                    TOKEN_WAKE => {
                        self.shared[self.idx].wake.drain();
                    }
                    TOKEN_LISTENER => accept_ready = true,
                    slot => self.drive(slot as usize, ev.events),
                }
            }
            // Accepts and handoffs run *after* the event batch: a slot
            // freed while processing the batch must not be reused while
            // stale events for it may remain in `events`.
            if accept_ready {
                self.accept_new();
            }
            self.drain_inbox();
            if n == 0 {
                // Idle tick: publish batched handle stats.
                self.engine.flush_stats();
            }
            let buffered: u64 = self
                .slab
                .iter()
                .flatten()
                .map(|c| c.buffered() as u64)
                .sum();
            self.stats.serve[self.idx]
                .wbuf_bytes
                .store(buffered, Ordering::Relaxed);
        }
        self.engine.flush_stats();
        // Dropping the slab closes every connection; zero the gauges so
        // a post-shutdown scrape doesn't report ghosts.
        let g = &self.stats.serve[self.idx];
        g.open.store(0, Ordering::Relaxed);
        g.paused.store(0, Ordering::Relaxed);
        g.wbuf_bytes.store(0, Ordering::Relaxed);
    }

    /// Accepts until `WouldBlock`, assigning each connection
    /// round-robin across workers.
    fn accept_new(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    self.stats.connections.fetch_add(1, Ordering::Relaxed);
                    let target = self.rr.fetch_add(1, Ordering::Relaxed) % self.workers;
                    if target == self.idx {
                        self.register(stream);
                    } else {
                        let sh = &self.shared[target];
                        sh.inbox
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push(stream);
                        sh.wake.signal();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Adopts connections other workers' accepts assigned to us.
    fn drain_inbox(&mut self) {
        let pending: Vec<TcpStream> = {
            let mut inbox = self.shared[self.idx]
                .inbox
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *inbox)
        };
        for stream in pending {
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            self.register(stream);
        }
    }

    /// Registers a new connection in the slab and this worker's epoll.
    fn register(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if set_nonblocking(stream.as_raw_fd()).is_err() {
            return;
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(None);
            self.slab.len() - 1
        });
        let mut conn = Conn::new(stream);
        conn.interest = EPOLLIN | EPOLLRDHUP;
        if self
            .epoll
            .add(conn.stream.as_raw_fd(), conn.interest, slot as u64)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        self.slab[slot] = Some(conn);
        self.stats.serve[self.idx]
            .open
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Handles one readiness event for a connection slot.
    fn drive(&mut self, slot: usize, ev: u32) {
        let Some(mut conn) = self.slab.get_mut(slot).and_then(Option::take) else {
            return; // stale event for an already-closed slot
        };
        if self.drive_conn(&mut conn, ev, slot) {
            self.slab[slot] = Some(conn);
        } else {
            self.discard(slot, conn);
        }
    }

    /// The per-event state machine. Returns false when the connection
    /// is finished (dropped by the caller, which closes the fd).
    fn drive_conn(&mut self, conn: &mut Conn, ev: u32, slot: usize) -> bool {
        if ev & (EPOLLHUP | EPOLLERR) != 0 {
            return false;
        }
        if ev & EPOLLOUT != 0 {
            if conn.flush().is_err() {
                return false;
            }
            if conn.read_paused && conn.should_resume(self.write_budget) {
                self.unpause(conn);
                // Bytes already sitting in the assembly buffer will not
                // re-trigger EPOLLIN (epoll only sees the socket), so
                // the parse loop must run again right here.
                if !self.process(conn) {
                    return false;
                }
            }
            if conn.close_after_flush && conn.buffered() == 0 {
                return false;
            }
        }
        if ev & (EPOLLIN | EPOLLRDHUP) != 0 && !conn.read_paused && !conn.close_after_flush {
            match conn.fill() {
                Err(_) => return false,
                Ok(outcome) => {
                    if !self.process(conn) {
                        return false;
                    }
                    if outcome == FillOutcome::Eof && !conn.close_after_flush {
                        if conn.buffered() == 0 {
                            return false;
                        }
                        // Responses are still queued: flush, then close.
                        conn.close_after_flush = true;
                    }
                    if conn.close_after_flush && conn.buffered() == 0 {
                        return false;
                    }
                }
            }
        }
        self.update_interest(conn, slot);
        true
    }

    /// Parses and serves every complete frame buffered on `conn`,
    /// pausing at the backpressure watermark. Returns false when the
    /// connection is finished.
    fn process(&mut self, conn: &mut Conn) -> bool {
        loop {
            if conn.close_after_flush {
                break;
            }
            if conn.should_pause(self.write_budget) {
                if !conn.read_paused {
                    conn.read_paused = true;
                    let g = &self.stats.serve[self.idx];
                    g.paused.fetch_add(1, Ordering::Relaxed);
                    g.backpressure.fetch_add(1, Ordering::Relaxed);
                }
                if conn.flush().is_err() {
                    return false;
                }
                if conn.should_resume(self.write_budget) {
                    self.unpause(conn);
                    continue;
                }
                break;
            }
            match conn.next_frame() {
                NextFrame::Pending => break,
                // An oversized length prefix closes the connection with
                // no reply — a length-prefixed stream cannot resync.
                NextFrame::Oversized => return false,
                NextFrame::Frame { start, len } => {
                    // Zero-copy hand-off: the request body stays in the
                    // assembly buffer and the response is encoded
                    // straight into the write buffer — the split borrow
                    // proves the two never alias.
                    let (body, wbuf) = conn.frame_and_wbuf(start, len);
                    if !self.engine.serve_frame(body, wbuf) {
                        // Answer sent (an Err frame is already queued);
                        // after a framing error the stream cannot be
                        // trusted. Frames already parsed were served;
                        // frames buffered behind the bad one are
                        // discarded with it.
                        conn.close_after_flush = true;
                    }
                }
            }
        }
        conn.compact();
        match conn.flush() {
            Err(_) => false,
            Ok(done) => !(conn.close_after_flush && done),
        }
    }

    fn unpause(&self, conn: &mut Conn) {
        conn.read_paused = false;
        self.stats.serve[self.idx]
            .paused
            .fetch_sub(1, Ordering::Relaxed);
    }

    /// Re-registers the fd's epoll interest if it changed: EPOLLIN
    /// while reads are allowed, EPOLLOUT while responses are buffered.
    fn update_interest(&self, conn: &mut Conn, slot: usize) {
        let mut want = 0u32;
        if !conn.read_paused && !conn.close_after_flush {
            want |= EPOLLIN | EPOLLRDHUP;
        }
        if conn.buffered() > 0 {
            want |= EPOLLOUT;
        }
        if want != conn.interest
            && self
                .epoll
                .modify(conn.stream.as_raw_fd(), want, slot as u64)
                .is_ok()
        {
            conn.interest = want;
        }
    }

    /// Closes a connection: epoll dereg (best-effort — closing the fd
    /// deregisters anyway), gauge updates, slot back on the free list.
    fn discard(&mut self, slot: usize, conn: Conn) {
        let _ = self.epoll.del(conn.stream.as_raw_fd());
        let g = &self.stats.serve[self.idx];
        g.open.fetch_sub(1, Ordering::Relaxed);
        if conn.read_paused {
            g.paused.fetch_sub(1, Ordering::Relaxed);
        }
        self.free.push(slot);
        // `conn` drops here, closing the socket.
    }
}

/// One worker's request-execution engine: the pinned store handle plus
/// every piece of reusable scratch a frame needs, factored out of the
/// reactor so tests can drive the exact serving path in-process (see
/// [`crate::testing`]) without sockets or epoll.
///
/// Steady-state point and BATCH frames run allocation-free: ops decode
/// into `batch_cmds`, partition into `batch_scratch`, verdicts land in
/// `batch_out`, and the response is encoded straight into the
/// connection's write buffer behind a reserved length prefix. All three
/// scratch vectors keep their capacity across frames.
struct Engine<'a> {
    worker: usize,
    store: &'a Store,
    stats: &'a ServerStats,
    handle: ShardedMapHandle<'a, u64, u64, Ebr>,
    fuse_batches: bool,
    flush_every: u32,
    ops_since_flush: u32,
    batch_cmds: Vec<BatchCmd<u64, u64>>,
    batch_scratch: BatchScratch,
    batch_out: Vec<BatchVerdict<u64>>,
}

impl<'a> Engine<'a> {
    fn new(
        worker: usize,
        store: &'a Store,
        stats: &'a ServerStats,
        fuse_batches: bool,
        flush_every: u32,
    ) -> Engine<'a> {
        Engine {
            worker,
            store,
            stats,
            handle: store.handle(),
            fuse_batches,
            flush_every: flush_every.max(1),
            ops_since_flush: 0,
            batch_cmds: Vec::new(),
            batch_scratch: BatchScratch::new(),
            batch_out: Vec::new(),
        }
    }

    /// Publishes the handle's batched stats and resets the sampling
    /// countdown (reactor idle tick / shutdown / test scrape).
    fn flush_stats(&mut self) {
        self.handle.flush_stats();
        self.ops_since_flush = 0;
    }

    /// Serves one request frame: decode → execute through the pinned
    /// handle → encode into `wbuf` behind a reserved length prefix, in
    /// arrival order (the pipelining ordering guarantee). Returns false
    /// on a malformed frame — an Err reply is queued and the caller
    /// must close the connection after flushing it.
    fn serve_frame(&mut self, body: &[u8], wbuf: &mut Vec<u8>) -> bool {
        self.stats.frames.fetch_add(1, Ordering::Relaxed);
        // BATCH frames take the fused fast path before a `Request` is
        // ever materialised: ops decode straight into reusable scratch,
        // skipping the per-frame `Vec<BatchOp>` the general path would
        // allocate.
        if body.first() == Some(&OP_BATCH) {
            self.serve_batch(body, wbuf)
        } else {
            self.serve_plain(body, wbuf)
        }
    }

    /// The BATCH fast path: decode into scratch, execute (fused or
    /// unrolled per config), encode verdicts in request order.
    fn serve_batch(&mut self, body: &[u8], wbuf: &mut Vec<u8>) -> bool {
        let t0 = Instant::now();
        self.batch_cmds.clear();
        let cmds = &mut self.batch_cmds;
        let decoded = wire::decode_batch_ops(body, |op| {
            cmds.push(match op {
                BatchOp::Get(k) => BatchCmd::Get(k),
                BatchOp::Insert(k, v) => BatchCmd::Insert(k, v),
                BatchOp::Remove(k) => BatchCmd::Remove(k),
            })
        });
        let t1 = Instant::now();
        if let Err(e) = decoded {
            return self.wire_error(&e, wbuf);
        }
        let n_ops = self.batch_cmds.len() as u64;
        self.stats.worker_ops[self.worker].fetch_add(n_ops, Ordering::Relaxed);
        self.ops_since_flush = self.ops_since_flush.saturating_add(n_ops as u32);
        if self.fuse_batches {
            self.handle.execute_batch(
                &self.batch_cmds,
                &mut self.batch_scratch,
                &mut self.batch_out,
            );
            self.stats
                .batch_fused_ops
                .fetch_add(n_ops, Ordering::Relaxed);
        } else {
            // A/B control arm: request order through the routing handle,
            // exactly what `execute` did before fusion.
            self.batch_out.clear();
            for cmd in &self.batch_cmds {
                self.batch_out.push(match cmd {
                    BatchCmd::Get(k) => match self.handle.get(k) {
                        Some(v) => BatchVerdict::Found(v),
                        None => BatchVerdict::Missing,
                    },
                    BatchCmd::Insert(k, v) => BatchVerdict::Added(self.handle.insert(*k, *v)),
                    BatchCmd::Remove(k) => BatchVerdict::Removed(self.handle.remove(k)),
                });
            }
            self.stats
                .batch_single_ops
                .fetch_add(n_ops, Ordering::Relaxed);
        }
        let t2 = Instant::now();
        let mark = wire::begin_frame(wbuf);
        wbuf.push(STATUS_OK);
        wbuf.extend_from_slice(&(self.batch_out.len() as u32).to_le_bytes());
        for v in &self.batch_out {
            wire::encode_batch_reply(
                wbuf,
                match *v {
                    BatchVerdict::Found(x) => BatchReply::Found(x),
                    BatchVerdict::Missing => BatchReply::Missing,
                    BatchVerdict::Added(b) => BatchReply::Added(b),
                    BatchVerdict::Removed(b) => BatchReply::Removed(b),
                },
            );
        }
        let frame_bytes = wire::end_frame(wbuf, mark) as u64 + 4;
        self.stats.note_encode(OP_BATCH, frame_bytes);
        let t3 = Instant::now();
        let key = self.batch_cmds.first().map_or(0, |c| *c.key());
        self.record(OP_BATCH, key, t0, t1, t2, t3);
        true
    }

    /// Every non-BATCH opcode: the `Request`/`Response` path, with the
    /// response encoded directly into `wbuf`.
    fn serve_plain(&mut self, body: &[u8], wbuf: &mut Vec<u8>) -> bool {
        let t0 = Instant::now();
        let decoded = Request::decode(body);
        let t1 = Instant::now();
        let req = match decoded {
            Ok(req) => req,
            Err(e) => return self.wire_error(&e, wbuf),
        };
        let ops = op_count(&req);
        self.stats.worker_ops[self.worker].fetch_add(ops, Ordering::Relaxed);
        self.ops_since_flush = self.ops_since_flush.saturating_add(ops as u32);
        let response = execute(&req, &mut self.handle, self.store, self.stats);
        let t2 = Instant::now();
        let mark = wire::begin_frame(wbuf);
        response.encode(wbuf);
        let frame_bytes = wire::end_frame(wbuf, mark) as u64 + 4;
        self.stats.note_encode(req.opcode(), frame_bytes);
        let t3 = Instant::now();
        self.record(req.opcode(), slow_key(&req), t0, t1, t2, t3);
        true
    }

    /// Queues an Err reply for a malformed frame and reports the
    /// connection unservable. Error bytes are not attributed to an
    /// opcode — the opcode is what failed to parse.
    fn wire_error(&mut self, e: &wire::WireError, wbuf: &mut Vec<u8>) -> bool {
        self.stats.wire_errors.fetch_add(1, Ordering::Relaxed);
        let mark = wire::begin_frame(wbuf);
        Response::Err(e.to_string()).encode(wbuf);
        wire::end_frame(wbuf, mark);
        false
    }

    /// Frame epilogue: phase timing, slow-frame capture, and the
    /// sampled stats flush.
    fn record(&mut self, opcode: u8, key: u64, t0: Instant, t1: Instant, t2: Instant, t3: Instant) {
        self.stats.record_frame(
            self.worker,
            opcode,
            key,
            [
                (t3 - t0).as_nanos() as u64,
                (t1 - t0).as_nanos() as u64,
                (t2 - t1).as_nanos() as u64,
                (t3 - t2).as_nanos() as u64,
            ],
        );
        if self.ops_since_flush >= self.flush_every {
            self.handle.flush_stats();
            self.ops_since_flush = 0;
        }
    }
}

/// Tree operations a request will route through the worker's handle.
fn op_count(req: &Request) -> u64 {
    match req {
        Request::Get(_) | Request::Insert(..) | Request::Remove(_) => 1,
        Request::Batch(ops) => ops.len() as u64,
        // SCAN/METRICS/PING/SLOWLOG read through the store front end,
        // not the pinned handle; they don't count toward handle-routed
        // ops.
        Request::Scan { .. } | Request::Metrics(_) | Request::Ping | Request::SlowLog { .. } => 0,
    }
}

/// The key a slow-frame record carries: the op's target when the
/// request has one obvious key, else 0. A batch frame reports its first
/// op's key — enough to find the offending trace in a replay log.
fn slow_key(req: &Request) -> u64 {
    match req {
        Request::Get(k) | Request::Insert(k, _) | Request::Remove(k) => *k,
        Request::Batch(ops) => match ops.first() {
            Some(BatchOp::Get(k) | BatchOp::Insert(k, _) | BatchOp::Remove(k)) => *k,
            None => 0,
        },
        Request::Scan { lo, .. } => *lo,
        Request::Metrics(_) | Request::Ping | Request::SlowLog { .. } => 0,
    }
}

fn execute(
    req: &Request,
    handle: &mut ShardedMapHandle<'_, u64, u64, Ebr>,
    store: &Store,
    stats: &ServerStats,
) -> Response {
    match req {
        Request::Get(k) => Response::Get(handle.get(k)),
        Request::Insert(k, v) => Response::Insert(handle.insert(*k, *v)),
        Request::Remove(k) => Response::Remove(handle.remove(k)),
        Request::Batch(ops) => {
            // Not reached from the reactor: BATCH frames are
            // intercepted by first byte and served through the engine's
            // fused scratch path before a `Request` is built. Kept so
            // `execute` stays total over `Request` for any future
            // non-reactor caller; executes in request order.
            let replies = ops
                .iter()
                .map(|op| match op {
                    BatchOp::Get(k) => match handle.get(k) {
                        Some(v) => BatchReply::Found(v),
                        None => BatchReply::Missing,
                    },
                    BatchOp::Insert(k, v) => BatchReply::Added(handle.insert(*k, *v)),
                    BatchOp::Remove(k) => BatchReply::Removed(handle.remove(k)),
                })
                .collect();
            Response::Batch(replies)
        }
        Request::Scan { lo, hi, max } => {
            let mut entries = store.range_collect(*lo..=*hi);
            let cap = if *max == 0 { usize::MAX } else { *max as usize };
            let truncated = entries.len() > cap;
            entries.truncate(cap);
            Response::Scan { entries, truncated }
        }
        Request::Metrics(fmt) => Response::Metrics(metrics_text(store, stats, *fmt)),
        Request::Ping => Response::Pong,
        Request::SlowLog { max } => {
            // Merge the two capture layers: the server's slow-frame
            // ring (origin 1, whole frames) and the trees' slow-op
            // rings (origin 0, already merged slowest-first by the
            // store snapshot). Slowest first, like the snapshot.
            let mut records = stats.slow_frames();
            records.extend_from_slice(&store.metrics().slow_ops);
            records.sort_by_key(|r| std::cmp::Reverse(r.ns));
            if *max != 0 {
                records.truncate(*max as usize);
            }
            Response::SlowLog(records)
        }
    }
}

/// The METRICS verb's payload: the aggregated tree snapshot (with the
/// fleet's serve gauges folded in) plus the server's [`SERVER_ROWS`] and
/// per-worker [`SERVE_ROWS`], in the requested exposition format.
fn metrics_text(store: &Store, stats: &ServerStats, fmt: MetricsFormat) -> String {
    let mut snap = store.metrics();
    snap.serve = stats.serve_gauges();
    match fmt {
        MetricsFormat::Json => {
            format!(
                "{{\"tree\":{},\"server\":{{{},\"serve\":{{{}}}}}}}",
                snap.to_json(),
                render_json(SERVER_ROWS, stats),
                render_json(SERVE_ROWS, stats)
            )
        }
        MetricsFormat::Prometheus => {
            let server =
                render_prometheus(SERVER_ROWS, stats) + &render_prometheus(SERVE_ROWS, stats);
            snap.to_prometheus() + &server
        }
    }
}

/// Request timing: one `{op, phase}` histogram series per served opcode
/// (opcodes that have served no frame are left out). `ServerStats` has
/// no `Display` and never merges, so `show` and `fold` do nothing.
const REQUEST_TIMING: Family<ServerStats> = Family {
    json: |s| {
        let ops: Vec<String> = served_timing(s)
            .map(|(op, p)| {
                let phases = p
                    .by_phase()
                    .map(|(ph, h)| format!("\"{ph}\":{}", h.summary_json()));
                format!("\"{op}\":{{{}}}", phases.join(","))
            })
            .collect();
        format!("{{{}}}", ops.join(","))
    },
    prom: |s, name, out| {
        for (op, p) in served_timing(s) {
            for (phase, h) in p.by_phase() {
                h.fmt_prometheus_series(out, name, &format!("op=\"{op}\",phase=\"{phase}\""));
            }
        }
    },
    show: |_| String::new(),
    fold: |_, _| {},
};

/// Per-opcode request timing of the opcodes that have served a frame.
fn served_timing(s: &ServerStats) -> impl Iterator<Item = (&'static str, PhaseHists)> {
    s.request_timing()
        .into_iter()
        .filter(|(_, p)| !p.wire.is_empty())
}

/// One per-worker column of the reactors' connection gauges.
macro_rules! per_worker_serve {
    ($f:ident) => {
        Value::PerWorker(|s| s.worker_serve().iter().map(|g| g.$f).collect())
    };
}

/// The server's own metrics, rendered after the store snapshot's rows.
/// Values are read live from the atomics at scrape time.
#[rustfmt::skip]
static SERVER_ROWS: &[Row<ServerStats>] = &[
    metric_row!("connections", "nmbst_server_connections_total", Counter, Sum,
        Value::live(|s| s.connections().into()), "Connections accepted."),
    metric_row!("frames", "nmbst_server_frames_total", Counter, Sum,
        Value::live(|s| s.frames().into()), "Request frames served."),
    metric_row!("wire_errors", "nmbst_server_wire_errors_total", Counter, Sum,
        Value::live(|s| s.wire_errors().into()), "Malformed frames."),
    metric_row!("batch_fused_ops", "nmbst_server_batch_fused_ops_total", Counter, Sum,
        Value::live(|s| s.batch_fused_ops().into()),
        "BATCH ops executed shard-fused (partition, per-shard sorted run, scatter)."),
    metric_row!("batch_single_ops", "nmbst_server_batch_single_ops_total", Counter, Sum,
        Value::live(|s| s.batch_single_ops().into()),
        "BATCH ops executed unrolled in request order (fusion disabled)."),
    metric_row!("worker_ops", "nmbst_server_worker_ops_total", Counter, Sum,
        Value::PerWorker(|s| s.worker_ops()),
        "Tree ops routed through each worker's pinned handle."),
    metric_row!("encode_bytes", "nmbst_server_encode_bytes_total", Counter, Sum,
        Value::PerOp(|s| s.encode_bytes().into_iter().filter(|(_, b)| *b != 0).collect()),
        "Response frame bytes encoded per opcode (body plus length prefix)."),
    metric_row!("timing", "nmbst_server_request_ns", Histogram, Sum,
        Value::Family(REQUEST_TIMING),
        "Request latency by opcode and phase (ns); phase=\"wire\" is the whole frame, \
         decode/execute/encode partition it."),
    metric_row!("slow_frames", "nmbst_server_slow_frames_total", Counter, Sum,
        Value::live(|s| s.slow_frames_deposited().into()), "Frames over the slow threshold."),
];

/// Per-reactor connection gauges, one `worker`-labelled series each,
/// nested under `"serve"` in JSON (the fleet aggregate rides in the
/// store snapshot's `nmbst_serve_*` rows).
#[rustfmt::skip]
static SERVE_ROWS: &[Row<ServerStats>] = &[
    metric_row!("open_connections", "nmbst_server_open_connections", Gauge, Sum,
        per_worker_serve!(open_connections), "Connections registered with each reactor worker."),
    metric_row!("read_paused_connections", "nmbst_server_read_paused_connections", Gauge, Sum,
        per_worker_serve!(read_paused_connections),
        "Connections read-paused by backpressure, per worker."),
    metric_row!("write_buffered_bytes", "nmbst_server_write_buffered_bytes", Gauge, Sum,
        per_worker_serve!(write_buffered_bytes), "Buffered response bytes per worker."),
    metric_row!("backpressure_events", "nmbst_server_backpressure_events_total", Counter, Sum,
        per_worker_serve!(backpressure_events), "Read-pause transitions per worker."),
];

/// In-process driver for the exact serving path the reactors run —
/// frame bytes in, frame bytes out, through the same `Engine` —
/// without sockets, epoll, or threads. Exists for tests that need the
/// serve path on the *current* thread: chaos hooks are thread-local,
/// and the zero-allocation gate must measure the engine without reactor
/// noise. Not a public API; hidden from docs and exempt from semver.
pub mod testing {
    use super::*;

    /// One worker's `Engine` over a private store, driven directly.
    pub struct LocalEngine<'a> {
        engine: Engine<'a>,
    }

    impl LocalEngine<'_> {
        /// Serves one request body (no length prefix), appending the
        /// length-prefixed response frame to `out` — exactly what the
        /// reactor queues on the connection. Returns false on a wire
        /// error (the reactor would close the connection after
        /// flushing the Err frame this queued).
        pub fn serve(&mut self, body: &[u8], out: &mut Vec<u8>) -> bool {
            self.engine.serve_frame(body, out)
        }

        /// The engine's server counters.
        pub fn stats(&self) -> &ServerStats {
            self.engine.stats
        }

        /// The backing store (for out-of-band verification).
        pub fn store(&self) -> &Store {
            self.engine.store
        }

        /// Flushes the handle's batched stats and snapshots the store's
        /// metrics — finger hits/misses included.
        pub fn metrics(&mut self) -> nmbst::obs::MetricsSnapshot {
            self.engine.flush_stats();
            self.engine.store.metrics()
        }
    }

    /// Runs `f` with a [`LocalEngine`] over a fresh `shards`-way store.
    /// Slow-frame capture is disabled (threshold 0) and the stats flush
    /// interval is effectively infinite, so `serve` does only what a
    /// steady-state reactor frame does.
    pub fn with_local_engine<T>(
        shards: usize,
        fuse_batches: bool,
        f: impl FnOnce(&mut LocalEngine<'_>) -> T,
    ) -> T {
        let store = Store::with_config(shards.max(1), TreeConfig::default());
        with_local_engine_over(&store, fuse_batches, f)
    }

    /// [`with_local_engine`] over a caller-owned store, which outlives
    /// the engine — so the caller can inspect it exclusively afterwards
    /// (e.g. `Store::check_invariants`).
    pub fn with_local_engine_over<T>(
        store: &Store,
        fuse_batches: bool,
        f: impl FnOnce(&mut LocalEngine<'_>) -> T,
    ) -> T {
        let stats = ServerStats::new(1, 0);
        let mut local = LocalEngine {
            engine: Engine::new(0, store, &stats, fuse_batches, u32::MAX),
        };
        f(&mut local)
    }
}
