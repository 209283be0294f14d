//! The perf harness: thirteen benches, each a row of [`ROWS`] that
//! names its arms, its repeat policy, its shared config fields and its
//! gates. One evaluator runs the rows, writes every cell to
//! `BENCH_PR10.json` (override with `NMBST_BENCH_JSON`) in the
//! `nmbst-bench-v1` schema shared with criterion-lite, prints one
//! verdict line per gate, and exits non-zero if any gate fails. A gate
//! is a *bound* (a tolerance below a control arm or a minimum speedup,
//! each with an environment knob) or a *hard* structural predicate.
//!
//! * `single_thread_throughput` — one thread, the three Figure-4
//!   mixes, the plain per-op-pin API vs a pin-amortizing handle. When
//!   `NMBST_BASELINE_JSON` names a committed bench file, the mixed and
//!   read-dominated cells must stay within `NMBST_PERF_TOLERANCE` of
//!   it: that file is the only record of past throughput, so a
//!   slowdown shows up here first.
//! * `contended_throughput` — several threads on a 128-key range,
//!   root vs local restart. Ungated: it records the seek and
//!   local-restart counters that decide the `RestartPolicy` default.
//! * `latency` — single-thread mixed per-op latency percentiles,
//!   per-op-pin vs handle. Ungated.
//! * `table1_exact` — the paper's Table-1 counts at `leaf_cap = 1`
//!   (insert 2 allocs / 1 CAS, delete 0 allocs / 3 atomics) through
//!   both APIs. Exact counts carry no noise, so any drift is a real
//!   change to the update protocol.
//! * `pool_ablation` — the node pool on vs off. Pool-on must not trail
//!   pool-off on the write-dominated cell by more than
//!   `NMBST_POOL_TOLERANCE` (the pool exists to win it), and the mixed
//!   pool-on cell must record pool hits, or recycling is dead.
//! * `leaf_ablation` — `leaf_cap = 1` (the one-key-per-leaf shape) vs
//!   fat leaves. The fat read-dominated cell must not trail the thin
//!   one by more than `NMBST_LEAF_TOLERANCE`, and the thin tree must be
//!   strictly deeper; otherwise the ablation no longer reproduces the
//!   old shape and the delta is not attributable to leaf compaction.
//! * `bulk_load` — the O(n) balanced build vs handle loop-insert of the
//!   same keys in shuffled order. It must be `NMBST_BULK_MIN_SPEEDUP`×
//!   faster: it does no CAS work and never re-descends, so anything
//!   less is structural, not jitter.
//! * `sorted_batch` — Zipf-clustered ascending runs through the handle
//!   batch entry points vs the same handle one key at a time. Batched
//!   must not trail singles by more than `NMBST_BATCH_TOLERANCE`, and
//!   must record finger hits; a dead finger means every batch op
//!   silently became a root descent.
//! * `obs_overhead` — default sampled latency recording vs disabled, as
//!   interleaved pairs gated on the median per-pair on/off ratio
//!   (adjacent runs share machine state, and the median drops pairs a
//!   one-sided spike hit). The ratio must be finite and positive, must
//!   stay within `NMBST_OBS_TOLERANCE` of 1 (the ≤3% observability
//!   budget), and the recording-on cells must hold latency samples.
//! * `serving_replay` — an `nmbst-server` on loopback driven by the
//!   open-loop session replay (`NMBST_SESSIONS` sessions): calibrated
//!   at drain rate, then paced at 70% of it so p999 means queueing, not
//!   time-to-drain. Every worker must route ops through its pinned
//!   handles, and peak capacity must stay within
//!   `NMBST_SERVE_TOLERANCE` of the baseline cell. Client RTT and
//!   server wire time bucket the same frames, so their counts must be
//!   equal, the server p99 must sit within `NMBST_AGREE_TOLERANCE` of
//!   the client p99 (two bucket errors), and the client p99 must not
//!   exceed the server p99 by more than 100× (a unit-mismatch
//!   tripwire).
//! * `serving_churn` — the same replay with every client redialing
//!   every 32 sessions, 16 connections over 2 workers. Every worker
//!   must route ops, the fleet must be ≥ 8× the workers, connections
//!   opened must exceed clients (it churned), every connection must
//!   drain, and the paced run must finish within `NMBST_CHURN_SLACK` of
//!   its schedule: a server that cannot sustain the load drains at
//!   capacity and overruns at once.
//! * `pipelining` — one client's seeded GET stream, blocking vs
//!   pipelined, as interleaved pairs. Pipelined must be
//!   `NMBST_PIPELINE_MIN_SPEEDUP`× blocking: it pays one RTT per window
//!   instead of one per request.
//! * `serving_batch_fusion` — drain-rate replays with ≤768-op frames
//!   over 2^14 keys against servers with `fuse_batches` on vs off, as
//!   interleaved pairs. Fused must not trail unrolled by more than
//!   `NMBST_FUSION_TOLERANCE`, must record finger hits (sorted runs
//!   arriving over TCP anchor), and both arms must execute ops through
//!   their own path, or the A/B has no control.
//!
//! On any gate failure the slow-op records of the median paced serving
//! run go to `NMBST_SLOWLOG_PATH` (default `SLOWLOG_DUMP.txt`) for CI to
//! upload. Other knobs: `NMBST_SECS` (seconds per throughput cell,
//! default 1.0), `NMBST_KEYS` (first entry = single-thread key range),
//! `NMBST_SEED`. A knob set to a value that does not parse is fatal.

use criterion::json::{self, Json};
use nmbst::obs::{MetricsSnapshot, OpClass, SlowOp};
use nmbst::{LatencyConfig, NmTreeSet, PoolConfig, RestartPolicy, SetHandle, TagMode, TreeConfig};
use nmbst_bench::{env_var, SweepConfig};
use nmbst_harness::replay::{
    run_replay, run_replay_churn, ReplayConfig, ReplayReport, SessionOp, SessionTarget,
};
use nmbst_harness::rng::XorShift64Star;
use nmbst_harness::workload::OpKind;
use nmbst_harness::{Histogram, SortedBatchGen, Workload};
use nmbst_reclaim::{Ebr, Leaky, Reclaim};
use nmbst_server::wire::{BatchOp, Request, Response};
use nmbst_server::{Client, Server, ServerConfig};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Client p99 may exceed server p99 by at most this factor: loopback
/// syscalls legitimately dominate sub-10µs frames, but a µs/ns mix-up
/// overshoots 100× at once.
const AGREE_FACTOR: f64 = 100.0;
/// Paced serving runs offer this fraction of calibrated peak capacity.
const SERVE_UTIL: f64 = 0.7;
/// Keys per bulk-load build: fixed, not time-budgeted, so the cell is
/// comparable across `NMBST_SECS`.
const BULK_KEYS: u64 = 100_000;
/// Length of each sorted run in the `sorted_batch` cell.
const BATCH_LEN: usize = 32;
/// Op cap per coalesced BATCH frame in the fusion cell.
const FUSION_OPS: usize = 768;
/// The Table-1 metrics and the paper's value for each.
const TABLE1: [(&str, f64); 4] = [
    ("insert_allocs", 2.0),
    ("delete_allocs", 0.0),
    ("insert_atomics", 1.0),
    ("delete_atomics", 3.0),
];

/// `vec![("key", Json::from(value)), …]`: a cell's config or metrics.
macro_rules! fields {
    ($($key:ident: $value:expr),* $(,)?) => {
        vec![$((stringify!($key), Json::from($value))),*]
    };
}

/// `[("name", value as f64), …]`: facts for [`Sample::with_facts`].
macro_rules! facts {
    ($($key:ident: $value:expr),* $(,)?) => {
        [$((stringify!($key), $value as f64)),*]
    };
}

/// Which front end drives the operations.
#[derive(Clone, Copy, PartialEq)]
enum Api {
    /// The plain API: every call pins and unpins the reclaimer.
    PerOpPin,
    /// A [`SetHandle`] holding its guard across operations.
    Handle,
}

impl Api {
    fn label(self) -> &'static str {
        match self {
            Api::PerOpPin => "per_op_pin",
            Api::Handle => "handle",
        }
    }
}

fn prepopulate<R: Reclaim>(set: &NmTreeSet<u64, R>, key_range: u64, seed: u64) {
    let target = key_range / 2;
    let mut rng = XorShift64Star::from_stream(seed, u64::MAX);
    let mut inserted = 0;
    while inserted < target {
        if set.insert(1 + rng.next_bounded(key_range)) {
            inserted += 1;
        }
    }
}

#[inline]
fn plain_op<R: Reclaim>(set: &NmTreeSet<u64, R>, op: OpKind, key: u64) -> bool {
    match op {
        OpKind::Search => set.contains(&key),
        OpKind::Insert => set.insert(key),
        OpKind::Delete => set.remove(&key),
    }
}

#[inline]
fn handle_op<R: Reclaim>(h: &mut SetHandle<'_, u64, R>, op: OpKind, key: u64) -> bool {
    match op {
        OpKind::Search => h.contains(&key),
        OpKind::Insert => h.insert(key),
        OpKind::Delete => h.remove(&key),
    }
}

/// Runs `op` on uniform keys and `workload` picks, 64 at a time, until
/// `budget` passes; returns (ops, elapsed).
fn timed(
    budget: Duration,
    rng: &mut XorShift64Star,
    workload: Workload,
    key_range: u64,
    mut op: impl FnMut(OpKind, u64) -> bool,
) -> (u64, Duration) {
    let t0 = Instant::now();
    let mut ops = 0u64;
    while t0.elapsed() < budget {
        for _ in 0..64 {
            let key = 1 + rng.next_bounded(key_range);
            std::hint::black_box(op(workload.pick(rng), key));
            ops += 1;
        }
    }
    (ops, t0.elapsed())
}

/// One single-thread throughput measurement after a short warmup;
/// returns (Mops/s, ops, final metrics snapshot).
fn single_thread_mops(
    api: Api,
    config: TreeConfig,
    workload: Workload,
    key_range: u64,
    secs: f64,
    seed: u64,
) -> (f64, u64, MetricsSnapshot) {
    let set: NmTreeSet<u64, Ebr> = NmTreeSet::with_config(config);
    prepopulate(&set, key_range, seed);
    let mut rng = XorShift64Star::from_stream(seed, 1);
    let mut phase = |secs: f64| {
        let budget = Duration::from_secs_f64(secs);
        match api {
            Api::PerOpPin => timed(budget, &mut rng, workload, key_range, |op, key| {
                plain_op(&set, op, key)
            }),
            Api::Handle => {
                let mut h = set.handle();
                timed(budget, &mut rng, workload, key_range, |op, key| {
                    handle_op(&mut h, op, key)
                })
            }
        }
    };
    phase((secs * 0.2).min(0.2));
    let (ops, elapsed) = phase(secs);
    (ops as f64 / elapsed.as_secs_f64() / 1e6, ops, set.metrics())
}

/// A [`MetricsSnapshot`] as a JSON object, via its canonical `to_json`
/// rendering so the bench file and a live scrape always agree on keys.
fn snapshot_json(m: &MetricsSnapshot) -> Json {
    Json::parse(&m.to_json()).expect("MetricsSnapshot::to_json emits valid JSON")
}

/// Multi-thread contended throughput under a restart policy; returns
/// (Mops/s, ops, full seeks, local restarts) summed over threads.
fn contended_mops(
    restart: RestartPolicy,
    threads: usize,
    key_range: u64,
    secs: f64,
    seed: u64,
) -> (f64, u64, u64, u64) {
    let set: NmTreeSet<u64, Ebr> = NmTreeSet::with_restart_policy(restart);
    prepopulate(&set, key_range, seed);
    let workload = Workload::WRITE_DOMINATED;
    let stop = AtomicBool::new(false);
    let start = Barrier::new(threads + 1);
    let totals = Mutex::new((0u64, 0u64, 0u64)); // ops, seeks, local restarts
    let mut elapsed = Duration::ZERO;

    std::thread::scope(|s| {
        for t in 0..threads {
            let (set, stop, start, totals) = (&set, &stop, &start, &totals);
            s.spawn(move || {
                let mut rng = XorShift64Star::from_stream(seed, t as u64);
                start.wait();
                let (ops, delta) = nmbst::stats::delta(|| {
                    let mut ops = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..32 {
                            let key = 1 + rng.next_bounded(key_range);
                            std::hint::black_box(plain_op(set, workload.pick(&mut rng), key));
                            ops += 1;
                        }
                    }
                    ops
                });
                let mut acc = totals.lock().unwrap();
                acc.0 += ops;
                acc.1 += delta.seeks;
                acc.2 += delta.local_restarts;
            });
        }
        start.wait();
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_secs_f64(secs));
        stop.store(true, Ordering::Relaxed);
        elapsed = t0.elapsed();
    });

    let (ops, seeks, restarts) = *totals.lock().unwrap();
    let mops = ops as f64 / elapsed.as_secs_f64() / 1e6;
    (mops, ops, seeks, restarts)
}

/// Single-thread per-op latency histogram over `ops` mixed operations.
fn latency_hist(api: Api, key_range: u64, ops: u64, seed: u64) -> Histogram {
    let set: NmTreeSet<u64, Ebr> = NmTreeSet::new();
    prepopulate(&set, key_range, seed);
    let rng = XorShift64Star::from_stream(seed, 2);
    match api {
        Api::PerOpPin => time_each(rng, key_range, ops, |op, key| plain_op(&set, op, key)),
        Api::Handle => {
            let mut h = set.handle();
            time_each(rng, key_range, ops, |op, key| handle_op(&mut h, op, key))
        }
    }
}

fn time_each(
    mut rng: XorShift64Star,
    key_range: u64,
    ops: u64,
    mut op: impl FnMut(OpKind, u64) -> bool,
) -> Histogram {
    let mut hist = Histogram::new();
    for _ in 0..ops {
        let key = 1 + rng.next_bounded(key_range);
        let kind = Workload::MIXED.pick(&mut rng);
        let t0 = Instant::now();
        std::hint::black_box(op(kind, key));
        hist.record(t0.elapsed().as_nanos() as u64);
    }
    hist
}

/// Table-1 per-op counts measured through the chosen front end, in
/// [`TABLE1`] order.
fn table1_counts(api: Api) -> [f64; 4] {
    const BASE: u64 = 1_000;
    const OPS: u64 = 500;
    // leaf_cap = 1: the paper's Table-1 costs are stated for one-key
    // leaves; a fat block COWs (1 alloc, 1 CAS) instead of running the
    // classic 2-alloc insert / flag-tag-splice delete being counted.
    let set: NmTreeSet<u64, Leaky> = NmTreeSet::with_config(TreeConfig::default().with_leaf_cap(1));
    let mut h = set.handle();
    let set = &set;
    let mut run = |key: u64, op: OpKind| match api {
        Api::PerOpPin => plain_op(set, op, key),
        Api::Handle => handle_op(&mut h, op, key),
    };
    for k in (0..BASE).map(|i| i * 2 + 1) {
        run(k, OpKind::Insert);
    }
    let ((), ins) = nmbst::stats::delta(|| {
        for k in (1..=OPS).map(|i| i * 2) {
            assert!(run(k, OpKind::Insert), "uncontended insert failed");
        }
    });
    let ((), del) = nmbst::stats::delta(|| {
        for k in (1..=OPS).map(|i| i * 2) {
            assert!(run(k, OpKind::Delete), "uncontended delete failed");
        }
    });
    [ins.allocs, del.allocs, ins.atomics(), del.atomics()].map(|n| n as f64 / OPS as f64)
}

/// Seconds for one balanced bulk build of `1..=n`.
fn bulk_build_secs(n: u64) -> f64 {
    let t0 = Instant::now();
    let bulk: NmTreeSet<u64, Ebr> = NmTreeSet::from_sorted_iter(1..=n);
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(bulk.count(), n as usize, "bulk build lost keys");
    secs
}

/// Seconds for a handle loop-inserting `1..=n` in shuffled order.
///
/// Shuffled, not sorted: sorted loop-insert builds a right spine and
/// degenerates to O(n²), which would make the bulk path look better
/// than it is. Shuffled insert builds a random (expected O(log n)
/// depth) tree — the strongest incremental build the API offers.
fn loop_build_secs(n: u64, seed: u64) -> f64 {
    let mut keys: Vec<u64> = (1..=n).collect();
    let mut rng = XorShift64Star::from_stream(seed, 4);
    for i in (1..keys.len()).rev() {
        let j = rng.next_bounded((i + 1) as u64) as usize;
        keys.swap(i, j);
    }
    let set: NmTreeSet<u64, Ebr> = NmTreeSet::new();
    let t0 = Instant::now();
    let mut h = set.handle();
    for &k in &keys {
        std::hint::black_box(h.insert(k));
    }
    drop(h);
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(set.count(), n as usize, "loop build lost keys");
    secs
}

/// One single-thread sorted-batch throughput measurement: identical
/// Zipf-clustered ascending runs driven through the handle batch entry
/// points (`batched = true`) or the same handle one key at a time.
/// Both sides amortize pinning through the handle, so the delta
/// isolates the finger anchor (plus per-batch dispatch overhead).
/// Returns (Mops/s, ops, final metrics snapshot).
fn sorted_batch_mops(
    batched: bool,
    key_range: u64,
    batch_len: usize,
    secs: f64,
    seed: u64,
) -> (f64, u64, MetricsSnapshot) {
    let set: NmTreeSet<u64, Ebr> = NmTreeSet::new();
    prepopulate(&set, key_range, seed);
    let gen = SortedBatchGen::new(key_range, batch_len, 0.8);
    let workload = Workload::MIXED;
    let mut rng = XorShift64Star::from_stream(seed, 5);
    let mut buf = Vec::with_capacity(batch_len);
    let mut h = set.handle();
    let mut phase = |secs: f64| {
        let budget = Duration::from_secs_f64(secs);
        let t0 = Instant::now();
        let mut ops = 0u64;
        while t0.elapsed() < budget {
            for _ in 0..4 {
                gen.fill(&mut rng, &mut buf);
                let op = workload.pick(&mut rng);
                let keys = buf.iter().copied();
                if !batched {
                    for &key in &buf {
                        std::hint::black_box(handle_op(&mut h, op, key));
                    }
                } else if op == OpKind::Search {
                    std::hint::black_box(h.contains_batch(keys));
                } else if op == OpKind::Insert {
                    std::hint::black_box(h.insert_batch(keys));
                } else {
                    std::hint::black_box(h.remove_batch(keys));
                }
                ops += buf.len() as u64;
            }
        }
        (ops, t0.elapsed())
    };
    phase((secs * 0.2).min(0.2));
    let (ops, elapsed) = phase(secs);
    drop(h);
    (ops as f64 / elapsed.as_secs_f64() / 1e6, ops, set.metrics())
}

fn to_batch_op(op: SessionOp) -> BatchOp {
    match op {
        SessionOp::Get(k) => BatchOp::Get(k),
        SessionOp::Insert(k, v) => BatchOp::Insert(k, v),
        SessionOp::Remove(k) => BatchOp::Remove(k),
    }
}

/// A replay target that ships each coalesced session bundle as one
/// BATCH frame on its own blocking connection — the replay engine's
/// [`SessionOp`]s map 1:1 onto wire [`BatchOp`]s.
struct WireTarget {
    client: Client,
    ops: Vec<BatchOp>,
}

impl SessionTarget for WireTarget {
    fn run(&mut self, ops: &[SessionOp]) -> std::io::Result<()> {
        self.ops.clear();
        self.ops.extend(ops.iter().copied().map(to_batch_op));
        self.client.batch(&self.ops).map(drop)
    }
}

/// The churn replay's per-connection target: one BATCH frame per
/// *session* (not per bundle), shipped pipelined — several frames in
/// flight on the connection, responses drained in order. Dropped and
/// reopened by the replay engine every `sessions_per_conn` sessions.
struct ChurnTarget {
    client: Client,
    per_session: usize,
    reqs: Vec<Request>,
}

impl SessionTarget for ChurnTarget {
    fn run(&mut self, ops: &[SessionOp]) -> std::io::Result<()> {
        self.reqs.clear();
        self.reqs.extend(
            ops.chunks(self.per_session)
                .map(|chunk| Request::Batch(chunk.iter().copied().map(to_batch_op).collect())),
        );
        for resp in self.client.pipeline(&self.reqs)? {
            if let Response::Err(msg) = resp {
                return Err(std::io::Error::other(format!("server error: {msg}")));
            }
        }
        Ok(())
    }
}

/// Everything one replay run produces: the client-side report, the
/// store's metrics, per-worker op counts, the server's BATCH wire-time
/// histogram (the server-side view of the same frames the client's
/// `rtt` histogram timed, when one frame is in flight per client), the
/// merged slow-op records (server frames + tree ops), and the reactor
/// gauges.
struct ServeRun {
    report: ReplayReport,
    snap: MetricsSnapshot,
    worker_ops: Vec<u64>,
    batch_wire: Histogram,
    slow: Vec<SlowOp>,
    /// BATCH ops executed shard-fused through `execute_batch` vs
    /// unrolled one at a time — the fusion cell's attribution pair.
    batch_fused_ops: u64,
    batch_single_ops: u64,
    backpressure_events: u64,
    /// Every reactor noticed every close: `open_connections` reached 0
    /// within 2 s of the last client hanging up.
    drained: bool,
}

/// One fresh-server replay run: bind on loopback, replay, wait for the
/// reactors to see every close, then shut the server down (joining the
/// workers flushes every pinned handle) before snapshotting metrics, so
/// every frame's timing record is certainly published. With
/// `sessions_per_conn > 0` clients redial through [`ChurnTarget`]s;
/// otherwise each client holds one [`WireTarget`] connection.
/// `fuse_batches: false` is the fusion cell's control arm: the server
/// unrolls each BATCH op through the per-shard handles instead of
/// routing it through `execute_batch`.
fn serve_run(cfg: &ReplayConfig, workers: usize, fuse_batches: bool) -> ServeRun {
    let server = Server::start(ServerConfig {
        workers,
        fuse_batches,
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let (store, stats, addr) = (
        Arc::clone(server.store()),
        server.stats_arc(),
        server.addr(),
    );
    let report = if cfg.sessions_per_conn == 0 {
        let targets = (0..cfg.clients).map(|_| WireTarget {
            client: Client::connect(addr).expect("connect to server"),
            ops: Vec::new(),
        });
        run_replay(cfg, targets.collect())
    } else {
        let per_session = cfg.ops_per_session as usize;
        let factories = (0..cfg.clients).map(|_| {
            move || {
                Ok(ChurnTarget {
                    client: Client::connect(addr)?,
                    per_session,
                    reqs: Vec::new(),
                })
            }
        });
        run_replay_churn(cfg, factories.collect())
    };
    // Every client has hung up; a connection still open is a reactor bug.
    let t0 = Instant::now();
    while stats.serve_gauges().open_connections > 0 && t0.elapsed() < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_millis(5));
    }
    let gauges = stats.serve_gauges();
    let worker_ops = stats.worker_ops();
    server.shutdown();
    let snap = store.metrics();
    let mut slow = stats.slow_frames();
    slow.extend_from_slice(&snap.slow_ops);
    slow.sort_by_key(|r| std::cmp::Reverse(r.ns));
    ServeRun {
        report,
        batch_wire: stats.wire_hist(nmbst_server::wire::OP_BATCH),
        snap,
        worker_ops,
        slow,
        batch_fused_ops: stats.batch_fused_ops(),
        batch_single_ops: stats.batch_single_ops(),
        backpressure_events: gauges.backpressure_events,
        drained: gauges.open_connections == 0,
    }
}

/// One pipelining arm: `secs` of the seeded uniform GET stream, either
/// blocking one-at-a-time or pipelined in bursts of 8 windows (the
/// window itself still bounds frames in flight). Returns Mops/s.
fn pipeline_arm_mops(
    addr: std::net::SocketAddr,
    pipelined: bool,
    key_range: u64,
    secs: f64,
    seed: u64,
) -> f64 {
    let mut client = Client::connect(addr).expect("connect to server");
    let mut rng = XorShift64Star::from_stream(seed, 0x919);
    let burst = Client::PIPELINE_WINDOW * 8;
    let mut reqs = Vec::with_capacity(burst);
    let mut ops = 0u64;
    let t0 = Instant::now();
    let deadline = Duration::from_secs_f64(secs);
    while t0.elapsed() < deadline {
        if pipelined {
            reqs.clear();
            reqs.extend((0..burst).map(|_| Request::Get(rng.next_bounded(key_range))));
            let responses = client.pipeline(&reqs).expect("pipelined gets");
            assert_eq!(responses.len(), reqs.len());
            ops += responses.len() as u64;
        } else {
            let key = rng.next_bounded(key_range);
            std::hint::black_box(client.get(&key).expect("blocking get"));
            ops += 1;
        }
    }
    ops as f64 / t0.elapsed().as_secs_f64() / 1e6
}

/// Writes the median paced serving run's slow-op records to
/// `NMBST_SLOWLOG_PATH` (default `SLOWLOG_DUMP.txt`) so a failing CI
/// job can upload the outliers that were live when the gate tripped.
fn dump_slowlog(slow: &[SlowOp]) {
    let path = env_var::<String>("NMBST_SLOWLOG_PATH").unwrap_or("SLOWLOG_DUMP.txt".into());
    let mut out = String::new();
    out.push_str("# slow-op records from the median paced serving run, slowest first\n");
    out.push_str("# origin kind key ns events\n");
    for op in slow {
        let (origin, kind) = match op.origin {
            1 => ("server", nmbst_server::wire::op_name(op.kind)),
            _ => (
                "tree",
                OpClass::from_u8(op.kind).map_or("?", OpClass::label),
            ),
        };
        let events = op.event_names();
        out.push_str(&format!(
            "{origin} {kind} key={} ns={} events={events:?}\n",
            op.key, op.ns
        ));
    }
    match std::fs::write(&path, &out) {
        Ok(()) => eprintln!("wrote {} slow-op records to {path}", slow.len()),
        Err(e) => eprintln!("failed to write slowlog dump to {path}: {e}"),
    }
}

/// What every row reads from the environment, resolved once.
#[derive(Clone, Copy)]
struct Ctx {
    secs: f64,
    seed: u64,
    /// Single-thread key range: the first `NMBST_KEYS` entry.
    key_range: u64,
    /// Sessions per serving replay (`NMBST_SESSIONS`).
    sessions: u64,
}

impl Ctx {
    fn from_env() -> Ctx {
        let cfg = SweepConfig::from_env();
        Ctx {
            secs: cfg.duration.as_secs_f64(),
            seed: cfg.seed,
            key_range: cfg.key_ranges.first().copied().unwrap_or(1_000).max(64),
            sessions: env_var("NMBST_SESSIONS").unwrap_or(1_000_000u64).max(1_000),
        }
    }
}

/// A config field every cell of a row carries after its arm's own.
#[derive(Clone, Copy)]
enum Shared {
    /// Always 1: the rows that share it are single-threaded.
    Threads,
    KeyRange,
    Secs,
    Seed,
    /// The row's repeat count.
    Repeats,
}

impl Shared {
    fn field(self, c: Ctx, repeats: usize) -> (&'static str, Json) {
        match self {
            Shared::Threads => ("threads", Json::Int(1)),
            Shared::KeyRange => ("key_range", c.key_range.into()),
            Shared::Secs => ("secs", c.secs.into()),
            Shared::Seed => ("seed", c.seed.into()),
            Shared::Repeats => ("repeats", repeats.into()),
        }
    }
}

use Repeat::{Median, Pairs};
use Shared::{KeyRange, Repeats, Secs, Seed, Threads};

/// The shared fields of the single-thread tree rows.
const TREE: &[Shared] = &[Threads, KeyRange, Secs, Seed, Repeats];

/// A cell's config or metrics, in order.
type Fields = Vec<(&'static str, Json)>;

/// One run of one arm: the arm's own config fields and metrics (a cell,
/// once the repeat policy picks it) and the named facts gates read.
struct Sample {
    /// Orders an arm's repeats; the median one becomes the cell.
    key: f64,
    config: Fields,
    metrics: Fields,
    facts: Vec<(String, f64)>,
    /// Slow-op records for the dump written when a gate fails.
    slow: Vec<SlowOp>,
}

impl Sample {
    fn new(key: f64, config: Fields, metrics: Fields) -> Self {
        let (facts, slow) = (Vec::new(), Vec::new());
        Sample {
            key,
            config,
            metrics,
            facts,
            slow,
        }
    }

    /// Adds `facts` under `{prefix}.{name}`.
    fn with_facts<'a>(
        mut self,
        prefix: &str,
        facts: impl IntoIterator<Item = (&'a str, f64)>,
    ) -> Sample {
        self.facts
            .extend(facts.into_iter().map(|(k, v)| (format!("{prefix}.{k}"), v)));
        self
    }
}

/// One arm: called once per repeat with the repeat index.
type Arm = Box<dyn FnMut(usize) -> Sample>;

/// Reduces an interleaved pair's runs (`[arm 2i, arm 2i + 1]`) to cells.
type Fold = fn([Vec<Sample>; 2]) -> Vec<Sample>;

/// How a row repeats its arms.
#[derive(Clone, Copy)]
enum Repeat {
    /// Each arm `n` times back to back; the median run is its cell.
    Median(usize),
    /// Arms `2i` and `2i + 1` alternate `n` times, so machine drift
    /// hits both sides of a pair alike.
    Pairs(usize, Fold),
}

fn median(mut runs: Vec<Sample>) -> Sample {
    runs.sort_by(|a, b| a.key.total_cmp(&b.key));
    let mid = runs.len() / 2;
    runs.swap_remove(mid)
}

/// One bench: its arms, how they repeat, and what must hold of them.
struct Row {
    bench: &'static str,
    repeat: Repeat,
    shared: &'static [Shared],
    /// Builds the arms; calibration and shared setup happen here.
    arms: fn(Ctx) -> Vec<Arm>,
    gates: &'static [Gate],
}

impl Row {
    fn repeats(&self) -> usize {
        match self.repeat {
            Median(n) | Pairs(n, _) => n,
        }
    }

    fn run(&self, c: Ctx) -> Vec<Sample> {
        let mut arms = (self.arms)(c);
        match self.repeat {
            Median(n) => arms
                .iter_mut()
                .map(|arm| median((0..n).map(&mut *arm).collect()))
                .collect(),
            Pairs(n, fold) => arms
                .chunks_exact_mut(2)
                .flat_map(|pair| {
                    let mut runs = [Vec::new(), Vec::new()];
                    for i in 0..n {
                        for (arm, out) in pair.iter_mut().zip(&mut runs) {
                            out.push(arm(i));
                        }
                    }
                    fold(runs)
                })
                .collect(),
        }
    }
}

/// Named numbers the rows measured (and the baseline file holds).
#[derive(Default)]
struct Facts(BTreeMap<String, f64>);

impl Facts {
    fn get(&self, key: &str) -> Option<f64> {
        self.0.get(key).copied()
    }

    /// NaN when missing, so every comparison against it fails.
    fn of(&self, key: &str) -> f64 {
        self.get(key).unwrap_or(f64::NAN)
    }
}

/// The environment knob of a bound gate.
#[derive(Clone, Copy)]
struct Knob {
    env: &'static str,
    default: f64,
}

impl Knob {
    fn value(self) -> f64 {
        env_var(self.env).unwrap_or(self.default)
    }
}

const fn knob(env: &'static str, default: f64) -> Knob {
    Knob { env, default }
}

const PERF_TOL: Knob = knob("NMBST_PERF_TOLERANCE", 0.03);
const POOL_TOL: Knob = knob("NMBST_POOL_TOLERANCE", 0.10);
const LEAF_TOL: Knob = knob("NMBST_LEAF_TOLERANCE", 0.05);
const BULK_MIN: Knob = knob("NMBST_BULK_MIN_SPEEDUP", 2.0);
const BATCH_TOL: Knob = knob("NMBST_BATCH_TOLERANCE", 0.05);
const OBS_TOL: Knob = knob("NMBST_OBS_TOLERANCE", 0.03);
const SERVE_TOL: Knob = knob("NMBST_SERVE_TOLERANCE", 0.25);
const AGREE_TOL: Knob = knob("NMBST_AGREE_TOLERANCE", 0.15);
const CHURN_SLACK: Knob = knob("NMBST_CHURN_SLACK", 1.0);
const PIPE_MIN: Knob = knob("NMBST_PIPELINE_MIN_SPEEDUP", 2.0);
const FUSION_TOL: Knob = knob("NMBST_FUSION_TOLERANCE", 0.05);

/// How a bound compares its subject with `reference × factor(knob)`.
#[derive(Clone, Copy, Debug)]
enum Rule {
    /// `subject ≥ reference × (1 − knob)`: a tolerance below a control.
    Floor,
    /// `subject ≤ reference × (1 + knob)`: a slack above a reference.
    Ceiling,
    /// `subject ≥ reference × knob`: a minimum speedup.
    Speedup,
}

impl Rule {
    fn threshold(self, reference: f64, knob: f64) -> f64 {
        match self {
            Rule::Floor => reference * (1.0 - knob),
            Rule::Ceiling => reference * (1.0 + knob),
            Rule::Speedup => reference * knob,
        }
    }

    fn holds(self, subject: f64, threshold: f64) -> bool {
        match self {
            Rule::Ceiling => subject <= threshold,
            Rule::Floor | Rule::Speedup => subject >= threshold,
        }
    }
}

enum Gate {
    /// `Bound(rule, knob, subject, reference)`: the `subject` fact
    /// against the `reference` fact (1.0 when `None`) under `rule`. A
    /// missing `baseline.*` reference skips the gate (no baseline file,
    /// or one from before the cell existed); any other missing fact
    /// fails it.
    Bound(Rule, Knob, &'static str, Option<&'static str>),
    /// `Hard(error, pass)`: a structural predicate over the facts;
    /// `error` says what broke when it fails.
    Hard(&'static str, fn(&Facts) -> bool),
}

impl Gate {
    /// `Some(pass)`, or `None` when skipped, with the verdict's detail.
    fn verdict(&self, f: &Facts) -> (Option<bool>, String) {
        match *self {
            Gate::Hard(error, pass) if pass(f) => (Some(true), format!("ruled out: {error}")),
            Gate::Hard(error, _) => (Some(false), error.to_string()),
            Gate::Bound(rule, knob, subject, reference) => {
                let name = reference.unwrap_or("1");
                let Some(r) = reference.map_or(Some(1.0), |k| f.get(k)) else {
                    let verdict = (!name.starts_with("baseline.")).then_some(false);
                    return (verdict, format!("{subject}: no {name}"));
                };
                let (k, x) = (knob.value(), f.of(subject));
                let t = rule.threshold(r, k);
                let detail = format!(
                    "{subject} {x:.4} vs {t:.4} = {rule:?}({name} {r:.4}, {}={k})",
                    knob.env
                );
                (Some(rule.holds(x, t)), detail)
            }
        }
    }
}

const fn floor(knob: Knob, subject: &'static str, reference: &'static str) -> Gate {
    Gate::Bound(Rule::Floor, knob, subject, Some(reference))
}

const fn ceiling(knob: Knob, subject: &'static str, reference: &'static str) -> Gate {
    Gate::Bound(Rule::Ceiling, knob, subject, Some(reference))
}

const fn speedup(knob: Knob, subject: &'static str) -> Gate {
    Gate::Bound(Rule::Speedup, knob, subject, None)
}

const fn hard(error: &'static str, pass: fn(&Facts) -> bool) -> Gate {
    Gate::Hard(error, pass)
}

fn table1_holds(f: &Facts, api: &str) -> bool {
    TABLE1
        .iter()
        .all(|&(m, paper)| f.of(&format!("table1.{api}.{m}")) == paper)
}

/// Every bench, in run (and file) order, with its gates.
#[rustfmt::skip]
const ROWS: &[Row] = &[
    Row { bench: "single_thread_throughput", repeat: Median(3), shared: TREE, arms: single_arms,
        gates: &[
            floor(PERF_TOL, "single.mixed/per_op_pin.mops", "baseline.mixed/per_op_pin"),
            floor(PERF_TOL, "single.mixed/handle.mops", "baseline.mixed/handle"),
            floor(PERF_TOL, "single.read/per_op_pin.mops", "baseline.read/per_op_pin"),
            floor(PERF_TOL, "single.read/handle.mops", "baseline.read/handle"),
            hard("the baseline file is unreadable or does not parse",
                |f| f.get("baseline.unreadable").is_none()),
        ] },
    Row { bench: "contended_throughput", repeat: Median(1), shared: &[Secs, Seed],
        arms: contended_arms, gates: &[] },
    Row { bench: "latency", repeat: Median(1), shared: &[Seed], arms: latency_arms, gates: &[] },
    Row { bench: "table1_exact", repeat: Median(1), shared: &[], arms: table1_arms,
        gates: &[
            hard("plain-API Table-1 counts differ from the paper's",
                |f| table1_holds(f, "per_op_pin")),
            hard("handle Table-1 counts differ from the paper's", |f| table1_holds(f, "handle")),
        ] },
    Row { bench: "pool_ablation", repeat: Median(3), shared: TREE, arms: pool_arms,
        gates: &[
            floor(POOL_TOL, "pool.write/on.mops", "pool.write/off.mops"),
            hard("the mixed pool-on cell recorded zero pool hits",
                |f| f.of("pool.mixed/on.pool_hits") > 0.0),
            hard("a pool-on cell abandoned reclaimed slots", |f| {
                f.of("pool.write/on.pool_dropped") == 0.0 && f.of("pool.mixed/on.pool_dropped") == 0.0
            }),
        ] },
    Row { bench: "leaf_ablation", repeat: Median(3), shared: TREE, arms: leaf_arms,
        gates: &[
            floor(LEAF_TOL, "leaf.read/fat.mops", "leaf.read/thin.mops"),
            hard("the leaf_cap=1 tree is not deeper than the fat one",
                |f| f.of("leaf.read/thin.max_depth") > f.of("leaf.read/fat.max_depth")),
        ] },
    Row { bench: "bulk_load", repeat: Pairs(3, fold_bulk), shared: &[Seed, Repeats],
        arms: bulk_arms, gates: &[speedup(BULK_MIN, "bulk.speedup")] },
    Row { bench: "sorted_batch", repeat: Median(3), shared: TREE, arms: sorted_batch_arms,
        gates: &[
            floor(BATCH_TOL, "batch.batched.mops", "batch.singles.mops"),
            hard("the batched cell recorded zero finger hits",
                |f| f.of("batch.batched.finger_hits") > 0.0),
        ] },
    Row { bench: "obs_overhead", repeat: Pairs(5, fold_obs), shared: TREE, arms: obs_arms,
        gates: &[
            hard("the mixed on/off ratio is not finite and positive",
                |f| f.of("obs.mixed.ratio").is_finite() && f.of("obs.mixed.ratio") > 0.0),
            Gate::Bound(Rule::Floor, OBS_TOL, "obs.mixed.ratio", None),
            hard("a recording-on cell captured zero latency samples", |f| {
                f.of("obs.mixed/on.lat_samples") > 0.0 && f.of("obs.read/on.lat_samples") > 0.0
            }),
        ] },
    Row { bench: "serving_replay", repeat: Median(3), shared: &[Seed, Repeats], arms: serving_arms,
        gates: &[
            hard("a serving worker routed zero ops", |f| f.of("serve.min_worker_ops") > 0.0),
            floor(SERVE_TOL, "serve.max_mops", "baseline.serve.max_mops"),
            hard("client and server timed different frame counts",
                |f| f.of("serve.client_frames") == f.of("serve.server_frames")),
            ceiling(AGREE_TOL, "serve.server_p99", "serve.client_p99"),
            hard("client p99 is over 100x server p99 (unit mismatch?)",
                |f| f.of("serve.client_p99") <= f.of("serve.server_p99") * AGREE_FACTOR),
        ] },
    Row { bench: "serving_churn", repeat: Median(3), shared: &[Seed, Repeats], arms: churn_arms,
        gates: &[
            hard("a churn worker routed zero ops", |f| f.of("churn.min_worker_ops") > 0.0),
            hard("the churn fleet is under 8x the workers",
                |f| f.of("churn.clients") >= 8.0 * f.of("churn.workers")),
            hard("no more connections opened than clients: no churn",
                |f| f.of("churn.conns") > f.of("churn.clients")),
            hard("connections stuck open after the clients hung up",
                |f| f.of("churn.drained") == 1.0),
            ceiling(CHURN_SLACK, "churn.elapsed_secs", "churn.schedule_secs"),
        ] },
    Row { bench: "pipelining", repeat: Pairs(3, fold_pipelining), shared: &[Secs, Seed, Repeats],
        arms: pipelining_arms, gates: &[speedup(PIPE_MIN, "pipe.speedup")] },
    Row { bench: "serving_batch_fusion", repeat: Pairs(3, fold_fusion), shared: &[Seed, Repeats],
        arms: fusion_arms,
        gates: &[
            floor(FUSION_TOL, "fusion.fused_mops", "fusion.unfused_mops"),
            hard("the fused servers recorded zero finger hits",
                |f| f.of("fusion.finger_hits") > 0.0),
            hard("the fused arm ran zero ops through execute_batch",
                |f| f.of("fusion.fused_ops") > 0.0),
            hard("the unrolled control arm ran zero unrolled ops",
                |f| f.of("fusion.single_ops") > 0.0),
        ] },
];

/// A workload's fact name: the first word of its label (`mixed`, …).
fn short(name: &str) -> &str {
    name.split([' ', '-']).next().unwrap_or(name)
}

/// A tree throughput run as a sample keyed on Mops/s, with the tree's
/// metrics in the cell and its gated counters as `{name}.*` facts.
fn tree_sample(
    name: &str,
    config: Fields,
    (mops, ops, snap): (f64, u64, MetricsSnapshot),
) -> Sample {
    let metrics = fields! { mops: mops, ops: ops, obs: snapshot_json(&snap) };
    Sample::new(mops, config, metrics).with_facts(
        name,
        facts! {
            mops: mops, pool_hits: snap.pool.hits, pool_dropped: snap.pool.dropped,
            max_depth: snap.max_depth,
            finger_hits: snap.finger_hits, lat_samples: snap.latency.len(),
        },
    )
}

fn single_arms(c: Ctx) -> Vec<Arm> {
    let side = |api: Api| (api.label(), api, vec![], TreeConfig::default());
    let sides = [side(Api::PerOpPin), side(Api::Handle)];
    tree_arms(c, "single", &Workload::FIGURE4, sides)
}

/// Conflict-dense on purpose: local restarts only pay off when CAS
/// failures happen, so many writers share a small key range.
fn contended_arms(c: Ctx) -> Vec<Arm> {
    let threads = std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .clamp(4, 8);
    let range = 128u64;
    let arm = move |restart, label: &'static str| -> Arm {
        Box::new(move |_| {
            let (mops, ops, seeks, restarts) =
                contended_mops(restart, threads, range, c.secs, c.seed);
            let config = fields! {
                workload: Workload::WRITE_DOMINATED.name, restart: label,
                threads: threads, key_range: range,
            };
            let metrics = fields! { mops: mops, ops: ops, seeks: seeks, local_restarts: restarts };
            Sample::new(mops, config, metrics)
        })
    };
    vec![
        arm(RestartPolicy::Root, "root"),
        arm(RestartPolicy::Local, "local"),
    ]
}

fn latency_arms(c: Ctx) -> Vec<Arm> {
    let ops = ((c.secs * 200_000.0) as u64).clamp(10_000, 2_000_000);
    let arm = move |api: Api| -> Arm {
        Box::new(move |_| {
            let h = latency_hist(api, c.key_range, ops, c.seed);
            let config = fields! {
                workload: Workload::MIXED.name, api: api.label(),
                threads: Json::Int(1), key_range: c.key_range, ops: ops,
            };
            let metrics = fields! {
                p50_ns: h.percentile(50.0), p99_ns: h.percentile(99.0),
                p999_ns: h.percentile(99.9), mean_ns: h.mean(), max_ns: h.max(),
            };
            Sample::new(0.0, config, metrics)
        })
    };
    vec![arm(Api::PerOpPin), arm(Api::Handle)]
}

fn table1_arms(_: Ctx) -> Vec<Arm> {
    let arm = |api: Api| -> Arm {
        Box::new(move |_| {
            let counts: Vec<(&str, f64)> =
                TABLE1.iter().map(|m| m.0).zip(table1_counts(api)).collect();
            let ok = counts.iter().zip(TABLE1).all(|(got, want)| got.1 == want.1);
            let mut metrics: Vec<_> = counts.iter().map(|&(m, v)| (m, v.into())).collect();
            metrics.push(("ok", ok.into()));
            let config = fields! { api: api.label(), tag_mode: format!("{:?}", TagMode::FetchOr) };
            Sample::new(0.0, config, metrics).with_facts(&format!("table1.{}", api.label()), counts)
        })
    };
    vec![arm(Api::PerOpPin), arm(Api::Handle)]
}

/// One side of a tree A/B: its fact label, its front end, its config
/// fields after `workload` and `api`, and the tree config under test.
type Side = (&'static str, Api, Fields, TreeConfig);

/// Single-thread arms over `workloads` × `sides`, side by side per
/// workload; `name` prefixes the facts.
fn tree_arms(c: Ctx, name: &'static str, workloads: &[Workload], sides: [Side; 2]) -> Vec<Arm> {
    let mut arms: Vec<Arm> = Vec::new();
    for &w in workloads {
        for (label, api, fields, config) in sides.clone() {
            arms.push(Box::new(move |_| {
                let mut cfg = fields! { workload: w.name, api: api.label() };
                cfg.extend(fields.iter().cloned());
                let run = single_thread_mops(api, config, w, c.key_range, c.secs, c.seed);
                tree_sample(&format!("{name}.{}/{label}", short(w.name)), cfg, run)
            }));
        }
    }
    arms
}

/// The pool A/B: pool-on reuses grace-period-expired nodes instead of
/// round-tripping the allocator.
fn pool_arms(c: Ctx) -> Vec<Arm> {
    let side = |label: &'static str, pool: PoolConfig| -> Side {
        let fields = fields! { pool: label };
        (
            label,
            Api::Handle,
            fields,
            TreeConfig::default().with_pool(pool),
        )
    };
    let sides = [
        side("off", PoolConfig::disabled()),
        side("on", PoolConfig::default()),
    ];
    tree_arms(
        c,
        "pool",
        &[Workload::WRITE_DOMINATED, Workload::MIXED],
        sides,
    )
}

/// The leaf A/B: `leaf_cap = 1` reproduces the one-key-per-leaf shape
/// on the same arena, so the delta isolates the fat-leaf blocks.
fn leaf_arms(c: Ctx) -> Vec<Arm> {
    let side = |label: &'static str, cap: usize| -> Side {
        let fields = fields! { leaf_cap: cap as u64 };
        (
            label,
            Api::Handle,
            fields,
            TreeConfig::default().with_leaf_cap(cap),
        )
    };
    let sides = [side("thin", 1), side("fat", nmbst::LEAF_CAP)];
    tree_arms(
        c,
        "leaf",
        &[Workload::READ_DOMINATED, Workload::MIXED],
        sides,
    )
}

/// The latency-recording A/B: default sampled recording vs disabled.
fn obs_arms(c: Ctx) -> Vec<Arm> {
    let shift = u64::from(LatencyConfig::default().sample_shift);
    let side = |label: &'static str, lat: LatencyConfig| -> Side {
        let fields = fields! { recording: label, sample_shift: shift };
        (
            label,
            Api::Handle,
            fields,
            TreeConfig::default().with_latency(lat),
        )
    };
    let sides = [
        side("off", LatencyConfig::disabled()),
        side("on", LatencyConfig::default()),
    ];
    tree_arms(
        c,
        "obs",
        &[Workload::MIXED, Workload::READ_DOMINATED],
        sides,
    )
}

/// Gated on the median of the per-pair on/off ratios, not on medians
/// of the arms: interference slows single runs by up to ~20% while the
/// true cost is ~1%, so pairing an afflicted run of one arm with a
/// clean run of the other manufactures a phantom cost.
fn fold_obs(runs: [Vec<Sample>; 2]) -> Vec<Sample> {
    let pairs = runs[1].iter().zip(&runs[0]);
    let mut ratios: Vec<f64> = pairs.map(|(on, off)| on.key / off.key).collect();
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[ratios.len() / 2];
    runs.map(|arm| {
        let mut s = median(arm);
        let lat = s.facts.iter().find(|f| f.0.ends_with(".lat_samples"));
        let lat_samples = lat.map_or(0, |f| f.1 as u64);
        s.metrics.insert(2, ("lat_samples", lat_samples.into()));
        s.metrics.insert(3, ("pair_ratio_median", ratio.into()));
        let workload = short(s.config[0].1.as_str().unwrap_or_default());
        s.facts.push((format!("obs.{workload}.ratio"), ratio));
        s
    })
    .into()
}

fn bulk_arms(c: Ctx) -> Vec<Arm> {
    let config =
        || fields! { keys: BULK_KEYS, loop_order: "shuffled", loop_api: Api::Handle.label() };
    vec![
        Box::new(move |_| Sample::new(bulk_build_secs(BULK_KEYS), config(), vec![])),
        Box::new(move |_| Sample::new(loop_build_secs(BULK_KEYS, c.seed), config(), vec![])),
    ]
}

fn fold_bulk(runs: [Vec<Sample>; 2]) -> Vec<Sample> {
    let [bulk, lp] = runs.map(median);
    let (bulk_secs, loop_secs) = (bulk.key, lp.key);
    let speedup = loop_secs / bulk_secs;
    let metrics = fields! {
        bulk_secs: bulk_secs, loop_secs: loop_secs, speedup: speedup,
        bulk_mkeys_per_sec: BULK_KEYS as f64 / bulk_secs / 1e6,
    };
    vec![Sample::new(0.0, bulk.config, metrics).with_facts("bulk", facts! { speedup: speedup })]
}

/// Identical clustered ascending runs through the batch entry points
/// vs one key at a time on the same handle.
fn sorted_batch_arms(c: Ctx) -> Vec<Arm> {
    let arm = move |batched, label: &'static str| -> Arm {
        Box::new(move |_| {
            let cfg = fields! { workload: Workload::MIXED.name, api: label, batch_len: BATCH_LEN };
            let run = sorted_batch_mops(batched, c.key_range, BATCH_LEN, c.secs, c.seed);
            tree_sample(&format!("batch.{label}"), cfg, run)
        })
    };
    vec![arm(false, "singles"), arm(true, "batched")]
}

/// Calibrates peak capacity at drain rate over the *full* session count
/// (the store grows over the run, so a short calibration overestimates
/// the sustainable rate); returns `cfg` paced at [`SERVE_UTIL`] of it,
/// the peak's sessions/s and Mops/s, and the cell config fields.
fn paced(cfg: ReplayConfig, workers: usize) -> (ReplayConfig, f64, f64, Fields) {
    let drain = ReplayConfig {
        arrival_rate: f64::INFINITY,
        ..cfg.clone()
    };
    let calib = serve_run(&drain, workers, true).report;
    let (rate, mops) = (calib.sessions_per_sec(), calib.mops());
    println!(
        "  peak {rate:.0} sessions/s, {mops:.3} Mops/s, {} conns",
        calib.conns
    );
    let cfg = ReplayConfig {
        arrival_rate: rate * SERVE_UTIL,
        ..cfg
    };
    let mut config = replay_fields(&cfg, workers);
    if cfg.sessions_per_conn > 0 {
        config.extend(fields! { sessions_per_conn: cfg.sessions_per_conn });
    }
    config.extend(fields! {
        key_range: cfg.key_range, zipf_theta: cfg.zipf_theta,
        util: SERVE_UTIL, arrival_rate: cfg.arrival_rate,
    });
    (cfg, rate, mops, config)
}

/// The replay's session-shape config fields, shared by the serving cells.
fn replay_fields(cfg: &ReplayConfig, workers: usize) -> Fields {
    fields! {
        workload: cfg.workload.name, sessions: cfg.sessions,
        ops_per_session: u64::from(cfg.ops_per_session), workers: workers, clients: cfg.clients,
    }
}

/// The metrics and facts every paced serving cell reports; `name`
/// prefixes the facts. Keyed on p999, so the median run is the median
/// tail.
fn paced_sample(
    name: &str,
    run: &ServeRun,
    config: &[(&'static str, Json)],
    peak: (f64, f64),
) -> Sample {
    let r = &run.report;
    let metrics = fields! {
        max_mops: peak.1, max_sessions_per_sec: peak.0,
        mops: r.mops(), sessions_per_sec: r.sessions_per_sec(), ops: r.ops,
        p50_ns: r.percentile_ns(50.0), p99_ns: r.percentile_ns(99.0),
        p999_ns: r.percentile_ns(99.9),
        worker_ops: Json::Arr(run.worker_ops.iter().map(|&o| o.into()).collect()),
        obs: snapshot_json(&run.snap),
    };
    let min_worker_ops = run.worker_ops.iter().copied().min().unwrap_or(0);
    let key = r.percentile_ns(99.9) as f64;
    Sample::new(key, config.to_vec(), metrics)
        .with_facts(name, facts! { min_worker_ops: min_worker_ops })
}

/// Open-loop session replay against the server over loopback.
fn serving_arms(c: Ctx) -> Vec<Arm> {
    let workers = 2;
    let cfg = ReplayConfig {
        sessions: c.sessions,
        clients: workers,
        seed: c.seed,
        ..ReplayConfig::default()
    };
    let (cfg, rate, max_mops, config) = paced(cfg, workers);
    vec![Box::new(move |_| {
        let mut run = serve_run(&cfg, workers, true);
        let (rtt, wire) = (&run.report.rtt, &run.batch_wire);
        let mut s = paced_sample("serve", &run, &config, (rate, max_mops)).with_facts(
            "serve",
            facts! {
                max_mops: max_mops, client_frames: rtt.len(), server_frames: wire.len(),
                client_p99: rtt.percentile(99.0), server_p99: wire.percentile(99.0),
            },
        );
        s.metrics.extend(fields! {
            client_rtt_p50_ns: rtt.percentile(50.0), client_rtt_p99_ns: rtt.percentile(99.0),
            server_wire_p50_ns: wire.percentile(50.0), server_wire_p99_ns: wire.percentile(99.0),
            frames: wire.len(), slow_records: run.slow.len(), batch_fused_ops: run.batch_fused_ops,
        });
        s.slow = std::mem::take(&mut run.slow);
        s
    })]
}

/// Every client redials every 32 sessions and ships pipelined
/// per-session BATCH frames: 16 concurrent connections over 2 workers.
fn churn_arms(c: Ctx) -> Vec<Arm> {
    let workers = 2;
    let cfg = ReplayConfig {
        sessions: (c.sessions / 4).max(1_000),
        clients: workers * 8,
        sessions_per_conn: 32,
        seed: c.seed,
        ..ReplayConfig::default()
    };
    let (cfg, rate, max_mops, config) = paced(cfg, workers);
    let schedule_secs = cfg.sessions as f64 / cfg.arrival_rate;
    vec![Box::new(move |_| {
        let run = serve_run(&cfg, workers, true);
        let r = &run.report;
        let mut s = paced_sample("churn", &run, &config, (rate, max_mops)).with_facts(
            "churn",
            facts! {
                clients: cfg.clients, workers: workers, conns: r.conns,
                drained: u8::from(run.drained), elapsed_secs: r.elapsed.as_secs_f64(),
                schedule_secs: schedule_secs,
            },
        );
        s.metrics.extend(fields! {
            conns: r.conns, backpressure_events: run.backpressure_events,
            drained: u64::from(run.drained),
        });
        s
    })]
}

/// One client, the same seeded uniform GET stream, blocking vs
/// pipelined, against one long-lived server with every other key
/// preloaded (so GETs split hit/miss).
fn pipelining_arms(c: Ctx) -> Vec<Arm> {
    let range = c.key_range.min(1 << 18);
    let server = Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect to server");
    let keys: Vec<u64> = (0..range).step_by(2).collect();
    for chunk in keys.chunks(1024) {
        let ops: Vec<BatchOp> = chunk.iter().map(|&k| BatchOp::Insert(k, k)).collect();
        client.batch(&ops).expect("preload batch");
    }
    let arm = move |addr, pipelined, rep: usize| {
        let mops = pipeline_arm_mops(addr, pipelined, range, c.secs, c.seed ^ rep as u64);
        let config = fields! {
            workload: "uniform_get", window: Client::PIPELINE_WINDOW,
            threads: Json::Int(1), workers: Json::Int(2), key_range: range,
        };
        Sample::new(mops, config, vec![])
    };
    // The blocking arm owns the server, which shuts down with the arms.
    vec![
        Box::new(move |rep| arm(server.addr(), false, rep)),
        Box::new(move |rep| arm(addr, true, rep)),
    ]
}

fn fold_pipelining(runs: [Vec<Sample>; 2]) -> Vec<Sample> {
    let [serial, pipelined] = runs.map(median);
    let speedup = pipelined.key / serial.key;
    let metrics =
        fields! { serial_mops: serial.key, pipelined_mops: pipelined.key, speedup: speedup };
    vec![Sample::new(0.0, serial.config, metrics).with_facts("pipe", facts! { speedup: speedup })]
}

/// Drain-rate replays against fresh servers that differ in
/// `fuse_batches`, in the frame shape fusion targets: high-occupancy
/// BATCH frames over a key range dense enough that sorted per-shard
/// runs land on adjacent leaves. (The default replay shape leaves the
/// tree so small a slice of loopback time that the A/B would measure
/// syscall jitter.)
fn fusion_arms(c: Ctx) -> Vec<Arm> {
    let workers = 2;
    let cfg = ReplayConfig {
        sessions: (c.sessions / 4).max(1_000),
        clients: workers,
        arrival_rate: f64::INFINITY,
        key_range: 1 << 14,
        coalesce: 256,
        coalesce_ops: FUSION_OPS,
        seed: c.seed,
        ..ReplayConfig::default()
    };
    let mut config = replay_fields(&cfg, workers);
    config.extend(fields! {
        coalesce_ops: FUSION_OPS as u64, key_range: cfg.key_range, zipf_theta: cfg.zipf_theta,
    });
    let arm = |fused| -> Arm {
        let (cfg, config) = (cfg.clone(), config.clone());
        Box::new(move |_| {
            let run = serve_run(&cfg, workers, fused);
            let counts = facts! {
                finger_hits: run.snap.finger_hits, finger_misses: run.snap.finger_misses,
                fused_ops: run.batch_fused_ops, single_ops: run.batch_single_ops,
            };
            Sample::new(run.report.mops(), config.clone(), vec![]).with_facts("run", counts)
        })
    };
    vec![arm(false), arm(true)]
}

/// Medians of each arm's Mops/s; the fused arm's finger and op counts
/// (and the control's unrolled ops) summed over every run.
fn fold_fusion(runs: [Vec<Sample>; 2]) -> Vec<Sample> {
    let total = |arm: &[Sample], key: &str| -> u64 {
        let facts = arm.iter().flat_map(|s| &s.facts);
        facts
            .filter(|f| f.0 == format!("run.{key}"))
            .map(|f| f.1 as u64)
            .sum()
    };
    let [hits, misses, fused_ops] =
        ["finger_hits", "finger_misses", "fused_ops"].map(|k| total(&runs[1], k));
    let single_ops = total(&runs[0], "single_ops");
    let [unfused, fused] = runs.map(median);
    let metrics = fields! {
        unfused_mops: unfused.key, fused_mops: fused.key, speedup: fused.key / unfused.key,
        fused_finger_hits: hits, fused_finger_misses: misses,
        batch_fused_ops: fused_ops, batch_single_ops: single_ops,
    };
    let facts = facts! {
        fused_mops: fused.key, unfused_mops: unfused.key, finger_hits: hits,
        fused_ops: fused_ops, single_ops: single_ops,
    };
    vec![Sample::new(0.0, unfused.config, metrics).with_facts("fusion", facts)]
}

/// The baseline file's gated figures, read and parsed once: each
/// `single_thread_throughput` cell's `mops` and the first
/// `serving_replay` cell's `max_mops`. With `NMBST_BASELINE_JSON` unset
/// there are none, so every baseline bound skips; an unreadable or
/// unparsable file sets `baseline.unreadable`, which a hard gate fails.
fn read_baseline() -> Facts {
    let mut facts = Facts::default();
    let Some(path) = env_var::<String>("NMBST_BASELINE_JSON") else {
        return facts;
    };
    let parsed = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text));
    let baseline = match parsed {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: cannot read baseline {path}: {e}");
            facts.0.insert("baseline.unreadable".into(), 1.0);
            return facts;
        }
    };
    for c in baseline
        .get("cells")
        .and_then(Json::as_arr)
        .unwrap_or_default()
    {
        let num = |key| at(c, "metrics", key).and_then(Json::as_f64);
        let text = |key| at(c, "config", key).and_then(Json::as_str);
        let fact = match c.get("bench").and_then(Json::as_str) {
            Some("serving_replay") => num("max_mops").map(|v| ("serve.max_mops".to_string(), v)),
            Some("single_thread_throughput") => text("workload")
                .zip(text("api"))
                .zip(num("mops"))
                .map(|((w, api), v)| (format!("{}/{api}", short(w)), v)),
            _ => None,
        };
        if let Some((k, v)) = fact {
            facts.0.entry(format!("baseline.{k}")).or_insert(v);
        }
    }
    facts
}

fn at<'a>(cell: &'a Json, section: &str, key: &str) -> Option<&'a Json> {
    cell.get(section)?.get(key)
}

/// An arm's console line: its own config values, then its scalar metrics.
fn describe(s: &Sample) -> String {
    let plain = |v: &Json| v.as_str().map_or_else(|| v.render(), str::to_string);
    let mut line: Vec<String> = s.config.iter().map(|(_, v)| plain(v)).collect();
    for (k, v) in &s.metrics {
        match v {
            Json::Num(n) => line.push(format!("{k}={n:.3}")),
            Json::Int(_) | Json::Bool(_) => line.push(format!("{k}={}", plain(v))),
            _ => {}
        }
    }
    line.join(" ")
}

fn main() {
    // Every knob must parse before anything is measured.
    for gate in ROWS.iter().flat_map(|row| row.gates) {
        if let Gate::Bound(_, knob, ..) = gate {
            knob.value();
        }
    }
    let ctx = Ctx::from_env();
    let out_path = env_var::<String>(criterion::BENCH_JSON_ENV).unwrap_or("BENCH_PR10.json".into());
    let mut facts = read_baseline();
    let (mut cells, mut slow) = (Vec::new(), Vec::new());
    for row in ROWS {
        println!("== {} ==", row.bench);
        for s in row.run(ctx) {
            println!("  {}", describe(&s));
            let mut config = s.config;
            config.extend(row.shared.iter().map(|f| f.field(ctx, row.repeats())));
            cells.push(json::cell(
                row.bench,
                Json::obj(config),
                Json::obj(s.metrics),
            ));
            facts.0.extend(s.facts);
            slow.extend(s.slow);
        }
    }
    let path = std::path::Path::new(&out_path);
    json::write_bench_file(path, &cells).expect("write bench json");
    println!("wrote {} cells to {}", cells.len(), path.display());

    println!("== gates ==");
    let mut failed = 0;
    for row in ROWS {
        for gate in row.gates {
            let (pass, detail) = gate.verdict(&facts);
            let label = match pass {
                Some(true) => "ok",
                Some(false) => "FAIL",
                None => "skip",
            };
            println!("  [{label}] {}: {detail}", row.bench);
            failed += usize::from(pass == Some(false));
        }
    }
    if failed > 0 {
        eprintln!("error: {failed} gate(s) failed");
        dump_slowlog(&slow);
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gates() -> impl Iterator<Item = &'static Gate> {
        ROWS.iter().flat_map(|row| row.gates)
    }

    fn facts(pairs: &[(&str, f64)]) -> Facts {
        Facts(pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect())
    }

    #[test]
    fn knobs_are_eleven_unique_names_with_their_defaults() {
        let mut knobs: Vec<(&str, f64)> = gates()
            .filter_map(|g| match g {
                Gate::Bound(_, knob, ..) => Some((knob.env, knob.default)),
                Gate::Hard(..) => None,
            })
            .collect();
        knobs.sort_by(|a, b| a.0.cmp(b.0));
        knobs.dedup();
        let mut names: Vec<&str> = knobs.iter().map(|k| k.0).collect();
        names.dedup();
        assert_eq!(
            names.len(),
            knobs.len(),
            "a name with two defaults: {knobs:?}"
        );
        assert!(names.iter().all(|n| n.starts_with("NMBST_")), "{names:?}");
        let expected = [
            ("NMBST_AGREE_TOLERANCE", 0.15),
            ("NMBST_BATCH_TOLERANCE", 0.05),
            ("NMBST_BULK_MIN_SPEEDUP", 2.0),
            ("NMBST_CHURN_SLACK", 1.0),
            ("NMBST_FUSION_TOLERANCE", 0.05),
            ("NMBST_LEAF_TOLERANCE", 0.05),
            ("NMBST_OBS_TOLERANCE", 0.03),
            ("NMBST_PERF_TOLERANCE", 0.03),
            ("NMBST_PIPELINE_MIN_SPEEDUP", 2.0),
            ("NMBST_POOL_TOLERANCE", 0.10),
            ("NMBST_SERVE_TOLERANCE", 0.25),
        ];
        assert_eq!(knobs, expected);
        let bounds = gates().filter(|g| matches!(g, Gate::Bound(..))).count();
        assert_eq!(
            bounds, 14,
            "four baseline floors and one bound per other knob"
        );
    }

    #[test]
    fn bounds_pass_at_their_bound_and_fail_just_past_it() {
        for gate in gates() {
            let &Gate::Bound(rule, knob, subject, reference) = gate else {
                continue;
            };
            let base: Vec<(&str, f64)> = reference.map(|r| (r, 2.0)).into_iter().collect();
            let at = rule.threshold(if reference.is_some() { 2.0 } else { 1.0 }, knob.value());
            let past = match rule {
                Rule::Ceiling => at.next_up(),
                Rule::Floor | Rule::Speedup => at.next_down(),
            };
            let with = |x: f64| facts(&[base.as_slice(), &[(subject, x)]].concat());
            assert_eq!(gate.verdict(&with(at)).0, Some(true), "{subject} at {at}");
            assert_eq!(
                gate.verdict(&with(past)).0,
                Some(false),
                "{subject} at {past}"
            );
            assert_eq!(
                gate.verdict(&facts(&base)).0,
                Some(false),
                "{subject} missing"
            );
            if let Some(reference) = reference {
                let skips = reference.starts_with("baseline.");
                let unreferenced = gate.verdict(&facts(&[(subject, at)])).0;
                assert_eq!(
                    unreferenced,
                    (!skips).then_some(false),
                    "{subject} unreferenced"
                );
            }
        }
    }

    /// Facts on which every hard predicate holds.
    const HEALTHY: &[(&str, f64)] = &[
        ("table1.per_op_pin.insert_allocs", 2.0),
        ("table1.per_op_pin.delete_allocs", 0.0),
        ("table1.per_op_pin.insert_atomics", 1.0),
        ("table1.per_op_pin.delete_atomics", 3.0),
        ("table1.handle.insert_allocs", 2.0),
        ("table1.handle.delete_allocs", 0.0),
        ("table1.handle.insert_atomics", 1.0),
        ("table1.handle.delete_atomics", 3.0),
        ("pool.mixed/on.pool_hits", 1.0),
        ("pool.write/on.pool_dropped", 0.0),
        ("pool.mixed/on.pool_dropped", 0.0),
        ("leaf.read/thin.max_depth", 21.0),
        ("leaf.read/fat.max_depth", 13.0),
        ("batch.batched.finger_hits", 1.0),
        ("obs.mixed.ratio", 1.0),
        ("obs.mixed/on.lat_samples", 1.0),
        ("obs.read/on.lat_samples", 1.0),
        ("serve.min_worker_ops", 1.0),
        ("serve.client_frames", 10.0),
        ("serve.server_frames", 10.0),
        ("serve.client_p99", 100.0),
        ("serve.server_p99", 1.0),
        ("churn.min_worker_ops", 1.0),
        ("churn.clients", 16.0),
        ("churn.workers", 2.0),
        ("churn.conns", 17.0),
        ("churn.drained", 1.0),
        ("fusion.finger_hits", 1.0),
        ("fusion.fused_ops", 1.0),
        ("fusion.single_ops", 1.0),
    ];

    /// A phrase of each hard predicate's error, with a change to
    /// [`HEALTHY`] that must trip it.
    const TRIPS: &[(&str, (&str, f64))] = &[
        ("baseline file", ("baseline.unreadable", 1.0)),
        (
            "plain-API Table-1",
            ("table1.per_op_pin.insert_allocs", 3.0),
        ),
        (
            "plain-API Table-1",
            ("table1.per_op_pin.delete_allocs", 1.0),
        ),
        (
            "plain-API Table-1",
            ("table1.per_op_pin.insert_atomics", 2.0),
        ),
        (
            "plain-API Table-1",
            ("table1.per_op_pin.delete_atomics", 2.0),
        ),
        ("handle Table-1", ("table1.handle.insert_allocs", 1.0)),
        ("handle Table-1", ("table1.handle.delete_atomics", 4.0)),
        ("zero pool hits", ("pool.mixed/on.pool_hits", 0.0)),
        ("abandoned reclaimed", ("pool.write/on.pool_dropped", 1.0)),
        ("not deeper", ("leaf.read/thin.max_depth", 13.0)),
        (
            "batched cell recorded zero finger hits",
            ("batch.batched.finger_hits", 0.0),
        ),
        ("not finite and positive", ("obs.mixed.ratio", 0.0)),
        ("not finite and positive", ("obs.mixed.ratio", f64::NAN)),
        (
            "not finite and positive",
            ("obs.mixed.ratio", f64::INFINITY),
        ),
        ("zero latency samples", ("obs.mixed/on.lat_samples", 0.0)),
        ("zero latency samples", ("obs.read/on.lat_samples", 0.0)),
        ("serving worker", ("serve.min_worker_ops", 0.0)),
        ("frame counts", ("serve.server_frames", 9.0)),
        ("unit mismatch", ("serve.client_p99", 100.5)),
        ("churn worker", ("churn.min_worker_ops", 0.0)),
        ("under 8x", ("churn.clients", 15.0)),
        ("no churn", ("churn.conns", 16.0)),
        ("stuck open", ("churn.drained", 0.0)),
        ("fused servers", ("fusion.finger_hits", 0.0)),
        ("execute_batch", ("fusion.fused_ops", 0.0)),
        ("control arm", ("fusion.single_ops", 0.0)),
    ];

    #[test]
    fn hard_predicates_hold_when_healthy_and_fail_on_their_trips() {
        let hard: Vec<(&str, &Gate)> = gates()
            .filter_map(|g| match g {
                Gate::Hard(error, _) => Some((*error, g)),
                Gate::Bound(..) => None,
            })
            .collect();
        for (error, gate) in &hard {
            assert_eq!(gate.verdict(&facts(HEALTHY)).0, Some(true), "{error}");
            assert!(
                TRIPS.iter().any(|t| error.contains(t.0)),
                "no trip for {error:?}"
            );
        }
        for &(phrase, (key, value)) in TRIPS {
            let matches: Vec<_> = hard.iter().filter(|(e, _)| e.contains(phrase)).collect();
            assert_eq!(matches.len(), 1, "{phrase:?} must name one hard gate");
            let mut tripped = facts(HEALTHY);
            tripped.0.insert(key.to_string(), value);
            let verdict = matches[0].1.verdict(&tripped).0;
            assert_eq!(verdict, Some(false), "{phrase} with {key}={value}");
        }
    }

    #[test]
    fn knob_values_with_a_percent_sign_are_rejected() {
        let parse = |raw| nmbst_bench::parse_var::<f64>(POOL_TOL.env, Some(raw));
        assert!(parse("25%").is_err());
        assert_eq!(parse("0.25"), Ok(Some(0.25)));
    }
}
