//! Per-layer measurements from outside the program: diffs of the
//! server's and store's own counters around a phase, and offline
//! re-runs of recorded frames through the `wire`, `engine` and `shard`
//! layers' public entry points.

use crate::gen::LOAD_FRAME_OPS;
use nmbst::obs::{Histogram, MetricsSnapshot};
use nmbst::{BatchCmd, BatchScratch, BatchVerdict, TreeConfig};
use nmbst_server::testing::with_local_engine;
use nmbst_server::wire::{self, BatchOp, Request, Response, OP_BATCH};
use nmbst_server::{PhaseHists, Server, Store};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Store shards: the server's default, one per reactor worker.
const SHARDS: usize = crate::WORKERS;
/// Passes over the recorded frames when re-timing the stateless wire
/// codec; the median pass is reported.
const WIRE_PASSES: usize = 5;

/// The server-side counters one phase is diffed over.
pub struct ServerSnap {
    frames: u64,
    fused_ops: u64,
    timing: Vec<(&'static str, PhaseHists)>,
    backpressure: u64,
    pub store: MetricsSnapshot,
}

pub fn server_snap(server: &Server) -> ServerSnap {
    let st = server.stats();
    ServerSnap {
        frames: st.frames(),
        fused_ops: st.batch_fused_ops(),
        timing: st.request_timing(),
        backpressure: st.serve_gauges().backpressure_events,
        store: server.metrics(),
    }
}

/// What the server and store did between two snapshots.
pub struct ServerDelta {
    pub frames: u64,
    pub fused_ops: u64,
    pub backpressure: u64,
    pub wire_p50_ns: f64,
    pub wire_p99_ns: f64,
    pub decode_ns_per_frame: f64,
    pub encode_ns_per_frame: f64,
    pub finger_hits: u64,
    pub finger_misses: u64,
    pub helps: u64,
    pub depth_sum: u64,
    pub descents: u64,
    pub max_depth: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
}

impl ServerSnap {
    /// The phase histograms of the request opcodes a workload sends.
    fn hists(&self, point: bool) -> PhaseHists {
        let mut h = PhaseHists::default();
        for (name, p) in &self.timing {
            let wanted = if point {
                matches!(*name, "get" | "insert" | "remove")
            } else {
                *name == "batch"
            };
            if wanted {
                h.wire.merge(&p.wire);
                h.decode.merge(&p.decode);
                h.encode.merge(&p.encode);
            }
        }
        h
    }

    pub fn delta(&self, after: &ServerSnap, point: bool) -> ServerDelta {
        let (b, a) = (self.hists(point), after.hists(point));
        let (bs, s) = (&self.store, &after.store);
        ServerDelta {
            frames: after.frames - self.frames,
            fused_ops: after.fused_ops - self.fused_ops,
            backpressure: after.backpressure - self.backpressure,
            wire_p50_ns: percentile_between(&b.wire, &a.wire, 50.0),
            wire_p99_ns: percentile_between(&b.wire, &a.wire, 99.0),
            decode_ns_per_frame: mean_between(&b.decode, &a.decode),
            encode_ns_per_frame: mean_between(&b.encode, &a.encode),
            finger_hits: s.finger_hits - bs.finger_hits,
            finger_misses: s.finger_misses - bs.finger_misses,
            helps: s.helps - bs.helps,
            depth_sum: s.depth_sum - bs.depth_sum,
            descents: s.depth_hist.iter().sum::<u64>() - bs.depth_hist.iter().sum::<u64>(),
            max_depth: s.max_depth,
            pool_hits: s.pool.hits - bs.pool.hits,
            pool_misses: s.pool.misses - bs.pool.misses,
        }
    }
}

fn mean_between(before: &Histogram, after: &Histogram) -> f64 {
    let n = after.len() - before.len();
    ratio((after.sum() - before.sum()) as f64, n as f64)
}

/// Percentile of the values recorded between two snapshots of one
/// histogram. The public view of a histogram is its power-of-two bucket
/// counts, so the value is interpolated linearly inside its bucket.
fn percentile_between(before: &Histogram, after: &Histogram, p: f64) -> f64 {
    let (b, a) = (before.bucket_counts(), after.bucket_counts());
    let d: Vec<u64> = a.iter().zip(b.iter()).map(|(a, b)| a - b).collect();
    let total: u64 = d.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((p / 100.0) * total as f64).ceil().max(1.0);
    let mut seen = 0.0;
    for (i, &c) in d.iter().enumerate() {
        if c > 0 && seen + c as f64 >= rank {
            let lo = (1u64 << i) as f64;
            return lo + lo * (rank - seen) / c as f64;
        }
        seen += c as f64;
    }
    after.max() as f64
}

/// `a / b`, 0 when `b` is 0 (a layer the workload does not reach).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The load phase as BATCH request bodies.
pub fn encode_load(load: &[Vec<BatchOp>]) -> Vec<Vec<u8>> {
    load.iter()
        .map(|ops| {
            let mut body = Vec::with_capacity(5 + 17 * LOAD_FRAME_OPS);
            Request::Batch(ops.clone()).encode(&mut body);
            body
        })
        .collect()
}

/// Re-times the wire codec on the recorded bytes: decoding each request
/// the way the server does (`decode_batch_ops` for BATCH frames,
/// `Request::decode` otherwise) and encoding each recorded reply into a
/// length-prefixed frame (`begin_frame`, `Response::encode`,
/// `end_frame`). Returns (decode, encode) ns per frame.
pub fn retime_wire(requests: &[&[u8]], replies: &[&[u8]]) -> (f64, f64) {
    let n = requests.len() as f64;
    let mut scratch: Vec<BatchOp> = Vec::new();
    let decode = median_pass(|| {
        for body in requests {
            if body.first() == Some(&OP_BATCH) {
                scratch.clear();
                let _ = black_box(wire::decode_batch_ops(body, |op| scratch.push(op)));
            } else {
                let _ = black_box(Request::decode(body));
            }
        }
    });
    let resps: Vec<Response> = requests
        .iter()
        .zip(replies)
        .filter_map(|(q, r)| Response::decode(q[0], r).ok())
        .collect();
    let mut out = Vec::new();
    let encode = median_pass(|| {
        for r in &resps {
            out.clear();
            let mark = wire::begin_frame(&mut out);
            r.encode(&mut out);
            black_box(wire::end_frame(&mut out, mark));
        }
    });
    (
        decode.as_nanos() as f64 / n,
        encode.as_nanos() as f64 / resps.len().max(1) as f64,
    )
}

fn median_pass(mut f: impl FnMut()) -> Duration {
    let mut t: Vec<Duration> = (0..WIRE_PASSES)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    t.sort();
    t[WIRE_PASSES / 2]
}

/// Serves the load frames and then the recorded request frames through
/// `LocalEngine::serve`, the reactor's per-frame path without sockets.
/// Returns the time of the recorded frames and whether every frame was
/// well formed.
pub fn engine_replay(load: &[Vec<u8>], requests: &[&[u8]]) -> (Duration, bool) {
    with_local_engine(SHARDS, true, |eng| {
        let mut out = Vec::new();
        for body in load {
            out.clear();
            eng.serve(body, &mut out);
        }
        let mut ok = true;
        let t0 = Instant::now();
        for body in requests {
            out.clear();
            ok &= eng.serve(body, &mut out);
        }
        (t0.elapsed(), ok)
    })
}

/// Runs the decoded load frames and then the decoded recorded frames
/// through one `ShardedMapHandle` on a fresh store: `execute_batch` for
/// BATCH frames, the handle's point op for single-op frames (the call
/// the server makes for each). Returns the time of the recorded frames.
pub fn shard_replay(load: &[Vec<BatchOp>], requests: &[&[u8]]) -> Duration {
    let cmd = |op: BatchOp| match op {
        BatchOp::Get(k) => BatchCmd::Get(k),
        BatchOp::Insert(k, v) => BatchCmd::Insert(k, v),
        BatchOp::Remove(k) => BatchCmd::Remove(k),
    };
    let frames: Vec<Vec<BatchCmd<u64, u64>>> = requests
        .iter()
        .map(|body| match Request::decode(body) {
            Ok(Request::Batch(ops)) => ops.into_iter().map(cmd).collect(),
            Ok(Request::Get(k)) => vec![BatchCmd::Get(k)],
            Ok(Request::Insert(k, v)) => vec![BatchCmd::Insert(k, v)],
            Ok(Request::Remove(k)) => vec![BatchCmd::Remove(k)],
            _ => Vec::new(),
        })
        .collect();
    let batched = requests.first().is_some_and(|b| b[0] == OP_BATCH);
    let store = Store::with_config(SHARDS, TreeConfig::default());
    let mut h = store.handle();
    let mut scratch = BatchScratch::new();
    let mut out: Vec<BatchVerdict<u64>> = Vec::new();
    for ops in load {
        let cmds: Vec<_> = ops.iter().map(|&op| cmd(op)).collect();
        h.execute_batch(&cmds, &mut scratch, &mut out);
    }
    let t0 = Instant::now();
    for cmds in &frames {
        if batched {
            h.execute_batch(cmds, &mut scratch, &mut out);
            black_box(&out);
        } else {
            for c in cmds {
                match c {
                    BatchCmd::Get(k) => black_box(h.get(k).is_some()),
                    BatchCmd::Insert(k, v) => black_box(h.insert(*k, *v)),
                    BatchCmd::Remove(k) => black_box(h.remove(k)),
                };
            }
        }
    }
    t0.elapsed()
}
