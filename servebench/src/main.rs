//! servebench — the serving benchmark for `nmbst-server`.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload <point_pipelined|batch_zipf|batch_write> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Starts an in-process `Server` (2 reactor workers), loads it over
//! loopback, then drives it from 2 client threads on 2 connections: a
//! closed-loop saturation phase and an open-loop latency phase at the
//! workload's fixed offered rate. Every reply is checked. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` reports the per-layer
//! breakdown and writes the recorded spans to
//! `servebench/traces/<workload>.tsv`. The last stdout line is one JSON
//! object; a human-readable table goes to stderr. README.md has the
//! workloads, the layer predictions and the metric definitions.

mod client;
mod gen;
mod layers;
mod procfs;

use client::{Conn, PhaseOut, Tracer, SPAN_NAMES, S_THREAD};
use gen::{Model, Workload, CLIENTS};
use layers::ratio;
use nmbst_server::wire::BatchReply;
use nmbst_server::{Client, Server, ServerConfig};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Reactor workers, one per core of the 2-core target box.
const WORKERS: usize = 2;
/// An untraced run repeats server start + load at least this many
/// times, and until `SETUP_MIN_TIME` has passed, on fresh servers;
/// `setup_s` is the median. The time floor steadies the millisecond
/// set-up of the small `batch_zipf` store.
const SETUP_REPEATS: usize = 5;
const SETUP_MIN_TIME: Duration = Duration::from_millis(500);
/// Most set-up repetitions per run.
const SETUP_MAX_REPEATS: usize = 200;
/// Throughput sampling window of the saturation phase; `ops_per_s` is
/// the median window.
const RATE_WINDOW: Duration = Duration::from_millis(250);
/// Ops per client the traced phase records at most, in whole frames
/// (bounds the span and frame buffers, the trace file and the offline
/// replays): 32 768 point frames, 2 048 frames of 256 ops.
const TRACE_MAX_OPS: u64 = 1 << 19;
/// ... and never more than this many frames.
const TRACE_MAX_FRAMES: u64 = 32_768;
/// Hard limit on one run, set-up and checks included.
const WATCHDOG: Duration = Duration::from_secs(170);
/// The traced per-frame parts (client spans + engine + residual) must
/// cover the client's per-frame time to within this share. The gaps
/// between spans hold the loop's bookkeeping and any preemption of the
/// client between two spans by the worker that shares its CPU: ≈7% per
/// frame on `point_pipelined`, under 3% on the batch workloads.
const TRACE_TOLERANCE: f64 = 0.10;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::by_name(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} out of range (0, 60]"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A phase command for the client threads.
#[derive(Clone, Copy)]
enum Cmd {
    Closed {
        end: Instant,
        max_frames: u64,
        trace: bool,
    },
    Open {
        start: Instant,
        end: Instant,
    },
}

/// The client threads plus the channels that drive them phase by phase.
struct Fleet<'a> {
    cmds: Vec<mpsc::Sender<Cmd>>,
    results: mpsc::Receiver<(usize, PhaseOut)>,
    done_ops: &'a AtomicU64,
}

impl Fleet<'_> {
    fn start(&self, cmd: Cmd) {
        for tx in &self.cmds {
            // A dead client thread surfaces as a missing result below.
            let _ = tx.send(cmd);
        }
    }

    fn collect(&self) -> Result<Vec<PhaseOut>, String> {
        let mut outs: Vec<PhaseOut> = (0..CLIENTS).map(|_| PhaseOut::default()).collect();
        for _ in 0..CLIENTS {
            let (i, out) = self
                .results
                .recv()
                .map_err(|_| "a client thread died".to_string())?;
            outs[i] = out;
        }
        Ok(outs)
    }
}

fn client_thread(
    idx: usize,
    mut conn: Conn,
    cmds: mpsc::Receiver<Cmd>,
    results: mpsc::Sender<(usize, PhaseOut)>,
    done_ops: &AtomicU64,
    base: Instant,
) -> Model {
    client::tight_timer_slack();
    let w = conn.workload();
    let interval = Duration::from_secs_f64(w.frame_ops as f64 * CLIENTS as f64 / w.rate_ops);
    for cmd in cmds {
        let out = match cmd {
            Cmd::Closed {
                end,
                max_frames,
                trace,
            } => {
                let frames = max_frames.min(TRACE_MAX_FRAMES) as usize;
                let mut tr = Tracer::new(base, trace, frames, 5 + 17 * w.frame_ops);
                let mut out = conn.closed_loop(end, max_frames, done_ops, &mut tr);
                out.tracer = trace.then_some(tr);
                out
            }
            Cmd::Open { start, end } => {
                // Offset the clients' schedules so arrivals interleave.
                let start = start + interval * idx as u32 / CLIENTS as u32;
                conn.open_loop(start, end, interval)
            }
        };
        if results.send((idx, out)).is_err() {
            break;
        }
    }
    conn.model
}

/// Loads the server the way a bulk-loading client would: one
/// connection, one `LOAD_FRAME_OPS`-op insert BATCH at a time. Returns
/// the ops whose reply was not `Added(true)`.
fn load(server: &Server, frames: &[Vec<nmbst_server::wire::BatchOp>]) -> Result<u64, String> {
    let mut c = Client::connect(server.addr()).map_err(|e| format!("load connect: {e}"))?;
    let mut failed = 0;
    for ops in frames {
        let replies = c.batch(ops).map_err(|e| format!("load: {e}"))?;
        failed += replies
            .iter()
            .filter(|r| **r != BatchReply::Added(true))
            .count() as u64;
    }
    Ok(failed)
}

/// Pins reactor worker `w` to CPU `w mod cpus`, the thread-per-core
/// placement the server is built for; each client thread is later
/// pinned next to the worker that serves its connection. Left to the
/// scheduler, the four busy threads on two CPUs settle into placements
/// whose throughput differs by up to 2x from run to run (both workers on
/// one CPU halves `batch_write`).
fn pin_workers() -> Result<(), String> {
    let cpus = cpus();
    // A spawned thread names itself once it runs, so wait for all of
    // them to show up under their names.
    let t0 = Instant::now();
    loop {
        let workers = procfs::threads(procfs::SERVER_PREFIX);
        if workers.len() == WORKERS {
            for (tid, name) in workers {
                let w: usize = name[procfs::SERVER_PREFIX.len()..]
                    .parse()
                    .map_err(|_| format!("unexpected worker thread name {name:?}"))?;
                if !client::pin(tid, w % cpus) {
                    return Err(format!("cannot pin {name}"));
                }
            }
            return Ok(());
        }
        if t0.elapsed() > Duration::from_secs(5) {
            return Err("the server's worker threads did not start".into());
        }
        std::thread::yield_now();
    }
}

fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        0.0
    } else {
        v[v.len() / 2]
    }
}

/// Nearest-rank percentile of an ascending slice.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One named metric with its unit.
struct Metric(&'static str, f64, &'static str);

/// A finished run: its verdict and what its phases reported.
struct Report {
    attempted: u64,
    failed: u64,
    correct: bool,
    res: Results,
}

/// What a run's phases report, filled in as they go.
#[derive(Default)]
struct Results {
    tally: Tally,
    metrics: Vec<Metric>,
    /// Printed in the table but left out of the JSON line, which carries
    /// exactly the metrics `BENCHMARK.json` gates (README.md, "Why
    /// latency is reported but not gated").
    ungated: Vec<Metric>,
    notes: Vec<String>,
}

/// Totals over the phases of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    mismatches: u64,
    io_errors: Vec<String>,
}

impl Tally {
    fn add(&mut self, outs: &[PhaseOut]) {
        for o in outs {
            self.attempted += o.attempted;
            self.failed += o.failed;
            self.mismatches += o.mismatches;
            if let Some(e) = &o.io_error {
                self.io_errors.push(e.clone());
            }
        }
    }
}

/// Saturation-phase measurements.
struct Saturation {
    outs: Vec<PhaseOut>,
    ops: u64,
    wall: Duration,
    window_rates: Vec<f64>,
    cpu: [procfs::Times; 3],
    server: layers::ServerDelta,
    backlog: Vec<f64>,
    epoch_lag: Vec<f64>,
}

fn saturate(
    server: &Server,
    fleet: &Fleet,
    w: &Workload,
    dur: Duration,
    sample_store: bool,
) -> Result<Saturation, String> {
    let cpu0 = procfs::snapshot();
    let snap0 = layers::server_snap(server);
    let t0 = Instant::now();
    let end = t0 + dur;
    let ops0 = fleet.done_ops.load(Ordering::Relaxed);
    fleet.start(Cmd::Closed {
        end,
        max_frames: u64::MAX,
        trace: false,
    });
    let (mut window_rates, mut backlog, mut epoch_lag) = (Vec::new(), Vec::new(), Vec::new());
    let (mut t, mut last) = (t0, ops0);
    while t + RATE_WINDOW <= end {
        std::thread::sleep((t + RATE_WINDOW).saturating_duration_since(Instant::now()));
        let now = Instant::now();
        let n = fleet.done_ops.load(Ordering::Relaxed);
        window_rates.push((n - last) as f64 / (now - t).as_secs_f64());
        (t, last) = (now, n);
        if sample_store {
            let m = server.metrics();
            backlog.push(m.reclaim.retired_backlog as f64);
            epoch_lag.push(m.reclaim.epoch_lag as f64);
        }
    }
    let outs = fleet.collect()?;
    let wall = t0.elapsed();
    let cpu1 = procfs::snapshot();
    let snap1 = layers::server_snap(server);
    let cpu = [
        procfs::delta(&cpu0, &cpu1, ""),
        procfs::delta(&cpu0, &cpu1, procfs::CLIENT_PREFIX),
        procfs::delta(&cpu0, &cpu1, procfs::SERVER_PREFIX),
    ];
    Ok(Saturation {
        ops: outs.iter().map(|o| o.ops).sum(),
        outs,
        wall,
        window_rates,
        cpu,
        server: snap0.delta(&snap1, w.frame_ops == 1),
        backlog,
        epoch_lag,
    })
}

/// What the open-loop phase measured.
struct OpenLoop {
    outs: Vec<PhaseOut>,
    /// Frame latencies from scheduled send to reply, ns, ascending.
    lat: Vec<u64>,
    /// How late each frame left against its schedule, ns, ascending.
    late: Vec<u64>,
}

/// Open-loop phase: returns the outs and the merged, sorted latency and
/// lateness samples.
///
/// While it runs, one SCHED_IDLE spinner per CPU keeps the vCPUs out of
/// halt. Waking a halted vCPU goes through the hypervisor and costs up
/// to milliseconds on a shared KVM host; in an open loop at this rate
/// every frame pays several wake-ups, so without the spinners the tail
/// measures the host's wake-up latency, not the server. A SCHED_IDLE
/// thread runs only when its CPU has nothing else runnable and yields
/// the moment anything wakes, so it takes no time from the server or
/// the clients.
fn latency_phase(fleet: &Fleet, dur: Duration) -> Result<OpenLoop, String> {
    let start = Instant::now() + Duration::from_millis(5);
    let stop = AtomicBool::new(false);
    let cpus = cpus();
    let mut outs = std::thread::scope(|s| {
        for cpu in 0..cpus {
            let stop = &stop;
            let spawned = std::thread::Builder::new()
                .name(format!("bench-idle-{cpu}"))
                .spawn_scoped(s, move || {
                    if client::pin(0, cpu) && client::sched_idle() {
                        while !stop.load(Ordering::Relaxed) {
                            std::hint::spin_loop();
                        }
                    }
                });
            if spawned.is_err() {
                break; // run without spinners rather than not at all
            }
        }
        fleet.start(Cmd::Open {
            start,
            end: start + dur,
        });
        let outs = fleet.collect();
        stop.store(true, Ordering::Relaxed);
        outs
    })?;
    let mut lat: Vec<u64> = Vec::new();
    let mut late: Vec<u64> = Vec::new();
    for o in outs.iter_mut() {
        lat.append(&mut o.latency_ns);
        late.append(&mut o.late_ns);
    }
    lat.sort_unstable();
    late.sort_unstable();
    Ok(OpenLoop { outs, lat, late })
}

fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let base = Instant::now();
    let load_frames = gen::load_frames(w, args.seed);
    let mut res = Results::default();

    // Set-up: server start + load, repeated on fresh servers.
    let mut setup = Vec::new();
    let mut server: Option<Server> = None;
    let t_setup = Instant::now();
    while setup.is_empty()
        || !args.trace
            && setup.len() < SETUP_MAX_REPEATS
            && (setup.len() < SETUP_REPEATS || t_setup.elapsed() < SETUP_MIN_TIME)
    {
        if let Some(old) = server.take() {
            old.shutdown();
        }
        // Timed: server start and load; not timed: pinning the workers,
        // which is the benchmark's own placement step.
        let t0 = Instant::now();
        let s = Server::start(server_config()).map_err(|e| format!("server start: {e}"))?;
        let started = t0.elapsed();
        pin_workers()?;
        let t1 = Instant::now();
        let bad = load(&s, &load_frames)?;
        setup.push((started + t1.elapsed()).as_secs_f64());
        res.tally.attempted += load_frames.iter().map(|f| f.len() as u64).sum::<u64>();
        res.tally.failed += bad;
        res.tally.mismatches += bad;
        server = Some(s);
    }
    let server = server.expect("at least one set-up");

    // Connect the clients one at a time and note which reactor took
    // each connection (the server hands connections out round-robin),
    // so each client can run on its worker's CPU.
    let open = || -> Vec<u64> {
        server
            .stats()
            .worker_serve()
            .iter()
            .map(|g| g.open_connections)
            .collect()
    };
    let settled = |want: u64| -> Result<Vec<u64>, String> {
        let t0 = Instant::now();
        loop {
            let o = open();
            if o.iter().sum::<u64>() == want {
                return Ok(o);
            }
            if t0.elapsed() > Duration::from_secs(5) {
                return Err("the server did not register a connection".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    let mut conns = Vec::new();
    let mut cpu_of = Vec::new();
    let cpus = cpus();
    let mut before = settled(0)?;
    for i in 0..CLIENTS {
        conns.push(
            Conn::connect(server.addr(), w, args.seed, i)
                .map_err(|e| format!("client connect: {e}"))?,
        );
        let after = settled(i as u64 + 1)?;
        let worker = (0..after.len())
            .find(|&k| after[k] > before[k])
            .unwrap_or(0);
        cpu_of.push(worker % cpus);
        before = after;
    }
    let done_ops = &AtomicU64::new(0);
    let (res_tx, res_rx) = mpsc::channel();

    let models = std::thread::scope(|s| -> Result<Vec<Model>, String> {
        let mut cmds = Vec::new();
        let mut handles = Vec::new();
        for (i, conn) in conns.into_iter().enumerate() {
            let cpu = cpu_of[i];
            let (tx, rx) = mpsc::channel();
            cmds.push(tx);
            let res_tx = res_tx.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("{}{i}", procfs::CLIENT_PREFIX))
                    .spawn_scoped(s, move || {
                        if !client::pin(0, cpu) {
                            eprintln!("servebench: cannot pin bench-client-{i}");
                        }
                        client_thread(i, conn, rx, res_tx, done_ops, base)
                    })
                    .map_err(|e| format!("spawn: {e}"))?,
            );
        }
        // Only the client threads hold result senders, so a dead fleet
        // ends `collect` instead of hanging it.
        drop(res_tx);
        let fleet = Fleet {
            cmds,
            results: res_rx,
            done_ops,
        };
        let result = phases(args, &server, &fleet, &load_frames, setup.clone(), &mut res);
        drop(fleet);
        let models = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        result.map(|()| models)
    })?;

    // Final state: the store must hold exactly the union of the models.
    let mut want: Vec<(u64, u64)> = models.iter().flat_map(|m| m.entries()).collect();
    want.sort_unstable();
    let got = server.store().range_collect(..);
    let diverged = count_divergence(&want, &got);
    if diverged > 0 {
        res.notes.push(format!(
            "final store diverges from the models at {diverged} keys"
        ));
    }
    server.shutdown();

    for e in &res.tally.io_errors {
        res.notes.push(format!("client I/O error: {e}"));
    }
    if res.tally.mismatches > 0 {
        res.notes
            .push(format!("{} wrong replies", res.tally.mismatches));
    }
    let failed = res.tally.failed + diverged;
    Ok(Report {
        attempted: res.tally.attempted.max(1),
        failed,
        correct: failed == 0 && res.tally.io_errors.is_empty(),
        res,
    })
}

/// Keys present in one list and not the other, or present in both with
/// different values (both lists ascending).
fn count_divergence(want: &[(u64, u64)], got: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut bad) = (0, 0, 0u64);
    while i < want.len() || j < got.len() {
        match (want.get(i), got.get(j)) {
            (Some(a), Some(b)) if a.0 == b.0 => {
                bad += u64::from(a.1 != b.1);
                i += 1;
                j += 1;
            }
            (Some(a), Some(b)) if a.0 < b.0 => {
                bad += 1;
                i += 1;
            }
            (Some(_), None) => {
                bad += 1;
                i += 1;
            }
            _ => {
                bad += 1;
                j += 1;
            }
        }
    }
    bad
}

fn phases(
    args: &Args,
    server: &Server,
    fleet: &Fleet,
    load_frames: &[Vec<nmbst_server::wire::BatchOp>],
    mut setup: Vec<f64>,
    res: &mut Results,
) -> Result<(), String> {
    let w = args.workload;
    let secs = |share: f64| Duration::from_secs_f64(args.seconds * share);

    // Warm-up: caches, pools and the arena reach steady state.
    fleet.start(Cmd::Closed {
        end: Instant::now() + secs(0.1),
        max_frames: u64::MAX,
        trace: false,
    });
    res.tally.add(&fleet.collect()?);

    if !args.trace {
        let sat = saturate(server, fleet, w, secs(0.5), false)?;
        res.tally.add(&sat.outs);
        let OpenLoop { outs, lat, .. } = latency_phase(fleet, secs(0.4))?;
        res.tally.add(&outs);
        let ops_per_s = median(&mut sat.window_rates.clone());
        res.metrics.push(Metric("ops_per_s", ops_per_s, "ops/s"));
        res.metrics.push(Metric(
            "cpu_ns_per_op",
            ratio(sat.cpu[0].cpu_ns as f64, sat.ops as f64),
            "ns",
        ));
        res.metrics.push(Metric("setup_s", median(&mut setup), "s"));
        res.metrics
            .push(Metric("rss_peak_mb", procfs::rss_peak_mib(), "MiB"));
        res.ungated
            .push(Metric("p50_us", percentile(&lat, 50.0) as f64 / 1e3, "us"));
        res.ungated
            .push(Metric("p99_us", percentile(&lat, 99.0) as f64 / 1e3, "us"));
        res.notes.push(format!(
            "{} latency samples ({} beyond p99); {} saturation windows",
            lat.len(),
            lat.len() / 100,
            sat.window_rates.len()
        ));
        return Ok(());
    }

    // Traced run. First the untraced saturation phase: the in-place
    // counters (procfs, server stats, store metrics) need no tracing.
    let sat = saturate(server, fleet, w, secs(0.3), true)?;
    res.tally.add(&sat.outs);
    let untraced_rate = sat.ops as f64 / sat.wall.as_secs_f64();
    let d = &sat.server;
    let [_, cl, sv] = sat.cpu;
    let ops = sat.ops as f64;
    let sframes = d.frames as f64;

    // Then the traced closed loop: client spans + recorded frames.
    fleet.start(Cmd::Closed {
        end: Instant::now() + secs(0.3),
        max_frames: (TRACE_MAX_OPS / w.frame_ops as u64).min(TRACE_MAX_FRAMES),
        trace: true,
    });
    let mut traced = fleet.collect()?;
    res.tally.add(&traced);
    let tracers: Vec<Tracer> = traced.iter_mut().filter_map(|o| o.tracer.take()).collect();
    let t_frames: u64 = traced.iter().map(|o| o.frames).sum();
    let mut sums = [0f64; SPAN_NAMES.len()];
    let mut traced_rate = 0.0;
    for (tr, o) in tracers.iter().zip(&traced) {
        for s in &tr.spans {
            sums[s.name as usize] += (s.end - s.start) as f64;
        }
        let root = &tr.spans[0];
        debug_assert_eq!(root.name, S_THREAD);
        traced_rate += o.ops as f64 / ((root.end - root.start) as f64 / 1e9);
    }
    let per_frame = |i: usize| ratio(sums[i], t_frames as f64);
    let rtt = per_frame(0);
    let (encode, send, wait, decode) = (per_frame(1), per_frame(2), per_frame(3), per_frame(4));
    let bench = per_frame(5) + per_frame(6);

    // Interleave the two clients' recorded frames, as the server saw them.
    let (mut requests, mut replies): (Vec<&[u8]>, Vec<&[u8]>) = (Vec::new(), Vec::new());
    let longest = tracers.iter().map(|t| t.requests.len()).max().unwrap_or(0);
    for i in 0..longest {
        for tr in &tracers {
            if let (Some(q), Some(r)) = (tr.requests.get(i), tr.replies.get(i)) {
                requests.push(q);
                replies.push(r);
            }
        }
    }
    let rec_ops = requests
        .iter()
        .map(|q| nmbst_server::wire::Request::decode(q).map_or(0, |r| client::op_count(&r)))
        .sum::<u64>() as f64;
    let rec_frames = requests.len() as f64;
    let (wire_dec, wire_enc) = layers::retime_wire(&requests, &replies);
    let (engine_t, engine_ok) = layers::engine_replay(&layers::encode_load(load_frames), &requests);
    if !engine_ok {
        res.notes
            .push("the in-process engine rejected a recorded frame".into());
    }
    let shard_t = layers::shard_replay(load_frames, &requests);
    let engine_frame = engine_t.as_nanos() as f64 / rec_frames.max(1.0);
    let residual = wait - engine_frame;
    let parts = encode + send + decode + bench + engine_frame + residual;
    let unattributed = ratio(rtt - parts, rtt);
    if unattributed.abs() > TRACE_TOLERANCE {
        res.notes.push(format!(
            "traced parts cover {:.1}% of the client's per-frame time (tolerance ±{:.0}%)",
            100.0 * (1.0 - unattributed),
            100.0 * TRACE_TOLERANCE
        ));
    }

    // Last, the open-loop phase: latencies and the generator's lateness.
    let OpenLoop { outs, lat, late } = latency_phase(fleet, secs(0.3))?;
    res.tally.add(&outs);

    let spans_path = write_spans(w.name, &tracers).map_err(|e| format!("writing spans: {e}"))?;
    res.notes.push(format!("spans written to {spans_path}"));

    let wall_ns = sat.wall.as_nanos() as f64;
    let wire_bytes: u64 = sat.outs.iter().map(|o| o.req_bytes + o.reply_bytes).sum();
    let mut m = |n, v, u| res.metrics.push(Metric(n, v, u));
    m("client.cpu_ns_per_op", ratio(cl.cpu_ns as f64, ops), "ns");
    m("client.runq_ns_per_op", ratio(cl.runq_ns as f64, ops), "ns");
    m("client.rtt_ns_per_frame", rtt, "ns");
    m("client.encode_ns_per_frame", encode, "ns");
    m("client.send_ns_per_frame", send, "ns");
    m("client.wait_ns_per_frame", wait, "ns");
    m("client.decode_ns_per_frame", decode, "ns");
    m("bench.check_ns_per_frame", per_frame(5), "ns");
    m("bench.generate_ns_per_frame", per_frame(6), "ns");
    m(
        "replay.late_p99_us",
        percentile(&late, 99.0) as f64 / 1e3,
        "us",
    );
    m("replay.p50_us", percentile(&lat, 50.0) as f64 / 1e3, "us");
    m("replay.p99_us", percentile(&lat, 99.0) as f64 / 1e3, "us");
    m("replay.samples", lat.len() as f64, "count");
    m(
        "server.cpu_ns_per_frame",
        ratio(sv.cpu_ns as f64, sframes),
        "ns",
    );
    m(
        "server.runq_ns_per_frame",
        ratio(sv.runq_ns as f64, sframes),
        "ns",
    );
    m(
        "server.busy_frac",
        ratio(sv.cpu_ns as f64, wall_ns * WORKERS as f64),
        "ratio",
    );
    m(
        "server.ctxsw_per_frame",
        ratio(sv.vol_ctxsw as f64, sframes),
        "count",
    );
    m(
        "server.reactor_ns_per_frame",
        ratio(sv.cpu_ns as f64, sframes) - engine_frame,
        "ns",
    );
    m("server.wire_p50_us", d.wire_p50_ns / 1e3, "us");
    m("server.wire_p99_us", d.wire_p99_ns / 1e3, "us");
    m("server.backpressure_events", d.backpressure as f64, "count");
    m("wire.decode_ns_per_frame", d.decode_ns_per_frame, "ns");
    m("wire.encode_ns_per_frame", d.encode_ns_per_frame, "ns");
    m("wire.decode_retimed_ns_per_frame", wire_dec, "ns");
    m("wire.encode_retimed_ns_per_frame", wire_enc, "ns");
    m("wire.bytes_per_op", ratio(wire_bytes as f64, ops), "bytes");
    m("engine.ns_per_frame", engine_frame, "ns");
    m(
        "engine.ns_per_op",
        ratio(engine_t.as_nanos() as f64, rec_ops),
        "ns",
    );
    m("shard.fused_frac", ratio(d.fused_ops as f64, ops), "ratio");
    m(
        "shard.execute_ns_per_op",
        ratio(shard_t.as_nanos() as f64, rec_ops),
        "ns",
    );
    m(
        "tree.finger_hit_frac",
        ratio(
            d.finger_hits as f64,
            (d.finger_hits + d.finger_misses) as f64,
        ),
        "ratio",
    );
    m(
        "tree.depth_mean",
        ratio(d.depth_sum as f64, d.descents as f64),
        "nodes",
    );
    m("tree.max_depth", d.max_depth as f64, "nodes");
    m(
        "tree.helps_per_kop",
        ratio(1e3 * d.helps as f64, ops),
        "count",
    );
    m("reclaim.retired_backlog", mean(&sat.backlog), "count");
    m("reclaim.epoch_lag", mean(&sat.epoch_lag), "count");
    m(
        "pool.hit_frac",
        ratio(d.pool_hits as f64, (d.pool_hits + d.pool_misses) as f64),
        "ratio",
    );
    m("trace.residual_ns_per_frame", residual, "ns");
    m("trace.unattributed_frac", unattributed, "ratio");
    m(
        "trace.overhead_frac",
        1.0 - ratio(traced_rate, untraced_rate),
        "ratio",
    );
    Ok(())
}

fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

/// Writes every recorded span, one per line, to
/// `servebench/traces/<workload>.tsv` (overwritten per run).
fn write_spans(workload: &str, tracers: &[Tracer]) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}.tsv"));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(f, "client\tspan\tname\tparent\treq\tstart_ns\tend_ns")?;
    for (c, tr) in tracers.iter().enumerate() {
        for (i, s) in tr.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                f,
                "{c}\t{i}\t{}\t{parent}\t{}\t{}\t{}",
                SPAN_NAMES[s.name as usize], s.req, s.start, s.end
            )?;
        }
    }
    f.flush()?;
    Ok(path.display().to_string())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    // A wedged run must still end, well inside a 180 s budget per run.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("servebench: watchdog: run exceeded {WATCHDOG:?}");
        std::process::exit(3);
    });
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "servebench {} seed {} ({} s, trace {})",
        args.workload.name, args.seed, args.seconds, args.trace as u8
    );
    for Metric(name, v, unit) in &report.res.metrics {
        eprintln!("  {name:<36} {v:>16.3} {unit}");
    }
    for Metric(name, v, unit) in &report.res.ungated {
        eprintln!("  {name:<36} {v:>16.3} {unit} (reported, not gated)");
    }
    eprintln!(
        "  {:<36} {:>16.6} ratio ({} of {} ops)",
        "failed_frac",
        report.failed as f64 / report.attempted as f64,
        report.failed,
        report.attempted
    );
    for n in &report.res.notes {
        eprintln!("  note: {n}");
    }
    let body: Vec<String> = report
        .res
        .metrics
        .iter()
        .map(|Metric(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        body.join(", ")
    );
    if !report.correct {
        std::process::exit(1);
    }
}
