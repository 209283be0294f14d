//! The load generator: one client connection per thread, driving the
//! server through the same public wire calls [`nmbst_server::Client`]
//! makes (`Request::encode`, `write_frame` into a `BufWriter`, `flush`,
//! `read_frame` from the socket, `Response::decode`), inlined here so
//! the traced run can time each call. Every reply is checked against
//! the client's [`Model`].

use crate::gen::{Model, OpGen, Workload};
use nmbst_server::wire::{read_frame, write_frame, BatchOp, BatchReply, Request, Response};
use std::collections::VecDeque;
use std::io::{self, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A reply slower than this counts as timed out (and as failed).
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

mod sys {
    use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    pub const POLLIN: c_short = 0x001;
    pub const PR_SET_TIMERSLACK: c_int = 29;
    pub const SCHED_IDLE: c_int = 5;

    extern "C" {
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
        pub fn prctl(option: c_int, ...) -> c_int;
        pub fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
        pub fn sched_setscheduler(pid: c_int, policy: c_int, param: *const c_int) -> c_int;
    }
}

/// Sets this thread's timer slack to 1 ns so the open-loop generator's
/// timed waits wake on schedule (the default slack is 50 µs, longer
/// than the gap between two point frames).
pub fn tight_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // only changes the calling thread's timer slack.
    unsafe {
        sys::prctl(sys::PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
    }
}

/// Pins thread `tid` (0 = the calling thread) to `cpu`, one of the
/// first 64.
pub fn pin(tid: u64, cpu: usize) -> bool {
    let Ok(tid) = std::ffi::c_int::try_from(tid) else {
        return false;
    };
    if cpu >= 64 {
        return false;
    }
    let mask: u64 = 1 << cpu;
    // SAFETY: the mask is 8 readable bytes, the size passed.
    unsafe { sys::sched_setaffinity(tid, std::mem::size_of_val(&mask), &mask) == 0 }
}

/// Moves the calling thread to SCHED_IDLE: it runs only when nothing
/// else on its CPU is runnable.
pub fn sched_idle() -> bool {
    let param: std::ffi::c_int = 0; // struct sched_param { int sched_priority; }
                                    // SAFETY: `param` is a valid sched_param for the call; pid 0 is the
                                    // calling thread.
    unsafe { sys::sched_setscheduler(0, sys::SCHED_IDLE, &param) == 0 }
}

/// Waits until `fd` is readable or `timeout` passes. Returns whether it
/// is readable.
fn wait_readable(fd: RawFd, timeout: Duration) -> bool {
    let mut pfd = sys::PollFd {
        fd,
        events: sys::POLLIN,
        revents: 0,
    };
    let ts = sys::Timespec {
        tv_sec: timeout.as_secs() as _,
        tv_nsec: timeout.subsec_nanos() as _,
    };
    // SAFETY: `pfd` and `ts` outlive the call, nfds is 1, and a null
    // sigmask leaves the signal mask alone.
    let n = unsafe { sys::ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    // EINTR (n < 0) reads as "not yet"; the caller loops. Any revents
    // bit (data, hangup, error) lets the next read surface the outcome.
    n > 0 && pfd.revents != 0
}

/// Span names; the traced run's per-layer metrics are sums over these.
pub const SPAN_NAMES: [&str; 7] = [
    "client.thread",
    "client.encode",
    "client.send",
    "client.wait",
    "client.decode",
    "bench.check",
    "bench.generate",
];
pub const S_THREAD: u8 = 0;
const S_ENCODE: u8 = 1;
const S_SEND: u8 = 2;
const S_WAIT: u8 = 3;
const S_DECODE: u8 = 4;
const S_CHECK: u8 = 5;
const S_GENERATE: u8 = 6;

/// One recorded span. `parent` indexes the same client's span list
/// (`u32::MAX` for the root); `req` is the frame's sequence number on
/// its connection (a flush carries the last frame it sent).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: u8,
    pub parent: u32,
    pub req: u64,
    pub start: u64,
    pub end: u64,
}

/// Frame bodies recorded back to back in one buffer, so recording a
/// frame costs a copy and no allocation.
#[derive(Default)]
pub struct Frames {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Frames {
    fn push(&mut self, body: &[u8]) {
        self.bytes.extend_from_slice(body);
        self.ends.push(self.bytes.len());
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn get(&self, i: usize) -> Option<&[u8]> {
        let end = *self.ends.get(i)?;
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        Some(&self.bytes[start..end])
    }
}

/// In-memory span recorder. Disabled, `now()` returns 0 without reading
/// the clock, so the untraced run executes the same loop minus timing.
pub struct Tracer {
    base: Instant,
    on: bool,
    pub spans: Vec<Span>,
    /// The request frames (bytes as sent) and reply frames (bytes as
    /// received) of the traced phase, for the offline layer replays.
    pub requests: Frames,
    pub replies: Frames,
}

impl Tracer {
    /// A recorder; an enabled one reserves room for `frames` frames up
    /// front so recording does not reallocate mid-phase.
    pub fn new(base: Instant, on: bool, frames: usize, frame_bytes: usize) -> Tracer {
        let mut tr = Tracer {
            base,
            on,
            spans: Vec::new(),
            requests: Frames::default(),
            replies: Frames::default(),
        };
        if on {
            tr.spans.reserve(8 * frames + 1);
            tr.requests.bytes.reserve(frames * frame_bytes);
            tr.requests.ends.reserve(frames);
            tr.replies.bytes.reserve(frames * frame_bytes);
            tr.replies.ends.reserve(frames);
        }
        tr
    }

    #[inline]
    fn now(&self) -> u64 {
        if self.on {
            self.base.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    #[inline]
    fn span(&mut self, name: u8, req: u64, start: u64, end: u64) {
        if self.on {
            self.spans.push(Span {
                name,
                parent: 0,
                req,
                start,
                end,
            });
        }
    }
}

/// What one client did in one phase.
#[derive(Default)]
pub struct PhaseOut {
    pub frames: u64,
    pub ops: u64,
    /// Ops sent (replied or not).
    pub attempted: u64,
    /// Ops with a wrong reply, an error reply, or no reply.
    pub failed: u64,
    /// Wrong replies (a subset of `failed`).
    pub mismatches: u64,
    pub req_bytes: u64,
    pub reply_bytes: u64,
    pub io_error: Option<String>,
    /// Open loop: per-frame latency from scheduled send to reply, ns.
    pub latency_ns: Vec<u64>,
    /// Open loop: per-frame lateness of the actual send, ns.
    pub late_ns: Vec<u64>,
    pub tracer: Option<Tracer>,
}

/// A frame in flight: the request and its reference instant (scheduled
/// send time in the open loop).
struct InFlight {
    req: Request,
    due: Instant,
}

/// One client: its connection, op stream and reply model, plus
/// everything reused across frames.
pub struct Conn {
    w: &'static Workload,
    gen: OpGen,
    pub model: Model,
    reader: TcpStream,
    writer: BufWriter<TcpStream>,
    fd: RawFd,
    out: Vec<u8>,
    body: Vec<u8>,
    inflight: VecDeque<InFlight>,
    spare: Vec<Vec<BatchOp>>,
    seq: u64,
}

impl Conn {
    /// Connects client `idx` of workload `w`, its model in the
    /// post-load state.
    pub fn connect(
        addr: SocketAddr,
        w: &'static Workload,
        seed: u64,
        idx: usize,
    ) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let reader = stream.try_clone()?;
        Ok(Conn {
            w,
            gen: OpGen::new(w, seed, idx),
            model: Model::loaded(w, seed, idx),
            fd: reader.as_raw_fd(),
            reader,
            writer: BufWriter::new(stream),
            out: Vec::with_capacity(256),
            body: Vec::with_capacity(256),
            inflight: VecDeque::new(),
            spare: Vec::new(),
            seq: 0,
        })
    }

    pub fn workload(&self) -> &'static Workload {
        self.w
    }

    /// Draws the next frame's request.
    fn next_request(&mut self) -> Request {
        if self.w.frame_ops == 1 {
            return match self.gen.next() {
                BatchOp::Get(k) => Request::Get(k),
                BatchOp::Insert(k, v) => Request::Insert(k, v),
                BatchOp::Remove(k) => Request::Remove(k),
            };
        }
        let mut ops = self.spare.pop().unwrap_or_default();
        ops.clear();
        let gen = &mut self.gen;
        ops.extend((0..self.w.frame_ops).map(|_| gen.next()));
        Request::Batch(ops)
    }

    /// Encodes and buffers one frame (no flush).
    fn send(&mut self, req: Request, due: Instant, out: &mut PhaseOut, tr: &mut Tracer) {
        let t0 = tr.now();
        self.out.clear();
        req.encode(&mut self.out);
        let t1 = tr.now();
        let res = write_frame(&mut self.writer, &self.out);
        let t2 = tr.now();
        self.seq += 1;
        tr.span(S_ENCODE, self.seq, t0, t1);
        tr.span(S_SEND, self.seq, t1, t2);
        if tr.on {
            tr.requests.push(&self.out);
        }
        out.attempted += op_count(&req);
        out.req_bytes += 4 + self.out.len() as u64;
        if let Err(e) = res {
            out.io_error.get_or_insert(e.to_string());
        }
        self.inflight.push_back(InFlight { req, due });
    }

    fn flush(&mut self, out: &mut PhaseOut, tr: &mut Tracer) {
        let t0 = tr.now();
        let res = self.writer.flush();
        tr.span(S_SEND, self.seq, t0, tr.now());
        if let Err(e) = res {
            out.io_error.get_or_insert(e.to_string());
        }
    }

    /// Reads, decodes and checks the oldest in-flight frame's reply.
    /// Returns the instant the reply was decoded.
    fn receive(&mut self, out: &mut PhaseOut, tr: &mut Tracer) -> Instant {
        let f = self.inflight.pop_front().expect("a frame in flight");
        let req_id = self.seq - self.inflight.len() as u64;
        let n = op_count(&f.req);
        let t0 = tr.now();
        let got = read_frame(&mut self.reader, &mut self.body);
        let t1 = tr.now();
        let resp = match got {
            Ok(true) => Response::decode(f.req.opcode(), &self.body).map_err(io::Error::from),
            Ok(false) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Err(e) => Err(e),
        };
        let t2 = tr.now();
        let done = Instant::now();
        match resp {
            Ok(resp) => {
                let bad = check(&mut self.model, &f.req, &resp);
                let t3 = tr.now();
                tr.span(S_WAIT, req_id, t0, t1);
                tr.span(S_DECODE, req_id, t1, t2);
                tr.span(S_CHECK, req_id, t2, t3);
                if tr.on {
                    tr.replies.push(&self.body);
                }
                out.frames += 1;
                out.ops += n;
                out.reply_bytes += 4 + self.body.len() as u64;
                out.failed += bad;
                out.mismatches += bad;
            }
            Err(e) => {
                out.failed += n;
                out.io_error.get_or_insert(e.to_string());
            }
        }
        if let Request::Batch(ops) = f.req {
            self.spare.push(ops);
        }
        done
    }

    /// Fails every frame still in flight (after an I/O error the stream
    /// cannot be trusted).
    fn abandon(&mut self, out: &mut PhaseOut) {
        for f in self.inflight.drain(..) {
            out.failed += op_count(&f.req);
        }
    }

    /// Closed loop until `end`: keeps `w.window` frames in flight, the
    /// way `Client::pipeline` does, and adds each completed frame's ops
    /// to `done_ops`. With `max_frames`, also stops after that many.
    pub fn closed_loop(
        &mut self,
        end: Instant,
        max_frames: u64,
        done_ops: &AtomicU64,
        tr: &mut Tracer,
    ) -> PhaseOut {
        let mut out = PhaseOut::default();
        let root_start = tr.now();
        let mut sent = 0u64;
        loop {
            let more = sent < max_frames && Instant::now() < end;
            if !more && self.inflight.is_empty() {
                break;
            }
            if more && self.inflight.len() < self.w.window {
                while sent < max_frames && self.inflight.len() < self.w.window {
                    let t0 = tr.now();
                    let req = self.next_request();
                    tr.span(S_GENERATE, self.seq + 1, t0, tr.now());
                    self.send(req, Instant::now(), &mut out, tr);
                    sent += 1;
                }
                self.flush(&mut out, tr);
            }
            let before = out.ops;
            self.receive(&mut out, tr);
            done_ops.fetch_add(out.ops - before, Ordering::Relaxed);
            if out.io_error.is_some() {
                self.abandon(&mut out);
                break;
            }
        }
        if tr.on {
            let root_end = tr.now();
            // Every frame span's parent is index 0: this thread's root.
            tr.spans.insert(
                0,
                Span {
                    name: S_THREAD,
                    parent: u32::MAX,
                    req: 0,
                    start: root_start,
                    end: root_end,
                },
            );
        }
        out
    }

    /// Open loop: one frame due every `interval` from `start` until
    /// `end`, sent on schedule whatever the replies are doing (up to
    /// `Client::PIPELINE_WINDOW` in flight), then drains. Records each
    /// frame's latency from its *scheduled* send and how late it left.
    pub fn open_loop(&mut self, start: Instant, end: Instant, interval: Duration) -> PhaseOut {
        let window = nmbst_server::Client::PIPELINE_WINDOW;
        let mut out = PhaseOut::default();
        let mut tr = Tracer::new(start, false, 0, 0);
        let expect = ((end - start).as_secs_f64() / interval.as_secs_f64()) as usize + 1;
        out.latency_ns.reserve(expect);
        out.late_ns.reserve(expect);
        let mut due = start;
        loop {
            let now = Instant::now();
            let mut wrote = false;
            while due <= now && due < end && self.inflight.len() < window {
                let req = self.next_request();
                out.late_ns.push((Instant::now() - due).as_nanos() as u64);
                self.send(req, due, &mut out, &mut tr);
                due += interval;
                wrote = true;
            }
            if wrote {
                self.flush(&mut out, &mut tr);
            }
            let sending = due < end;
            if self.inflight.is_empty() {
                if !sending {
                    break;
                }
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                continue;
            }
            if sending && self.inflight.len() < window {
                let left = due.saturating_duration_since(Instant::now());
                if left.is_zero() || !wait_readable(self.fd, left) {
                    continue;
                }
            }
            let scheduled = self.inflight.front().expect("a frame in flight").due;
            let done = self.receive(&mut out, &mut tr);
            if out.io_error.is_some() {
                self.abandon(&mut out);
                break;
            }
            out.latency_ns.push((done - scheduled).as_nanos() as u64);
        }
        out
    }
}

/// Tree ops a request carries.
pub fn op_count(req: &Request) -> u64 {
    match req {
        Request::Batch(ops) => ops.len() as u64,
        _ => 1,
    }
}

/// Checks a reply against the model; returns the number of ops whose
/// reply was wrong (every op of the frame when the reply is malformed).
fn check(model: &mut Model, req: &Request, resp: &Response) -> u64 {
    let one = |model: &mut Model, op, reply| u64::from(!model.apply(op, reply));
    match (req, resp) {
        (Request::Batch(ops), Response::Batch(replies)) if ops.len() == replies.len() => ops
            .iter()
            .zip(replies)
            .map(|(&op, &r)| one(model, op, r))
            .sum(),
        (Request::Get(k), Response::Get(v)) => one(
            model,
            BatchOp::Get(*k),
            v.map_or(BatchReply::Missing, BatchReply::Found),
        ),
        (Request::Insert(k, v), Response::Insert(b)) => {
            one(model, BatchOp::Insert(*k, *v), BatchReply::Added(*b))
        }
        (Request::Remove(k), Response::Remove(b)) => {
            one(model, BatchOp::Remove(*k), BatchReply::Removed(*b))
        }
        _ => op_count(req),
    }
}
