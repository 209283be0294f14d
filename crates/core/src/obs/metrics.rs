//! The always-on metrics facade: sharded relaxed counters + gauges,
//! and (with `feature = "obs-latency"`, default on) sampled per-op-type
//! latency histograms plus slow-op capture.
//!
//! Counter writes must not create the cross-core cache-line traffic the
//! tree itself avoids, so counts live in [`SHARDS`] cache-padded shards;
//! each thread is assigned a shard round-robin on first use and bumps it
//! with relaxed `fetch_add`s. Reads ([`Metrics::snapshot`]) sum the
//! shards — exact once writers are quiescent, racy-but-monotonic while
//! they are not, which is the usual scrape contract.
//!
//! Latency recording follows the same cost discipline at a second
//! remove: a tree op costs ~100 ns while a clock read costs ~20 ns, so
//! timing *every* op would blow the ≤3% observability budget several
//! times over. Point ops are therefore **sampled** — a thread-local
//! tick arms a timer every `2^sample_shift`-th call (see
//! [`LatencyConfig`]) — while batch and range calls, which amortize a
//! clock pair over many keys, are timed on every call. Handles buffer
//! their sampled durations in plain fields ([`PendingLat`]) and flush
//! them into the shared [`ConcurrentHistogram`]s on re-pin, exactly
//! like their op counters. Ops that cross
//! [`LatencyConfig::slow_op_ns`] additionally deposit a [`SlowOp`]
//! record (with the flight-recorder event chain, when `feature = "obs"`
//! has a recorder attached) into a lock-free [`SlowRing`].

use nmbst_reclaim::{PoolStats, ReclaimGauges};
use nmbst_sync::CachePadded;
use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use super::hist::LatencySnapshot;
use super::slow::SlowOp;
#[cfg(feature = "obs-latency")]
use super::{hist::ConcurrentHistogram, slow::SlowRing, OpClass};

/// Number of counter shards. More than the container's typical core
/// count so that threads rarely share a line even under round-robin
/// assignment; small enough that snapshot sums stay trivial.
const SHARDS: usize = 8;

/// Buckets in the descent-depth histogram. Power-of-two buckets: bucket
/// `b` counts descents that touched `2^(b-1) ..= 2^b - 1` nodes (bucket
/// 0 is the degenerate zero-node descent), saturating in the last
/// bucket, so 16 buckets cover any depth a 2³⁰-slot arena can produce.
pub const DEPTH_BUCKETS: usize = 16;

/// The histogram bucket a given descent depth lands in: the bit length
/// of `depth`, saturated to the last bucket.
#[inline]
fn depth_bucket(depth: u64) -> usize {
    ((u64::BITS - depth.leading_zeros()) as usize).min(DEPTH_BUCKETS - 1)
}

/// How latency recording behaves on a tree (`TreeConfig::lat`).
///
/// Runtime knobs, deliberately separate from the `obs-latency` cargo
/// feature: the feature compiles the recording sites (and the per-tree
/// histogram memory) out entirely, while this config lets one binary
/// A/B the cost or retune the threshold without rebuilding — which is
/// exactly what the perf harness's overhead gate does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// Master switch. Off: every op pays one field load + branch.
    pub enabled: bool,
    /// Point ops (get/insert/remove) are timed once every
    /// `2^sample_shift` calls per thread (0 = every call — useful in
    /// tests, too hot for production). Batch/range calls ignore this
    /// and are always timed: one clock pair amortized over the whole
    /// call. Default 6 (1 in 64), which keeps the measured overhead
    /// comfortably inside the ≤3% budget.
    pub sample_shift: u32,
    /// Sampled ops (and every batch/range call) whose duration reaches
    /// this many nanoseconds deposit a [`SlowOp`] into the tree's slow
    /// ring. 0 disables capture. Default 1 ms — pathological for a
    /// sub-microsecond tree op.
    pub slow_op_ns: u64,
}

impl LatencyConfig {
    /// Recording disabled (the config the perf A/B's "off" arm uses).
    pub fn disabled() -> Self {
        LatencyConfig {
            enabled: false,
            ..LatencyConfig::default()
        }
    }

    /// Returns the config with the point-op sampling period set to
    /// `2^shift` (clamped to 31).
    pub fn with_sample_shift(mut self, shift: u32) -> Self {
        self.sample_shift = shift.min(31);
        self
    }

    /// Returns the config with the slow-op threshold set (0 = off).
    pub fn with_slow_op_ns(mut self, ns: u64) -> Self {
        self.slow_op_ns = ns;
        self
    }
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            enabled: true,
            sample_shift: 6,
            slow_op_ns: 1_000_000,
        }
    }
}

/// One shard of operation counters. All bumps are relaxed: counts have
/// no ordering role, they only need to add up.
///
/// Counters are split by *outcome*, not aggregated by call, so every
/// operation costs exactly one `fetch_add` (`inserts` = `inserted` +
/// `insert_dup`, summed at snapshot time, never on the hot path).
#[derive(Default)]
struct Shard {
    searches: AtomicU64,
    inserted: AtomicU64,
    insert_dup: AtomicU64,
    removed: AtomicU64,
    remove_miss: AtomicU64,
    helps: AtomicU64,
    finger_hits: AtomicU64,
    finger_misses: AtomicU64,
    run_riders: AtomicU64,
    /// Power-of-two histogram of nodes touched per modify-path descent
    /// (see [`DEPTH_BUCKETS`]), plus the running sum for averages. Lives
    /// in the shard so the per-seek bump shares the line the op counter
    /// bump already owns.
    depth_hist: [AtomicU64; DEPTH_BUCKETS],
    depth_sum: AtomicU64,
}

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard index, assigned round-robin on first use.
    /// Const-initialized `Cell` (not a lazy initializer) so the per-op
    /// access compiles to a plain TLS load; `usize::MAX` = unassigned.
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[cfg(feature = "obs-latency")]
thread_local! {
    /// Per-thread sampling tick for latency timers (see
    /// [`LatencyConfig::sample_shift`]). Shared across trees: sampling
    /// needs no per-tree phase, only the right long-run rate.
    static LAT_TICK: Cell<u32> = const { Cell::new(0) };
}

/// This thread's counter-shard index (round-robin assigned on first
/// use) — shared with the concurrent latency histograms so a recording
/// thread keeps bumping lines it already owns.
#[inline]
pub(crate) fn my_shard() -> usize {
    MY_SHARD.with(|s| {
        let idx = s.get();
        if idx != usize::MAX {
            idx
        } else {
            let assigned = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
            s.set(assigned);
            assigned
        }
    })
}

/// The per-tree latency recording state: one concurrent histogram per
/// op class plus the slow-op ring. Only compiled (and only allocated)
/// with `feature = "obs-latency"`.
#[cfg(feature = "obs-latency")]
struct LatencyState {
    config: LatencyConfig,
    /// `2^sample_shift - 1`, cached at construction so the per-op
    /// sampling test is a single AND, not a shift+clamp.
    sample_mask: u32,
    hists: [ConcurrentHistogram; OpClass::COUNT],
    slow: SlowRing,
}

/// An armed-or-idle latency timer handed out by [`Metrics::op_timer`] /
/// [`Metrics::call_timer`] and consumed by the `op_finish` family.
/// Without `feature = "obs-latency"` it is a zero-sized token and every
/// method on it is an empty inline.
#[cfg(feature = "obs-latency")]
#[derive(Clone, Copy)]
pub(crate) struct LatTimer {
    t0: Option<std::time::Instant>,
    /// Flight-recorder ring position at arm time, so a slow op can
    /// report exactly the events recorded during it.
    #[cfg(feature = "obs")]
    mark: u64,
}

#[cfg(feature = "obs-latency")]
impl LatTimer {
    #[inline]
    fn idle() -> Self {
        LatTimer {
            t0: None,
            #[cfg(feature = "obs")]
            mark: u64::MAX,
        }
    }

    #[inline]
    fn armed() -> Self {
        LatTimer {
            t0: Some(std::time::Instant::now()),
            #[cfg(feature = "obs")]
            mark: super::trace::local_mark(),
        }
    }
}

/// See the `obs-latency` variant; this is the compiled-out token.
#[cfg(not(feature = "obs-latency"))]
#[derive(Clone, Copy)]
pub(crate) struct LatTimer;

/// Sampled `(op class, duration)` pairs a handle buffers in plain
/// fields between guard refreshes, flushed into the shared histograms
/// on re-pin/unpin/drop — the latency twin of [`PendingOps`]. Fixed
/// capacity: at the default 1-in-64 sampling and 64-op re-pin budget a
/// window yields ~1 sample, so 8 slots absorb even a forced
/// every-op-sampled test loop between organic flushes.
#[cfg(feature = "obs-latency")]
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PendingLat {
    buf: [(u8, u64); Self::CAP],
    len: u8,
    /// The owning handle's sampling tick (see
    /// [`Metrics::op_timer_buffered`]) — handle ops sample off this
    /// plain field rather than the thread-local the plain API uses.
    tick: u32,
}

#[cfg(feature = "obs-latency")]
impl PendingLat {
    const CAP: usize = 8;

    /// Appends a sample; false when full (caller flushes and retries).
    #[inline]
    fn push(&mut self, class: u8, ns: u64) -> bool {
        let i = usize::from(self.len);
        if i >= Self::CAP {
            return false;
        }
        self.buf[i] = (class, ns);
        self.len += 1;
        true
    }
}

/// See the `obs-latency` variant; this is the compiled-out token.
#[cfg(not(feature = "obs-latency"))]
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PendingLat;

/// Per-tree metrics state, owned by `NmTreeMap`.
pub(crate) struct Metrics {
    shards: [CachePadded<Shard>; SHARDS],
    /// Deepest access path any modify-path seek observed (leaf depth in
    /// edges below the sentinel pair). Racy max: updated with a relaxed
    /// load-then-`fetch_max` only when a new maximum is seen.
    max_depth: AtomicU64,
    #[cfg(feature = "obs-latency")]
    lat: LatencyState,
}

impl Metrics {
    pub(crate) fn new(lat: LatencyConfig) -> Self {
        #[cfg(not(feature = "obs-latency"))]
        let _ = lat;
        Metrics {
            shards: Default::default(),
            max_depth: AtomicU64::new(0),
            #[cfg(feature = "obs-latency")]
            lat: LatencyState {
                config: lat,
                sample_mask: (1u32 << lat.sample_shift.min(31)) - 1,
                hists: Default::default(),
                slow: SlowRing::new(super::slow::TREE_SLOW_CAP),
            },
        }
    }

    #[inline]
    fn shard(&self) -> &Shard {
        &self.shards[my_shard()]
    }

    #[inline]
    pub(crate) fn note_search(&self) {
        self.shard().searches.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn note_insert(&self, success: bool) {
        let shard = self.shard();
        let counter = if success {
            &shard.inserted
        } else {
            &shard.insert_dup
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn note_remove(&self, success: bool) {
        let shard = self.shard();
        let counter = if success {
            &shard.removed
        } else {
            &shard.remove_miss
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn note_help(&self) {
        self.shard().helps.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds a new observed access-path depth into the max gauge and the
    /// sharded power-of-two histogram. The max update's common case (not
    /// a new maximum) is a single relaxed load; the histogram costs two
    /// relaxed `fetch_add`s on this thread's shard — the line the op
    /// counter bump for the same operation already owns.
    #[inline]
    pub(crate) fn note_depth(&self, depth: u64) {
        if depth > self.max_depth.load(Ordering::Relaxed) {
            self.max_depth.fetch_max(depth, Ordering::Relaxed);
        }
        let shard = self.shard();
        shard.depth_hist[depth_bucket(depth)].fetch_add(1, Ordering::Relaxed);
        shard.depth_sum.fetch_add(depth, Ordering::Relaxed);
    }

    /// Arms a sampled point-op timer: idle unless recording is enabled
    /// and this thread's tick hits the sampling period. The unsampled
    /// path costs one field load, one TLS bump, and a branch.
    #[cfg(feature = "obs-latency")]
    #[inline]
    pub(crate) fn op_timer(&self) -> LatTimer {
        if !self.lat.config.enabled {
            return LatTimer::idle();
        }
        let mask = self.lat.sample_mask;
        let sampled = LAT_TICK.with(|c| {
            let v = c.get().wrapping_add(1);
            c.set(v);
            v & mask == 0
        });
        if sampled {
            LatTimer::armed()
        } else {
            LatTimer::idle()
        }
    }

    /// The handle-op twin of [`op_timer`](Metrics::op_timer): the
    /// sampling tick lives in the handle's [`PendingLat`] (a plain
    /// field the handle already owns) instead of thread-local storage,
    /// so the unsampled path is a load, an add, and a branch on memory
    /// that's already hot — handles are the throughput-critical front
    /// end, and the ≤3% budget is measured through them.
    #[cfg(feature = "obs-latency")]
    #[inline]
    pub(crate) fn op_timer_buffered(&self, buf: &mut PendingLat) -> LatTimer {
        if !self.lat.config.enabled {
            return LatTimer::idle();
        }
        buf.tick = buf.tick.wrapping_add(1);
        if buf.tick & self.lat.sample_mask == 0 {
            LatTimer::armed()
        } else {
            LatTimer::idle()
        }
    }

    /// Arms an unsampled timer for whole batch/range calls, where one
    /// clock pair amortizes over many keys.
    #[cfg(feature = "obs-latency")]
    #[inline]
    pub(crate) fn call_timer(&self) -> LatTimer {
        if self.lat.config.enabled {
            LatTimer::armed()
        } else {
            LatTimer::idle()
        }
    }

    /// Finishes a timer directly into the shared histograms (the plain
    /// API path, and batch/range calls).
    #[cfg(feature = "obs-latency")]
    #[inline]
    pub(crate) fn op_finish(&self, class: OpClass, t: LatTimer) {
        if let Some(t0) = t.t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            self.lat.hists[class as usize].record(ns);
            self.check_slow(class, ns, &t);
        }
    }

    /// Finishes a timer into a handle's [`PendingLat`] buffer (flushed
    /// on re-pin, like the op counters). Slow-op detection still
    /// happens immediately — a 1 ms outlier should not wait for a
    /// flush to become visible.
    #[cfg(feature = "obs-latency")]
    #[inline]
    pub(crate) fn op_finish_buffered(&self, class: OpClass, t: LatTimer, buf: &mut PendingLat) {
        if let Some(t0) = t.t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            self.check_slow(class, ns, &t);
            if !buf.push(class as u8, ns) {
                self.flush_pending_lat(buf);
                let _ = buf.push(class as u8, ns);
            }
        }
    }

    /// Drains a handle's buffered latency samples into the shared
    /// histograms.
    #[cfg(feature = "obs-latency")]
    pub(crate) fn flush_pending_lat(&self, buf: &mut PendingLat) {
        for &(class, ns) in &buf.buf[..usize::from(buf.len)] {
            self.lat.hists[usize::from(class).min(OpClass::COUNT - 1)].record(ns);
        }
        buf.len = 0;
    }

    #[cfg(feature = "obs-latency")]
    #[inline]
    fn check_slow(&self, class: OpClass, ns: u64, t: &LatTimer) {
        let thr = self.lat.config.slow_op_ns;
        if thr != 0 && ns >= thr {
            self.push_slow(class, ns, t);
        }
    }

    /// Deposits a slow-op record, attaching the flight-recorder event
    /// chain for the op when a recorder is active on this thread.
    #[cfg(feature = "obs-latency")]
    #[cold]
    fn push_slow(&self, class: OpClass, ns: u64, t: &LatTimer) {
        #[cfg(feature = "obs")]
        let (events, n_events) = super::trace::local_events_since(t.mark);
        #[cfg(not(feature = "obs"))]
        let (events, n_events) = {
            let _ = t;
            ([0u8; super::slow::SLOW_EVENTS], 0u8)
        };
        self.lat.slow.push(SlowOp {
            kind: class as u8,
            origin: 0,
            n_events,
            key: 0,
            ns,
            events,
        });
    }

    // Compiled-out latency recording: zero-sized timers, empty inlines.
    #[cfg(not(feature = "obs-latency"))]
    #[inline(always)]
    pub(crate) fn op_timer(&self) -> LatTimer {
        LatTimer
    }

    #[cfg(not(feature = "obs-latency"))]
    #[inline(always)]
    pub(crate) fn op_timer_buffered(&self, buf: &mut PendingLat) -> LatTimer {
        let _ = buf;
        LatTimer
    }

    #[cfg(not(feature = "obs-latency"))]
    #[inline(always)]
    pub(crate) fn call_timer(&self) -> LatTimer {
        LatTimer
    }

    #[cfg(not(feature = "obs-latency"))]
    #[inline(always)]
    pub(crate) fn op_finish(&self, class: super::OpClass, t: LatTimer) {
        let _ = (class, t);
    }

    #[cfg(not(feature = "obs-latency"))]
    #[inline(always)]
    pub(crate) fn op_finish_buffered(
        &self,
        class: super::OpClass,
        t: LatTimer,
        buf: &mut PendingLat,
    ) {
        let _ = (class, t, buf);
    }

    #[cfg(not(feature = "obs-latency"))]
    #[inline(always)]
    pub(crate) fn flush_pending_lat(&self, buf: &mut PendingLat) {
        let _ = buf;
    }

    /// Adds a handle's batched counts in one pass (see [`PendingOps`]).
    pub(crate) fn add_pending(&self, p: &PendingOps) {
        if p.is_empty() {
            return;
        }
        let shard = self.shard();
        shard.searches.fetch_add(p.searches, Ordering::Relaxed);
        shard.inserted.fetch_add(p.inserted, Ordering::Relaxed);
        shard
            .insert_dup
            .fetch_add(p.inserts - p.inserted, Ordering::Relaxed);
        shard.removed.fetch_add(p.removed, Ordering::Relaxed);
        shard
            .remove_miss
            .fetch_add(p.removes - p.removed, Ordering::Relaxed);
        shard
            .finger_hits
            .fetch_add(p.finger_hits, Ordering::Relaxed);
        shard
            .finger_misses
            .fetch_add(p.finger_misses, Ordering::Relaxed);
        shard.run_riders.fetch_add(p.run_riders, Ordering::Relaxed);
    }

    /// Sums the shards and folds in the reclaimer's gauges and the node
    /// pool's stats (`None` when the tree runs with the pool off — the
    /// snapshot then reports all-zero pool fields).
    pub(crate) fn snapshot(
        &self,
        reclaim: ReclaimGauges,
        pool: Option<PoolStats>,
    ) -> MetricsSnapshot {
        let mut s = MetricsSnapshot {
            max_depth: self.max_depth.load(Ordering::Relaxed),
            reclaim,
            pool: pool.unwrap_or_default(),
            ..MetricsSnapshot::default()
        };
        for shard in &self.shards {
            s.searches += shard.searches.load(Ordering::Relaxed);
            s.inserted += shard.inserted.load(Ordering::Relaxed);
            s.inserts += shard.insert_dup.load(Ordering::Relaxed);
            s.removed += shard.removed.load(Ordering::Relaxed);
            s.removes += shard.remove_miss.load(Ordering::Relaxed);
            s.helps += shard.helps.load(Ordering::Relaxed);
            s.finger_hits += shard.finger_hits.load(Ordering::Relaxed);
            s.finger_misses += shard.finger_misses.load(Ordering::Relaxed);
            s.run_riders += shard.run_riders.load(Ordering::Relaxed);
            for (dst, src) in s.depth_hist.iter_mut().zip(shard.depth_hist.iter()) {
                *dst += src.load(Ordering::Relaxed);
            }
            s.depth_sum += shard.depth_sum.load(Ordering::Relaxed);
        }
        // The shards store outcomes; the snapshot reports call totals.
        s.inserts += s.inserted;
        s.removes += s.removed;
        s.size_estimate = s.inserted as i64 - s.removed as i64;
        #[cfg(feature = "obs-latency")]
        {
            s.latency = LatencySnapshot {
                get: self.lat.hists[OpClass::Get as usize].snapshot(),
                insert: self.lat.hists[OpClass::Insert as usize].snapshot(),
                remove: self.lat.hists[OpClass::Remove as usize].snapshot(),
                batch: self.lat.hists[OpClass::Batch as usize].snapshot(),
                range: self.lat.hists[OpClass::Range as usize].snapshot(),
            };
            s.slow_ops = self.lat.slow.snapshot();
        }
        s
    }
}

/// Operation counts a [`MapHandle`](crate::MapHandle) batches in plain
/// (non-atomic) fields between guard refreshes, flushed into the shards
/// on re-pin, unpin, and drop. This is what keeps the metrics facade off
/// the handle's per-op critical path entirely.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PendingOps {
    pub(crate) searches: u64,
    pub(crate) inserts: u64,
    pub(crate) inserted: u64,
    pub(crate) removes: u64,
    pub(crate) removed: u64,
    pub(crate) finger_hits: u64,
    pub(crate) finger_misses: u64,
    pub(crate) run_riders: u64,
}

impl PendingOps {
    fn is_empty(&self) -> bool {
        self.searches == 0
            && self.inserts == 0
            && self.removes == 0
            && self.finger_hits == 0
            && self.finger_misses == 0
            && self.run_riders == 0
    }

    pub(crate) fn clear(&mut self) {
        *self = PendingOps::default();
    }
}

/// Serving-tier connection gauges, folded into a [`MetricsSnapshot`] by
/// front ends that own connections (the TCP server's per-worker
/// reactors). Trees themselves never set these — they default to zero —
/// but carrying them on the snapshot lets the server reuse the metrics
/// merge/exposition pipeline (JSON + Prometheus + validator) instead of
/// inventing a parallel one.
///
/// `open_connections`, `read_paused_connections`, and
/// `write_buffered_bytes` are point-in-time gauges;
/// `backpressure_events` is a monotonic counter of read-pause
/// transitions (a connection entering the paused state counts once per
/// entry, not per byte). All four are *summed* by
/// [`MetricsSnapshot::merge`]: each worker owns disjoint connections, so
/// the aggregate is the fleet total.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServeGauges {
    /// Connections currently registered with a reactor.
    pub open_connections: u64,
    /// Connections whose reads are paused by write-buffer backpressure.
    pub read_paused_connections: u64,
    /// Bytes sitting in not-yet-flushed per-connection write buffers.
    pub write_buffered_bytes: u64,
    /// Times any connection transitioned into the read-paused state.
    pub backpressure_events: u64,
}

/// A point-in-time view of one tree's metrics, produced by
/// [`NmTreeMap::metrics`](crate::NmTreeMap::metrics).
///
/// Counters are monotonic over the tree's lifetime; gauges are racy
/// point samples. `searches`/`inserts`/`removes` count *calls*;
/// `inserted`/`removed` count the calls that changed the key set, so
/// `inserted - removed` estimates the live key count (exact once writers
/// are quiescent). The latency histograms carry the sampled per-op-type
/// distributions (see [`LatencyConfig`]); `slow_ops` is the current
/// window of threshold-crossing op records.
///
/// # Examples
///
/// ```
/// use nmbst::NmTreeSet;
///
/// let set: NmTreeSet<u64> = NmTreeSet::new();
/// set.insert(1);
/// set.insert(2);
/// set.remove(&1);
/// let m = set.metrics();
/// assert_eq!(m.inserts, 2);
/// assert_eq!(m.size_estimate, 1);
/// assert!(m.to_prometheus().contains("nmbst_size_estimate 1"));
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `contains`/`get`/`with_value` calls.
    pub searches: u64,
    /// `insert` calls (successful or duplicate-rejected).
    pub inserts: u64,
    /// `insert` calls that added a key.
    pub inserted: u64,
    /// `remove`/`remove_get` calls (successful or key-absent).
    pub removes: u64,
    /// `remove` calls that deleted a key.
    pub removed: u64,
    /// Times an operation helped a conflicting delete's cleanup instead
    /// of progressing its own work.
    pub helps: u64,
    /// Batch ops whose finger anchor revalidated: the descent started
    /// from the previous op's seek record instead of the root.
    pub finger_hits: u64,
    /// Batch ops that fell back to a full root descent (first op of a
    /// batch, stale anchor, or anchor's successor was a leaf).
    pub finger_misses: u64,
    /// Batch inserts that joined an earlier insert's leaf group and
    /// published with its one CAS, seeking nothing themselves (see
    /// `MapHandle::insert_batch`). Every batch op is exactly one of a
    /// finger hit, a finger miss or a rider.
    pub run_riders: u64,
    /// `inserted - removed`: live key count, exact at quiescence.
    pub size_estimate: i64,
    /// Deepest access path observed by any modify-path seek (nodes
    /// touched below the sentinel pair, the fat leaf *block* counting as
    /// one node; 0 until the first modify op).
    pub max_depth: u64,
    /// Power-of-two histogram of nodes touched per modify-path descent:
    /// bucket `b` counts descents of depth `2^(b-1) ..= 2^b - 1` (bucket
    /// 0 holds the degenerate zero-node case, the last bucket
    /// saturates). This is the production-observable form of the
    /// fat-leaf miss-reduction claim: shrinking depth moves mass into
    /// lower buckets.
    pub depth_hist: [u64; DEPTH_BUCKETS],
    /// Sum of all observed descent depths (`depth_sum / modify ops` =
    /// mean nodes touched per descent).
    pub depth_sum: u64,
    /// Sampled per-op-type latency histograms (all empty when
    /// `feature = "obs-latency"` is off or recording is disabled).
    pub latency: LatencySnapshot,
    /// The latest window of slow-op records (ops that crossed
    /// [`LatencyConfig::slow_op_ns`]); oldest first from a single tree,
    /// slowest first after [`merge`](MetricsSnapshot::merge).
    pub slow_ops: Vec<SlowOp>,
    /// Reclamation health at snapshot time (see
    /// [`ReclaimGauges`]); all zeros under schemes
    /// without deferred state, like `Leaky`.
    pub reclaim: ReclaimGauges,
    /// Node-pool hit/recycle stats at snapshot time (see
    /// [`PoolStats`]); all zeros when the tree runs with the pool
    /// disabled. `hits`/`misses` are flushed from handles on re-pin and
    /// drop, so mid-loop snapshots may lag a handle's batched counts.
    pub pool: PoolStats,
    /// Serving-tier connection/backpressure gauges (see
    /// [`ServeGauges`]); all zeros on snapshots taken from a bare tree —
    /// only connection-owning front ends populate them.
    pub serve: ServeGauges,
}

impl MetricsSnapshot {
    /// Folds another snapshot into this one, producing the aggregate view
    /// a sharded front end (e.g. `ShardedMap::metrics`) reports for N
    /// independent trees: every row of [`METRIC_ROWS`] combines under its
    /// [`Merge`] rule.
    ///
    /// Counters, pool and serve stats (workers own disjoint connections),
    /// histogram cells and the retired backlog are *sums*; `max_depth`,
    /// the reclaim epoch and the epoch lag are *maxima* (each shard owns
    /// an independent reclaimer, so the worst shard is the health
    /// signal). `pinned_threads` is summed per shard — a thread pinned in
    /// several shards at once counts once per shard. Slow-op records
    /// concatenate, slowest first, capped at the per-tree ring size.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for row in METRIC_ROWS {
            match &row.value {
                Value::Scalar(_, fold) => fold(self, other, row.merge),
                Value::Family(family) => (family.fold)(self, other),
                Value::PerWorker(_) | Value::PerOp(_) => {}
            }
        }
    }

    /// The snapshot as one flat JSON object, one member per row of
    /// [`METRIC_ROWS`] in table order (no dependencies — the same
    /// hand-rolled dialect as the bench schema). Latency histograms
    /// render as per-op-type summary objects (`{count, sum, max, p50,
    /// p99, p999}`, percentiles computed from the full-resolution slots);
    /// `slow_ops` as the captured count.
    pub fn to_json(&self) -> String {
        format!("{{{}}}", render_json(METRIC_ROWS, self))
    }

    /// The snapshot in the Prometheus text exposition format, ready to
    /// serve from a `/metrics` endpoint. Latency renders as one
    /// histogram family (`nmbst_op_latency_ns`) with an `op` label per
    /// op type, cumulative `le` buckets at the power-of-two bounds.
    pub fn to_prometheus(&self) -> String {
        render_prometheus(METRIC_ROWS, self)
    }
}

/// One line, `key=value` per row of [`METRIC_ROWS`]; the histogram
/// families show a one-number summary (`mean_depth≈`, `lat_samples=`).
impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tokens: Vec<String> = METRIC_ROWS
            .iter()
            .map(|row| match &row.value {
                Value::Family(family) => (family.show)(self),
                value => format!("{}={}", row.key, value.json(self)),
            })
            .collect();
        f.write_str(&tokens.join(" "))
    }
}

/// The Prometheus type of a metric [`Row`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic; the Prometheus name ends in `_total`.
    Counter,
    /// A point sample.
    Gauge,
    /// A histogram family (`_bucket`/`_sum`/`_count` series).
    Histogram,
}

impl Kind {
    /// The kind as a `# TYPE` line names it.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// How two sources' values of one [`Row`] combine in
/// [`MetricsSnapshot::merge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    /// Sources own disjoint counts: add them (histograms cell by cell).
    Sum,
    /// The worst source is the signal: keep the larger.
    Max,
}

/// Where a [`Row`]'s values come from, which fixes how they render.
pub enum Value<S> {
    /// One number: its reader, and the fold that merges another
    /// source's number into it under the row's [`Merge`] rule.
    Scalar(fn(&S) -> i128, fn(&mut S, &S, Merge)),
    /// One number per reactor worker: `worker="i"` series, a JSON array.
    PerWorker(fn(&S) -> Vec<u64>),
    /// One number per opcode the source lists: `op="name"` series, a
    /// JSON object.
    PerOp(fn(&S) -> Vec<(&'static str, u64)>),
    /// A histogram family, rendered by its own functions.
    Family(Family<S>),
}

impl<S> Value<S> {
    /// A number read from a live source that is never merged (server
    /// counters are read from their atomics at scrape time).
    pub const fn live(get: fn(&S) -> i128) -> Self {
        Value::Scalar(get, |_, _, _| {})
    }

    /// The JSON value (what follows `"key":`).
    fn json(&self, s: &S) -> String {
        match self {
            Value::Scalar(get, _) => get(s).to_string(),
            Value::PerWorker(get) => format!("[{}]", comma_list(get(s))),
            Value::PerOp(get) => {
                let members = get(s).into_iter().map(|(op, v)| format!("\"{op}\":{v}"));
                format!("{{{}}}", comma_list(members))
            }
            Value::Family(family) => (family.json)(s),
        }
    }

    /// Writes the sample lines of the metric `name`.
    fn write_samples(&self, s: &S, name: &str, out: &mut String) {
        match self {
            Value::Scalar(get, _) => {
                let _ = writeln!(out, "{name} {}", get(s));
            }
            Value::PerWorker(get) => {
                for (w, v) in get(s).iter().enumerate() {
                    let _ = writeln!(out, "{name}{{worker=\"{w}\"}} {v}");
                }
            }
            Value::PerOp(get) => {
                for (op, v) in get(s) {
                    let _ = writeln!(out, "{name}{{op=\"{op}\"}} {v}");
                }
            }
            Value::Family(family) => (family.prom)(s, name, out),
        }
    }
}

/// The renderers of a histogram-family [`Row`].
pub struct Family<S> {
    /// The JSON value that follows the row's key.
    pub json: fn(&S) -> String,
    /// Appends the family's sample lines under the given metric name.
    pub prom: fn(&S, &str, &mut String),
    /// The family's `Display` summary.
    pub show: fn(&S) -> String,
    /// Merges another source's family into this one.
    pub fold: fn(&mut S, &S),
}

/// One exposed metric: everything JSON, Prometheus, `Display` and
/// [`MetricsSnapshot::merge`] need to know about it. A table of rows is
/// the single place a metric is declared; [`render_json`] and
/// [`render_prometheus`] render any table.
pub struct Row<S> {
    /// JSON member key, also the `Display` label.
    pub key: &'static str,
    /// Prometheus metric name.
    pub prom: &'static str,
    /// Prometheus type.
    pub kind: Kind,
    /// How two sources' values combine.
    pub merge: Merge,
    /// Where the values come from.
    pub value: Value<S>,
    /// Prometheus `# HELP` text.
    pub help: &'static str,
}

/// A [`Row`] from its fields in declaration order, naming the [`Kind`]
/// and [`Merge`] variants bare: `metric_row!("frames",
/// "nmbst_server_frames_total", Counter, Sum, value, "help")`.
#[macro_export]
macro_rules! metric_row {
    ($key:literal, $prom:literal, $kind:ident, $merge:ident, $value:expr, $help:literal) => {
        $crate::obs::Row {
            key: $key,
            prom: $prom,
            kind: $crate::obs::Kind::$kind,
            merge: $crate::obs::Merge::$merge,
            value: $value,
            help: $help,
        }
    };
}

/// `rows` as comma-separated JSON object members (`"key":value`),
/// without the enclosing braces.
pub fn render_json<S>(rows: &[Row<S>], s: &S) -> String {
    let members = rows.iter().map(|row| (row.key, row.value.json(s)));
    comma_list(members.map(|(key, value)| format!("\"{key}\":{value}")))
}

/// `rows` in the Prometheus text format: `# HELP`, `# TYPE`, then the
/// samples. A row with no samples (an opcode-labelled series
/// nothing has touched yet) is left out entirely, since a declared
/// metric without samples fails exposition validation.
pub fn render_prometheus<S>(rows: &[Row<S>], s: &S) -> String {
    let (mut out, mut samples) = (String::new(), String::new());
    for row in rows {
        samples.clear();
        row.value.write_samples(s, row.prom, &mut samples);
        if !samples.is_empty() {
            let (name, help, kind) = (row.prom, row.help, row.kind.name());
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{samples}"
            ));
        }
    }
    out
}

fn comma_list<T: ToString>(items: impl IntoIterator<Item = T>) -> String {
    let items: Vec<String> = items.into_iter().map(|v| v.to_string()).collect();
    items.join(",")
}

/// A scalar row's value: a snapshot field, read as a number and folded
/// under the row's merge rule.
macro_rules! field {
    ($($f:ident).+) => {
        Value::Scalar(
            |s| s.$($f).+ as i128,
            |a, b, rule| match rule {
                Merge::Sum => a.$($f).+ += b.$($f).+,
                Merge::Max => a.$($f).+ = a.$($f).+.max(b.$($f).+),
            },
        )
    };
}

/// The descent-depth histogram. JSON carries the raw power-of-two cells
/// plus a `depth_sum` sibling; Prometheus uses cumulative `le` buckets.
const DEPTH: Family<MetricsSnapshot> = Family {
    json: |s| {
        let cells = comma_list(s.depth_hist);
        format!("[{cells}],\"depth_sum\":{}", s.depth_sum)
    },
    prom: |s, name, out| {
        let mut cumulative = 0u64;
        for (b, count) in s.depth_hist.iter().enumerate() {
            cumulative += count;
            // Bucket b covers 2^(b-1) ..= 2^b - 1; its upper bound is
            // 2^b - 1 (bucket 0 is the exact-zero bucket). The saturated
            // last bucket is unbounded, so it folds into +Inf.
            if b + 1 < DEPTH_BUCKETS {
                let le = (1u64 << b) - 1;
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
            }
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(out, "{name}_sum {}", s.depth_sum);
        let _ = writeln!(out, "{name}_count {cumulative}");
    },
    show: |s| {
        let descents = s.depth_hist.iter().sum::<u64>().max(1);
        format!("mean_depth≈{:.1}", s.depth_sum as f64 / descents as f64)
    },
    fold: |a, b| {
        for (dst, src) in a.depth_hist.iter_mut().zip(b.depth_hist.iter()) {
            *dst += src;
        }
        a.depth_sum += b.depth_sum;
    },
};

/// The per-op-class latency histograms: one `op`-labelled series each.
const LATENCY: Family<MetricsSnapshot> = Family {
    json: |s| {
        let classes = s.latency.by_class();
        let members = classes.map(|(op, h)| format!("\"{op}\":{}", h.summary_json()));
        format!("{{{}}}", members.join(","))
    },
    prom: |s, name, out| {
        for (label, h) in s.latency.by_class() {
            h.fmt_prometheus_series(out, name, &format!("op=\"{label}\""));
        }
    },
    show: |s| format!("lat_samples={}", s.latency.len()),
    fold: |a, b| a.latency.merge(&b.latency),
};

/// The slow-op records render as their count; merging keeps the
/// slowest, up to one tree's ring size.
const SLOW_OPS: Value<MetricsSnapshot> = Value::Scalar(
    |s| s.slow_ops.len() as i128,
    |a, b, _| {
        a.slow_ops.extend_from_slice(&b.slow_ops);
        a.slow_ops.sort_by_key(|r| std::cmp::Reverse(r.ns));
        a.slow_ops.truncate(super::slow::TREE_SLOW_CAP);
    },
);

/// Every metric a [`MetricsSnapshot`] exposes, in exposition order: the
/// one declaration behind [`merge`](MetricsSnapshot::merge),
/// [`to_json`](MetricsSnapshot::to_json),
/// [`to_prometheus`](MetricsSnapshot::to_prometheus) and `Display`.
/// Each snapshot field belongs to exactly one row; adding a metric means
/// adding a row.
#[rustfmt::skip]
pub static METRIC_ROWS: &[Row<MetricsSnapshot>] = &[
    metric_row!("searches", "nmbst_searches_total", Counter, Sum, field!(searches),
        "Search operations."),
    metric_row!("inserts", "nmbst_inserts_total", Counter, Sum, field!(inserts),
        "Insert operations (incl. duplicate-rejected)."),
    metric_row!("inserted", "nmbst_inserted_total", Counter, Sum, field!(inserted),
        "Inserts that added a key."),
    metric_row!("removes", "nmbst_removes_total", Counter, Sum, field!(removes),
        "Remove operations (incl. key-absent)."),
    metric_row!("removed", "nmbst_removed_total", Counter, Sum, field!(removed),
        "Removes that deleted a key."),
    metric_row!("helps", "nmbst_helps_total", Counter, Sum, field!(helps),
        "Operations that helped a conflicting delete."),
    metric_row!("finger_hits", "nmbst_finger_hits_total", Counter, Sum, field!(finger_hits),
        "Batch ops whose finger anchor revalidated."),
    metric_row!("finger_misses", "nmbst_finger_misses_total", Counter, Sum, field!(finger_misses),
        "Batch ops that fell back to a full root descent."),
    metric_row!("run_riders", "nmbst_run_riders_total", Counter, Sum, field!(run_riders),
        "Batch inserts published with an earlier insert's leaf group."),
    metric_row!("size_estimate", "nmbst_size_estimate", Gauge, Sum, field!(size_estimate),
        "Live keys (inserted - removed; exact at quiescence)."),
    metric_row!("max_depth", "nmbst_max_depth", Gauge, Max, field!(max_depth),
        "Deepest access path observed by a modify-path seek."),
    metric_row!("depth_hist", "nmbst_descent_depth", Histogram, Sum, Value::Family(DEPTH),
        "Nodes touched per modify-path descent."),
    metric_row!("latency", "nmbst_op_latency_ns", Histogram, Sum, Value::Family(LATENCY),
        "Sampled operation latency by op type (ns)."),
    metric_row!("slow_ops", "nmbst_slow_ops_captured", Gauge, Sum, SLOW_OPS,
        "Slow-op records currently in the capture ring."),
    metric_row!("reclaim_epoch", "nmbst_reclaim_epoch", Gauge, Max, field!(reclaim.epoch),
        "Reclaimer global epoch."),
    metric_row!("reclaim_epoch_lag", "nmbst_reclaim_epoch_lag", Gauge, Max,
        field!(reclaim.epoch_lag), "Global epoch minus oldest pinned epoch."),
    metric_row!("reclaim_pinned_threads", "nmbst_reclaim_pinned_threads", Gauge, Sum,
        field!(reclaim.pinned_threads), "Threads currently pinned."),
    metric_row!("reclaim_retired_backlog", "nmbst_reclaim_retired_backlog", Gauge, Sum,
        field!(reclaim.retired_backlog), "Objects retired but not yet freed."),
    metric_row!("pool_hits", "nmbst_pool_hits_total", Counter, Sum, field!(pool.hits),
        "Node allocations served from recycled pool memory."),
    metric_row!("pool_misses", "nmbst_pool_misses_total", Counter, Sum, field!(pool.misses),
        "Node allocations that fell through to the allocator."),
    metric_row!("pool_recycled", "nmbst_pool_recycled_total", Counter, Sum, field!(pool.recycled),
        "Reclaimed nodes returned to the pool."),
    metric_row!("pool_dropped", "nmbst_pool_dropped_total", Counter, Sum, field!(pool.dropped),
        "Reclaimed nodes the full or contended pool abandoned in place."),
    metric_row!("pool_len", "nmbst_pool_len", Gauge, Sum, field!(pool.len),
        "Free blocks currently in the shared pool."),
    metric_row!("pool_capacity", "nmbst_pool_capacity", Gauge, Sum, field!(pool.capacity),
        "Maximum free blocks the shared pool holds."),
    metric_row!("pool_live", "nmbst_pool_live", Gauge, Sum, field!(pool.live),
        "Arena slots in use: reachable, awaiting reclamation, or cached by handles."),
    metric_row!("open_connections", "nmbst_serve_open_connections", Gauge, Sum,
        field!(serve.open_connections),
        "Connections currently registered with serving reactors."),
    metric_row!("read_paused_connections", "nmbst_serve_read_paused_connections", Gauge, Sum,
        field!(serve.read_paused_connections),
        "Connections read-paused by write-buffer backpressure."),
    metric_row!("write_buffered_bytes", "nmbst_serve_write_buffered_bytes", Gauge, Sum,
        field!(serve.write_buffered_bytes),
        "Bytes in not-yet-flushed per-connection write buffers."),
    metric_row!("backpressure_events", "nmbst_serve_backpressure_events_total", Counter, Sum,
        field!(serve.backpressure_events),
        "Connections that transitioned into the read-paused state."),
];
