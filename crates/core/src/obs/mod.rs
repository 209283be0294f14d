//! Observability: an always-on metrics facade and a feature-gated flight
//! recorder.
//!
//! The paper's claims are claims about *events* — one CAS per insert, a
//! 1-CAS/1-BTS/1-CAS delete, helping that never allocates, splices that
//! excise whole chains. This module makes those events visible on a
//! running tree, at two very different price points:
//!
//! * **Metrics** ([`MetricsSnapshot`]) are always compiled in. Operation
//!   counters live in cache-padded shards bumped with one relaxed
//!   `fetch_add` at the plain-API entry points (handles batch in plain
//!   fields and flush on re-pin, so the hot loop pays nothing per op);
//!   gauges (tree size estimate, max observed depth, and the reclamation
//!   health gauges of [`nmbst_reclaim::ReclaimGauges`]) are folded in at
//!   snapshot time. Exposition is JSON or Prometheus text.
//! * **The flight recorder** (`FlightRecorder`, `feature = "obs"`) is a
//!   fixed-capacity, per-thread, lock-free ring of structural events with
//!   a monotonic sequence number. It records from the same code sites
//!   `chaos` hooks — the injection points *are* the algorithm's atomic
//!   steps, so a trace of them is a replayable interleaving. Without the
//!   feature every `emit` call is an empty `#[inline(always)]` function
//!   and the event argument is dead code the optimizer deletes: the
//!   default build carries no ring, no sequence counter, no branch.
//!
//! The payoff: when the schedule explorer in `nmbst-lincheck` finds a
//! linearizability violation, it dumps the merged, sequence-ordered
//! trace as a postmortem, so the violating interleaving can be read
//! without re-running the explorer.
//!
//! A third price point sits between the two (`feature = "obs-latency"`,
//! default on): **latency distributions**. [`hist`] holds the
//! concurrent log-bucketed histogram; [`slow`] the lock-free ring of
//! slow-op records; recording follows the metrics cost discipline
//! (sampled point ops, handle-buffered flush on re-pin — see
//! [`LatencyConfig`]). Disabling the feature compiles the timers down
//! to zero-sized tokens and empty inlines.

pub mod hist;
mod metrics;
pub mod slow;
#[cfg(feature = "obs")]
mod trace;

mod prom;

pub use hist::{ConcurrentHistogram, Histogram, LatencySnapshot};
pub use metrics::{
    render_json, render_prometheus, Family, Kind, LatencyConfig, Merge, MetricsSnapshot, Row,
    ServeGauges, Value, DEPTH_BUCKETS, METRIC_ROWS,
};
pub(crate) use metrics::{LatTimer, Metrics, PendingLat, PendingOps};
pub use prom::validate_prometheus;
pub use slow::{slow_event_name, SlowOp, SLOW_EVENTS};
#[cfg(feature = "obs")]
pub(crate) use trace::emit;
#[cfg(feature = "obs")]
pub use trace::{FlightRecorder, RecorderGuard, TraceEvent};

/// The operation classes latency is recorded under — one concurrent
/// histogram per class (see [`hist::LatencySnapshot`]), and the `kind`
/// discriminant of tree-deposited [`slow::SlowOp`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpClass {
    /// `contains` / `get` / `with_value` / `get_batch`.
    Get = 0,
    /// `insert` (plain API or sampled handle op).
    Insert = 1,
    /// `remove` / `remove_get`.
    Remove = 2,
    /// A whole `insert_batch` / `remove_batch` / `get_batch` call
    /// (timed per call, not per key).
    Batch = 3,
    /// A whole `range_for_each` / `range_collect` call.
    Range = 4,
}

impl OpClass {
    /// Number of op classes (the histogram array length).
    pub const COUNT: usize = 5;

    /// The class's label in exposition output (`op="..."`).
    pub fn label(self) -> &'static str {
        match self {
            OpClass::Get => "get",
            OpClass::Insert => "insert",
            OpClass::Remove => "remove",
            OpClass::Batch => "batch",
            OpClass::Range => "range",
        }
    }

    /// The class for a stored discriminant, if in range.
    pub fn from_u8(v: u8) -> Option<OpClass> {
        match v {
            0 => Some(OpClass::Get),
            1 => Some(OpClass::Insert),
            2 => Some(OpClass::Remove),
            3 => Some(OpClass::Batch),
            4 => Some(OpClass::Range),
            _ => None,
        }
    }
}

/// A structural event of the algorithm, as recorded by the
/// `FlightRecorder` (`feature = "obs"`).
///
/// Each variant corresponds to one step of Algorithms 1–4 (and the two
/// handle/retry affordances layered on top); all but `SeekStart` and
/// `Repin` coincide with a `chaos` injection point, so a recorded trace
/// reads as the schedule a fault plan or the explorer drove.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A full root-to-leaf seek began (Algorithm 1).
    SeekStart,
    /// A retry restarted descent from a revalidated local anchor instead
    /// of the root.
    LocalRestart,
    /// A delete's injection CAS succeeded: the victim's incoming edge is
    /// now flagged. This is the delete's linearization point.
    InjectFlag,
    /// Cleanup tagged the sibling edge that will be hoisted (Algorithm 4,
    /// line 106).
    TagSibling,
    /// Cleanup's splice CAS at the ancestor succeeded, excising a chain
    /// of `chain_len` nodes (Algorithm 4, lines 107–108). Emitted after
    /// the detached chain has been walked, so it sequences *after* this
    /// delete's `Retire`.
    Splice {
        /// Number of nodes the splice physically unlinked.
        chain_len: u32,
    },
    /// An operation began helping a conflicting delete's cleanup instead
    /// of its own work (Algorithm 2 lines 55–57 / Algorithm 3).
    Help,
    /// A won splice is about to retire its detached chain.
    Retire,
    /// A pin-amortizing handle refreshed its reclamation guard.
    Repin,
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventKind::SeekStart => f.write_str("SeekStart"),
            EventKind::LocalRestart => f.write_str("LocalRestart"),
            EventKind::InjectFlag => f.write_str("InjectFlag"),
            EventKind::TagSibling => f.write_str("TagSibling"),
            EventKind::Splice { chain_len } => write!(f, "Splice{{chain_len={chain_len}}}"),
            EventKind::Help => f.write_str("Help"),
            EventKind::Retire => f.write_str("Retire"),
            EventKind::Repin => f.write_str("Repin"),
        }
    }
}

/// Records `kind` into the current thread's attached flight-recorder
/// ring. No-op (and fully compiled away) when `feature = "obs"` is off
/// or no recorder is attached.
#[cfg(not(feature = "obs"))]
#[inline(always)]
pub(crate) fn emit(kind: EventKind) {
    let _ = kind;
}
