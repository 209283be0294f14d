//! Workloads, seeded input generation, and the per-client reply model.
//!
//! Every input the benchmark sends is a function of `--seed`: the load
//! order, the load values, and each client's op stream. Client `c` owns
//! the keys `k` with `k % CLIENTS == c`, so the two clients' keys
//! interleave through the whole range (they share leaves and CAS
//! targets) while each client can still predict every reply exactly.

use nmbst_harness::rng::{SplitMix64, XorShift64Star};
use nmbst_harness::zipf::ZipfGenerator;
use nmbst_server::wire::{BatchOp, BatchReply};

/// Client threads, each on its own connection.
pub const CLIENTS: usize = 2;
/// Ops per BATCH frame in the load phase.
pub const LOAD_FRAME_OPS: usize = 1024;

/// One traffic mix.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// The key range is `0 .. 2^key_bits`.
    pub key_bits: u32,
    /// Ops per frame: 1 sends single-op GET/INSERT/REMOVE frames, more
    /// sends BATCH frames of exactly this many ops.
    pub frame_ops: usize,
    /// Frames each client keeps in flight in the closed-loop phase.
    pub window: usize,
    /// GET / INSERT / REMOVE percentages.
    pub mix: [u8; 3],
    /// Zipf skew over each client's keys; `None` draws uniformly.
    pub zipf_theta: Option<f64>,
    /// Offered rate of the open-loop latency phase, ops/s over all
    /// clients: about a quarter of the closed-loop saturation measured
    /// on a 2-core KVM guest (README.md says why not half).
    pub rate_ops: f64,
}

/// The benchmark's workloads; README.md says why each exists.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "point_pipelined",
        key_bits: 20,
        frame_ops: 1,
        window: nmbst_server::Client::PIPELINE_WINDOW,
        mix: [90, 9, 1],
        zipf_theta: None,
        rate_ops: 30_000.0,
    },
    Workload {
        name: "batch_zipf",
        key_bits: 14,
        frame_ops: 256,
        window: 1,
        mix: [90, 9, 1],
        zipf_theta: Some(0.9),
        rate_ops: 600_000.0,
    },
    Workload {
        name: "batch_write",
        key_bits: 20,
        frame_ops: 64,
        window: 1,
        mix: [0, 50, 50],
        zipf_theta: None,
        rate_ops: 150_000.0,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Keys in the whole range.
    pub fn keys(&self) -> u64 {
        1 << self.key_bits
    }

    /// Keys each client owns (its "slots"; slot `s` of client `c` is key
    /// `s * CLIENTS + c`).
    pub fn slots(&self) -> u64 {
        self.keys() / CLIENTS as u64
    }
}

fn mix64(x: u64) -> u64 {
    SplitMix64::new(x).next_u64()
}

/// The value stored for `key` by the op numbered `salt`. The top bit is
/// clear, so no value collides with the model's `ABSENT` marker.
pub fn value(key: u64, salt: u64) -> u64 {
    mix64(key ^ salt.rotate_left(32)) >> 1
}

/// Whether the load phase inserts `key`: every other slot of each
/// client, so half of every client's keys start present.
pub fn loaded(key: u64) -> bool {
    (key / CLIENTS as u64).is_multiple_of(2)
}

/// The load phase: every loaded key of the range, in seeded random
/// order, cut into `LOAD_FRAME_OPS`-op insert frames.
pub fn load_frames(w: &Workload, seed: u64) -> Vec<Vec<BatchOp>> {
    let mut keys: Vec<u64> = (0..w.keys()).filter(|&k| loaded(k)).collect();
    let mut rng = XorShift64Star::from_stream(seed, u64::MAX);
    for i in (1..keys.len()).rev() {
        let j = rng.next_bounded(i as u64 + 1) as usize;
        keys.swap(i, j);
    }
    keys.chunks(LOAD_FRAME_OPS)
        .map(|c| {
            c.iter()
                .map(|&k| BatchOp::Insert(k, value(k, seed)))
                .collect()
        })
        .collect()
}

/// One client's seeded op stream over the keys it owns.
pub struct OpGen {
    rng: XorShift64Star,
    zipf: Option<ZipfGenerator>,
    slots: u64,
    client: u64,
    mix: [u8; 3],
    scatter: u64,
    seq: u64,
}

impl OpGen {
    pub fn new(w: &Workload, seed: u64, client: usize) -> OpGen {
        OpGen {
            rng: XorShift64Star::from_stream(seed, client as u64),
            zipf: w.zipf_theta.map(|t| ZipfGenerator::new(w.slots(), t)),
            slots: w.slots(),
            client: client as u64,
            mix: w.mix,
            scatter: mix64(seed ^ 0x5eed),
            seq: 0,
        }
    }

    pub fn next(&mut self) -> BatchOp {
        let slot = match &self.zipf {
            // Scatter Zipf ranks over the slots with an odd-multiplier
            // bijection so the hot keys land in both shards and move
            // with the seed.
            Some(z) => {
                z.next(&mut self.rng)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(self.scatter)
                    & (self.slots - 1)
            }
            None => self.rng.next_bounded(self.slots),
        };
        let key = slot * CLIENTS as u64 + self.client;
        self.seq += 1;
        let die = self.rng.next_percent();
        if die < self.mix[0] {
            BatchOp::Get(key)
        } else if die < self.mix[0] + self.mix[1] {
            BatchOp::Insert(key, value(key, self.seq))
        } else {
            BatchOp::Remove(key)
        }
    }
}

const ABSENT: u64 = u64::MAX;

/// The exact expected state of one client's keys.
pub struct Model {
    client: u64,
    vals: Vec<u64>,
}

impl Model {
    /// The state right after the load phase.
    pub fn loaded(w: &Workload, seed: u64, client: usize) -> Model {
        let vals = (0..w.slots())
            .map(|s| {
                let key = s * CLIENTS as u64 + client as u64;
                if loaded(key) {
                    value(key, seed)
                } else {
                    ABSENT
                }
            })
            .collect();
        Model {
            client: client as u64,
            vals,
        }
    }

    /// Applies `op` and reports whether `reply` is the one it must get.
    pub fn apply(&mut self, op: BatchOp, reply: BatchReply) -> bool {
        let slot = |k: u64| (k / CLIENTS as u64) as usize;
        match op {
            BatchOp::Get(k) => {
                let v = self.vals[slot(k)];
                reply
                    == if v == ABSENT {
                        BatchReply::Missing
                    } else {
                        BatchReply::Found(v)
                    }
            }
            BatchOp::Insert(k, v) => {
                let cur = &mut self.vals[slot(k)];
                let added = *cur == ABSENT;
                if added {
                    *cur = v;
                }
                reply == BatchReply::Added(added)
            }
            BatchOp::Remove(k) => {
                let cur = &mut self.vals[slot(k)];
                let removed = *cur != ABSENT;
                *cur = ABSENT;
                reply == BatchReply::Removed(removed)
            }
        }
    }

    /// The present `(key, value)` pairs, ascending.
    pub fn entries(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.vals
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != ABSENT)
            .map(|(s, &v)| (s as u64 * CLIENTS as u64 + self.client, v))
    }
}
