//! Run publishes against a `BTreeMap` model, at every leaf capacity.
//!
//! Consecutive inserts of a sorted run that land in one leaf publish
//! together: the block's entries merged with the run's fresh keys,
//! rebuilt as a balanced subtree of blocks, installed with one CAS.
//! These tests pin down that the replies and the final contents are
//! still exactly those of executing the commands one at a time in input
//! order — duplicates inside a run, keys already in the target block,
//! insert→remove→insert of one key in one frame, reads that split a
//! run, runs that stop at the leaf's upper bound, runs into the ∞₀
//! sentinel — and that every value is dropped exactly once, including
//! when a publish is abandoned.

use nmbst::chaos::{self, Action, Point};
use nmbst::{BatchCmd, BatchScratch, BatchVerdict, NmTreeMap, ShardedMap, TreeConfig, LEAF_CAP};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

/// A value that counts its live copies: `+1` on creation and clone,
/// `−1` on drop. A leak leaves the count high, a double drop low.
#[derive(Debug)]
struct Tracked {
    v: u64,
    live: Arc<AtomicIsize>,
}

impl Tracked {
    fn new(v: u64, live: &Arc<AtomicIsize>) -> Self {
        live.fetch_add(1, Ordering::Relaxed);
        Tracked {
            v,
            live: Arc::clone(live),
        }
    }
}

impl Clone for Tracked {
    fn clone(&self) -> Self {
        Tracked::new(self.v, &self.live)
    }
}

impl PartialEq for Tracked {
    fn eq(&self, other: &Self) -> bool {
        self.v == other.v
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

type Cmd = BatchCmd<u64, Tracked>;

/// The verdicts of running `cmds` one at a time in input order against
/// the model, as `(kind, payload)` pairs comparable with the map's.
fn model_run(model: &mut BTreeMap<u64, u64>, cmds: &[Cmd]) -> Vec<(u8, u64)> {
    cmds.iter()
        .map(|c| match c {
            BatchCmd::Get(k) => model.get(k).map_or((1, 0), |&v| (0, v)),
            BatchCmd::Insert(k, v) => {
                let fresh = !model.contains_key(k);
                if fresh {
                    model.insert(*k, v.v);
                }
                (2, u64::from(fresh))
            }
            BatchCmd::Remove(k) => (3, u64::from(model.remove(k).is_some())),
        })
        .collect()
}

fn flatten(out: &[BatchVerdict<Tracked>]) -> Vec<(u8, u64)> {
    out.iter()
        .map(|v| match v {
            BatchVerdict::Found(t) => (0, t.v),
            BatchVerdict::Missing => (1, 0),
            BatchVerdict::Added(a) => (2, u64::from(*a)),
            BatchVerdict::Removed(r) => (3, u64::from(*r)),
        })
        .collect()
}

fn ins(k: u64, live: &Arc<AtomicIsize>) -> Cmd {
    BatchCmd::Insert(k, Tracked::new(k * 10 + 1, live))
}

/// One shard, so every command of a frame lands in one sorted run.
struct Fixture {
    map: ShardedMap<u64, Tracked>,
    model: BTreeMap<u64, u64>,
    scratch: BatchScratch,
    out: Vec<BatchVerdict<Tracked>>,
}

impl Fixture {
    fn new(cap: usize) -> Self {
        Fixture {
            map: ShardedMap::with_config(1, TreeConfig::default().with_leaf_cap(cap)),
            model: BTreeMap::new(),
            scratch: BatchScratch::new(),
            out: Vec::new(),
        }
    }

    /// Runs one frame through the fused executor and checks replies,
    /// invariants and contents against the model.
    fn frame(&mut self, cmds: &[Cmd], what: &str) {
        let want = model_run(&mut self.model, cmds);
        self.map
            .handle()
            .execute_batch(cmds, &mut self.scratch, &mut self.out);
        assert_eq!(flatten(&self.out), want, "{what}: replies");
        self.out.clear();
        let shapes = self
            .map
            .check_invariants()
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(shapes[0].user_keys, self.model.len(), "{what}: size");
        let got: Vec<(u64, u64)> = self
            .map
            .range_collect(..)
            .into_iter()
            .map(|(k, t)| (k, t.v))
            .collect();
        let want: Vec<(u64, u64)> = self.model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want, "{what}: contents");
    }
}

#[test]
fn run_groups_match_the_model_at_every_leaf_cap() {
    let live = Arc::new(AtomicIsize::new(0));
    for cap in 1..=LEAF_CAP {
        let mut f = Fixture::new(cap);
        let l = &live;
        let what = |s: &str| format!("cap {cap}: {s}");

        // Into the empty tree: the whole run is one group at the ∞₀
        // sentinel, with duplicates inside it (the first one wins).
        f.frame(
            &[
                ins(10, l),
                ins(5, l),
                ins(7, l),
                ins(5, l),
                ins(30, l),
                ins(7, l),
            ],
            &what("run into the ∞₀ sentinel, duplicates inside"),
        );
        // Keys already present in the target block, mixed with fresh
        // ones and a duplicate of a fresh one.
        f.frame(
            &[
                ins(6, l),
                ins(7, l),
                ins(8, l),
                ins(9, l),
                ins(8, l),
                ins(10, l),
                ins(11, l),
            ],
            &what("keys already in the block"),
        );
        // Insert → remove → insert of one key in one frame: the remove
        // splits the run and the second insert wins the key back.
        f.frame(
            &[
                ins(40, l),
                BatchCmd::Remove(40),
                ins(40, l),
                ins(41, l),
                ins(39, l),
            ],
            &what("insert, remove, insert of one key"),
        );
        // A get between inserts splits the run and must see exactly the
        // inserts ordered before it.
        f.frame(
            &[
                ins(50, l),
                ins(52, l),
                BatchCmd::Get(51),
                ins(51, l),
                ins(53, l),
                BatchCmd::Get(52),
                BatchCmd::Get(51),
            ],
            &what("gets splitting a run"),
        );
        // A wide run over a populated tree: every group stops at its
        // leaf's upper bound and the next one re-descends.
        let wide: Vec<Cmd> = (0..64).map(|k| ins(k * 3, l)).collect();
        f.frame(&wide, &what("a run across many leaves"));
        let odds: Vec<Cmd> = (0..96).rev().map(|k| ins(2 * k + 1, l)).collect();
        f.frame(&odds, &what("a descending frame"));
        // Empty the tree (block removes, splices down to the sentinel),
        // then run into the ∞₀ sentinel again.
        let all: Vec<Cmd> = f.model.keys().map(|&k| BatchCmd::Remove(k)).collect();
        f.frame(&all, &what("remove everything"));
        let again: Vec<Cmd> = (0..40).map(|k| ins(k * 2, l)).collect();
        f.frame(&again, &what("a run into the emptied tree"));

        // Seeded mixed frames: inserts dominate so runs form, removes
        // keep splicing, gets split runs at random.
        let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ cap as u64;
        for round in 0..60 {
            let cmds: Vec<Cmd> = (0..48)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let k = (state >> 33) % 160;
                    match (state >> 20) % 10 {
                        0..=5 => ins(k, l),
                        6 | 7 => BatchCmd::Remove(k),
                        _ => BatchCmd::Get(k),
                    }
                })
                .collect();
            f.frame(&cmds, &what(&format!("mixed round {round}")));
        }
    }
    assert_eq!(live.load(Ordering::Relaxed), 0, "every value dropped once");
}

#[test]
fn insert_batch_groups_match_the_model_at_every_leaf_cap() {
    let live = Arc::new(AtomicIsize::new(0));
    for cap in 1..=LEAF_CAP {
        let mut map: NmTreeMap<u64, Tracked> =
            NmTreeMap::with_config(TreeConfig::default().with_leaf_cap(cap));
        let mut model = BTreeMap::new();
        let mut state = 0xD1B5_4A32_D192_ED03u64 ^ cap as u64;
        for round in 0..40 {
            let items: Vec<(u64, Tracked)> = (0..32)
                .map(|i| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let k = (state >> 33) % 200;
                    (k, Tracked::new(round * 100 + i, &live))
                })
                .collect();
            let mut want = 0;
            for (k, t) in &items {
                if !model.contains_key(k) {
                    model.insert(*k, t.v);
                    want += 1;
                }
            }
            assert_eq!(
                map.handle().insert_batch(items),
                want,
                "cap {cap} round {round}"
            );
            if round % 4 == 3 {
                let doomed: Vec<u64> = model.keys().copied().step_by(3).collect();
                for k in &doomed {
                    model.remove(k);
                }
                assert_eq!(map.handle().remove_batch(doomed.clone()), doomed.len());
            }
            let shape = map.check_invariants().expect("invariants");
            assert_eq!(shape.user_keys, model.len(), "cap {cap} round {round}");
        }
        let got: Vec<(u64, u64)> = map
            .range_collect(..)
            .into_iter()
            .map(|(k, t)| (k, t.v))
            .collect();
        let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want, "cap {cap}: contents");
    }
    assert_eq!(live.load(Ordering::Relaxed), 0, "every value dropped once");
}

/// Abandoning every publish (`Point::InsertPublish`) rejects every op of
/// the group, leaves the tree untouched, and still drops every value
/// exactly once — cloned command values in the fused path, moved
/// values in `insert_batch`.
#[test]
fn abandoned_run_publishes_leave_no_trace_and_drop_values_once() {
    let live = Arc::new(AtomicIsize::new(0));
    for cap in 1..=LEAF_CAP {
        let mut f = Fixture::new(cap);
        let l = &live;
        let seed: Vec<Cmd> = (0..24).map(|k| ins(k * 4, l)).collect();
        f.frame(&seed, "seed");
        let before = f.map.range_collect(..).len();
        let cmds: Vec<Cmd> = (0..48).map(|k| ins(k * 2 + 1, l)).collect();
        let publishes = chaos::with_hook(
            |p| {
                if p == Point::InsertPublish {
                    Action::Abandon
                } else {
                    Action::Continue
                }
            },
            || {
                f.map
                    .handle()
                    .execute_batch(&cmds, &mut f.scratch, &mut f.out);
                let mut h = f.map.shard(0).handle();
                h.insert_batch((100..140).map(|k| (k, Tracked::new(k, l))))
            },
        );
        assert_eq!(publishes, 0, "cap {cap}: abandoned inserts add nothing");
        assert!(
            f.out.iter().all(|v| *v == BatchVerdict::Added(false)),
            "cap {cap}: every abandoned op is rejected"
        );
        f.out.clear();
        assert_eq!(f.map.range_collect(..).len(), before, "cap {cap}");
        f.map.check_invariants().expect("invariants");
        drop(cmds);
    }
    assert_eq!(live.load(Ordering::Relaxed), 0, "every value dropped once");
}

/// `BatchRun::execute` takes the caller's order as given: an unsorted
/// insert stretch must still execute exactly as one op at a time in
/// that order — a key below its predecessor ends the group, since it
/// may route to another leaf.
#[test]
fn unsorted_insert_stretches_execute_in_the_given_order() {
    let live = Arc::new(AtomicIsize::new(0));
    for cap in 1..=LEAF_CAP {
        let mut map: NmTreeMap<u64, Tracked> =
            NmTreeMap::with_config(TreeConfig::default().with_leaf_cap(cap));
        let mut model = BTreeMap::new();
        let mut state = 0xC0FF_EE00_D15E_A5E5u64 ^ cap as u64;
        for round in 0..30 {
            let cmds: Vec<Cmd> = (0..40)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let k = (state >> 33) % 120;
                    if (state >> 20).is_multiple_of(8) {
                        BatchCmd::Remove(k)
                    } else {
                        ins(k, &live)
                    }
                })
                .collect();
            // Ascending stretches broken by random descents.
            let mut order: Vec<u32> = (0..cmds.len() as u32).collect();
            order.sort_by_key(|&p| (cmds[p as usize].key() / 16, p));
            let in_order: Vec<Cmd> = order.iter().map(|&p| cmds[p as usize].clone()).collect();
            let want = model_run(&mut model, &in_order);
            drop(in_order);
            let mut out = vec![BatchVerdict::Missing; cmds.len()];
            map.handle().batch_run().execute(&cmds, &order, &mut out);
            let got: Vec<BatchVerdict<Tracked>> =
                order.iter().map(|&p| out[p as usize].clone()).collect();
            assert_eq!(flatten(&got), want, "cap {cap} round {round}");
            let shape = map.check_invariants().expect("invariants");
            assert_eq!(shape.user_keys, model.len(), "cap {cap} round {round}");
        }
    }
    assert_eq!(live.load(Ordering::Relaxed), 0, "every value dropped once");
}
