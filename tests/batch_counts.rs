//! Exact work counts of one `execute_batch` call: the noise-free gate
//! of the fused batch layer.
//!
//! A fixed seeded tree takes a fixed mixed batch through
//! `ShardedMapHandle::execute_batch`, and the test pins every count the
//! call produces — seeks, CASes, node allocations (arena bumps plus
//! recycled slots), finger hits/misses, grouped-insert riders and the
//! summed descent depth. Wall-clock cells swing by more than most
//! changes to this layer; these numbers move only when the work moves.
//! A change that claims to leave the batch path's work alone (a cache
//! warm-up, a reordering of loads) must leave them untouched.
//!
//! Built as a root-workspace integration test so `nmbst`'s `instrument`
//! feature is on (see the workspace `[dev-dependencies]`).

use nmbst::obs::MetricsSnapshot;
use nmbst::{stats, BatchCmd, BatchScratch, BatchVerdict, ShardedMap};
use nmbst_harness::rng::SplitMix64;
use std::collections::BTreeMap;

const KEY_SPACE: u64 = 1 << 14;
const LOADED: usize = 6_000;
const BATCH: usize = 400;
const SEED: u64 = 0x5EED_BA7C;

/// The counters one batch call moves, as deltas.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    seeks: u64,
    cas: u64,
    bts: u64,
    allocs: u64,
    finger_hits: u64,
    finger_misses: u64,
    run_riders: u64,
    depth_sum: u64,
}

fn work(ops: stats::OpStats, before: &MetricsSnapshot, after: &MetricsSnapshot) -> Work {
    Work {
        seeks: ops.seeks,
        cas: ops.cas,
        bts: ops.bts,
        // Recycled and fresh slots together: the split between them
        // follows the reclaimer's epochs, the total follows the ops.
        allocs: ops.allocs + ops.pool_hits,
        finger_hits: after.finger_hits - before.finger_hits,
        finger_misses: after.finger_misses - before.finger_misses,
        run_riders: after.run_riders - before.run_riders,
        depth_sum: after.depth_sum - before.depth_sum,
    }
}

/// A 2-shard map holding `LOADED` seeded keys, inserted one at a time
/// in seeded order, and the model of its contents.
fn seeded_map() -> (ShardedMap<u64, u64>, BTreeMap<u64, u64>) {
    let map: ShardedMap<u64, u64> = ShardedMap::with_shards(2);
    let mut model = BTreeMap::new();
    let mut rng = SplitMix64::new(SEED);
    {
        let mut h = map.handle();
        while model.len() < LOADED {
            let k = rng.next_u64() % KEY_SPACE;
            assert_eq!(h.insert(k, k), model.insert(k, k).is_none());
        }
    }
    (map, model)
}

/// A fixed batch: 40% gets, 35% inserts, 25% removes over the key
/// space, with repeated keys, so the fused run mixes finger descents,
/// insert groups, COW removes and same-key ordering.
fn mixed_batch() -> Vec<BatchCmd<u64, u64>> {
    let mut rng = SplitMix64::new(SEED ^ 0xBA7C);
    (0..BATCH)
        .map(|i| {
            let k = rng.next_u64() % KEY_SPACE;
            match rng.next_u64() % 20 {
                0..=7 => BatchCmd::Get(k),
                8..=14 => BatchCmd::Insert(k, i as u64),
                _ => BatchCmd::Remove(k),
            }
        })
        .collect()
}

#[test]
fn execute_batch_work_counts_are_exact() {
    let (map, mut model) = seeded_map();
    map.flush();
    let cmds = mixed_batch();
    let before = map.metrics();
    let mut scratch = BatchScratch::new();
    let mut out = Vec::new();
    let ((), ops) = stats::delta(|| {
        let mut h = map.handle();
        h.execute_batch(&cmds, &mut scratch, &mut out);
    });
    let after = map.metrics();

    // The verdicts are those of the ops applied one at a time in input
    // order (DESIGN.md §17).
    for (cmd, verdict) in cmds.iter().zip(&out) {
        let expect = match *cmd {
            BatchCmd::Get(k) => match model.get(&k) {
                Some(&v) => BatchVerdict::Found(v),
                None => BatchVerdict::Missing,
            },
            BatchCmd::Insert(k, v) => {
                let fresh = !model.contains_key(&k);
                if fresh {
                    model.insert(k, v);
                }
                BatchVerdict::Added(fresh)
            }
            BatchCmd::Remove(k) => BatchVerdict::Removed(model.remove(&k).is_some()),
        };
        assert_eq!(*verdict, expect, "{cmd:?}");
    }
    assert_eq!(map.range_collect(..), model.into_iter().collect::<Vec<_>>());

    assert_eq!(
        work(ops, &before, &after),
        Work {
            seeks: 278,
            cas: 133,
            bts: 0,
            allocs: 153,
            finger_hits: 110,
            finger_misses: 278,
            run_riders: 12,
            depth_sum: 3104,
        }
    );
}
