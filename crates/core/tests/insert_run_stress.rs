//! Free-running stress of the run publish path under real parallelism.
//!
//! Two threads drive `execute_batch` insert frames over interleaved
//! residue classes (removing their keys again between rounds), so their
//! runs land in the same leaves and race each other's publishing CAS:
//! the loser tears its scratch subtree down (`dismantle`) and retries. A
//! third thread churns a preloaded third class through those same
//! leaves — removing it, re-inserting it, removing it again — splicing
//! emptied blocks out, which widens the windows the inserters' groups
//! were sized against, and forcing inserters to help. Afterwards the
//! tree must satisfy its invariants, hold exactly the model's contents,
//! and account for every arena slot: no node may leak from a lost or won
//! publish.

use nmbst::{BatchCmd, BatchScratch, BatchVerdict, ShardedMap, TreeConfig};
use std::sync::Barrier;

/// Keys `0..3·PER_CLASS`; class `c` is the keys `≡ c (mod 3)`.
const PER_CLASS: u64 = 3 << 10;
const FRAME: usize = 64;
const ROUNDS: usize = 6;

/// SplitMix64, for the per-thread shuffles.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn shuffled_class(class: u64, seed: u64) -> Vec<u64> {
    let mut keys: Vec<u64> = (0..PER_CLASS).map(|i| 3 * i + class).collect();
    let mut state = seed;
    for i in (1..keys.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        keys.swap(i, j);
    }
    keys
}

/// Flushes the reclaimer until every retired node has been reclaimed.
fn drain(map: &ShardedMap<u64, u64>) {
    for _ in 0..1000 {
        map.flush();
        if map.metrics().reclaim.retired_backlog == 0 {
            return;
        }
        std::thread::yield_now();
    }
    panic!("retired nodes never drained: {:?}", map.metrics().reclaim);
}

fn stress(cap: usize, seed: u64) {
    let mut map: ShardedMap<u64, u64> =
        ShardedMap::with_config(1, TreeConfig::default().with_leaf_cap(cap));
    drain(&map);
    let baseline = map.metrics().pool.live;

    // Class 2 is preloaded, then churned (removed and re-inserted) by
    // the third thread while the inserters run; it ends absent.
    let churned = shuffled_class(2, seed ^ 2);
    {
        let mut h = map.handle();
        for &k in &churned {
            assert!(h.insert(k, k));
        }
    }

    let start = Barrier::new(3);
    std::thread::scope(|s| {
        for class in 0..2u64 {
            let (map, start) = (&map, &start);
            s.spawn(move || {
                let mut h = map.handle();
                let mut scratch = BatchScratch::new();
                let mut out = Vec::new();
                let keys = shuffled_class(class, seed ^ class);
                start.wait();
                for round in 0..ROUNDS {
                    let last = round == ROUNDS - 1;
                    for frame in keys.chunks(FRAME) {
                        let cmds: Vec<BatchCmd<u64, u64>> =
                            frame.iter().map(|&k| BatchCmd::Insert(k, k + 1)).collect();
                        h.execute_batch(&cmds, &mut scratch, &mut out);
                        assert!(
                            out.iter().all(|v| *v == BatchVerdict::Added(true)),
                            "cap {cap}: every key of class {class} is fresh"
                        );
                    }
                    if !last {
                        let cmds: Vec<BatchCmd<u64, u64>> =
                            keys.iter().map(|&k| BatchCmd::Remove(k)).collect();
                        h.execute_batch(&cmds, &mut scratch, &mut out);
                        assert!(out.iter().all(|v| *v == BatchVerdict::Removed(true)));
                    }
                }
            });
        }
        let (map, start, churned) = (&map, &start, &churned);
        s.spawn(move || {
            let mut h = map.handle();
            start.wait();
            for round in 0..ROUNDS {
                for &k in churned {
                    assert!(h.remove(&k), "cap {cap}: churned key {k} present");
                }
                if round < ROUNDS - 1 {
                    for &k in churned {
                        assert!(h.insert(k, k), "cap {cap}: churned key {k} absent");
                    }
                }
            }
        });
    });

    let shapes = map
        .check_invariants()
        .unwrap_or_else(|e| panic!("cap {cap}: {e}"));
    let want: Vec<(u64, u64)> = (0..3 * PER_CLASS)
        .filter(|k| k % 3 != 2)
        .map(|k| (k, k + 1))
        .collect();
    assert_eq!(map.range_collect(..), want, "cap {cap}: contents");

    // Every arena slot is either free, abandoned, or a reachable node.
    drain(&map);
    let nodes = shapes[0].internal_nodes + shapes[0].leaf_nodes;
    assert_eq!(
        map.metrics().pool.live,
        nodes as u64,
        "cap {cap}: slots in use vs reachable nodes"
    );

    // And once the tree is empty again, the gauge is back at baseline.
    {
        let mut h = map.handle();
        for (k, _) in want {
            assert!(h.remove(&k));
        }
    }
    drain(&map);
    assert_eq!(map.metrics().pool.live, baseline, "cap {cap}: baseline");
    map.check_invariants().expect("invariants after emptying");
}

#[test]
fn concurrent_run_publishes_with_splicing_removes() {
    for cap in [1, 2, 8] {
        for seed in [0x51u64, 0xA7] {
            stress(cap, seed);
        }
    }
}
