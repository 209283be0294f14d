//! Regression test for the load-phase depth defect: a bulk-loading
//! client's sorted insert runs used to build right spines (one internal
//! node per `leaf_cap` keys), so the tree's depth grew with the frame
//! size instead of with log n. Each per-leaf group of a run now
//! publishes as a balanced subtree of blocks, so depth must stay within
//! a balanced bound.
//!
//! The serving half drives the reactor's exact decode → fused execute →
//! encode path in-process through the hidden `testing` engine.

use nmbst::{NmTreeMap, TreeConfig, LEAF_CAP};
use nmbst_server::testing::with_local_engine_over;
use nmbst_server::wire::{
    split_frame, BatchOp, BatchReply, FrameSplit, Request, Response, OP_BATCH,
};
use nmbst_server::Store;

/// The balanced bound for a tree of `n` keys in blocks of `cap`: twice
/// the depth of a perfectly packed tree, plus the sentinel levels above
/// the user area (R → S → the ∞₀ top) and one level of slack.
fn balanced_bound(n: usize, cap: usize) -> usize {
    let blocks = n.div_ceil(cap).max(1);
    2 * blocks.next_power_of_two().trailing_zeros() as usize + 4
}

/// SplitMix64: the seeded shuffle of the load order.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn encode_req(req: &Request) -> Vec<u8> {
    let mut body = Vec::new();
    req.encode(&mut body);
    body
}

/// Bulk-loads every other key of 2^14 in seeded random order as 1024-op
/// insert BATCH frames — the serving benchmark's load phase — and
/// checks every reply and the depth of every shard.
#[test]
fn bulk_load_frames_build_balanced_shards() {
    const KEYS: u64 = 1 << 14;
    let mut keys: Vec<u64> = (0..KEYS).step_by(2).collect();
    let mut state = 401;
    for i in (1..keys.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        keys.swap(i, j);
    }

    let mut store = Store::with_config(2, TreeConfig::default());
    with_local_engine_over(&store, true, |eng| {
        let mut out = Vec::new();
        for frame in keys.chunks(1024) {
            let ops = frame.iter().map(|&k| BatchOp::Insert(k, k + 1)).collect();
            out.clear();
            assert!(eng.serve(&encode_req(&Request::Batch(ops)), &mut out));
            let FrameSplit::Frame { body_len } = split_frame(&out) else {
                panic!("one complete reply frame");
            };
            let Ok(Response::Batch(replies)) = Response::decode(OP_BATCH, &out[4..4 + body_len])
            else {
                panic!("a batch reply");
            };
            assert!(
                replies.iter().all(|r| *r == BatchReply::Added(true)),
                "every load key is fresh"
            );
        }
    });

    let shapes = store.check_invariants().expect("invariants after the load");
    assert_eq!(
        shapes.iter().map(|s| s.user_keys).sum::<usize>(),
        keys.len()
    );
    for (i, shape) in shapes.iter().enumerate() {
        let bound = balanced_bound(shape.user_keys, LEAF_CAP);
        assert!(
            shape.max_depth <= bound,
            "shard {i}: max depth {} over the balanced bound {bound} ({} keys)",
            shape.max_depth,
            shape.user_keys
        );
    }
    let mut h = store.handle();
    for &k in &keys {
        assert_eq!(h.get(&k), Some(k + 1));
    }
}

/// The same bound for one ascending `insert_batch` into an empty tree:
/// the whole run is one group at the ∞₀ leaf, published as one balanced
/// subtree.
#[test]
fn ascending_insert_batch_builds_a_balanced_tree() {
    const N: u64 = 4096;
    let mut map: NmTreeMap<u64, u64> = NmTreeMap::new();
    assert_eq!(
        map.handle().insert_batch((0..N).map(|k| (k, k))),
        N as usize
    );
    let shape = map.check_invariants().expect("invariants");
    assert_eq!(shape.user_keys, N as usize);
    let bound = balanced_bound(N as usize, LEAF_CAP);
    assert!(
        shape.max_depth <= bound,
        "max depth {} over the balanced bound {bound}",
        shape.max_depth
    );
}
