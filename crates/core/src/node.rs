//! Tree nodes: arena-slab allocated, with cache-line *fat leaves*.
//!
//! §3.2: "A tree node in our algorithm consists of three fields: key,
//! left and right." Two PR 7 deviations, both leaf-local:
//!
//! * **Arena storage.** Nodes live in the tree's [`NodePool`] slab and
//!   are addressed by `u32` slot indices; the node records its own slot
//!   in [`Node::idx`] so an edge to it can be formed without consulting
//!   the arena. Nothing is ever `Box`ed.
//! * **Leaf blocks.** A user leaf carries up to [`LEAF_CAP`] sorted
//!   key/value pairs instead of one. The block is immutable after
//!   publication: insert/remove copy-on-write a fresh block and swing
//!   the parent edge with the same single CAS the 1-key design used, so
//!   the synchronization contract is unchanged (DESIGN.md §14). The
//!   node's routing `key` is the block's *maximum* entry (`Fin(max)`),
//!   which keeps the external-tree routing invariant ("left subtree
//!   < router ≤ ... ") intact: every entry of the block is ≤ the router
//!   and > every router on the left-turn path above it.
//!
//! The tree is *external*: user keys live only in leaves; internal nodes
//! route (`len == 0`). A node is a leaf iff its child edges are null;
//! internal nodes always have exactly two children.

use crate::key::Key;
use crate::packed::{AtomicEdge, Edge};
use crate::pool::NodeCache;
use nmbst_reclaim::NodePool;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{AtomicU8, Ordering};

/// Maximum entries per leaf block: one cache line of u64 keys. The
/// per-tree runtime knob (`TreeConfig::leaf_cap`) can only lower this.
pub const LEAF_CAP: usize = 8;

/// Drop hint: the retired node's entries all moved into a replacement
/// block — reclamation must drop **none** of them.
pub(crate) const HINT_NONE: u8 = 0xFF;
/// Drop hint: the retired node still owns **all** its entries (chain
/// victims, unreachable subtrees). This is the state every node is
/// allocated in.
pub(crate) const HINT_ALL: u8 = 0xFE;

/// A tree node. Never exposed to users; alignment ≥ 8 keeps edge words
/// naturally aligned (marks live in the low bits of the *index*, not the
/// address, so alignment is a layout nicety rather than a correctness
/// requirement since PR 7).
///
/// `repr(C)` pins the declaration order so `left` and `right` are
/// adjacent words: [`child`](Self::child) indexes between them with a
/// pointer `add` instead of a conditional select (see the `offset_of`
/// assertions in the tests). The whole routing header (both edges, slot
/// index, length, routing key discriminant) shares the node's first
/// cache line; the entry arrays trail it.
#[repr(C, align(8))]
pub(crate) struct Node<K, V> {
    pub(crate) left: AtomicEdge<Node<K, V>>,
    pub(crate) right: AtomicEdge<Node<K, V>>,
    /// This node's own arena slot, written once at allocation. Lets
    /// [`clean_edge`] form an edge word without an arena lookup and lets
    /// retirement release the slot without carrying the index separately.
    pub(crate) idx: u32,
    /// Live entries in the block: `0` for internal nodes and sentinel
    /// leaves, `1..=LEAF_CAP` for user leaves. Immutable after
    /// publication (blocks are copy-on-write).
    len: u8,
    /// Which entries reclamation must drop, written (release-free, the
    /// retire edge itself orders it) by the retiring operation *before*
    /// the node is handed to the reclaimer: [`HINT_ALL`] (default),
    /// [`HINT_NONE`] (entries moved to a replacement block), or an entry
    /// position (single entry logically deleted by a COW remove).
    drop_hint: AtomicU8,
    /// The routing key. For a user leaf this is `Fin(max entry)`; for
    /// sentinels one of the infinities.
    pub(crate) key: Key<K>,
    keys: [MaybeUninit<K>; LEAF_CAP],
    vals: [MaybeUninit<V>; LEAF_CAP],
}

// SAFETY: nodes move between threads via the tree's synchronization
// (publication by CAS, retirement to the reclaimer); the raw child words
// carry no ownership that would make this unsound beyond what `K`/`V`
// themselves require.
unsafe impl<K: Send, V: Send> Send for Node<K, V> {}
unsafe impl<K: Sync, V: Sync> Sync for Node<K, V> {}

impl<K, V> Node<K, V> {
    /// Carves a fresh node out of the cache and writes its header; the
    /// entry arrays stay uninitialized (`len` of them are the caller's to
    /// fill immediately).
    fn alloc_shell(
        cache: &mut NodeCache<'_>,
        key: Key<K>,
        left: Edge<Node<K, V>>,
        right: Edge<Node<K, V>>,
        len: usize,
    ) -> *mut Node<K, V> {
        debug_assert!(len <= LEAF_CAP);
        let (idx, raw) = cache.alloc_raw::<Node<K, V>>();
        let node = raw.cast::<Node<K, V>>();
        // SAFETY: `alloc_raw` returned an exclusive, well-aligned slot of
        // exactly this layout.
        unsafe {
            node.write(Node {
                left: AtomicEdge::to(left),
                right: AtomicEdge::to(right),
                idx,
                len: len as u8,
                drop_hint: AtomicU8::new(HINT_ALL),
                key,
                keys: [const { MaybeUninit::uninit() }; LEAF_CAP],
                vals: [const { MaybeUninit::uninit() }; LEAF_CAP],
            });
        }
        node
    }

    /// Allocates a sentinel (or otherwise empty) leaf: null children, no
    /// entries.
    pub(crate) fn new_leaf_in(cache: &mut NodeCache<'_>, key: Key<K>) -> *mut Node<K, V> {
        Self::alloc_shell(cache, key, Edge::null(), Edge::null(), 0)
    }

    /// Allocates a 1-entry user leaf block. The routing key is the
    /// entry's key (a 1-entry block's max is its only entry).
    pub(crate) fn new_user_leaf_in(cache: &mut NodeCache<'_>, key: K, value: V) -> *mut Node<K, V>
    where
        K: Clone,
    {
        let node = Self::alloc_shell(cache, Key::Fin(key.clone()), Edge::null(), Edge::null(), 1);
        // SAFETY: fresh exclusive shell; slot 0 is within LEAF_CAP.
        unsafe {
            Self::key_slot(node, 0).write(key);
            Self::val_slot(node, 0).write(value);
        }
        node
    }

    /// Allocates an internal (routing) node with unmarked edges to the
    /// given children.
    pub(crate) fn new_internal_in(
        cache: &mut NodeCache<'_>,
        key: Key<K>,
        left: *mut Node<K, V>,
        right: *mut Node<K, V>,
    ) -> *mut Node<K, V> {
        Self::alloc_shell(cache, key, clean_edge(left), clean_edge(right), 0)
    }

    /// Number of live entries: `0` for internal nodes and sentinel
    /// leaves.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// The block's keys, sorted ascending. Empty for internal nodes and
    /// sentinel leaves.
    #[inline]
    pub(crate) fn entry_keys(&self) -> &[K] {
        // SAFETY: the first `len` array elements are initialized by
        // construction and immutable after publication.
        unsafe { std::slice::from_raw_parts(self.keys.as_ptr().cast::<K>(), self.len()) }
    }

    /// The block's values, parallel to [`entry_keys`](Self::entry_keys).
    #[inline]
    pub(crate) fn entry_vals(&self) -> &[V] {
        // SAFETY: as `entry_keys`.
        unsafe { std::slice::from_raw_parts(self.vals.as_ptr().cast::<V>(), self.len()) }
    }

    /// Position of `key` in the block (`Ok`) or the sorted insertion
    /// point (`Err`). A chunked branchless rank scan: the block is at
    /// most one cache line of keys, and counting `k < key` outcomes
    /// compiles to compare/accumulate with no data-dependent branch — a
    /// random probe into a sorted block mispredicts an early-exit scan
    /// (and a binary search) on nearly every entry, which measured
    /// slower than unconditionally touching all `len ≤ 8` keys.
    ///
    /// The scan walks half-`LEAF_CAP` chunks with four independent
    /// accumulators (SIMD-shaped: the compiler is free to vectorize the
    /// compares, and on scalar targets the four chains issue in
    /// parallel instead of serializing on one `pos`). It cannot touch
    /// the full fixed-size array unconditionally: only the first
    /// `len` slots are initialized, and reading a `MaybeUninit` tail is
    /// UB for a general `K` — so the tail (< 4 keys) falls through to
    /// the scalar accumulate. Attribution: the `leaf_ablation` perf
    /// cell (fat leaves vs. `leaf_cap = 1`) gates this path.
    #[inline]
    pub(crate) fn find(&self, key: &K) -> Result<usize, usize>
    where
        K: Ord,
    {
        let keys = self.entry_keys();
        let mut chunks = keys.chunks_exact(4);
        let mut pos = 0usize;
        for c in chunks.by_ref() {
            let r = usize::from(c[0] < *key)
                + usize::from(c[1] < *key)
                + usize::from(c[2] < *key)
                + usize::from(c[3] < *key);
            pos += r;
        }
        for k in chunks.remainder() {
            pos += usize::from(k < key);
        }
        match keys.get(pos) {
            Some(k) if k == key => Ok(pos),
            _ => Err(pos),
        }
    }

    /// Records which entries reclamation must drop when this (retired)
    /// node's grace period ends. Relaxed: the retire hand-off itself
    /// orders the write against the deferral that reads it.
    #[inline]
    pub(crate) fn set_drop_hint(&self, hint: u8) {
        self.drop_hint.store(hint, Ordering::Relaxed);
    }

    #[inline]
    unsafe fn key_slot(node: *mut Self, i: usize) -> *mut K {
        // SAFETY (of the projection): caller keeps `i < LEAF_CAP`.
        unsafe { (&raw mut (*node).keys).cast::<K>().add(i) }
    }

    #[inline]
    unsafe fn val_slot(node: *mut Self, i: usize) -> *mut V {
        // SAFETY: as `key_slot`.
        unsafe { (&raw mut (*node).vals).cast::<V>().add(i) }
    }

    /// Copy-on-write: a fresh leaf block = `old` with `(key, value)`
    /// inserted at sorted position `pos`. Requires `old.len() < LEAF_CAP`.
    ///
    /// The copied entries are **bitwise duplicates**: until the publish
    /// CAS settles, both blocks alias the same logical entries. On CAS
    /// success the caller marks `old` with [`HINT_NONE`] (the entries now
    /// belong to the new block) and retires it; on failure the caller
    /// recovers `(key, value)` with [`take_entry`] and frees the new
    /// block as a shell ([`NodeCache::free_shell`]), leaving every copied
    /// entry owned by `old`.
    ///
    /// # Safety
    ///
    /// `pos` must be the `Err` position of `old.find(&key)` and the block
    /// must not be full.
    pub(crate) unsafe fn block_insert_copy(
        cache: &mut NodeCache<'_>,
        old: &Node<K, V>,
        pos: usize,
        key: K,
        value: V,
    ) -> *mut Node<K, V>
    where
        K: Clone,
    {
        let n = old.len();
        debug_assert!(n < LEAF_CAP && pos <= n);
        let router = Key::Fin(if pos == n {
            key.clone()
        } else {
            old.entry_keys()[n - 1].clone()
        });
        let node = Self::alloc_shell(cache, router, Edge::null(), Edge::null(), n + 1);
        // SAFETY: fresh exclusive shell; source ranges are initialized
        // prefixes of `old`; destination indices stay below `n + 1`.
        unsafe {
            let src_k = old.keys.as_ptr().cast::<K>();
            let src_v = old.vals.as_ptr().cast::<V>();
            ptr::copy_nonoverlapping(src_k, Self::key_slot(node, 0), pos);
            ptr::copy_nonoverlapping(src_v, Self::val_slot(node, 0), pos);
            Self::key_slot(node, pos).write(key);
            Self::val_slot(node, pos).write(value);
            ptr::copy_nonoverlapping(src_k.add(pos), Self::key_slot(node, pos + 1), n - pos);
            ptr::copy_nonoverlapping(src_v.add(pos), Self::val_slot(node, pos + 1), n - pos);
        }
        node
    }

    /// Copy-on-write: a fresh leaf block = `old` minus the entry at
    /// `pos`. Requires `old.len() >= 2` (a 1-entry block is removed by
    /// the classic flag/tag/splice protocol instead).
    ///
    /// Ownership works as in [`block_insert_copy`]: on CAS success the
    /// caller sets `old`'s drop hint to `pos as u8` (the one entry that
    /// did *not* move) and retires it; on failure the new block is freed
    /// as a shell.
    ///
    /// # Safety
    ///
    /// `pos < old.len()` and `old.len() >= 2`.
    pub(crate) unsafe fn block_remove_copy(
        cache: &mut NodeCache<'_>,
        old: &Node<K, V>,
        pos: usize,
    ) -> *mut Node<K, V>
    where
        K: Clone,
    {
        let n = old.len();
        debug_assert!(n >= 2 && pos < n);
        let keys = old.entry_keys();
        let router = Key::Fin(keys[if pos == n - 1 { n - 2 } else { n - 1 }].clone());
        let node = Self::alloc_shell(cache, router, Edge::null(), Edge::null(), n - 1);
        // SAFETY: as `block_insert_copy`.
        unsafe {
            let src_k = old.keys.as_ptr().cast::<K>();
            let src_v = old.vals.as_ptr().cast::<V>();
            ptr::copy_nonoverlapping(src_k, Self::key_slot(node, 0), pos);
            ptr::copy_nonoverlapping(src_v, Self::val_slot(node, 0), pos);
            ptr::copy_nonoverlapping(src_k.add(pos + 1), Self::key_slot(node, pos), n - 1 - pos);
            ptr::copy_nonoverlapping(src_v.add(pos + 1), Self::val_slot(node, pos), n - 1 - pos);
        }
        node
    }

    /// Splits a full block around an insertion: builds two fresh blocks
    /// holding `old`'s entries plus `(key, value)` (left-biased halves)
    /// under a fresh internal router, returning `(internal, holder,
    /// hpos)` where `holder`/`hpos` locate the *new* entry so a failed
    /// publish can recover it.
    ///
    /// Ownership: all of `old`'s entries are bitwise-moved into the
    /// halves — on CAS success retire `old` with [`HINT_NONE`]; on
    /// failure [`take_entry`]`(holder, hpos)` then free all three nodes
    /// as shells.
    ///
    /// # Safety
    ///
    /// `old.len() == cap` (full at the tree's runtime cap), `pos` the
    /// `Err` position of `old.find(&key)`, and `0 < pos < old.len()`
    /// (boundary inserts take the cheaper two-node path in `write.rs`).
    pub(crate) unsafe fn block_split_insert(
        cache: &mut NodeCache<'_>,
        old: &Node<K, V>,
        pos: usize,
        key: K,
        value: V,
    ) -> (*mut Node<K, V>, *mut Node<K, V>, usize)
    where
        K: Clone,
    {
        let n = old.len();
        let total = n + 1;
        let left_n = total.div_ceil(2);
        debug_assert!(pos > 0 && pos < n);
        let old_keys = old.entry_keys();
        // Key of merged position `m` (old entries with `key` at `pos`).
        let merged_key = |m: usize| -> &K {
            if m == pos {
                &key
            } else if m < pos {
                &old_keys[m]
            } else {
                &old_keys[m - 1]
            }
        };
        let left = Self::alloc_shell(
            cache,
            Key::Fin(merged_key(left_n - 1).clone()),
            Edge::null(),
            Edge::null(),
            left_n,
        );
        let right = Self::alloc_shell(
            cache,
            Key::Fin(merged_key(total - 1).clone()),
            Edge::null(),
            Edge::null(),
            total - left_n,
        );
        let internal =
            Self::new_internal_in(cache, Key::Fin(merged_key(left_n).clone()), left, right);
        let key = MaybeUninit::new(key);
        let value = MaybeUninit::new(value);
        // SAFETY: each merged position is written to exactly one fresh
        // slot; `key`/`value` are read exactly once (pos appears once).
        unsafe {
            let src_k = old.keys.as_ptr().cast::<K>();
            let src_v = old.vals.as_ptr().cast::<V>();
            let write = |dst: *mut Node<K, V>, j: usize, m: usize| {
                if m == pos {
                    Self::key_slot(dst, j).write(key.as_ptr().read());
                    Self::val_slot(dst, j).write(value.as_ptr().read());
                } else {
                    let s = if m < pos { m } else { m - 1 };
                    Self::key_slot(dst, j).write(src_k.add(s).read());
                    Self::val_slot(dst, j).write(src_v.add(s).read());
                }
            };
            for m in 0..left_n {
                write(left, m, m);
            }
            for m in left_n..total {
                write(right, m - left_n, m);
            }
        }
        let (holder, hpos) = if pos < left_n {
            (left, pos)
        } else {
            (right, pos - left_n)
        };
        (internal, holder, hpos)
    }

    /// Builds a leaf block from the next `n` pairs of `it`, which must be
    /// key-ascending and unique (the bulk loader's contract). The routing
    /// key becomes the block's last (largest) entry.
    pub(crate) fn block_from_iter<I: Iterator<Item = (K, V)>>(
        cache: &mut NodeCache<'_>,
        it: &mut I,
        n: usize,
    ) -> *mut Node<K, V>
    where
        K: Clone,
    {
        debug_assert!((1..=LEAF_CAP).contains(&n));
        // The router is known only after the entries are drawn; park a
        // placeholder and overwrite it below.
        let node = Self::alloc_shell(cache, Key::Inf0, Edge::null(), Edge::null(), n);
        // SAFETY: fresh exclusive shell; each of the `n` declared slots
        // is written exactly once before any read.
        unsafe {
            for i in 0..n {
                let (k, v) = it.next().expect("n pairs remain");
                Self::key_slot(node, i).write(k);
                Self::val_slot(node, i).write(v);
            }
            (*node).key = Key::Fin((*node).entry_keys()[n - 1].clone());
        }
        node
    }

    /// Moves the entry at `pos` out of an **unpublished** block (a CAS
    /// loser being dismantled). The block must then be freed as a shell —
    /// its `len` still counts the moved entry.
    ///
    /// # Safety
    ///
    /// Exclusive access, `pos < len`, entry initialized and not already
    /// taken.
    pub(crate) unsafe fn take_entry(node: *mut Node<K, V>, pos: usize) -> (K, V) {
        // SAFETY: per contract.
        unsafe {
            (
                Self::key_slot(node, pos).read(),
                Self::val_slot(node, pos).read(),
            )
        }
    }

    /// `true` if this node is a leaf (null children).
    ///
    /// The load is deliberately `Relaxed`, and this is the **only** place
    /// in the tree where a relaxed edge load is sound. §3.3: "an internal
    /// node always stays an internal node and a leaf node always stays a
    /// leaf node" — null-ness of the child word is decided at allocation
    /// and preserved by every subsequent write (marks and splices swap
    /// targets among non-null slots; nothing ever stores the null index
    /// into an internal node or a slot index into a leaf). The word's
    /// initial value was made visible by the Acquire load that produced
    /// `self`'s address (publication goes through a releasing CAS), so
    /// whichever write this load observes, its null-ness agrees with
    /// every other. The index is *not* resolvable on the strength of this
    /// load — callers needing the child go through [`AtomicEdge::load`],
    /// whose Acquire pairs with the publishing CAS.
    #[inline]
    pub(crate) fn is_leaf(&self) -> bool {
        self.left.is_null_relaxed()
    }

    /// The child edge at boolean index `go_right`, selected branchlessly:
    /// `repr(C)` makes `right` the word after `left`, so the select is a
    /// pointer `add` of the compare's result instead of a data-dependent
    /// branch the predictor gets wrong half the time on random descents.
    #[inline(always)]
    pub(crate) fn child(&self, go_right: bool) -> &AtomicEdge<Node<K, V>> {
        debug_assert!(std::ptr::eq(
            // SAFETY: in-bounds by the layout assertion below.
            unsafe { (&raw const self.left).add(1) },
            &raw const self.right,
        ));
        // SAFETY: `repr(C)` lays `right` immediately after `left` (two
        // identically-typed, identically-aligned fields — no padding
        // between them), so `(&left).add(go_right as usize)` is in
        // bounds of `self` and points at `left` or `right`.
        unsafe { &*(&raw const self.left).add(go_right as usize) }
    }

    /// The child edge a search for `user_key` follows from this node
    /// (left iff `user_key < self.key`).
    #[inline]
    pub(crate) fn child_for(&self, user_key: &K) -> &AtomicEdge<Node<K, V>>
    where
        K: Ord,
    {
        self.child(!self.key.user_goes_left(user_key))
    }

    /// [`child_for`](Self::child_for) with the sentinel dispatch hoisted
    /// out: routes via `Key::user_goes_left_fin`, a plain `K: Ord`
    /// compare. Semantically identical for every node (sentinels route
    /// left either way) — use it in descent loops that run below the
    /// sentinel levels, where the routing key is always finite.
    #[inline(always)]
    pub(crate) fn child_for_fin(&self, user_key: &K) -> &AtomicEdge<Node<K, V>>
    where
        K: Ord,
    {
        self.child(!self.key.user_goes_left_fin(user_key))
    }

    /// Both child edges ordered as (followed, sibling) for `user_key`.
    #[inline]
    pub(crate) fn child_and_sibling_for(&self, user_key: &K) -> EdgePair<'_, K, V>
    where
        K: Ord,
    {
        if self.key.user_goes_left(user_key) {
            (&self.left, &self.right)
        } else {
            (&self.right, &self.left)
        }
    }
}

/// A node's two child edges, ordered (followed, sibling) for some key.
pub(crate) type EdgePair<'a, K, V> = (&'a AtomicEdge<Node<K, V>>, &'a AtomicEdge<Node<K, V>>);

/// Drops the contents of a node leaving the tree for good: the entries
/// its drop hint says it still owns, then the routing key. The slot
/// memory itself stays valid (caller releases or abandons it).
///
/// # Safety
///
/// Exclusive access (the node's grace period has ended, or it was never
/// published); contents not already dropped.
pub(crate) unsafe fn drop_retired_contents<K, V>(node: *mut Node<K, V>) {
    // SAFETY: exclusive per contract.
    unsafe {
        let n = &mut *node;
        match n.drop_hint.load(Ordering::Relaxed) {
            HINT_NONE => {}
            HINT_ALL => {
                for i in 0..n.len() {
                    ptr::drop_in_place(Node::key_slot(node, i));
                    ptr::drop_in_place(Node::val_slot(node, i));
                }
            }
            pos => {
                debug_assert!((pos as usize) < n.len());
                ptr::drop_in_place(Node::key_slot(node, pos as usize));
                ptr::drop_in_place(Node::val_slot(node, pos as usize));
            }
        }
        ptr::drop_in_place(&mut n.key);
    }
}

/// The two permanent sentinel internal nodes (Figure 3) plus the three
/// sentinel leaves of an empty tree.
///
/// ```text
///        R (∞₂)
///       /      \
///    S (∞₁)    leaf ∞₂
///    /     \
/// leaf ∞₀  leaf ∞₁
/// ```
///
/// `R` and `S` are never removed and none of their outgoing edges is
/// ever marked, so the seek record's four pointers are always defined.
pub(crate) fn sentinel_tree<K, V>(cache: &mut NodeCache<'_>) -> *mut Node<K, V> {
    let leaf0 = Node::new_leaf_in(cache, Key::Inf0);
    let leaf1 = Node::new_leaf_in(cache, Key::Inf1);
    let leaf2 = Node::new_leaf_in(cache, Key::Inf2);
    let s = Node::new_internal_in(cache, Key::Inf1, leaf0, leaf1);
    Node::new_internal_in(cache, Key::Inf2, s, leaf2)
}

/// Frees an entire subtree back to the arena: drops every node's owned
/// entries and routing key, then releases its slot. Iterative (explicit
/// stack): a degenerate tree built by sorted inserts at `leaf_cap = 1`
/// is a linked list, and recursion would overflow on large ones.
///
/// # Safety
///
/// Caller must have exclusive access to the subtree, every node in it
/// must be a live slot of `arena` not owned elsewhere (in particular,
/// not also pending in a reclaimer bag — retired nodes are unreachable
/// from the root, so walking from the root never sees them), and every
/// reachable node owns all `len` of its entries.
pub(crate) unsafe fn free_subtree<K, V>(root: *mut Node<K, V>, arena: &NodePool) {
    let mut stack = vec![root];
    while let Some(node) = stack.pop() {
        if node.is_null() {
            continue;
        }
        // SAFETY: per the function contract the node is uniquely owned.
        unsafe {
            let n = &mut *node;
            stack.push(n.left.load_mut(arena).ptr());
            stack.push(n.right.load_mut(arena).ptr());
            let idx = n.idx;
            debug_assert_eq!(n.drop_hint.load(Ordering::Relaxed), HINT_ALL);
            drop_retired_contents(node);
            arena.release(idx);
        }
    }
}

/// An `Edge` pointing at `node`, unmarked, formed from the node's own
/// recorded slot index. Convenience for expected CAS values.
#[inline]
pub(crate) fn clean_edge<K, V>(node: *mut Node<K, V>) -> Edge<Node<K, V>> {
    if node.is_null() {
        Edge::null()
    } else {
        // SAFETY: callers hand in nodes they may dereference (guarded or
        // owned); `idx` is immutable after allocation.
        Edge::new(unsafe { (*node).idx }, node)
    }
}

/// Best-effort prefetch of one cache line. A pure hint — no-op on
/// architectures without a prefetch instruction, and safe on any address
/// (prefetch never faults).
#[inline(always)]
fn prefetch_line(addr: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a hint; it performs no access and never
    // faults, whatever the address.
    unsafe {
        core::arch::x86_64::_mm_prefetch(addr.cast::<i8>(), core::arch::x86_64::_MM_HINT_T0)
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: `prfm` is a hint with no architectural side effects; the
    // stable intrinsic is not available, so emit the instruction
    // directly. Never faults, whatever the address.
    unsafe {
        std::arch::asm!("prfm pldl1keep, [{0}]", in(reg) addr, options(nostack, preserves_flags));
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = addr;
}

/// Best-effort prefetch of `node`'s header line: children, routing key,
/// and (for small `K`) the head of the entry array. This is the
/// per-level descent hint — one line per hop, like the paper's
/// pointer-chasing loop wants; see `prefetch_wide` for the fat-block
/// variant.
#[inline(always)]
pub(crate) fn prefetch<K, V>(node: *const Node<K, V>) {
    prefetch_line(node.cast::<u8>());
}

/// Prefetch of `node`'s header line *and* the line after it, which for a
/// fat leaf holds the entry keys a block scan is about to compare.
/// Issued where the caller *knows* it is about to scan the block (range
/// scans, batch anchors) — in the point-op descent loops the doubled
/// hint measured as a net loss: two prefetches per level feed the load
/// ports ~40 extra hints per descent to save one line fetch at the end.
#[inline(always)]
pub(crate) fn prefetch_wide<K, V>(node: *const Node<K, V>) {
    let addr = node.cast::<u8>();
    prefetch_line(addr);
    prefetch_line(addr.wrapping_add(64));
}

/// Prefetch of every cache line `node` spans: the header and the whole
/// entry block. Issued by the batch warm pass once a descent reaches
/// its leaf, where the op that follows will scan the block.
#[inline(always)]
pub(crate) fn prefetch_block<K, V>(node: *const Node<K, V>) {
    let start = node as usize & !63;
    let end = node as usize + std::mem::size_of::<Node<K, V>>();
    for line in (start..end).step_by(64) {
        prefetch_line(line as *const u8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::NodeCache;
    use std::alloc::Layout;

    fn arena_for<K, V>(recycle: bool) -> NodePool {
        NodePool::new(Layout::new::<Node<K, V>>(), recycle)
    }

    #[test]
    fn node_alignment_leaves_mark_bits_free() {
        assert!(std::mem::align_of::<Node<u64, ()>>() >= 8);
        assert!(std::mem::align_of::<Node<u8, u8>>() >= 8);
    }

    #[test]
    fn child_edges_are_adjacent_words() {
        // The layout contract behind `Node::child`'s branchless select.
        use std::mem::{offset_of, size_of};
        fn check<K: 'static, V: 'static>() {
            assert_eq!(
                offset_of!(Node<K, V>, right),
                offset_of!(Node<K, V>, left) + size_of::<AtomicEdge<Node<K, V>>>(),
            );
        }
        check::<u64, ()>();
        check::<u8, u8>();
        check::<String, Vec<u64>>();
        check::<i64, Box<[u8; 3]>>();
    }

    #[test]
    fn leaf_and_internal_classification() {
        let arena = arena_for::<i64, ()>(true);
        let mut cache = NodeCache::direct(&arena);
        let leaf = Node::<i64, ()>::new_user_leaf_in(&mut cache, 5, ());
        let leaf2 = Node::<i64, ()>::new_user_leaf_in(&mut cache, 9, ());
        let internal = Node::new_internal_in(&mut cache, Key::Fin(9), leaf, leaf2);
        unsafe {
            assert!((*leaf).is_leaf());
            assert!(!(*internal).is_leaf());
            assert_eq!((*leaf).len(), 1);
            assert_eq!((*internal).len(), 0);
            free_subtree(internal, &arena);
        }
    }

    #[test]
    fn child_routing() {
        let arena = arena_for::<i64, ()>(true);
        let mut cache = NodeCache::direct(&arena);
        let l = Node::<i64, ()>::new_user_leaf_in(&mut cache, 1, ());
        let r = Node::<i64, ()>::new_user_leaf_in(&mut cache, 10, ());
        let n = Node::new_internal_in(&mut cache, Key::Fin(10), l, r);
        unsafe {
            assert_eq!((*n).child_for(&3).load(&arena).ptr(), l);
            assert_eq!((*n).child_for(&10).load(&arena).ptr(), r); // equal goes right
            assert_eq!((*n).child_for(&42).load(&arena).ptr(), r);
            let (c, s) = (*n).child_and_sibling_for(&3);
            assert_eq!(c.load(&arena).ptr(), l);
            assert_eq!(s.load(&arena).ptr(), r);
            free_subtree(n, &arena);
        }
    }

    #[test]
    fn edges_round_trip_through_slot_indices() {
        let arena = arena_for::<i64, ()>(true);
        let mut cache = NodeCache::direct(&arena);
        let l = Node::<i64, ()>::new_user_leaf_in(&mut cache, 1, ());
        let e = clean_edge(l);
        unsafe {
            assert_eq!(e.idx(), (*l).idx);
            assert_eq!(e.ptr(), l);
            assert_eq!(arena.slot_ptr(e.idx()).cast::<Node<i64, ()>>(), l);
            drop_retired_contents(l);
            arena.release((*l).idx);
        }
    }

    #[test]
    fn sentinel_tree_shape() {
        let arena = arena_for::<i64, ()>(true);
        let mut cache = NodeCache::direct(&arena);
        let root: *mut Node<i64, ()> = sentinel_tree(&mut cache);
        unsafe {
            assert_eq!((*root).key, Key::Inf2);
            let s = (*root).left.load(&arena).ptr();
            let r_leaf = (*root).right.load(&arena).ptr();
            assert_eq!((*s).key, Key::Inf1);
            assert_eq!((*r_leaf).key, Key::Inf2);
            assert!((*r_leaf).is_leaf());
            assert_eq!((*r_leaf).len(), 0);
            let l0 = (*s).left.load(&arena).ptr();
            let l1 = (*s).right.load(&arena).ptr();
            assert_eq!((*l0).key, Key::Inf0);
            assert_eq!((*l1).key, Key::Inf1);
            assert!((*l0).is_leaf() && (*l1).is_leaf());
            free_subtree(root, &arena);
        }
    }

    #[test]
    fn block_find_and_accessors() {
        let arena = arena_for::<i64, i64>(true);
        let mut cache = NodeCache::direct(&arena);
        let mut leaf = Node::<i64, i64>::new_user_leaf_in(&mut cache, 10, 100);
        unsafe {
            for k in [30i64, 20, 40] {
                let pos = (*leaf).find(&k).unwrap_err();
                let next = Node::block_insert_copy(&mut cache, &*leaf, pos, k, k * 10);
                (*leaf).set_drop_hint(HINT_NONE);
                drop_retired_contents(leaf);
                cache.free_shell(leaf);
                leaf = next;
            }
            assert_eq!((*leaf).entry_keys(), &[10, 20, 30, 40]);
            assert_eq!((*leaf).entry_vals(), &[100, 200, 300, 400]);
            assert_eq!((*leaf).key, Key::Fin(40), "router is the block max");
            assert_eq!((*leaf).find(&30), Ok(2));
            assert_eq!((*leaf).find(&35), Err(3));
            assert_eq!((*leaf).find(&5), Err(0));
            assert_eq!((*leaf).find(&99), Err(4));
            drop_retired_contents(leaf); // HINT_ALL: drops all four entries
            cache.free_shell(leaf);
        }
    }

    #[test]
    fn block_remove_copy_keeps_router_at_max() {
        let arena = arena_for::<i64, ()>(true);
        let mut cache = NodeCache::direct(&arena);
        let a = Node::<i64, ()>::new_user_leaf_in(&mut cache, 1, ());
        unsafe {
            let b = Node::block_insert_copy(&mut cache, &*a, 1, 2, ());
            let c = Node::block_insert_copy(&mut cache, &*b, 2, 3, ());
            // Drop the middle entry: router stays Fin(3).
            let d = Node::block_remove_copy(&mut cache, &*c, 1);
            assert_eq!((*d).entry_keys(), &[1, 3]);
            assert_eq!((*d).key, Key::Fin(3));
            // Drop the max: router shrinks to the new max.
            let e = Node::block_remove_copy(&mut cache, &*d, 1);
            assert_eq!((*e).entry_keys(), &[1]);
            assert_eq!((*e).key, Key::Fin(1));
            for shell in [a, b, c, d] {
                (*shell).set_drop_hint(HINT_NONE);
                drop_retired_contents(shell);
                cache.free_shell(shell);
            }
            drop_retired_contents(e);
            cache.free_shell(e);
        }
    }

    #[test]
    fn split_insert_partitions_and_locates_new_entry() {
        let arena = arena_for::<i64, i64>(true);
        let mut cache = NodeCache::direct(&arena);
        // Build a full block 0,10,..,70.
        let mut leaf = Node::<i64, i64>::new_user_leaf_in(&mut cache, 0, 0);
        unsafe {
            for i in 1..LEAF_CAP as i64 {
                let next = Node::block_insert_copy(&mut cache, &*leaf, i as usize, i * 10, i * 10);
                (*leaf).set_drop_hint(HINT_NONE);
                drop_retired_contents(leaf);
                cache.free_shell(leaf);
                leaf = next;
            }
            let (internal, holder, hpos) = Node::block_split_insert(&mut cache, &*leaf, 4, 35, 35);
            let left = (*internal).left.load(&arena).ptr();
            let right = (*internal).right.load(&arena).ptr();
            assert_eq!((*left).entry_keys(), &[0, 10, 20, 30, 35]);
            assert_eq!((*right).entry_keys(), &[40, 50, 60, 70]);
            assert_eq!((*left).key, Key::Fin(35));
            assert_eq!((*right).key, Key::Fin(70));
            assert_eq!((*internal).key, Key::Fin(40), "router = right half min");
            assert_eq!(holder, left);
            assert_eq!((*holder).entry_keys()[hpos], 35);
            // Dismantle as a CAS loser would: recover the new entry,
            // free the three shells, old block keeps its entries.
            let (k, v) = Node::take_entry(holder, hpos);
            assert_eq!((k, v), (35, 35));
            for shell in [left, right, internal] {
                (*shell).set_drop_hint(HINT_NONE);
                drop_retired_contents(shell);
                cache.free_shell(shell);
            }
            drop_retired_contents(leaf);
            cache.free_shell(leaf);
        }
    }

    #[test]
    fn drop_hints_drop_exactly_the_owned_entries() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        #[derive(Clone)]
        struct D(Arc<AtomicUsize>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let arena = arena_for::<i64, D>(true);
        let mut cache = NodeCache::direct(&arena);
        unsafe {
            let a = Node::<i64, D>::new_user_leaf_in(&mut cache, 1, D(Arc::clone(&drops)));
            let b = Node::block_insert_copy(&mut cache, &*a, 1, 2, D(Arc::clone(&drops)));
            // `a`'s entry moved into `b`: HINT_NONE drops nothing.
            (*a).set_drop_hint(HINT_NONE);
            drop_retired_contents(a);
            cache.free_shell(a);
            assert_eq!(drops.load(Ordering::Relaxed), 0);
            // COW-remove entry 0 from `b`: hint `0` drops only that one.
            let c = Node::block_remove_copy(&mut cache, &*b, 0);
            (*b).set_drop_hint(0);
            drop_retired_contents(b);
            cache.free_shell(b);
            assert_eq!(drops.load(Ordering::Relaxed), 1);
            // `c` still owns its single entry: HINT_ALL drops it.
            drop_retired_contents(c);
            cache.free_shell(c);
            assert_eq!(drops.load(Ordering::Relaxed), 2);
        }
    }

    #[test]
    fn free_subtree_runs_destructors() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        struct D(Arc<AtomicUsize>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let arena = arena_for::<i64, D>(true);
        let mut cache = NodeCache::direct(&arena);
        let a = Node::<i64, D>::new_user_leaf_in(&mut cache, 1, D(Arc::clone(&drops)));
        let b = Node::<i64, D>::new_user_leaf_in(&mut cache, 2, D(Arc::clone(&drops)));
        let n = Node::new_internal_in(&mut cache, Key::Fin(2), a, b);
        unsafe { free_subtree(n, &arena) };
        assert_eq!(drops.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn free_subtree_handles_degenerate_depth() {
        // A left-spine of 100k internal nodes must not overflow the stack.
        let arena = arena_for::<u64, ()>(false);
        let mut cache = NodeCache::direct(&arena);
        let mut node = Node::<u64, ()>::new_user_leaf_in(&mut cache, 0, ());
        for i in 1..100_000u64 {
            let leaf = Node::new_user_leaf_in(&mut cache, i, ());
            node = Node::new_internal_in(&mut cache, Key::Fin(i), node, leaf);
        }
        unsafe { free_subtree(node, &arena) };
    }
}
