//! Packed edge words: a 32-bit child *slot index* with the paper's
//! `flag` and `tag` bits stolen from its low-order bits.
//!
//! §3.2: "we steal two bits from each child address stored at a node".
//! Since PR 7 the stolen bits come out of an arena index instead of a
//! pointer: nodes live in the tree's [`NodePool`] slab (see
//! `nmbst-reclaim`), a child reference is the child's `u32` slot index
//! shifted left by two, and the low bits carry the marks:
//!
//! * bit 0 — **flag**: the head (leaf) node of this edge is being
//!   deleted; both tail and head will leave the tree.
//! * bit 1 — **tag**: only the tail node of this edge is being removed;
//!   the head is hoisted to the tail's ancestor.
//!
//! Index 0 is the null edge (the child fields of a leaf), so a whole
//! edge is 4 bytes — half the PR 6 footprint — and a node's two edges
//! share one 8-byte pair.
//!
//! A marked edge is immutable: no CAS with an unmarked expected value can
//! succeed on it, which is the entire coordination mechanism of the
//! algorithm — there are no operation descriptors.
//!
//! An [`Edge`] snapshot carries both the raw word (what CAS compares)
//! and the pointer the index resolved to at load time, so the tree logic
//! above keeps dereferencing plain pointers; resolution happens exactly
//! once per atomic load, against the arena the caller passes in.
//!
//! All bit algebra lives here; the tree logic deals only in the typed
//! [`Edge`] snapshot and the typed transitions on [`AtomicEdge`].

use crate::stats;
use nmbst_reclaim::NodePool;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, Ordering};

const FLAG: u32 = 1 << 0;
const TAG: u32 = 1 << 1;
const MARKS: u32 = FLAG | TAG;
/// Index bits: everything above the two marks.
const ADDR: u32 = !MARKS;

/// How the cleanup routine sets the tag bit (§2: the BTS instruction;
/// §6: "our algorithm can be easily modified to use only compare-and-swap
/// instructions"). Both variants are provided so the substitution can be
/// benchmarked (ablation bench `ablation_bts`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TagMode {
    /// One `fetch_or` — compiles to a single locked RMW (`lock or`),
    /// the moral equivalent of the paper's bit-test-and-set.
    #[default]
    FetchOr,
    /// A CAS loop: read, set bit, compare-exchange, retry on failure.
    CasLoop,
}

/// Resolves the index half of an edge word against the arena. Index 0 is
/// the null edge.
#[inline]
fn resolve<N>(arena: &NodePool, word: u32) -> *mut N {
    let idx = word >> 2;
    if idx == 0 {
        std::ptr::null_mut()
    } else {
        // Typed resolution: the stride is `size_of::<N>()`, known at
        // compile time, so the offset math is constant arithmetic on
        // the descent's critical path.
        arena.slot_ptr_typed(idx)
    }
}

/// An immutable snapshot of an edge: the raw word `(flag, tag, index)`
/// plus the pointer the index resolved to when the snapshot was taken.
///
/// Equality and CAS compare the *word*; the cached pointer is derived
/// state (index resolution is a pure function of the arena).
pub struct Edge<N> {
    word: u32,
    ptr: *mut N,
}

impl<N> Clone for Edge<N> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<N> Copy for Edge<N> {}

impl<N> Edge<N> {
    /// The null edge (child field of a leaf).
    #[inline]
    pub fn null() -> Self {
        Edge {
            word: 0,
            ptr: std::ptr::null_mut(),
        }
    }

    /// An unmarked edge to the node at slot `idx`, already resolved to
    /// `ptr`. Callers produce the pair from a node's `idx` field and its
    /// address (see `Node::edge`).
    #[inline]
    pub fn new(idx: u32, ptr: *mut N) -> Self {
        debug_assert!(idx != 0 || ptr.is_null());
        debug_assert!(idx < 1 << 30, "slot index overflows the edge word");
        Edge {
            word: idx << 2,
            ptr,
        }
    }

    /// This edge's target with the given marks (used when splicing
    /// copies the flag of the hoisted edge, Algorithm 4 line 108).
    #[inline]
    pub fn with_marks(self, flag: bool, tag: bool) -> Self {
        Edge {
            word: (self.word & ADDR) | (flag as u32 * FLAG) | (tag as u32 * TAG),
            ptr: self.ptr,
        }
    }

    #[inline]
    fn from_word(arena: &NodePool, word: u32) -> Self {
        Edge {
            word,
            ptr: resolve(arena, word),
        }
    }

    /// The arena slot this edge points to (marks removed). Zero only for
    /// the child edges of leaf nodes.
    #[inline]
    pub fn idx(self) -> u32 {
        self.word >> 2
    }

    /// The node this edge points to (marks removed), as resolved at
    /// snapshot time. Null only for the child edges of leaf nodes.
    #[inline]
    pub fn ptr(self) -> *mut N {
        self.ptr
    }

    /// The flag bit: the head leaf of this edge is being deleted.
    #[inline]
    pub fn flag(self) -> bool {
        self.word & FLAG != 0
    }

    /// The tag bit: the tail node of this edge is being removed.
    #[inline]
    pub fn tag(self) -> bool {
        self.word & TAG != 0
    }

    /// `true` if the edge carries either mark.
    #[inline]
    pub fn marked(self) -> bool {
        self.word & MARKS != 0
    }

    /// The same edge with the flag bit set.
    #[inline]
    pub fn flagged(self) -> Self {
        Edge {
            word: self.word | FLAG,
            ptr: self.ptr,
        }
    }
}

impl<N> PartialEq for Edge<N> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.word == other.word
    }
}
impl<N> Eq for Edge<N> {}

impl<N> std::fmt::Debug for Edge<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Edge(slot {}, flag={}, tag={})",
            self.idx(),
            self.flag(),
            self.tag()
        )
    }
}

/// A mutable edge: one 32-bit atomic word holding `(flag, tag, index)`.
///
/// This is a child field of a tree node (`left` or `right`). The typed
/// operations below are the *only* transitions the algorithm performs.
/// Operations that can surface a target take the arena, so every
/// returned [`Edge`] snapshot is pre-resolved.
pub struct AtomicEdge<N> {
    word: AtomicU32,
    _node: PhantomData<*mut N>,
}

// SAFETY: the edge itself is just an atomic word; what may be done with
// the pointer it resolves to is governed by the tree's (unsafe)
// internals, which impose their own `Send`/`Sync` bounds on node
// contents.
unsafe impl<N> Send for AtomicEdge<N> {}
unsafe impl<N> Sync for AtomicEdge<N> {}
// SAFETY: `Edge` is a plain-old-data snapshot of the word (plus a cached
// resolution of it).
unsafe impl<N> Send for Edge<N> {}
unsafe impl<N> Sync for Edge<N> {}

impl<N> AtomicEdge<N> {
    /// An edge initialized to `edge` (for nodes built before
    /// publication).
    #[inline]
    pub fn to(edge: Edge<N>) -> Self {
        AtomicEdge {
            word: AtomicU32::new(edge.word),
            _node: PhantomData,
        }
    }

    /// Atomically reads the edge, resolving its target against `arena`.
    #[inline]
    pub fn load(&self, arena: &NodePool) -> Edge<N> {
        Edge::from_word(arena, self.word.load(Ordering::Acquire))
    }

    /// `true` if the edge is currently null, read with `Relaxed`
    /// ordering.
    ///
    /// Only sound because null-ness is stable under every write the
    /// algorithm performs on a null edge (leaf child fields are written
    /// exactly never after publication) — callers must not infer
    /// anything about a *non*-null target from this.
    #[inline]
    pub fn is_null_relaxed(&self) -> bool {
        self.word.load(Ordering::Relaxed) & ADDR == 0
    }

    /// Reads the edge non-atomically; requires exclusive access.
    #[inline]
    pub fn load_mut(&mut self, arena: &NodePool) -> Edge<N> {
        Edge::from_word(arena, *self.word.get_mut())
    }

    /// Plain store for unpublished nodes (insert builds its subtree
    /// before the publishing CAS releases it).
    #[inline]
    pub fn store_unsynchronized(&self, edge: Edge<N>) {
        self.word.store(edge.word, Ordering::Relaxed);
    }

    /// The general CAS on an edge word. Counted as one atomic
    /// instruction under `feature = "instrument"`.
    ///
    /// Returns `Ok(())` on success and the observed edge (resolved
    /// against `arena`) on failure.
    #[inline]
    pub fn compare_exchange(
        &self,
        expected: Edge<N>,
        new: Edge<N>,
        arena: &NodePool,
    ) -> Result<(), Edge<N>> {
        stats::record_cas();
        self.word
            .compare_exchange(expected.word, new.word, Ordering::AcqRel, Ordering::Acquire)
            .map(|_| ())
            .map_err(|word| Edge::from_word(arena, word))
    }

    /// Sets the tag bit (the paper's BTS on the sibling edge, Algorithm 4
    /// line 106). Always succeeds; idempotent under helping. Counted as
    /// one atomic instruction.
    #[inline]
    pub fn set_tag(&self, mode: TagMode) {
        match mode {
            TagMode::FetchOr => {
                stats::record_bts();
                self.word.fetch_or(TAG, Ordering::AcqRel);
            }
            TagMode::CasLoop => loop {
                let current = self.word.load(Ordering::Acquire);
                if current & TAG != 0 {
                    break;
                }
                stats::record_cas();
                if self
                    .word
                    .compare_exchange_weak(
                        current,
                        current | TAG,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
                {
                    break;
                }
            },
        }
    }
}

impl<N> std::fmt::Debug for AtomicEdge<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let word = self.word.load(Ordering::Relaxed);
        write!(
            f,
            "Edge(slot {}, flag={}, tag={})",
            word >> 2,
            word & FLAG != 0,
            word & TAG != 0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::Layout;

    fn arena() -> NodePool {
        NodePool::new(Layout::new::<u64>(), true)
    }

    fn fake_node(arena: &NodePool) -> Edge<u64> {
        let (idx, ptr) = arena.bump();
        Edge::new(idx, ptr.as_ptr().cast())
    }

    #[test]
    fn clean_edge_roundtrip() {
        let a = arena();
        let e = fake_node(&a);
        assert!(!e.ptr().is_null());
        assert_eq!(a.slot_ptr(e.idx()).cast(), e.ptr());
        assert!(!e.flag());
        assert!(!e.tag());
        assert!(!e.marked());
    }

    #[test]
    fn marks_do_not_disturb_address() {
        let a = arena();
        let base = fake_node(&a);
        for (f, t) in [(false, false), (true, false), (false, true), (true, true)] {
            let e = base.with_marks(f, t);
            assert_eq!(e.ptr(), base.ptr());
            assert_eq!(e.idx(), base.idx());
            assert_eq!(e.flag(), f);
            assert_eq!(e.tag(), t);
            assert_eq!(e.marked(), f || t);
        }
    }

    #[test]
    fn flagged_sets_only_flag() {
        let a = arena();
        let e = fake_node(&a).flagged();
        assert!(e.flag());
        assert!(!e.tag());
    }

    #[test]
    fn cas_succeeds_on_expected_value() {
        let a = arena();
        let p = fake_node(&a);
        let q = fake_node(&a);
        let edge = AtomicEdge::to(p);
        assert!(edge.compare_exchange(p, q, &a).is_ok());
        assert_eq!(edge.load(&a).ptr(), q.ptr());
        assert_eq!(edge.load(&a).idx(), q.idx());
    }

    #[test]
    fn cas_fails_on_marked_edge() {
        let a = arena();
        let p = fake_node(&a);
        let q = fake_node(&a);
        let edge = AtomicEdge::to(p);
        edge.set_tag(TagMode::FetchOr);
        let err = edge.compare_exchange(p, q, &a).unwrap_err();
        assert!(err.tag());
        assert_eq!(err.ptr(), p.ptr());
        // A marked edge is frozen: its target can never change again.
        assert_eq!(edge.load(&a).ptr(), p.ptr());
    }

    #[test]
    fn flag_cas_is_the_injection_step() {
        let a = arena();
        let p = fake_node(&a);
        let edge = AtomicEdge::to(p);
        assert!(edge.compare_exchange(p, p.flagged(), &a).is_ok());
        assert!(edge.load(&a).flag());
        // Second injection on the same edge fails (duplicate delete).
        assert!(edge.compare_exchange(p, p.flagged(), &a).is_err());
    }

    #[test]
    fn tag_modes_agree() {
        let a = arena();
        for mode in [TagMode::FetchOr, TagMode::CasLoop] {
            let p = fake_node(&a);
            let edge = AtomicEdge::to(p);
            edge.set_tag(mode);
            let e = edge.load(&a);
            assert!(e.tag());
            assert!(!e.flag());
            assert_eq!(e.ptr(), p.ptr());
            // Idempotent.
            edge.set_tag(mode);
            assert_eq!(edge.load(&a), e);
        }
    }

    #[test]
    fn tag_preserves_flag() {
        let a = arena();
        let p = fake_node(&a);
        let edge = AtomicEdge::to(p);
        edge.compare_exchange(p, p.flagged(), &a).unwrap();
        edge.set_tag(TagMode::FetchOr);
        let e = edge.load(&a);
        assert!(e.flag() && e.tag());
    }

    #[test]
    fn null_edge() {
        let a = arena();
        let edge: AtomicEdge<u64> = AtomicEdge::to(Edge::null());
        assert!(edge.load(&a).ptr().is_null());
        assert_eq!(edge.load(&a).idx(), 0);
        assert!(!edge.load(&a).marked());
        assert!(edge.is_null_relaxed());
    }

    #[test]
    fn concurrent_taggers_idempotent() {
        let a = arena();
        let p = fake_node(&a);
        let edge = AtomicEdge::to(p);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        edge.set_tag(TagMode::FetchOr);
                        edge.set_tag(TagMode::CasLoop);
                    }
                });
            }
        });
        let e = edge.load(&a);
        assert!(e.tag());
        assert!(!e.flag());
        assert_eq!(e.ptr(), p.ptr());
    }
}
