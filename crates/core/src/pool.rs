//! Pool-aware node allocation over the arena slab (PR 4's recycling
//! layer, re-based onto PR 7's slot storage).
//!
//! Since PR 7 the shared [`NodePool`] is not an *optional* free list in
//! front of `malloc` — it **is** the node store. Every tree owns one
//! arena sized for its `Node<K, V>` layout; every node the tree ever
//! creates is a `u32` slot in it:
//!
//! * **retire → recycle**: the cleanup routine retires detached nodes
//!   with a *recycle deferral* ([`recycle_deferred`]) instead of a plain
//!   drop; when the reclaimer proves the grace period elapsed, the
//!   deferral drops the entries the node's drop hint says it still owns
//!   and pushes the slot onto the free list.
//! * **alloc → reuse**: allocation goes through a [`NodeCache`] — a
//!   per-handle (or per-call) unsynchronized cache over the shared pool —
//!   so hot loops pop recycled slots without touching shared state, and
//!   fall through to the arena's bump cursor (never `malloc`) on a miss.
//!
//! Reuse is ABA-safe *by construction*: the deferral only runs once no
//! live reference to the slot can exist, which is exactly the guarantee
//! reclamation already provides for freeing (DESIGN.md §11, §14). Under
//! [`Leaky`](nmbst_reclaim::Leaky) (`Reclaim::RECLAIMS == false`)
//! deferrals never run, so retired slots keep leaking inside the arena —
//! the free list then only ever reuses insert scratch that was discarded
//! unpublished.

use crate::chaos::{self, Action, Point};
use crate::node::Node;
use crate::stats;
use nmbst_reclaim::{Deferred, NodePool};
use std::alloc::Layout;
use std::sync::Arc;

/// How many slots a handle's [`NodeCache`] keeps privately. Refills and
/// give-backs move slots between this cache and the shared pool in
/// batches, so the shared lock is touched once per ~batch, not per node.
pub(crate) const HANDLE_CACHE_CAP: usize = 32;

/// Slots moved from the shared pool into a cache per refill.
const REFILL_BATCH: usize = 8;

/// The `pool` knob on [`TreeConfig`](crate::TreeConfig): whether retired
/// nodes are recycled into new inserts. One flag for A/B ablation — see
/// the perf bin's pool-on/pool-off cells. The arena itself always
/// exists (it is the node store); this knob only governs the
/// *recycling* free list, which takes back every reclaimed slot when on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Recycle retired nodes through a shared free list (default `true`).
    pub enabled: bool,
}

impl PoolConfig {
    /// Recycling off: every allocation bump-allocates fresh arena space
    /// and every reclaimed slot is abandoned until the tree drops — the
    /// pre-PR 4 behaviour, arena-backed.
    pub fn disabled() -> Self {
        PoolConfig { enabled: false }
    }
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig { enabled: true }
    }
}

/// An unsynchronized allocation cache over a tree's shared [`NodePool`].
///
/// Handles keep one alive across operations (capacity
/// [`HANDLE_CACHE_CAP`]); the plain API builds a transient zero-capacity
/// one per modify call, which then reads/writes the shared pool directly.
/// Either way this is the single choke point where node slots enter
/// and leave an operation, so hit/miss accounting batches here in plain
/// fields and flushes to the pool's atomics on drop/repin.
pub(crate) struct NodeCache<'t> {
    shared: &'t NodePool,
    local: Vec<u32>,
    local_cap: usize,
    hits: u64,
    misses: u64,
}

impl<'t> NodeCache<'t> {
    /// A transient cache that keeps nothing locally (plain-API calls).
    pub(crate) fn direct(shared: &'t NodePool) -> Self {
        Self::with_local(shared, 0)
    }

    /// A cache holding up to `local_cap` slots privately (handles).
    pub(crate) fn with_local(shared: &'t NodePool, local_cap: usize) -> Self {
        NodeCache {
            shared,
            local: Vec::new(),
            local_cap,
            hits: 0,
            misses: 0,
        }
    }

    /// The arena this cache serves slots of.
    #[inline]
    pub(crate) fn arena(&self) -> &'t NodePool {
        self.shared
    }

    /// Carves out one uninitialized slot for a `T`, preferring recycled
    /// slots and bump-allocating on a miss. Returns the slot's index and
    /// its (stable) address; the caller must initialize it before the
    /// node can be published or freed.
    pub(crate) fn alloc_raw<T>(&mut self) -> (u32, *mut T) {
        debug_assert_eq!(
            Layout::new::<T>(),
            self.shared.layout(),
            "cache serves exactly the tree's node layout"
        );
        if let Some(idx) = self
            .local
            .pop()
            .or_else(|| refill(&mut self.local, self.shared))
        {
            self.hits += 1;
            stats::record_pool_hit();
            return (idx, self.shared.slot_ptr(idx).cast());
        }
        self.misses += 1;
        stats::record_alloc();
        let (idx, ptr) = self.shared.bump();
        (idx, ptr.as_ptr().cast())
    }

    /// Returns a node's slot to the cache/pool. The node must already be
    /// a *shell*: whatever entries and routing key it owned were dropped
    /// by the caller (`drop_retired_contents` or entry extraction).
    ///
    /// # Safety
    ///
    /// `node` must be an exclusively owned, never-published (or fully
    /// unlinked and grace-period-expired) slot of this cache's arena,
    /// with all owned contents already dropped or moved out.
    pub(crate) unsafe fn free_shell<K, V>(&mut self, node: *mut Node<K, V>) {
        // SAFETY: the slot is exclusively owned per contract; `idx` is
        // plain data, valid even after the contents were dropped.
        let idx = unsafe { (*node).idx };
        if self.local.len() < self.local_cap {
            self.local.push(idx);
        } else {
            // SAFETY: slot provenance and dead contents per contract.
            unsafe { self.shared.release(idx) };
        }
    }

    /// Publishes batched hit/miss counts into the shared pool's stats.
    pub(crate) fn flush_counters(&mut self) {
        if self.hits != 0 || self.misses != 0 {
            self.shared.note_usage(self.hits, self.misses);
            self.hits = 0;
            self.misses = 0;
        }
    }
}

fn refill(local: &mut Vec<u32>, pool: &NodePool) -> Option<u32> {
    let mut first = None;
    pool.acquire_batch(REFILL_BATCH, |idx| {
        if first.is_none() {
            first = Some(idx);
        } else {
            local.push(idx);
        }
    });
    first
}

impl Drop for NodeCache<'_> {
    fn drop(&mut self) {
        self.flush_counters();
        // SAFETY: every cached slot satisfies the release contract (came
        // from this pool, contents dropped before caching).
        unsafe { self.shared.release_batch(&mut self.local) };
    }
}

/// Builds the deferral that recycles `node` once its grace period has
/// elapsed: drop the entries its drop hint says it still owns plus the
/// routing key, then hand the slot back to `pool` (the
/// [`Point::Recycle`] chaos hook can abandon the slot in place instead,
/// as a pool with recycling off does).
///
/// The deferral carries only a *raw* pointer to `pool` — no per-node
/// refcount traffic. The tree makes that sound by parking an `Arc` clone
/// of the pool inside the reclaimer
/// ([`Reclaim::hold`](nmbst_reclaim::Reclaim::hold)) at construction:
/// the reclaimer guarantees the token outlives every deferral it runs,
/// including on straggling collector threads.
///
/// # Safety
///
/// `node` must be unlinked and retired exactly once (the
/// [`RetireGuard::retire_deferred`](nmbst_reclaim::RetireGuard) contract
/// transfers to the caller), must be a slot of this pool, and its drop
/// hint must already describe which entries it still owns. The scheme
/// running the deferral must prove the grace period before calling it,
/// and the caller must have parked a pool keepalive in that scheme (see
/// above) so `pool` is alive whenever the deferral can run.
pub(crate) unsafe fn recycle_deferred<K: Send, V: Send>(
    node: *mut Node<K, V>,
    pool: &Arc<NodePool>,
) -> Deferred {
    unsafe fn recycle<K, V>(data: *mut (), ctx: *mut ()) {
        let node = data.cast::<Node<K, V>>();
        // SAFETY: the reclaimer holds a pool keepalive that outlives this
        // call (function contract).
        let pool = unsafe { &*(ctx as *const NodePool) };
        // SAFETY: the grace period elapsed — this deferral is the unique
        // owner. Read the slot index out before the contents die.
        let idx = unsafe { (*node).idx };
        // SAFETY: unique ownership; the drop hint was set before retire.
        unsafe { crate::node::drop_retired_contents(node) };
        if chaos::hit(Point::Recycle) == Action::Abandon {
            // Chaos: abandon the slot in place as a pool with recycling
            // off would (arena memory, reclaimed when the pool drops).
        } else {
            // SAFETY: slot provenance per contract, contents just dropped.
            unsafe { pool.release(idx) };
        }
    }
    let ctx = Arc::as_ptr(pool) as *mut ();
    // SAFETY: `recycle::<K, V>` releases exactly once; `K: Send, V: Send`
    // makes running it on a collector thread sound; leaking it uncalled
    // (Leaky) leaks only the slot's contents, as intended.
    unsafe { Deferred::from_raw(node.cast(), ctx, recycle::<K, V>) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{drop_retired_contents, HINT_ALL, HINT_NONE};

    fn pool_for<K, V>(recycle: bool) -> NodePool {
        NodePool::new(Layout::new::<Node<K, V>>(), recycle)
    }

    #[test]
    fn alloc_free_round_trip_reuses_slot() {
        let pool = pool_for::<u64, u64>(true);
        let mut cache = NodeCache::direct(&pool);
        let a = Node::<u64, u64>::new_user_leaf_in(&mut cache, 1, 10);
        unsafe {
            drop_retired_contents(a);
            cache.free_shell(a);
        }
        let b = Node::<u64, u64>::new_user_leaf_in(&mut cache, 2, 20);
        assert_eq!(a, b, "freed slot is reused LIFO");
        unsafe {
            drop_retired_contents(b);
            cache.free_shell(b);
        }
        drop(cache);
        let s = pool.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn recycling_off_cache_always_bumps() {
        let pool = pool_for::<u64, ()>(false);
        let mut cache = NodeCache::direct(&pool);
        let a = Node::<u64, ()>::new_user_leaf_in(&mut cache, 1, ());
        unsafe {
            drop_retired_contents(a);
            cache.free_shell(a);
        }
        let b = Node::<u64, ()>::new_user_leaf_in(&mut cache, 2, ());
        assert_ne!(a, b, "no recycling with the pool off");
        unsafe {
            drop_retired_contents(b);
            cache.free_shell(b);
        }
        drop(cache);
        let s = pool.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 2);
    }

    #[test]
    fn local_cache_batches_shared_traffic() {
        let pool = pool_for::<u64, ()>(true);
        // Seed the shared pool with a few slots.
        {
            let mut seed = NodeCache::direct(&pool);
            let nodes: Vec<_> = (0..6)
                .map(|i| Node::<u64, ()>::new_user_leaf_in(&mut seed, i, ()))
                .collect();
            for n in nodes {
                unsafe {
                    drop_retired_contents(n);
                    seed.free_shell(n);
                }
            }
        }
        assert_eq!(pool.len(), 6);
        let mut cache = NodeCache::with_local(&pool, 16);
        // One alloc refills a batch: the shared pool drains more than one.
        let n = Node::<u64, ()>::new_user_leaf_in(&mut cache, 9, ());
        assert!(pool.len() < 6);
        unsafe {
            drop_retired_contents(n);
            cache.free_shell(n);
        }
        drop(cache); // gives all cached slots back
        assert_eq!(pool.len(), 6);
    }

    #[test]
    fn recycle_deferred_honours_drop_hints() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct D(Arc<AtomicUsize>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let pool = Arc::new(pool_for::<u64, D>(true));
        let mut cache = NodeCache::direct(&pool);
        let moved = Node::<u64, D>::new_user_leaf_in(&mut cache, 1, D(Arc::clone(&drops)));
        let owned = Node::<u64, D>::new_user_leaf_in(&mut cache, 2, D(Arc::clone(&drops)));
        drop(cache);
        unsafe {
            // A COW-replaced block: its entry moved on, nothing drops.
            (*moved).set_drop_hint(HINT_NONE);
            recycle_deferred(moved, &pool).call();
            assert_eq!(drops.load(Ordering::Relaxed), 0);
            // But the orphaned entry must be dropped by *someone*; here
            // the test plays the replacement block's role.
            (*owned).set_drop_hint(HINT_ALL);
            recycle_deferred(owned, &pool).call();
            assert_eq!(drops.load(Ordering::Relaxed), 1);
        }
        assert_eq!(pool.len(), 2, "both slots recycled, not abandoned");
    }

    #[test]
    fn recycle_deferred_returns_slot_to_pool() {
        let pool = Arc::new(pool_for::<u64, u64>(true));
        let mut cache = NodeCache::direct(&pool);
        let node = Node::<u64, u64>::new_user_leaf_in(&mut cache, 7, 70);
        drop(cache);
        let d = unsafe { recycle_deferred(node, &pool) };
        assert_eq!(d.address(), node as usize);
        assert_eq!(pool.len(), 0);
        d.call();
        assert_eq!(pool.len(), 1, "slot recycled, not abandoned");
        assert_eq!(
            Arc::strong_count(&pool),
            1,
            "deferrals borrow the pool raw — no refcount traffic"
        );
    }
}
