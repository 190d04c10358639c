//! Per-thread node slots.
//!
//! Queue locks need a node per in-flight acquisition whose address stays
//! stable while other threads point at it. The Linux kernel keeps such nodes
//! in a per-CPU array (`qnodes[4]`, one per nesting context) and LiTL in
//! thread-local arrays. This module is the user-space equivalent: each thread
//! owns one heap block, aligned to 4 KiB, holding [`SLOTS`] slots of
//! [`SLOT_SIZE`] bytes and one busy mask.
//!
//! * [`acquire`] takes a free slot. A free slot that already holds a node of
//!   the requested type is handed out as it is, so no lock allocates in
//!   steady state (CLH keeps its recycled cell); otherwise the slot's old
//!   occupant is dropped and replaced by `N::default()`.
//! * [`release`] finds the slot from the node's address alone — the block
//!   is the address rounded down to 4 KiB — and clears its busy bit: no
//!   hashing, no downcast, no `RefCell`.
//! * Zero-sized nodes take no storage at all. Nodes larger or more aligned
//!   than a slot, a 17th nested acquisition, and acquisitions made while the
//!   thread is being torn down get a heap box instead.
//!
//! Nodes handed out may contain stale data from a previous acquisition;
//! every lock algorithm in this workspace (like the paper's pseudo-code,
//! Fig. 3 lines 2–4) fully re-initialises its node at the start of `lock`,
//! so this is safe.
//!
//! A [`PooledNode`] dropped without [`release`] keeps its slot busy, because
//! the node may still be linked into a lock's queue. A thread that exits
//! with a busy slot therefore leaks its whole block instead of freeing it.
//! A thread that exits with every slot free drops the slots' occupants and
//! frees the block.

use std::any::TypeId;
use std::cell::{Cell, UnsafeCell};
use std::marker::PhantomData;
use std::mem::{self, MaybeUninit};
use std::ops::Deref;
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Slots per thread: the deepest nesting served without a heap box.
pub const SLOTS: usize = 16;

/// Bytes per slot; a node fits when neither its size nor its alignment
/// exceeds this.
pub const SLOT_SIZE: usize = 128;

/// Size and alignment of a thread's block. Slots sit at the start of the
/// block, so a slot's address rounded down to this is the block.
const BLOCK_ALIGN: usize = 4096;

/// Busy mask with every slot busy.
const ALL_BUSY: u32 = u32::MAX >> (32 - SLOTS);

/// Address bit marking a handle whose node lives in a heap box. Slots are
/// [`SLOT_SIZE`]-aligned and boxes at least 2-aligned (see [`Boxed`]), so
/// the bit is free in both.
const BOXED: usize = 1;

/// One slot: raw storage for any node that [`fits_slot`].
#[repr(align(128))]
struct Slot(UnsafeCell<MaybeUninit<[u8; SLOT_SIZE]>>);

/// The type and destructor of the node a slot last held.
#[derive(Clone, Copy)]
struct Occupant {
    type_id: TypeId,
    drop: unsafe fn(*mut u8),
}

impl Occupant {
    fn of<N: 'static>() -> Self {
        Occupant {
            type_id: TypeId::of::<N>(),
            drop: drop_node::<N>,
        }
    }
}

/// Drops the `N` at `node`.
///
/// # Safety
///
/// `node` must point to a live, initialised `N` that is not used again.
unsafe fn drop_node<N>(node: *mut u8) {
    // SAFETY: forwarded contract.
    unsafe { ptr::drop_in_place(node.cast::<N>()) }
}

/// A thread's node storage.
#[repr(C, align(4096))]
struct Block {
    slots: [Slot; SLOTS],
    /// Bit `i` is set while slot `i` backs a live [`PooledNode`].
    busy: Cell<u32>,
    /// What each slot holds; `None` for a slot that was never used.
    occupants: [Cell<Option<Occupant>>; SLOTS],
}

const _: () = assert!(mem::align_of::<Slot>() == SLOT_SIZE);
const _: () = assert!(mem::size_of::<Block>() == BLOCK_ALIGN);

impl Block {
    fn new() -> Self {
        Block {
            slots: [const { Slot(UnsafeCell::new(MaybeUninit::uninit())) }; SLOTS],
            busy: Cell::new(0),
            occupants: [const { Cell::new(None) }; SLOTS],
        }
    }

    #[inline]
    fn slot_ptr(&self, i: usize) -> *mut u8 {
        self.slots[i].0.get().cast()
    }

    /// Takes a slot for an `N` and returns the handle's raw value (a boxed
    /// node when every slot is busy).
    #[inline]
    fn take<N: Default + 'static>(&self) -> usize {
        let want = TypeId::of::<N>();
        let mut free = !self.busy.get() & ALL_BUSY;
        while free != 0 {
            let i = free.trailing_zeros() as usize;
            if self.occupants[i].get().is_some_and(|o| o.type_id == want) {
                self.busy.set(self.busy.get() | 1 << i);
                return self.slot_ptr(i) as usize;
            }
            free &= free - 1;
        }
        self.fill::<N>()
    }

    /// The miss path of [`Block::take`]: no free slot holds an `N`.
    #[cold]
    #[inline(never)]
    fn fill<N: Default + 'static>(&self) -> usize {
        assert!(fits_slot::<N>(), "only nodes that fit are slotted");
        // Build the node first: `Default` may itself acquire nodes.
        let node = N::default();
        let free = !self.busy.get() & ALL_BUSY;
        // The lowest never-used free slot, else the lowest free slot.
        let Some(i) = (0..SLOTS)
            .filter(|&i| free & 1 << i != 0)
            .min_by_key(|&i| self.occupants[i].get().is_some())
        else {
            return boxed(node);
        };
        // Busy before the old occupant's destructor runs, so a nested
        // acquisition from that destructor cannot take this slot.
        self.busy.set(self.busy.get() | 1 << i);
        let slot = self.slot_ptr(i);
        if let Some(old) = self.occupants[i].take() {
            // SAFETY: the slot held an initialised node of `old`'s type,
            // which no handle refers to (the slot was free), and with the
            // occupant cleared it is dropped exactly once.
            unsafe { (old.drop)(slot) };
        }
        // SAFETY: the node fits a slot (asserted above), and the slot is
        // reserved and empty.
        unsafe { slot.cast::<N>().write(node) };
        self.occupants[i].set(Some(Occupant::of::<N>()));
        slot as usize
    }
}

/// A heap-boxed node, at least 2-aligned so its address leaves [`BOXED`]
/// free.
#[repr(C)]
struct Boxed<N> {
    node: N,
    _align: [u16; 0],
}

/// Boxes `node` and returns the handle's raw value.
fn boxed<N>(node: N) -> usize {
    Box::into_raw(Box::new(Boxed { node, _align: [] })) as usize | BOXED
}

/// The thread's block, allocated on first use.
struct Home(Cell<*mut Block>);

impl Home {
    #[inline]
    fn block(&self) -> &Block {
        let mut block = self.0.get();
        if block.is_null() {
            block = self.allocate();
        }
        // SAFETY: the block is freed only by `Home::drop`, after which this
        // thread-local is no longer reachable.
        unsafe { &*block }
    }

    #[cold]
    #[inline(never)]
    fn allocate(&self) -> *mut Block {
        let block = Box::into_raw(Box::new(Block::new()));
        self.0.set(block);
        block
    }
}

impl Drop for Home {
    fn drop(&mut self) {
        let block = self.0.replace(ptr::null_mut());
        if block.is_null() {
            return;
        }
        // SAFETY: the block was allocated by `Home::block` and is still live.
        let b = unsafe { &*block };
        if b.busy.get() != 0 {
            // A busy slot's node may still be linked into a queue that other
            // threads walk: keep the whole block alive.
            LEAKED_BLOCKS.fetch_add(1, Ordering::Relaxed);
            return;
        }
        for (i, occupant) in b.occupants.iter().enumerate() {
            if let Some(old) = occupant.take() {
                // SAFETY: the slot is free and holds an initialised node of
                // `old`'s type; clearing the occupant first drops it once.
                unsafe { (old.drop)(b.slot_ptr(i)) };
            }
        }
        // SAFETY: allocated by `Box::new` in `Home::allocate`; no slot is busy,
        // so no handle points into it, and `Block` owns nothing else.
        drop(unsafe { Box::from_raw(block) });
    }
}

thread_local! {
    static HOME: Home = const { Home(Cell::new(ptr::null_mut())) };
}

/// Blocks leaked by exiting threads, process-wide.
static LEAKED_BLOCKS: AtomicUsize = AtomicUsize::new(0);

/// Whether an `N` is served without a heap box. Zero-sized nodes always
/// are: they take no storage at all.
pub const fn fits_slot<N>() -> bool {
    mem::size_of::<N>() <= SLOT_SIZE && mem::align_of::<N>() <= SLOT_SIZE
}

/// Handle to a node taken by [`acquire`]; give it back with [`release`].
///
/// The handle dereferences to the node, whose address stays fixed until
/// `release`. Dropping the handle without `release` keeps the node's slot
/// busy for the rest of the thread's life: the node may still be linked into
/// a queue.
///
/// The handle is `!Send`, because the slot belongs to the acquiring thread:
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<sync_core::node_pool::PooledNode<u64>>();
/// ```
pub struct PooledNode<N: 'static> {
    /// Node address, with [`BOXED`] set for a heap-boxed node.
    raw: usize,
    _owner: PhantomData<*mut N>,
}

impl<N: 'static> PooledNode<N> {
    #[inline]
    fn new(raw: usize) -> Self {
        PooledNode {
            raw,
            _owner: PhantomData,
        }
    }

    #[inline]
    fn as_ptr(&self) -> *mut N {
        if mem::size_of::<N>() == 0 {
            NonNull::dangling().as_ptr()
        } else {
            (self.raw & !BOXED) as *mut N
        }
    }

    /// Unwraps the handle into its tagged node address, e.g. to carry it in
    /// a [`LockToken`](crate::erased::LockToken); pair with
    /// [`PooledNode::from_raw`].
    #[inline]
    pub fn into_raw(self) -> usize {
        self.raw
    }

    /// Rebuilds a handle from [`PooledNode::into_raw`].
    ///
    /// # Safety
    ///
    /// `raw` must come from `into_raw` on a handle of the same node type, on
    /// this thread, and must be turned back into a handle only once.
    #[inline]
    pub unsafe fn from_raw(raw: usize) -> Self {
        PooledNode::new(raw)
    }
}

impl<N: 'static> Deref for PooledNode<N> {
    type Target = N;
    #[inline]
    fn deref(&self) -> &N {
        // SAFETY: the handle owns an initialised node (dangling but aligned
        // for zero-sized ones) that stays in place until `release`.
        unsafe { &*self.as_ptr() }
    }
}

/// Takes a node of type `N` for one acquisition on the calling thread.
///
/// The node may hold stale contents; callers (lock implementations) must
/// initialise every field they rely on.
#[inline]
pub fn acquire<N: Default + 'static>() -> PooledNode<N> {
    if mem::size_of::<N>() == 0 {
        mem::forget(N::default());
        return PooledNode::new(NonNull::<N>::dangling().as_ptr() as usize);
    }
    if fits_slot::<N>() {
        if let Ok(raw) = HOME.try_with(|home| home.block().take::<N>()) {
            return PooledNode::new(raw);
        }
    }
    PooledNode::new(boxed(N::default()))
}

/// Returns a node taken by [`acquire`].
///
/// A slot keeps its node for the next acquisition of the same type; a
/// boxed node is dropped.
#[inline]
pub fn release<N: 'static>(node: PooledNode<N>) {
    let raw = node.raw;
    if mem::size_of::<N>() == 0 {
        // SAFETY: `acquire` built (and forgot) the zero-sized node; this is
        // its one release.
        unsafe { ptr::drop_in_place(node.as_ptr()) };
    } else if raw & BOXED != 0 {
        // SAFETY: the handle came from `boxed::<N>` and is released once.
        drop(unsafe { Box::from_raw((raw & !BOXED) as *mut Boxed<N>) });
    } else {
        let block = (raw & !(BLOCK_ALIGN - 1)) as *const Block;
        let bit = 1 << ((raw & (BLOCK_ALIGN - 1)) / SLOT_SIZE);
        // SAFETY: an unboxed handle points at a slot of this thread's block
        // (the handle is `!Send`), and a block with a busy slot is never
        // freed.
        let busy = unsafe { &(*block).busy };
        busy.set(busy.get() & !bit);
    }
}

/// Runs `f` on the calling thread's block, if it has one.
fn peek<R>(f: impl FnOnce(&Block) -> R) -> Option<R> {
    HOME.try_with(|home| {
        let block = home.0.get();
        // SAFETY: a non-null block is live while its thread-local is.
        (!block.is_null()).then(|| f(unsafe { &*block }))
    })
    .ok()
    .flatten()
}

/// The calling thread's busy mask: bit `i` is set while slot `i` backs a
/// live [`PooledNode`]. Zero before the thread's first slotted acquisition.
pub fn busy_slots() -> u32 {
    peek(|block| block.busy.get()).unwrap_or(0)
}

/// Number of free slots on the calling thread holding a node of type `N`,
/// ready for reuse.
pub fn pooled_count<N: 'static>() -> usize {
    peek(|block| {
        let free = !block.busy.get() & ALL_BUSY;
        (0..SLOTS)
            .filter(|&i| free & 1 << i != 0)
            .filter(|&i| {
                block.occupants[i]
                    .get()
                    .is_some_and(|o| o.type_id == TypeId::of::<N>())
            })
            .count()
    })
    .unwrap_or(0)
}

/// Number of blocks that exiting threads leaked, process-wide, because a
/// slot was still busy (a diagnostic for tests).
pub fn leaked_blocks() -> usize {
    LEAKED_BLOCKS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[derive(Default, Debug, PartialEq)]
    struct NodeA {
        value: u64,
    }

    #[derive(Default)]
    struct NodeB(#[allow(dead_code)] u8);

    #[derive(Default)]
    struct Oversized(#[allow(dead_code)] [u64; SLOT_SIZE / 8 + 1]);

    #[derive(Default)]
    #[repr(align(256))]
    struct OverAligned(#[allow(dead_code)] u8);

    /// A node whose drop shows in the strong count of the `Arc` it holds.
    #[derive(Default)]
    struct Tracked(Option<Arc<()>>);

    /// Takes a `Tracked` node and points it at `witness`.
    fn tracked(witness: &Arc<()>) -> PooledNode<Tracked> {
        let node = acquire::<Tracked>();
        // SAFETY: the handle is the sole user of its node.
        unsafe { (*node.as_ptr()).0 = Some(Arc::clone(witness)) };
        node
    }

    /// Runs `f` on a fresh thread, so it starts with an empty block.
    fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
        std::thread::scope(|s| s.spawn(f).join().unwrap())
    }

    #[test]
    fn acquire_release_reuses_the_same_slot() {
        on_fresh_thread(|| {
            let node = acquire::<NodeA>();
            // SAFETY: the handle is the sole user of its node.
            unsafe { (*node.as_ptr()).value = 7 };
            let addr = &*node as *const NodeA as usize;
            assert_eq!(addr % SLOT_SIZE, 0, "slots are slot-aligned");
            assert_eq!(busy_slots(), 1);
            release(node);
            assert_eq!(busy_slots(), 0);
            let node2 = acquire::<NodeA>();
            assert_eq!(&*node2 as *const NodeA as usize, addr, "slot is reused");
            assert_eq!(node2.value, 7, "slots are not cleared; locks must");
            release(node2);
        });
    }

    #[test]
    fn pools_are_per_type() {
        on_fresh_thread(|| {
            let a = acquire::<NodeA>();
            let b = acquire::<NodeB>();
            assert_ne!(a.as_ptr() as usize, b.as_ptr() as usize);
            release(a);
            release(b);
            assert_eq!(pooled_count::<NodeA>(), 1);
            assert_eq!(pooled_count::<NodeB>(), 1);
            // Each type finds its own slot again.
            let a = acquire::<NodeA>();
            let b = acquire::<NodeB>();
            assert_eq!(pooled_count::<NodeA>(), 0);
            assert_eq!(pooled_count::<NodeB>(), 0);
            release(b);
            release(a);
        });
    }

    #[test]
    fn pool_size_is_capped() {
        on_fresh_thread(|| {
            let nodes: Vec<PooledNode<NodeA>> = (0..SLOTS + 10).map(|_| acquire()).collect();
            assert_eq!(busy_slots(), ALL_BUSY);
            let boxed = nodes.iter().filter(|n| n.raw & BOXED != 0).count();
            assert_eq!(boxed, 10, "acquisitions past the slot count are boxed");
            for n in nodes {
                release(n);
            }
            assert_eq!(busy_slots(), 0);
            assert_eq!(pooled_count::<NodeA>(), SLOTS);
        });
    }

    #[test]
    fn pools_are_thread_local() {
        release(acquire::<NodeA>());
        assert!(pooled_count::<NodeA>() >= 1);
        let other = on_fresh_thread(|| (pooled_count::<NodeA>(), busy_slots()));
        assert_eq!(other, (0, 0), "a fresh thread starts with an empty block");
    }

    #[test]
    fn zero_sized_nodes_take_no_slot() {
        on_fresh_thread(|| {
            let node = acquire::<()>();
            assert_eq!(busy_slots(), 0);
            release(node);
            assert_eq!(pooled_count::<()>(), 0);
        });
    }

    #[test]
    fn oversized_and_over_aligned_nodes_are_boxed() {
        assert!(!fits_slot::<Oversized>());
        assert!(!fits_slot::<OverAligned>());
        on_fresh_thread(|| {
            let big = acquire::<Oversized>();
            let aligned = acquire::<OverAligned>();
            assert_eq!(aligned.as_ptr() as usize % 256, 0);
            assert_eq!(busy_slots(), 0);
            release(big);
            release(aligned);
        });
    }

    #[test]
    fn a_new_type_evicts_and_drops_an_idle_occupant() {
        let witness = Arc::new(());
        on_fresh_thread(|| {
            let held: Vec<PooledNode<NodeA>> = (0..SLOTS - 1).map(|_| acquire()).collect();
            release(tracked(&witness));
            assert_eq!(Arc::strong_count(&witness), 2, "idle slots keep nodes");
            // The only free slot holds a `Tracked`; a `NodeB` evicts it.
            let b = acquire::<NodeB>();
            assert_eq!(
                Arc::strong_count(&witness),
                1,
                "the evicted node is dropped"
            );
            release(b);
            held.into_iter().for_each(release);
        });
    }

    #[test]
    fn thread_exit_drops_idle_occupants() {
        let witness = Arc::new(());
        on_fresh_thread(|| release(tracked(&witness)));
        assert_eq!(Arc::strong_count(&witness), 1);
    }

    #[test]
    fn thread_exit_with_a_busy_slot_leaks_the_block() {
        let witness = Arc::new(());
        let before = leaked_blocks();
        on_fresh_thread(|| {
            let idle = tracked(&witness);
            // Dropped without `release`: its slot stays busy.
            let _dropped = tracked(&witness);
            release(idle);
        });
        assert_eq!(Arc::strong_count(&witness), 3, "no occupant is dropped");
        assert!(leaked_blocks() > before);
    }
}
