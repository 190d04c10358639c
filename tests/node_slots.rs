//! Per-thread node slots (`sync_core::node_pool`) under every registered
//! lock, driven through both safe adapters: `LockMutex` (the lock type known
//! at compile time) and `DynLock` (the lock chosen by `LockId`).
//!
//! Covered: a panic in the critical section, nesting deeper than the slot
//! count with out-of-order release, thread exit with a forgotten guard, and
//! thread exit with every slot free (checked with a counting allocator).

use std::alloc::{GlobalAlloc, Layout, System};
use std::any::TypeId;
use std::cell::Cell;
use std::mem;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Mutex;

use cna::raw::CnaLockOpt;
use cna::CnaLock;
use locks::{
    CBoMcsLock, CPtlTktLock, CTktTktLock, ClhLock, FissileLock, HboLock, HmcsLock, McsCrLock,
    McsLock, PartitionedTicketLock, TestAndSetLock, TicketLock, TtasBackoffLock,
};
use qspinlock::{CnaQSpinLock, StockQSpinLock};
use registry::{AmbientNode, LockId};
use sync_core::node_pool::{self, SLOTS};
use sync_core::{DynLock, DynLockGuard, LockGuard, LockMutex, RawLock};

/// Counts the bytes allocated minus the bytes freed by threads that opted
/// in, so a test can tell whether a thread left anything behind.
struct Counting;

thread_local! {
    static TRACKED: Cell<bool> = const { Cell::new(false) };
}

/// Net bytes allocated by tracked threads.
static NET_BYTES: AtomicIsize = AtomicIsize::new(0);

fn tracked() -> bool {
    TRACKED.try_with(Cell::get).unwrap_or(false)
}

// SAFETY: forwards every call to the system allocator unchanged; the
// bookkeeping touches only an atomic and a const thread-local without a
// destructor, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() && tracked() {
            NET_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if tracked() {
            NET_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        }
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Serializes the tests that read the process-wide counters
/// (`node_pool::leaked_blocks`, `NET_BYTES`).
static COUNTERS: Mutex<()> = Mutex::new(());

fn counters() -> std::sync::MutexGuard<'static, ()> {
    COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Calls `$check::<L>(id)` for every registered lock type.
macro_rules! for_every_lock {
    ($check:ident) => {{
        $check::<TestAndSetLock>(LockId::Tas);
        $check::<TtasBackoffLock>(LockId::TtasBackoff);
        $check::<TicketLock>(LockId::Ticket);
        $check::<PartitionedTicketLock>(LockId::PartitionedTicket);
        $check::<ClhLock>(LockId::Clh);
        $check::<McsLock>(LockId::Mcs);
        $check::<HboLock>(LockId::Hbo);
        $check::<CBoMcsLock>(LockId::CBoMcs);
        $check::<CTktTktLock>(LockId::CTktTkt);
        $check::<CPtlTktLock>(LockId::CPtlTkt);
        $check::<HmcsLock>(LockId::Hmcs);
        $check::<CnaLock>(LockId::Cna);
        $check::<CnaLockOpt>(LockId::CnaOpt);
        $check::<StockQSpinLock>(LockId::QSpinStock);
        $check::<CnaQSpinLock>(LockId::QSpinCna);
        $check::<FissileLock>(LockId::Fissile);
        $check::<McsCrLock>(LockId::Mcscr);
    }};
}

/// The two adapters every check runs through.
#[derive(Clone, Copy, Debug)]
enum Adapter {
    Mutex,
    Dyn,
}

const ADAPTERS: [Adapter; 2] = [Adapter::Mutex, Adapter::Dyn];

/// One lock of type `L` behind one adapter.
enum Subject<L: RawLock> {
    Mutex(LockMutex<u64, L>),
    Dyn(DynLock),
}

/// A held acquisition of a [`Subject`].
enum Held<'a, L: RawLock>
where
    L::Node: 'static,
{
    Mutex(#[allow(dead_code)] LockGuard<'a, u64, L>),
    Dyn(#[allow(dead_code)] DynLockGuard<'a>),
}

impl<L: RawLock + 'static> Subject<L>
where
    L::Node: 'static,
{
    fn new(adapter: Adapter, id: LockId) -> Self {
        match adapter {
            Adapter::Mutex => Subject::Mutex(LockMutex::new(0)),
            Adapter::Dyn => {
                let lock = id.build();
                assert_eq!(lock.lock_type_id(), TypeId::of::<L>(), "{id} builds L");
                Subject::Dyn(lock)
            }
        }
    }

    fn lock(&self) -> Held<'_, L> {
        match self {
            Subject::Mutex(m) => Held::Mutex(m.lock()),
            Subject::Dyn(d) => Held::Dyn(d.lock()),
        }
    }
}

/// Whether acquisitions of `L` take a slot (zero-sized nodes take none).
fn takes_slot<L: RawLock>() -> bool {
    mem::size_of::<L::Node>() != 0
}

/// Runs `f` on a fresh thread, which starts with no node block.
fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| s.spawn(f).join().expect("check thread panicked"))
}

/// Net heap bytes that a fresh thread running `f` allocated and did not
/// free, its exit included. Thread start-up moves a few bytes between the
/// spawner and the thread, so compare against an empty `f` (passed the same
/// way, so that the spawned closure has the same size).
fn net_bytes_left_by(f: &(dyn Fn() + Sync)) -> isize {
    let before = NET_BYTES.load(Ordering::Relaxed);
    on_fresh_thread(|| {
        TRACKED.with(|t| t.set(true));
        f();
    });
    NET_BYTES.load(Ordering::Relaxed) - before
}

#[test]
fn every_registered_lock_is_checked() {
    static SEEN: Mutex<Vec<LockId>> = Mutex::new(Vec::new());
    fn record<L: RawLock + 'static>(id: LockId)
    where
        L::Node: 'static,
    {
        assert_eq!(id.build().lock_type_id(), TypeId::of::<L>(), "{id}");
        SEEN.lock().unwrap().push(id);
    }
    for_every_lock!(record);
    assert_eq!(*SEEN.lock().unwrap(), LockId::ALL);
}

#[test]
fn every_registered_node_fits_a_slot() {
    fn check<L: RawLock + 'static>(id: LockId)
    where
        L::Node: 'static,
    {
        assert!(
            node_pool::fits_slot::<L::Node>(),
            "{id}: node of {} B / align {} exceeds a slot",
            mem::size_of::<L::Node>(),
            mem::align_of::<L::Node>()
        );
    }
    for_every_lock!(check);
    assert!(node_pool::fits_slot::<AmbientNode>());
    // The erased-lock model-check scenario (`dyn_mcs_pool_scenario`) runs
    // MCS over the instrumented atomics.
    assert!(node_pool::fits_slot::<
        <modelcheck::suite::ModelMcs as RawLock>::Node,
    >());
}

#[test]
fn a_panic_in_the_critical_section_frees_the_slot() {
    fn check<L: RawLock + 'static>(id: LockId)
    where
        L::Node: 'static,
    {
        for adapter in ADAPTERS {
            on_fresh_thread(|| {
                let subject = Subject::<L>::new(adapter, id);
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                    let _held = subject.lock();
                    assert_eq!(
                        node_pool::busy_slots().count_ones(),
                        takes_slot::<L>() as u32
                    );
                    panic!("critical section of {id} panics");
                }));
                assert!(outcome.is_err());
                assert_eq!(node_pool::busy_slots(), 0, "{id}/{adapter:?}");
                // The lock was released: this thread and another take it.
                drop(subject.lock());
                std::thread::scope(|s| {
                    s.spawn(|| drop(subject.lock()));
                });
                assert_eq!(node_pool::busy_slots(), 0, "{id}/{adapter:?}");
            });
        }
    }
    for_every_lock!(check);
}

#[test]
fn nesting_past_the_slot_count_falls_back_and_keeps_the_mask_exact() {
    const DEPTH: usize = SLOTS + 4;
    fn check<L: RawLock + 'static>(id: LockId)
    where
        L::Node: 'static,
    {
        for adapter in ADAPTERS {
            on_fresh_thread(|| {
                let subjects: Vec<Subject<L>> =
                    (0..DEPTH).map(|_| Subject::new(adapter, id)).collect();
                // Acquire all, recording the slot bit each acquisition took.
                let mut held = Vec::new();
                for (depth, subject) in subjects.iter().enumerate() {
                    let before = node_pool::busy_slots();
                    let guard = subject.lock();
                    let bit = node_pool::busy_slots() ^ before;
                    let expected = takes_slot::<L>() && depth < SLOTS;
                    assert_eq!(
                        bit.count_ones(),
                        expected as u32,
                        "{id}/{adapter:?} @{depth}"
                    );
                    assert_eq!(bit & before, 0);
                    held.push(Some((guard, bit)));
                }
                // Release out of order (7 is coprime to DEPTH): after each
                // release the mask is exactly the bits of the guards left.
                for step in 0..DEPTH {
                    let index = step * 7 % DEPTH;
                    let (guard, _) = held[index].take().expect("released once");
                    drop(guard);
                    let expected = held.iter().flatten().fold(0, |mask, (_, bit)| mask | bit);
                    assert_eq!(node_pool::busy_slots(), expected, "{id}/{adapter:?}");
                }
                assert_eq!(node_pool::busy_slots(), 0);
            });
        }
    }
    for_every_lock!(check);
}

#[test]
fn a_thread_exiting_with_a_forgotten_guard_leaks_its_block() {
    fn check<L: RawLock + 'static>(id: LockId)
    where
        L::Node: 'static,
    {
        for adapter in ADAPTERS {
            // The lock stays held for good, so it must outlive the test.
            let subject: &'static Subject<L> = Box::leak(Box::new(Subject::new(adapter, id)));
            let before = node_pool::leaked_blocks();
            on_fresh_thread(|| mem::forget(subject.lock()));
            assert_eq!(
                node_pool::leaked_blocks() - before,
                takes_slot::<L>() as usize,
                "{id}/{adapter:?}: a busy slot keeps its block; no slot, no block"
            );
        }
    }
    let _counters = counters();
    for_every_lock!(check);
}

#[test]
fn a_thread_exiting_with_free_slots_frees_its_block_and_occupants() {
    fn work<L: RawLock + 'static>(adapter: Adapter, id: LockId)
    where
        L::Node: 'static,
    {
        let outer = Subject::<L>::new(adapter, id);
        let inner = Subject::<L>::new(adapter, id);
        for _ in 0..3 {
            let _a = outer.lock();
            drop(inner.lock());
        }
    }
    fn check<L: RawLock + 'static>(id: LockId)
    where
        L::Node: 'static,
    {
        for adapter in ADAPTERS {
            // Untracked warm-up: process-wide lazies (topology, registry)
            // allocate once and are never freed.
            on_fresh_thread(|| work::<L>(adapter, id));
            let leaked = node_pool::leaked_blocks();
            let left = net_bytes_left_by(&|| {
                work::<L>(adapter, id);
                // The block is still allocated; it and the occupants (CLH's
                // recycled cells) go at thread exit, after this returns.
                assert_eq!(
                    node_pool::pooled_count::<L::Node>(),
                    2 * takes_slot::<L>() as usize
                );
            });
            assert_eq!(
                left,
                net_bytes_left_by(&|| ()),
                "{id}/{adapter:?}: the exiting thread left heap bytes behind"
            );
            assert_eq!(node_pool::leaked_blocks(), leaked, "{id}/{adapter:?}");
        }
    }
    let _counters = counters();
    for_every_lock!(check);
}
