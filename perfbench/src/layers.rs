//! Per-layer probes for traced runs: batches of calls into each layer's
//! public function between a caller and the lock word, each batch one span,
//! each repetition on a fresh thread.

use std::hint::black_box;

use cna::CnaLock;
use locks::McsLock;
use qspinlock::CnaQSpinLock;
use registry::{with_ambient, AmbientLock, LockId};
use sync_core::{node_pool, LockMutex, RawLock};

use crate::trace::{Recorder, Trace, ROOT};

/// Calls per span.
const CALLS: u32 = 1024;
/// Spans per repetition.
const SPANS: u64 = 32;
/// Fresh-thread repetitions per probe.
const REPS: usize = 16;

/// Runs `call` in `REPS` fresh threads, `SPANS` spans of `calls` calls each,
/// recording the spans under `name`. `init` builds each thread's state.
fn probe<S>(
    trace: &Trace,
    name: &str,
    calls: u32,
    init: impl Fn() -> S + Sync,
    call: impl Fn(&S) + Sync,
) {
    let id = trace.name(name);
    for _ in 0..REPS {
        let recorder = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let state = init();
                    let mut recorder = Recorder::default();
                    for batch in 0..SPANS {
                        let span = recorder.open(id, batch, ROOT);
                        for _ in 0..calls {
                            call(&state);
                        }
                        recorder.close(span, calls);
                    }
                    recorder
                })
                .join()
                .expect("probe thread panicked")
        });
        trace.merge(recorder);
    }
}

fn probe_lock<L>(trace: &Trace, id: LockId)
where
    L: RawLock + 'static,
    L::Node: 'static,
{
    probe(
        trace,
        &span_name("raw", id),
        CALLS,
        || (L::default(), L::Node::default()),
        |(lock, node)| {
            // SAFETY: `node` belongs to this thread's probe state, stays in
            // place, and each lock is released once by the thread holding it.
            unsafe {
                lock.lock(node);
                lock.unlock(node);
            }
        },
    );
    probe(
        trace,
        &span_name("node_pool", id),
        CALLS,
        || (),
        |_| node_pool::release(black_box(node_pool::acquire::<L::Node>())),
    );
    probe(
        trace,
        &span_name("mutex", id),
        CALLS,
        || LockMutex::<u64, L>::new(0),
        |m| *m.lock() += 1,
    );
    probe(
        trace,
        &span_name("dyn", id),
        CALLS,
        || id.build(),
        |lock| {
            // SAFETY: the token is released once, on this thread, while held.
            unsafe {
                let token = lock.raw_lock();
                lock.raw_unlock(token);
            }
        },
    );
    probe(
        trace,
        &span_name("ambient", id),
        CALLS,
        || with_ambient(id, LockMutex::<u64, AmbientLock>::default),
        |m| *m.lock() += 1,
    );
    probe(
        trace,
        &span_name("registry", id),
        CALLS / 4,
        || (),
        |_| drop(black_box(id.build())),
    );
}

/// The span name of `layer`'s probe for `id`, e.g. `raw.mcs.acq_rel`.
pub fn span_name(layer: &str, id: LockId) -> String {
    let call = match layer {
        "node_pool" => "round_trip",
        "registry" => "build",
        _ => "acq_rel",
    };
    format!("{layer}.{}.{call}", id.name())
}

/// Probes every layer for each of `locks`, plus the topology lookup CNA makes
/// on every acquisition.
pub fn probe_all(trace: &Trace, locks: &[LockId]) {
    for &id in locks {
        match id {
            LockId::Mcs => probe_lock::<McsLock>(trace, id),
            LockId::Cna => probe_lock::<CnaLock>(trace, id),
            LockId::QSpinCna => probe_lock::<CnaQSpinLock>(trace, id),
            other => panic!("no layer probe for {}", other.name()),
        }
    }
    probe(
        trace,
        "topology.current_socket",
        CALLS,
        || (),
        |_| {
            black_box(numa_topology::current_socket());
        },
    );
}
