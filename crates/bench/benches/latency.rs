//! Criterion micro-benchmarks: single-thread acquire/release latency of the
//! real lock implementations, driven through the lock registry.
//!
//! This is the wall-clock counterpart of the paper's single-thread claim:
//! CNA adds no overhead over MCS when uncontended (one atomic swap on
//! acquire, no atomic on release), while the hierarchical NUMA-aware locks
//! pay for multiple atomic operations per acquisition.
//!
//! Every registered algorithm is measured through the same type-erased
//! [`DynLock`](sync_core::DynLock) token path, so the erased-adapter cost
//! (one virtual call plus a node-slot round trip) is a constant added to
//! every series and relative comparisons match the generic path.

use criterion::{criterion_group, criterion_main, Criterion};
use registry::LockId;

fn uncontended_latency(c: &mut Criterion) {
    for id in LockId::ALL {
        let lock = id.build();
        c.bench_function(&format!("uncontended/{id}"), |b| {
            b.iter(|| {
                // SAFETY: matched raw_lock/raw_unlock pair on this thread.
                unsafe {
                    let token = lock.raw_lock();
                    lock.raw_unlock(std::hint::black_box(token));
                }
            })
        });
    }
}

fn configure() -> Criterion {
    // Keep runs short: this executes on a single-CPU CI host.
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_millis(400))
        .warm_up_time(std::time::Duration::from_millis(150))
}

criterion_group! {
    name = benches;
    config = configure();
    targets = uncontended_latency
}
criterion_main!(benches);
