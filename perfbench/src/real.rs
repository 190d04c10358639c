//! The real-thread workloads: closed-loop worker threads driving
//! `ShardedKvMap::incr` (the `DynLock` path) and `leveldb_lite::Db::get` on a
//! `Db<AmbientLock>` (the `LockMutex<_, AmbientLock>` path) for each lock.
//!
//! Every repetition runs on fresh worker threads, so per-thread state such
//! as the node pool's hash map is re-created each time, and the reported
//! values are medians across repetitions. The locks take turns rep by rep,
//! so slow drifts of the host hit all of them alike.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use harness::{RunConfig, ShardedKvMap};
use leveldb_lite::Db;
use numa_topology::SocketOverrideGuard;
use registry::{with_ambient, AmbientLock, LockId};

use crate::alloc::live_bytes;
use crate::rng::SplitMix;
use crate::stats::{quantile, Reps};
use crate::tools::ToolsRun;
use crate::trace::{Recorder, Trace, ROOT};

/// The locks every real-thread workload runs: the paper's baseline, the
/// paper's lock, and the paper's kernel patch (node type `()`).
pub const LOCKS: [LockId; 3] = [LockId::Mcs, LockId::Cna, LockId::QSpinCna];

/// Operations of one kind run back to back; one child span in traced runs.
const CHUNK: usize = 4;
/// Chunks per timed batch; a batch's time over its operations is one sample.
/// A batch holds one chunk of each kind, in seeded order (see [`setup`]), so
/// every sample covers the same mix. A batch lasts a few µs, so the host's
/// timer interrupts land in well under 1 % of the samples and the p99
/// describes the operations rather than the interrupts.
const BATCH_CHUNKS: usize = 2;
/// Chunks in the generated operation sequence, which workers cycle through:
/// long enough that `many-locks` touches every shard in one cycle.
const SEQUENCE_CHUNKS: usize = 1 << 16;
/// Keys the databases are prefilled with. Few enough that the skiplist
/// search stays cache-resident, so the three lock acquisitions stay a large
/// share of a get.
const PREFILL_KEYS: usize = 1_000;
/// Block-cache entries of each database (`readrandom`'s default): room for
/// every key, so after the warm-up in set-up a get never pays for an
/// eviction scan.
const CACHE_CAPACITY: usize = 4_096;
/// Shards of the many-locks map: shard locks plus shard state exceed a
/// 4 MiB per-core L2 several times over.
const MANY_SHARDS: usize = 1 << 16;
/// Length of one repetition.
const REP: Duration = Duration::from_millis(100);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One thread, one hot map shard and one database per lock.
    Uncontended,
    /// Two threads on their own virtual sockets sharing the shard and database.
    Contended,
    /// Two threads on their own virtual sockets over one key per shard.
    ManyLocks,
}

impl Shape {
    pub fn threads(self) -> usize {
        match self {
            Shape::Uncontended => 1,
            Shape::Contended | Shape::ManyLocks => 2,
        }
    }

    fn shards(self) -> usize {
        match self {
            Shape::ManyLocks => MANY_SHARDS,
            _ => 1,
        }
    }

    pub fn runs_gets(self) -> bool {
        self != Shape::ManyLocks
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Incr,
    Get,
}

struct Chunk {
    kind: Kind,
    keys: [u32; CHUNK],
}

pub struct Fixture {
    pub id: LockId,
    map: ShardedKvMap,
    db: Option<Db<AmbientLock>>,
}

/// Everything a real-thread workload builds before its first timed operation.
pub struct Setup {
    pub shape: Shape,
    pub fixtures: Vec<Fixture>,
    chunks: Vec<Chunk>,
    map_keys: Vec<u64>,
    get_keys: Vec<Vec<u8>>,
    /// Heap held by the fixtures, bytes.
    pub heap_bytes: isize,
    /// Locks the fixtures hold.
    pub lock_count: usize,
}

/// Builds the maps and databases for every lock and the seeded operation
/// sequence.
pub fn setup(shape: Shape, seed: u64) -> Setup {
    let mut rng = SplitMix::new(seed);
    let shards = shape.shards();
    let get_keys: Vec<Vec<u8>> = if shape.runs_gets() {
        (0..PREFILL_KEYS)
            .map(Db::<AmbientLock>::bench_key)
            .collect()
    } else {
        Vec::new()
    };
    let before = live_bytes();
    let maps: Vec<ShardedKvMap> = LOCKS
        .iter()
        .map(|&id| ShardedKvMap::new(id, shards))
        .collect();
    // One key per shard for the many-locks map: the first key routed there.
    let map_keys: Vec<u64> = if shape == Shape::ManyLocks {
        let mut keys = vec![u64::MAX; shards];
        let mut missing = shards;
        let mut key = 0u64;
        while missing > 0 {
            let slot = &mut keys[maps[0].shard_of(key)];
            if *slot == u64::MAX {
                *slot = key;
                missing -= 1;
            }
            key += 1;
        }
        keys
    } else {
        (0..harness::kvmap::KEY_SPACE).collect()
    };
    let map_keys_bytes = (map_keys.capacity() * std::mem::size_of::<u64>()) as isize;
    let fixtures: Vec<Fixture> = LOCKS
        .iter()
        .zip(maps)
        .map(|(&id, map)| {
            for &key in &map_keys {
                map.incr(key, 0);
            }
            let db = shape
                .runs_gets()
                .then(|| with_ambient(id, || Db::prefilled(PREFILL_KEYS, CACHE_CAPACITY)));
            Fixture { id, map, db }
        })
        .collect();
    for db in fixtures.iter().filter_map(|f| f.db.as_ref()) {
        for key in &get_keys {
            black_box(db.get(key));
        }
    }
    let heap_bytes = live_bytes() - before - map_keys_bytes;
    // Each database holds its DB mutex and one lock per block-cache shard.
    let db_locks = if shape.runs_gets() {
        1 + leveldb_lite::cache::NUM_SHARDS
    } else {
        0
    };
    let lock_count = fixtures.len() * (shards + db_locks);

    let mut chunks = Vec::with_capacity(SEQUENCE_CHUNKS);
    while chunks.len() < SEQUENCE_CHUNKS {
        let kinds = match (shape.runs_gets(), rng.below(2)) {
            (false, _) => [Kind::Incr, Kind::Incr],
            (true, 0) => [Kind::Incr, Kind::Get],
            (true, _) => [Kind::Get, Kind::Incr],
        };
        for kind in kinds {
            let range = match kind {
                Kind::Incr => map_keys.len(),
                Kind::Get => get_keys.len(),
            } as u64;
            let mut keys = [0u32; CHUNK];
            for k in &mut keys {
                *k = rng.below(range) as u32;
            }
            chunks.push(Chunk { kind, keys });
        }
    }
    Setup {
        shape,
        fixtures,
        chunks,
        map_keys,
        get_keys,
        heap_bytes,
        lock_count,
    }
}

/// Per-lock measurements of one run.
#[derive(Default)]
pub struct LockResult {
    pub ops_per_us: Reps,
    pub op_ns_p50: Reps,
    pub op_ns_p99: Reps,
    pub fairness: Reps,
    pub attempted: u64,
    pub failed: u64,
    incrs: u64,
    /// Timed batches over all repetitions.
    pub samples: u64,
}

/// Span ids of one lock's traced operations.
#[derive(Clone, Copy)]
struct SpanNames {
    batch: u16,
    incr: u16,
    get: u16,
}

/// Runs repetitions for `duration`, rotating through the locks, then checks
/// every map and database. With `tools = Some((run, share))`, `run` gets
/// `share` of the time after each round of turns, so its measurements span
/// the whole run too.
pub fn run(
    setup: &Setup,
    duration: Duration,
    mut tools: Option<(&mut ToolsRun, f64)>,
    seed: u64,
    trace: Option<&Trace>,
) -> Vec<LockResult> {
    let mut results: Vec<LockResult> = setup
        .fixtures
        .iter()
        .map(|_| LockResult::default())
        .collect();
    let names: Vec<Option<SpanNames>> = setup
        .fixtures
        .iter()
        .map(|f| {
            trace.map(|t| SpanNames {
                batch: t.name(&format!("batch.{}", f.id.name())),
                incr: t.name(&format!("kvmap.{}.incr", f.id.name())),
                get: t.name(&format!("leveldb.{}.get", f.id.name())),
            })
        })
        .collect();
    let before: Vec<u64> = setup.fixtures.iter().map(|f| f.map.total_ops()).collect();
    let deadline = Instant::now() + duration;
    let mut rep = 0usize;
    let batches = (SEQUENCE_CHUNKS / BATCH_CHUNKS) as u64;
    while rep == 0 || Instant::now() < deadline {
        for i in 0..setup.fixtures.len() {
            let which = (rep + i) % setup.fixtures.len();
            let start = SplitMix::new(seed ^ rep as u64).below(batches) as usize * BATCH_CHUNKS;
            run_rep(
                setup,
                which,
                start,
                names[which],
                trace,
                &mut results[which],
            );
        }
        if let Some((tools, share)) = tools.as_mut() {
            let round = REP * setup.fixtures.len() as u32;
            tools.run_for(round.mul_f64(*share / (1.0 - *share)));
        }
        rep += 1;
    }
    for ((fixture, result), before) in setup.fixtures.iter().zip(&mut results).zip(before) {
        let consistent = catch_unwind(AssertUnwindSafe(|| fixture.map.check_consistency())).is_ok()
            && fixture.map.total_ops() == before + result.incrs;
        if !consistent {
            eprintln!(
                "kv-map of {} failed its consistency check",
                fixture.id.name()
            );
            result.failed += result.incrs;
        }
    }
    results
}

/// What one worker thread did in one repetition.
struct WorkerOutcome {
    start: Instant,
    end: Instant,
    ops: u64,
    incrs: u64,
    misses: u64,
    per_op_ns: Vec<f64>,
    recorder: Recorder,
}

fn run_rep(
    setup: &Setup,
    which: usize,
    start_chunk: usize,
    names: Option<SpanNames>,
    trace: Option<&Trace>,
    result: &mut LockResult,
) {
    let fixture = &setup.fixtures[which];
    let threads = setup.shape.threads();
    let critical_work = RunConfig::default().critical_work;
    let barrier = Barrier::new(threads);
    let outcomes: Vec<WorkerOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let _socket =
                        (setup.shape != Shape::Uncontended).then(|| SocketOverrideGuard::new(t));
                    let mut chunk = (start_chunk + t * SEQUENCE_CHUNKS / threads) % SEQUENCE_CHUNKS;
                    debug_assert_eq!(chunk % BATCH_CHUNKS, 0, "turns start on a batch boundary");
                    let mut out = WorkerOutcome {
                        start: Instant::now(),
                        end: Instant::now(),
                        ops: 0,
                        incrs: 0,
                        misses: 0,
                        per_op_ns: Vec::with_capacity(8192),
                        recorder: Recorder::default(),
                    };
                    barrier.wait();
                    out.start = Instant::now();
                    let deadline = out.start + REP;
                    let mut batch_start = out.start;
                    let mut batch_id = 0u64;
                    loop {
                        let parent = names.map(|n| out.recorder.open(n.batch, batch_id, ROOT));
                        for _ in 0..BATCH_CHUNKS {
                            let c = &setup.chunks[chunk];
                            chunk = (chunk + 1) % SEQUENCE_CHUNKS;
                            let span = names.map(|n| {
                                let name = if c.kind == Kind::Incr { n.incr } else { n.get };
                                out.recorder.open(name, batch_id, parent.unwrap_or(ROOT))
                            });
                            match c.kind {
                                Kind::Incr => {
                                    for &k in &c.keys {
                                        fixture.map.incr(setup.map_keys[k as usize], critical_work);
                                    }
                                    out.incrs += CHUNK as u64;
                                }
                                Kind::Get => {
                                    let db =
                                        fixture.db.as_ref().expect("gets run only with a database");
                                    for &k in &c.keys {
                                        if black_box(db.get(&setup.get_keys[k as usize])).is_none()
                                        {
                                            out.misses += 1;
                                        }
                                    }
                                }
                            }
                            if let Some(span) = span {
                                out.recorder.close(span, CHUNK as u32);
                            }
                        }
                        if let Some(parent) = parent {
                            out.recorder.close(parent, (BATCH_CHUNKS * CHUNK) as u32);
                        }
                        let now = Instant::now();
                        out.per_op_ns.push(
                            (now - batch_start).as_nanos() as f64 / (BATCH_CHUNKS * CHUNK) as f64,
                        );
                        out.ops += (BATCH_CHUNKS * CHUNK) as u64;
                        batch_start = now;
                        batch_id += 1;
                        if now >= deadline {
                            out.end = now;
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    let first = outcomes
        .iter()
        .map(|o| o.start)
        .min()
        .expect("at least one worker");
    let last = outcomes
        .iter()
        .map(|o| o.end)
        .max()
        .expect("at least one worker");
    let ops: u64 = outcomes.iter().map(|o| o.ops).sum();
    let per_op: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.per_op_ns.iter().copied())
        .collect();
    let per_thread: Vec<u64> = outcomes.iter().map(|o| o.ops).collect();
    result
        .ops_per_us
        .push(ops as f64 / ((last - first).as_nanos() as f64 / 1e3));
    result.op_ns_p50.push(quantile(&per_op, 0.50));
    result.op_ns_p99.push(quantile(&per_op, 0.99));
    result
        .fairness
        .push(numa_sim::stats::fairness_factor(&per_thread));
    result.samples += per_op.len() as u64;
    result.attempted += ops;
    for outcome in outcomes {
        result.failed += outcome.misses;
        result.incrs += outcome.incrs;
        if let Some(trace) = trace {
            trace.merge(outcome.recorder);
        }
    }
}

/// The block cache's hit share over every database of the set-up.
pub fn cache_hit_ratio(setup: &Setup) -> Option<f64> {
    let (hits, misses) = setup
        .fixtures
        .iter()
        .filter_map(|f| f.db.as_ref())
        .map(|db| db.cache_counts())
        .fold((0, 0), |(h, m), (dh, dm)| (h + dh, m + dm));
    (hits + misses > 0).then(|| hits as f64 / (hits + misses) as f64)
}
