//! Open-loop machinery shared by both runners:
//!
//! * schedule generation ([`request_count`], [`arrival_schedule`]);
//! * the per-run summary ([`OpenLoopSummary`], [`DepthMeter`]);
//! * the wall-clock driver of the real-thread runner
//!   ([`run_wall_clock_open_loop`]);
//! * [`SimOpenLoop`], the simulator runner's façade over numa-sim's engine
//!   ([`Simulation::run_schedule`]), which turns its per-request sojourns
//!   into the same summary.
//!
//! An open-loop run is sized by **request count**, not duration: the
//! schedule always contains between [`MIN_REQUESTS`] and [`MAX_REQUESTS`]
//! arrivals (aiming for `rate × duration`), so low offered rates still
//! produce statistically meaningful histograms and saturating rates cannot
//! allocate unbounded schedules. Both runners consume the same schedule
//! generator, so a substrate run and a simulator run at the same (rate,
//! arrival, seed) see the **same** offered load.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng, SmallRng};

use numa_sim::lock_model::LockAlgorithm;
use numa_sim::Simulation;

use super::histogram::LatencyHistogram;
use super::load::Arrival;
use super::SimSweep;

/// Fewest arrivals an open-loop run schedules — below this, tail
/// percentiles are meaningless.
pub const MIN_REQUESTS: usize = 64;
/// Most arrivals an open-loop run schedules (bounds schedule memory and
/// drain time at saturating rates).
pub const MAX_REQUESTS: usize = 1 << 20;

/// The number of requests an open-loop run at `rate_per_sec` offers over a
/// `horizon_ns` measurement window, clamped to
/// [`MIN_REQUESTS`]..=[`MAX_REQUESTS`].
pub fn request_count(rate_per_sec: u64, horizon_ns: u64) -> usize {
    let n = (u128::from(rate_per_sec) * u128::from(horizon_ns) / 1_000_000_000) as usize;
    n.clamp(MIN_REQUESTS, MAX_REQUESTS)
}

/// Generates the arrival schedule: `requests` offsets in nanoseconds from
/// run start, non-decreasing, drawn from `arrival` at `rate_per_sec`.
/// Deterministic per seed (Poisson uses the offline `rand` shim).
pub fn arrival_schedule(
    rate_per_sec: u64,
    arrival: Arrival,
    requests: usize,
    seed: u64,
) -> Vec<u64> {
    assert!(rate_per_sec > 0, "open-loop rate must be positive");
    let mean_gap_ns = 1e9 / rate_per_sec as f64;
    let mut schedule = Vec::with_capacity(requests);
    match arrival {
        Arrival::Fixed => {
            for i in 0..requests {
                schedule.push((i as f64 * mean_gap_ns) as u64);
            }
        }
        Arrival::Poisson => {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut t = 0.0f64;
            for _ in 0..requests {
                schedule.push(t as u64);
                let u: f64 = rng.gen();
                // Inverse-CDF exponential draw; 1-u is in (0, 1].
                t += -(1.0 - u).ln() * mean_gap_ns;
            }
        }
    }
    schedule
}

/// What one open-loop run measured, normalized across the real-thread and
/// simulated back-ends.
#[derive(Debug, Clone)]
pub struct OpenLoopSummary {
    /// Per-request sojourn times (arrival → completion), nanoseconds.
    pub histogram: LatencyHistogram,
    /// Requests completed per worker (for fairness-style accounting).
    pub served_per_worker: Vec<u64>,
    /// Mean number of requests in the system (arrived, not yet completed),
    /// sampled at each arrival.
    pub mean_queue_depth: f64,
    /// Largest sampled in-system count.
    pub max_queue_depth: u64,
    /// Run makespan: first arrival to last completion, nanoseconds.
    pub elapsed_ns: u64,
}

impl OpenLoopSummary {
    /// Total requests served.
    pub fn served(&self) -> u64 {
        self.served_per_worker.iter().sum()
    }

    /// Completed requests per microsecond of makespan.
    pub fn throughput_ops_per_us(&self) -> f64 {
        self.served() as f64 / (self.elapsed_ns as f64 / 1e3).max(1.0)
    }
}

/// Accumulates queue-depth samples (one per arrival).
#[derive(Debug, Default, Clone)]
pub struct DepthMeter {
    sum: u128,
    samples: u64,
    max: u64,
}

impl DepthMeter {
    /// Records the in-system count observed at one arrival.
    pub fn sample(&mut self, depth: u64) {
        self.sum += u128::from(depth);
        self.samples += 1;
        self.max = self.max.max(depth);
    }

    /// Mean sampled depth (0 when nothing was sampled).
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.sum as f64 / self.samples as f64
    }

    /// Largest sampled depth.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Folds another meter in (for merging per-worker meters).
    pub fn merge(&mut self, other: &DepthMeter) {
        self.sum += other.sum;
        self.samples += other.samples;
        self.max = self.max.max(other.max);
    }
}

// ---------------------------------------------------------------------------
// The generic wall-clock open-loop driver
// ---------------------------------------------------------------------------

/// Runs an arrival `schedule` against `threads` real workers, pacing each
/// request to its wall-clock offset and recording per-request sojourn
/// (arrival → completion) plus queue-depth samples.
///
/// This is the substrate-agnostic half of the real-thread open loop: the
/// driver owns request dispatch (a shared fetch-add over the schedule),
/// pacing (sleep through long gaps, spin out the tail), depth sampling and
/// histogram merging, while the caller supplies the substrate via two
/// closures:
///
/// * `init(worker)` runs **on the worker thread** and builds its per-worker
///   state (socket override guard, queue node, RNG seed, …) — the state
///   type `W` never crosses threads, so it needs no `Send`.
/// * `serve(&mut state, request)` performs one request — the critical
///   section whose sojourn is measured.
///
/// The run ends when the schedule drains: every request is served, so
/// saturating rates produce growing sojourn times rather than drops.
pub fn run_wall_clock_open_loop<W, I, S>(
    threads: usize,
    schedule: &[u64],
    init: I,
    serve: S,
) -> OpenLoopSummary
where
    I: Fn(usize) -> W + Sync,
    S: Fn(&mut W, usize) + Sync,
{
    let threads = threads.max(1);
    let next = AtomicUsize::new(0);
    let completed = AtomicU64::new(0);
    let start = Instant::now();

    let per_worker: Vec<(LatencyHistogram, DepthMeter, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (next, completed) = (&next, &completed);
                let (init, serve) = (&init, &serve);
                scope.spawn(move || {
                    let mut state = init(t);
                    let mut histogram = LatencyHistogram::new();
                    let mut depth = DepthMeter::default();
                    let mut served = 0u64;
                    let mut last_done_ns = 0u64;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= schedule.len() {
                            break;
                        }
                        let arrival_ns = schedule[i];
                        // Pace on the wall clock: sleep through long gaps,
                        // spin out the tail for precision.
                        loop {
                            let now = start.elapsed().as_nanos() as u64;
                            if now >= arrival_ns {
                                break;
                            }
                            if arrival_ns - now > 200_000 {
                                std::thread::sleep(Duration::from_nanos((arrival_ns - now) / 2));
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                        let now = start.elapsed().as_nanos() as u64;
                        // In-system count at service start: arrivals due by
                        // now minus requests already completed.
                        let arrived = schedule.partition_point(|&a| a <= now) as u64;
                        depth.sample(arrived.saturating_sub(completed.load(Ordering::Relaxed)));
                        serve(&mut state, i);
                        let done = start.elapsed().as_nanos() as u64;
                        histogram.record(done.saturating_sub(arrival_ns));
                        completed.fetch_add(1, Ordering::Relaxed);
                        served += 1;
                        last_done_ns = done;
                    }
                    (histogram, depth, served, last_done_ns)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop worker panicked"))
            .collect()
    });

    let mut histogram = LatencyHistogram::new();
    let mut depth = DepthMeter::default();
    let mut served_per_worker = Vec::with_capacity(per_worker.len());
    let mut elapsed_ns = 0u64;
    for (h, d, served, last) in &per_worker {
        histogram.merge(h);
        depth.merge(d);
        served_per_worker.push(*served);
        elapsed_ns = elapsed_ns.max(*last);
    }
    debug_assert_eq!(histogram.count(), schedule.len() as u64);
    OpenLoopSummary {
        histogram,
        served_per_worker,
        mean_queue_depth: depth.mean(),
        max_queue_depth: depth.max(),
        elapsed_ns: elapsed_ns.max(1),
    }
}

// ---------------------------------------------------------------------------
// The simulator's open loop
// ---------------------------------------------------------------------------

/// Open-loop service simulation: `workers` simulated threads on the sweep's
/// machine serve a schedule's arrivals, taking the modeled lock around each
/// request's critical section. Virtual-time counterpart of the real-thread
/// open loop in [`crate::real`], run on numa-sim's engine
/// ([`Simulation::run_schedule`]); fully deterministic per seed.
pub struct SimOpenLoop<'a> {
    simulation: Simulation,
    schedule: &'a [u64],
}

impl<'a> SimOpenLoop<'a> {
    /// Builds the run for `workers` simulated service threads.
    pub fn new(
        sweep: &SimSweep,
        algorithm: LockAlgorithm,
        workers: usize,
        schedule: &'a [u64],
        seed: u64,
    ) -> Self {
        let simulation = Simulation::new(
            sweep.machine.clone(),
            sweep.cost,
            algorithm,
            sweep.workload.clone(),
        )
        .threads(workers)
        .seed(seed);
        SimOpenLoop {
            simulation,
            schedule,
        }
    }

    /// Runs every request to completion and summarizes.
    pub fn run(self) -> OpenLoopSummary {
        let result = self.simulation.run_schedule(self.schedule);
        let mut histogram = LatencyHistogram::new();
        for &sojourn in &result.sojourns_ns {
            histogram.record(sojourn);
        }
        let depth = DepthMeter {
            sum: result.depth_sum,
            samples: result.depth_samples,
            max: result.depth_max,
        };
        OpenLoopSummary {
            histogram,
            served_per_worker: result.served_per_worker,
            mean_queue_depth: depth.mean(),
            max_queue_depth: depth.max(),
            elapsed_ns: result.last_completion_ns.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::WorkloadSpec;

    fn sim_sweep() -> SimSweep {
        match crate::experiments::WorkloadId::Sim.to_spec() {
            WorkloadSpec::Sim(sweep) => sweep,
            other => panic!("sim spec expected, got {other:?}"),
        }
    }

    #[test]
    fn request_counts_clamp_to_the_configured_bounds() {
        assert_eq!(request_count(1, 1_000_000), MIN_REQUESTS);
        assert_eq!(request_count(1_000, 1_000_000_000), 1_000);
        assert_eq!(request_count(u64::MAX / 2, u64::MAX / 2), MAX_REQUESTS);
    }

    #[test]
    fn fixed_schedules_are_evenly_spaced() {
        let s = arrival_schedule(1_000_000, Arrival::Fixed, 100, 7);
        assert_eq!(s.len(), 100);
        assert_eq!(s[0], 0);
        assert_eq!(s[1], 1_000);
        assert_eq!(s[99], 99_000);
    }

    #[test]
    fn poisson_schedules_are_sorted_deterministic_and_rate_calibrated() {
        let a = arrival_schedule(1_000_000, Arrival::Poisson, 10_000, 42);
        let b = arrival_schedule(1_000_000, Arrival::Poisson, 10_000, 42);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "sorted");
        let c = arrival_schedule(1_000_000, Arrival::Poisson, 10_000, 43);
        assert_ne!(a, c, "different seed, different draw");
        // Mean gap ≈ 1000 ns (within 10 % over 10k draws).
        let span = (a[a.len() - 1] - a[0]) as f64 / (a.len() - 1) as f64;
        assert!((900.0..1100.0).contains(&span), "mean gap {span}");
    }

    #[test]
    fn wall_clock_driver_serves_every_request_and_merges_workers() {
        let schedule = arrival_schedule(1_000_000, Arrival::Fixed, 200, 3);
        let sum = std::sync::atomic::AtomicU64::new(0);
        let summary = run_wall_clock_open_loop(
            3,
            &schedule,
            |worker| (worker, 0u64),
            |state, i| {
                state.1 += 1;
                sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
            },
        );
        assert_eq!(summary.served(), 200);
        assert_eq!(summary.histogram.count(), 200);
        assert_eq!(summary.served_per_worker.len(), 3);
        assert_eq!(
            sum.load(Ordering::Relaxed),
            (200 * 201) / 2,
            "every request index served once"
        );
        assert!(summary.elapsed_ns >= *schedule.last().unwrap());
        assert!(
            summary.mean_queue_depth >= 1.0,
            "arrivals sample themselves"
        );
    }

    #[test]
    fn sim_open_loop_serves_every_request_deterministically() {
        let sweep = sim_sweep();
        let schedule = arrival_schedule(2_000_000, Arrival::Poisson, 500, 1);
        let run = || SimOpenLoop::new(&sweep, LockAlgorithm::Cna, 4, &schedule, 99).run();
        let a = run();
        let b = run();
        assert_eq!(a.served(), 500);
        assert_eq!(a.served(), b.served());
        assert_eq!(a.histogram, b.histogram, "virtual time is deterministic");
        assert!(a.elapsed_ns >= *schedule.last().unwrap());
        assert!(a.histogram.percentile(50.0) > 0);
        assert!(a.mean_queue_depth >= 1.0, "arrivals sample themselves");
    }

    #[test]
    fn saturating_rates_grow_queues_and_tails() {
        let sweep = sim_sweep();
        let mild = arrival_schedule(100_000, Arrival::Fixed, 300, 1);
        let crushing = arrival_schedule(50_000_000, Arrival::Fixed, 300, 1);
        let low = SimOpenLoop::new(&sweep, LockAlgorithm::Mcs, 2, &mild, 5).run();
        let high = SimOpenLoop::new(&sweep, LockAlgorithm::Mcs, 2, &crushing, 5).run();
        assert!(
            high.histogram.percentile(99.0) > low.histogram.percentile(99.0),
            "p99 must grow under saturation ({} vs {})",
            high.histogram.percentile(99.0),
            low.histogram.percentile(99.0)
        );
        assert!(high.max_queue_depth > low.max_queue_depth);
    }
}
