//! The discrete-event simulation engine.
//!
//! One engine serves both arrival sources: the closed loop of
//! [`Simulation::run`] and the open loop of [`Simulation::run_schedule`].
//! The crate docs list where the two differ.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::cost::CostModel;
use crate::lock_model::{Grant, LockAlgorithm, LockModel, Waiter};
use crate::machine::MachineConfig;
use crate::rng::SimRng;
use crate::stats::{LockStats, ScheduleResult, SimResult};
use crate::workload::{Step, Workload};

/// A configured simulation run (builder style).
#[derive(Debug)]
pub struct Simulation {
    machine: MachineConfig,
    cost: CostModel,
    algorithm: LockAlgorithm,
    workload: Workload,
    threads: usize,
    duration_ns: u64,
    seed: u64,
}

impl Simulation {
    /// Creates a simulation of `algorithm` running `workload` on `machine`.
    pub fn new(
        machine: MachineConfig,
        cost: CostModel,
        algorithm: LockAlgorithm,
        workload: Workload,
    ) -> Self {
        Simulation {
            machine,
            cost,
            algorithm,
            workload,
            threads: 1,
            duration_ns: 10_000_000,
            seed: 1,
        }
    }

    /// Sets the number of simulated threads.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the simulated (virtual-time) duration in milliseconds.
    pub fn virtual_duration_ms(mut self, ms: u64) -> Self {
        self.duration_ns = ms.max(1) * 1_000_000;
        self
    }

    /// Sets the simulated duration in nanoseconds.
    pub fn virtual_duration_ns(mut self, ns: u64) -> Self {
        self.duration_ns = ns.max(1);
        self
    }

    /// Sets the RNG seed (runs with equal seeds are bit-identical).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the closed loop: every thread starts its next op as soon as it
    /// finishes one, until the virtual duration ends.
    pub fn run(self) -> SimResult {
        let mut engine = Engine::new(&self, Source::Closed);
        engine.run();
        engine.sim_result()
    }

    /// Runs the open loop: request `i` arrives at `schedule[i]` (ns,
    /// non-decreasing), idle threads serve arrived requests in FIFO order,
    /// and the run lasts until every request is served; the virtual
    /// duration is not used.
    ///
    /// # Panics
    ///
    /// If a request is served twice or never (an engine defect).
    pub fn run_schedule(self, schedule: &[u64]) -> ScheduleResult {
        let open = OpenLoop {
            schedule,
            idle: (0..self.threads).rev().collect(),
            serving: vec![0; self.threads],
            out: ScheduleResult {
                sojourns_ns: vec![UNSERVED; schedule.len()],
                ..ScheduleResult::default()
            },
            ..OpenLoop::default()
        };
        let mut engine = Engine::new(&self, Source::Open(Box::new(open)));
        engine.run();
        let Source::Open(open) = engine.source else {
            unreachable!("the open loop keeps its source")
        };
        assert!(
            !open.out.sojourns_ns.contains(&UNSERVED),
            "the open loop left requests unserved"
        );
        ScheduleResult {
            served_per_worker: engine.threads.iter().map(|t| t.ops).collect(),
            ..open.out
        }
    }
}

/// Sojourn slot of a request that has not completed yet.
const UNSERVED: u64 = u64::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Request `i` of the open loop's schedule arrives.
    Arrival(usize),
    /// The thread is ready to execute its current step.
    ThreadReady(usize),
    /// The thread finishes the critical section it holds on `lock`.
    Release { thread: usize, lock: usize },
    /// A backoff-style lock re-checks whether a parked waiter can be granted.
    Recheck(usize),
}

#[derive(Debug, PartialEq, Eq)]
struct Scheduled {
    time: u64,
    seq: u64,
    event: Event,
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Where the engine's work comes from.
enum Source<'a> {
    /// A thread re-arrives after each op until the duration ends.
    Closed,
    /// Requests arrive on a schedule and the run drains them all.
    Open(Box<OpenLoop<'a>>),
}

/// The open loop's request bookkeeping.
#[derive(Default)]
struct OpenLoop<'a> {
    schedule: &'a [u64],
    /// Requests pushed to the heap so far: arrivals enter it one at a time,
    /// so a million-request schedule does not pre-allocate a million events.
    pushed: usize,
    /// Idle threads, taken from the back (thread 0 first).
    idle: Vec<usize>,
    /// Arrived requests no thread has taken yet, oldest first.
    pending: VecDeque<usize>,
    /// The request each busy thread serves.
    serving: Vec<usize>,
    /// Requests arrived and not completed.
    in_system: u64,
    /// The result so far; `served_per_worker` is filled in at the end.
    out: ScheduleResult,
}

struct LockState {
    model: Box<dyn LockModel>,
    held: bool,
    holder_socket: usize,
    last_holder_socket: usize,
    line_owner: Vec<usize>,
    recheck_pending: bool,
    stats: LockStats,
}

struct ThreadState {
    socket: usize,
    steps: Vec<Step>,
    step_idx: usize,
    /// Ops completed (closed loop) or requests served (open loop).
    ops: u64,
    waiting_since: u64,
}

struct Engine<'a> {
    sim: &'a Simulation,
    source: Source<'a>,
    rng: SimRng,
    heap: BinaryHeap<Reverse<Scheduled>>,
    seq: u64,
    locks: Vec<LockState>,
    threads: Vec<ThreadState>,
    remote_transfers: u64,
    local_accesses: u64,
}

impl<'a> Engine<'a> {
    fn new(sim: &'a Simulation, source: Source<'a>) -> Self {
        let locks = sim
            .workload
            .locks
            .iter()
            .map(|spec| LockState {
                model: sim.algorithm.build(
                    sim.machine.sockets,
                    sim.machine.logical_cpus(),
                    &sim.cost,
                ),
                held: false,
                holder_socket: 0,
                last_holder_socket: 0,
                line_owner: vec![0; spec.data_lines.max(1)],
                recheck_pending: false,
                stats: LockStats {
                    name: spec.name.clone(),
                    ..LockStats::default()
                },
            })
            .collect();
        let threads = (0..sim.threads)
            .map(|i| ThreadState {
                socket: sim.machine.socket_of_thread(i),
                steps: Vec::new(),
                step_idx: 0,
                ops: 0,
                waiting_since: 0,
            })
            .collect();
        Engine {
            sim,
            source,
            rng: SimRng::new(sim.seed),
            heap: BinaryHeap::new(),
            seq: 0,
            locks,
            threads,
            remote_transfers: 0,
            local_accesses: 0,
        }
    }

    fn schedule(&mut self, time: u64, event: Event) {
        self.seq += 1;
        self.heap.push(Reverse(Scheduled {
            time,
            seq: self.seq,
            event,
        }));
    }

    fn run(&mut self) {
        let stop_ns = match self.source {
            Source::Closed => {
                for t in 0..self.threads.len() {
                    self.start_op(t);
                    // Stagger starts by a few ns so thread 0 does not always
                    // win ties.
                    self.schedule(t as u64, Event::ThreadReady(t));
                }
                self.sim.duration_ns
            }
            Source::Open(_) => {
                self.push_next_arrival();
                u64::MAX
            }
        };

        while let Some(Reverse(next)) = self.heap.pop() {
            if next.time > stop_ns {
                break;
            }
            match next.event {
                Event::Arrival(i) => self.handle_arrival(i, next.time),
                Event::ThreadReady(t) => self.advance_thread(t, next.time),
                Event::Release { thread, lock } => self.handle_release(thread, lock, next.time),
                Event::Recheck(lock) => self.handle_recheck(lock, next.time),
            }
        }
    }

    fn sim_result(&self) -> SimResult {
        let ops_per_thread: Vec<u64> = self.threads.iter().map(|t| t.ops).collect();
        SimResult {
            algorithm: self.sim.algorithm.name().to_string(),
            workload: self.sim.workload.name.clone(),
            machine: self.sim.machine.label.to_string(),
            threads: self.sim.threads,
            duration_ns: self.sim.duration_ns,
            total_ops: ops_per_thread.iter().sum(),
            ops_per_thread,
            remote_transfers: self.remote_transfers,
            local_accesses: self.local_accesses,
            locks: self
                .locks
                .iter()
                .map(|l| {
                    let mut s = l.stats.clone();
                    s.queue_alterations = l.model.queue_alterations();
                    s
                })
                .collect(),
        }
    }

    // `start_op`, `finish_op` and `advance_thread` run once per simulated
    // step; kept inline in the event loop they save about a tenth of the
    // closed loop's host time over out-of-line calls.

    /// Gives thread `t` a fresh op: its next one (closed loop) or the one of
    /// the request it now serves (open loop).
    #[inline(always)]
    fn start_op(&mut self, t: usize) {
        let seed = match &self.source {
            Source::Closed => self
                .sim
                .seed
                .wrapping_add(t as u64 * 7919)
                .wrapping_add(self.threads[t].ops.wrapping_mul(104_729)),
            Source::Open(open) => self
                .sim
                .seed
                .wrapping_add((open.serving[t] as u64).wrapping_mul(104_729))
                .wrapping_add(self.sim.algorithm.name().len() as u64),
        };
        let workload = &self.sim.workload;
        workload.generate_op_into(&mut SimRng::new(seed), &mut self.threads[t].steps);
        self.threads[t].step_idx = 0;
    }

    /// Pushes the open loop's next arrival, if any is left.
    fn push_next_arrival(&mut self) {
        if let Source::Open(open) = &mut self.source {
            if let Some(&at) = open.schedule.get(open.pushed) {
                let i = open.pushed;
                open.pushed += 1;
                self.schedule(at, Event::Arrival(i));
            }
        }
    }

    /// Request `i` arrives: an idle thread takes it, or it waits its turn.
    fn handle_arrival(&mut self, i: usize, now: u64) {
        self.push_next_arrival();
        let Source::Open(open) = &mut self.source else {
            unreachable!("arrivals come from the open loop only")
        };
        open.in_system += 1;
        open.out.depth_sum += u128::from(open.in_system);
        open.out.depth_samples += 1;
        open.out.depth_max = open.out.depth_max.max(open.in_system);
        match open.idle.pop() {
            Some(t) => {
                open.serving[t] = i;
                self.start_op(t);
                self.advance_thread(t, now);
            }
            None => open.pending.push_back(i),
        }
    }

    /// Thread `t` completed an op at `now`. Returns `true` when it goes on
    /// with a new op, `false` when it goes idle (open loop, nothing pending).
    #[inline(always)]
    fn finish_op(&mut self, t: usize, now: u64) -> bool {
        self.threads[t].ops += 1;
        if let Source::Open(open) = &mut self.source {
            let i = open.serving[t];
            let slot = &mut open.out.sojourns_ns[i];
            assert_eq!(*slot, UNSERVED, "request {i} served twice");
            *slot = now.saturating_sub(open.schedule[i]);
            open.in_system -= 1;
            open.out.last_completion_ns = open.out.last_completion_ns.max(now);
            match open.pending.pop_front() {
                Some(next) => open.serving[t] = next,
                None => {
                    open.idle.push(t);
                    return false;
                }
            }
        }
        self.start_op(t);
        true
    }

    /// Executes the thread's current step (and, for zero-cost steps, keeps
    /// going) starting at time `now`.
    #[inline(always)]
    fn advance_thread(&mut self, t: usize, now: u64) {
        loop {
            if self.threads[t].step_idx >= self.threads[t].steps.len() && !self.finish_op(t, now) {
                return;
            }
            let step = self.threads[t].steps[self.threads[t].step_idx].clone();
            match step {
                Step::Think { ns } => {
                    self.threads[t].step_idx += 1;
                    if ns == 0 {
                        continue;
                    }
                    self.schedule(now + ns, Event::ThreadReady(t));
                    return;
                }
                Step::Critical { lock, .. } => {
                    if !self.locks[lock].held {
                        self.grant(t, lock, now, None, 0);
                    } else {
                        let waiter = Waiter {
                            thread: t,
                            socket: self.threads[t].socket,
                            arrival_ns: now,
                        };
                        self.threads[t].waiting_since = now;
                        self.locks[lock].model.on_arrival(waiter);
                    }
                    return;
                }
            }
        }
    }

    /// Grants `lock` to thread `t` at time `now`. `handover_from` carries the
    /// releasing thread's socket for a contended hand-over; `extra_ns` is the
    /// queue-maintenance cost reported by the policy model.
    fn grant(
        &mut self,
        t: usize,
        lock: usize,
        now: u64,
        handover_from: Option<usize>,
        extra_ns: u64,
    ) {
        let socket = self.threads[t].socket;
        let (service_ns, reads, writes) = match self.threads[t].steps[self.threads[t].step_idx] {
            Step::Critical {
                service_ns,
                reads,
                writes,
                ..
            } => (service_ns, reads, writes),
            Step::Think { .. } => unreachable!("grant on a non-critical step"),
        };

        let cost = &self.sim.cost;
        let state = &mut self.locks[lock];

        let acquire_ns = match handover_from {
            Some(from) => {
                if from == socket {
                    state.stats.local_handovers += 1;
                    self.local_accesses += 1;
                } else {
                    state.stats.remote_handovers += 1;
                    self.remote_transfers += 1;
                }
                state.stats.wait_time_ns += now.saturating_sub(self.threads[t].waiting_since);
                // Oversubscription: the next holder may have been preempted
                // off-CPU while spinning. Only *hot* spinners (the model's
                // `spinning()` set) plus the new holder compete for CPUs;
                // admission-restricting policies keep this under the machine
                // size and never pay the penalty.
                let runnable = state.model.spinning() + 1;
                cost.handover_ns(from, socket)
                    + cost.contended_overhead_ns
                    + cost.oversubscription_penalty_ns(runnable, self.sim.machine.logical_cpus())
            }
            None => {
                state.stats.uncontended += 1;
                if cost.is_remote(state.last_holder_socket, socket) {
                    self.remote_transfers += 1;
                } else {
                    self.local_accesses += 1;
                }
                cost.uncontended_acquire_ns + cost.line_access_ns(state.last_holder_socket, socket)
            }
        } + extra_ns;

        // Critical-section data accesses against the lock's data region.
        let data_ns = match self.source {
            Source::Closed => {
                let lines = state.line_owner.len() as u64;
                let mut data_ns = 0;
                for i in 0..(reads + writes) {
                    let line = self.rng.next_below(lines) as usize;
                    let owner = state.line_owner[line];
                    data_ns += cost.line_access_ns(owner, socket);
                    if cost.is_remote(owner, socket) {
                        self.remote_transfers += 1;
                    } else {
                        self.local_accesses += 1;
                    }
                    if i >= reads {
                        // This is a write: the line migrates to our socket.
                        state.line_owner[line] = socket;
                    }
                }
                data_ns
            }
            // The whole region was last written by the previous holder, so
            // every access is local or remote at once.
            Source::Open(_) => {
                (reads + writes) as u64 * cost.line_access_ns(state.last_holder_socket, socket)
            }
        };

        state.held = true;
        state.holder_socket = socket;
        state.stats.acquisitions += 1;
        state.stats.hold_time_ns += service_ns + data_ns;

        let total = acquire_ns + service_ns + data_ns;
        self.schedule(now + total.max(1), Event::Release { thread: t, lock });
    }

    fn handle_release(&mut self, t: usize, lock: usize, now: u64) {
        {
            let state = &mut self.locks[lock];
            state.held = false;
            state.last_holder_socket = state.holder_socket;
        }
        // Hand the lock over first: a queue lock's waiters cannot be barged
        // by the releasing thread coming back around. (Barging for
        // backoff-style locks is still possible because their policy may
        // decline the grant, leaving the lock free during the recheck
        // window.)
        self.try_handover(lock, now);

        // Then the releasing thread moves on to its next step.
        self.threads[t].step_idx += 1;
        self.advance_thread(t, now);
    }

    fn try_handover(&mut self, lock: usize, now: u64) {
        if self.locks[lock].held {
            return;
        }
        let releaser_socket = self.locks[lock].last_holder_socket;
        let model = &mut self.locks[lock].model;
        let grant = match self.source {
            Source::Closed => model.pick_next(releaser_socket, &mut self.rng),
            Source::Open(_) => model.pick_next(
                releaser_socket,
                &mut SimRng::new(self.sim.seed ^ now.wrapping_mul(0x9E37_79B9) ^ self.seq),
            ),
        };
        match grant {
            Some(Grant { waiter, extra_ns }) => {
                self.grant(waiter.thread, lock, now, Some(releaser_socket), extra_ns);
            }
            None => {
                if self.locks[lock].model.has_waiters() && !self.locks[lock].recheck_pending {
                    self.locks[lock].recheck_pending = true;
                    let delay = self.locks[lock].model.recheck_delay_ns();
                    self.schedule(now + delay, Event::Recheck(lock));
                }
            }
        }
    }

    fn handle_recheck(&mut self, lock: usize, now: u64) {
        self.locks[lock].recheck_pending = false;
        self.try_handover(lock, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn run(algorithm: LockAlgorithm, threads: usize, machine: MachineConfig) -> SimResult {
        Simulation::new(
            machine,
            CostModel::two_socket_xeon(),
            algorithm,
            Workload::kv_map_no_external_work(),
        )
        .threads(threads)
        .virtual_duration_ms(5)
        .seed(42)
        .run()
    }

    #[test]
    fn single_thread_throughput_is_algorithm_independent() {
        let mcs = run(LockAlgorithm::Mcs, 1, MachineConfig::two_socket_paper());
        let cna = run(LockAlgorithm::Cna, 1, MachineConfig::two_socket_paper());
        let rel = (mcs.throughput_ops_per_us() - cna.throughput_ops_per_us()).abs()
            / mcs.throughput_ops_per_us();
        assert!(
            rel < 0.05,
            "CNA must match MCS with one thread (MCS {:.2}, CNA {:.2})",
            mcs.throughput_ops_per_us(),
            cna.throughput_ops_per_us()
        );
    }

    #[test]
    fn single_thread_throughput_is_near_the_paper_anchor() {
        let mcs = run(LockAlgorithm::Mcs, 1, MachineConfig::two_socket_paper());
        let tp = mcs.throughput_ops_per_us();
        assert!(tp > 2.5 && tp < 9.0, "throughput {tp:.2} ops/us");
    }

    #[test]
    fn mcs_collapses_between_one_and_two_threads() {
        let one = run(LockAlgorithm::Mcs, 1, MachineConfig::two_socket_paper());
        let two = run(LockAlgorithm::Mcs, 2, MachineConfig::two_socket_paper());
        assert!(
            two.throughput_ops_per_us() < one.throughput_ops_per_us() * 0.7,
            "expected a collapse: 1T {:.2} vs 2T {:.2}",
            one.throughput_ops_per_us(),
            two.throughput_ops_per_us()
        );
    }

    #[test]
    fn cna_outperforms_mcs_under_contention() {
        let mcs = run(LockAlgorithm::Mcs, 32, MachineConfig::two_socket_paper());
        let cna = run(LockAlgorithm::Cna, 32, MachineConfig::two_socket_paper());
        assert!(
            cna.throughput_ops_per_us() > mcs.throughput_ops_per_us() * 1.2,
            "CNA {:.2} should beat MCS {:.2} by a clear margin",
            cna.throughput_ops_per_us(),
            mcs.throughput_ops_per_us()
        );
    }

    #[test]
    fn cna_advantage_grows_on_the_four_socket_machine() {
        let m2 = MachineConfig::two_socket_paper();
        let m4 = MachineConfig::four_socket_paper();
        let speedup2 = run(LockAlgorithm::Cna, 32, m2.clone()).throughput_ops_per_us()
            / run(LockAlgorithm::Mcs, 32, m2).throughput_ops_per_us();
        let four_cost = CostModel::four_socket_xeon();
        let run4 = |algo| {
            Simulation::new(
                MachineConfig::four_socket_paper(),
                four_cost,
                algo,
                Workload::kv_map_no_external_work(),
            )
            .threads(32)
            .virtual_duration_ms(5)
            .seed(42)
            .run()
            .throughput_ops_per_us()
        };
        let speedup4 = run4(LockAlgorithm::Cna) / run4(LockAlgorithm::Mcs);
        let _ = m4;
        assert!(
            speedup4 > speedup2,
            "4-socket speedup {speedup4:.2} should exceed 2-socket speedup {speedup2:.2}"
        );
    }

    #[test]
    fn mcs_is_fair_and_cna_preserves_long_term_fairness() {
        let mcs = run(LockAlgorithm::Mcs, 16, MachineConfig::two_socket_paper());
        assert!(
            mcs.fairness_factor() < 0.55,
            "MCS fairness {:.3}",
            mcs.fairness_factor()
        );
        // The paper's THRESHOLD (0xffff) flushes the secondary queue roughly
        // once per 65k hand-overs — far less often than a short simulated
        // window contains, exactly like a short wall-clock sample of the real
        // lock. A faster-flushing configuration shows the long-term behaviour
        // within a small window.
        let fair_cna = Simulation::new(
            MachineConfig::two_socket_paper(),
            CostModel::two_socket_xeon(),
            LockAlgorithm::CnaThreshold(0x3ff),
            Workload::kv_map_no_external_work(),
        )
        .threads(16)
        .virtual_duration_ms(20)
        .seed(42)
        .run();
        assert!(
            fair_cna.fairness_factor() < 0.65,
            "CNA (1/1024 flushes) fairness {:.3}",
            fair_cna.fairness_factor()
        );
        // The unfair backoff-based cohort global shows the opposite extreme.
        let cbomcs = run(LockAlgorithm::CBoMcs, 16, MachineConfig::two_socket_paper());
        assert!(
            cbomcs.fairness_factor() > mcs.fairness_factor(),
            "C-BO-MCS ({:.3}) should be less fair than MCS ({:.3})",
            cbomcs.fairness_factor(),
            mcs.fairness_factor()
        );
    }

    #[test]
    fn cna_llc_miss_rate_is_lower_than_mcs() {
        let mcs = run(LockAlgorithm::Mcs, 32, MachineConfig::two_socket_paper());
        let cna = run(LockAlgorithm::Cna, 32, MachineConfig::two_socket_paper());
        assert!(
            cna.llc_misses_per_us() < mcs.llc_misses_per_us(),
            "CNA misses {:.2}/us vs MCS {:.2}/us",
            cna.llc_misses_per_us(),
            mcs.llc_misses_per_us()
        );
    }

    #[test]
    fn cna_keeps_most_handovers_local_under_contention() {
        let cna = run(LockAlgorithm::Cna, 32, MachineConfig::two_socket_paper());
        assert!(
            cna.local_handover_fraction() > 0.9,
            "local fraction {:.3}",
            cna.local_handover_fraction()
        );
        let mcs = run(LockAlgorithm::Mcs, 32, MachineConfig::two_socket_paper());
        assert!(mcs.local_handover_fraction() < 0.7);
    }

    #[test]
    fn single_socket_machine_removes_the_cna_advantage() {
        let machine = MachineConfig::single_socket(36);
        let mcs = run(LockAlgorithm::Mcs, 16, machine.clone());
        let cna = run(LockAlgorithm::Cna, 16, machine);
        let rel = (mcs.throughput_ops_per_us() - cna.throughput_ops_per_us()).abs()
            / mcs.throughput_ops_per_us();
        assert!(rel < 0.1, "on one socket CNA ≈ MCS (rel diff {rel:.3})");
    }

    #[test]
    fn runs_are_deterministic_for_a_seed() {
        let a = run(LockAlgorithm::CBoMcs, 8, MachineConfig::two_socket_paper());
        let b = run(LockAlgorithm::CBoMcs, 8, MachineConfig::two_socket_paper());
        assert_eq!(a.total_ops, b.total_ops);
        assert_eq!(a.remote_transfers, b.remote_transfers);
    }

    #[test]
    fn every_algorithm_completes_work_under_contention() {
        // A request every 20 ns keeps all 8 threads busy and the backlog
        // growing in the open loop.
        let schedule: Vec<u64> = (0..2_000).map(|i| i * 20).collect();
        for algo in [
            LockAlgorithm::Mcs,
            LockAlgorithm::Ticket,
            LockAlgorithm::Tas,
            LockAlgorithm::Hbo,
            LockAlgorithm::Cna,
            LockAlgorithm::CnaOpt,
            LockAlgorithm::CBoMcs,
            LockAlgorithm::CTktTkt,
            LockAlgorithm::CPtlTkt,
            LockAlgorithm::Hmcs,
            LockAlgorithm::Fissile,
            LockAlgorithm::Mcscr,
        ] {
            let r = run(algo, 8, MachineConfig::two_socket_paper());
            assert!(
                r.total_ops > 1_000,
                "{} only completed {} ops",
                algo.name(),
                r.total_ops
            );
            // Nobody may be starved outright in 5 virtual ms except by the
            // explicitly unfair locks.
            if matches!(
                algo,
                LockAlgorithm::Mcs | LockAlgorithm::Cna | LockAlgorithm::Hmcs
            ) {
                assert!(r.ops_per_thread.iter().all(|&o| o > 0), "{}", algo.name());
            }

            // The open loop drains: the engine itself panics on a request
            // served twice or never, and the counts below must add up.
            let open = Simulation::new(
                MachineConfig::two_socket_paper(),
                CostModel::two_socket_xeon(),
                algo,
                Workload::kv_map_no_external_work(),
            )
            .threads(8)
            .seed(42)
            .run_schedule(&schedule);
            let name = algo.name();
            assert_eq!(open.sojourns_ns.len(), schedule.len(), "{name}");
            assert_eq!(open.served_per_worker.len(), 8, "{name}");
            assert_eq!(
                open.served_per_worker.iter().sum::<u64>(),
                schedule.len() as u64,
                "{name}"
            );
            assert!(open.served_per_worker.iter().all(|&n| n > 0), "{name}");
            assert!(open.sojourns_ns.iter().all(|&s| s > 0), "{name}");
            assert_eq!(open.depth_samples, schedule.len() as u64, "{name}");
            assert!(open.depth_max > 8, "{name}: the backlog must grow");
            assert!(
                open.last_completion_ns > *schedule.last().unwrap(),
                "{name}"
            );
        }
    }

    #[test]
    fn oversubscription_collapses_mcs_but_not_the_culling_lock() {
        // 8x oversubscription of the 72-CPU paper machine: plain MCS keeps
        // every waiter spinning hot, so each hand-over pays the preemption
        // penalty; MCSCR parks excess waiters on the passive list and keeps
        // its runnable set below the CPU count.
        let machine = MachineConfig::two_socket_paper();
        let cpus = machine.logical_cpus();
        let tp = |algo, threads| run(algo, threads, machine.clone()).throughput_ops_per_us();

        let mcs_1x = tp(LockAlgorithm::Mcs, cpus);
        let mcs_8x = tp(LockAlgorithm::Mcs, cpus * 8);
        assert!(
            mcs_8x < mcs_1x * 0.25,
            "MCS should collapse under oversubscription: 1x {mcs_1x:.2}, 8x {mcs_8x:.2}"
        );

        let cr_1x = tp(LockAlgorithm::Mcscr, cpus);
        let cr_8x = tp(LockAlgorithm::Mcscr, cpus * 8);
        assert!(
            cr_8x > cr_1x * 0.9,
            "MCSCR should hold within 10% of its 1x throughput: 1x {cr_1x:.2}, 8x {cr_8x:.2}"
        );
        assert!(
            cr_8x > mcs_8x * 2.0,
            "MCSCR ({cr_8x:.2}) should clearly beat MCS ({mcs_8x:.2}) at 8x"
        );
    }

    #[test]
    fn at_or_below_the_cpu_count_the_penalty_changes_nothing() {
        // The oversubscription term must be exactly zero when the thread
        // count fits the machine, so all calibrated anchors are untouched.
        let machine = MachineConfig::two_socket_paper();
        let r = run(LockAlgorithm::Mcs, 32, machine.clone());
        let mut zero_penalty_cost = CostModel::two_socket_xeon();
        zero_penalty_cost.preemption_ns = 0;
        let baseline = Simulation::new(
            machine,
            zero_penalty_cost,
            LockAlgorithm::Mcs,
            Workload::kv_map_no_external_work(),
        )
        .threads(32)
        .virtual_duration_ms(5)
        .seed(42)
        .run();
        assert_eq!(r.total_ops, baseline.total_ops);
    }
}
