//! The simulator and model-checker part: the 2-socket `numa_sim` sweep, one
//! oversubscribed cell and `SimOpenLoop` at a few offered rates over the
//! lock set of `baselines/smoke-sim.csv`, interleaved with
//! `modelcheck::suite::run_smoke`.
//!
//! Every simulated cell has a fixed seed, so its statistics are compared
//! against `reference/sim.txt`; the benchmark seed only shuffles the order
//! in which cells and model-check scenarios run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use harness::experiments::openloop::{arrival_schedule, request_count, SimOpenLoop};
use harness::experiments::{Arrival, SimSweep};
use modelcheck::suite::{raw_lock_scenario, ModelCPtlTkt, ModelCna, ModelHmcs, ModelMcs};
use modelcheck::{explore, Config};
use numa_sim::{SimResult, Simulation};
use registry::LockId;
use sync_core::RawLock;

use crate::rng::{shuffle, SplitMix};
use crate::stats::Reps;
use crate::trace::{Recorder, Trace, ROOT};

/// The lock set of `baselines/smoke-sim.csv`.
const SIM_LOCKS: [LockId; 6] = [
    LockId::Cna,
    LockId::Mcs,
    LockId::QSpinStock,
    LockId::QSpinCna,
    LockId::Fissile,
    LockId::Mcscr,
];

/// Virtual time every cell simulates.
const VIRTUAL_NS: u64 = 1_000_000;
/// Oversubscription multiplier over the simulated machine's CPUs.
const OVERSUB: usize = 2;
/// Service threads of the open-loop cells.
const OPEN_WORKERS: usize = 16;
/// Offered rates of the open-loop cells, requests per second.
const OPEN_RATES: [u64; 3] = [1_000_000, 2_000_000, 4_000_000];
/// Threads of every model-check scenario.
const MC_THREADS: usize = 2;
/// Locks whose exploration is timed one by one in traced runs.
pub const EXPLORED: [&str; 4] = ["mcs", "cna", "hmcs", "c-ptl-tkt"];

const REFERENCE: &str = include_str!("../reference/sim.txt");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    Closed,
    Oversub,
    Open,
}

impl Group {
    pub const ALL: [Group; 3] = [Group::Closed, Group::Oversub, Group::Open];

    pub fn name(self) -> &'static str {
        match self {
            Group::Closed => "closed",
            Group::Oversub => "oversub",
            Group::Open => "open",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Cell {
    pub group: Group,
    pub lock: LockId,
    /// Simulated threads (closed, oversub) or service threads (open).
    pub threads: usize,
    /// Offered rate of an open cell, 0 otherwise.
    pub rate: u64,
}

impl Cell {
    pub fn label(&self) -> String {
        match self.group {
            Group::Open => format!("open-w{}-r{}", self.threads, self.rate),
            group => format!("{}-t{}", group.name(), self.threads),
        }
    }
}

/// What one cell simulated.
pub struct CellOutcome {
    /// Simulated lock acquisitions.
    pub acquisitions: u64,
    /// CPU time the cell took on the calling thread.
    pub host_ns: u64,
    /// Statistics compared against the reference, as `key=value` pairs.
    pub stats: String,
    pub closed: Option<SimResult>,
}

/// The cells and inputs a tools run works on, built during set-up.
pub struct Plan {
    pub cells: Vec<Cell>,
    sweep: SimSweep,
    schedules: Vec<(u64, Vec<u64>)>,
    reference: BTreeMap<String, String>,
    pub mc_locks: Vec<&'static str>,
}

impl Plan {
    /// The full part the `tools` workload runs.
    pub fn full() -> Plan {
        let sweep = sweep();
        let mut cells = Vec::new();
        for lock in SIM_LOCKS {
            for threads in sweep.machine.paper_thread_counts() {
                cells.push(Cell {
                    group: Group::Closed,
                    lock,
                    threads,
                    rate: 0,
                });
            }
            let threads = OVERSUB * sweep.machine.logical_cpus();
            cells.push(Cell {
                group: Group::Oversub,
                lock,
                threads,
                rate: 0,
            });
            for rate in OPEN_RATES {
                cells.push(Cell {
                    group: Group::Open,
                    lock,
                    threads: OPEN_WORKERS,
                    rate,
                });
            }
        }
        Plan::new(sweep, cells, modelcheck::suite::SMOKE_LOCKS.to_vec())
    }

    /// The slice the real-thread workloads run: the closed cells at their
    /// own thread counts for `locks`, and the model check of the locks among
    /// them that the suite covers.
    pub fn lite(locks: &[LockId], threads: &[usize]) -> Plan {
        let sweep = sweep();
        let cells = locks
            .iter()
            .flat_map(|&lock| {
                threads.iter().map(move |&threads| Cell {
                    group: Group::Closed,
                    lock,
                    threads,
                    rate: 0,
                })
            })
            .collect();
        let mc_locks = modelcheck::suite::SMOKE_LOCKS
            .iter()
            .copied()
            .filter(|name| locks.iter().any(|l| l.name() == *name))
            .collect();
        Plan::new(sweep, cells, mc_locks)
    }

    fn new(sweep: SimSweep, cells: Vec<Cell>, mc_locks: Vec<&'static str>) -> Plan {
        let horizon = VIRTUAL_NS;
        let schedules = OPEN_RATES
            .iter()
            .filter(|&&rate| cells.iter().any(|c| c.rate == rate))
            .map(|&rate| {
                let requests = request_count(rate, horizon);
                (
                    rate,
                    arrival_schedule(rate, Arrival::Poisson, requests, 0x00DD_5EED ^ rate),
                )
            })
            .collect();
        let reference = REFERENCE
            .lines()
            .filter_map(|line| {
                let mut parts = line.splitn(3, ' ');
                let (label, lock, stats) = (parts.next()?, parts.next()?, parts.next()?);
                Some((format!("{label} {lock}"), stats.to_string()))
            })
            .collect();
        Plan {
            cells,
            sweep,
            schedules,
            reference,
            mc_locks,
        }
    }

    /// Simulated locks the plan's cells instantiate.
    pub fn simulated_locks(&self) -> usize {
        self.cells.len() * self.sweep.workload.locks.len()
    }

    fn run_cell(&self, cell: &Cell) -> CellOutcome {
        let seed = 0xC0FFEE ^ cell.threads as u64;
        let algorithm = cell.lock.sim_algorithm();
        let start = crate::clock::thread_ns();
        match cell.group {
            Group::Closed | Group::Oversub => {
                let result = Simulation::new(
                    self.sweep.machine.clone(),
                    self.sweep.cost,
                    algorithm,
                    self.sweep.workload.clone(),
                )
                .threads(cell.threads)
                .virtual_duration_ns(VIRTUAL_NS)
                .seed(seed)
                .run();
                let host_ns = crate::clock::thread_ns().saturating_sub(start);
                let mut stats = format!(
                    "total_ops={} remote_transfers={} local_accesses={} min_thread_ops={} max_thread_ops={}",
                    result.total_ops,
                    result.remote_transfers,
                    result.local_accesses,
                    result.ops_per_thread.iter().min().copied().unwrap_or(0),
                    result.ops_per_thread.iter().max().copied().unwrap_or(0),
                );
                for l in &result.locks {
                    let _ = write!(
                        stats,
                        " acquisitions={} uncontended={} local_handovers={} remote_handovers={} wait_time_ns={} hold_time_ns={} queue_alterations={}",
                        l.acquisitions,
                        l.uncontended,
                        l.local_handovers,
                        l.remote_handovers,
                        l.wait_time_ns,
                        l.hold_time_ns,
                        l.queue_alterations
                    );
                }
                CellOutcome {
                    acquisitions: result.locks.iter().map(|l| l.acquisitions).sum(),
                    host_ns,
                    stats,
                    closed: Some(result),
                }
            }
            Group::Open => {
                let schedule = &self
                    .schedules
                    .iter()
                    .find(|(rate, _)| *rate == cell.rate)
                    .expect("every open cell's schedule is built during set-up")
                    .1;
                let summary =
                    SimOpenLoop::new(&self.sweep, algorithm, cell.threads, schedule, seed).run();
                let host_ns = crate::clock::thread_ns().saturating_sub(start);
                let stats = format!(
                    "served={} elapsed_ns={} p50_ns={} p99_ns={} max_ns={} max_queue_depth={} mean_queue_depth={:?}",
                    summary.served(),
                    summary.elapsed_ns,
                    summary.histogram.percentile(0.50),
                    summary.histogram.percentile(0.99),
                    summary.histogram.max_ns(),
                    summary.max_queue_depth,
                    summary.mean_queue_depth,
                );
                CellOutcome {
                    acquisitions: summary.served(),
                    host_ns,
                    stats,
                    closed: None,
                }
            }
        }
    }

    /// `true` when the cell's statistics equal the stored reference.
    fn matches_reference(&self, cell: &Cell, outcome: &CellOutcome) -> bool {
        let key = format!("{} {}", cell.label(), cell.lock.name());
        self.reference.get(&key) == Some(&outcome.stats)
    }

    /// The reference file's contents for this plan's cells.
    pub fn reference_text(&self) -> String {
        let mut out = String::new();
        for cell in &self.cells {
            let outcome = self.run_cell(cell);
            let _ = writeln!(
                out,
                "{} {} {}",
                cell.label(),
                cell.lock.name(),
                outcome.stats
            );
        }
        out
    }
}

fn sweep() -> SimSweep {
    SimSweep::two_socket("sim", numa_sim::workloads::kv_map(0, 0.2))
}

/// Measurements of one tools run, one entry per pass.
#[derive(Default)]
pub struct ToolsResult {
    pub attempted: u64,
    pub failed: u64,
    /// Simulated acquisitions per CPU second of the host, per sim pass.
    pub sim_ops_per_s: Reps,
    /// Simulated acquisitions and their CPU ns, over all sim passes.
    pub sim_acquisitions: u64,
    pub sim_cpu_ns: u64,
    /// Explored schedules per CPU second of the model-check children, per
    /// model-check pass.
    pub schedules_per_s: Reps,
    /// Explored schedules and their CPU ns, over the complete model-check
    /// passes.
    pub mc_schedules: u64,
    pub mc_cpu_ns: u64,
    /// Per lock: acquisitions per host CPU µs, and the median and p99 of the
    /// host CPU ns per acquisition over the pass's cells, per sim pass.
    pub lock_ops_per_us: BTreeMap<LockId, Reps>,
    pub lock_ns_p50: BTreeMap<LockId, Reps>,
    pub lock_ns_p99: BTreeMap<LockId, Reps>,
    /// One pass's outcomes, by cell index (for the simulated statistics).
    pub last_pass: Vec<Option<CellOutcome>>,
    pub sim_passes: usize,
    pub mc_passes: usize,
    /// Model-check children killed as hung and run again.
    pub mc_hangs: u64,
}

/// Span ids of a traced tools run.
#[derive(Clone, Copy)]
struct SpanNames {
    pass: u16,
    groups: [u16; 3],
    check: u16,
}

/// Runs sim passes and model checks interleaved, so both sample the whole
/// run rather than one end of it.
pub struct ToolsRun<'a> {
    plan: &'a Plan,
    rng: SplitMix,
    trace: Option<&'a Trace>,
    names: Option<SpanNames>,
    recorder: Recorder,
    /// Share of the time the sim passes get.
    sim_share: f64,
    sim_ns: u64,
    mc_ns: u64,
    cell_order: Vec<usize>,
    /// The model-check pass in progress: its order, next index and totals.
    mc_order: Vec<&'static str>,
    mc_next: usize,
    mc_schedules: u64,
    mc_cpu_ns: u64,
    result: ToolsResult,
}

impl<'a> ToolsRun<'a> {
    pub fn new(plan: &'a Plan, seed: u64, sim_share: f64, trace: Option<&'a Trace>) -> Self {
        let names = trace.map(|t| SpanNames {
            pass: t.name("sim.pass"),
            groups: Group::ALL.map(|g| t.name(&format!("sim.{}", g.name()))),
            check: t.name("modelcheck.smoke"),
        });
        ToolsRun {
            plan,
            rng: SplitMix::new(seed ^ 0x7001_5EED),
            trace,
            names,
            recorder: Recorder::default(),
            sim_share,
            sim_ns: 0,
            mc_ns: 0,
            cell_order: (0..plan.cells.len()).collect(),
            mc_order: plan.mc_locks.clone(),
            mc_next: plan.mc_locks.len(),
            mc_schedules: 0,
            mc_cpu_ns: 0,
            result: ToolsResult::default(),
        }
    }

    /// Runs sim passes and model checks for about `slice`, giving the sim
    /// passes their share of the time spent so far.
    pub fn run_for(&mut self, slice: Duration) {
        let end = Instant::now() + slice;
        loop {
            let spent = (self.sim_ns + self.mc_ns) as f64;
            let start = Instant::now();
            if self.plan.mc_locks.is_empty() || self.sim_ns as f64 <= self.sim_share * spent {
                self.sim_pass();
                self.sim_ns += start.elapsed().as_nanos() as u64;
            } else {
                self.mc_step();
                self.mc_ns += start.elapsed().as_nanos() as u64;
            }
            if Instant::now() >= end {
                break;
            }
        }
    }

    /// Makes sure each part ran at least one complete pass and returns the
    /// measurements. A model-check pass cut short by the end of the run is
    /// dropped unless it is the only one.
    pub fn finish(mut self) -> ToolsResult {
        if self.result.sim_passes == 0 {
            self.sim_pass();
        }
        while !self.plan.mc_locks.is_empty() && self.result.mc_passes == 0 {
            self.mc_step();
        }
        if let Some(trace) = self.trace {
            trace.merge(std::mem::take(&mut self.recorder));
        }
        self.result
    }

    fn sim_pass(&mut self) {
        let plan = self.plan;
        shuffle(&mut self.cell_order, &mut self.rng);
        let pass = self.result.sim_passes as u64;
        let parent = self.names.map(|n| self.recorder.open(n.pass, pass, ROOT));
        let mut outcomes: Vec<Option<CellOutcome>> = (0..plan.cells.len()).map(|_| None).collect();
        for &i in &self.cell_order {
            let cell = &plan.cells[i];
            let span = self.names.map(|n| {
                let g = Group::ALL
                    .iter()
                    .position(|&g| g == cell.group)
                    .unwrap_or(0);
                self.recorder
                    .open(n.groups[g], pass, parent.unwrap_or(ROOT))
            });
            let outcome = plan.run_cell(cell);
            if let Some(span) = span {
                self.recorder.close(span, outcome.acquisitions as u32);
            }
            self.result.attempted += 1;
            if !plan.matches_reference(cell, &outcome) {
                if self.result.failed == 0 {
                    eprintln!(
                        "sim cell {} {} differs from the reference",
                        cell.label(),
                        cell.lock.name()
                    );
                }
                self.result.failed += 1;
            }
            outcomes[i] = Some(outcome);
        }
        if let Some(parent) = parent {
            self.recorder.close(parent, plan.cells.len() as u32);
        }
        record_pass(&mut self.result, plan, &outcomes);
        self.result.last_pass = outcomes;
        self.result.sim_passes += 1;
    }

    /// Runs the next model check of the pass in progress, starting a new
    /// pass in a fresh seeded order when the last one is complete.
    fn mc_step(&mut self) {
        if self.mc_next == self.mc_order.len() {
            shuffle(&mut self.mc_order, &mut self.rng);
            self.mc_next = 0;
            self.mc_schedules = 0;
            self.mc_cpu_ns = 0;
        }
        let name = self.mc_order[self.mc_next];
        self.mc_next += 1;
        let span = self.names.map(|n| {
            self.recorder
                .open(n.check, self.result.mc_passes as u64, ROOT)
        });
        self.result.attempted += 1;
        let outcome = check_in_child(CHILD_SMOKE, name, &mut self.result.mc_hangs);
        if let Some(span) = span {
            self.recorder
                .close(span, outcome.map_or(0, |o| o.schedules) as u32);
        }
        match outcome {
            Some(o) => {
                self.mc_schedules += o.schedules;
                self.mc_cpu_ns += o.cpu_ns;
            }
            None => self.result.failed += 1,
        }
        if self.mc_next == self.mc_order.len() {
            let rate = self.mc_schedules as f64 / (self.mc_cpu_ns.max(1) as f64 / 1e9);
            self.result.schedules_per_s.push(rate);
            self.result.mc_schedules += self.mc_schedules;
            self.result.mc_cpu_ns += self.mc_cpu_ns;
            self.result.mc_passes += 1;
        }
    }
}

fn record_pass(result: &mut ToolsResult, plan: &Plan, outcomes: &[Option<CellOutcome>]) {
    let done = || {
        plan.cells
            .iter()
            .zip(outcomes)
            .filter_map(|(c, o)| Some((c, o.as_ref()?)))
    };
    let acquisitions: u64 = done().map(|(_, o)| o.acquisitions).sum();
    let host_ns: u64 = done().map(|(_, o)| o.host_ns).sum();
    result
        .sim_ops_per_s
        .push(acquisitions as f64 / (host_ns as f64 / 1e9));
    result.sim_acquisitions += acquisitions;
    result.sim_cpu_ns += host_ns;
    for lock in crate::real::LOCKS {
        let per_op: Vec<f64> = done()
            .filter(|(c, _)| c.lock == lock)
            .map(|(_, o)| o.host_ns as f64 / o.acquisitions.max(1) as f64)
            .collect();
        if per_op.is_empty() {
            continue;
        }
        let (acq, ns) = done()
            .filter(|(c, _)| c.lock == lock)
            .fold((0u64, 0u64), |(a, n), (_, o)| {
                (a + o.acquisitions, n + o.host_ns)
            });
        result
            .lock_ops_per_us
            .entry(lock)
            .or_default()
            .push(acq as f64 / (ns as f64 / 1e3));
        result
            .lock_ns_p50
            .entry(lock)
            .or_default()
            .push(crate::stats::quantile(&per_op, 0.5));
        result
            .lock_ns_p99
            .entry(lock)
            .or_default()
            .push(crate::stats::quantile(&per_op, 0.99));
    }
}

/// Child-process mode that runs `run_smoke` for one lock.
pub const CHILD_SMOKE: &str = "--child-run-smoke";
/// Child-process mode that runs `explore` for one of [`EXPLORED`].
pub const CHILD_EXPLORE: &str = "--child-explore";
/// A model-check child that has not finished by then is treated as hung.
const CHILD_TIMEOUT: Duration = Duration::from_secs(5);
/// Attempts per model check before a hang counts as a failure.
const CHILD_ATTEMPTS: usize = 3;

/// What one model check explored, as a child process reports it.
#[derive(Debug, Default, Clone, Copy)]
pub struct McOutcome {
    pub schedules: u64,
    pub steps: u64,
    pub pruned_hits: u64,
    /// CPU time the child spent exploring, over all its threads.
    pub cpu_ns: u64,
}

/// Runs one model check in a child process of this binary and returns what
/// it explored, or `None` when it found a violation.
///
/// `modelcheck::explore` can hang when it shuts its worker threads down (see
/// the README's known issues), and a hung exploration cannot be woken from
/// outside. So each check runs in its own process; one that outlives
/// [`CHILD_TIMEOUT`] is killed, counted in `hangs`, and run again.
pub fn check_in_child(mode: &str, name: &str, hangs: &mut u64) -> Option<McOutcome> {
    let exe = std::env::current_exe().expect("the benchmark binary has a path");
    for _ in 0..CHILD_ATTEMPTS {
        let mut child = Command::new(&exe)
            .args([mode, name])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawning a model-check child");
        let start = Instant::now();
        let status = loop {
            if let Some(status) = child.try_wait().expect("polling a model-check child") {
                break Some(status);
            }
            if start.elapsed() > CHILD_TIMEOUT {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let Some(status) = status else {
            *hangs += 1;
            eprintln!("model check of {name} hung; running it again");
            continue;
        };
        let mut out = String::new();
        if let Some(mut stdout) = child.stdout.take() {
            let _ = stdout.read_to_string(&mut out);
        }
        if !status.success() {
            eprintln!("model check of {name} found a violation");
            return None;
        }
        let fields: Vec<u64> = out
            .split_whitespace()
            .filter_map(|f| f.parse().ok())
            .collect();
        if let [schedules, steps, pruned_hits, cpu_ns] = fields[..] {
            return Some(McOutcome {
                schedules,
                steps,
                pruned_hits,
                cpu_ns,
            });
        }
        eprintln!("model check of {name} printed {out:?}");
        return None;
    }
    None
}

/// The body of a model-check child: prints
/// `schedules steps pruned_hits cpu_ns`, and exits non-zero on a
/// violation (`run_smoke` panics with the counterexample).
pub fn child_main(mode: &str, name: &str) -> bool {
    fn go<L: RawLock + 'static>(name: &str) -> modelcheck::Report {
        let cfg = Config {
            trace_dir: None,
            ..Config::smoke(name)
        };
        explore(&cfg, &raw_lock_scenario::<L>(name, MC_THREADS, 1))
    }
    pin_to_current_cpu();
    let start = crate::clock::process_ns();
    let outcome = if mode == CHILD_SMOKE {
        let schedules = modelcheck::suite::run_smoke(name, MC_THREADS);
        McOutcome {
            schedules,
            ..McOutcome::default()
        }
    } else {
        let report = match name {
            "mcs" => go::<ModelMcs>(name),
            "cna" => go::<ModelCna>(name),
            "hmcs" => go::<ModelHmcs>(name),
            "c-ptl-tkt" => go::<ModelCPtlTkt>(name),
            other => panic!("no exploration named {other}"),
        };
        if report.violation.is_some() {
            return false;
        }
        McOutcome {
            schedules: report.schedules,
            steps: report.steps,
            pruned_hits: report.pruned_hits,
            ..McOutcome::default()
        }
    };
    let cpu_ns = crate::clock::process_ns().saturating_sub(start);
    println!(
        "{} {} {} {cpu_ns}",
        outcome.schedules, outcome.steps, outcome.pruned_hits
    );
    true
}

/// Pins the calling thread, and every thread it spawns afterwards, to the
/// CPU it runs on. The explorer runs one model thread at a time and hands a
/// baton between OS threads; on one CPU each hand-off is a plain context
/// switch instead of a cross-CPU wake-up, whose latency on a virtual machine
/// depends on the host's load more than on the explorer. Best effort: on
/// failure the child runs unpinned.
fn pin_to_current_cpu() {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only returns a number.
    let cpu = unsafe { sched_getcpu() };
    let mut mask = [0u64; 16];
    let Some(word) = usize::try_from(cpu).ok().filter(|&c| c < 64 * mask.len()) else {
        return;
    };
    mask[word / 64] |= 1 << (word % 64);
    // SAFETY: `mask` is a live, initialised CPU set of `size_of_val(&mask)`
    // bytes that the call only reads; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

/// Explores each of [`EXPLORED`] once, one span per exploration.
pub fn explore_named(trace: &Trace, result: &mut ToolsResult) -> Vec<McOutcome> {
    let mut recorder = Recorder::default();
    let mut outcomes = Vec::new();
    for (i, name) in EXPLORED.iter().enumerate() {
        let span = recorder.open(
            trace.name(&format!("modelcheck.{name}.explore")),
            i as u64,
            ROOT,
        );
        result.attempted += 1;
        let outcome = check_in_child(CHILD_EXPLORE, name, &mut result.mc_hangs);
        recorder.close(span, 1);
        if outcome.is_none() {
            result.failed += 1;
        }
        outcomes.push(outcome.unwrap_or_default());
    }
    trace.merge(recorder);
    outcomes
}
