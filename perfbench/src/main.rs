//! The repository benchmark: one command, four workloads, every output
//! checked. See `README.md` next to this crate for the workloads, the
//! metrics and how to run it.

mod alloc;
mod clock;
mod layers;
mod real;
mod rng;
mod stats;
mod tools;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use registry::LockId;

use crate::real::{Shape, LOCKS};
use crate::stats::{median, Reps};
use crate::tools::{Group, Plan, ToolsResult, ToolsRun};
use crate::trace::Trace;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Share of a real-thread run given to its simulator and model-check slice.
const LITE_TOOLS_SHARE: f64 = 0.3;
/// Share of the slice given to the simulator. Its passes there last a
/// millisecond or two, and the host's speed moves them by half from one
/// second to the next, so they need more of the run than on `tools`.
const LITE_SIM_SHARE: f64 = 0.5;
/// Share of the `tools` time given to the simulator.
const SIM_SHARE: f64 = 0.3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Real(Shape),
    Tools,
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("uncontended", Workload::Real(Shape::Uncontended)),
        ("contended", Workload::Real(Shape::Contended)),
        ("many-locks", Workload::Real(Shape::ManyLocks)),
        ("tools", Workload::Tools),
    ];
}

struct Args {
    workload_name: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

const USAGE: &str = "usage: perfbench --workload <uncontended|contended|many-locks|tools> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --write-reference";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload_name = workload.ok_or("--workload is required")?;
    let workload = Workload::ALL
        .iter()
        .find(|(name, _)| *name == workload_name)
        .map(|&(_, w)| w)
        .ok_or_else(|| format!("unknown workload {workload_name}"))?;
    Ok(Args {
        workload_name,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
    })
}

/// One reported metric, with the repetitions it is the median of.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    samples: usize,
    spread: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
        samples: 1,
        spread: 0.0,
    }
}

fn from_reps(name: impl Into<String>, unit: &'static str, reps: &Reps) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value: reps.median(),
        samples: reps.len(),
        spread: reps.spread(),
    }
}

/// A rate over the whole run, `count` per second of `cpu_ns`, with the
/// spread of the per-pass rates `reps`. On the real-thread workloads a pass
/// lasts a millisecond or two between turns, and its rate depends on what
/// the turn left in the caches; the run's total is steadier than the median
/// of such passes.
fn pooled(
    name: impl Into<String>,
    unit: &'static str,
    count: u64,
    cpu_ns: u64,
    reps: &Reps,
) -> Metric {
    Metric {
        value: count as f64 / (cpu_ns.max(1) as f64 / 1e9),
        ..from_reps(name, unit, reps)
    }
}

/// What set-up builds for each workload.
enum Built {
    Real { setup: real::Setup, lite: Plan },
    Tools { plan: Plan, heap_bytes: isize },
}

fn build(workload: Workload, seed: u64) -> Built {
    match workload {
        Workload::Real(shape) => Built::Real {
            setup: real::setup(shape, seed),
            lite: Plan::lite(&LOCKS, &(1..=shape.threads()).collect::<Vec<_>>()),
        },
        Workload::Tools => {
            let before = alloc::live_bytes();
            let plan = Plan::full();
            Built::Tools {
                heap_bytes: alloc::live_bytes() - before,
                plan,
            }
        }
    }
}

/// One measured phase of a run.
struct Measured {
    metrics: Vec<Metric>,
    counts: Counts,
    tools: ToolsResult,
}

/// Operation counts of a whole run.
#[derive(Default)]
struct Counts {
    attempted: u64,
    failed: u64,
    /// Model-check children killed as hung and run again.
    mc_hangs: u64,
}

impl Counts {
    fn add(&mut self, tools: &ToolsResult) {
        self.attempted += tools.attempted;
        self.failed += tools.failed;
        self.mc_hangs += tools.mc_hangs;
    }
}

fn measure(
    built: &Built,
    setup_s: &Reps,
    duration: Duration,
    seed: u64,
    trace: Option<&Trace>,
) -> Measured {
    let mut metrics = vec![from_reps("setup_s", "s", setup_s)];
    let mut counts = Counts::default();
    let tools = match built {
        Built::Real { setup, lite } => {
            metrics.push(metric(
                "heap_bytes_per_lock",
                "B",
                setup.heap_bytes as f64 / setup.lock_count as f64,
            ));
            let mut tools = ToolsRun::new(lite, seed, LITE_SIM_SHARE, trace);
            let results = real::run(
                setup,
                duration,
                Some((&mut tools, LITE_TOOLS_SHARE)),
                seed,
                trace,
            );
            for (id, r) in LOCKS.iter().zip(&results) {
                let name = id.name();
                metrics.push(from_reps(
                    format!("{name}.ops_per_us"),
                    "ops/us",
                    &r.ops_per_us,
                ));
                // A percentile's sample count is the timed batches behind it.
                for (suffix, reps) in [("op_ns_p50", &r.op_ns_p50), ("op_ns_p99", &r.op_ns_p99)] {
                    let samples = r.samples as usize;
                    metrics.push(Metric {
                        samples,
                        ..from_reps(format!("{name}.{suffix}"), "ns", reps)
                    });
                }
                metrics.push(from_reps(format!("{name}.fairness"), "ratio", &r.fairness));
                counts.attempted += r.attempted;
                counts.failed += r.failed;
            }
            tools.finish()
        }
        Built::Tools { plan, heap_bytes } => {
            metrics.push(metric(
                "heap_bytes_per_lock",
                "B",
                *heap_bytes as f64 / plan.simulated_locks() as f64,
            ));
            let mut run = ToolsRun::new(plan, seed, SIM_SHARE, trace);
            run.run_for(duration);
            let t = run.finish();
            for id in LOCKS {
                let name = id.name();
                metrics.push(from_reps(
                    format!("{name}.ops_per_us"),
                    "ops/us",
                    &t.lock_ops_per_us[&id],
                ));
                metrics.push(from_reps(
                    format!("{name}.op_ns_p50"),
                    "ns",
                    &t.lock_ns_p50[&id],
                ));
                metrics.push(from_reps(
                    format!("{name}.op_ns_p99"),
                    "ns",
                    &t.lock_ns_p99[&id],
                ));
                metrics.push(metric(
                    format!("{name}.fairness"),
                    "ratio",
                    sim_fairness(plan, &t, id),
                ));
            }
            t
        }
    };
    metrics.push(pooled(
        "sim.ops_per_s",
        "ops/s",
        tools.sim_acquisitions,
        tools.sim_cpu_ns,
        &tools.sim_ops_per_s,
    ));
    metrics.push(pooled(
        "modelcheck.schedules_per_s",
        "1/s",
        tools.mc_schedules,
        tools.mc_cpu_ns,
        &tools.schedules_per_s,
    ));
    counts.add(&tools);
    Measured {
        metrics,
        counts,
        tools,
    }
}

/// The simulated fairness factor of `id` at the largest closed thread count.
fn sim_fairness(plan: &Plan, tools: &ToolsResult, id: LockId) -> f64 {
    plan.cells
        .iter()
        .zip(&tools.last_pass)
        .filter(|(c, _)| c.lock == id && c.group == Group::Closed)
        .max_by_key(|(c, _)| c.threads)
        .and_then(|(_, o)| o.as_ref()?.closed.as_ref().map(|r| r.fairness_factor()))
        .expect("the full plan has closed cells for every lock")
}

/// Simulated hand-over statistics of `id` over the closed cells of a pass:
/// (share of hand-overs that stayed on the socket, queue alterations).
fn sim_handovers(plan: &Plan, tools: &ToolsResult, id: LockId) -> (f64, u64) {
    let (mut local, mut remote, mut altered) = (0u64, 0u64, 0u64);
    for (cell, outcome) in plan.cells.iter().zip(&tools.last_pass) {
        if let (true, Some(result)) = (
            cell.lock == id,
            outcome.as_ref().and_then(|o| o.closed.as_ref()),
        ) {
            for l in &result.locks {
                local += l.local_handovers;
                remote += l.remote_handovers;
                altered += l.queue_alterations;
            }
        }
    }
    (local as f64 / (local + remote).max(1) as f64, altered)
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    args: &Args,
    built: &Built,
    phase: &Trace,
    phase_tools: &ToolsResult,
    layers: &Trace,
    counts: &mut Counts,
) -> Vec<Metric> {
    layers::probe_all(layers, &LOCKS);
    let mut out = Vec::new();
    for id in LOCKS {
        let name = id.name();
        for layer in ["raw", "node_pool", "mutex", "dyn", "ambient", "registry"] {
            let span = layers::span_name(layer, id);
            out.push(span_metric(
                format!("{span}_ns"),
                "ns",
                &layers.per_call(&span),
            ));
        }
        out.push(metric(
            format!("{name}.lock_bytes"),
            "B",
            id.build().lock_size() as f64,
        ));
    }
    out.push(span_metric(
        "topology.current_socket_ns",
        "ns",
        &layers.per_call("topology.current_socket"),
    ));

    // kv-map and leveldb calls come from the workload's own operations; a
    // workload without them measures them on one thread, as `uncontended`.
    let own = match built {
        Built::Real { setup, .. } => Some(setup),
        Built::Tools { .. } => None,
    };
    let needs_probe = own.is_none_or(|s| !s.shape.runs_gets());
    let probe_setup = needs_probe.then(|| real::setup(Shape::Uncontended, args.seed));
    if let Some(setup) = &probe_setup {
        for r in real::run(
            setup,
            Duration::from_millis(600),
            None,
            args.seed,
            Some(layers),
        ) {
            counts.attempted += r.attempted;
            counts.failed += r.failed;
        }
    }
    let source = |span: &str| {
        let own_calls = phase.per_call(span);
        if own_calls.is_empty() {
            layers.per_call(span)
        } else {
            own_calls
        }
    };
    for id in LOCKS {
        let name = id.name();
        let incr = source(&format!("kvmap.{name}.incr"));
        out.push(span_quantile(
            format!("kvmap.{name}.incr_ns_p50"),
            &incr,
            0.50,
        ));
        out.push(span_quantile(
            format!("kvmap.{name}.incr_ns_p99"),
            &incr,
            0.99,
        ));
        let get = source(&format!("leveldb.{name}.get"));
        out.push(span_quantile(
            format!("leveldb.{name}.get_ns_p50"),
            &get,
            0.50,
        ));
        out.push(span_quantile(
            format!("leveldb.{name}.get_ns_p99"),
            &get,
            0.99,
        ));
    }
    let hit_setup = match own {
        Some(s) if s.shape.runs_gets() => s,
        _ => probe_setup
            .as_ref()
            .expect("built when the workload runs no gets"),
    };
    out.push(metric(
        "leveldb.cache_hit_ratio",
        "ratio",
        real::cache_hit_ratio(hit_setup).expect("gets ran"),
    ));

    // Simulator layers: the workload's own full pass on `tools`, otherwise
    // one pass of the full sweep without the model-check suite.
    let (sim_trace, sim_plan, sim_tools);
    let swept;
    match built {
        Built::Tools { plan, .. } => {
            sim_trace = phase;
            sim_plan = plan;
            sim_tools = phase_tools;
        }
        Built::Real { .. } => {
            let mut plan = Plan::full();
            plan.mc_locks.clear();
            let result = ToolsRun::new(&plan, args.seed, SIM_SHARE, Some(layers)).finish();
            counts.add(&result);
            swept = (plan, result);
            sim_trace = layers;
            sim_plan = &swept.0;
            sim_tools = &swept.1;
        }
    }
    for group in Group::ALL {
        let calls = sim_trace.per_call(&format!("sim.{}", group.name()));
        out.push(span_metric(
            format!("sim.{}.host_ns_per_op", group.name()),
            "ns",
            &calls,
        ));
    }
    for id in LOCKS {
        let (share, altered) = sim_handovers(sim_plan, sim_tools, id);
        out.push(metric(
            format!("sim.{}.local_handover_share", id.name()),
            "ratio",
            share,
        ));
        out.push(metric(
            format!("sim.{}.queue_alterations", id.name()),
            "count",
            altered as f64,
        ));
    }

    let mut explored = ToolsResult::default();
    let outcomes = tools::explore_named(layers, &mut explored);
    counts.add(&explored);
    let total = |f: fn(&tools::McOutcome) -> u64| outcomes.iter().map(f).sum::<u64>() as f64;
    out.push(metric(
        "modelcheck.schedules",
        "count",
        total(|o| o.schedules),
    ));
    out.push(metric("modelcheck.steps", "count", total(|o| o.steps)));
    out.push(metric(
        "modelcheck.pruned_hits",
        "count",
        total(|o| o.pruned_hits),
    ));
    for (name, outcome) in tools::EXPLORED.iter().zip(&outcomes) {
        out.push(metric(
            format!("modelcheck.{name}.explore_s"),
            "s",
            outcome.cpu_ns as f64 / 1e9,
        ));
    }
    out
}

fn span_metric(name: impl Into<String>, unit: &'static str, per_call: &[f64]) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value: median(per_call),
        samples: per_call.len(),
        spread: stats::relative_iqr(per_call),
    }
}

fn span_quantile(name: String, per_call: &[f64], q: f64) -> Metric {
    Metric {
        name,
        unit: "ns",
        value: stats::quantile(per_call, q),
        samples: per_call.len(),
        spread: 0.0,
    }
}

/// Where this run's code, host and inputs came from.
fn provenance(args: &Args) -> Vec<(&'static str, String)> {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let topology = match std::env::var("CNA_SOCKETS") {
        Ok(v) => format!("CNA_SOCKETS={v}"),
        Err(_) => format!("detected ({:?})", numa_topology::detect().1),
    };
    vec![
        (
            "git_sha",
            git_sha(Path::new(".")).unwrap_or_else(|| "unknown".into()),
        ),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("rustc", rustc),
        ("topology", topology),
        ("workload", args.workload_name.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("traced", args.traced.to_string()),
    ]
}

/// The commit checked out in `root`, read from `.git` without running git
/// (a checkout without `.git` has none).
fn git_sha(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|line| line.ends_with(reference))
        .and_then(|line| line.split(' ').next())
        .map(str::to_string)
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn write_result_file(
    args: &Args,
    provenance: &[(&str, String)],
    setup_times: &Reps,
    metrics: &[Metric],
    counts: &Counts,
) -> std::io::Result<PathBuf> {
    let mut out = String::from("{\n  \"provenance\": {");
    let fields: Vec<String> = provenance
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    out.push_str(&fields.join(", "));
    let setups: Vec<String> = setup_times.0.iter().map(|&t| json_number(t)).collect();
    let _ = write!(
        out,
        "}},\n  \"attempted\": {},\n  \"failed\": {},\n  \"modelcheck_hangs\": {},\n  \"setup_s_each\": [{}],\n  \"metrics\": {{\n",
        counts.attempted,
        counts.failed,
        counts.mc_hangs,
        setups.join(", ")
    );
    let rows: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"samples\": {}, \"relative_iqr\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit),
                m.samples,
                json_number(m.spread)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  }\n}\n");
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload_name,
        args.seed,
        u8::from(args.traced)
    ));
    std::fs::write(&path, out)?;
    Ok(path)
}

fn write_reference() -> std::io::Result<()> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference/sim.txt");
    std::fs::write(&path, Plan::full().reference_text())?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    trace::now_ns();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [mode, name] = &argv[..] {
        if mode == tools::CHILD_SMOKE || mode == tools::CHILD_EXPLORE {
            return if tools::child_main(mode, name) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
    }
    if argv.iter().any(|a| a == "--write-reference") {
        return match write_reference() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Set up several times; the first is timed from process start.
    let mut setup_times = Reps::default();
    let mut built = None;
    for i in 0..SETUPS {
        drop(built.take());
        let start = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        built = Some(build(args.workload, args.seed));
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let built = built.expect("at least one set-up");
    let provenance = provenance(&args);
    let duration = Duration::from_secs_f64(args.seconds);

    let mut counts = Counts::default();
    let metrics = if args.traced {
        // Untraced and traced halves of the same workload; their difference
        // is the tracing overhead on each end-to-end metric.
        let half = duration / 2;
        let untraced = measure(&built, &setup_times, half, args.seed, None);
        let phase = Trace::default();
        let traced = measure(&built, &setup_times, half, args.seed, Some(&phase));
        let layers = Trace::default();
        for m in [&untraced, &traced] {
            counts.attempted += m.counts.attempted;
            counts.failed += m.counts.failed;
            counts.mc_hangs += m.counts.mc_hangs;
        }
        let mut metrics = layer_metrics(&args, &built, &phase, &traced.tools, &layers, &mut counts);
        for (u, t) in untraced.metrics.iter().zip(&traced.metrics) {
            metrics.push(metric(
                format!("overhead.{}", u.name),
                u.unit,
                t.value - u.value,
            ));
        }
        let spans = results_dir().join(format!(
            "{}-seed{}.spans.jsonl",
            args.workload_name, args.seed
        ));
        let written = std::fs::create_dir_all(results_dir())
            .and_then(|()| trace::write_file(&spans, &[("workload", &phase), ("layers", &layers)]));
        if let Err(e) = written {
            eprintln!("perfbench: writing {}: {e}", spans.display());
        }
        metrics
    } else {
        let m = measure(&built, &setup_times, duration, args.seed, None);
        counts = m.counts;
        m.metrics
    };

    match write_result_file(&args, &provenance, &setup_times, &metrics, &counts) {
        Ok(path) => eprintln!("perfbench: wrote {}", path.display()),
        Err(e) => eprintln!("perfbench: writing the result file: {e}"),
    }
    let summary: Vec<String> = provenance.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# {}", summary.join(" "));
    for m in &metrics {
        println!(
            "# {:<40} {:>16.4} {:<7} n={} iqr={:.4}",
            m.name, m.value, m.unit, m.samples, m.spread
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        counts.failed == 0,
        counts.attempted,
        counts.failed,
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}
