//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch|stream --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload runs the same three phases — batch training
//! (PSGraph vs GraphX), an online serving tier, and a streaming
//! ingest → maintain → publish loop — so every run reports every
//! end-to-end metric. The workload decides which phase gets the largest
//! share of the run and how large the batch and stream inputs are.
//! See `perfbench/README.md` for the workloads, the metric definitions
//! and the answer checks.
//!
//! `--trace 0` measures in child processes of this program, one phase
//! each, run one after another, and prints the end-to-end metrics as
//! medians over them. `--trace 1` runs every phase in this process with
//! a span around every call into a layer, prints the per-layer metrics,
//! and writes the spans to `perfbench/out/trace-<workload>-<seed>.jsonl`.
//! The last line of standard output is one JSON object; the exit code is
//! non-zero when any answer was wrong.

mod batch;
mod oracle;
mod serve;
mod stats;
mod stream;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

/// A seed no tuning run used; claim checks must also pass on it.
const HELD_OUT_SEED: u64 = 9_001;

/// `(name, unit)` of every end-to-end metric, printed with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
    ("psgraph_wall_s", "s"),
    ("graphx_wall_s", "s"),
    ("serve_mean_us", "us"),
    ("serve_p99_us", "us"),
    ("serve_p99_us_high", "us"),
    ("serve_capacity_qps", "queries/s"),
    ("serve_queries_per_wall_s", "queries/s"),
    ("stream_events_per_wall_s", "events/s"),
    ("stream_freshness_p99_ms", "ms"),
];

/// `(name, unit)` of every per-layer metric, printed with `--trace 1`.
/// Span timings are medians over traced units; counters are summed over
/// the run's phases unless the README says otherwise.
const PER_LAYER: &[(&str, &str)] = &[
    ("graph.gen_s", "s"),
    ("graph.busy_s", "s"),
    ("harness.pool_threads", "count"),
    ("harness.pool_tasks", "count"),
    ("net.ps_rpcs", "count"),
    ("net.ps_bytes", "bytes"),
    ("net.spark_rpcs", "count"),
    ("net.spark_bytes", "bytes"),
    ("net.dfs_bytes", "bytes"),
    ("net.serve_rpcs", "count"),
    ("net.serve_bytes", "bytes"),
    ("dataflow.distribute_s", "s"),
    ("dataflow.stages", "count"),
    ("dataflow.peak_exec_mb", "MiB"),
    ("dataflow.busy_s", "s"),
    ("graphx.build_s", "s"),
    ("graphx.pagerank_s", "s"),
    ("graphx.cn_s", "s"),
    ("graphx.sim_s", "s"),
    ("graphx.busy_s", "s"),
    ("core.pagerank_s", "s"),
    ("core.cn_s", "s"),
    ("core.line_epoch_s", "s"),
    ("core.sim_s_min", "s"),
    ("core.sim_s_max", "s"),
    ("core.sim_repeat_equal", "bool"),
    ("core.pr_on_batch_ms_p50", "ms"),
    ("core.pr_on_batch_ms_p99", "ms"),
    ("core.pr_on_batch_ms_total", "ms"),
    ("core.pr_propagate_ms_p50", "ms"),
    ("core.pr_propagate_ms_p99", "ms"),
    ("core.pr_propagate_ms_total", "ms"),
    ("core.cc_on_batch_ms_p50", "ms"),
    ("core.cc_on_batch_ms_p99", "ms"),
    ("core.cc_on_batch_ms_total", "ms"),
    ("core.busy_s", "s"),
    ("ps.resident_mb", "MiB"),
    ("ps.snapshot_write_s", "s"),
    ("ps.busy_s", "s"),
    ("dfs.stored_mb", "MiB"),
    ("dfs.corrupt_fallbacks", "count"),
    ("serve.load_s", "s"),
    ("serve.p50_us", "us"),
    ("serve.submit_us_p50", "us"),
    ("serve.submit_us_p99", "us"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cache_evictions", "count"),
    ("serve.cache_mb", "MiB"),
    ("serve.shed", "count"),
    ("serve.failed", "count"),
    ("serve.mailbox_dropped", "count"),
    ("serve.mailbox_retried", "count"),
    ("serve.keys_invalidated", "count"),
    ("serve.overload_p99_us", "us"),
    ("serve.overload_shed_frac", "ratio"),
    ("serve.sim_repeat_equal", "bool"),
    ("serve.busy_s", "s"),
    ("query.plans", "count"),
    ("query.pushed_frac", "ratio"),
    ("query.stages_pushed", "count"),
    ("query.shard_bytes", "bytes"),
    ("query.rows_pruned", "count"),
    ("query.plan_submit_us_p50", "us"),
    ("query.plan_submit_us_p99", "us"),
    ("query.busy_s", "s"),
    ("stream.drain_ms_p50", "ms"),
    ("stream.drain_ms_p99", "ms"),
    ("stream.offered", "count"),
    ("stream.applied", "count"),
    ("stream.skipped_dup_adds", "count"),
    ("stream.skipped_missing_removes", "count"),
    ("stream.apply_ratio", "ratio"),
    ("stream.refresh_ms_median", "ms"),
    ("stream.refresh_ms_max", "ms"),
    ("stream.refresh_n", "count"),
    ("stream.full_reload_ms", "ms"),
    ("stream.swaps", "count"),
    ("stream.dirty_partitions", "count"),
    ("stream.sim_repeat_equal", "bool"),
    ("stream.busy_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Batch,
    Stream,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "batch" => Some(Workload::Batch),
            "stream" => Some(Workload::Stream),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Batch => "batch",
            Workload::Stream => "stream",
        }
    }

    fn why(self) -> &'static str {
        match self {
            Workload::Batch => {
                "Fig. 6 on the larger graph gets the largest share: PS pull/push/psFunc vs dataflow shuffle"
            }
            Workload::Stream => {
                "the larger write-heavy stream gets the largest share: ingest, incremental maintenance, delta swaps"
            }
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a child process of an untraced run: the one phase it
    /// measures, and whether it runs the serve probes.
    phase: Option<usize>,
    probes: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut phase = None;
    let mut probes = true;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                }
            }
            "--phase" => {
                phase = Some(
                    PHASES
                        .iter()
                        .position(|p| *p == value)
                        .ok_or_else(|| format!("unknown phase {value}"))?,
                )
            }
            "--probes" => probes = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        phase,
        probes,
    })
}

/// Everything one run measures and checks, shared by the phases.
pub struct Run {
    pub seed: u64,
    pub trace: bool,
    /// Whether this process runs the serve probes (high rate, capacity,
    /// overload). They measure simulated time only, so one process of a
    /// run is enough.
    pub probes: bool,
    /// Hardware threads; also the pool size and the ingest shard count.
    pub nproc: usize,
    metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted / failed (jobs, queries, offered events).
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers, with the first few described.
    pub wrong: u64,
    wrong_notes: Vec<String>,
    /// Median setup time of each phase.
    setup_s: Vec<f64>,
    /// Median host time of traced and untraced units, per phase.
    unit_walls: Vec<(f64, f64)>,
    /// Human-readable sample descriptions printed before the result.
    pub notes: Vec<String>,
}

impl Run {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Add to a counter summed over phases.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.metrics.entry(name).or_insert(0.0) += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Count a wrong answer unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong += 1;
            if self.wrong_notes.len() < 10 {
                self.wrong_notes.push(what());
            }
        }
    }

    /// Whether timed unit `i` of a phase records spans: in a traced run
    /// even units are traced and odd ones are not, so the two medians
    /// give the tracing overhead.
    pub fn unit_traced(&self, i: usize) -> bool {
        self.trace && i.is_multiple_of(2)
    }

    /// Close a phase: its setup samples and per-unit host times.
    pub fn phase_done(&mut self, phase: &str, setups: &[f64], units: &[(bool, f64)]) {
        let traced: Vec<f64> = units.iter().filter(|u| u.0).map(|u| u.1).collect();
        let plain: Vec<f64> = units.iter().filter(|u| !u.0).map(|u| u.1).collect();
        self.setup_s.push(stats::median(setups));
        self.unit_walls
            .push((stats::median(&traced), stats::median(&plain)));
        self.notes
            .push(format!("{phase} setup: {}", stats::describe(setups, "s")));
        self.notes.push(format!(
            "{phase} untraced unit: {}",
            stats::describe(&plain, "s")
        ));
        if !traced.is_empty() {
            self.notes.push(format!(
                "{phase} traced unit: {}",
                stats::describe(&traced, "s")
            ));
        }
    }
}

/// The phases, in the order of their indices.
const PHASES: [&str; 3] = ["batch", "serve", "stream"];

/// Operations that succeeded over those attempted.
fn ok_share((attempted, failed): (u64, u64)) -> f64 {
    (attempted - failed.min(attempted)) as f64 / attempted.max(1) as f64
}

/// Calibration loops timed before the first unit and after every unit.
const CALIBRATIONS: usize = 3;

/// End-to-end host times and host rates, given at the reference host
/// speed (`stats::Calibration`): scaled by the median over the run's
/// children of `REFERENCE_S` over the child's fastest calibration loop.
const HOST_TIMES: [&str; 3] = ["setup_s", "psgraph_wall_s", "graphx_wall_s"];
const HOST_RATES: [&str; 2] = ["serve_queries_per_wall_s", "stream_events_per_wall_s"];

/// Minimum timed units per phase, so every median has data.
const MIN_UNITS: usize = 3;

/// One phase of a run: set up in its constructor, then timed units
/// (interleaved with the other phases' units in a traced run), then a
/// report.
pub trait Phase {
    fn unit(&mut self, run: &mut Run, i: usize);
    fn finish(self: Box<Self>, run: &mut Run);
}

/// Phase sizes and time shares for one workload.
struct Plan {
    batch: batch::BatchCfg,
    stream: stream::StreamCfg,
    /// Share of `--seconds` each phase's timed units may use.
    shares: [f64; 3],
}

impl Plan {
    fn for_workload(w: Workload) -> Plan {
        let big = 0.4;
        let small = 0.3;
        match w {
            Workload::Batch => Plan {
                batch: batch::BatchCfg::BIG,
                stream: stream::StreamCfg::SMALL,
                shares: [big, small, small],
            },
            Workload::Stream => Plan {
                batch: batch::BatchCfg::SMALL,
                stream: stream::StreamCfg::BIG,
                shares: [small, small, big],
            },
        }
    }
}

/// Peak resident memory of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` in the working directory;
/// `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(id) = read(&format!(".git/{refname}")) {
        return id;
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(refname))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload batch|stream --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Every layer's pool is the process-global one; size it before any
    // layer touches it. An explicit POOL_THREADS wins (pool-size checks).
    if std::env::var_os("POOL_THREADS").is_none() {
        std::env::set_var("POOL_THREADS", nproc.to_string());
    }
    let w = args.workload;
    if args.phase.is_none() {
        println!(
            "workload {} seed {} held-out seed {HELD_OUT_SEED}",
            w.name(),
            args.seed
        );
        println!("why: {}", w.why());
        println!(
            "nproc {nproc} commit {} profile {} seconds {} trace {}",
            git_commit(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            args.seconds,
            args.trace as u8
        );
        if !args.trace {
            std::process::exit(measure_in_children(&args));
        }
    }
    let pool_threads = psgraph_harness::Pool::global().threads();
    println!("pool_threads {pool_threads}");

    let mut run = Run {
        seed: args.seed,
        trace: args.trace,
        probes: args.probes,
        nproc,
        metrics: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        wrong: 0,
        wrong_notes: Vec::new(),
        setup_s: Vec::new(),
        unit_walls: Vec::new(),
        notes: Vec::new(),
    };
    let plan = Plan::for_workload(w);
    let t0 = Instant::now();
    let steal0 = stats::host_steal_s();
    // A child measures one phase; a traced run measures all three.
    let active: Vec<usize> = match args.phase {
        Some(k) => vec![k],
        None => (0..PHASES.len()).collect(),
    };
    // Operations attempted and failed per phase, set-up included.
    let mut ops = [(0u64, 0u64); 3];
    type Ctor = fn(&mut Run, &Plan) -> Box<dyn Phase>;
    let ctors: [Ctor; 3] = [
        |run, plan| Box::new(batch::Batch::new(run, &plan.batch)),
        |run, _| Box::new(serve::Serve::new(run)),
        |run, plan| Box::new(stream::Stream::new(run, &plan.stream)),
    ];
    let mut phases: Vec<(usize, Box<dyn Phase>)> = Vec::with_capacity(active.len());
    for &k in &active {
        let (attempted, failed) = (run.attempted, run.failed);
        phases.push((k, ctors[k](&mut run, &plan)));
        ops[k] = (run.attempted - attempted, run.failed - failed);
    }
    // Host speed on a shared machine drifts over seconds, so the phases'
    // units interleave: each metric samples the whole run. The next unit
    // goes to the phase furthest below its share of the time so far;
    // after `--seconds`, only phases still short of MIN_UNITS run. A
    // child has one phase, which runs for all of its `--seconds`.
    let mut spent = [0.0f64; 3];
    let mut done = [0usize; 3];
    let mut calibration = stats::Calibration::new();
    calibration.sample(CALIBRATIONS);
    let start = Instant::now();
    loop {
        let over = start.elapsed().as_secs_f64() >= args.seconds;
        let Some((k, phase)) = phases
            .iter_mut()
            .filter(|(k, _)| !over || done[*k] < MIN_UNITS)
            .min_by(|(a, _), (b, _)| {
                (spent[*a] / plan.shares[*a]).total_cmp(&(spent[*b] / plan.shares[*b]))
            })
        else {
            break;
        };
        let k = *k;
        let (t, attempted, failed) = (Instant::now(), run.attempted, run.failed);
        phase.unit(&mut run, done[k]);
        spent[k] += t.elapsed().as_secs_f64();
        done[k] += 1;
        ops[k].0 += run.attempted - attempted;
        ops[k].1 += run.failed - failed;
        calibration.sample(CALIBRATIONS);
    }
    for &k in &active {
        run.notes.push(format!(
            "{}: {} units, {:.1}s of host time, attempted {}, failed {}",
            PHASES[k], done[k], spent[k], ops[k].0, ops[k].1
        ));
    }
    for (_, p) in phases {
        p.finish(&mut run);
    }
    trace::set_enabled(false);
    let elapsed = t0.elapsed().as_secs_f64();
    run.notes.push(format!(
        "host steal: {:.1}% of the CPUs' time during the run",
        (stats::host_steal_s() - steal0) / (elapsed * nproc as f64) * 100.0
    ));
    run.notes.push(format!(
        "host speed: calibration loop {}",
        stats::describe(&calibration.samples, "s")
    ));

    run.set("setup_s", run.setup_s.iter().sum());
    run.set("peak_rss_mb", peak_rss_mb());
    // The lowest phase's share, so a phase with few operations (batch
    // runs a handful of jobs) is not drowned by another's thousands.
    let ok_frac = active.iter().map(|&k| ok_share(ops[k])).fold(1.0, f64::min);
    run.set("ok_frac", ok_frac);
    run.set("harness.pool_threads", pool_threads as f64);
    run.set(
        "harness.pool_tasks",
        psgraph_harness::Pool::global().tasks_executed() as f64,
    );
    for layer in [
        "graph", "dataflow", "graphx", "core", "ps", "serve", "query", "stream",
    ] {
        let name: &'static str = PER_LAYER
            .iter()
            .map(|m| m.0)
            .find(|n| n.strip_suffix(".busy_s") == Some(layer))
            .expect("every traced layer has a busy metric");
        run.set(name, trace::layer_self_s(layer));
    }
    if run.trace {
        let traced: f64 = run.unit_walls.iter().map(|u| u.0).sum();
        let plain: f64 = run.unit_walls.iter().map(|u| u.1).sum();
        run.set("trace.overhead_frac", traced / plain.max(1e-12) - 1.0);
        let (closed, kept) = trace::counts();
        run.set("trace.spans", closed as f64);
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/trace-{}-{}.jsonl",
            w.name(),
            args.seed
        ));
        match trace::write(&path) {
            Ok(()) => println!(
                "trace: {kept} of {closed} spans written to {}",
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }

    for note in &run.notes {
        println!("{note}");
    }
    for note in &run.wrong_notes {
        println!("WRONG: {note}");
    }
    // A child prints only the metrics its phase measured.
    let list: Vec<(&str, &str)> = if run.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END
            .iter()
            .copied()
            .filter(|(name, _)| run.metrics.contains_key(name))
            .collect()
    };
    let values: Vec<f64> = list.iter().map(|(name, _)| run.get(name)).collect();
    println!("run: {elapsed:.2}s");
    println!("calibration_s = {}", calibration.fastest());
    println!("measured_s = {}", spent.iter().sum::<f64>());
    std::process::exit(report(&list, &values, run.attempted, run.failed, run.wrong));
}

/// Print every metric of `list` (with its value at the same index), the
/// operation counts and, last, the result object; the exit code.
fn report(list: &[(&str, &str)], values: &[f64], attempted: u64, failed: u64, wrong: u64) -> i32 {
    let mut fields = Vec::with_capacity(list.len());
    for ((name, unit), value) in list.iter().zip(values) {
        println!("{name} = {value} {unit}");
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            json_escape(name),
            if value.is_finite() { *value } else { 0.0 },
            json_escape(unit)
        ));
    }
    println!("ops: attempted {attempted} failed {failed} wrong {wrong}");
    let correct = wrong == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        fields.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}

/// Seconds of measurement each child process gets.
const CHILD_SECONDS: f64 = 2.5;
/// Children per phase at least, so every median has data.
const MIN_CHILDREN: usize = 3;

/// End-to-end metrics that only the first serve child measures: the
/// probes, which are simulated and the same in every process.
const PROBED: &[&str] = &["serve_p99_us_high", "serve_capacity_qps"];

/// An untraced run: child processes of this program, one after another
/// until `--seconds` have passed, each measuring one phase for
/// `CHILD_SECONDS`. The next child goes to the phase furthest below its
/// share of the units' time so far (the serve probes do not count), as
/// units do inside a process. A host-time metric is the median over its
/// phase's children; `setup_s` sums the phases' medians, `peak_rss_mb`
/// is the largest child's, `ok_frac` is the lowest phase's over all its
/// children's operations.
///
/// In calm spells, the host-time level of a phase differed from process
/// to process by about ±10% on the 2-vCPU development host, with the
/// same seed, no steal and address-space randomisation off; the phases
/// of one process did not move together, and a single-threaded loop run
/// between the units stayed within ±2%. Units of one process share that
/// level, so more units in one process cannot average it out; more
/// processes can. One phase per process also keeps each phase's heap
/// free of the others' garbage.
///
/// Returns the exit code: a child's own if it neither finished nor
/// found a wrong answer (no result is printed then), else 1 if any
/// answer was wrong, else 0.
fn measure_in_children(args: &Args) -> i32 {
    let plan = Plan::for_workload(args.workload);
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find this program: {e}");
            return 2;
        }
    };
    let mut values: BTreeMap<(usize, &'static str), Vec<f64>> = BTreeMap::new();
    let mut ops = [(0u64, 0u64); 3];
    let mut wrong = 0u64;
    let mut spent = [0.0f64; 3];
    let mut children = [0usize; 3];
    // Per child: `REFERENCE_S` over its fastest calibration loop.
    let mut scales = Vec::new();
    let start = Instant::now();
    loop {
        let over = start.elapsed().as_secs_f64() >= args.seconds;
        let Some(k) = (0..PHASES.len())
            .filter(|&k| !over || children[k] < MIN_CHILDREN)
            .min_by(|&a, &b| (spent[a] / plan.shares[a]).total_cmp(&(spent[b] / plan.shares[b])))
        else {
            break;
        };
        let out = std::process::Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &CHILD_SECONDS.to_string()])
            .args(["--trace", "0", "--phase", PHASES[k]])
            .args(["--probes", if children[k] == 0 { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let i = children[k];
        children[k] += 1;
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: cannot start a {} child: {e}", PHASES[k]);
                return 2;
            }
        };
        match out.status.code() {
            Some(0 | 1) => {}
            code => {
                eprintln!("perfbench: a {} child ended with {}", PHASES[k], out.status);
                return code.unwrap_or(1);
            }
        }
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            if line.starts_with('{') {
                continue;
            }
            println!("{} {i}: {line}", PHASES[k]);
            if let Some(counts) = line.strip_prefix("ops: ") {
                let n: Vec<u64> = counts
                    .split_whitespace()
                    .filter_map(|x| x.parse().ok())
                    .collect();
                if let [attempted, failed, w] = n[..] {
                    ops[k].0 += attempted;
                    ops[k].1 += failed;
                    wrong += w;
                }
            } else if let Some(s) = line.strip_prefix("measured_s = ") {
                spent[k] += s.parse::<f64>().unwrap_or(0.0);
            } else if let Some(s) = line.strip_prefix("calibration_s = ") {
                let fastest = s.parse::<f64>().ok().filter(|c| c.is_finite() && *c > 0.0);
                scales.extend(fastest.map(|c| stats::REFERENCE_S / c));
            } else if let Some((name, rest)) = line.split_once(" = ") {
                let known = END_TO_END.iter().find(|m| m.0 == name);
                let value = rest.split_whitespace().next().and_then(|v| v.parse().ok());
                if let (Some((name, _)), Some(value)) = (known, value) {
                    values.entry((k, name)).or_default().push(value);
                }
            }
        }
    }
    println!(
        "children (batch, serve, stream): {children:?}, {:.1}s",
        start.elapsed().as_secs_f64()
    );
    let of = |k: usize, name: &'static str| values.get(&(k, name)).map_or(&[][..], Vec::as_slice);
    let scale = if scales.is_empty() {
        1.0
    } else {
        stats::median(&scales)
    };
    println!(
        "host speed: host times scaled by {scale:.4}, the median over {} children of {} s over their fastest calibration loop",
        scales.len(),
        stats::REFERENCE_S
    );
    let merged: Vec<f64> = END_TO_END
        .iter()
        .map(|(name, _)| match *name {
            "setup_s" => (0..PHASES.len()).map(|k| stats::median(of(k, name))).sum(),
            "peak_rss_mb" => (0..PHASES.len())
                .map(|k| stats::max(of(k, name)))
                .fold(0.0, f64::max),
            "ok_frac" => ops.iter().map(|&o| ok_share(o)).fold(1.0, f64::min),
            // Simulated, so the same in every child; only the first runs
            // the probes.
            n if PROBED.contains(&n) => of(1, n).first().copied().unwrap_or(0.0),
            n => {
                let k = (0..PHASES.len())
                    .find(|&k| !of(k, n).is_empty())
                    .unwrap_or(0);
                stats::median(of(k, n))
            }
        })
        .zip(END_TO_END)
        .map(|(v, (name, _))| {
            if HOST_TIMES.contains(name) {
                v * scale
            } else if HOST_RATES.contains(name) {
                v / scale
            } else {
                v
            }
        })
        .collect();
    let attempted = ops.iter().map(|o| o.0).sum();
    let failed = ops.iter().map(|o| o.1).sum();
    report(END_TO_END, &merged, attempted, failed, wrong)
}
