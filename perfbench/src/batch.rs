//! Batch phase: Fig. 6 on a seeded DS1-style RMAT graph.
//!
//! One unit is a PSGraph half (PageRank, Common Neighbor, one LINE epoch
//! with psFunc) and a GraphX half (PageRank, Common Neighbor) on the
//! same graph, each on a fresh deployment sized by the paper's
//! allocations. The halves alternate which goes first. Label Propagation
//! and Fast Unfolding stay out: their outputs depend on the schedule
//! today, so they cannot be checked exactly.
//!
//! Checks, outside the timed halves: PSGraph ranks against
//! `metrics::pagerank_exact` by the delta-PageRank identity below,
//! GraphX ranks to 1e-9 relative, both Common Neighbor outputs exactly
//! against `metrics::common_neighbors_exact`, and the LINE epoch loss
//! finite and below the untrained loss `ln 2`.

use std::collections::HashMap;
use std::time::Instant;

use psgraph_bench::deploy::{
    graphx_cluster, psgraph_context, PaperAlloc, ScaleRule, SIM_EXECUTORS,
};
use psgraph_core::algos::{CommonNeighbor, Line, LineConfig, PageRank};
use psgraph_core::runner::distribute_edges;
use psgraph_core::{CoreError, PsGraphContext};
use psgraph_graph::gen::{self, RmatParams};
use psgraph_graph::{metrics, Dataset, EdgeList};
use psgraph_graphx::{gx_common_neighbor, gx_pagerank, GxGraph};
use psgraph_sim::SplitMix64;

use crate::stats::{self, Laps};
use crate::{trace, Phase, Run};

const ITERATIONS: u64 = 30;
const DAMPING: f64 = 0.85;
const LINE_DIM: usize = 32;
const SETUPS: usize = 3;
/// Seed of the graph's shape (the DS1 preset's).
const SHAPE_SEED: u64 = 0xD51;

#[derive(Debug, Clone, Copy)]
pub struct BatchCfg {
    /// `Dataset::Ds1` scale: vertex and edge counts and the memory
    /// budgets of both deployments follow from it.
    pub scale: f64,
}

impl BatchCfg {
    pub const BIG: BatchCfg = BatchCfg { scale: 0.02 };
    pub const SMALL: BatchCfg = BatchCfg { scale: 0.01 };
}

/// RMAT of DS1's vertex and edge counts. Its shape is fixed; the seed
/// relabels the vertices, which moves the hubs between partitions and
/// servers without changing how much work there is. A ring over the new
/// ids means no vertex dangles (the delta PageRank drops dangling mass,
/// the reference redistributes it).
fn generate(scale: f64, seed: u64) -> EdgeList {
    let spec = Dataset::Ds1.spec(scale);
    let g = gen::rmat(spec.vertices, spec.edges, RmatParams::default(), SHAPE_SEED);
    let n = g.num_vertices();
    let mut label: Vec<u64> = (0..n).collect();
    SplitMix64::new(seed).shuffle(&mut label);
    let mut edges: Vec<(u64, u64)> = g
        .edges()
        .iter()
        .map(|&(s, d)| (label[s as usize], label[d as usize]))
        .collect();
    edges.extend((0..n).map(|v| (v, (v + 1) % n)));
    EdgeList::new(n, edges).dedup()
}

struct PsOut {
    ranks: Vec<f64>,
    pr_sim_s: f64,
    cn: Vec<(u64, u64, u64)>,
    line_loss: f64,
}

struct GxOut {
    ranks: Vec<(u64, f64)>,
    cn: Vec<(u64, u64, u64)>,
}

fn net_counters(run: &mut Run, ctx: &PsGraphContext) {
    let ps = ctx.ps().network().stats();
    run.add("net.ps_rpcs", ps.rpcs() as f64);
    run.add("net.ps_bytes", ps.total_bytes() as f64);
    spark_counters(run, ctx.cluster());
    run.add(
        "net.dfs_bytes",
        ctx.dfs().network().stats().total_bytes() as f64,
    );
    run.add(
        "dfs.stored_mb",
        ctx.dfs().total_bytes() as f64 / (1 << 20) as f64,
    );
    run.add(
        "dfs.corrupt_fallbacks",
        ctx.dfs().corrupt_fallbacks() as f64,
    );
    run.add(
        "ps.resident_mb",
        ctx.ps().resident_bytes() as f64 / (1 << 20) as f64,
    );
}

fn spark_counters(run: &mut Run, cluster: &psgraph_dataflow::Cluster) {
    let s = cluster.network().stats();
    run.add("net.spark_rpcs", s.rpcs() as f64);
    run.add("net.spark_bytes", s.total_bytes() as f64);
    run.add("dataflow.stages", cluster.stages_run() as f64);
    let peak = (0..cluster.num_executors())
        .map(|i| cluster.executor(i).memory().peak())
        .max()
        .unwrap_or(0) as f64
        / (1 << 20) as f64;
    let key = "dataflow.peak_exec_mb";
    let prev = run.get(key);
    run.set(key, prev.max(peak));
}

/// The PSGraph half; `laps` gets one time per step.
fn psgraph_half(
    run: &mut Run,
    g: &EdgeList,
    rule: ScaleRule,
    unit: u64,
    laps: &mut Laps,
) -> Result<PsOut, CoreError> {
    let n = g.num_vertices();
    let ctx = psgraph_context(rule, PaperAlloc::PSGRAPH_DS1);
    let parts = ctx.cluster().default_partitions();
    let edges = trace::span("dataflow.distribute", unit, || {
        distribute_edges(&ctx, g, parts)
    })?;
    laps.lap();
    let pr = trace::span("core.pagerank", unit, || {
        PageRank {
            damping: DAMPING,
            max_iterations: ITERATIONS,
            tolerance: 0.0,
            ..Default::default()
        }
        .run(&ctx, &edges, n)
    })?;
    laps.lap();
    let cn = trace::span("core.cn", unit, || {
        CommonNeighbor::default().run(&ctx, &edges, n)
    })?;
    laps.lap();
    if unit == 0 {
        net_counters(run, &ctx);
    }

    // LINE's embedding tables need the DS2-sized server pool, as in the
    // §V-B2 reproduction.
    let lctx = psgraph_context(rule, PaperAlloc::PSGRAPH_DS2);
    let lparts = lctx.cluster().default_partitions();
    let ledges = trace::span("dataflow.distribute", unit, || {
        distribute_edges(&lctx, g, lparts)
    })?;
    laps.lap();
    let line = trace::span("core.line_epoch", unit, || {
        Line::new(LineConfig {
            dim: LINE_DIM,
            epochs: 1,
            use_psfunc: true,
            ..Default::default()
        })
        .run(&lctx, &ledges, n)
    })?;
    laps.lap();
    if unit == 0 {
        net_counters(run, &lctx);
    }
    Ok(PsOut {
        ranks: pr.ranks,
        pr_sim_s: pr.stats.elapsed.as_secs_f64(),
        cn: cn.counts,
        line_loss: line.loss_per_epoch.first().copied().unwrap_or(f64::NAN),
    })
}

/// The GraphX half; `laps` gets one time per step.
fn graphx_half(
    run: &mut Run,
    g: &EdgeList,
    rule: ScaleRule,
    unit: u64,
    laps: &mut Laps,
) -> Result<GxOut, CoreError> {
    let cluster = graphx_cluster(rule, PaperAlloc::GRAPHX_DS1);
    let gx = trace::span("graphx.build", unit, || {
        GxGraph::from_edgelist(&cluster, g, SIM_EXECUTORS * 6)
    })?;
    laps.lap();
    let ranks = trace::span("graphx.pagerank", unit, || {
        gx_pagerank(&gx, DAMPING, ITERATIONS)
    })?;
    laps.lap();
    let cn = trace::span("graphx.cn", unit, || gx_common_neighbor(&gx))?;
    laps.lap();
    if unit == 0 {
        spark_counters(run, &cluster);
        run.set("graphx.sim_s", cluster.now().as_secs_f64());
    }
    Ok(GxOut { ranks, cn })
}

/// References, computed on first use (never inside a timed half).
struct Reference {
    ranks: Vec<f64>,
    cn: HashMap<(u64, u64), u64>,
}

impl Reference {
    fn new(g: &EdgeList) -> Reference {
        Reference {
            ranks: metrics::pagerank_exact(g, DAMPING, ITERATIONS as usize),
            cn: HashMap::new(),
        }
    }

    /// Every count must equal the exact one for its pair.
    fn check_cn(&mut self, run: &mut Run, who: &str, g: &EdgeList, got: &[(u64, u64, u64)]) {
        let missing: Vec<(u64, u64)> = got
            .iter()
            .map(|&(a, b, _)| (a, b))
            .filter(|p| !self.cn.contains_key(p))
            .collect();
        if !missing.is_empty() {
            let counts = metrics::common_neighbors_exact(g, &missing);
            self.cn.extend(missing.into_iter().zip(counts));
        }
        let bad = got
            .iter()
            .filter(|(a, b, c)| self.cn.get(&(*a, *b)) != Some(c))
            .count();
        run.check(!got.is_empty() && bad == 0, || {
            format!("{who} CN: {bad} of {} counts wrong", got.len())
        });
    }
}

/// PSGraph's delta PageRank after `k` supersteps holds
/// `ranks/n = (1-d)·Σ_{j≤k} (d·Pᵀ)^j (1/n)`, while `k` power iterations
/// from the uniform vector give `(1-d)·Σ_{j<k} (d·Pᵀ)^j (1/n) +
/// (d·Pᵀ)^k (1/n)`. With no dangling vertex the difference
/// `d·(d·Pᵀ)^k (1/n)` is non-negative per vertex with L1 mass exactly
/// `d^(k+1)`, which pins every rank far tighter than a per-vertex
/// tolerance could.
fn check_psgraph_ranks(run: &mut Run, exact: &[f64], ranks: &[f64]) {
    let n = exact.len() as f64;
    let mut gap = 0.0;
    let mut below = 0usize;
    for (e, r) in exact.iter().zip(ranks) {
        let d = e - r / n;
        if d < -1e-12 {
            below += 1;
        }
        gap += d;
    }
    let want = DAMPING.powi(ITERATIONS as i32 + 1);
    run.check(
        ranks.len() == exact.len() && below == 0 && (gap - want).abs() < 1e-9,
        || format!("PSGraph PageRank: mass gap {gap:e} vs {want:e}, {below} vertices above exact"),
    );
}

/// GraphX's static PageRank from rank 1.0 is `n ×` the power iteration.
fn check_graphx_ranks(run: &mut Run, exact: &[f64], ranks: &[(u64, f64)]) {
    let n = exact.len() as f64;
    let worst = ranks
        .iter()
        .map(|&(v, r)| ((r / n - exact[v as usize]) / exact[v as usize]).abs())
        .fold(0.0, f64::max);
    run.check(ranks.len() == exact.len() && worst < 1e-9, || {
        format!("GraphX PageRank: worst relative error {worst:e}")
    });
}

/// The batch phase between set-up and report.
pub struct Batch {
    g: EdgeList,
    scale: f64,
    rule: ScaleRule,
    setups: Vec<f64>,
    reference: Option<Reference>,
    units: Vec<(bool, f64)>,
    /// Per-step host times of each finished untraced half.
    ps_steps: Vec<Vec<f64>>,
    gx_steps: Vec<Vec<f64>>,
    /// PSGraph PageRank's simulated time, per unit.
    sims: Vec<f64>,
}

impl Batch {
    /// Set up (graph generation) several times; keep the last graph.
    pub fn new(run: &mut Run, cfg: &BatchCfg) -> Batch {
        trace::set_enabled(run.trace);
        let mark = trace::mark("graph.gen");
        let mut setups = Vec::with_capacity(SETUPS);
        let mut g = None;
        for _ in 0..SETUPS {
            let t = Instant::now();
            g = Some(trace::span("graph.gen", 0, || {
                generate(cfg.scale, run.seed)
            }));
            setups.push(t.elapsed().as_secs_f64());
        }
        trace::set_enabled(false);
        run.add(
            "graph.gen_s",
            stats::median(&trace::since("graph.gen", mark)),
        );
        Batch {
            g: g.expect("at least one set-up"),
            scale: cfg.scale,
            rule: ScaleRule::new(Dataset::Ds1, cfg.scale),
            setups,
            reference: None,
            units: Vec::new(),
            ps_steps: Vec::new(),
            gx_steps: Vec::new(),
            sims: Vec::new(),
        }
    }
}

impl Phase for Batch {
    /// One more set-up sample (the graph again, so the samples spread
    /// over the run as the units do), then one PSGraph half and one
    /// GraphX half, alternating which goes first, then the checks.
    fn unit(&mut self, run: &mut Run, i: usize) {
        let t = Instant::now();
        let g = generate(self.scale, run.seed);
        self.setups.push(t.elapsed().as_secs_f64());
        run.check(g == self.g, || {
            "batch: a set-up generated another graph".into()
        });
        let traced = run.unit_traced(i);
        trace::set_enabled(traced);
        let mut ps_out = None;
        let mut gx_out = None;
        let mut laps = [Laps::start(), Laps::start()];
        for half in [i % 2, 1 - i % 2] {
            let mut l = Laps::start();
            if half == 0 {
                ps_out = Some(psgraph_half(run, &self.g, self.rule, i as u64, &mut l));
            } else {
                gx_out = Some(graphx_half(run, &self.g, self.rule, i as u64, &mut l));
            }
            laps[half] = l;
        }
        let [ps_laps, gx_laps] = laps;
        let wall = ps_laps.total() + gx_laps.total();
        trace::set_enabled(false);
        run.attempted += 5;

        // A half's host time counts only when the half finished: an OOM
        // or error that ends it early must not read as a speed-up.
        let g = &self.g;
        let (ps, gx) = (ps_out.expect("ran"), gx_out.expect("ran"));
        let r = self.reference.get_or_insert_with(|| Reference::new(g));
        let ps_ok = match ps {
            Ok(ps) => {
                if !traced {
                    self.ps_steps.push(ps_laps.times);
                }
                run.check(ps.cn.len() == g.num_edges(), || {
                    format!(
                        "PSGraph CN answered {} pairs for {} edges",
                        ps.cn.len(),
                        g.num_edges()
                    )
                });
                check_psgraph_ranks(run, &r.ranks, &ps.ranks);
                r.check_cn(run, "psgraph", g, &ps.cn);
                let loss = ps.line_loss;
                run.check(loss.is_finite() && loss < std::f64::consts::LN_2, || {
                    format!("LINE epoch loss {loss} is not below the untrained ln 2")
                });
                self.sims.push(ps.pr_sim_s);
                true
            }
            Err(e) => {
                // An OOM or error fails every job of its half.
                run.failed += 3;
                run.notes.push(format!("batch: PSGraph half failed: {e}"));
                false
            }
        };
        let gx_ok = match gx {
            Ok(gx) => {
                if !traced {
                    self.gx_steps.push(gx_laps.times);
                }
                check_graphx_ranks(run, &r.ranks, &gx.ranks);
                r.check_cn(run, "graphx", g, &gx.cn);
                true
            }
            Err(e) => {
                run.failed += 2;
                run.notes.push(format!("batch: GraphX half failed: {e}"));
                false
            }
        };
        if ps_ok && gx_ok {
            self.units.push((traced, wall));
        }
    }

    fn finish(self: Box<Self>, run: &mut Run) {
        // With no finished half there is no time to report; a 0 would
        // read as the best possible result.
        run.check(
            !self.ps_steps.is_empty() && !self.gx_steps.is_empty(),
            || "batch: no untraced PSGraph and GraphX half finished".into(),
        );
        let sims = &self.sims;
        run.set("psgraph_wall_s", stats::fastest_profile(&self.ps_steps));
        run.set("graphx_wall_s", stats::fastest_profile(&self.gx_steps));
        let totals =
            |units: &[Vec<f64>]| -> Vec<f64> { units.iter().map(|u| u.iter().sum()).collect() };
        run.notes.push(format!(
            "batch PSGraph half: {}",
            stats::describe(&totals(&self.ps_steps), "s")
        ));
        run.notes.push(format!(
            "batch GraphX half: {}",
            stats::describe(&totals(&self.gx_steps), "s")
        ));
        run.set(
            "core.sim_s_min",
            sims.iter().copied().fold(f64::INFINITY, f64::min),
        );
        run.set("core.sim_s_max", stats::max(sims));
        run.set(
            "core.sim_repeat_equal",
            (sims.len() >= 2 && sims.iter().all(|&s| s == sims[0])) as u8 as f64,
        );
        for (name, metric) in [
            ("dataflow.distribute", "dataflow.distribute_s"),
            ("core.pagerank", "core.pagerank_s"),
            ("core.cn", "core.cn_s"),
            ("core.line_epoch", "core.line_epoch_s"),
            ("graphx.build", "graphx.build_s"),
            ("graphx.pagerank", "graphx.pagerank_s"),
            ("graphx.cn", "graphx.cn_s"),
        ] {
            run.set(metric, stats::median(&trace::since(name, 0)));
        }
        run.notes.push(format!(
            "batch: {} vertices, {} edges, {} units",
            self.g.num_vertices(),
            self.g.num_edges(),
            self.units.len()
        ));
        run.phase_done("batch", &self.setups, &self.units);
    }
}
