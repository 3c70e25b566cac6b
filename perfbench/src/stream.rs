//! Stream phase: drift-RMAT add/remove micro-batches through a sharded
//! ingestor, incremental PageRank and connected components after every
//! batch, and a delta refresh into a live tier every few batches.
//!
//! One timed unit is one pass over a fixed, seeded event sequence,
//! started from a fresh base state (the pass's setup: base graph,
//! bootstrap, full PageRank and components, snapshot, tier load). The
//! unit's host time covers offer → drain → maintain → refresh only;
//! input generation, the answer checks and the full-reload comparison sit
//! outside it.
//!
//! Checks per pass: a few uniform point queries after every batch must
//! match the state of the last published swap; at the end incremental
//! PageRank must be within 1e-6 L∞ of a from-scratch recompute and the
//! component labels must equal `metrics::connected_components` of the
//! live edges.

use std::time::Instant;

use psgraph_core::algos::{IncrementalCc, IncrementalPageRank, PrState};
use psgraph_dfs::Dfs;
use psgraph_graph::gen::{self, RmatParams};
use psgraph_graph::{metrics, Dataset, EdgeList};
use psgraph_net::rpc::NodeId;
use psgraph_ps::{Ps, PsConfig, SnapshotWriter};
use psgraph_serve::frontend::Outcome;
use psgraph_serve::{GraphTruth, Interpreter, ObjectMap, Query, ServeCluster, ServeConfig};
use psgraph_sim::{NodeClock, SimTime, SplitMix64};
use psgraph_stream::{
    DriftRmat, EdgeEvent, IngestConfig, RefreshConfig, RefreshDriver, ShardedIngestor,
};

use crate::oracle::{self, Request};
use crate::stats::{self, Laps};
use crate::{trace, Phase, Run};

const DIR: &str = "/perfbench/stream";
const QUERIES_PER_BATCH: usize = 4;
/// Seed of the base graph's shape (the DS3 preset's).
const SHAPE_SEED: u64 = 0xD53;

#[derive(Debug, Clone, Copy)]
pub struct StreamCfg {
    /// `Dataset::Ds3` scale of the base graph.
    pub scale: f64,
    /// Events per pass.
    pub events: usize,
    /// Events per micro-batch (and every ingest mailbox's capacity).
    pub batch: usize,
}

impl StreamCfg {
    pub const BIG: StreamCfg = StreamCfg {
        scale: 0.02,
        events: 8_192,
        batch: 256,
    };
    pub const SMALL: StreamCfg = StreamCfg {
        scale: 0.01,
        events: 4_096,
        batch: 256,
    };
}

fn objects() -> ObjectMap {
    ObjectMap {
        ranks: Some("stream.pr.ranks".into()),
        communities: Some("stream.cc.labels".into()),
        embeddings: None,
        adjacency: Some("stream.adj".into()),
    }
}

/// Everything one pass mutates.
struct State {
    ps: std::sync::Arc<Ps>,
    dfs: Dfs,
    client: NodeClock,
    ingest: ShardedIngestor,
    pr: IncrementalPageRank,
    pr_state: PrState,
    cc: IncrementalCc,
    cluster: ServeCluster,
    driver: RefreshDriver,
}

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The base graph: DS3's vertex and edge counts and the preset's fixed
/// shape, deduplicated. The seed drives the event stream.
fn base_graph(cfg: &StreamCfg) -> EdgeList {
    let spec = Dataset::Ds3.spec(cfg.scale);
    gen::rmat(spec.vertices, spec.edges, RmatParams::default(), SHAPE_SEED).dedup()
}

/// The pass's event sequence, drifting away from the base graph.
fn events(cfg: &StreamCfg, g: &EdgeList, seed: u64) -> Vec<EdgeEvent> {
    let drift = DriftRmat {
        num_vertices: g.num_vertices(),
        remove_fraction: 0.25,
        seed: seed ^ 0xD51F,
        ..DriftRmat::default()
    };
    let mut source = drift.start(g.edges());
    (0..cfg.events).map(|_| source.next_event()).collect()
}

/// A fresh base state, with the snapshot and tier-load times.
fn setup(cfg: &StreamCfg, g: &EdgeList, shards: usize) -> Res<(State, f64, f64)> {
    let n = g.num_vertices();
    let ps = Ps::new(PsConfig::default());
    let dfs = Dfs::in_memory();
    let client = NodeClock::new();
    let icfg = IngestConfig {
        prefix: "stream".into(),
        mailbox_cap: cfg.batch,
    };
    let ingest = ShardedIngestor::create(&ps, &icfg, n, shards).map_err(err)?;
    trace::span("stream.bootstrap", 0, || {
        ingest.bootstrap(&client, g.edges())
    })
    .map_err(err)?;
    let pr = IncrementalPageRank::default();
    let mut pr_state = pr.create_state(&ps, "stream.pr", n).map_err(err)?;
    trace::span("core.pr_init", 0, || {
        pr.init_full(&mut pr_state, &client, ingest.adjacency())
    })
    .map_err(err)?;
    let mut cc = IncrementalCc::create(&ps, "stream.cc", n).map_err(err)?;
    trace::span("core.cc_bootstrap", 0, || {
        cc.bootstrap(&client, ingest.adjacency())
    })
    .map_err(err)?;
    let t = Instant::now();
    let manifest = trace::span("ps.snapshot_write", 0, || {
        let mut w = SnapshotWriter::new(&dfs, DIR, &client);
        w.vector_f64(&pr_state.ranks)?;
        w.vector_u64(&cc.labels)?;
        w.neighbor_table(ingest.adjacency())?;
        w.finish()
    })
    .map_err(err)?;
    let snapshot_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let cluster = trace::span("serve.load", 0, || {
        ServeCluster::load(&dfs, DIR, &objects(), &ServeConfig::default(), &client)
    })
    .map_err(err)?;
    let load_s = t.elapsed().as_secs_f64();
    let driver = RefreshDriver::new(DIR, manifest, RefreshConfig::default());
    Ok((
        State {
            ps,
            dfs,
            client,
            ingest,
            pr,
            pr_state,
            cc,
            cluster,
            driver,
        },
        snapshot_s,
        load_s,
    ))
}

/// What the tier must serve until the next swap: the PS state as of the
/// last publish.
fn capture(s: &State) -> Res<GraphTruth> {
    let n = s.ingest.num_vertices();
    let ids: Vec<u64> = (0..n).collect();
    let mut truth = GraphTruth::new(n);
    truth.ranks = Some(s.pr.ranks(&s.pr_state, &s.client).map_err(err)?);
    truth.communities = Some(s.cc.labels().to_vec());
    truth.adjacency = Some(
        s.ingest
            .adjacency()
            .pull(&s.client, &ids)
            .map_err(err)?
            .into_iter()
            .map(|l| l.to_vec())
            .collect(),
    );
    Ok(truth)
}

/// One pass's measurements.
struct Pass {
    setup_s: f64,
    snapshot_s: f64,
    load_s: f64,
    /// Host time of each batch's offer → drain → maintain → refresh.
    batch_s: Vec<f64>,
    /// Event-time lag from each effective batch's watermark to the swap
    /// that published it.
    lags_ms: Vec<f64>,
    full_reload_ms: f64,
}

/// Run the publish step; returns the swap's time when one happened.
fn refresh(s: &mut State, batch: u64) -> Res<Option<SimTime>> {
    let at = s.ingest.watermark();
    let rec = trace::span("stream.refresh", batch, || {
        s.driver.refresh(
            &s.dfs,
            &s.client,
            &mut s.cluster,
            &s.pr_state.ranks,
            &s.cc.labels,
            s.ingest.adjacency(),
            at,
        )
    })
    .map_err(err)?;
    Ok(rec.map(|r| r.at))
}

fn pass(
    run: &mut Run,
    cfg: &StreamCfg,
    g: &EdgeList,
    events: &[EdgeEvent],
    traced: bool,
    unit: usize,
) -> Res<Pass> {
    let t = Instant::now();
    let (mut s, snapshot_s, load_s) = setup(cfg, g, run.nproc)?;
    let setup_s = t.elapsed().as_secs_f64();
    let n = g.num_vertices();
    let mut truth = capture(&s)?;
    let mut rng = SplitMix64::new(run.seed ^ 0x9E4D);
    let mut pending: Vec<SimTime> = Vec::new();
    let mut lags_ms: Vec<f64> = Vec::new();
    let mut batch_s = Vec::new();
    let mut qidx = 0usize;

    trace::set_enabled(traced);
    let batches: Vec<&[EdgeEvent]> = events.chunks(cfg.batch).collect();
    let last = batches.len() - 1;
    for (b, chunk) in batches.into_iter().enumerate() {
        let bid = b as u64;
        let mut laps = Laps::start();
        let rejected = trace::span("stream.offer", bid, || {
            chunk
                .iter()
                .filter(|ev| !s.ingest.offer(NodeId::Driver, **ev))
                .count()
        });
        let fx = trace::span("stream.drain", bid, || s.ingest.drain_all()).map_err(err)?;
        trace::span("core.pr_on_batch", bid, || {
            s.pr.on_batch(&mut s.pr_state, &s.client, &fx.effects)
        })
        .map_err(err)?;
        trace::span("core.pr_propagate", bid, || {
            s.pr.propagate(&mut s.pr_state, &s.client, s.ingest.adjacency())
        })
        .map_err(err)?;
        trace::span("core.cc_on_batch", bid, || {
            s.cc.on_batch(&s.client, &fx.applied, s.ingest.adjacency())
        })
        .map_err(err)?;
        let effective = !fx.effects.is_empty();
        if effective {
            pending.push(fx.watermark);
        }
        // The last batch always publishes, so the tier ends equal to
        // the PS.
        let due = s.driver.tick(effective) || (b == last && s.driver.batches_since_swap() > 0);
        let swapped = if due { refresh(&mut s, bid)? } else { None };
        laps.lap();
        batch_s.extend(laps.times);
        run.attempted += chunk.len() as u64;
        run.failed += rejected as u64;

        if let Some(at) = swapped {
            trace::set_enabled(false);
            lags_ms.extend(
                pending
                    .drain(..)
                    .map(|w| at.saturating_sub(w).as_secs_f64() * 1e3),
            );
            truth = capture(&s)?;
            trace::set_enabled(traced);
        }
        // A trickle of uniform reads against the last published state.
        let interp = Interpreter::new(&truth, 1);
        for _ in 0..QUERIES_PER_BATCH {
            let v = rng.next_below(n);
            let q = match rng.next_below(3) {
                0 => Query::Rank(v),
                1 => Query::Community(v),
                _ => Query::Neighbors(v),
            };
            let now = s.client.now();
            let outs = trace::span("serve.execute_now", qidx as u64, || {
                s.cluster.frontend_mut().execute_now(qidx, now, q)
            });
            run.attempted += 1;
            for (_, o) in outs {
                match o {
                    Outcome::Answered { value, .. } => {
                        let want = oracle::expected(&truth, &interp, &Request::Q(q));
                        run.check(want.is_some_and(|w| oracle::same(&w, &value)), || {
                            format!("stream query {q:?} after batch {b}: got {value:?}")
                        });
                    }
                    _ => run.failed += 1,
                }
            }
            qidx += 1;
        }
    }
    trace::set_enabled(false);

    // Incremental vs from scratch.
    let mut full = s.pr.create_state(&s.ps, "stream.fullck", n).map_err(err)?;
    s.pr.init_full(&mut full, &s.client, s.ingest.adjacency())
        .map_err(err)?;
    let inc = s.pr.ranks(&s.pr_state, &s.client).map_err(err)?;
    let fresh = s.pr.ranks(&full, &s.client).map_err(err)?;
    let linf = inc
        .iter()
        .zip(&fresh)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    run.check(linf < 1e-6, || {
        format!("incremental PageRank L∞ {linf:e} vs recompute")
    });
    let live: Vec<(u64, u64)> = truth
        .adjacency
        .as_ref()
        .expect("captured")
        .iter()
        .enumerate()
        .flat_map(|(src, ns)| ns.iter().map(move |&d| (src as u64, d)))
        .collect();
    let want = metrics::connected_components(&EdgeList::new(n, live));
    run.check(s.cc.labels() == want.as_slice(), || {
        "component labels differ".into()
    });

    // Delta refresh vs a full re-export and cold load of the same state.
    let t = Instant::now();
    drop(full_reload(&s)?);
    let full_reload_ms = t.elapsed().as_secs_f64() * 1e3;

    if unit == 0 {
        pass_counters(run, &s);
    }
    Ok(Pass {
        setup_s,
        snapshot_s,
        load_s,
        batch_s,
        lags_ms,
        full_reload_ms,
    })
}

/// Export every object and cold-load a tier from it.
fn full_reload(s: &State) -> Res<ServeCluster> {
    let dir = "/perfbench/stream-full";
    let mut w = SnapshotWriter::new(&s.dfs, dir, &s.client);
    w.vector_f64(&s.pr_state.ranks).map_err(err)?;
    w.vector_u64(&s.cc.labels).map_err(err)?;
    w.neighbor_table(s.ingest.adjacency()).map_err(err)?;
    w.finish().map_err(err)?;
    ServeCluster::load(&s.dfs, dir, &objects(), &ServeConfig::default(), &s.client).map_err(err)
}

fn pass_counters(run: &mut Run, s: &State) {
    let st = s.ingest.stats();
    let offered = (st.accepted + st.rejected) as f64;
    let applied = (st.applied_adds + st.applied_removes) as f64;
    run.set("stream.offered", offered);
    run.set("stream.applied", applied);
    run.set("stream.skipped_dup_adds", st.skipped_dup_adds as f64);
    run.set(
        "stream.skipped_missing_removes",
        st.skipped_missing_removes as f64,
    );
    run.set("stream.apply_ratio", applied / offered.max(1.0));
    let swaps = s.driver.swaps();
    run.set("stream.swaps", swaps.len() as f64);
    run.set(
        "stream.dirty_partitions",
        swaps.iter().map(|r| r.dirty_partitions).sum::<usize>() as f64,
    );
    run.add(
        "serve.keys_invalidated",
        swaps
            .iter()
            .map(|r| r.stats.keys_invalidated)
            .sum::<usize>() as f64,
    );
    run.add(
        "ps.resident_mb",
        s.ps.resident_bytes() as f64 / (1 << 20) as f64,
    );
    run.add(
        "dfs.stored_mb",
        s.dfs.total_bytes() as f64 / (1 << 20) as f64,
    );
    run.add("dfs.corrupt_fallbacks", s.dfs.corrupt_fallbacks() as f64);
    run.add(
        "net.dfs_bytes",
        s.dfs.network().stats().total_bytes() as f64,
    );
    run.add("net.ps_rpcs", s.ps.network().stats().rpcs() as f64);
    run.add("net.ps_bytes", s.ps.network().stats().total_bytes() as f64);
    let net = s.cluster.network().stats();
    run.add("net.serve_rpcs", net.rpcs() as f64);
    run.add("net.serve_bytes", net.total_bytes() as f64);
}

/// The stream phase: every unit sets up its own base state.
pub struct Stream {
    cfg: StreamCfg,
    events: Vec<EdgeEvent>,
    units: Vec<(bool, f64)>,
    setups: Vec<f64>,
    gens: Vec<f64>,
    snapshots: Vec<f64>,
    loads: Vec<f64>,
    /// Per-batch host times of each completed untraced pass.
    batch_s: Vec<Vec<f64>>,
    reloads: Vec<f64>,
    first_lags: Option<Vec<f64>>,
    repeat_equal: bool,
    base: (u64, usize),
}

impl Stream {
    /// Generate the event sequence every pass replays.
    pub fn new(run: &mut Run, cfg: &StreamCfg) -> Stream {
        let g = base_graph(cfg);
        Stream {
            cfg: *cfg,
            events: events(cfg, &g, run.seed),
            units: Vec::new(),
            setups: Vec::new(),
            gens: Vec::new(),
            snapshots: Vec::new(),
            loads: Vec::new(),
            batch_s: Vec::new(),
            reloads: Vec::new(),
            first_lags: None,
            repeat_equal: true,
            base: (g.num_vertices(), g.num_edges()),
        }
    }
}

impl Phase for Stream {
    /// Set up a fresh base state, then one pass over the events.
    fn unit(&mut self, run: &mut Run, i: usize) {
        let traced = run.unit_traced(i);
        // Set-up spans are recorded in every pass of a traced run.
        trace::set_enabled(run.trace);
        let t = Instant::now();
        let g = trace::span("graph.gen", 0, || base_graph(&self.cfg));
        let gen_s = t.elapsed().as_secs_f64();
        let p = match pass(run, &self.cfg, &g, &self.events, traced, i) {
            Ok(p) => p,
            Err(e) => {
                // A pass that errors leaves its checks undone (and an
                // `Invariant` error means the maintained state is wrong),
                // so it counts as a wrong answer, not a failed operation.
                trace::set_enabled(false);
                run.check(false, || format!("stream pass {i} failed: {e}"));
                return;
            }
        };
        self.setups.push(gen_s + p.setup_s);
        self.gens.push(gen_s);
        self.snapshots.push(p.snapshot_s);
        self.loads.push(p.load_s);
        self.units.push((traced, p.batch_s.iter().sum()));
        if !traced {
            self.batch_s.push(p.batch_s);
        }
        self.reloads.push(p.full_reload_ms);
        match &self.first_lags {
            None => self.first_lags = Some(p.lags_ms),
            Some(f) => self.repeat_equal &= *f == p.lags_ms,
        }
    }

    fn finish(self: Box<Self>, run: &mut Run) {
        // Rates and lags come only from completed passes; with none there
        // is nothing to report, and a 0 would read as the best result.
        run.check(
            self.first_lags.is_some() && !self.batch_s.is_empty(),
            || "stream: no untraced pass completed".into(),
        );
        let lags = self.first_lags.clone().unwrap_or_default();
        let events = self.events.len() as f64;
        run.set(
            "stream_events_per_wall_s",
            events / stats::fastest_profile(&self.batch_s),
        );
        run.set("stream_freshness_p99_ms", stats::percentile(&lags, 0.99));
        run.set("stream.sim_repeat_equal", self.repeat_equal as u8 as f64);
        run.set("stream.full_reload_ms", stats::median(&self.reloads));
        run.add("graph.gen_s", stats::median(&self.gens));
        run.add("ps.snapshot_write_s", stats::median(&self.snapshots));
        run.add("serve.load_s", stats::median(&self.loads));
        let ms = |name: &str| -> Vec<f64> {
            trace::since(name, 0).into_iter().map(|s| s * 1e3).collect()
        };
        let drain = ms("stream.drain");
        run.set("stream.drain_ms_p50", stats::percentile(&drain, 0.5));
        run.set("stream.drain_ms_p99", stats::percentile(&drain, 0.99));
        let refresh = ms("stream.refresh");
        run.set("stream.refresh_ms_median", stats::median(&refresh));
        run.set("stream.refresh_ms_max", stats::max(&refresh));
        run.set("stream.refresh_n", refresh.len() as f64);
        let traced_units = self.units.iter().filter(|u| u.0).count().max(1) as f64;
        for (span, p50, p99, total) in [
            (
                "core.pr_on_batch",
                "core.pr_on_batch_ms_p50",
                "core.pr_on_batch_ms_p99",
                "core.pr_on_batch_ms_total",
            ),
            (
                "core.pr_propagate",
                "core.pr_propagate_ms_p50",
                "core.pr_propagate_ms_p99",
                "core.pr_propagate_ms_total",
            ),
            (
                "core.cc_on_batch",
                "core.cc_on_batch_ms_p50",
                "core.cc_on_batch_ms_p99",
                "core.cc_on_batch_ms_total",
            ),
        ] {
            let xs = ms(span);
            run.set(p50, stats::percentile(&xs, 0.5));
            run.set(p99, stats::percentile(&xs, 0.99));
            // Per pass: the traced passes' sum over their count.
            run.set(total, xs.iter().sum::<f64>() / traced_units);
        }
        run.notes.push(format!(
            "stream: {} vertices, {} base edges, {} events per pass in batches of {}, freshness lag (event time) {}",
            self.base.0,
            self.base.1,
            self.events.len(),
            self.cfg.batch,
            stats::describe(&lags, "ms")
        ));
        let rates: Vec<f64> = self
            .batch_s
            .iter()
            .map(|b| events / b.iter().sum::<f64>())
            .collect();
        run.notes.push(format!(
            "stream events/host s, per pass: {}",
            stats::describe(&rates, "")
        ));
        run.notes.push(format!(
            "stream full reload: {}",
            stats::describe(&self.reloads, "ms")
        ));
        run.phase_done("stream", &self.setups, &self.units);
    }
}
