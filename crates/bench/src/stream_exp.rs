//! `repro -- stream`: the streaming-ingestion reproduction — closing the
//! train → serve → refresh loop end to end.
//!
//! Pipeline: bootstrap DS3′ into the mutable ingest state (neighbor
//! table + degree vector), converge incremental PageRank and
//! connected components, snapshot everything, and load a serving tier.
//! Then a drift-parameterized RMAT source emits timestamped edge
//! add/remove events which are applied in micro-batches:
//!
//! 1. Each batch updates the neighbor table, re-pushes PageRank residuals
//!    and unions / recomputes components. With `--shards N` the batch is
//!    routed across N ingestor shards keyed by edge owner (source-range
//!    tiling) and drained as one logical batch whose watermark is the
//!    min-merge across shards ([`ShardedIngestor`]).
//! 2. Every `swap_every_batches` *effective* batches a [`RefreshDriver`]
//!    exports a [`psgraph_ps::snapshot::DeltaWriter`] delta of the
//!    dirtied partitions and hot-swaps it into the live replicas.
//! 3. Queries are interleaved throughout and checked bit-for-bit against
//!    the *swap-time* PS state (the tier serves the last published
//!    snapshot, not the live PS) — `wrong` must be 0.
//! 4. At the end the incremental PageRank is compared against a
//!    from-scratch recompute (L∞ must stay under 1e-6), the component
//!    labels against [`metrics::connected_components`] of the live
//!    edges, and the whole final state (adjacency + degrees + ranks +
//!    labels) is folded into `state_digest` — the digest must be
//!    bit-identical across every shard count.
//!
//! The freshness metric: a micro-batch's lag is the event-time gap
//! between its watermark (latest event it applied) and the watermark of
//! the swap that first published it. With a swap every `K` batches the
//! lag is bounded by the event-time span of `K` batches. All freshness
//! numbers are event-time, so they are identical across shard counts and
//! pool sizes; only the wall-clock rows (events/s, swap cost) vary.

use std::time::Instant;

use psgraph_core::algos::{IncrementalCc, IncrementalPageRank, PrState};
use psgraph_core::CoreError;
use psgraph_dfs::Dfs;
use psgraph_graph::{metrics, Dataset, EdgeList};
use psgraph_net::rpc::NodeId;
use psgraph_ps::{NeighborTableHandle, Ps, PsConfig, SnapshotWriter, VectorHandle};
use psgraph_serve::frontend::Outcome;
use psgraph_serve::{ObjectMap, Query, ServeCluster, ServeConfig, Value};
use psgraph_sim::{NodeClock, SimTime, SplitMix64};
use psgraph_stream::{
    BatchEffect, DriftRmat, EdgeEvent, IngestConfig, IngestStats, Ingestor, RefreshConfig,
    RefreshDriver, ShardedIngestor,
};

use crate::report::{Cell, Row, Table};

/// Events per micro-batch; every ingest mailbox is sized to match, so
/// within a batch no offer is rejected even if all events route to one
/// shard (backpressure is unit-tested in `psgraph-stream`).
const BATCH: usize = 512;

/// Verified queries interleaved after every micro-batch.
const QUERIES_PER_BATCH: usize = 4;

/// Measured streaming results.
#[derive(Debug, Clone)]
pub struct StreamRepro {
    pub num_vertices: u64,
    pub base_edges: usize,
    /// Ingestor shards the stream was routed across (1 = the plain
    /// single-ingestor reference path).
    pub shards: usize,
    /// Events emitted by the drift source.
    pub events: usize,
    pub batches: usize,
    pub applied_adds: u64,
    pub applied_removes: u64,
    /// At-least-once duplicates (add of a live edge).
    pub skipped_dup_adds: u64,
    /// Removes of absent edges.
    pub skipped_missing_removes: u64,
    pub live_edges: usize,
    /// Delta hot-swaps into the serving tier.
    pub swaps: usize,
    /// Dirty partitions exported across all swaps.
    pub dirty_partitions: usize,
    pub swap_every_batches: usize,
    /// Worst observed effective-batches-until-published; must stay
    /// within the configured swap cadence.
    pub max_batches_to_publish: usize,
    /// Event-time lag from a batch's watermark to its publishing swap.
    pub freshness_p50: SimTime,
    pub freshness_p99: SimTime,
    pub freshness_max: SimTime,
    /// 2× the expected event-time span of one swap interval.
    pub freshness_bound: SimTime,
    pub queries: usize,
    pub answered: usize,
    /// Answers that did not match the swap-time PS state. Must be 0.
    pub wrong: usize,
    /// L∞ between incremental PageRank and a from-scratch recompute.
    pub pr_linf: f64,
    /// Incremental component labels equal the reference labels.
    pub cc_ok: bool,
    pub components: usize,
    /// Event-time high-water mark at the end of the run (min-merged
    /// across shards when sharded).
    pub final_watermark: SimTime,
    /// FNV-1a fold of the final adjacency lists, degree bits, rank bits
    /// and component labels — bit-identical across shard counts.
    pub state_digest: u64,
    /// Wall-clock ingest + maintain + swap throughput.
    pub events_per_sec: f64,
    /// Wall-clock cost of each delta swap, milliseconds.
    pub swap_walls_ms: Vec<f64>,
    /// Wall-clock cost of a full refresh (export every object + cold
    /// load), for comparison.
    pub full_reload_ms: f64,
}

impl StreamRepro {
    pub fn mean_swap_ms(&self) -> f64 {
        if self.swap_walls_ms.is_empty() {
            0.0
        } else {
            self.swap_walls_ms.iter().sum::<f64>() / self.swap_walls_ms.len() as f64
        }
    }

    pub fn skipped_total(&self) -> u64 {
        self.skipped_dup_adds + self.skipped_missing_removes
    }
}

fn se(e: impl std::fmt::Display) -> CoreError {
    CoreError::Invalid(format!("stream: {e}"))
}

/// One or many writers behind a common surface: `Single` is the
/// reference path (one mailbox, one watermark, the driver's clock);
/// `Sharded` routes by edge owner and drains all shards as one logical
/// batch on per-shard clocks.
enum Ingest {
    Single(Ingestor),
    Sharded(ShardedIngestor),
}

impl Ingest {
    fn create(
        ps: &std::sync::Arc<Ps>,
        cfg: &IngestConfig,
        n: u64,
        shards: usize,
    ) -> Result<Ingest, CoreError> {
        Ok(if shards <= 1 {
            Ingest::Single(Ingestor::create(ps, cfg, n).map_err(se)?)
        } else {
            Ingest::Sharded(ShardedIngestor::create(ps, cfg, n, shards).map_err(se)?)
        })
    }

    fn bootstrap(&self, client: &NodeClock, edges: &[(u64, u64)]) -> Result<(), CoreError> {
        match self {
            Ingest::Single(i) => i.bootstrap(client, edges).map_err(se),
            Ingest::Sharded(s) => s.bootstrap(client, edges).map_err(se),
        }
    }

    fn adjacency(&self) -> &NeighborTableHandle {
        match self {
            Ingest::Single(i) => &i.adjacency,
            Ingest::Sharded(s) => s.adjacency(),
        }
    }

    fn degrees(&self) -> &VectorHandle<f64> {
        match self {
            Ingest::Single(i) => &i.degrees,
            Ingest::Sharded(s) => s.degrees(),
        }
    }

    fn offer(&mut self, from: NodeId, ev: EdgeEvent) -> bool {
        match self {
            Ingest::Single(i) => i.offer(from, ev),
            Ingest::Sharded(s) => s.offer(from, ev),
        }
    }

    fn drain(&mut self, client: &NodeClock) -> Result<BatchEffect, CoreError> {
        match self {
            Ingest::Single(i) => i.apply_pending(client).map_err(se),
            Ingest::Sharded(s) => s.drain_all().map_err(se),
        }
    }

    fn watermark(&self) -> SimTime {
        match self {
            Ingest::Single(i) => i.watermark(),
            Ingest::Sharded(s) => s.watermark(),
        }
    }

    fn stats(&self) -> IngestStats {
        match self {
            Ingest::Single(i) => i.stats(),
            Ingest::Sharded(s) => s.stats(),
        }
    }
}

/// The PS state at the instant of the last publish — what the serving
/// tier must answer with until the next swap.
struct Mirror {
    ranks: Vec<f64>,
    labels: Vec<u64>,
    adj: Vec<Vec<u64>>,
}

fn capture(
    client: &NodeClock,
    adjacency: &NeighborTableHandle,
    pr: &IncrementalPageRank,
    st: &PrState,
    cc: &IncrementalCc,
    n: u64,
) -> Result<Mirror, CoreError> {
    let ranks = pr.ranks(st, client)?;
    let ids: Vec<u64> = (0..n).collect();
    let adj = adjacency.pull(client, &ids)?.into_iter().map(|l| l.to_vec()).collect();
    Ok(Mirror { ranks, labels: cc.labels().to_vec(), adj })
}

fn answer_matches(query: &Query, value: &Value, m: &Mirror) -> bool {
    match (query, value) {
        (Query::Rank(v), Value::Rank(r)) => r.to_bits() == m.ranks[*v as usize].to_bits(),
        (Query::Community(v), Value::Community(c)) => *c == m.labels[*v as usize],
        (Query::Neighbors(v), Value::Neighbors(ns)) => ns == &m.adj[*v as usize],
        _ => false,
    }
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Bit-exact fold of the final streamed state: adjacency lists (length +
/// neighbors per source, in source order), degree bits, rank bits,
/// component labels. Two runs produced identical PS state iff their
/// digests match.
fn state_digest(
    client: &NodeClock,
    adjacency: &NeighborTableHandle,
    degrees: &VectorHandle<f64>,
    ranks: &[f64],
    labels: &[u64],
    n: u64,
) -> Result<u64, CoreError> {
    let ids: Vec<u64> = (0..n).collect();
    let lists = adjacency.pull(client, &ids)?;
    let degs = degrees.pull(client, &ids)?;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for l in &lists {
        fnv1a(&mut h, &(l.len() as u64).to_le_bytes());
        for &d in l.iter() {
            fnv1a(&mut h, &d.to_le_bytes());
        }
    }
    for &d in &degs {
        fnv1a(&mut h, &d.to_bits().to_le_bytes());
    }
    for &r in ranks {
        fnv1a(&mut h, &r.to_bits().to_le_bytes());
    }
    for &l in labels {
        fnv1a(&mut h, &l.to_le_bytes());
    }
    Ok(h)
}

/// Export everything dirtied since the last swap, install it on the live
/// tier, settle the freshness accounting for the batches it published,
/// and re-capture the serving-truth mirror. Returns `None` when the
/// driver skipped the swap because nothing was dirty — the tier (and the
/// mirror) are unchanged and pending batches stay pending.
#[allow(clippy::too_many_arguments)]
fn publish(
    driver: &mut RefreshDriver,
    dfs: &Dfs,
    client: &NodeClock,
    cluster: &mut ServeCluster,
    ingest: &Ingest,
    pr: &IncrementalPageRank,
    pr_state: &PrState,
    cc: &IncrementalCc,
    n: u64,
    effective_batches: usize,
    pending: &mut Vec<(usize, SimTime)>,
    lags: &mut Vec<SimTime>,
    max_batches_to_publish: &mut usize,
    walls_ms: &mut Vec<f64>,
) -> Result<Option<Mirror>, CoreError> {
    let t0 = Instant::now();
    let rec = driver
        .refresh(
            dfs,
            client,
            cluster,
            &pr_state.ranks,
            &cc.labels,
            ingest.adjacency(),
            ingest.watermark(),
        )
        .map_err(se)?;
    let Some(rec) = rec else { return Ok(None) };
    walls_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    for (bi, wmark) in pending.drain(..) {
        lags.push(rec.at.saturating_sub(wmark));
        *max_batches_to_publish = (*max_batches_to_publish).max(effective_batches - bi);
    }
    capture(client, ingest.adjacency(), pr, pr_state, cc, n).map(Some)
}

fn percentile(sorted: &[SimTime], p: f64) -> SimTime {
    if sorted.is_empty() {
        return SimTime::ZERO;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Bootstrap DS3′ at `scale`, serve it, then stream `total_events` drift
/// events through micro-batches with periodic delta hot-swaps —
/// single-ingestor reference path (`shards = 1`).
pub fn run_stream(scale: f64, total_events: usize) -> Result<StreamRepro, CoreError> {
    run_stream_with(scale, total_events, 1)
}

/// [`run_stream`] with the event stream routed across `shards` ingestor
/// shards keyed by edge owner. `shards = 1` is the plain [`Ingestor`]
/// path; every shard count must end with the same `state_digest`.
pub fn run_stream_with(
    scale: f64,
    total_events: usize,
    shards: usize,
) -> Result<StreamRepro, CoreError> {
    let g = Dataset::Ds3.generate(scale).dedup();
    let n = g.num_vertices();
    let base_edges = g.edges().len();
    let ps = Ps::new(PsConfig::default());
    let dfs = Dfs::in_memory();
    let client = NodeClock::new();

    // Mutable ingest state + incremental maintainers, converged on the
    // base graph.
    let icfg = IngestConfig { prefix: "stream".into(), mailbox_cap: BATCH };
    let mut ingest = Ingest::create(&ps, &icfg, n, shards)?;
    ingest.bootstrap(&client, g.edges())?;
    let pr = IncrementalPageRank::default();
    let mut pr_state = pr.create_state(&ps, "stream.pr", n)?;
    pr.init_full(&mut pr_state, &client, ingest.adjacency())?;
    let mut cc = IncrementalCc::create(&ps, "stream.cc", n)?;
    cc.bootstrap(&client, ingest.adjacency())?;

    // Snapshot the trained state and bring up the serving tier over it.
    let mut w = SnapshotWriter::new(&dfs, "/stream/snapshot", &client);
    w.vector_f64(&pr_state.ranks)?;
    w.vector_u64(&cc.labels)?;
    w.neighbor_table(ingest.adjacency())?;
    let manifest = w.finish()?;
    let objects = ObjectMap {
        ranks: Some("stream.pr.ranks".into()),
        communities: Some("stream.cc.labels".into()),
        embeddings: None,
        adjacency: Some("stream.adj".into()),
    };
    let scfg = ServeConfig::default();
    let mut cluster =
        ServeCluster::load(&dfs, "/stream/snapshot", &objects, &scfg, &client).map_err(se)?;
    let rcfg = RefreshConfig::default();
    let swap_every = rcfg.swap_every_batches;
    let mut driver = RefreshDriver::new("/stream/snapshot", manifest, rcfg);
    let mut mirror = capture(&client, ingest.adjacency(), &pr, &pr_state, &cc, n)?;

    // The drifting event source, seeded with the base edge set so
    // removals can name live edges from the start.
    let drift = DriftRmat {
        num_vertices: n,
        remove_fraction: 0.25,
        seed: 0xD51F,
        ..DriftRmat::default()
    };
    let mut source = drift.start(g.edges());
    let expected_interval =
        SimTime::from_secs_f64(swap_every as f64 * BATCH as f64 / drift.events_per_sec);
    let freshness_bound = expected_interval.scale(2.0);

    let mut rng = SplitMix64::new(0xBEEF);
    let mut pending: Vec<(usize, SimTime)> = Vec::new();
    let mut lags: Vec<SimTime> = Vec::new();
    let mut max_batches_to_publish = 0usize;
    let mut swap_walls_ms: Vec<f64> = Vec::new();
    let mut queries = 0usize;
    let mut answered = 0usize;
    let mut wrong = 0usize;
    let mut batches = 0usize;
    let mut effective_batches = 0usize;
    let mut emitted = 0usize;

    let ingest_t0 = Instant::now();
    while emitted < total_events {
        let take = BATCH.min(total_events - emitted);
        for _ in 0..take {
            let ev = source.next_event();
            assert!(ingest.offer(NodeId::Driver, ev), "mailboxes sized to the batch");
        }
        emitted += take;

        let fx = ingest.drain(&client)?;
        let effective = !fx.effects.is_empty();
        pr.on_batch(&mut pr_state, &client, &fx.effects)?;
        pr.propagate(&mut pr_state, &client, ingest.adjacency())?;
        cc.on_batch(&client, &fx.applied, ingest.adjacency())?;
        batches += 1;
        if effective {
            pending.push((effective_batches, fx.watermark));
            effective_batches += 1;
        }

        if driver.tick(effective) {
            if let Some(m) = publish(
                &mut driver,
                &dfs,
                &client,
                &mut cluster,
                &ingest,
                &pr,
                &pr_state,
                &cc,
                n,
                effective_batches,
                &mut pending,
                &mut lags,
                &mut max_batches_to_publish,
                &mut swap_walls_ms,
            )? {
                mirror = m;
            }
        }

        // Interleaved queries, verified against the swap-time truth.
        for _ in 0..QUERIES_PER_BATCH {
            let v = rng.next_below(n);
            let q = match rng.next_below(3) {
                0 => Query::Rank(v),
                1 => Query::Community(v),
                _ => Query::Neighbors(v),
            };
            let at = client.now();
            for (_, outcome) in cluster.frontend_mut().execute_now(queries, at, q) {
                if let Outcome::Answered { value, .. } = outcome {
                    answered += 1;
                    if !answer_matches(&q, &value, &mirror) {
                        wrong += 1;
                    }
                }
            }
            queries += 1;
        }
    }
    // Publish the tail so the tier ends bit-identical to the PS.
    if driver.batches_since_swap() > 0 {
        if let Some(m) = publish(
            &mut driver,
            &dfs,
            &client,
            &mut cluster,
            &ingest,
            &pr,
            &pr_state,
            &cc,
            n,
            effective_batches,
            &mut pending,
            &mut lags,
            &mut max_batches_to_publish,
            &mut swap_walls_ms,
        )? {
            mirror = m;
        }
    }
    let ingest_wall = ingest_t0.elapsed();
    let events_per_sec = emitted as f64 / ingest_wall.as_secs_f64().max(1e-9);
    drop(mirror);

    // Incremental vs from-scratch: PageRank within 1e-6 L∞, components
    // equal to the reference labels of the live edge set.
    let mut full = pr.create_state(&ps, "stream.fullck", n)?;
    pr.init_full(&mut full, &client, ingest.adjacency())?;
    let inc = pr.ranks(&pr_state, &client)?;
    let fr = pr.ranks(&full, &client)?;
    let pr_linf =
        inc.iter().zip(&fr).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);

    let ids: Vec<u64> = (0..n).collect();
    let lists = ingest.adjacency().pull(&client, &ids)?;
    let mut live = Vec::new();
    for (s, l) in lists.iter().enumerate() {
        for &d in l.iter() {
            live.push((s as u64, d));
        }
    }
    let live_edges = live.len();
    let truth = metrics::connected_components(&EdgeList::new(n, live));
    let cc_ok = cc.labels() == truth.as_slice();
    let components = {
        let mut u = truth;
        u.sort_unstable();
        u.dedup();
        u.len()
    };
    let digest = state_digest(&client, ingest.adjacency(), ingest.degrees(), &inc, cc.labels(), n)?;

    // Swap cost vs a full refresh of the same final state. Both sides
    // include their export: the delta path exports dirty partitions and
    // installs a patch; the full path re-exports every object and cold
    // loads the tier.
    let reload_t0 = Instant::now();
    let mut fw = SnapshotWriter::new(&dfs, "/stream/full", &client);
    fw.vector_f64(&pr_state.ranks)?;
    fw.vector_u64(&cc.labels)?;
    fw.neighbor_table(ingest.adjacency())?;
    fw.finish()?;
    let reload = ServeCluster::load(&dfs, "/stream/full", &objects, &scfg, &client).map_err(se)?;
    let full_reload_ms = reload_t0.elapsed().as_secs_f64() * 1e3;
    drop(reload);

    lags.sort_unstable();
    let stats = ingest.stats();
    Ok(StreamRepro {
        num_vertices: n,
        base_edges,
        shards: shards.max(1),
        events: emitted,
        batches,
        applied_adds: stats.applied_adds,
        applied_removes: stats.applied_removes,
        skipped_dup_adds: stats.skipped_dup_adds,
        skipped_missing_removes: stats.skipped_missing_removes,
        live_edges,
        swaps: driver.swaps().len(),
        dirty_partitions: driver.swaps().iter().map(|s| s.dirty_partitions).sum(),
        swap_every_batches: swap_every,
        max_batches_to_publish,
        freshness_p50: percentile(&lags, 0.50),
        freshness_p99: percentile(&lags, 0.99),
        freshness_max: lags.last().copied().unwrap_or(SimTime::ZERO),
        freshness_bound,
        queries,
        answered,
        wrong,
        pr_linf,
        cc_ok,
        components,
        final_watermark: ingest.watermark(),
        state_digest: digest,
        events_per_sec,
        swap_walls_ms,
        full_reload_ms,
    })
}

/// Render the streaming table.
pub fn table(r: &StreamRepro) -> Table {
    let mut t = Table::new(
        "Streaming — DS3′ base, drift-RMAT events, delta hot-swap refresh",
        &["measured"],
    );
    let text = |s: String| vec![Cell::Text(s)];
    t.push(Row::new("vertices / base edges", text(format!("{} / {}", r.num_vertices, r.base_edges))));
    t.push(Row::new("ingestor shards", text(r.shards.to_string())));
    t.push(Row::new(
        format!("events streamed ({} batches of ≤{BATCH})", r.batches),
        text(r.events.to_string()),
    ));
    t.push(Row::new(
        "applied adds / removes",
        text(format!("{} / {}", r.applied_adds, r.applied_removes)),
    ));
    t.push(Row::new(
        "skipped dup adds / missing removes",
        text(format!("{} / {}", r.skipped_dup_adds, r.skipped_missing_removes)),
    ));
    t.push(Row::new("live edges at end", text(r.live_edges.to_string())));
    t.push(Row::new(
        format!("delta hot-swaps (every {} batches)", r.swap_every_batches),
        text(format!("{} ({} dirty partitions)", r.swaps, r.dirty_partitions)),
    ));
    t.push(Row::new(
        "batches until published (worst)",
        text(r.max_batches_to_publish.to_string()),
    ));
    t.push(Row::new(
        "freshness lag p50 / p99 / max",
        text(format!("{} / {} / {}", r.freshness_p50, r.freshness_p99, r.freshness_max)),
    ));
    t.push(Row::new("freshness bound (2× swap interval)", text(r.freshness_bound.to_string())));
    t.push(Row::new(
        "queries issued / answered",
        text(format!("{} / {}", r.queries, r.answered)),
    ));
    t.push(Row::new("wrong answers", text(r.wrong.to_string())));
    t.push(Row::new("incremental PageRank L∞ vs recompute", text(format!("{:.2e}", r.pr_linf))));
    t.push(Row::new(
        "components (labels match reference)",
        text(format!("{} ({})", r.components, if r.cc_ok { "yes" } else { "NO" })),
    ));
    t.push(Row::new("event-time watermark", text(r.final_watermark.to_string())));
    t.push(Row::new("final state digest", text(format!("{:016x}", r.state_digest))));
    t.push(Row::new("ingest throughput (wall)", text(format!("{:.0} events/s", r.events_per_sec))));
    t.push(Row::new(
        "swap cost (wall, mean) vs full refresh",
        text(format!("{:.2} ms vs {:.2} ms", r.mean_swap_ms(), r.full_reload_ms)),
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_repro_stays_fresh_and_correct() {
        let r = run_stream(0.02, 5_000).expect("stream repro must run");
        assert_eq!(r.wrong, 0, "served answers must match the swap-time PS state");
        assert!(r.answered > 0, "queries must be answered");
        assert!(r.swaps >= 2, "expected a scheduled swap plus the tail swap");
        assert!(r.pr_linf < 1e-6, "incremental PageRank drifted: L∞ {}", r.pr_linf);
        assert!(r.cc_ok, "incremental components diverged from the reference");
        assert!(
            r.max_batches_to_publish <= r.swap_every_batches,
            "a batch waited {} batches to publish, cadence is {}",
            r.max_batches_to_publish,
            r.swap_every_batches
        );
        assert!(
            r.freshness_max <= r.freshness_bound,
            "freshness lag {} exceeded bound {}",
            r.freshness_max,
            r.freshness_bound
        );
        assert!(r.applied_removes > 0, "the drift stream must remove edges");
        assert!(
            r.skipped_dup_adds > 0,
            "an RMAT stream must produce at-least-once duplicates"
        );
        assert!(table(&r).to_string().contains("freshness lag"));
    }

    #[test]
    fn sharded_stream_is_bit_identical_to_single_ingestor() {
        let single = run_stream_with(0.01, 2_000, 1).expect("reference run");
        let sharded = run_stream_with(0.01, 2_000, 4).expect("sharded run");
        assert_eq!(
            sharded.state_digest, single.state_digest,
            "sharded final PS state must be bit-identical to the reference"
        );
        assert_eq!(sharded.wrong, 0);
        assert_eq!(sharded.applied_adds, single.applied_adds);
        assert_eq!(sharded.applied_removes, single.applied_removes);
        assert_eq!(sharded.skipped_dup_adds, single.skipped_dup_adds);
        assert_eq!(sharded.skipped_missing_removes, single.skipped_missing_removes);
        assert_eq!(sharded.swaps, single.swaps);
        // Freshness is event-time, so it is shard-count-invariant too.
        assert_eq!(sharded.freshness_p99, single.freshness_p99);
        assert_eq!(sharded.final_watermark, single.final_watermark);
    }
}
