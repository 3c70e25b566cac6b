//! Serve phase: an open-loop Poisson stream against a read-only 2×2
//! tier loaded from a PS snapshot.
//!
//! Setup (repeated, median reported): seeded graph values are generated
//! (RMAT adjacency; ranks, communities and embeddings on exact binary
//! grids), written to PS objects, snapshotted through `SnapshotWriter`
//! to the DFS and loaded with `ServeCluster::load`. The timed units are
//! passes at the low fixed rate, each on a freshly loaded tier so every
//! pass replays identical simulated work. Before them, once, the phase
//! runs one pass at the high fixed rate, a capacity search and an
//! overload probe at twice the capacity.
//!
//! Every pass and probe first sends an untimed warm-up of Zipf point
//! lookups, so its measured requests meet a full frontend cache that is
//! evicting, as a long-running tier's is. A pass on a cold tier would
//! touch only a fifth of the cache, and a change to the cache's size or
//! policy would not show.
//!
//! Traffic is the stock legacy mix plus compound plans (filter → expand
//! → score → top-k and two all-vertex shapes), vertex popularity
//! Zipf(1.0). Every answered request of every pass is checked bit for bit
//! through [`crate::oracle`].

use std::sync::Arc;
use std::time::Instant;

use psgraph_core::truth::out_adjacency;
use psgraph_dfs::Dfs;
use psgraph_graph::gen::{self, RmatParams};
use psgraph_ps::{
    ColMatrixHandle, CsrHandle, Partitioner, Ps, PsConfig, RecoveryMode, SnapshotWriter,
    VectorHandle,
};
use psgraph_serve::frontend::Outcome;
use psgraph_serve::{
    ExpandMode, GraphTruth, Interpreter, ObjectMap, Plan, Pred, Query, Scorer, ServeCluster,
    ServeConfig, SloPolicy, Source, Stage, Value,
};
use psgraph_sim::{NodeClock, SimTime, SplitMix64};

use crate::oracle::{self, Request};
use crate::stats::{self, Laps};
use crate::{trace, Phase, Run};

/// The low fixed rate (the `repro -- serve` default), queries per
/// simulated second.
pub const LOW_QPS: f64 = 20_000.0;
/// The high fixed rate, below the capacity of both tier sizes on every
/// seed tried.
pub const HIGH_QPS: f64 = 40_000.0;
const DIM: usize = 16;
const AVG_DEGREE: usize = 4;
const DIR: &str = "/perfbench/serve";
/// Seed of the adjacency's shape (the DS3 preset's).
const SHAPE_SEED: u64 = 0xD53;
const SETUPS: usize = 3;
/// Capacity search stops when the bracket is within this ratio.
const CAPACITY_RESOLUTION: f64 = 1.05;

/// Served vertices: the Zipf head fits the 1 MiB frontend cache, the
/// whole key space (about 1.7 MiB of cacheable answers) does not. (On a
/// 2k-vertex tier the low-rate p99 sat on the batching window, 250.074
/// us, on every seed.)
const VERTICES: u64 = 8_192;
/// Zipf exponent of vertex popularity.
const ZIPF_S: f64 = 1.0;
/// Measured requests per pass and per probe.
const QUERIES: usize = 10_000;
/// Warm-up point lookups before each pass and probe. On seed 1, 100k of
/// them filled 0.92 MiB of the cache without an eviction; this many keep
/// it at its budget and evicting through the measured requests.
const WARMUP: usize = 160_000;
/// Measured requests per host-time step of a pass (the final drain is a
/// step of its own).
const STEP: usize = 1_000;
/// Simulated gap between the last warm-up arrival and the first measured
/// one: far above any warm-up latency, so no warm-up work is queued.
const WARMUP_GAP_S: f64 = 1.0;

/// Relative weights of the request kinds: the stock legacy mix plus
/// compound plans. The first four are the cached point lookups the
/// warm-up draws from.
const MIX: [(Kind, u64); 7] = [
    (Kind::Rank, 30),
    (Kind::Community, 20),
    (Kind::Embedding, 25),
    (Kind::Neighbors, 15),
    (Kind::KHop, 5),
    (Kind::TopK, 5),
    (Kind::Compound, 15),
];

#[derive(Debug, Clone, Copy)]
enum Kind {
    Rank,
    Community,
    Embedding,
    Neighbors,
    KHop,
    TopK,
    Compound,
}

/// Compound shapes, re-anchored on the drawn vertex.
fn palette() -> Vec<Plan> {
    vec![
        Plan {
            source: Source::Seed(0),
            stages: vec![
                Stage::Filter(Pred::DegreeAtLeast(1)),
                Stage::Expand {
                    hops: 2,
                    cap: 4096,
                    mode: ExpandMode::Frontier,
                },
                Stage::Score(Scorer::Dot(0)),
                Stage::TopK(8),
            ],
        },
        Plan {
            source: Source::All,
            stages: vec![
                Stage::Filter(Pred::CommunityEq(3)),
                Stage::Score(Scorer::Rank),
                Stage::TopK(8),
            ],
        },
        Plan {
            source: Source::All,
            stages: vec![
                Stage::Filter(Pred::RankAtLeast(0.99)),
                Stage::Collect { cap: 32 },
            ],
        },
    ]
}

/// Seeded served state: a pure function of the seed. The adjacency's
/// shape is fixed, so the seed moves the values and the traffic but not
/// which vertices are hubs — with Zipf popularity, whether a hub lands
/// in the head would otherwise swing the cost of a whole run.
fn generate(n: u64, seed: u64) -> GraphTruth {
    let g = gen::rmat(
        n,
        n as usize * AVG_DEGREE,
        RmatParams::default(),
        SHAPE_SEED,
    );
    let mut rng = SplitMix64::new(seed ^ 0xDA7A);
    let mut truth = GraphTruth::new(n);
    truth.adjacency = Some(out_adjacency(g.edges(), n));
    truth.ranks = Some(
        (0..n)
            .map(|_| rng.next_below(1_000) as f64 / 1_000.0)
            .collect(),
    );
    truth.communities = Some((0..n).map(|_| rng.next_below(16)).collect());
    // Multiples of 0.25 with no negative zero: `0.0 + x == x` bit for
    // bit through the PS `push_add` load path.
    truth.embeddings = Some(
        (0..n)
            .map(|_| {
                (0..DIM)
                    .map(|_| (rng.next_below(9) as f32 - 4.0) * 0.25)
                    .collect()
            })
            .collect(),
    );
    truth
}

fn objects() -> ObjectMap {
    ObjectMap {
        ranks: Some("serve.rank".into()),
        communities: Some("serve.community".into()),
        embeddings: Some("serve.embed".into()),
        adjacency: Some("serve.adj".into()),
    }
}

/// Write `truth` to PS objects and snapshot them to a fresh DFS.
fn publish(truth: &GraphTruth, client: &NodeClock) -> Result<(Arc<Ps>, Dfs), String> {
    let n = truth.num_vertices;
    let ids: Vec<u64> = (0..n).collect();
    let ps = Ps::new(PsConfig::default());
    let dfs = Dfs::in_memory();
    let e = |e: psgraph_ps::PsError| e.to_string();
    let (hr, hc, hm, ha) = trace::span("ps.write", 0, || -> Result<_, String> {
        let hr = VectorHandle::<f64>::create(
            &ps,
            "serve.rank",
            n,
            Partitioner::Range,
            RecoveryMode::Consistent,
        )
        .map_err(e)?;
        hr.push_set(client, &ids, truth.ranks.as_ref().expect("ranks"))
            .map_err(e)?;
        let hc = VectorHandle::<u64>::create(
            &ps,
            "serve.community",
            n,
            Partitioner::Range,
            RecoveryMode::Consistent,
        )
        .map_err(e)?;
        hc.push_set(
            client,
            &ids,
            truth.communities.as_ref().expect("communities"),
        )
        .map_err(e)?;
        let hm = ColMatrixHandle::create(&ps, "serve.embed", n, DIM, RecoveryMode::Inconsistent)
            .map_err(e)?;
        hm.push_add_rows(client, &ids, truth.embeddings.as_ref().expect("embeddings"))
            .map_err(e)?;
        let tables: Vec<(u64, Vec<u64>)> = truth
            .adjacency
            .as_ref()
            .expect("adjacency")
            .iter()
            .enumerate()
            .map(|(i, ns)| (i as u64, ns.clone()))
            .collect();
        let ha = CsrHandle::build(
            &ps,
            "serve.adj",
            n,
            &tables,
            client,
            RecoveryMode::Consistent,
        )
        .map_err(e)?;
        Ok((hr, hc, hm, ha))
    })?;
    trace::span(
        "ps.snapshot_write",
        0,
        || -> Result<(), psgraph_ps::PsError> {
            let mut w = SnapshotWriter::new(&dfs, DIR, client);
            w.vector_f64(&hr)?;
            w.vector_u64(&hc)?;
            w.colmatrix(&hm)?;
            w.adjacency(&ha)?;
            w.finish().map(|_| ())
        },
    )
    .map_err(e)?;
    Ok((ps, dfs))
}

fn load(dfs: &Dfs, client: &NodeClock) -> ServeCluster {
    trace::span("serve.load", 0, || {
        ServeCluster::load(dfs, DIR, &objects(), &ServeConfig::default(), client)
    })
    .expect("the snapshot just written loads")
}

/// A multiplier coprime with `n`: spreads the Zipf head across the
/// range-partitioned shards instead of piling it onto shard 0.
fn scramble(n: u64) -> u64 {
    let gcd = |mut a: u64, mut b: u64| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    (n / 2 + 1..)
        .find(|&p| gcd(p, n) == 1)
        .expect("some multiplier is coprime")
}

/// A request sequence drawn from `mix`, and unit-mean exponential gaps;
/// arrivals at rate `q` are the running sum of `gap / q`.
fn requests(seed: u64, count: usize, mix: &[(Kind, u64)]) -> (Vec<Request>, Vec<f64>) {
    let n = VERTICES;
    let mult = scramble(n);
    let shapes = palette();
    let total: u64 = mix.iter().map(|m| m.1).sum();
    let mut rng = SplitMix64::new(seed);
    let mut reqs = Vec::with_capacity(count);
    let mut gaps = Vec::with_capacity(count);
    for _ in 0..count {
        let v = ((rng.next_zipf(n, ZIPF_S) - 1) as u128 * mult as u128 % n as u128) as u64;
        let mut w = rng.next_below(total);
        let kind = mix
            .iter()
            .find(|(_, weight)| {
                let hit = w < *weight;
                w = w.saturating_sub(*weight);
                hit
            })
            .expect("weights cover the draw")
            .0;
        reqs.push(match kind {
            Kind::Rank => Request::Q(Query::Rank(v)),
            Kind::Community => Request::Q(Query::Community(v)),
            Kind::Embedding => Request::Q(Query::Embedding(v)),
            Kind::Neighbors => Request::Q(Query::Neighbors(v)),
            Kind::KHop => Request::Q(Query::KHop { v, hops: 2 }),
            Kind::TopK => Request::Q(Query::TopK { v, k: 8 }),
            Kind::Compound => {
                let shape = rng.next_below(shapes.len() as u64) as usize;
                Request::P(shapes[shape].clone().with_anchor(v))
            }
        });
        gaps.push(rng.next_exp(1.0));
    }
    (reqs, gaps)
}

/// Arrival times at `qps` from `start_s` on.
fn arrivals(gaps: &[f64], qps: f64, start_s: f64) -> Vec<SimTime> {
    let mut t = start_s;
    gaps.iter()
        .map(|g| {
            let at = SimTime::from_secs_f64(t);
            t += g / qps;
            at
        })
        .collect()
}

/// The warm-up every pass and probe sends first.
struct Warmup {
    reqs: Vec<Request>,
    at: Vec<SimTime>,
}

/// What one pass produced, by request index.
struct Pass {
    /// Host time of each step of the submit loop.
    step_s: Vec<f64>,
    /// Warm-up outcomes, checked like the measured answers.
    warm: Vec<(usize, Outcome)>,
    /// Cache hits, misses and evictions during the measured requests.
    cache: [u64; 3],
    /// Simulated latency of every answered request.
    latency_ns: Vec<Option<u64>>,
    answered: usize,
    shed: usize,
    failed: usize,
    /// Answers until [`Serve::check`] takes them.
    answers: Vec<(usize, Value)>,
}

impl Pass {
    fn latencies(&self, range: std::ops::Range<usize>) -> Vec<f64> {
        self.latency_ns[range]
            .iter()
            .flatten()
            .map(|&ns| ns as f64)
            .collect()
    }

    fn p_us(&self, p: f64) -> f64 {
        stats::percentile(&self.latencies(0..self.latency_ns.len()), p) / 1e3
    }

    /// p99 within the SLO, nothing shed or failed, and no growing
    /// backlog: the last quarter's p99 is within the SLO too (a backlog
    /// that grows through the probe puts its worst latencies there).
    fn meets_slo(&self, slo: SimTime) -> bool {
        let n = self.latency_ns.len();
        let slo_ns = slo.as_nanos() as f64;
        self.shed == 0
            && self.failed == 0
            && self.p_us(0.99) * 1e3 <= slo_ns
            && stats::percentile(&self.latencies(n - n / 4..n), 0.99) <= slo_ns
    }
}

/// Send the warm-up untimed and untraced, then submit every request at
/// its arrival time; the host time of that submit loop is the pass's
/// wall time.
fn drive(cluster: &mut ServeCluster, warmup: &Warmup, reqs: &[Request], at: &[SimTime]) -> Pass {
    let fe = cluster.frontend_mut();
    let traced = trace::enabled();
    trace::set_enabled(false);
    let mut warm = Vec::with_capacity(warmup.reqs.len());
    for (i, (r, &when)) in warmup.reqs.iter().zip(&warmup.at).enumerate() {
        let Request::Q(q) = r else {
            unreachable!("the warm-up is point lookups")
        };
        warm.extend(fe.submit(i, when, *q));
    }
    warm.extend(fe.drain());
    trace::set_enabled(traced);
    let counters = |fe: &psgraph_serve::Frontend| {
        let c = fe.cache();
        [c.hits(), c.misses(), c.evictions()]
    };
    let before = counters(fe);

    let mut outcomes = Vec::with_capacity(reqs.len());
    let mut laps = Laps::start();
    for (i, (r, &when)) in reqs.iter().zip(at).enumerate() {
        let out = match r {
            Request::Q(q) => trace::span("serve.submit", i as u64, || fe.submit(i, when, *q)),
            Request::P(p) => {
                trace::span("query.plan_submit", i as u64, || fe.submit_plan(i, when, p))
            }
        };
        outcomes.extend(out);
        if (i + 1) % STEP == 0 {
            laps.lap();
        }
    }
    outcomes.extend(trace::span("serve.drain", reqs.len() as u64, || fe.drain()));
    laps.lap();
    let after = counters(fe);

    let mut pass = Pass {
        step_s: laps.times,
        warm,
        cache: [0, 1, 2].map(|k| after[k] - before[k]),
        latency_ns: vec![None; reqs.len()],
        answered: 0,
        shed: 0,
        failed: 0,
        answers: Vec::with_capacity(reqs.len()),
    };
    for (i, o) in outcomes {
        match o {
            Outcome::Answered { value, latency, .. } => {
                pass.latency_ns[i] = Some(latency.as_nanos());
                pass.answered += 1;
                pass.answers.push((i, value));
            }
            Outcome::Shed { .. } => pass.shed += 1,
            Outcome::Failed(_) => pass.failed += 1,
        }
    }
    pass
}

/// One set-up: generate the served state, write it to PS objects,
/// snapshot it to the DFS and load a tier from the snapshot.
fn set_up(seed: u64, client: &NodeClock) -> (GraphTruth, Arc<Ps>, Dfs, ServeCluster) {
    let truth = trace::span("graph.gen", 0, || generate(VERTICES, seed));
    let (ps, dfs) = publish(&truth, client).expect("publishing the served state succeeds");
    let cluster = load(&dfs, client);
    (truth, ps, dfs, cluster)
}

/// The serve phase between set-up and report.
pub struct Serve {
    truth: GraphTruth,
    dfs: Dfs,
    client: NodeClock,
    warmup: Warmup,
    /// Simulated time of the first measured arrival.
    start_s: f64,
    reqs: Vec<Request>,
    gaps: Vec<f64>,
    low_at: Vec<SimTime>,
    /// The first answer to each request, once it matched the oracle.
    verified: Vec<Option<Value>>,
    setups: Vec<f64>,
    /// The tier the last set-up loaded; the first pass uses it.
    tier: Option<ServeCluster>,
    first: Option<Pass>,
    repeat_equal: bool,
    units: Vec<(bool, f64)>,
    /// Per-step host times and answered requests of each untraced pass.
    step_s: Vec<Vec<f64>>,
    answered: Vec<f64>,
    submit_mark: usize,
    plan_mark: usize,
}

impl Serve {
    /// Set up several times (generate, write to the PS, snapshot, load);
    /// keep the last snapshot and tier, generate every pass's requests,
    /// and run the probes.
    pub fn new(run: &mut Run) -> Serve {
        trace::set_enabled(run.trace);
        let marks: Vec<(&str, usize)> = ["graph.gen", "ps.snapshot_write", "serve.load"]
            .into_iter()
            .map(|n| (n, trace::mark(n)))
            .collect();
        let client = NodeClock::new();
        let mut setups = Vec::with_capacity(SETUPS);
        let mut state = None;
        for _ in 0..SETUPS {
            let t = Instant::now();
            state = Some(set_up(run.seed, &client));
            setups.push(t.elapsed().as_secs_f64());
        }
        trace::set_enabled(false);
        let (truth, ps, dfs, tier) = state.expect("at least one set-up");
        for (name, mark) in &marks {
            let metric = match *name {
                "graph.gen" => "graph.gen_s",
                "ps.snapshot_write" => "ps.snapshot_write_s",
                _ => "serve.load_s",
            };
            run.add(metric, stats::median(&trace::since(name, *mark)));
        }
        run.add(
            "ps.resident_mb",
            ps.resident_bytes() as f64 / (1 << 20) as f64,
        );
        run.add("net.ps_rpcs", ps.network().stats().rpcs() as f64);
        run.add("net.ps_bytes", ps.network().stats().total_bytes() as f64);
        run.add("dfs.stored_mb", dfs.total_bytes() as f64 / (1 << 20) as f64);
        run.add("net.dfs_bytes", dfs.network().stats().total_bytes() as f64);
        run.add("dfs.corrupt_fallbacks", dfs.corrupt_fallbacks() as f64);

        let (reqs, gaps) = requests(run.seed ^ 0x0BE5, QUERIES, &MIX);
        let (warm, warm_gaps) = requests(run.seed ^ 0x3A3A, WARMUP, &MIX[..4]);
        let warm_at = arrivals(&warm_gaps, LOW_QPS, 0.0);
        let start_s = warm_at.last().map_or(0.0, |t| t.as_secs_f64()) + WARMUP_GAP_S;
        let low_at = arrivals(&gaps, LOW_QPS, start_s);
        let mut serve = Serve {
            truth,
            dfs,
            client,
            warmup: Warmup {
                reqs: warm,
                at: warm_at,
            },
            start_s,
            reqs,
            gaps,
            low_at,
            verified: vec![None; QUERIES],
            setups,
            tier: Some(tier),
            first: None,
            repeat_equal: true,
            units: Vec::new(),
            step_s: Vec::new(),
            answered: Vec::new(),
            submit_mark: trace::mark("serve.submit"),
            plan_mark: trace::mark("query.plan_submit"),
        };
        // The probes measure simulated time only; they run once per run,
        // before the timed passes, so they take no share of the host-time
        // window.
        if run.probes {
            serve.probes(run);
        }
        serve
    }

    /// Check every answer of `pass`: the first answer to a request
    /// against the oracle, later ones (other passes, other rates — the
    /// tier is read-only) against that first answer, bit for bit.
    ///
    /// The warm-up runs far below the tier's capacity, so each of its
    /// requests must be answered, and correctly.
    fn check(&mut self, run: &mut Run, pass: &mut Pass) {
        let interp = Interpreter::new(&self.truth, ServeConfig::default().shards);
        for (i, out) in pass.warm.drain(..) {
            let req = &self.warmup.reqs[i];
            let ok = match &out {
                Outcome::Answered { value, .. } => oracle::expected(&self.truth, &interp, req)
                    .is_some_and(|w| oracle::same(&w, value)),
                _ => false,
            };
            run.check(ok, || format!("serve warm-up request {i} {req:?}: {out:?}"));
        }
        for (i, got) in pass.answers.drain(..) {
            let ok = match &self.verified[i] {
                Some(kept) => oracle::same(kept, &got),
                None => oracle::expected(&self.truth, &interp, &self.reqs[i])
                    .is_some_and(|w| oracle::same(&w, &got)),
            };
            run.check(ok, || {
                format!("serve request {i} {:?}: got {got:?}", self.reqs[i])
            });
            if ok && self.verified[i].is_none() {
                self.verified[i] = Some(got);
            }
        }
    }

    /// Every request at `qps` on a fresh tier, checked.
    fn at_rate(&mut self, run: &mut Run, qps: f64) -> Pass {
        let mut cluster = load(&self.dfs, &self.client);
        let at = arrivals(&self.gaps, qps, self.start_s);
        let mut pass = drive(&mut cluster, &self.warmup, &self.reqs, &at);
        self.check(run, &mut pass);
        pass
    }

    /// The high fixed rate, the capacity search and the overload probe.
    fn probes(&mut self, run: &mut Run) {
        let slo = SloPolicy::default().slo_p99;
        let high = self.at_rate(run, HIGH_QPS);
        run.attempted += QUERIES as u64;
        run.failed += (high.shed + high.failed) as u64;
        run.set("serve_p99_us_high", high.p_us(0.99));

        // The high-rate pass is the first probe. Double until the SLO
        // breaks, then bisect geometrically.
        let mut log = vec![probe_note(HIGH_QPS, &high, slo)];
        let (mut lo, mut hi) = if high.meets_slo(slo) {
            (HIGH_QPS, 2.0 * HIGH_QPS)
        } else {
            (LOW_QPS / 64.0, HIGH_QPS)
        };
        let mut feasible = |me: &mut Serve, run: &mut Run, qps: f64| {
            let pass = me.at_rate(run, qps);
            log.push(probe_note(qps, &pass, slo));
            pass.meets_slo(slo)
        };
        if lo == HIGH_QPS {
            while hi < 1e9 && feasible(self, run, hi) {
                lo = hi;
                hi *= 2.0;
            }
        }
        while hi / lo > CAPACITY_RESOLUTION {
            let mid = (lo * hi).sqrt();
            if feasible(self, run, mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        run.set("serve_capacity_qps", lo);
        run.notes.push(format!(
            "serve capacity: {lo:.0} queries/s (simulated) to within {:.0}%; probes of {QUERIES} (rate:meets SLO:p99) {}",
            (CAPACITY_RESOLUTION - 1.0) * 100.0,
            log.join(" ")
        ));

        let over = self.at_rate(run, 2.0 * lo);
        run.set("serve.overload_p99_us", over.p_us(0.99));
        run.set(
            "serve.overload_shed_frac",
            over.shed as f64 / QUERIES as f64,
        );
    }
}

fn probe_note(qps: f64, pass: &Pass, slo: SimTime) -> String {
    let verdict = if pass.meets_slo(slo) { "ok" } else { "no" };
    format!("{qps:.0}:{verdict}:{:.0}us", pass.p_us(0.99))
}

impl Phase for Serve {
    /// One pass at the low rate on a fresh tier. The tier comes from a
    /// set-up of its own, whose host time is one more set-up sample, so
    /// the samples spread over the run as the passes do.
    fn unit(&mut self, run: &mut Run, i: usize) {
        let mut cluster = self.tier.take().unwrap_or_else(|| {
            let t = Instant::now();
            let (truth, _, _, cluster) = set_up(run.seed, &self.client);
            self.setups.push(t.elapsed().as_secs_f64());
            run.check(truth == self.truth, || {
                "serve: a set-up served other values".into()
            });
            cluster
        });
        let traced = run.unit_traced(i);
        trace::set_enabled(traced);
        let mut pass = drive(&mut cluster, &self.warmup, &self.reqs, &self.low_at);
        trace::set_enabled(false);
        self.check(run, &mut pass);
        run.attempted += QUERIES as u64;
        run.failed += (pass.shed + pass.failed) as u64;
        self.units.push((traced, pass.step_s.iter().sum()));
        if !traced {
            self.answered.push(pass.answered as f64);
            self.step_s.push(std::mem::take(&mut pass.step_s));
        }
        match &self.first {
            None => {
                tier_counters(run, &cluster, &pass);
                self.first = Some(pass);
            }
            Some(f) => {
                self.repeat_equal &= f.latency_ns == pass.latency_ns
                    && f.shed == pass.shed
                    && f.failed == pass.failed;
            }
        }
    }

    fn finish(self: Box<Self>, run: &mut Run) {
        let first = self.first.as_ref().expect("at least one pass");
        let n = QUERIES;
        run.set("serve_mean_us", stats::mean(&first.latencies(0..n)) / 1e3);
        run.set("serve.p50_us", first.p_us(0.5));
        run.set("serve_p99_us", first.p_us(0.99));
        run.set(
            "serve_queries_per_wall_s",
            stats::median(&self.answered) / stats::fastest_profile(&self.step_s),
        );
        run.set("serve.sim_repeat_equal", self.repeat_equal as u8 as f64);
        let us = |xs: Vec<f64>| xs.into_iter().map(|s| s * 1e6).collect::<Vec<f64>>();
        let submit = us(trace::since("serve.submit", self.submit_mark));
        let plan = us(trace::since("query.plan_submit", self.plan_mark));
        run.set("serve.submit_us_p50", stats::percentile(&submit, 0.5));
        run.set("serve.submit_us_p99", stats::percentile(&submit, 0.99));
        run.set("query.plan_submit_us_p50", stats::percentile(&plan, 0.5));
        run.set("query.plan_submit_us_p99", stats::percentile(&plan, 0.99));
        run.notes.push(format!(
            "serve: {} vertices, {} requests per pass, low-rate latency (simulated) {}",
            VERTICES,
            n,
            stats::describe(&first.latencies(0..n), "ns")
        ));
        let rates: Vec<f64> = self
            .answered
            .iter()
            .zip(&self.step_s)
            .map(|(a, s)| a / s.iter().sum::<f64>())
            .collect();
        run.notes.push(format!(
            "serve answered/host s, per pass: {}",
            stats::describe(&rates, "")
        ));
        run.phase_done("serve", &self.setups, &self.units);
    }
}

/// Counters of the first low-rate pass's tier (the same work every
/// pass). Cache counters cover the measured requests, not the warm-up.
fn tier_counters(run: &mut Run, cluster: &ServeCluster, pass: &Pass) {
    let fe = cluster.frontend();
    let [hits, misses, evictions] = pass.cache.map(|c| c as f64);
    run.set("serve.cache_hits", hits);
    run.set("serve.cache_misses", misses);
    run.set("serve.cache_hit_rate", hits / (hits + misses).max(1.0));
    run.set("serve.cache_evictions", evictions);
    // Nothing but eviction removes an entry from a read-only tier's
    // cache, so its size at the end of the pass is within one entry of
    // the pass's peak.
    run.set(
        "serve.cache_mb",
        fe.cache().bytes_used() as f64 / (1 << 20) as f64,
    );
    run.set("serve.shed", pass.shed as f64);
    run.set("serve.failed", pass.failed as f64);
    let (dropped, retried) = cluster.replicas().iter().fold((0, 0), |(d, r), rep| {
        let c = rep.queue_counters();
        (d + c.dropped, r + c.retried)
    });
    run.set("serve.mailbox_dropped", dropped as f64);
    run.set("serve.mailbox_retried", retried as f64);
    let pc = fe.plan_counters();
    run.set("query.plans", pc.plans as f64);
    run.set(
        "query.pushed_frac",
        pc.pushed_plans as f64 / (pc.plans as f64).max(1.0),
    );
    run.set("query.stages_pushed", pc.stages_pushed as f64);
    run.set("query.shard_bytes", pc.shard_bytes as f64);
    run.set("query.rows_pruned", pc.rows_pruned() as f64);
    let net = cluster.network().stats();
    run.add("net.serve_rpcs", net.rpcs() as f64);
    run.add("net.serve_bytes", net.total_bytes() as f64);
}
