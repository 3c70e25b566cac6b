//! Property tests for the streaming tier: randomized event streams
//! driven through the real `Ingestor`, checked against independent
//! models — full PageRank recomputes, reference connected components,
//! and a naive Vec model of the neighbor table.

use std::sync::Arc;

use psgraph_core::algos::{IncrementalCc, IncrementalPageRank};
use psgraph_dfs::Dfs;
use psgraph_graph::{metrics, EdgeList};
use psgraph_harness::prop::{check, Source};
use psgraph_harness::{prop_assert, prop_assert_eq};
use psgraph_net::rpc::NodeId;
use psgraph_ps::{NeighborTableHandle, Partitioner, Ps, PsConfig, RecoveryMode};
use psgraph_sim::{FxHashMap, NodeClock, SimTime, SplitMix64};
use psgraph_stream::{
    replay_from_log, DriftRmat, EdgeEvent, EdgeOp, EventLog, IngestConfig, Ingestor,
    ShardedIngestor,
};

/// Drive `events` through the ingestor in micro-batches of `batch`,
/// keeping the incremental maintainers in lockstep. Returns the live
/// edge set at the end.
struct Harness {
    ps: Arc<Ps>,
    client: NodeClock,
    ingestor: Ingestor,
    pr: IncrementalPageRank,
    pr_state: psgraph_core::algos::PrState,
    cc: IncrementalCc,
    n: u64,
}

impl Harness {
    fn new(prefix: &str, n: u64, base: &[(u64, u64)]) -> Harness {
        let ps = Ps::new(PsConfig::default());
        let client = NodeClock::new();
        let cfg = IngestConfig { prefix: prefix.into(), mailbox_cap: 512 };
        let ingestor = Ingestor::create(&ps, &cfg, n).unwrap();
        ingestor.bootstrap(&client, base).unwrap();
        let pr = IncrementalPageRank::default();
        let mut pr_state = pr.create_state(&ps, &format!("{prefix}.pr"), n).unwrap();
        pr.init_full(&mut pr_state, &client, &ingestor.adjacency).unwrap();
        let mut cc = IncrementalCc::create(&ps, &format!("{prefix}.cc"), n).unwrap();
        cc.bootstrap(&client, &ingestor.adjacency).unwrap();
        Harness { ps, client, ingestor, pr, pr_state, cc, n }
    }

    fn apply(&mut self, events: &[EdgeEvent]) {
        for &ev in events {
            assert!(self.ingestor.offer(NodeId::Driver, ev), "mailbox overflow in test");
        }
        let fx = self.ingestor.apply_pending(&self.client).unwrap();
        self.pr.on_batch(&mut self.pr_state, &self.client, &fx.effects).unwrap();
        self.pr.propagate(&mut self.pr_state, &self.client, &self.ingestor.adjacency).unwrap();
        self.cc.on_batch(&self.client, &fx.applied, &self.ingestor.adjacency).unwrap();
    }

    fn live_edges(&self) -> Vec<(u64, u64)> {
        let ids: Vec<u64> = (0..self.n).collect();
        let lists = self.ingestor.adjacency.pull(&self.client, &ids).unwrap();
        let mut edges = Vec::new();
        for (s, list) in lists.iter().enumerate() {
            for &d in list.iter() {
                edges.push((s as u64, d));
            }
        }
        edges
    }
}

fn random_stream(
    rng: &mut SplitMix64,
    n: u64,
    live: &mut Vec<(u64, u64)>,
    count: usize,
    tick: &mut u64,
) -> Vec<EdgeEvent> {
    let mut events = Vec::with_capacity(count);
    for _ in 0..count {
        *tick += 1;
        let at = SimTime::from_micros(*tick * 37);
        if !live.is_empty() && rng.next_below(3) == 0 {
            let i = rng.next_below(live.len() as u64) as usize;
            let (src, dst) = live.swap_remove(i);
            events.push(EdgeEvent { op: EdgeOp::Remove, src, dst, at });
        } else {
            let src = rng.next_below(n);
            let dst = rng.next_below(n);
            if src == dst {
                continue;
            }
            // Sometimes re-add a live edge to exercise at-least-once
            // dedup; only track genuinely new edges as live.
            if !live.contains(&(src, dst)) {
                live.push((src, dst));
            }
            events.push(EdgeEvent { op: EdgeOp::Add, src, dst, at });
        }
    }
    events
}

#[test]
fn incremental_pagerank_matches_full_recompute_over_random_stream() {
    let n = 48u64;
    let base = psgraph_graph::gen::rmat(n, 180, Default::default(), 31).dedup();
    let mut h = Harness::new("p1", n, base.edges());
    let mut rng = SplitMix64::new(1234);
    let mut live = base.edges().to_vec();
    let mut tick = 0u64;
    for round in 0..5 {
        let events = random_stream(&mut rng, n, &mut live, 30, &mut tick);
        h.apply(&events);

        let mut full_state =
            h.pr.create_state(&h.ps, &format!("p1.full{round}"), n).unwrap();
        h.pr.init_full(&mut full_state, &h.client, &h.ingestor.adjacency).unwrap();
        let inc = h.pr.ranks(&h.pr_state, &h.client).unwrap();
        let full = h.pr.ranks(&full_state, &h.client).unwrap();
        let linf = inc
            .iter()
            .zip(&full)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(linf < 1e-6, "round {round}: incremental drifted from recompute, L∞ {linf}");
    }
}

#[test]
fn incremental_cc_matches_reference_over_random_stream() {
    let n = 40u64;
    let base = psgraph_graph::gen::erdos_renyi(n, 60, 8).dedup();
    let mut h = Harness::new("c1", n, base.edges());
    let mut rng = SplitMix64::new(99);
    let mut live = base.edges().to_vec();
    let mut tick = 0u64;
    for round in 0..6 {
        let events = random_stream(&mut rng, n, &mut live, 25, &mut tick);
        h.apply(&events);
        let truth =
            metrics::connected_components(&EdgeList::new(n, h.live_edges()));
        assert_eq!(h.cc.labels(), truth.as_slice(), "round {round}");
    }
}

#[test]
fn neighbor_table_matches_naive_model_under_churn() {
    // add → remove → add round-trips under heavy churn: the table must
    // always expose exactly the naive "append if absent, remove first
    // occurrence" list, in order, and hold no memory beyond it — its
    // footprint equals a table freshly loaded with the same lists.
    let n = 12u64;
    let ps = Ps::new(PsConfig::default());
    let client = NodeClock::new();
    let create = |name: &str| {
        NeighborTableHandle::create(&ps, name, n, Partitioner::Range, RecoveryMode::Consistent)
            .unwrap()
    };
    let table = create("m.adj");
    // Sources that got an add op: the table holds an entry for each, even
    // once its list is empty again.
    let mut model: FxHashMap<u64, Vec<u64>> = FxHashMap::default();
    let mut rng = SplitMix64::new(2718);
    for round in 0..60 {
        let mut ops: Vec<(u64, u64, bool)> = Vec::new();
        for _ in 0..20 {
            let s = rng.next_below(n);
            let d = rng.next_below(n);
            let add = rng.next_bool(0.55);
            ops.push((s, d, add));
            if add {
                let list = model.entry(s).or_default();
                if !list.contains(&d) {
                    list.push(d);
                }
            } else if let Some(list) = model.get_mut(&s) {
                if let Some(i) = list.iter().position(|&x| x == d) {
                    list.remove(i);
                }
            }
        }
        table.update_edges(&client, &ops).unwrap();
        let ids: Vec<u64> = (0..n).collect();
        let lists = table.pull(&client, &ids).unwrap();
        for (v, got) in lists.iter().enumerate() {
            let want = model.get(&(v as u64)).cloned().unwrap_or_default();
            assert_eq!(got.as_slice(), want.as_slice(), "vertex {v} diverged from model");
        }
        let fresh = create(&format!("m.fresh{round}"));
        let entries: Vec<(u64, Vec<u64>)> = model.iter().map(|(&v, l)| (v, l.clone())).collect();
        fresh.push(&client, &entries).unwrap();
        assert_eq!(
            table.resident_bytes().unwrap(),
            fresh.resident_bytes().unwrap(),
            "round {round}: churned footprint differs from a fresh load of the same lists"
        );
    }
}

/// One abstract op of a CC batch: `(remove?, a, b)`. A remove deletes the
/// live edge at index `a % live`; an add inserts `(a % n, b % n)` when it
/// is a new non-loop edge. Interpreted against the live set, so shrinking
/// the choices always yields a valid batch.
type CcOp = (bool, u64, u64);

#[test]
fn incremental_cc_recomputes_each_hit_component_once() {
    check(
        "incremental_cc_recomputes_each_hit_component_once",
        |src: &mut Source| {
            let n = src.u64_range(4, 24);
            let base: Vec<(u64, u64)> =
                src.vec_with(0, 40, |s| (s.u64_range(0, n), s.u64_range(0, n)));
            // Remove-heavy batches, so several removes land in one
            // component.
            let batches: Vec<Vec<CcOp>> = src.vec_with(1, 6, |s| {
                s.vec_with(1, 12, |s| (s.choice(3) < 2, s.any_u64(), s.any_u64()))
            });
            (n, base, batches)
        },
        |(n, base, batches)| {
            let n = *n;
            let mut live: Vec<(u64, u64)> = Vec::new();
            for &(s, d) in base {
                if s != d && !live.contains(&(s, d)) {
                    live.push((s, d));
                }
            }
            let ps = Ps::new(PsConfig::default());
            let client = NodeClock::new();
            let adj = NeighborTableHandle::create(
                &ps,
                "pc.adj",
                n,
                Partitioner::Range,
                RecoveryMode::Consistent,
            )
            .unwrap();
            adj.add_edges(&client, &live).unwrap();
            let mut cc = IncrementalCc::create(&ps, "pc.cc", n).unwrap();
            cc.bootstrap(&client, &adj).unwrap();
            for (b, batch) in batches.iter().enumerate() {
                let mut applied: Vec<(u64, u64, bool)> = Vec::new();
                for &(remove, x, y) in batch {
                    if remove {
                        if !live.is_empty() {
                            let (s, d) = live.remove((x % live.len() as u64) as usize);
                            applied.push((s, d, false));
                        }
                    } else {
                        let (s, d) = (x % n, y % n);
                        if s != d && !live.contains(&(s, d)) {
                            live.push((s, d));
                            applied.push((s, d, true));
                        }
                    }
                }
                let mut hit: Vec<u64> = applied
                    .iter()
                    .filter(|&&(_, _, add)| !add)
                    .map(|&(s, _, _)| cc.labels()[s as usize])
                    .collect();
                hit.sort_unstable();
                hit.dedup();
                adj.update_edges(&client, &applied).unwrap();
                let stats = cc.on_batch(&client, &applied, &adj).unwrap();
                let want = metrics::connected_components(&EdgeList::new(n, live.clone()));
                prop_assert_eq!(cc.labels(), want.as_slice(), "batch {b}: labels vs reference");
                prop_assert_eq!(
                    cc.labels.pull_all(&client).unwrap(),
                    cc.labels(),
                    "batch {b}: PS copy vs mirror"
                );
                prop_assert!(
                    stats.recomputes <= hit.len(),
                    "batch {b}: {} recomputes for {} hit components",
                    stats.recomputes,
                    hit.len()
                );
            }
            Ok(())
        },
    );
}

#[test]
fn drift_source_through_ingestor_preserves_live_set() {
    // The generator's own live-edge bookkeeping, the ingestor's table,
    // and the degree vector all agree after a long at-least-once stream.
    let n = 64u64;
    let cfg = DriftRmat {
        num_vertices: n,
        remove_fraction: 0.3,
        seed: 17,
        ..DriftRmat::default()
    };
    let mut source = cfg.start(&[]);
    let mut h = Harness::new("d1", n, &[]);
    for _ in 0..10 {
        let events: Vec<EdgeEvent> = (0..200).map(|_| source.next_event()).collect();
        h.apply(&events);
    }
    let mut want = source.live_edges().to_vec();
    want.sort_unstable();
    let mut got = h.live_edges();
    got.sort_unstable();
    assert_eq!(got, want, "table diverged from the source's live set");
    let ids: Vec<u64> = (0..n).collect();
    let degs = h.ingestor.degrees.pull(&h.client, &ids).unwrap();
    let lists = h.ingestor.adjacency.pull(&h.client, &ids).unwrap();
    for (v, (deg, list)) in degs.iter().zip(&lists).enumerate() {
        assert_eq!(*deg, list.len() as f64, "degree of {v} out of lockstep");
    }
    // The stream really exercised the at-least-once path.
    assert!(
        h.ingestor.stats().skipped_dup_adds > 0,
        "expected duplicate adds in an RMAT stream"
    );
}

#[test]
fn sharded_ingest_is_bit_identical_to_single_ingestor() {
    // The tentpole equivalence: over any random event stream, shard
    // count, and batch size, routing the stream across owner-keyed
    // ingestor shards and draining them as one logical batch must be
    // indistinguishable from a single ingestor — byte-identical neighbor
    // lists (slot order included), degree bits, per-batch effects,
    // applied ops in arrival order, watermarks, and lifetime counters.
    // Identical effects/applied per batch makes the incremental
    // maintainers (which consume only those) identical by construction.
    check(
        "sharded_ingest_is_bit_identical_to_single_ingestor",
        |src: &mut Source| {
            let n = src.u64_range(6, 48);
            let total = src.usize_range(30, 200);
            let batch = [4usize, 8, 16, 32][src.choice(4) as usize];
            let shards = [2usize, 3, 4, 8][src.choice(4) as usize];
            let seed = src.u64_range(0, u64::MAX - 1);
            (n, total, batch, shards, seed)
        },
        |&(n, total, batch, shards, seed)| {
            let client = NodeClock::new();
            let base = psgraph_graph::gen::rmat(n, n as usize * 2, Default::default(), seed ^ 1)
                .dedup();
            let mut rng = SplitMix64::new(seed);
            let mut live = base.edges().to_vec();
            let mut tick = 0u64;
            let events = random_stream(&mut rng, n, &mut live, total, &mut tick);

            // Mailboxes sized to the batch: even a batch routed entirely
            // to one shard fits.
            let cfg = IngestConfig { prefix: "shp".into(), mailbox_cap: batch };
            let ps_a = Ps::new(PsConfig::default());
            let mut single = Ingestor::create(&ps_a, &cfg, n).unwrap();
            single.bootstrap(&client, base.edges()).unwrap();
            let ps_b = Ps::new(PsConfig::default());
            let mut sharded = ShardedIngestor::create(&ps_b, &cfg, n, shards).unwrap();
            sharded.bootstrap(&client, base.edges()).unwrap();

            for chunk in events.chunks(batch.max(1)) {
                for &ev in chunk {
                    assert!(single.offer(NodeId::Driver, ev), "single mailbox overflow");
                    assert!(sharded.offer(NodeId::Driver, ev), "shard mailbox overflow");
                }
                let fa = single.apply_pending(&client).unwrap();
                let fb = sharded.drain_all().unwrap();
                prop_assert_eq!(fa.drained, fb.drained, "drained count diverged");
                prop_assert_eq!(
                    &fa.applied,
                    &fb.applied,
                    "applied ops lost global arrival order"
                );
                prop_assert_eq!(&fa.effects, &fb.effects, "merged effects diverged");
                prop_assert_eq!(fa.watermark, fb.watermark, "batch watermark diverged");
            }

            // Final PS state, byte-for-byte: slot order of the neighbor
            // lists included (shards apply the same ops to the same
            // partitions in the same per-source order).
            let ids: Vec<u64> = (0..n).collect();
            let adj_a: Vec<Vec<u64>> = single
                .adjacency
                .pull(&client, &ids)
                .unwrap()
                .into_iter()
                .map(|l| l.to_vec())
                .collect();
            let adj_b: Vec<Vec<u64>> = sharded
                .adjacency()
                .pull(&client, &ids)
                .unwrap()
                .into_iter()
                .map(|l| l.to_vec())
                .collect();
            prop_assert_eq!(adj_a, adj_b, "neighbor table diverged");
            let deg_a: Vec<u64> =
                single.degrees.pull(&client, &ids).unwrap().iter().map(|d| d.to_bits()).collect();
            let deg_b: Vec<u64> = sharded
                .degrees()
                .pull(&client, &ids)
                .unwrap()
                .iter()
                .map(|d| d.to_bits())
                .collect();
            prop_assert_eq!(deg_a, deg_b, "degree bits diverged");
            prop_assert_eq!(single.watermark(), sharded.watermark(), "watermark diverged");

            let (sa, sb) = (single.stats(), sharded.stats());
            prop_assert_eq!(sa.applied_adds, sb.applied_adds, "applied_adds");
            prop_assert_eq!(sa.applied_removes, sb.applied_removes, "applied_removes");
            prop_assert_eq!(sa.skipped_dup_adds, sb.skipped_dup_adds, "skipped_dup_adds");
            prop_assert_eq!(
                sa.skipped_missing_removes,
                sb.skipped_missing_removes,
                "skipped_missing_removes"
            );
            Ok(())
        },
    );
}

#[test]
fn event_log_replay_is_idempotent_after_crash() {
    // Crash-recovery property over any stream, batch size, and rewind
    // point, in two flavors mirroring the two real crash modes:
    //
    // 1. Ingestor crash, PS survives: the ingestor loses its stream
    //    position and re-applies an *already-applied* batch suffix from
    //    the DFS event log. Idempotent slot application (duplicate adds
    //    and missing removes are skipped) must leave the live edge sets,
    //    degrees, and watermark identical to a run that never crashed.
    //    (List *order* may legally differ: a skipped duplicate add leaves
    //    the neighbor where the first application put it.)
    //
    // 2. PS crash: servers restored from the checkpoint generation taken
    //    at the rewind boundary, then the suffix replays. This is the
    //    `recovery` module protocol and must be *byte-identical* — slot
    //    order included — to the fault-free run.
    check(
        "event_log_replay_is_idempotent_after_crash",
        |src: &mut Source| {
            let n = src.u64_range(6, 48);
            let total = src.usize_range(40, 220);
            let batch = [4usize, 8, 16, 32][src.choice(4) as usize];
            // Raw rewind draw; reduced mod the actual batch count once the
            // stream is generated (self-loop draws emit nothing).
            let rewind_raw = src.usize_range(0, 4096);
            let seed = src.u64_range(0, u64::MAX - 1);
            (n, total, batch, rewind_raw, seed)
        },
        |&(n, total, batch, rewind_raw, seed)| {
            let dfs = Dfs::in_memory();
            let client = NodeClock::new();
            let mut rng = SplitMix64::new(seed);
            let mut live: Vec<(u64, u64)> = Vec::new();
            let mut tick = 0u64;
            let events = random_stream(&mut rng, n, &mut live, total, &mut tick);
            if events.is_empty() {
                return Ok(());
            }
            // Aligned rewind point strictly before the end: the replayed
            // suffix [rewind*batch, len) was already applied once.
            let rewind = rewind_raw % events.len().div_ceil(batch);
            EventLog::write(&dfs, "/prop/events", &events, &client).unwrap();
            let pull = |ing: &Ingestor| {
                let ids: Vec<u64> = (0..n).collect();
                let adj: Vec<Vec<u64>> = ing
                    .adjacency
                    .pull(&client, &ids)
                    .unwrap()
                    .into_iter()
                    .map(|l| l.to_vec())
                    .collect();
                let degs: Vec<u64> =
                    ing.degrees.pull(&client, &ids).unwrap().iter().map(|d| d.to_bits()).collect();
                (adj, degs)
            };

            // Fault-free reference: one clean pass over the whole log.
            let ps_a = Ps::new(PsConfig::default());
            let cfg = IngestConfig { prefix: "prop".into(), mailbox_cap: batch };
            let mut a = Ingestor::create(&ps_a, &cfg, n).unwrap();
            replay_from_log(&dfs, "/prop/events", &client, &mut a, 0, events.len(), batch, |_, _| {
                Ok(())
            })
            .unwrap();

            // Flavor 1 — ingestor crash, PS survives: full pass, rewind
            // to an aligned batch, re-apply the suffix against the
            // already-mutated PS state.
            let ps_b = Ps::new(PsConfig::default());
            let mut b = Ingestor::create(&ps_b, &cfg, n).unwrap();
            let mut wm_at_batch = Vec::new();
            replay_from_log(&dfs, "/prop/events", &client, &mut b, 0, events.len(), batch, |_, fx| {
                wm_at_batch.push(fx.watermark);
                Ok(())
            })
            .unwrap();
            let rewind_wm =
                if rewind == 0 { SimTime::ZERO } else { wm_at_batch[rewind - 1] };
            b.reset_for_replay(rewind_wm);
            let replayed = replay_from_log(
                &dfs,
                "/prop/events",
                &client,
                &mut b,
                rewind * batch,
                events.len(),
                batch,
                |_, _| Ok(()),
            )
            .unwrap();
            prop_assert_eq!(
                replayed,
                (events.len() - rewind * batch).div_ceil(batch),
                "suffix batch count"
            );
            let sets = |(adj, degs): (Vec<Vec<u64>>, Vec<u64>)| {
                let sorted: Vec<Vec<u64>> = adj
                    .into_iter()
                    .map(|mut l| {
                        l.sort_unstable();
                        l
                    })
                    .collect();
                (sorted, degs)
            };
            prop_assert_eq!(
                sets(pull(&a)),
                sets(pull(&b)),
                "over-replayed live sets diverged from fault-free"
            );
            prop_assert_eq!(a.watermark(), b.watermark(), "watermarks diverged");

            // Flavor 2 — PS crash: checkpoint at the rewind boundary
            // during the first pass, crash + restore, replay the suffix.
            let ps_c = Ps::new(PsConfig::default());
            let mut c = Ingestor::create(&ps_c, &cfg, n).unwrap();
            if rewind == 0 {
                ps_c.checkpoint_all_generation(&dfs, 1).unwrap();
            }
            replay_from_log(&dfs, "/prop/events", &client, &mut c, 0, events.len(), batch, |bi, _| {
                if rewind > 0 && bi + 1 == rewind as u64 {
                    ps_c.checkpoint_all_generation(&dfs, 1)?;
                }
                Ok(())
            })
            .unwrap();
            for s in 0..ps_c.num_servers() {
                ps_c.kill_server(s);
            }
            let t_crash = client.now();
            for s in 0..ps_c.num_servers() {
                ps_c.restart_server(s, t_crash);
            }
            ps_c.recover_server_from_generation(0, &dfs, &client, 1).unwrap();
            c.reset_for_replay(rewind_wm);
            replay_from_log(
                &dfs,
                "/prop/events",
                &client,
                &mut c,
                rewind * batch,
                events.len(),
                batch,
                |_, _| Ok(()),
            )
            .unwrap();
            prop_assert_eq!(
                pull(&a),
                pull(&c),
                "checkpoint-restore replay diverged byte-for-byte from fault-free"
            );
            prop_assert_eq!(a.watermark(), c.watermark(), "restored watermark diverged");
            Ok(())
        },
    );
}
