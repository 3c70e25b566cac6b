//! Golden digest of the streaming maintenance loop: a fixed base graph and
//! event stream through sharded ingest, incremental PageRank and
//! incremental components, batch by batch. The digest covers every rank's
//! bits and every label, so any change to the order in which the
//! maintainers fold f64 contributions, or to the labels they settle on,
//! shows up here.

use psgraph_core::algos::{IncrementalCc, IncrementalPageRank};
use psgraph_graph::gen::{self, RmatParams};
use psgraph_graph::Dataset;
use psgraph_net::rpc::NodeId;
use psgraph_ps::{Ps, PsConfig};
use psgraph_sim::NodeClock;
use psgraph_stream::{DriftRmat, EdgeEvent, IngestConfig, ShardedIngestor};

/// FNV-1a 64 over ranks (as `to_bits`) then labels, little-endian, in
/// vertex order.
fn digest(ranks: &[f64], labels: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let words = ranks.iter().map(|r| r.to_bits()).chain(labels.iter().copied());
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn run(shards: usize) -> u64 {
    const BATCH: usize = 256;
    let spec = Dataset::Ds3.spec(0.01);
    let g = gen::rmat(spec.vertices, spec.edges, RmatParams::default(), 0xD53).dedup();
    let n = g.num_vertices();
    assert_eq!(n, 600);
    let drift = DriftRmat {
        num_vertices: n,
        remove_fraction: 0.25,
        seed: 1 ^ 0xD51F,
        ..DriftRmat::default()
    };
    let mut source = drift.start(g.edges());
    let events: Vec<EdgeEvent> = (0..4_096).map(|_| source.next_event()).collect();

    let ps = Ps::new(PsConfig::default());
    let client = NodeClock::new();
    let cfg = IngestConfig { prefix: "golden".into(), mailbox_cap: BATCH };
    let mut ingest = ShardedIngestor::create(&ps, &cfg, n, shards).unwrap();
    ingest.bootstrap(&client, g.edges()).unwrap();
    let pr = IncrementalPageRank::default();
    let mut st = pr.create_state(&ps, "golden.pr", n).unwrap();
    pr.init_full(&mut st, &client, ingest.adjacency()).unwrap();
    let mut cc = IncrementalCc::create(&ps, "golden.cc", n).unwrap();
    cc.bootstrap(&client, ingest.adjacency()).unwrap();

    for chunk in events.chunks(BATCH) {
        for &ev in chunk {
            assert!(ingest.offer(NodeId::Driver, ev), "mailboxes sized to the batch");
        }
        let fx = ingest.drain_all().unwrap();
        pr.on_batch(&mut st, &client, &fx.effects).unwrap();
        pr.propagate(&mut st, &client, ingest.adjacency()).unwrap();
        cc.on_batch(&client, &fx.applied, ingest.adjacency()).unwrap();
    }
    digest(&pr.ranks(&st, &client).unwrap(), cc.labels())
}

#[test]
fn maintenance_loop_digest_is_pinned() {
    for shards in [1, 2] {
        assert_eq!(run(shards), 0x4a5b_55b9_e00b_900c, "digest at {shards} shard(s)");
    }
}
