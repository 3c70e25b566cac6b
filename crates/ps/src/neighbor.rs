//! Server-resident neighbor tables (paper §III-A, §IV-B): the adjacency
//! structure used by Common Neighbor, Triangle Count, and GraphSage's
//! neighbor sampling.
//!
//! Executors build `(src, Array[dst])` entries with `groupBy` and push
//! them to the PS; afterwards any executor can pull the adjacency of any
//! vertex without a shuffle.
//!
//! Entries are **mutable**: `update_edges` applies ordered add/remove
//! operations so a streaming ingestor (`psgraph-stream`) can evolve the
//! graph online. Adds append and a removal deletes the neighbor in place,
//! keeping the order of the rest, so a list is always exactly "insertion
//! order minus removed elements" and its footprint is the live list.

use psgraph_sim::bytes::{Buf, BufMut};
use psgraph_sim::{FxHashMap, NodeClock, SplitMix64};
use std::sync::Arc;

use crate::error::{PsError, Result};
use crate::partition::{PartitionLayout, Partitioner};
use crate::ps::{ObjectOps, Ps, RecoveryMode};
use crate::server::PsServer;

/// One vertex's neighbor list, in insertion order. Shared copy-on-write,
/// so a pull hands out the list without copying it.
#[derive(Debug, Clone, Default)]
pub struct NeighborEntry {
    list: Arc<Vec<u64>>,
}

impl NeighborEntry {
    /// An entry holding `neighbors` as its list.
    pub fn new(neighbors: Vec<u64>) -> Self {
        NeighborEntry { list: Arc::new(neighbors) }
    }

    /// Neighbor count.
    pub fn live_len(&self) -> usize {
        self.list.len()
    }

    /// The neighbor list, in insertion order (an `Arc` clone).
    pub fn live(&self) -> Arc<Vec<u64>> {
        Arc::clone(&self.list)
    }

    /// Append `x` unless it is already a neighbor. Returns whether the
    /// edge was added.
    pub fn add(&mut self, x: u64) -> bool {
        if self.list.contains(&x) {
            return false;
        }
        Arc::make_mut(&mut self.list).push(x);
        true
    }

    /// Delete `x` from the list, keeping the order of the rest. Returns
    /// whether the edge was removed.
    pub fn remove(&mut self, x: u64) -> bool {
        match self.list.iter().position(|&s| s == x) {
            Some(i) => {
                Arc::make_mut(&mut self.list).remove(i);
                true
            }
            None => false,
        }
    }
}

type TablePart = FxHashMap<u64, NeighborEntry>;

fn part_bytes(map: &TablePart) -> u64 {
    map.values().map(|e| 8 + 24 + e.live_len() as u64 * 8)
        .sum::<u64>()
        + 48
}

fn encode_part(map: &TablePart) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.put_u64_le(map.len() as u64);
    let mut keys: Vec<u64> = map.keys().copied().collect();
    keys.sort_unstable();
    for k in keys {
        let v = map[&k].live();
        buf.put_u64_le(k);
        buf.put_u64_le(v.len() as u64);
        for &n in v.iter() {
            buf.put_u64_le(n);
        }
    }
    buf
}

fn decode_part(mut bytes: &[u8]) -> Result<TablePart> {
    let buf = &mut bytes;
    if buf.remaining() < 8 {
        return Err(PsError::Dfs("truncated neighbor-table checkpoint".into()));
    }
    let n = buf.get_u64_le() as usize;
    let mut map = TablePart::default();
    map.reserve(n);
    for _ in 0..n {
        let k = buf.get_u64_le();
        let len = buf.get_u64_le() as usize;
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(buf.get_u64_le());
        }
        map.insert(k, NeighborEntry::new(v));
    }
    Ok(map)
}

struct NeighborOps {
    name: String,
    layout: PartitionLayout,
    recovery: RecoveryMode,
}

impl ObjectOps for NeighborOps {
    fn name(&self) -> &str {
        &self.name
    }

    fn layout(&self) -> &PartitionLayout {
        &self.layout
    }

    fn recovery_mode(&self) -> RecoveryMode {
        self.recovery
    }

    fn encode_partition(&self, server: &PsServer, partition: usize) -> Result<Vec<u8>> {
        server.get(&self.name, partition, |p: &TablePart| encode_part(p))
    }

    fn decode_partition(&self, server: &PsServer, partition: usize, bytes: &[u8]) -> Result<()> {
        let part = decode_part(bytes)?;
        let size = part_bytes(&part);
        server.insert(&self.name, partition, part, size)
    }
}

/// Client handle to a PS neighbor table.
#[derive(Clone)]
pub struct NeighborTableHandle {
    ps: Arc<Ps>,
    name: String,
    layout: PartitionLayout,
}

impl std::fmt::Debug for NeighborTableHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NeighborTableHandle")
            .field("name", &self.name)
            .field("vertices", &self.layout.size)
            .finish()
    }
}

impl NeighborTableHandle {
    /// Create an empty table over vertex ids `[0, num_vertices)`.
    pub fn create(
        ps: &Arc<Ps>,
        name: impl Into<String>,
        num_vertices: u64,
        partitioner: Partitioner,
        recovery: RecoveryMode,
    ) -> Result<Self> {
        let name = name.into();
        let layout =
            PartitionLayout::new(partitioner, num_vertices, ps.num_servers(), ps.num_servers());
        for p in 0..layout.num_partitions {
            let server = ps.server(layout.server_of_partition(p));
            let part = TablePart::default();
            let bytes = part_bytes(&part);
            server.insert(&name, p, part, bytes)?;
        }
        ps.register(Arc::new(NeighborOps {
            name: name.clone(),
            layout: layout.clone(),
            recovery,
        }));
        Ok(NeighborTableHandle { ps: Arc::clone(ps), name, layout })
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn num_vertices(&self) -> u64 {
        self.layout.size
    }

    pub fn layout(&self) -> &PartitionLayout {
        &self.layout
    }

    fn check(&self, ids: &[u64]) -> Result<()> {
        for &v in ids {
            if v >= self.layout.size {
                return Err(PsError::IndexOutOfBounds {
                    name: self.name.clone(),
                    index: v,
                    size: self.layout.size,
                });
            }
        }
        Ok(())
    }

    /// Push neighbor lists (replacing any existing entry for the vertex).
    pub fn push(&self, client: &NodeClock, entries: &[(u64, Vec<u64>)]) -> Result<()> {
        let ids: Vec<u64> = entries.iter().map(|(v, _)| *v).collect();
        self.check(&ids)?;
        for (s, parts) in self.layout.group_positions(ids.iter().copied()) {
            let server = self.ps.server(s);
            server.ensure_alive()?;
            let total: u64 = parts
                .values()
                .flatten()
                .map(|&pos| 16 + entries[pos].1.len() as u64 * 8)
                .sum();
            let items: u64 = parts
                .values()
                .flatten()
                .map(|&pos| entries[pos].1.len() as u64 + 1)
                .sum();
            self.ps.network().rpc(
                client,
                server.port(),
                total,
                items * self.ps.config().ops_per_item,
                8,
            );
            for (p, positions) in parts {
                server.update_resize(&self.name, p, |part: &mut TablePart, _old| {
                    for &pos in &positions {
                        let (v, ns) = &entries[pos];
                        part.insert(*v, NeighborEntry::new(ns.clone()));
                    }
                    ((), part_bytes(part))
                })?;
            }
        }
        Ok(())
    }

    /// Apply ordered edge mutations: `(src, dst, add)` adds `dst` to
    /// `src`'s list when `add` is true (skipping duplicates) and deletes
    /// it otherwise (skipping absent edges). Operation order
    /// is preserved *per source vertex* — all ops on a source land in its
    /// partition in input order — so add→remove→add sequences resolve the
    /// way a stream emitted them. Returns `(added, removed)` counts of
    /// the operations that took effect.
    pub fn update_edges(
        &self,
        client: &NodeClock,
        ops: &[(u64, u64, bool)],
    ) -> Result<(usize, usize)> {
        for &(src, dst, _) in ops {
            self.check(&[src, dst])?;
        }
        let groups = self.layout.group_positions(ops.iter().map(|&(src, _, _)| src));
        let mut added = 0usize;
        let mut removed = 0usize;
        for (s, parts) in groups {
            let server = self.ps.server(s);
            server.ensure_alive()?;
            let n: u64 = parts.values().map(|v| v.len() as u64).sum();
            self.ps.network().rpc(
                client,
                server.port(),
                n * 17,
                n * self.ps.config().ops_per_item,
                16,
            );
            for (p, positions) in parts {
                let (a, r) =
                    server.update_resize(&self.name, p, |part: &mut TablePart, _old| {
                        let mut a = 0usize;
                        let mut r = 0usize;
                        for &pos in &positions {
                            let (src, dst, add) = ops[pos];
                            if add {
                                if part.entry(src).or_default().add(dst) {
                                    a += 1;
                                }
                            } else if let Some(e) = part.get_mut(&src) {
                                if e.remove(dst) {
                                    r += 1;
                                }
                            }
                        }
                        ((a, r), part_bytes(part))
                    })?;
                added += a;
                removed += r;
            }
        }
        Ok((added, removed))
    }

    /// Apply several writers' mutation lanes at once — the sharded
    /// streaming ingest path, where each lane is one shard's micro-batch.
    ///
    /// Wire costs are charged serially in canonical (lane, server) order,
    /// each lane on its *own* clock, so the simulated-time accounting —
    /// including the port occupancy the writes leave behind for later
    /// readers — is identical for every pool size. The per-partition data
    /// application then runs concurrently on the PS worker pool: distinct
    /// lanes usually dirty distinct partitions (both sides tile the same
    /// vertex range), and at a range-boundary partition shared by two
    /// lanes the entries are still source-disjoint, so the final content
    /// is independent of task interleaving. Callers must guarantee that
    /// lane source sets are disjoint; the sharded ingestor keys lanes by
    /// source range, which does. Returns `(added, removed)` per lane.
    pub fn update_edges_sharded(
        &self,
        lanes: &[(&NodeClock, &[(u64, u64, bool)])],
    ) -> Result<Vec<(usize, usize)>> {
        for &(_, ops) in lanes {
            for &(src, dst, _) in ops {
                self.check(&[src, dst])?;
            }
        }
        // (lane, server, partition, op positions) in canonical order.
        let mut tasks: Vec<(usize, usize, usize, Vec<usize>)> = Vec::new();
        for (lane, &(clock, ops)) in lanes.iter().enumerate() {
            let groups = self.layout.group_positions(ops.iter().map(|&(src, _, _)| src));
            let mut servers: Vec<usize> = groups.keys().copied().collect();
            servers.sort_unstable();
            for s in servers {
                let parts = &groups[&s];
                let server = self.ps.server(s);
                server.ensure_alive()?;
                let n: u64 = parts.values().map(|v| v.len() as u64).sum();
                self.ps.network().rpc(
                    clock,
                    server.port(),
                    n * 17,
                    n * self.ps.config().ops_per_item,
                    16,
                );
                let mut pids: Vec<usize> = parts.keys().copied().collect();
                pids.sort_unstable();
                for p in pids {
                    tasks.push((lane, s, p, parts[&p].clone()));
                }
            }
        }
        let results: Vec<Result<(usize, usize)>> =
            self.ps.pool().map((0..tasks.len()).collect(), |t| {
                let (lane, s, p, ref positions) = tasks[t];
                let ops = lanes[lane].1;
                self.ps.server(s).update_resize(&self.name, p, |part: &mut TablePart, _old| {
                    let mut a = 0usize;
                    let mut r = 0usize;
                    for &pos in positions {
                        let (src, dst, add) = ops[pos];
                        if add {
                            if part.entry(src).or_default().add(dst) {
                                a += 1;
                            }
                        } else if let Some(e) = part.get_mut(&src) {
                            if e.remove(dst) {
                                r += 1;
                            }
                        }
                    }
                    ((a, r), part_bytes(part))
                })
            });
        let mut out = vec![(0usize, 0usize); lanes.len()];
        for (t, res) in results.into_iter().enumerate() {
            let (a, r) = res?;
            out[tasks[t].0].0 += a;
            out[tasks[t].0].1 += r;
        }
        Ok(out)
    }

    /// Add directed edges (see [`NeighborTableHandle::update_edges`]).
    /// Returns how many were added (duplicates are skipped).
    pub fn add_edges(&self, client: &NodeClock, edges: &[(u64, u64)]) -> Result<usize> {
        let ops: Vec<(u64, u64, bool)> =
            edges.iter().map(|&(s, d)| (s, d, true)).collect();
        Ok(self.update_edges(client, &ops)?.0)
    }

    /// Remove directed edges (see [`NeighborTableHandle::update_edges`]).
    /// Returns how many were removed (absent edges are skipped).
    pub fn remove_edges(&self, client: &NodeClock, edges: &[(u64, u64)]) -> Result<usize> {
        let ops: Vec<(u64, u64, bool)> =
            edges.iter().map(|&(s, d)| (s, d, false)).collect();
        Ok(self.update_edges(client, &ops)?.1)
    }

    /// Pull the adjacency of `ids`. Vertices with no entry return an empty
    /// list. Result aligns with the input.
    pub fn pull(&self, client: &NodeClock, ids: &[u64]) -> Result<Vec<Arc<Vec<u64>>>> {
        self.check(ids)?;
        static EMPTY: std::sync::OnceLock<Arc<Vec<u64>>> = std::sync::OnceLock::new();
        let empty = EMPTY.get_or_init(|| Arc::new(Vec::new()));
        let mut out: Vec<Arc<Vec<u64>>> = vec![Arc::clone(empty); ids.len()];
        for (s, parts) in self.layout.group_positions(ids.iter().copied()) {
            let server = self.ps.server(s);
            server.ensure_alive()?;
            let mut resp_bytes = 0u64;
            let mut items = 0u64;
            for (p, positions) in &parts {
                server.get(&self.name, *p, |part: &TablePart| {
                    for &pos in positions {
                        if let Some(e) = part.get(&ids[pos]) {
                            let ns = e.live();
                            resp_bytes += ns.len() as u64 * 8 + 16;
                            items += ns.len() as u64 + 1;
                            out[pos] = ns;
                        }
                    }
                })?;
            }
            self.ps.network().rpc(
                client,
                server.port(),
                parts.values().map(|v| v.len() as u64 * 8).sum(),
                items * self.ps.config().ops_per_item,
                resp_bytes,
            );
        }
        Ok(out)
    }

    /// Out-degrees of `ids` (server-side; only counts cross the wire).
    pub fn degrees(&self, client: &NodeClock, ids: &[u64]) -> Result<Vec<u64>> {
        self.check(ids)?;
        let mut out = vec![0u64; ids.len()];
        for (s, parts) in self.layout.group_positions(ids.iter().copied()) {
            let server = self.ps.server(s);
            server.ensure_alive()?;
            let n: usize = parts.values().map(Vec::len).sum();
            self.ps.network().rpc(
                client,
                server.port(),
                n as u64 * 8,
                n as u64 * self.ps.config().ops_per_item,
                n as u64 * 8,
            );
            for (p, positions) in parts {
                server.get(&self.name, p, |part: &TablePart| {
                    for &pos in &positions {
                        out[pos] = part.get(&ids[pos]).map_or(0, |e| e.live_len() as u64);
                    }
                })?;
            }
        }
        Ok(out)
    }

    /// Server-side fixed-size neighbor sampling (GraphSage §IV-E): for each
    /// requested vertex return at most `k` neighbors, sampled without
    /// replacement, so only the sample crosses the wire.
    pub fn sample_neighbors(
        &self,
        client: &NodeClock,
        ids: &[u64],
        k: usize,
        seed: u64,
    ) -> Result<Vec<Vec<u64>>> {
        self.check(ids)?;
        let mut out: Vec<Vec<u64>> = vec![Vec::new(); ids.len()];
        for (s, parts) in self.layout.group_positions(ids.iter().copied()) {
            let server = self.ps.server(s);
            server.ensure_alive()?;
            let n: usize = parts.values().map(Vec::len).sum();
            self.ps.network().rpc(
                client,
                server.port(),
                n as u64 * 8,
                (n * k) as u64 * self.ps.config().ops_per_item,
                (n * k) as u64 * 8,
            );
            for (p, positions) in parts {
                server.get(&self.name, p, |part: &TablePart| {
                    for &pos in &positions {
                        let v = ids[pos];
                        if let Some(e) = part.get(&v) {
                            let ns = e.live();
                            let mut rng = SplitMix64::new(seed ^ v.wrapping_mul(0x9E37_79B9));
                            if ns.len() <= k {
                                out[pos] = ns.as_ref().clone();
                            } else {
                                // Partial Fisher–Yates over indices.
                                let mut idx: Vec<usize> = (0..ns.len()).collect();
                                for i in 0..k {
                                    let j = i + rng.next_below((idx.len() - i) as u64) as usize;
                                    idx.swap(i, j);
                                }
                                out[pos] = idx[..k].iter().map(|&i| ns[i]).collect();
                            }
                        }
                    }
                })?;
            }
        }
        Ok(out)
    }

    /// Number of vertices with entries (diagnostics).
    pub fn len(&self) -> Result<usize> {
        let mut total = 0;
        for p in 0..self.layout.num_partitions {
            let server = self.ps.server(self.layout.server_of_partition(p));
            total += server.get(&self.name, p, |part: &TablePart| part.len())?;
        }
        Ok(total)
    }

    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Per-partition write versions (delta export diffs against these).
    pub fn partition_versions(&self) -> Result<Vec<u64>> {
        (0..self.layout.num_partitions)
            .map(|p| {
                self.ps
                    .server(self.layout.server_of_partition(p))
                    .version(&self.name, p)
            })
            .collect()
    }

    /// Bytes resident on servers.
    pub fn resident_bytes(&self) -> Result<u64> {
        let mut total = 0;
        for p in 0..self.layout.num_partitions {
            let server = self.ps.server(self.layout.server_of_partition(p));
            total += server.get(&self.name, p, |part: &TablePart| part_bytes(part))?;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ps::PsConfig;
    use psgraph_dfs::Dfs;

    fn ps() -> Arc<Ps> {
        Ps::new(PsConfig { servers: 3, ..Default::default() })
    }

    fn table(ps: &Arc<Ps>) -> NeighborTableHandle {
        NeighborTableHandle::create(ps, "adj", 100, Partitioner::Hash, RecoveryMode::Inconsistent)
            .unwrap()
    }

    #[test]
    fn push_pull_roundtrip() {
        let ps = ps();
        let c = NodeClock::new();
        let t = table(&ps);
        t.push(&c, &[(1, vec![2, 3, 4]), (2, vec![1]), (99, vec![0])]).unwrap();
        let got = t.pull(&c, &[2, 99, 1, 50]).unwrap();
        assert_eq!(*got[0], vec![1]);
        assert_eq!(*got[1], vec![0]);
        assert_eq!(*got[2], vec![2, 3, 4]);
        assert!(got[3].is_empty(), "missing vertex reads as empty");
        assert_eq!(t.len().unwrap(), 3);
        assert!(!t.is_empty().unwrap());
    }

    #[test]
    fn push_replaces_existing_entry() {
        let ps = ps();
        let c = NodeClock::new();
        let t = table(&ps);
        t.push(&c, &[(5, vec![1, 2])]).unwrap();
        t.push(&c, &[(5, vec![9])]).unwrap();
        assert_eq!(*t.pull(&c, &[5]).unwrap()[0], vec![9]);
    }

    #[test]
    fn degrees_match_entries() {
        let ps = ps();
        let c = NodeClock::new();
        let t = table(&ps);
        t.push(&c, &[(0, vec![1, 2, 3]), (1, vec![])]).unwrap();
        assert_eq!(t.degrees(&c, &[0, 1, 2]).unwrap(), vec![3, 0, 0]);
    }

    #[test]
    fn out_of_range_rejected() {
        let ps = ps();
        let c = NodeClock::new();
        let t = table(&ps);
        assert!(t.pull(&c, &[100]).is_err());
        assert!(t.push(&c, &[(100, vec![])]).is_err());
        assert!(t.add_edges(&c, &[(1, 100)]).is_err(), "dst is bounds-checked too");
        assert!(t.remove_edges(&c, &[(100, 1)]).is_err());
    }

    #[test]
    fn add_edges_appends_and_skips_duplicates() {
        let ps = ps();
        let c = NodeClock::new();
        let t = table(&ps);
        t.push(&c, &[(1, vec![2, 3])]).unwrap();
        let added = t.add_edges(&c, &[(1, 4), (1, 2), (7, 8), (1, 4)]).unwrap();
        assert_eq!(added, 2, "duplicate (1,2) and repeated (1,4) are skipped");
        assert_eq!(*t.pull(&c, &[1]).unwrap()[0], vec![2, 3, 4], "adds append in order");
        assert_eq!(*t.pull(&c, &[7]).unwrap()[0], vec![8], "absent source gets a fresh entry");
        assert_eq!(t.degrees(&c, &[1, 7]).unwrap(), vec![3, 1]);
    }

    #[test]
    fn remove_edges_deletes_in_place_and_preserves_order() {
        let ps = ps();
        let c = NodeClock::new();
        let t = table(&ps);
        t.push(&c, &[(1, vec![2, 3, 4, 5, 6])]).unwrap();
        let full = t.resident_bytes().unwrap();
        let removed = t.remove_edges(&c, &[(1, 3), (1, 99), (2, 5)]).unwrap();
        assert_eq!(removed, 1, "absent edges are skipped");
        assert_eq!(*t.pull(&c, &[1]).unwrap()[0], vec![2, 4, 5, 6]);
        assert_eq!(t.degrees(&c, &[1]).unwrap(), vec![4]);
        assert_eq!(t.resident_bytes().unwrap(), full - 8, "the removed slot is freed");
        let s = t.sample_neighbors(&c, &[1], 10, 42).unwrap();
        assert_eq!(s[0], vec![2, 4, 5, 6]);
    }

    #[test]
    fn add_remove_add_roundtrip_in_one_batch() {
        let ps = ps();
        let c = NodeClock::new();
        let t = table(&ps);
        // Interleaved ops on one source must resolve in stream order:
        // add, remove, re-add → present once, now at the end of the list.
        t.push(&c, &[(1, vec![2, 3])]).unwrap();
        let (a, r) = t
            .update_edges(&c, &[(1, 2, false), (1, 4, true), (1, 2, true)])
            .unwrap();
        assert_eq!((a, r), (2, 1));
        assert_eq!(*t.pull(&c, &[1]).unwrap()[0], vec![3, 4, 2]);
    }

    #[test]
    fn footprint_shrinks_by_one_slot_per_removal() {
        let ps = ps();
        let c = NodeClock::new();
        let t = table(&ps);
        let big: Vec<u64> = (0..64).collect();
        t.push(&c, &[(1, big.clone())]).unwrap();
        let full = t.resident_bytes().unwrap();
        // Remove every other neighbor, one call at a time: after k
        // removals the footprint is exactly k slots smaller and the
        // survivors keep their insertion order.
        for (k, d) in (0..64u64).step_by(2).enumerate() {
            assert_eq!(t.remove_edges(&c, &[(1, d)]).unwrap(), 1);
            assert_eq!(t.resident_bytes().unwrap(), full - 8 * (k as u64 + 1));
        }
        let live: Vec<u64> = (1..64).step_by(2).collect();
        assert_eq!(*t.pull(&c, &[1]).unwrap()[0], live);
        // Adds still append after removals.
        assert_eq!(t.add_edges(&c, &[(1, 0)]).unwrap(), 1);
        assert_eq!(t.degrees(&c, &[1]).unwrap(), vec![33]);
        assert_eq!(t.pull(&c, &[1]).unwrap()[0].last(), Some(&0));
        assert_eq!(t.resident_bytes().unwrap(), full - 8 * 31);
    }

    #[test]
    fn sharded_update_matches_sequential_lanes() {
        let lane0: Vec<(u64, u64, bool)> = vec![(1, 2, false), (1, 9, true), (1, 2, true)];
        let lane1: Vec<(u64, u64, bool)> = vec![(60, 61, false), (60, 62, true), (61, 1, true)];
        let base = [(1u64, vec![2u64, 3]), (60, vec![61])];

        let ps1 = ps();
        let t1 = table(&ps1);
        let (c0, c1) = (NodeClock::new(), NodeClock::new());
        t1.push(&c0, &base).unwrap();
        let got = t1.update_edges_sharded(&[(&c0, &lane0), (&c1, &lane1)]).unwrap();
        assert_eq!(got, vec![(2, 1), (2, 1)]);

        let ps2 = ps();
        let t2 = table(&ps2);
        let c = NodeClock::new();
        t2.push(&c, &base).unwrap();
        t2.update_edges(&c, &lane0).unwrap();
        t2.update_edges(&c, &lane1).unwrap();
        for v in [1u64, 60, 61, 9, 62] {
            assert_eq!(t1.pull(&c0, &[v]).unwrap(), t2.pull(&c, &[v]).unwrap());
        }
    }

    #[test]
    fn update_edges_bumps_partition_versions() {
        let ps = ps();
        let c = NodeClock::new();
        let t = table(&ps);
        let before = t.partition_versions().unwrap();
        t.add_edges(&c, &[(1, 2)]).unwrap();
        let after = t.partition_versions().unwrap();
        let p = t.layout().partition_of(1);
        assert_eq!(after[p], before[p] + 1);
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            if i != p {
                assert_eq!(b, a, "untouched partitions keep their version");
            }
        }
    }

    #[test]
    fn sampling_bounds_and_determinism() {
        let ps = ps();
        let c = NodeClock::new();
        let t = table(&ps);
        let big: Vec<u64> = (1..=50).collect();
        t.push(&c, &[(7, big.clone()), (8, vec![1, 2])]).unwrap();
        let s1 = t.sample_neighbors(&c, &[7, 8, 9], 10, 42).unwrap();
        assert_eq!(s1[0].len(), 10);
        assert_eq!(s1[1], vec![1, 2], "small lists returned whole");
        assert!(s1[2].is_empty());
        // Sampled values come from the true neighbor set, no duplicates.
        let set: std::collections::HashSet<u64> = s1[0].iter().copied().collect();
        assert_eq!(set.len(), 10);
        assert!(set.iter().all(|v| big.contains(v)));
        // Deterministic per (seed, vertex).
        let s2 = t.sample_neighbors(&c, &[7], 10, 42).unwrap();
        assert_eq!(s1[0], s2[0]);
        let s3 = t.sample_neighbors(&c, &[7], 10, 43).unwrap();
        assert_ne!(s1[0], s3[0], "different seed should change the sample");
    }

    #[test]
    fn memory_grows_with_pushes() {
        let ps = ps();
        let c = NodeClock::new();
        let t = table(&ps);
        let before = t.resident_bytes().unwrap();
        t.push(&c, &[(1, (0..1000).collect())]).unwrap();
        assert!(t.resident_bytes().unwrap() >= before + 8000);
    }

    #[test]
    fn oom_on_tiny_server_budget() {
        let ps = Ps::new(PsConfig { servers: 1, memory_per_server: 512, ..Default::default() });
        let c = NodeClock::new();
        let t = NeighborTableHandle::create(
            &ps, "adj", 100, Partitioner::Hash, RecoveryMode::Inconsistent,
        )
        .unwrap();
        let err = t.push(&c, &[(1, (0..10_000).collect())]).unwrap_err();
        assert!(matches!(err, PsError::Oom(_)));
    }

    #[test]
    fn checkpoint_restore_roundtrip() {
        let ps = ps();
        let c = NodeClock::new();
        let dfs = Dfs::in_memory();
        let t = table(&ps);
        t.push(&c, &[(1, vec![2, 3]), (50, vec![60, 70, 80])]).unwrap();
        t.remove_edges(&c, &[(50, 70)]).unwrap();
        let resident = t.resident_bytes().unwrap();
        ps.checkpoint(&dfs, "adj").unwrap();
        for s in 0..ps.num_servers() {
            ps.kill_server(s);
            ps.restart_server(s, c.now());
            ps.recover_server(s, &dfs, &c).unwrap();
        }
        assert_eq!(*t.pull(&c, &[1]).unwrap()[0], vec![2, 3]);
        assert_eq!(*t.pull(&c, &[50]).unwrap()[0], vec![60, 80]);
        assert_eq!(t.len().unwrap(), 2);
        assert_eq!(t.resident_bytes().unwrap(), resident, "restore keeps the footprint");
    }

    #[test]
    fn encode_decode_part_roundtrip() {
        let mut part = TablePart::default();
        part.insert(3, NeighborEntry::new(vec![1, 2]));
        part.insert(9, NeighborEntry::new(vec![]));
        let decoded = decode_part(&encode_part(&part)).unwrap();
        assert_eq!(decoded.len(), 2);
        assert_eq!(*decoded[&3].live(), vec![1, 2]);
        assert_eq!(decoded[&9].live_len(), 0);
        assert!(decode_part(&[1, 2]).is_err());
    }
}
