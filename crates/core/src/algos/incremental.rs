//! Incremental maintenance of PageRank and connected components over a
//! mutating graph — the computation half of the streaming loop
//! (`psgraph-stream` feeds these from micro-batches of edge events).
//!
//! **PageRank** uses Gauss–Southwell residual pushing. The PS holds two
//! vectors, `ranks` and `res`, with the invariant
//!
//! ```text
//! res = (1-d)·1 + d·Aᵀ·ranks − ranks        A[u][x] = 1/out_deg(u)
//! ```
//!
//! so `ranks` converges to the unnormalized fixed point
//! `r = (1-d)·1 + d·Aᵀ·r` as residuals are pushed below a threshold.
//! When an out-list changes, the invariant is repaired *locally*: only
//! the changed row of `A` touches `res`, scaled by the vertex's current
//! rank — no global recompute. Re-pushing then spreads the correction
//! only as far as it matters (|res| > threshold).
//!
//! **Connected components** keeps the min-member-id labeling of
//! [`psgraph_graph::metrics::connected_components`] (weakly connected,
//! edges treated as undirected). A batch's adds union labels first, in
//! O(smaller component) each. Then every component a removal hit is
//! recomputed once from its members' live out-lists — bounded by the
//! component size, never the graph, and never repeated within a batch.

use std::sync::Arc;

use psgraph_ps::{NeighborTableHandle, Partitioner, Ps, RecoveryMode, VectorHandle};
use psgraph_sim::{FxHashMap, NodeClock};

use crate::error::{CoreError, Result};

/// Tuning for the residual-push PageRank maintainer.
#[derive(Debug, Clone)]
pub struct IncrementalPageRank {
    pub damping: f64,
    /// Residuals at or below this magnitude are left in place instead of
    /// pushed. Accuracy is ~`threshold · n / (1-d)` in L∞, so the default
    /// keeps modest graphs far inside 1e-6.
    pub threshold: f64,
    /// Safety valve on push rounds per [`IncrementalPageRank::propagate`].
    pub max_rounds: usize,
}

impl Default for IncrementalPageRank {
    fn default() -> Self {
        IncrementalPageRank { damping: 0.85, threshold: 1e-12, max_rounds: 100_000 }
    }
}

/// PS-resident state of one incrementally-maintained PageRank: the rank
/// and residual vectors plus the driver's dirty frontier and scratch.
pub struct PrState {
    pub ranks: VectorHandle<f64>,
    residuals: VectorHandle<f64>,
    /// Vertices whose residual may exceed the threshold; sorted, distinct.
    dirty: Vec<u64>,
    /// Per-vertex residual contributions of one push round or batch.
    acc: DenseAcc,
    /// Per-vertex membership bits ([`IN_OLD`], [`IN_NEW`]) of the out-list
    /// pair `on_batch` is diffing; all zero between effects.
    member: Vec<u8>,
    n: u64,
}

const IN_OLD: u8 = 1;
const IN_NEW: u8 = 2;

impl PrState {
    /// Number of frontier vertices awaiting a push check.
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Driver-side reset after PS crash recovery: the rank/residual
    /// vectors were rolled back to a checkpoint taken at a *converged*
    /// batch boundary (empty frontier), so the matching driver state is an
    /// empty dirty set. The event-log replay re-dirties exactly what the
    /// original run did.
    pub fn reset_after_recovery(&mut self) {
        self.dirty.clear();
    }
}

/// Dense per-vertex accumulator: each touched vertex's sum starts at 0.0
/// and folds its contributions in call order; [`DenseAcc::drain_sorted`]
/// hands the sums back in ascending vertex order.
struct DenseAcc {
    sum: Vec<f64>,
    seen: Vec<bool>,
    touched: Vec<u64>,
}

impl DenseAcc {
    fn new(n: u64) -> Self {
        DenseAcc { sum: vec![0.0; n as usize], seen: vec![false; n as usize], touched: Vec::new() }
    }

    fn add(&mut self, x: u64, w: f64) {
        let i = x as usize;
        if !self.seen[i] {
            self.seen[i] = true;
            self.touched.push(x);
        }
        self.sum[i] += w;
    }

    /// Every touched vertex with its sum, ascending; resets the scratch.
    fn drain_sorted(&mut self) -> (Vec<u64>, Vec<f64>) {
        let mut ids = std::mem::take(&mut self.touched);
        ids.sort_unstable();
        let vals = ids
            .iter()
            .map(|&x| {
                let i = x as usize;
                self.seen[i] = false;
                std::mem::replace(&mut self.sum[i], 0.0)
            })
            .collect();
        (ids, vals)
    }
}

impl IncrementalPageRank {
    /// Allocate `{prefix}.ranks` and `{prefix}.res` on the PS.
    pub fn create_state(&self, ps: &Arc<Ps>, prefix: &str, n: u64) -> Result<PrState> {
        let ranks = VectorHandle::<f64>::create(
            ps,
            format!("{prefix}.ranks"),
            n,
            Partitioner::Range,
            RecoveryMode::Consistent,
        )?;
        let residuals = VectorHandle::<f64>::create(
            ps,
            format!("{prefix}.res"),
            n,
            Partitioner::Range,
            RecoveryMode::Consistent,
        )?;
        Ok(PrState {
            ranks,
            residuals,
            dirty: Vec::new(),
            acc: DenseAcc::new(n),
            member: vec![0; n as usize],
            n,
        })
    }

    /// Reset to the from-scratch initial condition (`ranks = 0`,
    /// `res = 1-d` everywhere) and push to convergence — a full
    /// recompute, and the baseline incremental runs are verified against.
    pub fn init_full(
        &self,
        st: &mut PrState,
        client: &NodeClock,
        adj: &NeighborTableHandle,
    ) -> Result<usize> {
        st.ranks.fill(client, 0.0)?;
        st.residuals.fill(client, 1.0 - self.damping)?;
        st.dirty = (0..st.n).collect();
        self.propagate(st, client, adj)
    }

    /// Repair the residual invariant after out-list changes. Each effect
    /// is `(src, old_list, new_list)` — the live out-list before and
    /// after the micro-batch was applied to the neighbor table. Call
    /// [`IncrementalPageRank::propagate`] afterwards to re-converge.
    pub fn on_batch(
        &self,
        st: &mut PrState,
        client: &NodeClock,
        effects: &[(u64, Vec<u64>, Vec<u64>)],
    ) -> Result<()> {
        if effects.is_empty() {
            return Ok(());
        }
        let srcs: Vec<u64> = effects.iter().map(|(s, _, _)| *s).collect();
        let ranks = st.ranks.pull(client, &srcs)?;
        let member = &mut st.member;
        for ((_, old, new), r_u) in effects.iter().zip(ranks) {
            if r_u == 0.0 || old == new {
                continue;
            }
            for &x in old {
                member[x as usize] |= IN_OLD;
            }
            for &x in new {
                member[x as usize] |= IN_NEW;
            }
            let inv_old = if old.is_empty() { 0.0 } else { 1.0 / old.len() as f64 };
            let inv_new = if new.is_empty() { 0.0 } else { 1.0 / new.len() as f64 };
            // d·r_u·(row_new − row_old) of the transition matrix.
            for &x in new {
                let w = if member[x as usize] & IN_OLD != 0 { inv_new - inv_old } else { inv_new };
                if w != 0.0 {
                    st.acc.add(x, self.damping * r_u * w);
                }
            }
            for &x in old {
                if member[x as usize] & IN_NEW == 0 {
                    st.acc.add(x, -(self.damping * r_u * inv_old));
                }
            }
            for &x in old.iter().chain(new) {
                member[x as usize] = 0;
            }
        }
        let (ids, sums) = st.acc.drain_sorted();
        let (idx, vals): (Vec<u64>, Vec<f64>) =
            ids.into_iter().zip(sums).filter(|&(_, w)| w != 0.0).unzip();
        if !idx.is_empty() {
            st.residuals.push_add(client, &idx, &vals)?;
            st.dirty.extend(idx);
            st.dirty.sort_unstable();
            st.dirty.dedup();
        }
        Ok(())
    }

    /// Push residuals until every vertex is at or below the threshold.
    /// Returns the number of push rounds.
    pub fn propagate(
        &self,
        st: &mut PrState,
        client: &NodeClock,
        adj: &NeighborTableHandle,
    ) -> Result<usize> {
        let mut rounds = 0usize;
        while !st.dirty.is_empty() {
            let frontier = std::mem::take(&mut st.dirty);
            let res = st.residuals.pull(client, &frontier)?;
            let (idx, vals): (Vec<u64>, Vec<f64>) = frontier
                .into_iter()
                .zip(res)
                .filter(|&(_, r)| r.abs() > self.threshold)
                .unzip();
            if idx.is_empty() {
                break;
            }
            rounds += 1;
            if rounds > self.max_rounds {
                return Err(CoreError::Invalid(format!(
                    "incremental pagerank did not converge within {} rounds",
                    self.max_rounds
                )));
            }
            // Absorb the residual into the rank, then zero it exactly
            // (x + (-x) == 0 in IEEE 754).
            st.ranks.push_add(client, &idx, &vals)?;
            let negs: Vec<f64> = vals.iter().map(|v| -v).collect();
            st.residuals.push_add(client, &idx, &negs)?;
            // Distribute d·res/deg to out-neighbors, folding contributions
            // in source order so the result is partition-independent.
            let lists = adj.pull(client, &idx)?;
            for (r, list) in vals.iter().zip(&lists) {
                if list.is_empty() {
                    continue;
                }
                let contrib = self.damping * r / list.len() as f64;
                for &x in list.iter() {
                    st.acc.add(x, contrib);
                }
            }
            let (ids, vs) = st.acc.drain_sorted();
            if !ids.is_empty() {
                st.residuals.push_add(client, &ids, &vs)?;
                st.dirty = ids;
            }
        }
        Ok(rounds)
    }

    /// Current ranks (unnormalized, like [`crate::algos::PageRank`]).
    pub fn ranks(&self, st: &PrState, client: &NodeClock) -> Result<Vec<f64>> {
        Ok(st.ranks.pull_all(client)?)
    }
}

/// Counters from one [`IncrementalCc::on_batch`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CcStats {
    /// Adds that merged two components.
    pub unions: usize,
    /// Components recomputed: each distinct component the batch's removes
    /// hit, counted once however many removes landed in it.
    pub recomputes: usize,
    /// Vertices whose label changed (pushed to the PS).
    pub relabeled: usize,
}

/// Incrementally-maintained weakly-connected components with
/// min-member-id labels, mirroring
/// [`psgraph_graph::metrics::connected_components`].
pub struct IncrementalCc {
    pub labels: VectorHandle<u64>,
    /// Driver-side copy of every label (what the PS holds).
    mirror: Vec<u64>,
    /// Component label → sorted member list.
    members: FxHashMap<u64, Vec<u64>>,
    n: u64,
}

impl IncrementalCc {
    /// Allocate `{prefix}.labels` on the PS; every vertex starts in its
    /// own singleton component.
    pub fn create(ps: &Arc<Ps>, prefix: &str, n: u64) -> Result<Self> {
        let labels = VectorHandle::<u64>::create(
            ps,
            format!("{prefix}.labels"),
            n,
            Partitioner::Range,
            RecoveryMode::Consistent,
        )?;
        let ids: Vec<u64> = (0..n).collect();
        labels.push_set(&NodeClock::new(), &ids, &ids)?;
        let members = ids.iter().map(|&v| (v, vec![v])).collect();
        Ok(IncrementalCc { labels, mirror: ids, members, n })
    }

    /// Union components from the full out-table (initial bootstrap after
    /// base training).
    pub fn bootstrap(&mut self, client: &NodeClock, adj: &NeighborTableHandle) -> Result<()> {
        let ids: Vec<u64> = (0..self.n).collect();
        let lists = adj.pull(client, &ids)?;
        let mut stats = CcStats::default();
        for (u, list) in lists.iter().enumerate() {
            for &w in list.iter() {
                self.union(client, u as u64, w, &mut stats)?;
            }
        }
        Ok(())
    }

    /// Labels as the serving tier and tests see them.
    pub fn labels(&self) -> &[u64] {
        &self.mirror
    }

    /// Rebuild the driver-side mirror and member index from the PS copy
    /// after crash recovery rolled `{prefix}.labels` back to a checkpoint.
    /// Membership lists are grouped in ascending vertex order — the same
    /// canonical order incremental maintenance preserves — so a restored
    /// maintainer replays batches bit-identically to one that never
    /// crashed.
    pub fn restore_from_ps(&mut self, client: &NodeClock) -> Result<()> {
        self.mirror = self.labels.pull_all(client)?;
        let mut members: FxHashMap<u64, Vec<u64>> = FxHashMap::default();
        for (v, &label) in self.mirror.iter().enumerate() {
            members.entry(label).or_default().push(v as u64);
        }
        self.members = members;
        Ok(())
    }

    /// Apply one micro-batch of edge events that were *actually applied*
    /// to the out-table (`add == true` for insertions). All adds union
    /// first; then each component holding a removed edge's source is
    /// recomputed once, in ascending label order, over the post-batch
    /// table. The final labels depend only on the post-batch edge set, not
    /// on the order of events within the batch.
    pub fn on_batch(
        &mut self,
        client: &NodeClock,
        events: &[(u64, u64, bool)],
        adj: &NeighborTableHandle,
    ) -> Result<CcStats> {
        let mut stats = CcStats::default();
        for &(u, w, add) in events {
            if add {
                self.union(client, u, w, &mut stats)?;
            }
        }
        let mut hit: Vec<u64> = events
            .iter()
            .filter(|&&(_, _, add)| !add)
            .map(|&(u, _, _)| self.mirror[u as usize])
            .collect();
        hit.sort_unstable();
        hit.dedup();
        for label in hit {
            self.recompute_component(client, label, adj, &mut stats)?;
        }
        Ok(stats)
    }

    fn union(&mut self, client: &NodeClock, u: u64, w: u64, stats: &mut CcStats) -> Result<()> {
        let (lu, lw) = (self.mirror[u as usize], self.mirror[w as usize]);
        if lu == lw {
            return Ok(());
        }
        stats.unions += 1;
        let (winner, loser) = (lu.min(lw), lu.max(lw));
        let moved = self.members.remove(&loser).expect("loser component exists");
        self.relabel(client, &moved, winner, stats)?;
        let into = self.members.get_mut(&winner).expect("winner component exists");
        into.extend_from_slice(&moved);
        into.sort_unstable();
        Ok(())
    }

    /// Re-derive the split of component `label` from its members' live
    /// out-lists. Sound because, once the batch's adds are unioned, every
    /// tracked component is closed under the post-batch edge set: each
    /// surviving edge was either there before the batch (inside one
    /// component) or added by it (unioned). Member out-lists therefore
    /// cover all of the component's surviving connectivity.
    fn recompute_component(
        &mut self,
        client: &NodeClock,
        label: u64,
        adj: &NeighborTableHandle,
        stats: &mut CcStats,
    ) -> Result<()> {
        stats.recomputes += 1;
        let comp = self.members.get(&label).expect("component exists").clone();
        let index: FxHashMap<u64, usize> =
            comp.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let mut parent: Vec<usize> = (0..comp.len()).collect();
        fn find(parent: &mut [usize], mut v: usize) -> usize {
            while parent[v] != v {
                parent[v] = parent[parent[v]];
                v = parent[v];
            }
            v
        }
        let lists = adj.pull(client, &comp)?;
        for (i, list) in lists.iter().enumerate() {
            for t in list.iter() {
                // Closure means every target is a member; a target
                // outside the set would be a maintenance bug — skip it
                // defensively rather than index out of the component.
                let Some(&j) = index.get(t) else { continue };
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    let (lo, hi) = (ri.min(rj), ri.max(rj));
                    parent[hi] = lo;
                }
            }
        }
        let mut groups: FxHashMap<usize, Vec<u64>> = FxHashMap::default();
        for (i, &v) in comp.iter().enumerate() {
            groups.entry(find(&mut parent, i)).or_default().push(v);
        }
        if groups.len() == 1 {
            return Ok(()); // still connected, labels unchanged
        }
        self.members.remove(&label);
        let mut split: Vec<Vec<u64>> = groups.into_values().collect();
        split.sort_unstable_by_key(|g| g[0]);
        for group in split {
            // `comp` was sorted, so each group is sorted and its first
            // element is the new min-id label.
            let new_label = group[0];
            if new_label != label {
                self.relabel(client, &group, new_label, stats)?;
            }
            self.members.insert(new_label, group);
        }
        Ok(())
    }

    fn relabel(
        &mut self,
        client: &NodeClock,
        vertices: &[u64],
        label: u64,
        stats: &mut CcStats,
    ) -> Result<()> {
        let changed: Vec<u64> =
            vertices.iter().copied().filter(|&v| self.mirror[v as usize] != label).collect();
        if changed.is_empty() {
            return Ok(());
        }
        self.labels.push_set(client, &changed, &vec![label; changed.len()])?;
        for &v in &changed {
            self.mirror[v as usize] = label;
        }
        stats.relabeled += changed.len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psgraph_graph::{gen, metrics, EdgeList};
    use psgraph_ps::PsConfig;
    use psgraph_sim::SplitMix64;

    fn build_table(
        ps: &Arc<Ps>,
        name: &str,
        client: &NodeClock,
        g: &EdgeList,
    ) -> NeighborTableHandle {
        let n = g.num_vertices();
        let mut lists: Vec<Vec<u64>> = vec![Vec::new(); n as usize];
        for &(s, d) in g.edges() {
            lists[s as usize].push(d);
        }
        let entries: Vec<(u64, Vec<u64>)> =
            lists.into_iter().enumerate().map(|(v, l)| (v as u64, l)).collect();
        let h = NeighborTableHandle::create(ps, name, n, Partitioner::Range, RecoveryMode::Consistent).unwrap();
        h.push(client, &entries).unwrap();
        h
    }

    fn linf(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn full_init_matches_batch_pagerank_fixed_point() {
        let g = gen::rmat(48, 300, Default::default(), 5).dedup();
        let ps = Ps::new(PsConfig::default());
        let client = NodeClock::new();
        let adj = build_table(&ps, "t.adj", &client, &g);
        let pr = IncrementalPageRank::default();
        let mut st = pr.create_state(&ps, "t.pr", g.num_vertices()).unwrap();
        let rounds = pr.init_full(&mut st, &client, &adj).unwrap();
        assert!(rounds > 0);
        let got = pr.ranks(&st, &client).unwrap();
        // Independent driver-side power iteration of the same
        // (dangling-mass-dropping) unnormalized fixed point.
        let n = g.num_vertices() as usize;
        let out: Vec<Vec<u64>> = (0..n as u64)
            .map(|v| adj.pull(&client, &[v]).unwrap().remove(0).to_vec())
            .collect();
        let mut want = vec![0.0f64; n];
        for _ in 0..300 {
            let mut next = vec![1.0 - pr.damping; n];
            for (u, list) in out.iter().enumerate() {
                if list.is_empty() {
                    continue;
                }
                let c = pr.damping * want[u] / list.len() as f64;
                for &x in list {
                    next[x as usize] += c;
                }
            }
            want = next;
        }
        assert!(linf(&got, &want) < 1e-6, "L∞ {}", linf(&got, &want));
    }

    #[test]
    fn incremental_tracks_full_recompute_through_random_edits() {
        let g = gen::rmat(40, 200, Default::default(), 9).dedup();
        let n = g.num_vertices();
        let ps = Ps::new(PsConfig::default());
        let client = NodeClock::new();
        let adj = build_table(&ps, "e.adj", &client, &g);
        let pr = IncrementalPageRank::default();
        let mut st = pr.create_state(&ps, "e.pr", n).unwrap();
        pr.init_full(&mut st, &client, &adj).unwrap();

        let mut rng = SplitMix64::new(42);
        let mut live: Vec<(u64, u64)> = g.edges().to_vec();
        for round in 0..6 {
            // A micro-batch of random adds and removes.
            let mut ops: Vec<(u64, u64, bool)> = Vec::new();
            for _ in 0..10 {
                if !live.is_empty() && rng.next_below(3) == 0 {
                    let i = rng.next_below(live.len() as u64) as usize;
                    let (s, d) = live.swap_remove(i);
                    ops.push((s, d, false));
                } else {
                    let s = rng.next_below(n);
                    let d = rng.next_below(n);
                    if !live.contains(&(s, d)) {
                        live.push((s, d));
                        ops.push((s, d, true));
                    }
                }
            }
            // Capture old lists, apply, capture new lists.
            let mut srcs: Vec<u64> = ops.iter().map(|&(s, _, _)| s).collect();
            srcs.sort_unstable();
            srcs.dedup();
            let old: Vec<Vec<u64>> =
                adj.pull(&client, &srcs).unwrap().iter().map(|l| l.to_vec()).collect();
            adj.update_edges(&client, &ops).unwrap();
            let new: Vec<Vec<u64>> =
                adj.pull(&client, &srcs).unwrap().iter().map(|l| l.to_vec()).collect();
            let effects: Vec<(u64, Vec<u64>, Vec<u64>)> = srcs
                .iter()
                .zip(old.iter().zip(&new))
                .map(|(&s, (o, nl))| (s, o.clone(), nl.clone()))
                .collect();
            pr.on_batch(&mut st, &client, &effects).unwrap();
            pr.propagate(&mut st, &client, &adj).unwrap();

            // Full recompute on the current graph, fresh PS names.
            let mut full =
                pr.create_state(&ps, &format!("e.full{round}"), n).unwrap();
            pr.init_full(&mut full, &client, &adj).unwrap();
            let a = pr.ranks(&st, &client).unwrap();
            let b = pr.ranks(&full, &client).unwrap();
            assert!(linf(&a, &b) < 1e-6, "round {round}: L∞ {}", linf(&a, &b));
        }
    }

    #[test]
    fn cc_bootstrap_matches_reference_labels() {
        let g = gen::rmat(64, 150, Default::default(), 21).dedup();
        let ps = Ps::new(PsConfig::default());
        let client = NodeClock::new();
        let adj = build_table(&ps, "c.adj", &client, &g);
        let mut cc = IncrementalCc::create(&ps, "c.cc", g.num_vertices()).unwrap();
        cc.bootstrap(&client, &adj).unwrap();
        assert_eq!(cc.labels(), metrics::connected_components(&g).as_slice());
        // PS copy agrees with the mirror.
        assert_eq!(cc.labels.pull_all(&client).unwrap(), cc.labels());
    }

    #[test]
    fn cc_tracks_reference_through_adds_and_removes() {
        let n = 32u64;
        let g = gen::erdos_renyi(n, 50, 3).dedup();
        let ps = Ps::new(PsConfig::default());
        let client = NodeClock::new();
        let adj = build_table(&ps, "d.adj", &client, &g);
        let mut cc = IncrementalCc::create(&ps, "d.cc", n).unwrap();
        cc.bootstrap(&client, &adj).unwrap();

        let mut rng = SplitMix64::new(77);
        let mut live: Vec<(u64, u64)> = g.edges().to_vec();
        for round in 0..8 {
            let mut ops: Vec<(u64, u64, bool)> = Vec::new();
            for _ in 0..6 {
                if !live.is_empty() && rng.next_below(2) == 0 {
                    let i = rng.next_below(live.len() as u64) as usize;
                    let (s, d) = live.swap_remove(i);
                    ops.push((s, d, false));
                } else {
                    let s = rng.next_below(n);
                    let d = rng.next_below(n);
                    if s != d && !live.contains(&(s, d)) {
                        live.push((s, d));
                        ops.push((s, d, true));
                    }
                }
            }
            adj.update_edges(&client, &ops).unwrap();
            let stats = cc.on_batch(&client, &ops, &adj).unwrap();
            let reference =
                metrics::connected_components(&EdgeList::new(n, live.clone()));
            assert_eq!(cc.labels(), reference.as_slice(), "round {round} ({stats:?})");
            assert_eq!(cc.labels.pull_all(&client).unwrap(), cc.labels());
        }
    }

    #[test]
    fn cc_split_and_rejoin_one_bridge() {
        // Two triangles joined by a bridge; cutting the bridge splits
        // them, re-adding it merges them back.
        let edges = vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)];
        let ps = Ps::new(PsConfig::default());
        let client = NodeClock::new();
        let g = EdgeList::new(6, edges.clone());
        let adj = build_table(&ps, "b.adj", &client, &g);
        let mut cc = IncrementalCc::create(&ps, "b.cc", 6).unwrap();
        cc.bootstrap(&client, &adj).unwrap();
        assert_eq!(cc.labels(), &[0, 0, 0, 0, 0, 0]);

        adj.update_edges(&client, &[(2, 3, false)]).unwrap();
        let stats = cc.on_batch(&client, &[(2, 3, false)], &adj).unwrap();
        assert_eq!(cc.labels(), &[0, 0, 0, 3, 3, 3]);
        assert_eq!(stats.recomputes, 1);
        assert_eq!(stats.relabeled, 3);

        adj.update_edges(&client, &[(2, 3, true)]).unwrap();
        let stats = cc.on_batch(&client, &[(2, 3, true)], &adj).unwrap();
        assert_eq!(cc.labels(), &[0, 0, 0, 0, 0, 0]);
        assert_eq!(stats.unions, 1);
    }
}
