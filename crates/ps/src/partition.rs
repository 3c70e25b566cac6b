//! Partitioning strategies for PS data (paper §III-A: "We implement hash
//! partition, range partition, and hash-range partition").
//!
//! A [`PartitionLayout`] maps a key space `[0, size)` (vertex indices, row
//! indices, or column indices) to `num_partitions` partitions, and each
//! partition to a server (round-robin). Range partitioning keeps contiguous
//! blocks together (cheap dense storage, range pulls); hash partitioning
//! spreads skewed access; hash-range buckets by hash first and then splits
//! each bucket by range (the hybrid-range strategy the paper cites).

use psgraph_sim::hash::hash_u64;
use psgraph_sim::FxHashMap;

/// The partitioning strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Partitioner {
    /// `partition = hash(key) % n`.
    Hash,
    /// Contiguous ranges of keys per partition.
    Range,
    /// Hash into `buckets` groups, range-split within each group.
    HashRange { buckets: usize },
}

/// A concrete layout: strategy + key-space size + partition count +
/// server count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionLayout {
    pub partitioner: Partitioner,
    pub size: u64,
    pub num_partitions: usize,
    pub num_servers: usize,
}

impl PartitionLayout {
    pub fn new(
        partitioner: Partitioner,
        size: u64,
        num_partitions: usize,
        num_servers: usize,
    ) -> Self {
        assert!(num_partitions > 0, "need at least one partition");
        assert!(num_servers > 0, "need at least one server");
        if let Partitioner::HashRange { buckets } = partitioner {
            assert!(buckets > 0, "hash-range needs at least one bucket");
            assert!(
                num_partitions.is_multiple_of(buckets),
                "hash-range partitions ({num_partitions}) must be a multiple of buckets ({buckets})"
            );
        }
        PartitionLayout { partitioner, size, num_partitions, num_servers }
    }

    /// Default layout: one range partition per server.
    pub fn range(size: u64, num_servers: usize) -> Self {
        Self::new(Partitioner::Range, size, num_servers, num_servers)
    }

    /// Default hash layout: one partition per server.
    pub fn hash(size: u64, num_servers: usize) -> Self {
        Self::new(Partitioner::Hash, size, num_servers, num_servers)
    }

    /// Range block length (last block absorbs the remainder).
    fn range_block(&self, parts: u64) -> u64 {
        (self.size / parts).max(1)
    }

    /// Partition holding `key`.
    pub fn partition_of(&self, key: u64) -> usize {
        debug_assert!(key < self.size || self.size == 0, "key {key} >= size {}", self.size);
        let n = self.num_partitions as u64;
        match self.partitioner {
            Partitioner::Hash => (hash_u64(key) % n) as usize,
            Partitioner::Range => {
                let block = self.range_block(n);
                ((key / block).min(n - 1)) as usize
            }
            Partitioner::HashRange { buckets } => {
                let buckets = buckets as u64;
                let per_bucket = n / buckets;
                let bucket = hash_u64(key) % buckets;
                let block = self.range_block(per_bucket);
                let within = (key / block).min(per_bucket - 1);
                (bucket * per_bucket + within) as usize
            }
        }
    }

    /// Server hosting a partition (round-robin placement).
    pub fn server_of_partition(&self, partition: usize) -> usize {
        partition % self.num_servers
    }

    /// Server hosting `key`.
    pub fn server_of(&self, key: u64) -> usize {
        self.server_of_partition(self.partition_of(key))
    }

    /// For range partitions: the key interval `[start, end)` of `partition`.
    /// Returns `None` for hash-style layouts (no contiguous interval).
    pub fn range_of(&self, partition: usize) -> Option<(u64, u64)> {
        match self.partitioner {
            Partitioner::Range => {
                let n = self.num_partitions as u64;
                let block = self.range_block(n);
                let p = partition as u64;
                let start = (p * block).min(self.size);
                let end = if p == n - 1 { self.size } else { ((p + 1) * block).min(self.size) };
                Some((start, end))
            }
            _ => None,
        }
    }

    /// Whether partitions are contiguous ranges (dense storage possible).
    pub fn is_range(&self) -> bool {
        matches!(self.partitioner, Partitioner::Range)
    }

    /// Partitions hosted by `server`.
    pub fn partitions_of_server(&self, server: usize) -> Vec<usize> {
        (0..self.num_partitions)
            .filter(|&p| self.server_of_partition(p) == server)
            .collect()
    }

    /// Group the positions of `keys` by (server, partition) for one client
    /// call; positions keep input order within a partition. Both map
    /// levels insert their keys in first-appearance order, so iterating
    /// the result visits servers and partitions in a fixed order — the
    /// order that sequences a call's RPCs on the client clock.
    pub fn group_positions(
        &self,
        keys: impl IntoIterator<Item = u64>,
    ) -> FxHashMap<usize, FxHashMap<usize, Vec<usize>>> {
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); self.num_partitions];
        let mut first_seen: Vec<usize> = Vec::new();
        for (pos, k) in keys.into_iter().enumerate() {
            let p = self.partition_of(k);
            if buckets[p].is_empty() {
                first_seen.push(p);
            }
            buckets[p].push(pos);
        }
        let mut groups: FxHashMap<usize, FxHashMap<usize, Vec<usize>>> = FxHashMap::default();
        for p in first_seen {
            groups
                .entry(self.server_of_partition(p))
                .or_default()
                .insert(p, std::mem::take(&mut buckets[p]));
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn covers_all(layout: &PartitionLayout) {
        for k in 0..layout.size {
            let p = layout.partition_of(k);
            assert!(p < layout.num_partitions, "key {k} → bad partition {p}");
            let s = layout.server_of(k);
            assert!(s < layout.num_servers);
        }
    }

    #[test]
    fn hash_layout_covers_and_balances() {
        let l = PartitionLayout::new(Partitioner::Hash, 10_000, 8, 4);
        covers_all(&l);
        let mut counts = vec![0u64; 8];
        for k in 0..10_000 {
            counts[l.partition_of(k)] += 1;
        }
        for &c in &counts {
            assert!(c > 700 && c < 1800, "unbalanced: {counts:?}");
        }
    }

    #[test]
    fn range_layout_is_contiguous() {
        let l = PartitionLayout::new(Partitioner::Range, 100, 4, 2);
        covers_all(&l);
        assert_eq!(l.partition_of(0), 0);
        assert_eq!(l.partition_of(24), 0);
        assert_eq!(l.partition_of(25), 1);
        assert_eq!(l.partition_of(99), 3);
        assert_eq!(l.range_of(0), Some((0, 25)));
        assert_eq!(l.range_of(3), Some((75, 100)));
    }

    #[test]
    fn range_last_partition_absorbs_remainder() {
        let l = PartitionLayout::new(Partitioner::Range, 10, 3, 3);
        covers_all(&l);
        // block = 3: partitions hold [0,3) [3,6) [6,10)
        assert_eq!(l.range_of(2), Some((6, 10)));
        assert_eq!(l.partition_of(9), 2);
    }

    #[test]
    fn range_with_more_partitions_than_keys() {
        let l = PartitionLayout::new(Partitioner::Range, 2, 4, 2);
        covers_all(&l);
        // Every key maps to a valid partition even when partitions > keys.
        assert!(l.partition_of(1) < 4);
    }

    #[test]
    fn hash_range_covers_and_respects_buckets() {
        let l = PartitionLayout::new(Partitioner::HashRange { buckets: 2 }, 1000, 8, 4);
        covers_all(&l);
        // Keys in the same hash bucket and close in index share partitions;
        // coverage of all 8 partitions should still happen.
        let mut used = std::collections::HashSet::new();
        for k in 0..1000 {
            used.insert(l.partition_of(k));
        }
        assert!(used.len() >= 6, "only {} partitions used", used.len());
    }

    #[test]
    #[should_panic(expected = "multiple of buckets")]
    fn hash_range_validates_divisibility() {
        PartitionLayout::new(Partitioner::HashRange { buckets: 3 }, 10, 8, 2);
    }

    #[test]
    fn server_round_robin() {
        let l = PartitionLayout::new(Partitioner::Range, 100, 6, 3);
        assert_eq!(l.server_of_partition(0), 0);
        assert_eq!(l.server_of_partition(4), 1);
        assert_eq!(l.partitions_of_server(0), vec![0, 3]);
        assert_eq!(l.partitions_of_server(2), vec![2, 5]);
    }

    #[test]
    fn group_positions_matches_per_key_map_build() {
        // The nested maps must iterate exactly like maps built one key at
        // a time with `entry().or_default()` — callers' RPC order (and so
        // simulated time) depends on it.
        for layout in [
            PartitionLayout::hash(1000, 4),
            PartitionLayout::new(Partitioner::Range, 1000, 8, 3),
            PartitionLayout::new(Partitioner::HashRange { buckets: 2 }, 1000, 8, 4),
        ] {
            let keys: Vec<u64> = (0..300u64).map(|i| (i * 7919 + 13) % 1000).collect();
            let mut want: FxHashMap<usize, FxHashMap<usize, Vec<usize>>> = FxHashMap::default();
            for (pos, &k) in keys.iter().enumerate() {
                let p = layout.partition_of(k);
                want.entry(layout.server_of_partition(p)).or_default().entry(p).or_default().push(pos);
            }
            let got = layout.group_positions(keys.iter().copied());
            let flat = |m: &FxHashMap<usize, FxHashMap<usize, Vec<usize>>>| {
                m.iter()
                    .map(|(s, parts)| {
                        (*s, parts.iter().map(|(p, v)| (*p, v.clone())).collect::<Vec<_>>())
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(flat(&got), flat(&want));
        }
    }

    #[test]
    fn range_of_none_for_hash() {
        let l = PartitionLayout::hash(100, 4);
        assert_eq!(l.range_of(0), None);
        assert!(!l.is_range());
        assert!(PartitionLayout::range(100, 4).is_range());
    }

    #[test]
    fn deterministic_across_instances() {
        let a = PartitionLayout::hash(1000, 4);
        let b = PartitionLayout::hash(1000, 4);
        for k in 0..1000 {
            assert_eq!(a.partition_of(k), b.partition_of(k));
        }
    }
}
