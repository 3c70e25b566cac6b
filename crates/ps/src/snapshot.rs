//! Read-optimized snapshots of trained PS state.
//!
//! Training leaves ranks/communities/embeddings/adjacency live on the
//! parameter servers; the serving tier (`psgraph-serve`) wants an
//! immutable, flat copy it can shard for read traffic. A
//! [`SnapshotWriter`] pulls each object through the normal client RPC
//! path (charging the exporting client's clock) and writes one flat file
//! per object plus a `MANIFEST` to the DFS:
//!
//! ```text
//! <dir>/MANIFEST            magic, entry count, per-entry (name, kind, rows, cols)
//! <dir>/<name>.snap         kind tag + shape + little-endian payload
//! ```
//!
//! Values are encoded bit-exactly (`to_bits`/`from_bits` for floats), so
//! export → load round-trips f32/f64 with no re-quantization — the serve
//! tier answers with exactly the numbers training produced.

use psgraph_dfs::Dfs;
use psgraph_sim::bytes::{Buf, BufMut};
use psgraph_sim::NodeClock;

use crate::colmatrix::ColMatrixHandle;
use crate::csr::CsrHandle;
use crate::error::{PsError, Result};
use crate::matrix::MatrixHandle;
use crate::neighbor::NeighborTableHandle;
use crate::vector::VectorHandle;

/// Manifest magic ("PSGSNAP2" as big-endian bytes — v2 added the
/// per-partition write versions that delta export diffs against).
const MAGIC: u64 = 0x5053_4753_4E41_5032;

/// Delta file magic ("PSGDLTA1" as big-endian bytes).
const DELTA_MAGIC: u64 = 0x5053_4744_4C54_4131;

/// Rows pulled per RPC when exporting matrices/adjacency (bounds the
/// transient client-side buffer, and matches how a real exporter would
/// stream).
const EXPORT_CHUNK: usize = 4096;

/// What one snapshot object holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotKind {
    VecF64,
    VecU64,
    /// Row-major `rows × cols` f32 (from either a row- or
    /// column-partitioned matrix — the flat form is the same).
    MatF32,
    /// CSR adjacency: `rows + 1` offsets plus packed targets.
    Adjacency,
}

impl SnapshotKind {
    fn tag(self) -> u8 {
        match self {
            SnapshotKind::VecF64 => 0,
            SnapshotKind::VecU64 => 1,
            SnapshotKind::MatF32 => 2,
            SnapshotKind::Adjacency => 3,
        }
    }

    fn from_tag(tag: u8) -> Result<Self> {
        Ok(match tag {
            0 => SnapshotKind::VecF64,
            1 => SnapshotKind::VecU64,
            2 => SnapshotKind::MatF32,
            3 => SnapshotKind::Adjacency,
            t => return Err(PsError::Dfs(format!("unknown snapshot kind tag {t}"))),
        })
    }
}

/// One object in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEntry {
    pub name: String,
    pub kind: SnapshotKind,
    pub rows: u64,
    /// 1 for vectors; the row width for matrices; unused for adjacency.
    pub cols: u32,
    /// The PS object's per-partition write versions at export time —
    /// [`DeltaWriter`] re-exports only the partitions whose version moved
    /// since this manifest.
    pub part_versions: Vec<u64>,
}

/// The snapshot directory listing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotManifest {
    pub entries: Vec<SnapshotEntry>,
}

impl SnapshotManifest {
    pub fn entry(&self, name: &str) -> Option<&SnapshotEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_u64_le(MAGIC);
        buf.put_u32_le(self.entries.len() as u32);
        for e in &self.entries {
            buf.put_u32_le(e.name.len() as u32);
            buf.extend_from_slice(e.name.as_bytes());
            buf.put_u8(e.kind.tag());
            buf.put_u64_le(e.rows);
            buf.put_u32_le(e.cols);
            buf.put_u32_le(e.part_versions.len() as u32);
            for &v in &e.part_versions {
                buf.put_u64_le(v);
            }
        }
        buf
    }

    fn decode(mut bytes: &[u8]) -> Result<Self> {
        let buf = &mut bytes;
        if buf.remaining() < 12 || buf.get_u64_le() != MAGIC {
            return Err(PsError::Dfs("bad snapshot manifest magic".into()));
        }
        let count = buf.get_u32_le() as usize;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            if buf.remaining() < 4 {
                return Err(PsError::Dfs("truncated snapshot manifest".into()));
            }
            let name_len = buf.get_u32_le() as usize;
            if buf.remaining() < name_len + 17 {
                return Err(PsError::Dfs("truncated snapshot manifest".into()));
            }
            let name = String::from_utf8(buf[..name_len].to_vec())
                .map_err(|_| PsError::Dfs("non-UTF-8 snapshot object name".into()))?;
            buf.advance(name_len);
            let kind = SnapshotKind::from_tag(buf.get_u8())?;
            let rows = buf.get_u64_le();
            let cols = buf.get_u32_le();
            let n_parts = buf.get_u32_le() as usize;
            if buf.remaining() < n_parts * 8 {
                return Err(PsError::Dfs("truncated snapshot manifest".into()));
            }
            let part_versions = (0..n_parts).map(|_| buf.get_u64_le()).collect();
            entries.push(SnapshotEntry { name, kind, rows, cols, part_versions });
        }
        Ok(SnapshotManifest { entries })
    }

    /// Read the manifest of a snapshot directory.
    pub fn load(dfs: &Dfs, dir: &str, client: &NodeClock) -> Result<Self> {
        let bytes = dfs
            .read(&manifest_path(dir), client)
            .map_err(|e| PsError::Dfs(e.to_string()))?;
        Self::decode(&bytes)
    }
}

/// A decoded snapshot object.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotData {
    VecF64(Vec<f64>),
    VecU64(Vec<u64>),
    MatF32 { cols: usize, data: Vec<f32> },
    Adjacency { offsets: Vec<u64>, targets: Vec<u64> },
}

fn manifest_path(dir: &str) -> String {
    format!("{}/MANIFEST", dir.trim_end_matches('/'))
}

fn object_path(dir: &str, name: &str) -> String {
    format!("{}/{name}.snap", dir.trim_end_matches('/'))
}

/// Load one object of a snapshot, charging the read to `client`.
pub fn load_object(
    dfs: &Dfs,
    dir: &str,
    entry: &SnapshotEntry,
    client: &NodeClock,
) -> Result<SnapshotData> {
    let bytes = dfs
        .read(&object_path(dir, &entry.name), client)
        .map_err(|e| PsError::Dfs(e.to_string()))?;
    let mut slice: &[u8] = &bytes;
    let buf = &mut slice;
    if buf.remaining() < 13 {
        return Err(PsError::Dfs(format!("truncated snapshot object {}", entry.name)));
    }
    let kind = SnapshotKind::from_tag(buf.get_u8())?;
    let rows = buf.get_u64_le();
    let cols = buf.get_u32_le() as usize;
    if kind != entry.kind || rows != entry.rows || cols != entry.cols as usize {
        return Err(PsError::Dfs(format!(
            "snapshot object {} does not match its manifest entry",
            entry.name
        )));
    }
    let need = |buf: &&[u8], n: usize| -> Result<()> {
        if buf.remaining() < n {
            Err(PsError::Dfs(format!("truncated snapshot object {}", entry.name)))
        } else {
            Ok(())
        }
    };
    Ok(match kind {
        SnapshotKind::VecF64 => {
            need(buf, rows as usize * 8)?;
            SnapshotData::VecF64((0..rows).map(|_| buf.get_f64_le()).collect())
        }
        SnapshotKind::VecU64 => {
            need(buf, rows as usize * 8)?;
            SnapshotData::VecU64((0..rows).map(|_| buf.get_u64_le()).collect())
        }
        SnapshotKind::MatF32 => {
            let n = rows as usize * cols;
            need(buf, n * 4)?;
            SnapshotData::MatF32 { cols, data: (0..n).map(|_| buf.get_f32_le()).collect() }
        }
        SnapshotKind::Adjacency => {
            need(buf, (rows as usize + 1) * 8 + 8)?;
            let offsets: Vec<u64> = (0..=rows).map(|_| buf.get_u64_le()).collect();
            let n_tgt = buf.get_u64_le() as usize;
            need(buf, n_tgt * 8)?;
            let targets = (0..n_tgt).map(|_| buf.get_u64_le()).collect();
            SnapshotData::Adjacency { offsets, targets }
        }
    })
}

/// Exports live PS objects into a snapshot directory on the DFS.
pub struct SnapshotWriter<'a> {
    dfs: &'a Dfs,
    dir: String,
    client: &'a NodeClock,
    manifest: SnapshotManifest,
}

impl<'a> SnapshotWriter<'a> {
    pub fn new(dfs: &'a Dfs, dir: impl Into<String>, client: &'a NodeClock) -> Self {
        SnapshotWriter {
            dfs,
            dir: dir.into(),
            client,
            manifest: SnapshotManifest::default(),
        }
    }

    fn write_object(&mut self, entry: SnapshotEntry, payload: Vec<u8>) -> Result<()> {
        if self.manifest.entry(&entry.name).is_some() {
            return Err(PsError::Dfs(format!(
                "snapshot already contains an object named {}",
                entry.name
            )));
        }
        let mut bytes = Vec::with_capacity(13 + payload.len());
        bytes.put_u8(entry.kind.tag());
        bytes.put_u64_le(entry.rows);
        bytes.put_u32_le(entry.cols);
        bytes.extend_from_slice(&payload);
        self.dfs
            .write(&object_path(&self.dir, &entry.name), &bytes, self.client)
            .map_err(|e| PsError::Dfs(e.to_string()))?;
        self.manifest.entries.push(entry);
        Ok(())
    }

    /// Export a dense f64 vector (ranks, scores).
    pub fn vector_f64(&mut self, h: &VectorHandle<f64>) -> Result<()> {
        let part_versions = h.partition_versions()?;
        let values = h.pull_all(self.client)?;
        let mut payload = Vec::with_capacity(values.len() * 8);
        for v in &values {
            payload.put_f64_le(*v);
        }
        self.write_object(
            SnapshotEntry {
                name: h.name().to_string(),
                kind: SnapshotKind::VecF64,
                rows: values.len() as u64,
                cols: 1,
                part_versions,
            },
            payload,
        )
    }

    /// Export a dense u64 vector (community / label assignments).
    pub fn vector_u64(&mut self, h: &VectorHandle<u64>) -> Result<()> {
        let part_versions = h.partition_versions()?;
        let values = h.pull_all(self.client)?;
        let mut payload = Vec::with_capacity(values.len() * 8);
        for v in &values {
            payload.put_u64_le(*v);
        }
        self.write_object(
            SnapshotEntry {
                name: h.name().to_string(),
                kind: SnapshotKind::VecU64,
                rows: values.len() as u64,
                cols: 1,
                part_versions,
            },
            payload,
        )
    }

    /// Export a row-partitioned f32 matrix.
    pub fn matrix_f32(&mut self, h: &MatrixHandle<f32>) -> Result<()> {
        let part_versions = h.partition_versions()?;
        let rows = h.pull_all(self.client)?;
        let cols = rows.first().map_or(0, Vec::len);
        let mut payload = Vec::with_capacity(rows.len() * cols * 4);
        for row in &rows {
            for v in row {
                payload.put_f32_le(*v);
            }
        }
        self.write_object(
            SnapshotEntry {
                name: h.name().to_string(),
                kind: SnapshotKind::MatF32,
                rows: rows.len() as u64,
                cols: cols as u32,
                part_versions,
            },
            payload,
        )
    }

    /// Export a column-partitioned f32 matrix (LINE/GraphSage embeddings),
    /// gathering full rows in chunks through the normal pull path.
    pub fn colmatrix(&mut self, h: &ColMatrixHandle) -> Result<()> {
        let part_versions = h.partition_versions()?;
        let rows = h.rows();
        let cols = h.cols();
        let mut payload = Vec::with_capacity(rows as usize * cols * 4);
        let mut start = 0u64;
        while start < rows {
            let end = (start + EXPORT_CHUNK as u64).min(rows);
            let ids: Vec<u64> = (start..end).collect();
            for row in h.pull_rows(self.client, &ids)? {
                for v in &row {
                    payload.put_f32_le(*v);
                }
            }
            start = end;
        }
        self.write_object(
            SnapshotEntry {
                name: h.name().to_string(),
                kind: SnapshotKind::MatF32,
                rows,
                cols: cols as u32,
                part_versions,
            },
            payload,
        )
    }

    /// Export a CSR adjacency snapshot.
    pub fn adjacency(&mut self, h: &CsrHandle) -> Result<()> {
        let part_versions = h.partition_versions()?;
        let n = h.num_vertices();
        let mut offsets = Vec::with_capacity(n as usize + 1);
        let mut targets: Vec<u64> = Vec::new();
        offsets.push(0u64);
        let mut start = 0u64;
        while start < n {
            let end = (start + EXPORT_CHUNK as u64).min(n);
            let ids: Vec<u64> = (start..end).collect();
            for ns in h.pull(self.client, &ids)? {
                targets.extend_from_slice(&ns);
                offsets.push(targets.len() as u64);
            }
            start = end;
        }
        let mut payload = Vec::with_capacity((offsets.len() + 1 + targets.len()) * 8);
        for &o in &offsets {
            payload.put_u64_le(o);
        }
        payload.put_u64_le(targets.len() as u64);
        for &t in &targets {
            payload.put_u64_le(t);
        }
        self.write_object(
            SnapshotEntry {
                name: h.name().to_string(),
                kind: SnapshotKind::Adjacency,
                rows: n,
                cols: 0,
                part_versions,
            },
            payload,
        )
    }

    /// Export a mutable neighbor table as a CSR adjacency snapshot of its
    /// current lists.
    pub fn neighbor_table(&mut self, h: &NeighborTableHandle) -> Result<()> {
        let part_versions = h.partition_versions()?;
        let n = h.num_vertices();
        let mut offsets = Vec::with_capacity(n as usize + 1);
        let mut targets: Vec<u64> = Vec::new();
        offsets.push(0u64);
        let mut start = 0u64;
        while start < n {
            let end = (start + EXPORT_CHUNK as u64).min(n);
            let ids: Vec<u64> = (start..end).collect();
            for ns in h.pull(self.client, &ids)? {
                targets.extend_from_slice(&ns);
                offsets.push(targets.len() as u64);
            }
            start = end;
        }
        let mut payload = Vec::with_capacity((offsets.len() + 1 + targets.len()) * 8);
        for &o in &offsets {
            payload.put_u64_le(o);
        }
        payload.put_u64_le(targets.len() as u64);
        for &t in &targets {
            payload.put_u64_le(t);
        }
        self.write_object(
            SnapshotEntry {
                name: h.name().to_string(),
                kind: SnapshotKind::Adjacency,
                rows: n,
                cols: 0,
                part_versions,
            },
            payload,
        )
    }

    /// Write the manifest and return it. Must be called last — objects
    /// written after `finish` would not be listed.
    pub fn finish(self) -> Result<SnapshotManifest> {
        self.dfs
            .write(&manifest_path(&self.dir), &self.manifest.encode(), self.client)
            .map_err(|e| PsError::Dfs(e.to_string()))?;
        Ok(self.manifest)
    }
}

/// One contiguous region of changed data within a [`DeltaEntry`].
#[derive(Debug, Clone, PartialEq)]
pub enum PatchRegion {
    /// Replacement rows `[row_lo, row_lo + values.len())` of a f64 vector.
    RowsF64 { row_lo: u64, values: Vec<f64> },
    /// Replacement rows of a u64 vector.
    RowsU64 { row_lo: u64, values: Vec<u64> },
    /// Replacement column stripe `[col_lo, col_hi)` of *every* row
    /// (column partitioning means one dirty row dirties the whole
    /// stripe), row-major `rows × (col_hi - col_lo)`.
    Cols { col_lo: u32, col_hi: u32, data: Vec<f32> },
    /// Replacement CSR adjacency for rows
    /// `[row_lo, row_lo + offsets.len() - 1)`, offsets rebased to 0.
    Adj { row_lo: u64, offsets: Vec<u64>, targets: Vec<u64> },
    /// Replacement rows of a *row-partitioned* f32 matrix: full rows
    /// `[row_lo, row_lo + data.len() / cols)`, row-major (`cols` comes
    /// from the enclosing [`DeltaEntry`]).
    RowsF32 { row_lo: u64, data: Vec<f32> },
}

impl PatchRegion {
    fn tag(&self) -> u8 {
        match self {
            PatchRegion::RowsF64 { .. } => 0,
            PatchRegion::RowsU64 { .. } => 1,
            PatchRegion::Cols { .. } => 2,
            PatchRegion::Adj { .. } => 3,
            PatchRegion::RowsF32 { .. } => 4,
        }
    }
}

/// One object's changed partitions within a [`SnapshotDelta`].
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaEntry {
    pub name: String,
    pub kind: SnapshotKind,
    pub rows: u64,
    pub cols: u32,
    /// The object's per-partition versions *after* this delta — what the
    /// base manifest entry advances to once the delta is applied.
    pub part_versions: Vec<u64>,
    pub regions: Vec<PatchRegion>,
}

/// The partitions that changed since a base [`SnapshotManifest`]. Objects
/// with no changed partitions are omitted entirely — that is the point.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotDelta {
    pub entries: Vec<DeltaEntry>,
}

impl SnapshotDelta {
    pub fn entry(&self, name: &str) -> Option<&DeltaEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// The base manifest advanced past this delta: same objects, changed
    /// entries carrying the delta's versions. Feed the result to the next
    /// [`DeltaWriter`] so deltas chain.
    pub fn rebase(&self, base: &SnapshotManifest) -> SnapshotManifest {
        let mut next = base.clone();
        for e in &mut next.entries {
            if let Some(d) = self.entry(&e.name) {
                e.part_versions = d.part_versions.clone();
            }
        }
        next
    }

    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_u64_le(DELTA_MAGIC);
        buf.put_u32_le(self.entries.len() as u32);
        for e in &self.entries {
            buf.put_u32_le(e.name.len() as u32);
            buf.extend_from_slice(e.name.as_bytes());
            buf.put_u8(e.kind.tag());
            buf.put_u64_le(e.rows);
            buf.put_u32_le(e.cols);
            buf.put_u32_le(e.part_versions.len() as u32);
            for &v in &e.part_versions {
                buf.put_u64_le(v);
            }
            buf.put_u32_le(e.regions.len() as u32);
            for r in &e.regions {
                buf.put_u8(r.tag());
                match r {
                    PatchRegion::RowsF64 { row_lo, values } => {
                        buf.put_u64_le(*row_lo);
                        buf.put_u64_le(values.len() as u64);
                        for &x in values {
                            buf.put_f64_le(x);
                        }
                    }
                    PatchRegion::RowsU64 { row_lo, values } => {
                        buf.put_u64_le(*row_lo);
                        buf.put_u64_le(values.len() as u64);
                        for &x in values {
                            buf.put_u64_le(x);
                        }
                    }
                    PatchRegion::Cols { col_lo, col_hi, data } => {
                        buf.put_u32_le(*col_lo);
                        buf.put_u32_le(*col_hi);
                        buf.put_u64_le(data.len() as u64);
                        for &x in data {
                            buf.put_f32_le(x);
                        }
                    }
                    PatchRegion::Adj { row_lo, offsets, targets } => {
                        buf.put_u64_le(*row_lo);
                        buf.put_u64_le(offsets.len() as u64);
                        for &o in offsets {
                            buf.put_u64_le(o);
                        }
                        buf.put_u64_le(targets.len() as u64);
                        for &t in targets {
                            buf.put_u64_le(t);
                        }
                    }
                    PatchRegion::RowsF32 { row_lo, data } => {
                        buf.put_u64_le(*row_lo);
                        buf.put_u64_le(data.len() as u64);
                        for &x in data {
                            buf.put_f32_le(x);
                        }
                    }
                }
            }
        }
        buf
    }

    fn decode(mut bytes: &[u8]) -> Result<Self> {
        let buf = &mut bytes;
        let bad = || PsError::Dfs("truncated snapshot delta".into());
        if buf.remaining() < 12 || buf.get_u64_le() != DELTA_MAGIC {
            return Err(PsError::Dfs("bad snapshot delta magic".into()));
        }
        let need = |buf: &&[u8], n: usize| -> Result<()> {
            if buf.remaining() < n {
                Err(bad())
            } else {
                Ok(())
            }
        };
        let count = buf.get_u32_le() as usize;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            need(buf, 4)?;
            let name_len = buf.get_u32_le() as usize;
            need(buf, name_len + 21)?;
            let name = String::from_utf8(buf[..name_len].to_vec())
                .map_err(|_| PsError::Dfs("non-UTF-8 delta object name".into()))?;
            buf.advance(name_len);
            let kind = SnapshotKind::from_tag(buf.get_u8())?;
            let rows = buf.get_u64_le();
            let cols = buf.get_u32_le();
            let n_parts = buf.get_u32_le() as usize;
            need(buf, n_parts * 8 + 4)?;
            let part_versions = (0..n_parts).map(|_| buf.get_u64_le()).collect();
            let n_regions = buf.get_u32_le() as usize;
            let mut regions = Vec::with_capacity(n_regions);
            for _ in 0..n_regions {
                need(buf, 1)?;
                regions.push(match buf.get_u8() {
                    0 => {
                        need(buf, 16)?;
                        let row_lo = buf.get_u64_le();
                        let len = buf.get_u64_le() as usize;
                        need(buf, len * 8)?;
                        let values = (0..len).map(|_| buf.get_f64_le()).collect();
                        PatchRegion::RowsF64 { row_lo, values }
                    }
                    1 => {
                        need(buf, 16)?;
                        let row_lo = buf.get_u64_le();
                        let len = buf.get_u64_le() as usize;
                        need(buf, len * 8)?;
                        let values = (0..len).map(|_| buf.get_u64_le()).collect();
                        PatchRegion::RowsU64 { row_lo, values }
                    }
                    2 => {
                        need(buf, 16)?;
                        let col_lo = buf.get_u32_le();
                        let col_hi = buf.get_u32_le();
                        let len = buf.get_u64_le() as usize;
                        need(buf, len * 4)?;
                        let data = (0..len).map(|_| buf.get_f32_le()).collect();
                        PatchRegion::Cols { col_lo, col_hi, data }
                    }
                    3 => {
                        need(buf, 16)?;
                        let row_lo = buf.get_u64_le();
                        let n_off = buf.get_u64_le() as usize;
                        need(buf, n_off * 8 + 8)?;
                        let offsets = (0..n_off).map(|_| buf.get_u64_le()).collect();
                        let n_tgt = buf.get_u64_le() as usize;
                        need(buf, n_tgt * 8)?;
                        let targets = (0..n_tgt).map(|_| buf.get_u64_le()).collect();
                        PatchRegion::Adj { row_lo, offsets, targets }
                    }
                    4 => {
                        need(buf, 16)?;
                        let row_lo = buf.get_u64_le();
                        let len = buf.get_u64_le() as usize;
                        need(buf, len * 4)?;
                        let data = (0..len).map(|_| buf.get_f32_le()).collect();
                        PatchRegion::RowsF32 { row_lo, data }
                    }
                    t => return Err(PsError::Dfs(format!("unknown patch region tag {t}"))),
                });
            }
            entries.push(DeltaEntry { name, kind, rows, cols, part_versions, regions });
        }
        Ok(SnapshotDelta { entries })
    }

    /// Read the delta file of a snapshot directory.
    pub fn load(dfs: &Dfs, dir: &str, client: &NodeClock) -> Result<Self> {
        let bytes = dfs
            .read(&delta_path(dir), client)
            .map_err(|e| PsError::Dfs(e.to_string()))?;
        Self::decode(&bytes)
    }
}

fn delta_path(dir: &str) -> String {
    format!("{}/DELTA", dir.trim_end_matches('/'))
}

/// Exports only the partitions whose write version moved since a base
/// manifest — the incremental counterpart of [`SnapshotWriter`]. Each
/// export method pulls the dirty partitions through the normal client RPC
/// path and records them as [`PatchRegion`]s; unchanged objects cost
/// nothing but a version check.
pub struct DeltaWriter<'a> {
    dfs: &'a Dfs,
    dir: String,
    client: &'a NodeClock,
    base: &'a SnapshotManifest,
    delta: SnapshotDelta,
}

impl<'a> DeltaWriter<'a> {
    pub fn new(
        dfs: &'a Dfs,
        dir: impl Into<String>,
        base: &'a SnapshotManifest,
        client: &'a NodeClock,
    ) -> Self {
        DeltaWriter { dfs, dir: dir.into(), client, base, delta: SnapshotDelta::default() }
    }

    /// The base entry for `name`, validated against the live object's
    /// shape; returns the indices of partitions whose version moved.
    fn dirty_partitions(
        &self,
        name: &str,
        kind: SnapshotKind,
        rows: u64,
        current: &[u64],
    ) -> Result<Vec<usize>> {
        let base = self
            .base
            .entry(name)
            .ok_or_else(|| PsError::Dfs(format!("delta: {name} not in the base manifest")))?;
        if base.kind != kind || base.rows != rows {
            return Err(PsError::Dfs(format!(
                "delta: {name} changed shape or kind since the base snapshot"
            )));
        }
        if base.part_versions.len() != current.len() {
            return Err(PsError::Dfs(format!(
                "delta: {name} changed partition count since the base snapshot"
            )));
        }
        Ok((0..current.len())
            .filter(|&p| current[p] != base.part_versions[p])
            .collect())
    }

    fn push_entry(
        &mut self,
        name: &str,
        kind: SnapshotKind,
        rows: u64,
        cols: u32,
        part_versions: Vec<u64>,
        regions: Vec<PatchRegion>,
    ) {
        if !regions.is_empty() {
            self.delta.entries.push(DeltaEntry {
                name: name.to_string(),
                kind,
                rows,
                cols,
                part_versions,
                regions,
            });
        }
    }

    /// Diff a f64 vector; returns how many partitions were re-exported.
    pub fn vector_f64(&mut self, h: &VectorHandle<f64>) -> Result<usize> {
        let current = h.partition_versions()?;
        let dirty =
            self.dirty_partitions(h.name(), SnapshotKind::VecF64, h.size(), &current)?;
        let mut regions = Vec::with_capacity(dirty.len());
        for &p in &dirty {
            let (start, end) = h.layout().range_of(p).ok_or_else(|| {
                PsError::Dfs(format!("delta: {} is not range-partitioned", h.name()))
            })?;
            let ids: Vec<u64> = (start..end).collect();
            regions.push(PatchRegion::RowsF64 { row_lo: start, values: h.pull(self.client, &ids)? });
        }
        self.push_entry(h.name(), SnapshotKind::VecF64, h.size(), 1, current, regions);
        Ok(dirty.len())
    }

    /// Diff a u64 vector; returns how many partitions were re-exported.
    pub fn vector_u64(&mut self, h: &VectorHandle<u64>) -> Result<usize> {
        let current = h.partition_versions()?;
        let dirty =
            self.dirty_partitions(h.name(), SnapshotKind::VecU64, h.size(), &current)?;
        let mut regions = Vec::with_capacity(dirty.len());
        for &p in &dirty {
            let (start, end) = h.layout().range_of(p).ok_or_else(|| {
                PsError::Dfs(format!("delta: {} is not range-partitioned", h.name()))
            })?;
            let ids: Vec<u64> = (start..end).collect();
            regions.push(PatchRegion::RowsU64 { row_lo: start, values: h.pull(self.client, &ids)? });
        }
        self.push_entry(h.name(), SnapshotKind::VecU64, h.size(), 1, current, regions);
        Ok(dirty.len())
    }

    /// Diff a column-partitioned matrix: each dirty partition is one
    /// column stripe of every row. Returns the re-exported count.
    pub fn colmatrix(&mut self, h: &ColMatrixHandle) -> Result<usize> {
        let current = h.partition_versions()?;
        let dirty =
            self.dirty_partitions(h.name(), SnapshotKind::MatF32, h.rows(), &current)?;
        let mut regions = Vec::with_capacity(dirty.len());
        for &p in &dirty {
            let part = h.pull_col_slice(self.client, p)?;
            regions.push(PatchRegion::Cols {
                col_lo: part.col_start as u32,
                col_hi: part.col_end as u32,
                data: part.data,
            });
        }
        self.push_entry(
            h.name(),
            SnapshotKind::MatF32,
            h.rows(),
            h.cols() as u32,
            current,
            regions,
        );
        Ok(dirty.len())
    }

    /// Diff a row-partitioned f32 matrix: each dirty partition is one
    /// contiguous block of full rows. Returns the re-exported count.
    pub fn matrix_f32(&mut self, h: &MatrixHandle<f32>) -> Result<usize> {
        let current = h.partition_versions()?;
        let dirty =
            self.dirty_partitions(h.name(), SnapshotKind::MatF32, h.rows(), &current)?;
        let mut regions = Vec::with_capacity(dirty.len());
        for &p in &dirty {
            let (start, end) = h.layout().range_of(p).ok_or_else(|| {
                PsError::Dfs(format!("delta: {} is not range-partitioned", h.name()))
            })?;
            let ids: Vec<u64> = (start..end).collect();
            let mut data = Vec::with_capacity(ids.len() * h.cols());
            for row in h.pull_rows(self.client, &ids)? {
                data.extend_from_slice(&row);
            }
            regions.push(PatchRegion::RowsF32 { row_lo: start, data });
        }
        self.push_entry(
            h.name(),
            SnapshotKind::MatF32,
            h.rows(),
            h.cols() as u32,
            current,
            regions,
        );
        Ok(dirty.len())
    }

    /// Diff a mutable neighbor table: each dirty partition is re-exported
    /// as a CSR patch of its vertex range (live lists only). Returns the
    /// re-exported count.
    pub fn neighbor_table(&mut self, h: &NeighborTableHandle) -> Result<usize> {
        let current = h.partition_versions()?;
        let dirty = self.dirty_partitions(
            h.name(),
            SnapshotKind::Adjacency,
            h.num_vertices(),
            &current,
        )?;
        let mut regions = Vec::with_capacity(dirty.len());
        for &p in &dirty {
            let (start, end) = h.layout().range_of(p).ok_or_else(|| {
                PsError::Dfs(format!("delta: {} is not range-partitioned", h.name()))
            })?;
            let ids: Vec<u64> = (start..end).collect();
            let mut offsets = Vec::with_capacity(ids.len() + 1);
            let mut targets: Vec<u64> = Vec::new();
            offsets.push(0u64);
            for ns in h.pull(self.client, &ids)? {
                targets.extend_from_slice(&ns);
                offsets.push(targets.len() as u64);
            }
            regions.push(PatchRegion::Adj { row_lo: start, offsets, targets });
        }
        self.push_entry(h.name(), SnapshotKind::Adjacency, h.num_vertices(), 0, current, regions);
        Ok(dirty.len())
    }

    /// Diff a CSR adjacency (dirty only when rebuilt under the same
    /// name). Returns the re-exported count.
    pub fn adjacency(&mut self, h: &CsrHandle) -> Result<usize> {
        let current = h.partition_versions()?;
        let dirty = self.dirty_partitions(
            h.name(),
            SnapshotKind::Adjacency,
            h.num_vertices(),
            &current,
        )?;
        let mut regions = Vec::with_capacity(dirty.len());
        for &p in &dirty {
            let (start, end) = h.layout().range_of(p).ok_or_else(|| {
                PsError::Dfs(format!("delta: {} is not range-partitioned", h.name()))
            })?;
            let ids: Vec<u64> = (start..end).collect();
            let mut offsets = Vec::with_capacity(ids.len() + 1);
            let mut targets: Vec<u64> = Vec::new();
            offsets.push(0u64);
            for ns in h.pull(self.client, &ids)? {
                targets.extend_from_slice(&ns);
                offsets.push(targets.len() as u64);
            }
            regions.push(PatchRegion::Adj { row_lo: start, offsets, targets });
        }
        self.push_entry(h.name(), SnapshotKind::Adjacency, h.num_vertices(), 0, current, regions);
        Ok(dirty.len())
    }

    /// Write the delta file and return the delta. [`SnapshotDelta::rebase`]
    /// the base manifest with it to chain further deltas.
    pub fn finish(self) -> Result<SnapshotDelta> {
        self.dfs
            .write(&delta_path(&self.dir), &self.delta.encode(), self.client)
            .map_err(|e| PsError::Dfs(e.to_string()))?;
        Ok(self.delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partitioner;
    use crate::ps::{Ps, PsConfig, RecoveryMode};
    use std::sync::Arc;

    fn ps() -> Arc<Ps> {
        Ps::new(PsConfig { servers: 3, ..Default::default() })
    }

    #[test]
    fn manifest_roundtrip() {
        let m = SnapshotManifest {
            entries: vec![
                SnapshotEntry {
                    name: "rank".into(),
                    kind: SnapshotKind::VecF64,
                    rows: 10,
                    cols: 1,
                    part_versions: vec![1, 1, 2],
                },
                SnapshotEntry {
                    name: "embed".into(),
                    kind: SnapshotKind::MatF32,
                    rows: 10,
                    cols: 16,
                    part_versions: vec![3],
                },
            ],
        };
        assert_eq!(SnapshotManifest::decode(&m.encode()).unwrap(), m);
        assert!(SnapshotManifest::decode(&[0u8; 8]).is_err());
    }

    #[test]
    fn export_load_all_kinds() {
        let ps = ps();
        let dfs = psgraph_dfs::Dfs::in_memory();
        let c = psgraph_sim::NodeClock::new();

        let ranks =
            VectorHandle::<f64>::create(&ps, "rank", 7, Partitioner::Range, RecoveryMode::Consistent)
                .unwrap();
        let ids: Vec<u64> = (0..7).collect();
        let rank_vals: Vec<f64> = (0..7).map(|i| 0.1 * i as f64 + 0.013).collect();
        ranks.push_set(&c, &ids, &rank_vals).unwrap();

        let labels =
            VectorHandle::<u64>::create(&ps, "label", 7, Partitioner::Hash, RecoveryMode::Consistent)
                .unwrap();
        let label_vals: Vec<u64> = (0..7).map(|i| i * 3 % 5).collect();
        labels.push_set(&c, &ids, &label_vals).unwrap();

        let embed = ColMatrixHandle::create(&ps, "embed", 7, 6, RecoveryMode::Inconsistent)
            .unwrap();
        embed.init_uniform(&c, 9, 1.0).unwrap();
        let embed_rows = embed.pull_rows(&c, &ids).unwrap();

        let tables = vec![(0u64, vec![1, 2]), (3, vec![0]), (6, vec![5, 4, 3])];
        let adj =
            CsrHandle::build(&ps, "adj", 7, &tables, &c, RecoveryMode::Inconsistent).unwrap();

        let t0 = c.now();
        let mut w = SnapshotWriter::new(&dfs, "/snapshot/test", &c);
        w.vector_f64(&ranks).unwrap();
        w.vector_u64(&labels).unwrap();
        w.colmatrix(&embed).unwrap();
        w.adjacency(&adj).unwrap();
        let manifest = w.finish().unwrap();
        assert_eq!(manifest.entries.len(), 4);
        assert!(c.now() > t0, "export must charge simulated time");

        let loaded = SnapshotManifest::load(&dfs, "/snapshot/test", &c).unwrap();
        assert_eq!(loaded, manifest);

        match load_object(&dfs, "/snapshot/test", loaded.entry("rank").unwrap(), &c).unwrap() {
            SnapshotData::VecF64(v) => {
                let got: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
                let want: Vec<u64> = rank_vals.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        match load_object(&dfs, "/snapshot/test", loaded.entry("label").unwrap(), &c).unwrap() {
            SnapshotData::VecU64(v) => assert_eq!(v, label_vals),
            other => panic!("wrong kind: {other:?}"),
        }
        match load_object(&dfs, "/snapshot/test", loaded.entry("embed").unwrap(), &c).unwrap() {
            SnapshotData::MatF32 { cols, data } => {
                assert_eq!(cols, 6);
                let want: Vec<u32> =
                    embed_rows.iter().flatten().map(|x| x.to_bits()).collect();
                let got: Vec<u32> = data.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        match load_object(&dfs, "/snapshot/test", loaded.entry("adj").unwrap(), &c).unwrap() {
            SnapshotData::Adjacency { offsets, targets } => {
                assert_eq!(offsets.len(), 8);
                assert_eq!(targets.len(), 6);
                assert_eq!(&targets[offsets[6] as usize..offsets[7] as usize], &[5, 4, 3]);
                assert_eq!(&targets[offsets[1] as usize..offsets[2] as usize], &[] as &[u64]);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn duplicate_object_name_rejected() {
        let ps = ps();
        let dfs = psgraph_dfs::Dfs::in_memory();
        let c = psgraph_sim::NodeClock::new();
        let v = VectorHandle::<f64>::create(
            &ps, "dup", 3, Partitioner::Range, RecoveryMode::Consistent,
        )
        .unwrap();
        let mut w = SnapshotWriter::new(&dfs, "/snapshot/dup", &c);
        w.vector_f64(&v).unwrap();
        assert!(matches!(w.vector_f64(&v), Err(PsError::Dfs(_))));
    }

    #[test]
    fn mismatched_entry_rejected_on_load() {
        let ps = ps();
        let dfs = psgraph_dfs::Dfs::in_memory();
        let c = psgraph_sim::NodeClock::new();
        let v = VectorHandle::<f64>::create(
            &ps, "v", 3, Partitioner::Range, RecoveryMode::Consistent,
        )
        .unwrap();
        let mut w = SnapshotWriter::new(&dfs, "/s", &c);
        w.vector_f64(&v).unwrap();
        let m = w.finish().unwrap();
        let mut entry = m.entry("v").unwrap().clone();
        entry.rows = 99;
        assert!(load_object(&dfs, "/s", &entry, &c).is_err());
    }

    #[test]
    fn delta_exports_only_dirty_partitions() {
        let ps = ps();
        let dfs = psgraph_dfs::Dfs::in_memory();
        let c = psgraph_sim::NodeClock::new();

        // 12 vertices over 3 servers → range partitions of 4 vertices.
        let ranks = VectorHandle::<f64>::create(
            &ps, "rank", 12, Partitioner::Range, RecoveryMode::Consistent,
        )
        .unwrap();
        let ids: Vec<u64> = (0..12).collect();
        let vals: Vec<f64> = (0..12).map(|i| i as f64).collect();
        ranks.push_set(&c, &ids, &vals).unwrap();

        let embed =
            ColMatrixHandle::create(&ps, "embed", 12, 6, RecoveryMode::Inconsistent).unwrap();
        embed.init_uniform(&c, 5, 1.0).unwrap();

        let mut w = SnapshotWriter::new(&dfs, "/s", &c);
        w.vector_f64(&ranks).unwrap();
        w.colmatrix(&embed).unwrap();
        let base = w.finish().unwrap();

        // Touch only the first rank partition; leave embed untouched.
        ranks.push_set(&c, &[1], &[41.5]).unwrap();

        let mut dw = DeltaWriter::new(&dfs, "/s", &base, &c);
        assert_eq!(dw.vector_f64(&ranks).unwrap(), 1);
        assert_eq!(dw.colmatrix(&embed).unwrap(), 0);
        let delta = dw.finish().unwrap();

        // Untouched object omitted entirely; dirty one carries exactly
        // the dirty partition's rows.
        assert!(delta.entry("embed").is_none());
        let e = delta.entry("rank").unwrap();
        assert_eq!(e.regions.len(), 1);
        match &e.regions[0] {
            PatchRegion::RowsF64 { row_lo, values } => {
                assert_eq!(*row_lo, 0);
                assert_eq!(values.len(), 4);
                assert_eq!(values[1].to_bits(), 41.5f64.to_bits());
                assert_eq!(values[0].to_bits(), 0.0f64.to_bits());
            }
            other => panic!("wrong region: {other:?}"),
        }

        // Round-trips through the DFS bit-exactly.
        let loaded = SnapshotDelta::load(&dfs, "/s", &c).unwrap();
        assert_eq!(loaded, delta);

        // Rebase advances versions: the next delta against the rebased
        // manifest is empty.
        let next = delta.rebase(&base);
        assert_ne!(next, base);
        let mut dw2 = DeltaWriter::new(&dfs, "/s", &next, &c);
        assert_eq!(dw2.vector_f64(&ranks).unwrap(), 0);
        assert!(dw2.finish().unwrap().entries.is_empty());
    }

    #[test]
    fn delta_covers_matrix_and_adjacency_regions() {
        let ps = ps();
        let dfs = psgraph_dfs::Dfs::in_memory();
        let c = psgraph_sim::NodeClock::new();

        let embed =
            ColMatrixHandle::create(&ps, "embed", 5, 6, RecoveryMode::Inconsistent).unwrap();
        embed.init_uniform(&c, 5, 1.0).unwrap();
        let tables = vec![(0u64, vec![1, 2]), (3, vec![0])];
        let adj =
            CsrHandle::build(&ps, "adj", 5, &tables, &c, RecoveryMode::Inconsistent).unwrap();

        let mut w = SnapshotWriter::new(&dfs, "/s2", &c);
        w.colmatrix(&embed).unwrap();
        w.adjacency(&adj).unwrap();
        let base = w.finish().unwrap();

        // A row update dirties every column partition it spans.
        embed.push_add_rows(&c, &[2], &[vec![1.0f32; 6]]).unwrap();
        let want = embed.pull_rows(&c, &[2]).unwrap().remove(0);
        // Rebuilding under the same name continues the version counters.
        let tables2 = vec![(0u64, vec![4]), (3, vec![0])];
        let adj2 =
            CsrHandle::build(&ps, "adj", 5, &tables2, &c, RecoveryMode::Inconsistent).unwrap();

        let mut dw = DeltaWriter::new(&dfs, "/s2", &base, &c);
        assert!(dw.colmatrix(&embed).unwrap() >= 1);
        assert!(dw.adjacency(&adj2).unwrap() >= 1);
        let delta = dw.finish().unwrap();

        // Stitch the Cols regions back together for row 2 and compare
        // bit-exactly against the live matrix.
        let mut row = vec![None::<f32>; 6];
        for r in &delta.entry("embed").unwrap().regions {
            match r {
                PatchRegion::Cols { col_lo, col_hi, data } => {
                    let width = (col_hi - col_lo) as usize;
                    for j in 0..width {
                        row[*col_lo as usize + j] = Some(data[2 * width + j]);
                    }
                }
                other => panic!("wrong region: {other:?}"),
            }
        }
        for (j, x) in row.iter().enumerate() {
            assert_eq!(x.unwrap().to_bits(), want[j].to_bits(), "col {j}");
        }

        // Adjacency regions carry the rebuilt neighbour lists.
        let mut neigh = vec![None::<Vec<u64>>; 5];
        for r in &delta.entry("adj").unwrap().regions {
            match r {
                PatchRegion::Adj { row_lo, offsets, targets } => {
                    for i in 0..offsets.len() - 1 {
                        neigh[*row_lo as usize + i] = Some(
                            targets[offsets[i] as usize..offsets[i + 1] as usize].to_vec(),
                        );
                    }
                }
                other => panic!("wrong region: {other:?}"),
            }
        }
        assert_eq!(neigh[0].clone().unwrap(), vec![4]);
        assert_eq!(neigh[3].clone().unwrap(), vec![0]);

        assert_eq!(SnapshotDelta::load(&dfs, "/s2", &c).unwrap(), delta);
    }

    #[test]
    fn delta_matrix_f32_roundtrip_bit_identical() {
        let ps = ps();
        let dfs = psgraph_dfs::Dfs::in_memory();
        let c = psgraph_sim::NodeClock::new();

        // 12 rows over 3 servers → range partitions of 4 rows.
        let m = MatrixHandle::<f32>::create(
            &ps, "feat", 12, 5, Partitioner::Range, RecoveryMode::Inconsistent,
        )
        .unwrap();
        m.init_uniform(&c, 11, 1.0).unwrap();

        let mut w = SnapshotWriter::new(&dfs, "/sm", &c);
        w.matrix_f32(&m).unwrap();
        let base = w.finish().unwrap();
        let base_data = match load_object(&dfs, "/sm", base.entry("feat").unwrap(), &c).unwrap()
        {
            SnapshotData::MatF32 { cols, data } => {
                assert_eq!(cols, 5);
                data
            }
            other => panic!("wrong kind: {other:?}"),
        };

        // Dirty one row in the middle partition.
        m.push_set_rows(&c, &[6], &[vec![0.25f32, -1.5, 3.0, 0.0, 9.75]]).unwrap();

        let mut dw = DeltaWriter::new(&dfs, "/sm", &base, &c);
        assert_eq!(dw.matrix_f32(&m).unwrap(), 1);
        let delta = dw.finish().unwrap();
        assert_eq!(SnapshotDelta::load(&dfs, "/sm", &c).unwrap(), delta);

        // Apply the patch to the base payload: the result must be
        // bit-identical to a fresh full export of the live matrix.
        let mut patched = base_data;
        let e = delta.entry("feat").unwrap();
        assert_eq!(e.regions.len(), 1);
        match &e.regions[0] {
            PatchRegion::RowsF32 { row_lo, data } => {
                assert_eq!(*row_lo, 4, "the middle partition starts at row 4");
                assert_eq!(data.len(), 4 * 5, "full partition, full rows");
                let at = *row_lo as usize * 5;
                patched[at..at + data.len()].copy_from_slice(data);
            }
            other => panic!("wrong region: {other:?}"),
        }
        let mut w2 = SnapshotWriter::new(&dfs, "/sm-full", &c);
        w2.matrix_f32(&m).unwrap();
        let full = w2.finish().unwrap();
        let full_data =
            match load_object(&dfs, "/sm-full", full.entry("feat").unwrap(), &c).unwrap() {
                SnapshotData::MatF32 { data, .. } => data,
                other => panic!("wrong kind: {other:?}"),
            };
        let got: Vec<u32> = patched.iter().map(|x| x.to_bits()).collect();
        let want: Vec<u32> = full_data.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want);

        // Rebase → nothing further to export.
        let next = delta.rebase(&base);
        let mut dw2 = DeltaWriter::new(&dfs, "/sm", &next, &c);
        assert_eq!(dw2.matrix_f32(&m).unwrap(), 0);
    }

    #[test]
    fn neighbor_table_snapshot_and_delta() {
        let ps = ps();
        let dfs = psgraph_dfs::Dfs::in_memory();
        let c = psgraph_sim::NodeClock::new();

        // 12 vertices over 3 servers → range partitions of 4 vertices.
        let t = NeighborTableHandle::create(
            &ps, "adj", 12, Partitioner::Range, RecoveryMode::Inconsistent,
        )
        .unwrap();
        t.push(&c, &[(0, vec![1, 2]), (5, vec![0, 7]), (9, vec![3])]).unwrap();

        let mut w = SnapshotWriter::new(&dfs, "/sn", &c);
        w.neighbor_table(&t).unwrap();
        let base = w.finish().unwrap();
        match load_object(&dfs, "/sn", base.entry("adj").unwrap(), &c).unwrap() {
            SnapshotData::Adjacency { offsets, targets } => {
                assert_eq!(offsets.len(), 13);
                assert_eq!(&targets[offsets[5] as usize..offsets[6] as usize], &[0, 7]);
            }
            other => panic!("wrong kind: {other:?}"),
        }

        // Mutate only the middle partition (vertices 4..8): the delta
        // re-exports exactly that vertex range, the removed edge gone.
        t.update_edges(&c, &[(5, 7, false), (6, 11, true)]).unwrap();

        let mut dw = DeltaWriter::new(&dfs, "/sn", &base, &c);
        assert_eq!(dw.neighbor_table(&t).unwrap(), 1);
        let delta = dw.finish().unwrap();
        let e = delta.entry("adj").unwrap();
        assert_eq!(e.regions.len(), 1);
        match &e.regions[0] {
            PatchRegion::Adj { row_lo, offsets, targets } => {
                assert_eq!(*row_lo, 4);
                assert_eq!(offsets.len(), 5);
                let ns = |i: usize| {
                    &targets[offsets[i] as usize..offsets[i + 1] as usize]
                };
                assert_eq!(ns(1), &[0], "removed neighbor is gone");
                assert_eq!(ns(2), &[11], "added neighbor is present");
            }
            other => panic!("wrong region: {other:?}"),
        }
        assert_eq!(SnapshotDelta::load(&dfs, "/sn", &c).unwrap(), delta);

        let next = delta.rebase(&base);
        let mut dw2 = DeltaWriter::new(&dfs, "/sn", &next, &c);
        assert_eq!(dw2.neighbor_table(&t).unwrap(), 0);
    }

    #[test]
    fn delta_rejects_unknown_and_reshaped_objects() {
        let ps = ps();
        let dfs = psgraph_dfs::Dfs::in_memory();
        let c = psgraph_sim::NodeClock::new();
        let v = VectorHandle::<f64>::create(
            &ps, "v", 3, Partitioner::Range, RecoveryMode::Consistent,
        )
        .unwrap();
        let mut w = SnapshotWriter::new(&dfs, "/s3", &c);
        w.vector_f64(&v).unwrap();
        let base = w.finish().unwrap();

        // Object absent from the base manifest.
        let other = VectorHandle::<f64>::create(
            &ps, "other", 3, Partitioner::Range, RecoveryMode::Consistent,
        )
        .unwrap();
        let mut dw = DeltaWriter::new(&dfs, "/s3", &base, &c);
        assert!(matches!(dw.vector_f64(&other), Err(PsError::Dfs(_))));

        // Same name, different shape.
        let mut reshaped = base.clone();
        reshaped.entries[0].rows = 99;
        let mut dw2 = DeltaWriter::new(&dfs, "/s3", &reshaped, &c);
        assert!(matches!(dw2.vector_f64(&v), Err(PsError::Dfs(_))));
    }
}
