//! Parity sidecars, scrubbing and in-place repair for `HQST`/`HQTM` stores.
//!
//! The store's CRC machinery (PR 8) *detects* a flipped bit and serves a
//! typed [`StoreError::CorruptChunk`]; this module adds the redundancy to
//! *undo* it. A `.hqpr` sidecar holds one XOR parity block per fixed-size
//! group of compressed chunks (RAID-5 style, shorter members zero-padded to
//! the group's longest), so any single damaged chunk per group is
//! reconstructible bit-exactly from its siblings plus the parity block.
//!
//! ```text
//! "HQPR" | version u8 | header_len u32le | header_crc u32le | header | parity
//!
//! header: group_size uvarint | chunk_count uvarint | store_tag u32le
//!         | n_groups uvarint | per group { parity_len uvarint, crc u32le }
//! parity: the groups' parity blocks, concatenated in order
//! ```
//!
//! Groups run over the *flat* chunk list — levels in directory order, chunks
//! in write order — so a group may span levels; `store_tag` fingerprints the
//! store's chunk-CRC table, rejecting a sidecar paired with the wrong store
//! ([`StoreError::SidecarMismatch`]) before it can "repair" chunks into
//! garbage. The sidecar carries its own header CRC and per-group parity
//! CRCs, so sidecar damage is itself typed ([`StoreError::CorruptSidecar`])
//! and only ever withdraws redundancy — it cannot poison intact data.
//!
//! [`scrub_store`] walks every chunk verifying stored CRCs under an optional
//! byte/sec [`Throttle`] (so scrubbing coexists with serving), heals what
//! parity can reach, rewrites healed chunks atomically
//! ([`repair_in_place`]), and rebuilds a damaged sidecar whenever the store
//! itself verifies clean.

use crate::format::{parse_head, StoreError, StoreMeta};
use crate::temporal::TemporalManifest;
use crate::StoreReader;
use hqmr_codec::schema::{self, Pair, Seq, Var, U32};
use hqmr_codec::{crc32, framed_head, framed_head_into, Cur};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Parity sidecar magic.
pub const PARITY_MAGIC: &[u8; 4] = b"HQPR";
/// Current sidecar format version.
pub const PARITY_VERSION: u8 = 1;
/// Bytes before the header: magic + version + header_len + header_crc.
pub const PARITY_PREFIX_LEN: usize = hqmr_codec::FRAMED_PREFIX_LEN;
/// Default chunks per parity group: ~1/8 byte overhead, one repairable
/// chunk per 8.
pub const DEFAULT_PARITY_GROUP: usize = 8;

/// The sidecar path conventionally paired with a store file:
/// `foo.hqst` → `foo.hqpr` (any extension is replaced).
pub fn parity_path(store: &Path) -> PathBuf {
    store.with_extension("hqpr")
}

/// One parity group: the XOR of its member chunks' compressed payloads,
/// each zero-padded to the longest member, plus the block's own CRC.
#[derive(Debug, Clone, PartialEq)]
struct ParityGroup {
    crc: u32,
    parity: Vec<u8>,
}

/// An in-memory `.hqpr` sidecar: XOR parity over fixed-size groups of a
/// store's compressed chunks.
#[derive(Debug, Clone, PartialEq)]
pub struct ParitySidecar {
    group: usize,
    chunk_count: usize,
    store_tag: u32,
    groups: Vec<ParityGroup>,
}

/// The sidecar's CRC-guarded header: `(group size, chunk count)`, then the
/// store tag and every group's `(parity length, CRC)`.
type HeaderL = Pair<Pair<Var, Var>, Pair<U32, Seq<Pair<Var, U32>>>>;

/// Fingerprint of a store's chunk-CRC table (flat order): ties a sidecar to
/// the exact chunk payloads it was computed over.
fn store_tag(meta: &StoreMeta) -> u32 {
    let mut crcs = Vec::with_capacity(meta.chunk_count() * 4);
    for lm in &meta.levels {
        for c in &lm.chunks {
            crcs.extend_from_slice(&c.crc.to_le_bytes());
        }
    }
    crc32(&crcs)
}

/// The flat `(level, block)` chunk list in directory order — the order
/// parity groups are formed over.
pub fn flat_chunks(meta: &StoreMeta) -> Vec<(usize, usize)> {
    meta.levels
        .iter()
        .enumerate()
        .flat_map(|(l, lm)| (0..lm.chunks.len()).map(move |b| (l, b)))
        .collect()
}

/// Flat index of `(level, block)`, if it exists in `meta`.
fn flat_index(meta: &StoreMeta, level: usize, block: usize) -> Option<usize> {
    let lm = meta.levels.get(level)?;
    if block >= lm.chunks.len() {
        return None;
    }
    let before: usize = meta.levels[..level].iter().map(|l| l.chunks.len()).sum();
    Some(before + block)
}

fn xor_into(acc: &mut [u8], bytes: &[u8]) {
    for (a, b) in acc.iter_mut().zip(bytes) {
        *a ^= b;
    }
}

impl ParitySidecar {
    /// Chunks per parity group.
    pub fn group_size(&self) -> usize {
        self.group
    }

    /// Total parity payload bytes (the sidecar's storage overhead, modulo
    /// the small header).
    pub fn parity_bytes(&self) -> u64 {
        self.groups.iter().map(|g| g.parity.len() as u64).sum()
    }

    /// Whether this sidecar describes `meta`'s exact chunk payloads.
    pub fn matches(&self, meta: &StoreMeta) -> bool {
        self.chunk_count == meta.chunk_count() && self.store_tag == store_tag(meta)
    }

    /// Builds parity over a complete in-memory store buffer. `group == 0`
    /// is rejected as malformed; pass [`DEFAULT_PARITY_GROUP`] for the
    /// stock trade-off.
    pub fn from_store_bytes(buf: &[u8], group: usize) -> Result<ParitySidecar, StoreError> {
        let (meta, data_start) = parse_head(buf)?;
        let data = buf
            .get(data_start as usize..)
            .ok_or(StoreError::Truncated)?;
        Self::build(&meta, group, |level, block| {
            let c = &meta.levels[level].chunks[block];
            let start = c.offset as usize;
            data.get(start..start.saturating_add(c.len))
                .map(<[u8]>::to_vec)
                .ok_or(StoreError::Truncated)
        })
    }

    /// Builds parity by fetching (and CRC-verifying) every chunk through
    /// `reader` — the file-backed form used when rebuilding a lost sidecar.
    pub fn from_reader(reader: &StoreReader, group: usize) -> Result<ParitySidecar, StoreError> {
        let meta = reader.meta().clone();
        Self::build(&meta, group, |level, block| {
            reader
                .fetch_chunk_bytes(level, block)
                .map(|b| b.into_owned())
        })
    }

    fn build(
        meta: &StoreMeta,
        group: usize,
        mut fetch: impl FnMut(usize, usize) -> Result<Vec<u8>, StoreError>,
    ) -> Result<ParitySidecar, StoreError> {
        if group == 0 {
            return Err(StoreError::CorruptSidecar("group size zero"));
        }
        let flat = flat_chunks(meta);
        let mut groups = Vec::with_capacity(flat.len().div_ceil(group));
        for members in flat.chunks(group) {
            let longest = members
                .iter()
                .map(|&(l, b)| meta.levels[l].chunks[b].len)
                .max()
                .unwrap_or(0);
            let mut parity = vec![0u8; longest];
            for &(l, b) in members {
                xor_into(&mut parity, &fetch(l, b)?);
            }
            groups.push(ParityGroup {
                crc: crc32(&parity),
                parity,
            });
        }
        Ok(ParitySidecar {
            group,
            chunk_count: flat.len(),
            store_tag: store_tag(meta),
            groups,
        })
    }

    /// Serializes the sidecar (prefix + CRC-guarded header + parity
    /// payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        let lens = self.groups.iter().map(|g| (g.parity.len(), g.crc));
        let header = (
            (self.group, self.chunk_count),
            (self.store_tag, lens.collect()),
        );
        let header = schema::encode::<HeaderL>(&header);
        let mut out = Vec::new();
        framed_head_into(&mut out, PARITY_MAGIC, PARITY_VERSION, &header);
        for g in &self.groups {
            out.extend_from_slice(&g.parity);
        }
        out
    }

    /// Parses [`Self::to_bytes`] output. Every structural defect — bad
    /// magic/version, truncation, header CRC failure, internal
    /// inconsistency, trailing bytes — is the typed
    /// [`StoreError::CorruptSidecar`]; hostile input never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<ParitySidecar, StoreError> {
        Self::parse(bytes).map_err(StoreError::CorruptSidecar)
    }

    /// [`Self::from_bytes`] with the cursor's faults and the sidecar's own
    /// inconsistencies folded into one message. The parity blocks are read
    /// from the payload, a second cursor, at the lengths the header gives.
    fn parse(bytes: &[u8]) -> Result<ParitySidecar, &'static str> {
        let (header, payload) = framed_head(bytes, PARITY_MAGIC, PARITY_VERSION)?;
        let ((group, chunk_count), (store_tag, lens)) = schema::decode::<HeaderL>(header)?;
        if group == 0 {
            return Err("group size zero");
        }
        if lens.len() != chunk_count.div_ceil(group) {
            return Err("group count inconsistent with chunk count");
        }
        let mut payload = Cur::new(payload);
        let mut groups = Vec::with_capacity(lens.len());
        for (len, crc) in lens {
            let parity = payload.take(len)?.to_vec();
            groups.push(ParityGroup { crc, parity });
        }
        payload.done()?;
        Ok(ParitySidecar {
            group,
            chunk_count,
            store_tag,
            groups,
        })
    }

    /// Reads and parses the sidecar conventionally paired with `store`
    /// (see [`parity_path`]). `Ok(None)` when no sidecar file exists;
    /// parse failures and mismatches are typed errors.
    pub fn open_for(store: &Path, meta: &StoreMeta) -> Result<Option<ParitySidecar>, StoreError> {
        let path = parity_path(store);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let sidecar = Self::from_bytes(&bytes)?;
        if !sidecar.matches(meta) {
            return Err(StoreError::SidecarMismatch);
        }
        Ok(Some(sidecar))
    }

    /// Rebuilds the compressed payload of chunk `(level, block)` from its
    /// group siblings and the parity block, verifying the result against
    /// the chunk table's stored CRC — a returned buffer is bit-exact by
    /// construction. Fails typed when the redundancy is exhausted: a
    /// damaged sibling or parity block is
    /// [`StoreError::Unrepairable`]`{ level, block }`.
    pub fn reconstruct(
        &self,
        reader: &StoreReader,
        level: usize,
        block: usize,
    ) -> Result<Vec<u8>, StoreError> {
        let meta = reader.meta();
        if !self.matches(meta) {
            return Err(StoreError::SidecarMismatch);
        }
        let unrepairable = || StoreError::Unrepairable { level, block };
        let target = flat_index(meta, level, block)
            .ok_or(StoreError::Malformed("chunk index out of range"))?;
        let grp = self
            .groups
            .get(target / self.group)
            .ok_or_else(unrepairable)?;
        if crc32(&grp.parity) != grp.crc {
            // The parity block itself rotted: typed redundancy exhaustion,
            // never a silent mis-repair.
            return Err(unrepairable());
        }
        let flat = flat_chunks(meta);
        let lo = (target / self.group) * self.group;
        let hi = (lo + self.group).min(flat.len());
        let mut acc = grp.parity.clone();
        for &(l, b) in &flat[lo..hi] {
            if (l, b) == (level, block) {
                continue;
            }
            // A sibling failing its own CRC means two damaged chunks share
            // the group — XOR parity cannot recover either.
            let bytes = reader.fetch_chunk_bytes(l, b).map_err(|_| unrepairable())?;
            if bytes.len() > acc.len() {
                return Err(StoreError::SidecarMismatch);
            }
            xor_into(&mut acc, &bytes);
        }
        let c = &meta.levels[level].chunks[block];
        if c.len > acc.len() {
            return Err(StoreError::SidecarMismatch);
        }
        acc.truncate(c.len);
        if crc32(&acc) != c.crc {
            return Err(unrepairable());
        }
        Ok(acc)
    }
}

/// A byte/sec rate limiter pacing scrub I/O so a background scrubber
/// coexists with foreground serving instead of saturating the device.
///
/// Accounting is cumulative with a one-second idle rebase: after the
/// scrubber sleeps between passes, the budget does not accumulate into an
/// unbounded burst.
#[derive(Debug)]
pub struct Throttle {
    bytes_per_sec: u64,
    start: Instant,
    consumed: u64,
}

impl Throttle {
    /// A limiter at `bytes_per_sec`; `0` disables pacing entirely.
    pub fn new(bytes_per_sec: u64) -> Self {
        Throttle {
            bytes_per_sec,
            start: Instant::now(),
            consumed: 0,
        }
    }

    /// Accounts `bytes` of scrub I/O, sleeping whatever keeps the
    /// cumulative rate at or under the configured limit.
    pub fn consume(&mut self, bytes: u64) {
        if self.bytes_per_sec == 0 {
            return;
        }
        self.consumed = self.consumed.saturating_add(bytes);
        let due = Duration::from_secs_f64(self.consumed as f64 / self.bytes_per_sec as f64);
        let elapsed = self.start.elapsed();
        if due > elapsed {
            std::thread::sleep(due - elapsed);
        } else if elapsed > due + Duration::from_secs(1) {
            // Idle long enough to bank a burst: rebase so the limit stays a
            // rate, not a long-run average.
            self.start = Instant::now();
            self.consumed = 0;
        }
    }
}

/// The health of a store's parity sidecar as a scrub found it.
#[derive(Debug, Clone, PartialEq)]
pub enum SidecarStatus {
    /// Present, parsed, and matching the store.
    Present,
    /// No sidecar file exists — the store is unprotected.
    Missing,
    /// The sidecar file exists but is damaged or describes another store;
    /// the message is the typed parse failure.
    Damaged(String),
}

/// What one scrub pass over a store found and did.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrubReport {
    /// Chunks whose stored CRC verified.
    pub verified: usize,
    /// Chunks that failed CRC and were reconstructed bit-exactly from
    /// parity.
    pub repaired: usize,
    /// `(level, block)` of chunks that failed CRC with no redundancy left.
    pub unrepairable: Vec<(usize, usize)>,
    /// Compressed bytes read (the quantity the [`Throttle`] paces).
    pub bytes_scanned: u64,
    /// Sidecar health at scrub time.
    pub sidecar: SidecarStatus,
    /// Whether the scrub rewrote the sidecar (after healing chunks, or to
    /// replace a damaged sidecar over a clean store).
    pub sidecar_rebuilt: bool,
}

impl ScrubReport {
    /// Whether every chunk is (now) servable bit-exactly.
    pub fn all_exact(&self) -> bool {
        self.unrepairable.is_empty()
    }
}

/// Verifies every chunk of the store at `path` against its stored CRC,
/// reconstructing damaged chunks from the paired `.hqpr` sidecar (when one
/// exists and matches) and rewriting healed chunks atomically via
/// [`repair_in_place`]. A damaged sidecar over a fully-verified store is
/// rebuilt in place; a damaged store with no usable sidecar reports its
/// casualties as `unrepairable` rather than failing the scrub. `throttle`
/// paces the compressed bytes read.
pub fn scrub_store(
    path: &Path,
    mut throttle: Option<&mut Throttle>,
) -> Result<ScrubReport, StoreError> {
    let reader = StoreReader::open(path)?;
    let (sidecar, mut status) = match ParitySidecar::open_for(path, reader.meta()) {
        Ok(Some(s)) => (Some(s), SidecarStatus::Present),
        Ok(None) => (None, SidecarStatus::Missing),
        Err(e) => (None, SidecarStatus::Damaged(e.to_string())),
    };
    let mut report = ScrubReport {
        verified: 0,
        repaired: 0,
        unrepairable: Vec::new(),
        bytes_scanned: 0,
        sidecar: SidecarStatus::Missing,
        sidecar_rebuilt: false,
    };
    let mut healed: Vec<(usize, usize, Vec<u8>)> = Vec::new();
    for (level, block) in flat_chunks(reader.meta()) {
        let len = reader.meta().levels[level].chunks[block].len as u64;
        match reader.fetch_chunk_bytes(level, block) {
            Ok(_) => report.verified += 1,
            Err(StoreError::CorruptChunk { .. }) => {
                match sidecar
                    .as_ref()
                    .map(|s| s.reconstruct(&reader, level, block))
                {
                    Some(Ok(bytes)) => {
                        report.repaired += 1;
                        healed.push((level, block, bytes));
                    }
                    _ => report.unrepairable.push((level, block)),
                }
            }
            Err(e) => return Err(e),
        }
        report.bytes_scanned += len;
        if let Some(t) = throttle.as_deref_mut() {
            t.consume(len);
        }
    }
    if !healed.is_empty() {
        repair_in_place(path, &healed)?;
    }
    // A sidecar that rotted (or never matched) is itself repairable as long
    // as every chunk now verifies: rebuild it from the healed store.
    let parity_ok = match (&status, &sidecar) {
        (SidecarStatus::Present, Some(s)) => s.groups.iter().all(|g| crc32(&g.parity) == g.crc),
        _ => false,
    };
    if !parity_ok && report.unrepairable.is_empty() && !matches!(status, SidecarStatus::Missing) {
        let group = sidecar.as_ref().map_or(DEFAULT_PARITY_GROUP, |s| s.group);
        let reopened = StoreReader::open(path)?;
        let fresh = ParitySidecar::from_reader(&reopened, group)?;
        write_atomic(&parity_path(path), &fresh.to_bytes())?;
        report.sidecar_rebuilt = true;
        status = SidecarStatus::Present;
    }
    report.sidecar = status;
    Ok(report)
}

/// Rewrites the store at `path` with `healed` chunk payloads patched into
/// the data region, through a temp-sibling + rename + parent-fsync path —
/// a crash leaves either the old store or the fully repaired one, never a
/// half-patched file. Every healed payload must match the chunk table's
/// recorded length and CRC (which parity reconstruction guarantees).
pub fn repair_in_place(path: &Path, healed: &[(usize, usize, Vec<u8>)]) -> Result<(), StoreError> {
    let mut buf = std::fs::read(path).map_err(|source| StoreError::Open {
        path: path.to_path_buf(),
        source,
    })?;
    let (meta, data_start) = parse_head(&buf)?;
    for (level, block, bytes) in healed {
        let c = meta
            .levels
            .get(*level)
            .and_then(|lm| lm.chunks.get(*block))
            .ok_or(StoreError::Malformed("healed chunk index out of range"))?;
        if bytes.len() != c.len || crc32(bytes) != c.crc {
            return Err(StoreError::Malformed("healed payload fails chunk table"));
        }
        let start = data_start as usize + c.offset as usize;
        buf.get_mut(start..start + c.len)
            .ok_or(StoreError::Truncated)?
            .copy_from_slice(bytes);
    }
    write_atomic(path, &buf)?;
    Ok(())
}

/// Loads the per-frame parity sidecars of a temporal run for serve-layer
/// auto-repair: index `t` holds frame `t`'s sidecar, `None` where the
/// sidecar is absent, damaged, or paired with the wrong frame (serving then
/// simply has no redundancy for that frame — never a hard failure).
pub fn temporal_sidecars(dir: &Path, manifest: &TemporalManifest) -> Vec<Option<ParitySidecar>> {
    manifest
        .frames
        .iter()
        .map(|fm| {
            let frame_path = dir.join(&fm.file);
            let head = StoreReader::open(&frame_path).ok()?;
            ParitySidecar::open_for(&frame_path, head.meta())
                .ok()
                .flatten()
        })
        .collect()
}

/// The one durable publish every writer of store files goes through —
/// snapshots, temporal frames, manifests, sidecars, in-place repairs: write a
/// temp sibling, flush it to the device, rename it over `path`, fsync the
/// parent directory. A crash (or a full disk) at any point leaves the
/// previous file or the new one, never a mix, and once this returns `Ok` the
/// new one survives a crash. A failure of any step — the directory fsync
/// included — is returned, and leaves no temp file behind.
///
/// The temp name is `<file name>.<pid>.<n>.tmp`: the pid keeps concurrent
/// *processes* (two ranks snapshotting into one directory) apart, the
/// process-wide counter concurrent *threads* (the pid alone is shared by
/// every thread, so two threads writing the same path would otherwise stage
/// into the same file and clobber each other mid-write). A crash can strand
/// one; `TemporalWriter::salvage` sweeps `*.tmp`.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    use std::sync::atomic::{AtomicU64, Ordering};
    static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);
    let tmp = tmp_sibling(path, TMP_COUNTER.fetch_add(1, Ordering::Relaxed))?;
    let write = (|| {
        let mut w = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        w.write_all(bytes)?;
        w.flush()?;
        // Push the data to stable storage before the rename makes it
        // visible — otherwise the rename can survive a crash the data
        // didn't.
        w.into_inner()
            .map_err(std::io::IntoInnerError::into_error)?
            .sync_all()?;
        std::fs::rename(&tmp, path)?;
        // The rename itself lives in the parent directory's metadata: until
        // that is flushed, a crash can roll the directory back to the old
        // entry (or none) even though the data blocks survived. Directories
        // cannot be opened for syncing off unix; the rename is still atomic
        // there, just not crash-durable, matching the platform's guarantees.
        #[cfg(unix)]
        std::fs::File::open(parent_dir(path))?.sync_all()?;
        Ok(())
    })();
    if write.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    write
}

/// The staging file [`write_atomic`] call number `n` of this process writes
/// before renaming it over `path`.
fn tmp_sibling(path: &Path, n: u64) -> std::io::Result<PathBuf> {
    let no_name = || std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name");
    let mut name = path.file_name().ok_or_else(no_name)?.to_os_string();
    name.push(format!(".{}.{n}.tmp", std::process::id()));
    Ok(path.with_file_name(name))
}

/// The directory holding `path`. A bare relative file name has the parent
/// `""`, which cannot be opened: that file lives in `.`.
#[cfg(unix)]
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{write_store, StoreConfig};
    use hqmr_codec::NullCodec;
    use hqmr_grid::synth;
    use hqmr_mr::{to_adaptive, RoiConfig};

    fn store() -> Vec<u8> {
        let f = synth::nyx_like(16, 77);
        let mr = to_adaptive(&f, &RoiConfig::new(8, 0.5));
        write_store(&mr, &StoreConfig::new(1e6).with_chunk_blocks(1), &NullCodec)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("hqmr_scrub_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn sidecar_roundtrips_and_binds_to_store() {
        let buf = store();
        let sc = ParitySidecar::from_store_bytes(&buf, 4).unwrap();
        let back = ParitySidecar::from_bytes(&sc.to_bytes()).unwrap();
        assert_eq!(back, sc);
        let (meta, _) = parse_head(&buf).unwrap();
        assert!(back.matches(&meta));
        assert!(back.parity_bytes() > 0);

        // A different store's sidecar is rejected wholesale.
        let f = synth::nyx_like(16, 78);
        let mr = to_adaptive(&f, &RoiConfig::new(8, 0.5));
        let other = write_store(&mr, &StoreConfig::new(1e6).with_chunk_blocks(1), &NullCodec);
        let (other_meta, _) = parse_head(&other).unwrap();
        assert!(!back.matches(&other_meta));
    }

    #[test]
    fn single_flip_reconstructs_bit_exactly() {
        let clean = store();
        let sc = ParitySidecar::from_store_bytes(&clean, 4).unwrap();
        let (meta, data_start) = parse_head(&clean).unwrap();
        let c = meta.levels[0].chunks[0].clone();
        assert!(c.len > 0);
        let original = clean[data_start as usize + c.offset as usize
            ..data_start as usize + c.offset as usize + c.len]
            .to_vec();

        let mut dirty = clean.clone();
        dirty[data_start as usize + c.offset as usize] ^= 0x40;
        let reader = StoreReader::from_bytes(dirty).unwrap();
        assert!(matches!(
            reader.fetch_chunk_bytes(0, 0),
            Err(StoreError::CorruptChunk { level: 0, block: 0 })
        ));
        let rebuilt = sc.reconstruct(&reader, 0, 0).unwrap();
        assert_eq!(rebuilt, original, "reconstruction must be bit-exact");
    }

    #[test]
    fn two_flips_in_one_group_are_typed_unrepairable() {
        let clean = store();
        let sc = ParitySidecar::from_store_bytes(&clean, 4).unwrap();
        let (meta, data_start) = parse_head(&clean).unwrap();
        let flat = flat_chunks(&meta);
        assert!(flat.len() >= 2, "need two chunks in group 0");
        let mut dirty = clean.clone();
        for &(l, b) in &flat[..2] {
            let c = &meta.levels[l].chunks[b];
            dirty[data_start as usize + c.offset as usize] ^= 0x01;
        }
        let reader = StoreReader::from_bytes(dirty).unwrap();
        let (l0, b0) = flat[0];
        assert!(matches!(
            sc.reconstruct(&reader, l0, b0),
            Err(StoreError::Unrepairable { .. })
        ));
    }

    #[test]
    fn damaged_sidecar_bytes_are_typed_never_panic() {
        let buf = store();
        let sc = ParitySidecar::from_store_bytes(&buf, 4).unwrap();
        let bytes = sc.to_bytes();
        for cut in [0, 3, PARITY_PREFIX_LEN - 1, bytes.len() - 1] {
            assert!(matches!(
                ParitySidecar::from_bytes(&bytes[..cut]),
                Err(StoreError::CorruptSidecar(_))
            ));
        }
        for i in 0..PARITY_PREFIX_LEN + 8 {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            // Any outcome but a panic is fine; structural damage must stay
            // typed (a payload flip parses but fails at reconstruct time).
            let _ = ParitySidecar::from_bytes(&bad);
        }
    }

    #[test]
    fn scrub_heals_file_in_place() {
        let dir = tmp_dir("heal");
        let clean = store();
        let sc = ParitySidecar::from_store_bytes(&clean, DEFAULT_PARITY_GROUP).unwrap();
        let path = dir.join("a.hqst");
        let (meta, data_start) = parse_head(&clean).unwrap();
        let c = meta.levels[0].chunks[0].clone();
        let mut dirty = clean.clone();
        dirty[data_start as usize + c.offset as usize] ^= 0xFF;
        std::fs::write(&path, &dirty).unwrap();
        std::fs::write(parity_path(&path), sc.to_bytes()).unwrap();

        let report = scrub_store(&path, None).unwrap();
        assert_eq!(report.repaired, 1);
        assert!(report.all_exact());
        assert_eq!(report.sidecar, SidecarStatus::Present);
        assert_eq!(std::fs::read(&path).unwrap(), clean, "healed bit-exactly");

        // Second pass: everything verifies, nothing to do.
        let again = scrub_store(&path, None).unwrap();
        assert_eq!(again.repaired, 0);
        assert_eq!(again.verified, meta.chunk_count());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scrub_without_sidecar_reports_unrepairable() {
        let dir = tmp_dir("bare");
        let clean = store();
        let path = dir.join("b.hqst");
        let (meta, data_start) = parse_head(&clean).unwrap();
        let c = meta.levels[0].chunks[0].clone();
        let mut dirty = clean;
        dirty[data_start as usize + c.offset as usize] ^= 0xFF;
        std::fs::write(&path, &dirty).unwrap();
        let report = scrub_store(&path, None).unwrap();
        assert_eq!(report.sidecar, SidecarStatus::Missing);
        assert_eq!(report.unrepairable, vec![(0, 0)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scrub_rebuilds_rotted_sidecar_over_clean_store() {
        let dir = tmp_dir("rebuild");
        let clean = store();
        let sc = ParitySidecar::from_store_bytes(&clean, DEFAULT_PARITY_GROUP).unwrap();
        let path = dir.join("c.hqst");
        std::fs::write(&path, &clean).unwrap();
        let mut rotten = sc.to_bytes();
        rotten[6] ^= 0xFF; // header length byte → typed CorruptSidecar
        std::fs::write(parity_path(&path), &rotten).unwrap();

        let report = scrub_store(&path, None).unwrap();
        assert!(report.sidecar_rebuilt);
        assert_eq!(report.sidecar, SidecarStatus::Present);
        let restored =
            ParitySidecar::from_bytes(&std::fs::read(parity_path(&path)).unwrap()).unwrap();
        assert_eq!(restored, sc);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The one `write_atomic` is the strict one: a bare relative file name
    /// syncs `.`, a directory fsync that fails is an error, and a failed
    /// write cleans up after itself.
    #[test]
    fn write_atomic_is_strict_about_the_parent_and_leaves_no_temp() {
        // The one temp-name shape: a `*.tmp` sibling, which is what
        // `TemporalWriter::salvage` sweeps after a crash stranded one.
        let staged = tmp_sibling(Path::new("run/frame_00001.hqst"), 7).unwrap();
        let name = format!("frame_00001.hqst.{}.7.tmp", std::process::id());
        assert_eq!(staged, Path::new("run").join(name));
        assert!(tmp_sibling(Path::new(".."), 0).is_err(), "no file name");

        // Scrub's two writers on a bare relative name (a file in the
        // working directory): `repair_in_place`, then the sidecar rebuild.
        // Both must get through the parent fsync, i.e. open `.`, not `""`.
        #[cfg(unix)]
        assert_eq!(parent_dir(Path::new("x.hqst")), Path::new("."));
        let bare = PathBuf::from(format!("hqmr_scrub_bare_{}.hqst", std::process::id()));
        let clean = store();
        let sc = ParitySidecar::from_store_bytes(&clean, DEFAULT_PARITY_GROUP).unwrap();
        let (meta, data_start) = parse_head(&clean).unwrap();
        let mut dirty = clean.clone();
        dirty[data_start as usize + meta.levels[0].chunks[0].offset as usize] ^= 0xFF;
        std::fs::write(&bare, &dirty).unwrap();
        std::fs::write(parity_path(&bare), sc.to_bytes()).unwrap();
        let healed = scrub_store(&bare, None);
        let mut rotten = sc.to_bytes();
        rotten[6] ^= 0xFF;
        std::fs::write(parity_path(&bare), &rotten).unwrap();
        let rebuilt = scrub_store(&bare, None);
        let (store_after, sidecar_after) =
            (std::fs::read(&bare), std::fs::read(parity_path(&bare)));
        std::fs::remove_file(&bare).ok();
        std::fs::remove_file(parity_path(&bare)).ok();
        assert_eq!(healed.unwrap().repaired, 1);
        assert!(rebuilt.unwrap().sidecar_rebuilt);
        assert_eq!(store_after.unwrap(), clean);
        assert_eq!(sidecar_after.unwrap(), sc.to_bytes());

        // A target that cannot be renamed over (a non-empty directory squats
        // on it) fails the write, and the staging file goes with it.
        let dir = tmp_dir("strict");
        let squatted = dir.join("frame.hqst");
        std::fs::create_dir_all(squatted.join("x")).unwrap();
        assert!(write_atomic(&squatted, b"bytes").is_err());
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left, ["frame.hqst"], "nothing but the squatter is left");

        // A parent that can be written and searched but not opened: the file
        // lands, the directory fsync cannot happen, and that is an error.
        // (A privileged user opens any directory; nothing to observe then.)
        #[cfg(unix)]
        {
            use std::os::unix::fs::PermissionsExt;
            let locked = dir.join("locked");
            std::fs::create_dir(&locked).unwrap();
            let mode = |m| std::fs::set_permissions(&locked, std::fs::Permissions::from_mode(m));
            mode(0o300).unwrap();
            if std::fs::File::open(&locked).is_err() {
                let err = write_atomic(&locked.join("f.hqst"), b"bytes").unwrap_err();
                assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);
            }
            mode(0o700).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn throttle_paces_consumption() {
        let mut t = Throttle::new(1 << 20); // 1 MiB/s
        let t0 = Instant::now();
        t.consume(1 << 18); // 256 KiB → ≥ ~250ms
        assert!(t0.elapsed() >= Duration::from_millis(200));
        let mut unlimited = Throttle::new(0);
        let t1 = Instant::now();
        unlimited.consume(u64::MAX / 2);
        assert!(t1.elapsed() < Duration::from_millis(50));
    }
}
