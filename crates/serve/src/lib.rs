//! `hqmr-serve` — the concurrent serving layer over block-indexed stores.
//!
//! A [`StoreReader`] gives random access to a compressed multi-resolution
//! container, but every query re-fetches and re-decodes its chunks from
//! scratch. Interactive visualization traffic does the opposite of touching
//! each chunk once: many clients pan and zoom over the *same* hot regions —
//! of one snapshot or of neighbouring frames of a run. [`Server`] is the
//! layer in between, and there is exactly one of it.
//!
//! **What is served — the [`Frames`] seam.** A server wraps an `Arc<F>`
//! where `F:` [`Frames`] is an indexed run of per-frame [`StoreReader`]s plus
//! one bit per chunk: "is this stored stream a residual against the same
//! chunk one frame earlier?". A [`TemporalReader`] (an `HQTM` directory) is
//! the general case; a snapshot — a bare [`StoreReader`] — is *the one-frame
//! series*: frame `0` is the reader itself and no chunk is ever a delta.
//! [`StoreServer`] and [`TemporalServer`] are aliases of the same type,
//! differing only in the arity of their convenience reads
//! (`read_level(level)` vs. `read_level(t, level)`); a bare [`Query`] is a
//! [`TimeQuery`] at time `0`.
//!
//! A [`TemporalServer`] is the one read API of a run: per frame
//! ([`Server::frame`]`(t).progressive(..)`, `read_level(t, ..)`,
//! `read_roi(t, ..)`, [`Server::read_frame`]), per time window
//! ([`Server::read_roi_window`]) and per batch. The bare reader keeps only
//! `open` and the uncached `read_frame` every cached read is held to.
//! [`Frames::frame_reader`] is the raw per-frame store — residuals on delta
//! chunks — and [`Server::frame`] the actual-value view of the same frame.
//!
//! **One chunk pipeline.** Every decoded chunk, whoever asks, comes out of
//! one function keyed `(time, level, chunk)`:
//!
//! ```text
//! LRU / single-flight ─miss→ fault hook → fetch+CRC → decode
//!                              → (parity repair) → (delta chain, through the cache)
//! ```
//!
//! The cache is a byte-budgeted LRU of shared `Arc<[f32]>` slabs (a hit is
//! a refcount bump) with single-flight decode (concurrent requests for one
//! non-resident chunk decode it once). A delta chunk recurses — through the
//! cache — into `(t−1, level, chunk)`, so a chain is walked at most once
//! however many clients ask for its tip; deadlock-free by construction,
//! since the decode closure runs outside every cache lock and only ever
//! requests a strictly smaller time index.
//!
//! **One batch call.** [`Server::serve`] plans the *union* of needed
//! chunks, harvests the resident ones under one lock, decodes the misses in
//! parallel and assembles every answer from the batch's own decoded set, as
//! [`ResponseParts`] (by reference into the chunks) with the `(level,
//! chunk)` pairs it was filled on. [`OnCorrupt`] decides what a chunk that
//! will not decode does: fail the batch, or be quarantined, filled from
//! coarser data and flagged. [`Server::serve_resident`] is the same call
//! for a caller that must not decode: it answers only if one lock finds
//! every planned chunk resident, and harvests them under that lock.
//! [`Server::serve_batch`] is the exact answer, owned.
//!
//! Every read is byte-identical to the bare reader's: all funnel through
//! the provider-generic assembly in [`hqmr_store::read`], and the
//! differential suites (`tests/serve_props.rs`, the workspace's
//! `temporal_props`) pin that across every backend, arrangement and budget,
//! and pin a snapshot and its one-frame series to the same bits and the
//! same [`CacheStats`] ledger.

mod cache;

pub use cache::CacheStats;

use hqmr_grid::{Dims3, Field3};
use hqmr_mr::{LevelData, MultiResData, Upsample};
use hqmr_store::read::{self, ChunkSource};
use hqmr_store::temporal::{apply_residual, TemporalReader, TimeKey};
use hqmr_store::{
    temporal_sidecars, DecodedChunk, LevelParts, ParitySidecar, Progressive, RoiParts, ScrubReport,
    SidecarStatus, StoreError, StoreMeta, StoreReader, Throttle,
};
use rayon::prelude::*;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};

// Compile-time thread-safety contract: the whole point of the server is to
// be shared across client threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<StoreServer>();
    assert_send_sync::<TemporalServer>();
    assert_send_sync::<CacheStats>();
};

/// Cache budget meaning "never evict" ([`Server::unbounded`]).
pub const UNBOUNDED: usize = usize::MAX;

/// Carves one global decoded-chunk byte budget into per-tenant budgets,
/// proportionally to `weights` (e.g. each tenant's compressed store size or
/// expected traffic share). Guarantees:
///
/// * the per-tenant budgets sum to exactly `total` (largest-remainder
///   rounding), so a fleet of [`StoreServer`]s provisioned from one global
///   budget can never collectively exceed it;
/// * a tenant with nonzero weight gets a nonzero budget whenever
///   `total >= weights.len()`, so no live tenant is starved to cache-off;
/// * [`UNBOUNDED`] passes through: every tenant is unbounded.
///
/// Zero weights (idle tenants) receive zero budget. An empty weight slice
/// returns an empty vec.
pub fn partition_budget(total: usize, weights: &[u64]) -> Vec<usize> {
    if weights.is_empty() {
        return Vec::new();
    }
    if total == UNBOUNDED {
        return vec![UNBOUNDED; weights.len()];
    }
    let sum: u128 = weights.iter().map(|&w| w as u128).sum();
    if sum == 0 {
        // No information: split evenly, remainder to the front.
        let base = total / weights.len();
        let mut rem = total % weights.len();
        return weights
            .iter()
            .map(|_| {
                let extra = usize::from(rem > 0);
                rem -= extra;
                base + extra
            })
            .collect();
    }
    // Largest-remainder apportionment over floor(total * w / sum).
    let mut out: Vec<usize> = Vec::with_capacity(weights.len());
    let mut fracs: Vec<(u128, usize)> = Vec::with_capacity(weights.len());
    let mut assigned: usize = 0;
    for (i, &w) in weights.iter().enumerate() {
        let prod = total as u128 * w as u128;
        let share = (prod / sum) as usize;
        fracs.push((prod % sum, i));
        out.push(share);
        assigned += share;
    }
    fracs.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in fracs.iter().take(total - assigned) {
        out[i] += 1;
    }
    // Nonzero-weight tenants must not be starved when there is budget to
    // hand out: steal single bytes from the largest allocations.
    if total >= weights.len() {
        while let Some(starved) = (0..out.len()).find(|&i| weights[i] > 0 && out[i] == 0) {
            let richest = (0..out.len()).max_by_key(|&i| out[i]).expect("nonempty");
            debug_assert!(out[richest] > 1);
            out[richest] -= 1;
            out[starved] += 1;
        }
    }
    out
}

/// One client request in a batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// One whole resolution level.
    Level {
        /// Level index (refinement distance, 0 = finest).
        level: usize,
    },
    /// An axis-aligned box `[lo, hi)` of one level, uncovered cells filled
    /// with `fill`.
    Roi {
        /// Level index.
        level: usize,
        /// Low corner, level cell coordinates.
        lo: [usize; 3],
        /// High corner (exclusive).
        hi: [usize; 3],
        /// Fill value for cells no unit block covers.
        fill: f32,
    },
    /// One level under isovalue chunk-skipping.
    Iso {
        /// Level index.
        level: usize,
        /// The isovalue.
        iso: f32,
    },
}

/// The response to one [`Query`], same order as the request slice.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Query::Level`].
    Level(LevelData),
    /// Answer to [`Query::Roi`].
    Roi(Field3),
    /// Answer to [`Query::Iso`].
    Iso(LevelData),
}

/// A [`Response`] still in the decoded chunks it is made of — what a batch
/// assembles. In-process callers get [`ResponseParts::to_owned`] of it
/// (that is all [`Server::serve_batch`] adds); the network layer writes its
/// frame straight from the slabs instead, so a cached answer is copied once,
/// into the socket's buffer. The parts keep their chunks alive on their own:
/// evictions (or a zero cache budget) cannot pull the data from under them.
#[derive(Debug, Clone)]
pub enum ResponseParts {
    /// Answer to [`Query::Level`].
    Level(LevelParts),
    /// Answer to [`Query::Roi`].
    Roi(RoiParts),
    /// Answer to [`Query::Iso`].
    Iso(LevelParts),
}

impl ResponseParts {
    /// Copies the answer out of its chunks.
    pub fn to_owned(&self) -> Response {
        match self {
            ResponseParts::Level(l) => Response::Level(l.to_owned()),
            ResponseParts::Roi(r) => Response::Roi(r.to_owned()),
            ResponseParts::Iso(l) => Response::Iso(l.to_owned()),
        }
    }
}

/// One query's answer with its quality flag: `degraded` lists every
/// `(level, chunk)` the query touched that [`OnCorrupt::Fill`] replaced by
/// a fill. Empty means the answer is bit-identical to the exact one.
/// [`Server::serve`] answers over [`ResponseParts`]; the owned default is
/// what a degraded answer carries over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult<R = Response> {
    /// The assembled answer (possibly containing filled regions).
    pub response: R,
    /// `(level, chunk)` pairs served from fill instead of real data, sorted.
    pub degraded: Vec<(usize, usize)>,
}

impl<R> QueryResult<R> {
    /// Whether every chunk behind this answer decoded cleanly.
    pub fn is_exact(&self) -> bool {
        self.degraded.is_empty()
    }
}

impl QueryResult<ResponseParts> {
    /// Copies the answer out of its chunks; the flags stay.
    pub fn to_owned(&self) -> QueryResult {
        let response = self.response.to_owned();
        let degraded = self.degraded.clone();
        QueryResult { response, degraded }
    }
}

/// One request of a batch, pinned to a frame. A bare [`Query`] converts to
/// the query at time `0` — all a snapshot has.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeQuery {
    /// Frame index the query reads.
    pub time: usize,
    /// The spatial query within that frame.
    pub query: Query,
}

impl From<Query> for TimeQuery {
    fn from(query: Query) -> Self {
        TimeQuery { time: 0, query }
    }
}

/// Decides whether a chunk fetch is forced to fail as
/// [`StoreError::CorruptChunk`] — the injection point fault-injection
/// harnesses (the `chaos` module of `hqmr-net`) hook into. Called with
/// `(level, block)` before the real fetch of a *stored* chunk (a residual,
/// for delta chunks); returning `true` simulates a chunk whose CRC check
/// failed. Because every stored chunk is CRC-guarded, this is
/// observationally identical to real at-rest bit rot.
pub type FaultHook = Arc<dyn Fn(usize, usize) -> bool + Send + Sync>;

/// What a [`Server`] serves: an indexed run of per-frame stores. The seam
/// between the serving core and the two on-disk shapes — implemented for a
/// [`TemporalReader`], and for a bare [`StoreReader`] as the one-frame
/// series that never predicts.
pub trait Frames: Send + Sync {
    /// Number of frames.
    fn frame_count(&self) -> usize;
    /// Frame `t`'s raw store ([`StoreError::NoSuchFrame`] past the end). Its
    /// chunk streams are residuals wherever [`Frames::is_delta`] says so;
    /// actual values come from [`Server::frame`].
    fn frame_reader(&self, t: usize) -> Result<&StoreReader, StoreError>;
    /// Whether frame `t`'s stored `(level, chunk)` is a residual against
    /// `(t − 1, level, chunk)`. Only asked for a `t` that `frame_reader`
    /// accepted.
    fn is_delta(&self, t: usize, level: usize, chunk: usize) -> bool;
}

impl Frames for StoreReader {
    fn frame_count(&self) -> usize {
        1
    }
    fn frame_reader(&self, t: usize) -> Result<&StoreReader, StoreError> {
        (t == 0).then_some(self).ok_or(StoreError::NoSuchFrame(t))
    }
    fn is_delta(&self, _: usize, _: usize, _: usize) -> bool {
        false
    }
}

impl Frames for TemporalReader {
    fn frame_count(&self) -> usize {
        TemporalReader::frame_count(self)
    }
    fn frame_reader(&self, t: usize) -> Result<&StoreReader, StoreError> {
        TemporalReader::frame_reader(self, t)
    }
    fn is_delta(&self, t: usize, level: usize, chunk: usize) -> bool {
        self.manifest().frames[t].is_delta(level, chunk)
    }
}

/// A batch's queries with the chunk keys each needs, in request order.
type Planned = Vec<(TimeQuery, Vec<TimeKey>)>;

/// The union of a planned batch's keys, each chunk once.
fn union(planned: &Planned) -> BTreeSet<TimeKey> {
    planned.iter().flat_map(|(_, keys)| keys).copied().collect()
}

/// What a batch does with a chunk whose payload will not decode
/// ([`StoreError::CorruptChunk`] or [`StoreError::Codec`], its own or
/// anywhere down its delta chain) and cannot be repaired. Planning errors
/// (`NoSuchFrame`, `NoSuchLevel`, `RoiOutOfBounds`) and store I/O failures
/// fail the batch either way: those are caller or infrastructure faults,
/// not data decay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnCorrupt {
    /// The typed error fails the batch.
    Fail,
    /// The chunk is quarantined, its blocks are filled from the nearest
    /// coarser level upsampled into place (over the chunk table's
    /// `(min+max)/2` proxy where no coarser level covers them — levels
    /// *partition* an adaptive domain, so a fine chunk usually has none),
    /// and each answer lists the `(level, chunk)` pairs of its frame it was
    /// filled on. With no corrupt chunk, every answer
    /// [`QueryResult::is_exact`] and equals [`OnCorrupt::Fail`]'s.
    Fill,
}

/// A `Send + Sync` serving layer over one shared run of frames.
///
/// All methods take `&self`; clone the `Arc<Server<_>>` (or borrow across
/// `std::thread::scope`) into as many client threads as needed. Every read
/// returns actual values — delta chains are resolved internally — and is
/// byte-identical to the bare reader's at every cache budget.
pub struct Server<F: Frames> {
    reader: Arc<F>,
    cache: cache::ChunkCache,
    fault_hook: Option<FaultHook>,
    /// Per-frame parity sidecars for online repair (`parity[t]` pairs with
    /// frame `t`); empty when repair is unarmed, `None` for a frame whose
    /// sidecar was absent or damaged — such frames degrade as if unarmed.
    parity: Vec<Option<ParitySidecar>>,
    /// Chunks that failed to decode during a degraded batch. Quarantined
    /// chunks are never re-fetched by the degraded path (they go straight
    /// to fill), keeping repeat traffic off a known-bad disk region, until
    /// a [`Server::scrub_pass`] finds them healthy again.
    quarantine: Mutex<BTreeSet<TimeKey>>,
}

/// The serving layer over one snapshot: the one-frame series.
pub type StoreServer = Server<StoreReader>;

/// The serving layer over a temporal (`HQTM`) store.
pub type TemporalServer = Server<TemporalReader>;

impl<F: Frames> Server<F> {
    /// Wraps `reader` with a decoded-chunk cache of at most `cache_budget`
    /// bytes (decoded payload footprint). A budget of `0` disables caching
    /// entirely — reads stay correct and single-flight still deduplicates
    /// concurrent decodes, though a cold delta read then re-walks its
    /// chain; [`UNBOUNDED`] never evicts.
    pub fn new(reader: Arc<F>, cache_budget: usize) -> Self {
        Server {
            reader,
            cache: cache::ChunkCache::new(cache_budget),
            fault_hook: None,
            parity: Vec::new(),
            quarantine: Mutex::new(BTreeSet::new()),
        }
    }

    /// [`Server::new`] with an unbounded budget.
    pub fn unbounded(reader: Arc<F>) -> Self {
        Self::new(reader, UNBOUNDED)
    }

    /// Installs a [`FaultHook`] consulted before every stored-chunk decode
    /// (builder form, for use before the server is shared). Production
    /// servers leave this unset; the chaos harness injects simulated
    /// corruption here. The hook fires inside the cache's decode path, so a
    /// chunk already resident (including one just repaired) is served
    /// without re-rolling the fault — matching real at-rest rot, which only
    /// bites on fetch — and a delta chunk's fault surfaces while walking
    /// any chain through it.
    pub fn with_fault_hook(mut self, hook: FaultHook) -> Self {
        self.fault_hook = Some(hook);
        self
    }

    /// Arms online repair with one optional parity sidecar per frame.
    /// Fails with [`StoreError::SidecarMismatch`] if a sidecar does not
    /// describe its frame, or [`StoreError::Malformed`] if the count differs
    /// from the frame count.
    fn arm(mut self, sidecars: Vec<Option<ParitySidecar>>) -> Result<Self, StoreError> {
        if sidecars.len() != self.reader.frame_count() {
            return Err(StoreError::Malformed("one parity slot per frame"));
        }
        for (t, sidecar) in sidecars.iter().enumerate() {
            if let Some(sidecar) = sidecar {
                if !sidecar.matches(self.reader.frame_reader(t)?.meta()) {
                    return Err(StoreError::SidecarMismatch);
                }
            }
        }
        self.parity = sidecars;
        Ok(self)
    }

    /// Builds a fresh parity sidecar over every wrapped frame (which must
    /// verify clean) and arms online repair with them — the in-memory
    /// dataset path, where no `.hqpr` file exists to load. `group` chunks
    /// share one XOR parity block (`0` is rejected by construction
    /// downstream; use [`hqmr_store::DEFAULT_PARITY_GROUP`] by default).
    pub fn with_built_parity(self, group: usize) -> Result<Self, StoreError> {
        let sidecars = (0..self.reader.frame_count())
            .map(|t| ParitySidecar::from_reader(self.reader.frame_reader(t)?, group).map(Some))
            .collect::<Result<_, _>>()?;
        self.arm(sidecars)
    }

    /// Whether any frame has online parity repair armed.
    pub fn has_parity(&self) -> bool {
        self.parity.iter().any(Option::is_some)
    }

    /// The wrapped reader (e.g. for its `bytes_decoded` accounting).
    pub fn reader(&self) -> &F {
        &self.reader
    }

    /// Number of frames served.
    pub fn frame_count(&self) -> usize {
        self.reader.frame_count()
    }

    /// Snapshot of the cache counters. The snapshot is atomically
    /// consistent with respect to the ledger identity: `requests` is
    /// derived as `hits + misses` at read time, so the identity holds even
    /// when other client threads have lookups mid-flight — an exporter
    /// never has to quiesce traffic to publish balanced stats.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Snapshot-and-reset in one step: returns the counter window
    /// accumulated since the last reset and starts a fresh one, losing no
    /// concurrent increment (each lands in exactly one window). The
    /// per-tenant stats export of the network serving layer drives this.
    pub fn take_stats(&self) -> CacheStats {
        self.cache.take_stats()
    }

    /// Drops every resident chunk (a cold cache without rebuilding the
    /// server). Counters are kept.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// The one chunk pipeline: the actual-value chunk `(t, level, block)`
    /// through the cache; on a miss, fault hook → fetch+CRC → decode →
    /// parity repair → delta chain (through the cache again).
    ///
    /// A parity reconstruction is verified against the chunk table's CRC
    /// (bit-exactness by construction) and runs through the normal decode,
    /// so a successful repair is published to the LRU exactly like a clean
    /// decode — *unlike* degraded fills, which never enter the cache. On a
    /// failed one the original typed error propagates, so degradation
    /// semantics do not depend on whether repair was armed.
    fn chunk_at(&self, t: usize, level: usize, block: usize) -> Result<DecodedChunk, StoreError> {
        self.cache.get_or_decode((t, level, block), || {
            let frame = self.reader.frame_reader(t)?;
            let hook = self.fault_hook.as_ref();
            let stored = if hook.is_some_and(|hook| hook(level, block)) {
                Err(StoreError::CorruptChunk { level, block })
            } else {
                frame.decode_chunk(level, block)
            };
            let stored = match stored {
                Err(original @ (StoreError::CorruptChunk { .. } | StoreError::Codec { .. })) => {
                    let Some(Some(parity)) = self.parity.get(t) else {
                        return Err(original);
                    };
                    let rebuilt = parity
                        .reconstruct(frame, level, block)
                        .and_then(|bytes| frame.decode_chunk_bytes(level, block, &bytes));
                    match rebuilt {
                        Ok(chunk) => {
                            self.cache.note_repair();
                            chunk
                        }
                        Err(_) => {
                            self.cache.note_repair_failure();
                            return Err(original);
                        }
                    }
                }
                other => other?,
            };
            if !self.reader.is_delta(t, level, block) {
                return Ok(stored);
            }
            // `TemporalReader::open` rejects a delta in frame 0; belt and braces.
            let before = t
                .checked_sub(1)
                .ok_or(StoreError::Malformed("delta chain has no keyframe root"))?;
            apply_residual(&self.chunk_at(before, level, block)?, &stored)
        })
    }

    /// Resolves many chunks at once, results in `keys` order: one lock
    /// acquisition harvests every resident chunk, then only the misses fan
    /// out through the single-flight pipeline — a warm read never pays
    /// per-chunk locking or thread fan-out.
    fn fetch(&self, keys: &[TimeKey]) -> Vec<Result<DecodedChunk, StoreError>> {
        let resident = self.cache.get_resident(keys);
        let missing: Vec<TimeKey> = keys
            .iter()
            .zip(&resident)
            .filter_map(|(&key, hit)| hit.is_none().then_some(key))
            .collect();
        // All hits: skip the fan-out's set-up, which costs more than the
        // harvest itself.
        if missing.is_empty() {
            return resident.into_iter().flatten().map(Ok).collect();
        }
        let decoded: Vec<Result<DecodedChunk, StoreError>> = missing
            .par_iter()
            .map(|&(t, level, block)| self.chunk_at(t, level, block))
            .collect();
        let mut decoded = decoded.into_iter();
        resident
            .into_iter()
            .map(|hit| hit.map_or_else(|| decoded.next().expect("one decode per miss"), Ok))
            .collect()
    }

    /// A [`ChunkSource`] view of frame `t` whose chunks come through the
    /// server's cache — level/ROI/iso/progressive reads per frame.
    pub fn frame(&self, t: usize) -> Result<TimeView<'_, F>, StoreError> {
        Ok(TimeView {
            server: self,
            t,
            meta: self.reader.frame_reader(t)?.meta(),
            batch: None,
        })
    }

    /// Reads every level of frame `t` through the cache.
    pub fn read_frame(&self, t: usize) -> Result<MultiResData, StoreError> {
        read::read_all(&self.frame(t)?)
    }

    /// Time-windowed ROI through the cache: one field per frame of
    /// `t0..=t1`, each equal to a single-frame ROI read; chain work is
    /// shared through the `(time, level, chunk)` cache (at a budget that
    /// keeps the window's chunks resident, each chain link decodes once).
    pub fn read_roi_window(
        &self,
        t0: usize,
        t1: usize,
        level: usize,
        lo: [usize; 3],
        hi: [usize; 3],
        fill: f32,
    ) -> Result<Vec<Field3>, StoreError> {
        if t0 > t1 {
            return Err(StoreError::Malformed("empty time window"));
        }
        self.reader.frame_reader(t1)?;
        (t0..=t1)
            .map(|t| read::read_roi(&self.frame(t)?, level, lo, hi, fill))
            .collect()
    }

    /// The `(time, level, chunk)` keys one query needs — chunk-table
    /// accounting only, no decoding. A delta chunk's chain predecessors are
    /// *not* planned here; they are resolved (and cached) during decode.
    fn query_keys(&self, q: &TimeQuery) -> Result<Vec<TimeKey>, StoreError> {
        let meta = self.reader.frame_reader(q.time)?.meta();
        let (level, indices) = match q.query {
            Query::Level { level } => {
                let lm = meta
                    .levels
                    .get(level)
                    .ok_or(StoreError::NoSuchLevel(level))?;
                (level, (0..lm.chunks.len()).collect())
            }
            Query::Roi { level, lo, hi, .. } => {
                (level, read::roi_chunk_indices(meta, level, lo, hi)?)
            }
            Query::Iso { level, iso } => (level, read::iso_chunk_indices(meta, level, iso)?),
        };
        Ok(indices.into_iter().map(|i| (q.time, level, i)).collect())
    }

    /// The set of `(time, level, chunk)` keys a batch of queries needs —
    /// the union across requests, each chunk exactly once.
    pub fn plan<Q: Into<TimeQuery> + Copy>(
        &self,
        queries: &[Q],
    ) -> Result<BTreeSet<TimeKey>, StoreError> {
        Ok(union(&self.plan_each(queries)?))
    }

    /// Serves a batch of queries under `on_corrupt`: plans the union of
    /// needed chunks across all frames, decodes the misses in parallel
    /// (each through single-flight, and delta chains through the shared
    /// cache, so concurrent batches and adjacent times share the work), then
    /// assembles every answer from the batch's decoded set — each chunk
    /// touched once, even at cache budget 0. Answers are in request order
    /// and byte-identical to issuing each query alone.
    pub fn serve<Q: Into<TimeQuery> + Copy>(
        &self,
        queries: &[Q],
        on_corrupt: OnCorrupt,
    ) -> Result<Vec<QueryResult<ResponseParts>>, StoreError> {
        self.batch(self.plan_each(queries)?, on_corrupt)
    }

    /// [`Server::serve`] for a caller that must not decode (a connection
    /// thread of the network layer): `Ok(None)`, with nothing decoded,
    /// touched or counted, unless one lock acquisition finds every planned
    /// chunk resident — and then the answers are assembled from what that
    /// same acquisition harvested. Under [`OnCorrupt::Fill`] a quarantined
    /// chunk is also `Ok(None)`: its fill may read coarser chunks. Planning
    /// errors are returned, so a malformed batch never waits for a decoder.
    pub fn serve_resident<Q: Into<TimeQuery> + Copy>(
        &self,
        queries: &[Q],
        on_corrupt: OnCorrupt,
    ) -> Result<Option<Vec<QueryResult<ResponseParts>>>, StoreError> {
        let planned = self.plan_each(queries)?;
        let need = union(&planned);
        if on_corrupt == OnCorrupt::Fill && !self.quarantine().is_disjoint(&need) {
            return Ok(None);
        }
        let keys: Vec<TimeKey> = need.into_iter().collect();
        let Some(chunks) = self.cache.get_all_resident(&keys) else {
            return Ok(None);
        };
        let chunks = keys.into_iter().zip(chunks).collect();
        self.assemble(planned, &chunks, &BTreeSet::new()).map(Some)
    }

    /// The exact answers of [`Server::serve`], copied out of their chunks.
    pub fn serve_batch<Q: Into<TimeQuery> + Copy>(
        &self,
        queries: &[Q],
    ) -> Result<Vec<Response>, StoreError> {
        let results = self.serve(queries, OnCorrupt::Fail)?;
        Ok(results.iter().map(|r| r.response.to_owned()).collect())
    }

    /// Every query of a batch with the keys it needs, in request order.
    fn plan_each<Q: Into<TimeQuery> + Copy>(&self, queries: &[Q]) -> Result<Planned, StoreError> {
        let keyed = queries.iter().map(|&q| {
            let q = q.into();
            Ok((q, self.query_keys(&q)?))
        });
        keyed.collect()
    }

    /// The one batch function, after the plan: fetch → (fail | fill) →
    /// assemble.
    fn batch(
        &self,
        queries: Planned,
        on_corrupt: OnCorrupt,
    ) -> Result<Vec<QueryResult<ResponseParts>>, StoreError> {
        let need = union(&queries);
        // Known-bad chunks go straight to fill without touching the store.
        let (mut bad, keys): (Vec<TimeKey>, Vec<TimeKey>) = match on_corrupt {
            OnCorrupt::Fail => (Vec::new(), need.into_iter().collect()),
            OnCorrupt::Fill => {
                let quarantine = self.quarantine();
                need.into_iter().partition(|key| quarantine.contains(key))
            }
        };
        let mut chunks: HashMap<TimeKey, DecodedChunk> = HashMap::with_capacity(keys.len());
        for (&key, fetched) in keys.iter().zip(self.fetch(&keys)) {
            match fetched {
                Ok(chunk) => {
                    chunks.insert(key, chunk);
                }
                Err(StoreError::CorruptChunk { .. } | StoreError::Codec { .. })
                    if on_corrupt == OnCorrupt::Fill =>
                {
                    bad.push(key)
                }
                Err(e) => return Err(e),
            }
        }
        // Fills go into this batch's set only, never the shared cache: an
        // exact read after the disk heals must not see stale synthetic data.
        let filled: BTreeSet<TimeKey> = bad.into_iter().collect();
        for &key in &filled {
            self.quarantine().insert(key);
            chunks.insert(key, self.synthesize_fill(key)?);
        }
        self.assemble(queries, &chunks, &filled)
    }

    /// Every answer of a batch from the batch's own chunk set, flagged with
    /// the `filled` keys it touched. The parts hold on to the chunks they
    /// use, so the answers are immune to evictions happening underneath
    /// (budget 0 included).
    fn assemble(
        &self,
        queries: Planned,
        chunks: &HashMap<TimeKey, DecodedChunk>,
        filled: &BTreeSet<TimeKey>,
    ) -> Result<Vec<QueryResult<ResponseParts>>, StoreError> {
        queries
            .into_iter()
            .map(|(q, keys)| {
                let view = TimeView {
                    batch: Some(chunks),
                    ..self.frame(q.time)?
                };
                let response = match q.query {
                    Query::Level { level } => {
                        read::level_parts(&view, level, None).map(ResponseParts::Level)
                    }
                    Query::Roi {
                        level,
                        lo,
                        hi,
                        fill,
                    } => read::roi_parts(&view, level, lo, hi, fill).map(ResponseParts::Roi),
                    Query::Iso { level, iso } => {
                        read::level_parts(&view, level, Some(iso)).map(ResponseParts::Iso)
                    }
                }?;
                let degraded = keys
                    .into_iter()
                    .filter(|key| filled.contains(key))
                    .map(|(_, level, block)| (level, block))
                    .collect();
                Ok(QueryResult { response, degraded })
            })
            .collect()
    }

    /// Best-effort replacement for a chunk that will not decode. Starts
    /// every block at the chunk table's `(min+max)/2` proxy, then overlays
    /// data from the same frame's coarser levels, coarsest first, so the
    /// *nearest* coarser level that covers a cell wins — the same
    /// coarse→fine precedence the progressive path uses. Coarser chunks
    /// that themselves fail to decode are skipped (the proxy remains).
    fn synthesize_fill(&self, (t, level, block): TimeKey) -> Result<DecodedChunk, StoreError> {
        let frame = self.frame(t)?;
        let meta = frame.meta;
        let lm = meta
            .levels
            .get(level)
            .ok_or(StoreError::NoSuchLevel(level))?;
        let cm = lm
            .chunks
            .get(block)
            .ok_or(StoreError::Malformed("chunk index out of range"))?;
        let unit = cm.unit;
        let n = unit.pow(3);
        let mid = 0.5 * (cm.min + cm.max);
        let proxy = if mid.is_finite() { mid } else { 0.0 };
        let origins: Vec<[usize; 3]> = cm.slots.iter().map(|&(_, origin)| origin).collect();
        let mut data = vec![proxy; origins.len() * n];
        let bd = Dims3::cube(unit);
        for lc in ((level + 1)..meta.levels.len()).rev() {
            // One level-`lc` cell spans `rel` level-`level` cells.
            let rel = 1usize << (lc - level);
            let cd = meta.levels[lc].dims;
            for (slot, &origin) in origins.iter().enumerate() {
                let clo: [usize; 3] = std::array::from_fn(|a| origin[a] / rel);
                let chi: [usize; 3] = std::array::from_fn(|a| {
                    ((origin[a] + unit).div_ceil(rel)).min([cd.nx, cd.ny, cd.nz][a])
                });
                if (0..3).any(|a| clo[a] >= chi[a]) {
                    continue;
                }
                // NaN marks "no coarse block covers this cell" so real
                // coarse zeros are not mistaken for absence.
                let coarse = match read::read_roi(&frame, lc, clo, chi, f32::NAN) {
                    Ok(f) => f,
                    Err(_) => continue,
                };
                for x in 0..unit {
                    for y in 0..unit {
                        for z in 0..unit {
                            let g = [origin[0] + x, origin[1] + y, origin[2] + z];
                            let gc: [usize; 3] = std::array::from_fn(|a| g[a] / rel);
                            if (0..3).any(|a| gc[a] < clo[a] || gc[a] >= chi[a]) {
                                continue;
                            }
                            let v = coarse.get(gc[0] - clo[0], gc[1] - clo[1], gc[2] - clo[2]);
                            if !v.is_nan() {
                                data[slot * n + bd.idx(x, y, z)] = v;
                            }
                        }
                    }
                }
            }
        }
        Ok(DecodedChunk {
            unit,
            origins: origins.into(),
            data: data.into(),
        })
    }

    /// One background scrub cycle over every chunk of every wrapped frame:
    /// verifies each stored payload against its chunk-table CRC (paced by
    /// `throttle`), routes corrupt chunks through the chunk pipeline — a
    /// successful reconstruction lands in the LRU, so subsequent reads of a
    /// rotted chunk are exact without touching the degraded path — lifts
    /// the quarantine of every chunk it found healthy (verified or
    /// repaired; transient faults must not degrade answers forever), and
    /// tallies the pass. The wrapped stores' bytes are immutable here
    /// (in-memory or shared file); at-rest healing of files is
    /// [`hqmr_store::scrub_store`]'s job.
    pub fn scrub_pass(&self, mut throttle: Option<&mut Throttle>) -> ScrubReport {
        let mut report = ScrubReport {
            verified: 0,
            repaired: 0,
            unrepairable: Vec::new(),
            bytes_scanned: 0,
            sidecar: if self.has_parity() {
                SidecarStatus::Present
            } else {
                SidecarStatus::Missing
            },
            sidecar_rebuilt: false,
        };
        for t in 0..self.reader.frame_count() {
            let Ok(frame) = self.reader.frame_reader(t) else {
                continue;
            };
            for (level, lm) in frame.meta().levels.iter().enumerate() {
                for (block, cm) in lm.chunks.iter().enumerate() {
                    if let Some(pace) = throttle.as_deref_mut() {
                        pace.consume(cm.len as u64);
                    }
                    report.bytes_scanned += cm.len as u64;
                    if frame.fetch_chunk_bytes(level, block).is_ok() {
                        report.verified += 1;
                    } else if self.chunk_at(t, level, block).is_ok() {
                        report.repaired += 1;
                    } else {
                        report.unrepairable.push((level, block));
                        continue;
                    }
                    self.quarantine().remove(&(t, level, block));
                }
            }
        }
        report
    }

    fn quarantine(&self) -> MutexGuard<'_, BTreeSet<TimeKey>> {
        self.quarantine.lock().expect("quarantine lock")
    }

    /// Empties the quarantine (e.g. after the underlying store was
    /// repaired); subsequent degraded batches re-attempt real decodes.
    pub fn clear_quarantine(&self) {
        self.quarantine().clear();
    }
}

/// The snapshot arity: a [`StoreServer`] *is* its only frame.
impl Server<StoreReader> {
    /// The store's directory.
    pub fn meta(&self) -> &StoreMeta {
        self.reader.meta()
    }

    /// Reads one whole resolution level through the cache.
    pub fn read_level(&self, level: usize) -> Result<LevelData, StoreError> {
        read::read_level(self, level)
    }

    /// Reads every level through the cache.
    pub fn read_all(&self) -> Result<MultiResData, StoreError> {
        read::read_all(self)
    }

    /// Reads the axis-aligned box `[lo, hi)` of one level through the cache;
    /// equals [`StoreReader::read_roi`] byte-for-byte.
    pub fn read_roi(
        &self,
        level: usize,
        lo: [usize; 3],
        hi: [usize; 3],
        fill: f32,
    ) -> Result<Field3, StoreError> {
        read::read_roi(self, level, lo, hi, fill)
    }

    /// Reads one level under isovalue chunk-skipping through the cache;
    /// equals [`StoreReader::read_level_iso`] byte-for-byte.
    pub fn read_level_iso(&self, level: usize, iso: f32) -> Result<LevelData, StoreError> {
        read::read_level_iso(self, level, iso)
    }

    /// Coarse→fine progressive refinement through the cache.
    pub fn progressive(&self, scheme: Upsample) -> Progressive<'_, Self> {
        read::progressive(self, scheme)
    }

    /// The `(level, chunk)` pairs currently quarantined (sorted).
    pub fn quarantined(&self) -> Vec<(usize, usize)> {
        let quarantine = self.quarantine();
        quarantine.iter().map(|&(_, l, c)| (l, c)).collect()
    }
}

impl ChunkSource for Server<StoreReader> {
    fn store_meta(&self) -> &StoreMeta {
        self.reader.meta()
    }

    fn chunk(&self, level: usize, block: usize) -> Result<DecodedChunk, StoreError> {
        self.chunk_at(0, level, block)
    }

    fn chunks(&self, level: usize, indices: &[usize]) -> Result<Vec<DecodedChunk>, StoreError> {
        self.frame(0)?.chunks(level, indices)
    }
}

/// The series arity: reads name their frame.
impl Server<TemporalReader> {
    /// Arms online repair from the `.hqpr` files next to the store's frame
    /// files, tolerating absent or damaged sidecars per frame (those frames
    /// simply stay unprotected).
    pub fn with_disk_parity(self) -> Result<Self, StoreError> {
        let sidecars = temporal_sidecars(self.reader.dir(), self.reader.manifest());
        self.arm(sidecars)
    }

    /// Reads one whole level of frame `t` through the cache.
    pub fn read_level(&self, t: usize, level: usize) -> Result<LevelData, StoreError> {
        read::read_level(&self.frame(t)?, level)
    }

    /// Reads the box `[lo, hi)` of one level at time `t` through the cache.
    pub fn read_roi(
        &self,
        t: usize,
        level: usize,
        lo: [usize; 3],
        hi: [usize; 3],
        fill: f32,
    ) -> Result<Field3, StoreError> {
        read::read_roi(&self.frame(t)?, level, lo, hi, fill)
    }
}

/// One frame of a [`Server`] as a [`ChunkSource`]: all reads go through the
/// server's `(time, level, chunk)` cache — or, during batch assembly, come
/// from the batch's own pre-fetched set first, so responses are immune to
/// concurrent evictions. Chain predecessors were already folded into the
/// actual-value chunks during the fetch.
pub struct TimeView<'a, F: Frames = TemporalReader> {
    server: &'a Server<F>,
    t: usize,
    meta: &'a StoreMeta,
    /// A batch's decoded set. Anything outside it (which only happens if a
    /// query slips past the plan — correctness never depends on the plan
    /// being complete) falls through to the cache.
    batch: Option<&'a HashMap<TimeKey, DecodedChunk>>,
}

impl<F: Frames> TimeView<'_, F> {
    /// The frame's time index.
    pub fn time(&self) -> usize {
        self.t
    }

    /// Coarse→fine progressive refinement of this frame through the cache —
    /// temporal progressive: each step resolves the next finer level's
    /// delta chains, reusing whatever chain prefixes other clients already
    /// paid for.
    pub fn progressive(&self, scheme: Upsample) -> Progressive<'_, Self> {
        read::progressive(self, scheme)
    }
}

impl<F: Frames> ChunkSource for TimeView<'_, F> {
    fn store_meta(&self) -> &StoreMeta {
        self.meta
    }

    fn chunk(&self, level: usize, block: usize) -> Result<DecodedChunk, StoreError> {
        match self.batch.and_then(|b| b.get(&(self.t, level, block))) {
            Some(chunk) => Ok(chunk.clone()),
            None => self.server.chunk_at(self.t, level, block),
        }
    }

    /// Assembly from a batch's in-memory map is plain serial lookups;
    /// otherwise the server's bulk harvest.
    fn chunks(&self, level: usize, indices: &[usize]) -> Result<Vec<DecodedChunk>, StoreError> {
        if self.batch.is_some() {
            return indices.iter().map(|&i| self.chunk(level, i)).collect();
        }
        let keys: Vec<TimeKey> = indices.iter().map(|&i| (self.t, level, i)).collect();
        self.server.fetch(&keys).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqmr_grid::synth;
    use hqmr_mr::{to_adaptive, RoiConfig};
    use hqmr_store::{write_store, StoreConfig};
    use hqmr_sz3::Sz3Codec;

    fn test_server(budget: usize) -> StoreServer {
        let f = synth::nyx_like(32, 77);
        let mr = to_adaptive(&f, &RoiConfig::new(8, 0.5));
        let buf = write_store(
            &mr,
            &StoreConfig::new(1e6).with_chunk_blocks(2),
            &Sz3Codec::default(),
        );
        StoreServer::new(Arc::new(StoreReader::from_bytes(buf).unwrap()), budget)
    }

    #[test]
    fn warm_reads_hit_the_cache() {
        let s = test_server(UNBOUNDED);
        let cold = s.read_level(0).unwrap();
        let st = s.stats();
        assert_eq!(st.hits, 0);
        assert_eq!(st.misses, st.requests);
        assert!(st.resident_bytes > 0);
        let warm = s.read_level(0).unwrap();
        assert_eq!(cold, warm);
        let st = s.stats();
        assert_eq!(st.hits, st.misses, "second pass is all hits");
        assert_eq!(st.requests, st.hits + st.misses);
    }

    #[test]
    fn zero_budget_caches_nothing_but_serves_correctly() {
        let s = test_server(0);
        let a = s.read_level(0).unwrap();
        let b = s.read_level(0).unwrap();
        assert_eq!(a, b);
        let st = s.stats();
        assert_eq!(st.resident_bytes, 0);
        assert_eq!(st.peak_resident_bytes, 0);
        assert_eq!(st.hits, 0, "nothing resident to hit");
        assert_eq!(st.requests, st.misses);
    }

    #[test]
    fn tiny_budget_evicts_but_never_exceeds() {
        let budget = 64 * 1024;
        let s = test_server(budget);
        for _ in 0..3 {
            s.read_all().unwrap();
        }
        let st = s.stats();
        assert!(st.evictions > 0, "a 64 KiB budget must evict at 32^3");
        assert!(st.peak_resident_bytes <= budget as u64);
        assert_eq!(st.requests, st.hits + st.misses);
    }

    #[test]
    fn batch_reuses_overlapping_chunks() {
        let s = test_server(0); // even without a cache, a batch decodes once
        let d = s.meta().levels[0].dims;
        let queries = [
            Query::Level { level: 0 },
            Query::Roi {
                level: 0,
                lo: [0, 0, 0],
                hi: [d.nx, d.ny, d.nz],
                fill: 0.0,
            },
            Query::Roi {
                level: 0,
                lo: [0, 0, 0],
                hi: [d.nx / 2, d.ny, d.nz],
                fill: 0.0,
            },
        ];
        let total = s.meta().levels[0].chunks.len() as u64;
        let responses = s.serve_batch(&queries).unwrap();
        let st = s.stats();
        assert_eq!(
            st.misses, total,
            "three overlapping fine-level queries decode each chunk once"
        );
        // Responses equal the individual reads.
        let oracle = s.reader();
        match &responses[0] {
            Response::Level(l) => assert_eq!(*l, oracle.read_level(0).unwrap()),
            other => panic!("wrong response kind: {other:?}"),
        }
        match &responses[1] {
            Response::Roi(f) => {
                assert_eq!(
                    *f,
                    oracle
                        .read_roi(0, [0, 0, 0], [d.nx, d.ny, d.nz], 0.0)
                        .unwrap()
                )
            }
            other => panic!("wrong response kind: {other:?}"),
        }
    }

    #[test]
    fn take_stats_returns_window_and_resets() {
        let s = test_server(UNBOUNDED);
        s.read_level(0).unwrap();
        let w1 = s.take_stats();
        assert!(w1.misses > 0);
        assert_eq!(w1.requests, w1.hits + w1.misses);
        // Fresh window: a warm pass is all hits, and nothing from the first
        // window leaks in.
        s.read_level(0).unwrap();
        let w2 = s.take_stats();
        assert_eq!(w2.misses, 0);
        assert_eq!(w2.hits, w1.misses, "same chunk count, now all resident");
        assert_eq!(w2.requests, w2.hits + w2.misses);
        // Residency survives the reset; peak restarts from it.
        assert!(w2.resident_bytes > 0);
        assert_eq!(w2.peak_resident_bytes, w2.resident_bytes);
    }

    #[test]
    fn stats_identity_holds_under_concurrent_load() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let s = test_server(64 * 1024);
        let chunks = s.meta().chunk_count() as u64;
        let d = s.meta().levels[0].dims;
        // Boxes small enough to stay resident for a while under the 64 KiB
        // budget, so the inline path both hits and loses races to eviction.
        let boxes: Vec<Query> = (0..4)
            .map(|i| Query::Roi {
                level: 0,
                lo: [0, 0, i * d.nz / 4],
                hi: [d.nx / 4, d.ny / 4, (i + 1) * d.nz / 4],
                fill: 0.0,
            })
            .collect();
        let (lookups, inline) = (AtomicU64::new(0), AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        s.read_all().unwrap();
                        lookups.fetch_add(chunks, Ordering::Relaxed);
                    }
                });
            }
            // Resident-or-decode, as a connection thread of the network
            // layer does: a "no" costs no lookup, a "yes" exactly one hit
            // per key.
            for _ in 0..2 {
                scope.spawn(|| {
                    for q in boxes.iter().cycle().take(400) {
                        let keys = s.plan(&[*q]).unwrap().len() as u64;
                        match s.serve_resident(&[*q], OnCorrupt::Fail).unwrap() {
                            Some(_) => {
                                inline.fetch_add(1, Ordering::Relaxed);
                            }
                            None => drop(s.serve_batch(&[*q]).unwrap()),
                        }
                        lookups.fetch_add(keys, Ordering::Relaxed);
                    }
                });
            }
            // Snapshots taken *while* clients are mid-request still balance.
            for _ in 0..64 {
                let st = s.stats();
                assert_eq!(st.requests, st.hits + st.misses);
                assert!(st.shared <= st.hits);
            }
        });
        let st = s.stats();
        assert_eq!(st.requests, lookups.load(Ordering::Relaxed));
        assert_eq!(st.requests, st.hits + st.misses);
        assert!(inline.load(Ordering::Relaxed) > 0, "never served inline");
    }

    #[test]
    fn partition_budget_sums_and_protects_tenants() {
        assert_eq!(partition_budget(100, &[]), Vec::<usize>::new());
        assert_eq!(partition_budget(UNBOUNDED, &[1, 2]), vec![UNBOUNDED; 2]);
        // Proportional, exact sum.
        let parts = partition_budget(100, &[3, 1]);
        assert_eq!(parts.iter().sum::<usize>(), 100);
        assert_eq!(parts, vec![75, 25]);
        // Uneven split still sums exactly.
        let parts = partition_budget(100, &[1, 1, 1]);
        assert_eq!(parts.iter().sum::<usize>(), 100);
        // Zero weights get nothing; others share it all.
        let parts = partition_budget(64, &[0, 1, 1]);
        assert_eq!(parts[0], 0);
        assert_eq!(parts.iter().sum::<usize>(), 64);
        // A dominant tenant cannot starve small live tenants.
        let parts = partition_budget(10, &[1_000_000, 1, 1]);
        assert!(parts[1] > 0 && parts[2] > 0, "{parts:?}");
        assert_eq!(parts.iter().sum::<usize>(), 10);
        // All-zero weights: even split.
        let parts = partition_budget(7, &[0, 0, 0]);
        assert_eq!(parts.iter().sum::<usize>(), 7);
    }

    /// Hook failing exactly the named chunk, as injected chaos would.
    fn fail_only(level: usize, block: usize) -> FaultHook {
        Arc::new(move |l, b| l == level && b == block)
    }

    /// Hook failing chunk `(0, 0)` on its first fetch only.
    fn fail_once() -> FaultHook {
        use std::sync::atomic::{AtomicBool, Ordering};
        let once = AtomicBool::new(true);
        Arc::new(move |l, b| (l, b) == (0, 0) && once.swap(false, Ordering::Relaxed))
    }

    /// [`Server::serve`] under [`OnCorrupt::Fill`], owned.
    fn serve_degraded(s: &StoreServer, queries: &[Query]) -> Result<Vec<QueryResult>, StoreError> {
        let results = s.serve(queries, OnCorrupt::Fill)?;
        Ok(results.iter().map(QueryResult::to_owned).collect())
    }

    #[test]
    fn degraded_batch_equals_exact_when_clean() {
        let s = test_server(UNBOUNDED);
        let d = s.meta().levels[0].dims;
        let queries = [
            Query::Level { level: 0 },
            Query::Roi {
                level: 0,
                lo: [0, 0, 0],
                hi: [d.nx, d.ny, d.nz / 2],
                fill: 0.0,
            },
            Query::Iso { level: 0, iso: 0.5 },
        ];
        let exact = s.serve_batch(&queries).unwrap();
        let degraded = serve_degraded(&s, &queries).unwrap();
        assert_eq!(exact.len(), degraded.len());
        for (e, d) in exact.iter().zip(&degraded) {
            assert!(d.is_exact());
            assert_eq!(*e, d.response, "clean degraded read must be bit-identical");
        }
        assert!(s.quarantined().is_empty());
    }

    #[test]
    fn corrupt_chunk_is_quarantined_and_filled_not_fatal() {
        let s = test_server(UNBOUNDED).with_fault_hook(fail_only(0, 0));
        let queries = [Query::Level { level: 0 }];
        // The exact path keeps its strict contract.
        let err = s.serve_batch(&queries).expect_err("exact path must fail");
        assert!(matches!(
            err,
            StoreError::CorruptChunk { level: 0, block: 0 }
        ));
        // The degraded path answers, flagging the filled chunk.
        let results = serve_degraded(&s, &queries).unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].degraded, vec![(0, 0)]);
        assert_eq!(s.quarantined(), vec![(0, 0)]);
        // Blocks outside the corrupt chunk are bit-identical to the oracle;
        // the filled blocks are at least finite.
        let oracle = s.reader().read_level(0).unwrap();
        let Response::Level(got) = &results[0].response else {
            panic!("wrong response kind");
        };
        let corrupt: std::collections::HashSet<[usize; 3]> = s.meta().levels[0].chunks[0]
            .slots
            .iter()
            .map(|&(_, origin)| origin)
            .collect();
        assert_eq!(got.blocks.len(), oracle.blocks.len());
        for (g, o) in got.blocks.iter().zip(&oracle.blocks) {
            assert_eq!(g.origin, o.origin);
            if corrupt.contains(&g.origin) {
                assert!(g.data.iter().all(|v| v.is_finite()));
            } else {
                assert_eq!(g.data, o.data, "clean chunk altered at {:?}", g.origin);
            }
        }
        // Quarantine is sticky until cleared, then the (still-failing) hook
        // re-quarantines on the next degraded read.
        s.clear_quarantine();
        assert!(s.quarantined().is_empty());
        let again = serve_degraded(&s, &queries).unwrap();
        assert_eq!(again[0].degraded, vec![(0, 0)]);
    }

    #[test]
    fn degraded_fill_prefers_coarser_data_over_proxy() {
        // A chunk fully covered by a coarser level must take its fill from
        // the upsampled coarse data, not the flat proxy. Build a 2-level
        // store by brute force: find a fine chunk whose region some coarser
        // block covers.
        let s = test_server(UNBOUNDED);
        let meta = s.meta();
        if meta.levels.len() < 2 {
            return; // layout has a single level at this scale; nothing to assert
        }
        // Corrupt every chunk of the finest level; fills may draw on any
        // coarser level.
        let s = test_server(UNBOUNDED).with_fault_hook(Arc::new(|l, _| l == 0));
        let results = serve_degraded(&s, &[Query::Level { level: 0 }]).unwrap();
        let Response::Level(got) = &results[0].response else {
            panic!("wrong response kind");
        };
        assert!(!results[0].is_exact());
        assert!(got
            .blocks
            .iter()
            .all(|b| b.data.iter().all(|v| v.is_finite())));
    }

    #[test]
    fn batch_propagates_typed_errors() {
        let s = test_server(UNBOUNDED);
        let err = s
            .serve_batch(&[Query::Level { level: 99 }])
            .expect_err("no such level");
        assert!(matches!(err, StoreError::NoSuchLevel(99)));
        // Degradation covers data decay only — planning errors stay fatal.
        let err = serve_degraded(&s, &[Query::Level { level: 99 }]).expect_err("no such level");
        assert!(matches!(err, StoreError::NoSuchLevel(99)));
        let d = s.meta().levels[0].dims;
        let err = s
            .serve_batch(&[Query::Roi {
                level: 0,
                lo: [0, 0, 0],
                hi: [d.nx + 1, d.ny, d.nz],
                fill: 0.0,
            }])
            .expect_err("roi out of bounds");
        assert!(matches!(err, StoreError::RoiOutOfBounds));
    }

    #[test]
    fn scrub_pass_lifts_the_quarantine_of_chunks_it_finds_healthy() {
        let queries = [Query::Level { level: 0 }];

        // A transient fault (one `flip:P` roll): quarantined, sticky, and
        // lifted by the next scrub — after which degraded is exact again.
        let s = test_server(UNBOUNDED).with_fault_hook(fail_once());
        for _ in 0..2 {
            let flagged = serve_degraded(&s, &queries).unwrap();
            assert_eq!(flagged[0].degraded, vec![(0, 0)]);
        }
        let report = s.scrub_pass(None);
        assert_eq!(report.verified, s.meta().chunk_count());
        assert!(s.quarantined().is_empty());
        let healed = serve_degraded(&s, &queries).unwrap();
        assert!(healed[0].is_exact());
        assert_eq!(healed[0].response, s.serve_batch(&queries).unwrap()[0]);

        // Real rot with no parity to heal it: the scrub reports it and the
        // quarantine keeps it.
        let f = synth::nyx_like(32, 77);
        let mr = to_adaptive(&f, &RoiConfig::new(8, 0.5));
        let cfg = StoreConfig::new(1e6).with_chunk_blocks(2);
        let mut buf = write_store(&mr, &cfg, &Sz3Codec::default());
        let (meta, data_start) = hqmr_store::parse_head(&buf).unwrap();
        let cm = &meta.levels[0].chunks[1];
        buf[data_start as usize + cm.offset as usize + cm.len / 2] ^= 0xFF;
        let s = StoreServer::unbounded(Arc::new(StoreReader::from_bytes(buf).unwrap()));
        let flagged = serve_degraded(&s, &queries).unwrap();
        assert_eq!(flagged[0].degraded, vec![(0, 1)]);
        assert_eq!(s.scrub_pass(None).unrepairable, vec![(0, 1)]);
        assert_eq!(s.quarantined(), vec![(0, 1)]);
    }

    /// A chunk can be resident and quarantined at once: a fill read failed
    /// it, then an exact read decoded it cleanly. A filling batch still
    /// fills it — and a fill may read coarser chunks — so the resident call
    /// declines under [`OnCorrupt::Fill`] and answers under
    /// [`OnCorrupt::Fail`].
    #[test]
    fn resident_batch_declines_a_quarantined_chunk_only_when_filling() {
        let s = test_server(UNBOUNDED).with_fault_hook(fail_once());
        let queries = [Query::Level { level: 0 }];
        assert_eq!(serve_degraded(&s, &queries).unwrap()[0].degraded, [(0, 0)]);
        s.serve(&queries, OnCorrupt::Fail).unwrap();
        assert_eq!(s.quarantined(), [(0, 0)], "resident and quarantined");

        assert!(s
            .serve_resident(&queries, OnCorrupt::Fill)
            .unwrap()
            .is_none());
        assert_eq!(serve_degraded(&s, &queries).unwrap()[0].degraded, [(0, 0)]);
        let resident = s.serve_resident(&queries, OnCorrupt::Fail).unwrap();
        let resident = resident.expect("every chunk is resident");
        let owned: Vec<Response> = resident.iter().map(|r| r.response.to_owned()).collect();
        assert_eq!(owned, s.serve_batch(&queries).unwrap());
        assert!(resident.iter().all(QueryResult::is_exact));
    }
}
