//! The decoded-chunk LRU cache with single-flight decode.
//!
//! Internals of [`Server`](crate::Server): a byte-budgeted LRU over
//! [`DecodedChunk`]s keyed `(time, level, chunk)`, plus an in-flight table that deduplicates
//! concurrent decodes of the same chunk. One mutex guards the cache state
//! (entry map, recency order, in-flight table); decoding itself never runs
//! under that lock — a decode's waiters park on the flight's own
//! mutex/condvar pair, so a slow chunk stalls only its own requesters.

use hqmr_store::temporal::TimeKey;
use hqmr_store::{DecodedChunk, StoreError};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Snapshot of the serving layer's cache accounting.
///
/// Counter identities (all counts since construction or the last
/// [`Server::take_stats`](crate::Server::take_stats)):
///
/// * `requests == hits + misses` — every chunk lookup is classified as
///   exactly one of the two. The identity holds in *every* snapshot, even
///   taken mid-request from another thread: `requests` is not a separate
///   counter that could race ahead of its classification, it is derived
///   from `hits + misses` at read time. A per-tenant exporter (the network
///   server) can therefore publish snapshots without quiescing clients;
/// * `hits` — served without running the codec: either resident in the
///   cache, or joined another client's in-flight decode (`shared`, a subset
///   of `hits`, counts the latter);
/// * `misses` — lookups that performed a decode themselves (the store
///   reader's own `bytes_decoded` counter grows by the chunk's compressed
///   length for each of these, and only these);
/// * `evictions` — resident entries pushed out by the byte budget;
/// * `resident_bytes` / `peak_resident_bytes` — current and high-water
///   decoded-payload footprint; both are `≤ budget_bytes` at all times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Total chunk lookups — always exactly `hits + misses` (derived at
    /// snapshot time, see above).
    pub requests: u64,
    /// Lookups served without decoding (resident or shared in-flight).
    pub hits: u64,
    /// Subset of `hits` that waited on another client's in-flight decode.
    pub shared: u64,
    /// Lookups that decoded the chunk themselves.
    pub misses: u64,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
    /// Decoded bytes currently resident.
    pub resident_bytes: u64,
    /// High-water mark of `resident_bytes`.
    pub peak_resident_bytes: u64,
    /// The configured byte budget (`u64::MAX` when unbounded).
    pub budget_bytes: u64,
    /// Corrupt chunks healed from their parity sidecar on the serve path.
    /// Repaired chunks are *exact* — they re-enter the normal decode path
    /// and the LRU like any clean decode (unlike degraded fills, which stay
    /// uncached).
    pub repairs: u64,
    /// Corrupt chunks parity could not heal (no sidecar, or group
    /// redundancy exhausted); the request fell through to its typed error
    /// and, on the degraded path, a proxy fill.
    pub repair_failures: u64,
}

/// Monotonic counters, updated lock-free with `Relaxed` ordering:
/// individually exact tallies (no increment is ever lost). There is no
/// `requests` counter — it is derived as `hits + misses` when a snapshot is
/// taken, so the ledger identity cannot be observed broken even while
/// lookups are in flight on other threads. `shared` is incremented *after*
/// `hits` on the join path, so `shared <= hits` also holds in every
/// snapshot.
#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    shared: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    repairs: AtomicU64,
    repair_failures: AtomicU64,
}

/// One in-flight decode. Waiters park on `cv` until the leader publishes.
struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

enum FlightState {
    /// The leader is still decoding.
    Pending,
    /// Decode succeeded; every waiter clones the shared chunk.
    Done(DecodedChunk),
    /// Decode failed. Waiters re-derive their own typed error by decoding
    /// themselves: `StoreError` holds non-`Clone` payloads (`io::Error`),
    /// and wrapping a shared error in an `Arc` variant would change the
    /// variant every caller pattern-matches (`CorruptChunk { .. }` etc.).
    /// Accepted trade-off: on a *corrupt* chunk, each of the N concurrent
    /// waiters pays one redundant fetch+CRC+decode-attempt — bounded by the
    /// waiters present at failure time, on a path that only exists when the
    /// store is damaged. The success path stays one decode total.
    Failed,
}

impl Flight {
    fn new() -> Self {
        Flight {
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        }
    }
}

/// A resident entry and its recency stamp (the key into `order`).
struct Entry {
    chunk: DecodedChunk,
    stamp: u64,
}

/// Mutex-guarded cache state.
struct CacheState {
    /// Resident chunks.
    entries: HashMap<TimeKey, Entry>,
    /// Recency order: stamp → key, oldest first. Kept in lockstep with
    /// `entries` (every entry's `stamp` is a key in `order` and vice versa).
    order: BTreeMap<u64, TimeKey>,
    /// Next recency stamp.
    clock: u64,
    /// Sum of resident `DecodedChunk::resident_bytes`.
    resident: usize,
    /// High-water mark of `resident`.
    peak: usize,
    /// Decodes currently running, by chunk.
    inflight: HashMap<TimeKey, Arc<Flight>>,
}

impl CacheState {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Moves `key`'s entry to most-recently-used and returns a clone.
    fn touch(&mut self, key: TimeKey) -> Option<DecodedChunk> {
        let stamp = self.tick();
        let e = self.entries.get_mut(&key)?;
        let old = std::mem::replace(&mut e.stamp, stamp);
        let chunk = e.chunk.clone();
        self.order.remove(&old);
        self.order.insert(stamp, key);
        Some(chunk)
    }
}

/// The cache proper. All methods take `&self`; the type is `Send + Sync`.
pub(crate) struct ChunkCache {
    budget: usize,
    state: Mutex<CacheState>,
    counters: Counters,
}

impl ChunkCache {
    pub(crate) fn new(budget: usize) -> Self {
        ChunkCache {
            budget,
            state: Mutex::new(CacheState {
                entries: HashMap::new(),
                order: BTreeMap::new(),
                clock: 0,
                resident: 0,
                peak: 0,
                inflight: HashMap::new(),
            }),
            counters: Counters::default(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheState> {
        self.state.lock().expect("chunk cache lock poisoned")
    }

    /// Returns `key`'s chunk, decoding at most once across all concurrent
    /// callers: the first requester of a non-resident chunk runs `decode`
    /// while later requesters wait on the shared flight and clone its
    /// result. `decode` runs outside every cache lock, so it may itself
    /// recurse into the cache under a *different* key (a delta chain's decode
    /// does, with strictly decreasing time — no cycle, no deadlock). It is `Fn`, not `FnOnce`, because a waiter that observes a
    /// failed flight re-derives its own typed error by decoding again.
    pub(crate) fn get_or_decode(
        &self,
        key: TimeKey,
        decode: impl Fn() -> Result<DecodedChunk, StoreError>,
    ) -> Result<DecodedChunk, StoreError> {
        let joined = {
            let mut st = self.lock();
            if let Some(chunk) = st.touch(key) {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(chunk);
            }
            match st.inflight.get(&key) {
                Some(f) => Some(Arc::clone(f)),
                None => {
                    st.inflight.insert(key, Arc::new(Flight::new()));
                    None
                }
            }
        };

        match joined {
            Some(flight) => {
                // Follower: park until the leader publishes.
                let mut fs = flight.state.lock().expect("flight lock poisoned");
                while matches!(*fs, FlightState::Pending) {
                    fs = flight.cv.wait(fs).expect("flight lock poisoned");
                }
                match &*fs {
                    FlightState::Done(chunk) => {
                        self.counters.hits.fetch_add(1, Ordering::Relaxed);
                        self.counters.shared.fetch_add(1, Ordering::Relaxed);
                        Ok(chunk.clone())
                    }
                    FlightState::Failed => {
                        drop(fs);
                        // Re-derive the precise typed error for this caller.
                        self.counters.misses.fetch_add(1, Ordering::Relaxed);
                        decode()
                    }
                    FlightState::Pending => unreachable!("loop exits only on completion"),
                }
            }
            None => {
                // Leader: decode outside every lock, then publish. The
                // publish runs from a drop guard so it happens on *every*
                // exit path — in particular, if the decode panics (a codec
                // bug; typed failures return `Err`), the unwind still clears
                // the in-flight slot and flips the flight to `Failed`
                // instead of leaving every present and future requester of
                // this chunk parked on a `Pending` flight forever.
                struct Publish<'a> {
                    cache: &'a ChunkCache,
                    key: TimeKey,
                    /// `Some` once the decode succeeded; `None` means the
                    /// decode failed or panicked.
                    outcome: Option<DecodedChunk>,
                }
                impl Drop for Publish<'_> {
                    fn drop(&mut self) {
                        let flight = {
                            let mut st = self.cache.lock();
                            let flight = st
                                .inflight
                                .remove(&self.key)
                                .expect("leader's flight is registered");
                            if let Some(chunk) = &self.outcome {
                                self.cache.insert(&mut st, self.key, chunk.clone());
                            }
                            flight
                        };
                        let mut fs = flight.state.lock().expect("flight lock poisoned");
                        *fs = match self.outcome.take() {
                            Some(chunk) => FlightState::Done(chunk),
                            None => FlightState::Failed,
                        };
                        drop(fs);
                        flight.cv.notify_all();
                    }
                }
                let mut publish = Publish {
                    cache: self,
                    key,
                    outcome: None,
                };
                let res = decode();
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                if let Ok(chunk) = &res {
                    publish.outcome = Some(chunk.clone());
                }
                drop(publish);
                res
            }
        }
    }

    /// Records a corrupt chunk healed from parity on the serve path. Called
    /// from inside decode closures (which run outside the cache locks).
    pub(crate) fn note_repair(&self) {
        self.counters.repairs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a corrupt chunk parity could not heal.
    pub(crate) fn note_repair_failure(&self) {
        self.counters
            .repair_failures
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Bulk hit probe: one lock acquisition for the whole index list,
    /// returning the resident chunks and `None` for the rest. Only the hits
    /// are counted here — the caller resolves the `None`s through
    /// [`ChunkCache::get_or_decode`], which does its own accounting.
    pub(crate) fn get_resident(&self, keys: &[TimeKey]) -> Vec<Option<DecodedChunk>> {
        let mut st = self.lock();
        let out: Vec<Option<DecodedChunk>> = keys.iter().map(|&k| st.touch(k)).collect();
        drop(st);
        let hits = out.iter().filter(|o| o.is_some()).count() as u64;
        self.counters.hits.fetch_add(hits, Ordering::Relaxed);
        out
    }

    /// All-or-nothing harvest under one lock acquisition: every one of
    /// `keys`' chunks, touched and counted as hits, if all are resident;
    /// otherwise `None`, with nothing touched or counted. No eviction can
    /// get between the check and the harvest.
    pub(crate) fn get_all_resident(&self, keys: &[TimeKey]) -> Option<Vec<DecodedChunk>> {
        let mut st = self.lock();
        if !keys.iter().all(|key| st.entries.contains_key(key)) {
            return None;
        }
        let hits = keys.len() as u64;
        self.counters.hits.fetch_add(hits, Ordering::Relaxed);
        keys.iter().map(|&key| st.touch(key)).collect()
    }

    /// Inserts under the held lock, evicting LRU entries first so that
    /// `resident` never exceeds the budget at any instant. Chunks larger
    /// than the whole budget are served but never cached (budget 0 therefore
    /// caches nothing while single-flight keeps working).
    fn insert(&self, st: &mut CacheState, key: TimeKey, chunk: DecodedChunk) {
        let bytes = chunk.resident_bytes();
        if bytes > self.budget {
            return;
        }
        while st.resident + bytes > self.budget {
            let (&stamp, &victim) = st
                .order
                .iter()
                .next()
                .expect("over budget implies a resident entry");
            st.order.remove(&stamp);
            let evicted = st
                .entries
                .remove(&victim)
                .expect("order and entries stay in lockstep");
            st.resident -= evicted.chunk.resident_bytes();
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let stamp = st.tick();
        st.order.insert(stamp, key);
        let prev = st.entries.insert(key, Entry { chunk, stamp });
        debug_assert!(prev.is_none(), "single-flight admits one leader per key");
        st.resident += bytes;
        st.peak = st.peak.max(st.resident);
    }

    /// Point-in-time stats snapshot. `requests` is derived as
    /// `hits + misses`, so the ledger identity holds in the snapshot even
    /// when lookups are mid-flight on other threads.
    pub(crate) fn stats(&self) -> CacheStats {
        self.snapshot(false)
    }

    /// Snapshot-and-reset in one step: returns the counters accumulated
    /// since the last reset and zeroes them, losing no concurrent
    /// increments (each counter is `swap`ped, so an increment lands either
    /// in the returned window or in the next one — never nowhere). The
    /// returned snapshot keeps the `requests == hits + misses` identity by
    /// construction. This is the export path for per-tenant stat windows.
    pub(crate) fn take_stats(&self) -> CacheStats {
        self.snapshot(true)
    }

    /// The one body of [`Self::stats`] and, with `drain`, of
    /// [`Self::take_stats`]: `drain` swaps each counter to zero instead of
    /// loading it and restarts the peak at what is resident.
    fn snapshot(&self, drain: bool) -> CacheStats {
        let (resident, peak) = {
            let mut st = self.lock();
            let pair = (st.resident as u64, st.peak as u64);
            if drain {
                st.peak = st.resident;
            }
            pair
        };
        let read = |n: &AtomicU64| {
            if drain {
                n.swap(0, Ordering::Relaxed)
            } else {
                n.load(Ordering::Relaxed)
            }
        };
        let c = &self.counters;
        let (hits, misses) = (read(&c.hits), read(&c.misses));
        CacheStats {
            requests: hits + misses,
            hits,
            shared: read(&c.shared),
            misses,
            evictions: read(&c.evictions),
            resident_bytes: resident,
            peak_resident_bytes: peak,
            budget_bytes: self.budget as u64,
            repairs: read(&c.repairs),
            repair_failures: read(&c.repair_failures),
        }
    }

    /// Drops every resident entry (counters and peak are kept).
    pub(crate) fn clear(&self) {
        let mut st = self.lock();
        st.entries.clear();
        st.order.clear();
        st.resident = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-block chunk of `cells` values.
    fn chunk(cells: usize) -> DecodedChunk {
        DecodedChunk {
            unit: 1,
            origins: vec![[0; 3]].into(),
            data: vec![0.0; cells].into(),
        }
    }

    /// The residency probe is all or nothing: a refusal counts nothing and
    /// leaves the recency order alone; an acceptance is one hit per key and
    /// refreshes each, like any harvest — and decodes nothing either way.
    #[test]
    fn residency_probe_neither_counts_nor_touches() {
        let [a, b, c] = [0, 1, 2].map(|i| (0, 0, i));
        let bytes = chunk(64).resident_bytes();
        let cache = ChunkCache::new(2 * bytes);
        let decode = |key| cache.get_or_decode(key, || Ok(chunk(64))).unwrap();
        let harvested = |keys: &[TimeKey]| cache.get_all_resident(keys).map(|h| h.len());
        for key in [a, b] {
            decode(key);
        }
        let before = cache.stats();
        assert_eq!((before.hits, before.misses), (0, 2));

        // Refused: `a` is resident, `c` is not. `a` stays the oldest, so
        // making room for `c` evicts it.
        assert_eq!(harvested(&[a, c]), None);
        assert_eq!(cache.stats(), before, "a refusal is not a lookup");
        decode(c);
        assert_eq!(harvested(&[a]), None);

        // Accepted: `b`, the oldest, is refreshed, so making room for `a`
        // now evicts `c`.
        assert_eq!(harvested(&[b]), Some(1));
        assert_eq!(cache.stats().hits, 1, "one hit per key");
        decode(a);
        assert_eq!(harvested(&[c]), None);
        assert_eq!(harvested(&[a, b]), Some(2));
        assert_eq!(harvested(&[]), Some(0));
        let after = cache.stats();
        assert_eq!((after.hits, after.misses), (3, 4));
        assert_eq!(after.requests, after.hits + after.misses);
        assert_eq!(after.evictions, 2);
    }
}
