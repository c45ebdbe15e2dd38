//! Steady state of the decoded-chunk slab pool. Once one walk has warmed
//! the pool, a fresh reader of the same store walks every window out of it
//! and allocates at most one window of new slabs.
//!
//! The pool is process-wide, so this check is the only test in its binary:
//! a walk running beside it would put slabs of its own into the pool and
//! push this store's out. A counting allocator tallies the allocations the
//! size of one of this store's chunk slabs, which no other allocation of the
//! walk has.

use hqmr_codec::NullCodec;
use hqmr_grid::Dims3;
use hqmr_mr::{LevelData, MultiResData, UnitBlock, Upsample};
use hqmr_store::{write_store, StoreConfig, StoreReader};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Chunks in the store.
const CHUNKS: usize = 240;
/// Unit blocks per chunk.
const PER: usize = 13;
/// Unit block side.
const UNIT: usize = 8;
/// Cells of one chunk slab: 6 656.
const SLAB_CELLS: usize = PER * UNIT * UNIT * UNIT;
/// The read window, `read::WINDOW_CELLS`, which bounds the pool.
const WINDOW_CELLS: usize = 1 << 20;

static SLABS: AtomicUsize = AtomicUsize::new(0);

/// An allocation of one slab: its cells behind the `Arc`'s two counters.
/// The decode scratch holds exactly `SLAB_CELLS` floats, so it is not one.
fn is_slab(size: usize) -> bool {
    (SLAB_CELLS * 4 + 1..=SLAB_CELLS * 4 + 64).contains(&size)
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's own arguments
// and only adds a counter update, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        if is_slab(l.size()) {
            SLABS.fetch_add(1, Relaxed);
        }
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        if is_slab(l.size()) {
            SLABS.fetch_add(1, Relaxed);
        }
        System.alloc_zeroed(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l);
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        if is_slab(new_size) {
            SLABS.fetch_add(1, Relaxed);
        }
        System.realloc(p, l, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn a_warm_pool_serves_fresh_readers_walks_with_at_most_one_window_of_new_slabs() {
    let dims = Dims3::new(UNIT, UNIT, CHUNKS * PER * UNIT);
    let blocks = (0..CHUNKS * PER)
        .map(|i| UnitBlock {
            origin: [0, 0, i * UNIT],
            data: vec![i as f32; UNIT.pow(3)],
        })
        .collect();
    let mr = MultiResData {
        domain: dims,
        levels: vec![LevelData {
            level: 0,
            unit: UNIT,
            dims,
            blocks,
        }],
    };
    assert!(mr.total_cells() > 1 + WINDOW_CELLS, "a walk spans windows");
    let cfg = StoreConfig::new(1.0).with_chunk_blocks(PER);
    let buf = write_store(&mr, &cfg, &NullCodec);

    // The pool starts empty, so the first window allocates all its slabs.
    let window = WINDOW_CELLS / SLAB_CELLS;
    let warm = StoreReader::from_bytes(buf.clone()).unwrap();
    let before = SLABS.load(Relaxed);
    assert_eq!(warm.read_all().unwrap(), mr);
    let cold = SLABS.load(Relaxed) - before;
    assert!(
        cold >= window,
        "the counter sees {cold} slabs, window {window}"
    );

    let before = SLABS.load(Relaxed);
    let fresh = StoreReader::from_bytes(buf).unwrap();
    assert_eq!(fresh.read_all().unwrap(), mr);
    let last = fresh
        .progressive(Upsample::Nearest)
        .last()
        .unwrap()
        .unwrap();
    assert_eq!(last.field, mr.reconstruct(Upsample::Nearest));
    let new_slabs = SLABS.load(Relaxed) - before;
    assert!(
        new_slabs <= window,
        "{new_slabs} new slabs over two walks of {CHUNKS} chunks, window {window}"
    );
}
