//! ROI storm: many concurrent viewer clients hammering one serving layer.
//!
//! ```text
//! cargo run --release --example roi_storm
//! ```
//!
//! The scenario behind `hqmr-serve`: a compressed multi-resolution store is
//! published once, and a fleet of clients pans overlapping regions of
//! interest across it — the access pattern of an interactive viewer with
//! many simultaneous users. Each client issues randomized ROI reads plus the
//! occasional isovalue skim against one shared `StoreServer`. The cache
//! means a chunk decodes once for the whole fleet (single-flight dedupes
//! even simultaneous cold requests), and the stats ledger proves it.

use hqmr::mr::to_adaptive;
use hqmr::serve::{Query, StoreServer};
use hqmr::store::{write_store, StoreReader};
use hqmr::workflow::WorkflowConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

const CLIENTS: usize = 16;
const OPS_PER_CLIENT: usize = 32;

fn main() {
    let n = 64;
    let field = hqmr::grid::synth::nyx_like(n, 7);
    let mut cfg = WorkflowConfig::new(1e-3);
    cfg.post_process = false;

    // Compress into a block-indexed store (4 unit blocks per chunk) and
    // wrap it in a serving layer with a 64 MiB decoded-chunk budget.
    let eb = field.range() as f64 * cfg.rel_eb;
    let mr = to_adaptive(&field, &cfg.roi);
    let codec = cfg.compressor.backend.codec();
    let store = write_store(&mr, &cfg.compressor.store_config(eb, 4), codec.as_ref());
    let ratio = (field.len() * 4) as f64 / store.len() as f64;
    let reader = StoreReader::from_bytes(store).expect("fresh store must round-trip");
    let server = &StoreServer::new(Arc::new(reader), 64 << 20);
    let meta = server.meta();
    println!(
        "store: {} levels, {} chunks, ratio {ratio:.1}x, eb {eb:.3e}",
        meta.levels.len(),
        meta.chunk_count(),
    );

    // The storm: every client pans its own random brick trajectory over the
    // fine level, with a 25% chance per step of an isovalue skim instead.
    let fine = meta.levels[0].dims;
    let (mn, mx) = field.min_max();
    let iso = mn + 0.6 * (mx - mn);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x0057_0911 + client as u64);
                for _ in 0..OPS_PER_CLIENT {
                    if rng.gen_range(0u32..4) == 0 {
                        server.read_level_iso(0, iso).expect("iso read");
                        continue;
                    }
                    let brick = [fine.nx / 4, fine.ny / 4, fine.nz / 4];
                    let lo = [
                        rng.gen_range(0..=fine.nx - brick[0]),
                        rng.gen_range(0..=fine.ny - brick[1]),
                        rng.gen_range(0..=fine.nz - brick[2]),
                    ];
                    let hi = [lo[0] + brick[0], lo[1] + brick[1], lo[2] + brick[2]];
                    server.read_roi(0, lo, hi, mn).expect("roi read");
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();

    let stats = server.stats();
    let total_ops = (CLIENTS * OPS_PER_CLIENT) as f64;
    println!(
        "\n{CLIENTS} clients x {OPS_PER_CLIENT} queries in {elapsed:.3}s  \
         ({:.0} queries/s aggregate)",
        total_ops / elapsed
    );
    println!(
        "cache: {} requests = {} hits + {} misses ({} shared in-flight waits)",
        stats.requests, stats.hits, stats.misses, stats.shared
    );
    println!(
        "       {:.1} KiB resident (peak {:.1} KiB), {} evictions",
        stats.resident_bytes as f64 / 1024.0,
        stats.peak_resident_bytes as f64 / 1024.0,
        stats.evictions
    );
    println!(
        "codec ran {} times for {} chunk requests — {:.1}% of the fleet's \
         decode work served from the shared cache",
        stats.misses,
        stats.requests,
        100.0 * stats.hits as f64 / stats.requests as f64
    );

    // One batched client for comparison: the planner unions overlapping
    // requests before decoding.
    let batch: Vec<Query> = (0..6)
        .map(|k| Query::Roi {
            level: 0,
            lo: [k * fine.nx / 8, 0, 0],
            hi: [k * fine.nx / 8 + fine.nx / 4, fine.ny, fine.nz],
            fill: mn,
        })
        .collect();
    let planned = server.plan(&batch).expect("plan").len();
    let t0 = Instant::now();
    let responses = server.serve_batch(&batch).expect("batch");
    println!(
        "\nbatch of {} overlapping ROIs -> {} unique chunks planned, {} responses in {:.4}s",
        batch.len(),
        planned,
        responses.len(),
        t0.elapsed().as_secs_f64()
    );
}
