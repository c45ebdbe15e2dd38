//! Network storm: the `roi_storm` fleet, moved onto real TCP.
//!
//! ```text
//! cargo run --release --example net_storm                 # self-hosted loopback
//! cargo run --release --example net_storm -- 10.0.0.5:7745  # storm a remote netd
//! ```
//!
//! Without an argument, a `NetServer` is spawned in-process on a loopback
//! port (deliberately small: 2 workers, shallow queues) and 16 clients
//! storm it over sockets — the same panning-viewer access pattern as
//! `roi_storm`, but every query now pays encode + two socket hops, and a
//! miss a trip through the worker queue. Overload comes back as typed `Busy` answers that clients
//! retry, and the cache ledger still proves each chunk decoded once for
//! the whole fleet. With an address argument the fleet half is skipped and
//! the storm hits a remote `netd` instead.

use hqmr::net::{DatasetSpec, NetClient, NetConfig, NetError, NetServer};
use hqmr::serve::Query;
use hqmr::store::{write_store, StoreConfig, StoreReader};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 16;
const OPS_PER_CLIENT: usize = 32;

fn main() {
    let remote = std::env::args().nth(1);
    let _local; // keeps a self-hosted fleet alive for the storm's duration
    let addr = match &remote {
        Some(a) => a.parse().expect("ADDR must be HOST:PORT"),
        None => {
            let n = 64;
            let field = hqmr::grid::synth::nyx_like(n, 7);
            let mr = hqmr::mr::to_adaptive(&field, &hqmr::mr::RoiConfig::new(8, 0.5));
            let eb = field.range() as f64 * 1e-3;
            let buf = write_store(
                &mr,
                &StoreConfig::new(eb).with_chunk_blocks(4),
                &hqmr::sz3::Sz3Codec::default(),
            );
            println!(
                "self-hosting: {} KiB store, 2 workers, queue depth 4, 64 MiB budget",
                buf.len() / 1024
            );
            let server = NetServer::spawn(
                "127.0.0.1:0",
                NetConfig {
                    workers: 2,
                    queue_depth: 4,
                    cache_budget: 64 << 20,
                    ..NetConfig::default()
                },
                vec![DatasetSpec {
                    id: 0,
                    name: "nyx-storm".into(),
                    reader: Arc::new(StoreReader::from_bytes(buf).expect("open store")),
                }],
            )
            .expect("spawn fleet");
            let addr = server.local_addr();
            _local = server;
            addr
        }
    };

    // Catalog probe: dataset 0 must exist; its extents drive the storm.
    let mut probe = NetClient::connect(addr).expect("connect");
    let catalog = probe.datasets().expect("catalog");
    let info = catalog
        .iter()
        .find(|d| d.id == 0)
        .expect("server hosts no dataset 0");
    println!(
        "storming [{}] {} on {addr}: {} levels, {} chunks, {} KiB compressed",
        info.id,
        info.name,
        info.levels,
        info.chunks,
        info.compressed_bytes / 1024,
    );
    let fine = info.domain;
    // Reset the stats window so the ledger below covers exactly this storm.
    let _ = probe.stats(0, true);

    let t0 = Instant::now();
    let totals: Vec<(u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0x0057_0911 + client as u64);
                    let mut client = NetClient::connect(addr).expect("connect");
                    let mut ok = 0u64;
                    let mut busy = 0u64;
                    for _ in 0..OPS_PER_CLIENT {
                        // 25% of steps pull the coarse overview (the pan-out
                        // gesture); the rest pan fine-level bricks.
                        let q = if rng.gen_range(0u32..4) == 0 {
                            Query::Level {
                                level: info.levels - 1,
                            }
                        } else {
                            let brick = [fine.nx / 4, fine.ny / 4, fine.nz / 4];
                            let lo = [
                                rng.gen_range(0..=fine.nx - brick[0]),
                                rng.gen_range(0..=fine.ny - brick[1]),
                                rng.gen_range(0..=fine.nz - brick[2]),
                            ];
                            Query::Roi {
                                level: 0,
                                lo,
                                hi: [lo[0] + brick[0], lo[1] + brick[1], lo[2] + brick[2]],
                                fill: 0.0,
                            }
                        };
                        let mut attempt = 0u32;
                        loop {
                            match client.batch(0, std::slice::from_ref(&q)) {
                                Ok(_) => {
                                    ok += 1;
                                    break;
                                }
                                Err(NetError::Busy) => {
                                    busy += 1;
                                    // Capped jittered backoff, not a
                                    // scheduler spin (same policy as
                                    // `batch_retry`, counted here for the
                                    // report).
                                    let cap = 100u64 << attempt.min(6);
                                    let us = rng.gen_range(cap / 2..=cap);
                                    std::thread::sleep(Duration::from_micros(us));
                                    attempt += 1;
                                }
                                Err(e) => panic!("storm request failed: {e}"),
                            }
                        }
                    }
                    (ok, busy)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let ok: u64 = totals.iter().map(|(o, _)| o).sum();
    let busy: u64 = totals.iter().map(|(_, b)| b).sum();

    println!(
        "\n{CLIENTS} clients x {OPS_PER_CLIENT} queries in {elapsed:.3}s \
         ({:.0} queries/s aggregate over TCP)",
        ok as f64 / elapsed
    );
    println!("{busy} Busy answers absorbed by client retries (typed backpressure, no hangs)");

    let stats = probe.stats(0, false).expect("stats");
    println!(
        "remote cache: {} requests = {} hits + {} misses ({} shared in-flight waits)",
        stats.cache.requests, stats.cache.hits, stats.cache.misses, stats.cache.shared
    );
    println!(
        "              {:.1} KiB resident (peak {:.1} KiB), {} evictions — the fleet \
         decoded each chunk once, over sockets",
        stats.cache.resident_bytes as f64 / 1024.0,
        stats.cache.peak_resident_bytes as f64 / 1024.0,
        stats.cache.evictions
    );
}
