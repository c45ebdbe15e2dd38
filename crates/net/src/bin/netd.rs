//! `netd` — the HQNW serving daemon.
//!
//! Hosts one or more `.hqst` stores behind the wire protocol:
//!
//! ```text
//! netd [--addr HOST:PORT] [--workers N] [--queue N] [--max-conns N]
//!      [--budget BYTES] [--parity GROUP] [--scrub BYTES/SEC]
//!      (--demo SCALE | STORE.hqst ...)
//! ```
//!
//! Dataset ids are assigned in argument order. `--demo SCALE` hosts two
//! synthetic stores (SCALE³ cells each) instead of files, for smoke tests
//! and load generation without data on disk.
//!
//! `--workers N` sets how many requests that need a decode run at once,
//! whichever stores they name (default: one per core); `--queue N` lets
//! `N × workers` more wait before the next one is answered `Busy`. A
//! request answered wholly from cache occupies neither: its connection
//! thread serves it.
//!
//! `--parity GROUP` builds in-memory XOR parity sidecars over every hosted
//! store (group size GROUP, e.g. 8), arming online repair: a corrupt chunk
//! is reconstructed and served bit-exactly instead of answered degraded.
//! `--scrub RATE` additionally spawns a background scrubber that cycles the
//! datasets at RATE compressed bytes/second, healing silent corruption
//! before a client ever touches it; its counters export via wire `Stats`.
//!
//! Startup is degraded, not brittle: a store that fails to open is logged
//! and skipped (its argument-order id stays reserved, so the surviving ids
//! are stable); the daemon only refuses to start when *no* store loads.
//! Setting `HQMR_CHAOS` (see `hqmr_net::chaos`) arms fault injection.

use hqmr_mr::{to_adaptive, RoiConfig};
use hqmr_net::{ChaosConfig, DatasetSpec, NetConfig, NetServer};
use hqmr_store::{write_store, StoreConfig, StoreReader};
use hqmr_sz3::Sz3Codec;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: netd [--addr HOST:PORT] [--workers N] [--queue N] [--max-conns N] \
         [--budget BYTES] [--parity GROUP] [--scrub BYTES/SEC] \
         (--demo SCALE | STORE.hqst ...)\n\
         \x20 --workers N  requests decoding at once, any store (default: one per core)\n\
         \x20 --queue N    N x workers more may wait; past that, Busy (default: 32)\n\
         \x20              (answers wholly from cache use neither)"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("netd: {flag} needs a value");
        usage()
    })
}

fn demo_datasets(scale: usize) -> Vec<DatasetSpec> {
    ["nyx-demo", "shell-demo"]
        .iter()
        .enumerate()
        .map(|(i, name)| {
            // The synthetic field generator is FFT-based: power-of-two only.
            let n = scale.max(8).next_power_of_two();
            let f = hqmr_grid::synth::nyx_like(n, 41 + i as u64);
            let mr = to_adaptive(&f, &RoiConfig::new(8, 0.5));
            let buf = write_store(&mr, &StoreConfig::new(1e-3), &Sz3Codec::default());
            DatasetSpec {
                id: i as u32,
                name: (*name).to_string(),
                reader: Arc::new(StoreReader::from_bytes(buf).expect("encode demo store")),
            }
        })
        .collect()
}

fn main() {
    let mut addr = "127.0.0.1:7745".to_string();
    let mut cfg = NetConfig::default();
    let mut demo: Option<usize> = None;
    let mut paths: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = parse("--addr", args.next()),
            "--workers" => cfg.workers = parse("--workers", args.next()),
            "--queue" => cfg.queue_depth = parse("--queue", args.next()),
            "--max-conns" => cfg.max_connections = parse("--max-conns", args.next()),
            "--budget" => cfg.cache_budget = parse("--budget", args.next()),
            "--parity" => cfg.parity_group = parse("--parity", args.next()),
            "--scrub" => cfg.scrub_rate = Some(parse("--scrub", args.next())),
            "--demo" => demo = Some(parse("--demo", args.next())),
            "--help" | "-h" => usage(),
            _ if arg.starts_with('-') => {
                eprintln!("netd: unknown flag {arg}");
                usage();
            }
            path => paths.push(path.to_string()),
        }
    }

    match ChaosConfig::from_env() {
        Ok(None) => {}
        Ok(Some(chaos)) => {
            eprintln!("netd: WARNING: fault injection armed via HQMR_CHAOS ({chaos:?})");
            cfg.chaos = Some(chaos);
        }
        Err(e) => {
            // A typo'd chaos string must not silently run a clean server
            // where a chaos run was intended.
            eprintln!("netd: {e}");
            std::process::exit(2);
        }
    }

    let datasets = match (demo, paths.is_empty()) {
        (Some(scale), true) => demo_datasets(scale),
        (None, false) => {
            // Degraded startup: skip stores that fail to open, serve the
            // rest. Ids stay tied to argument order so a flaky path does
            // not renumber its healthy neighbours.
            let mut loaded = Vec::new();
            for (i, p) in paths.iter().enumerate() {
                // The typed `Open` variant carries the path; print it as-is.
                match StoreReader::open(p) {
                    Err(e) => eprintln!("netd: skipping dataset {i}: {e}"),
                    Ok(reader) => {
                        let name = std::path::Path::new(p)
                            .file_stem()
                            .map_or_else(|| p.clone(), |s| s.to_string_lossy().into_owned());
                        loaded.push(DatasetSpec {
                            id: i as u32,
                            name,
                            reader: Arc::new(reader),
                        });
                    }
                }
            }
            if loaded.is_empty() {
                eprintln!("netd: no store could be opened ({} given)", paths.len());
                std::process::exit(1);
            }
            if loaded.len() < paths.len() {
                eprintln!(
                    "netd: serving degraded: {}/{} stores loaded",
                    loaded.len(),
                    paths.len()
                );
            }
            loaded
        }
        _ => usage(),
    };

    let cfg2 = cfg.clone();
    let server = NetServer::spawn(&addr, cfg, datasets).unwrap_or_else(|e| {
        eprintln!("netd: bind {addr}: {e}");
        std::process::exit(1);
    });
    println!("netd: serving on {}", server.local_addr());
    if cfg2.parity_group > 0 {
        println!("netd: parity armed (group size {})", cfg2.parity_group);
    }
    match cfg2.scrub_rate {
        Some(rate) if cfg2.parity_group > 0 => {
            println!("netd: background scrubber at {rate} bytes/sec");
        }
        Some(rate) => {
            println!("netd: background scrubber at {rate} bytes/sec (detect-only: no --parity)");
        }
        None => {}
    }
    // Self-describing catalog, one line per dataset.
    let mut client =
        hqmr_net::NetClient::connect(server.local_addr()).expect("loopback catalog connection");
    for d in client.datasets().expect("catalog") {
        println!(
            "  [{}] {} — {} levels, {} chunks, {} compressed bytes, domain {}×{}×{}",
            d.id,
            d.name,
            d.levels,
            d.chunks,
            d.compressed_bytes,
            d.domain.nx,
            d.domain.ny,
            d.domain.nz
        );
    }
    drop(client);
    server.join();
}
