//! The path of an answer that is already in the cache, timed where the
//! server runs it: `*/frame` is a warm `StoreServer` to response-frame
//! bytes (resident harvest, assembly by reference, frame encode and
//! CRC — what a connection thread does between parsing a request and
//! writing the socket), for a 64³ ROI (1 MB) and for the coarsest level of
//! a two-level store; `roi_hit/loopback` is the same ROI as one request
//! over TCP, client decode included. `cargo bench -p hqmr-net --bench
//! hit_path` (`-- --test` for the CI smoke run).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hqmr_grid::{synth, Dims3};
use hqmr_mr::{to_adaptive, RoiConfig};
use hqmr_net::proto::encode_batch_parts_into;
use hqmr_net::{DatasetSpec, NetClient, NetConfig, NetServer};
use hqmr_serve::{OnCorrupt, Query, StoreServer};
use hqmr_store::{write_store, StoreConfig, StoreReader};
use hqmr_sz3::Sz3Codec;
use std::sync::Arc;

fn bench_hit_path(c: &mut Criterion) {
    let dims = Dims3::new(128, 128, 256);
    let field = synth::warpx_like(dims, 20240917);
    let (mn, mx) = field.min_max();
    let mr = to_adaptive(&field, &RoiConfig::paper_default());
    let cfg = StoreConfig::new((mx - mn) as f64 * 1e-3);
    let reader = StoreReader::from_bytes(write_store(&mr, &cfg, &Sz3Codec::default()));
    let reader = Arc::new(reader.expect("a fresh store opens"));
    let roi = Query::Roi {
        level: 0,
        lo: [32, 32, 160],
        hi: [96, 96, 224],
        fill: mn,
    };
    let level = Query::Level {
        level: reader.meta().levels.len() - 1,
    };

    let warm = StoreServer::unbounded(Arc::clone(&reader));
    let mut frame = Vec::new();
    for (group, query) in [("roi_hit", roi), ("level_hit", level)] {
        warm.serve_batch(&[query]).expect("fills the cache");
        let mut g = c.benchmark_group(group);
        g.sample_size(50);
        let mut hit = || {
            let served = warm.serve_resident(&[query], OnCorrupt::Fail).unwrap();
            let parts: Vec<_> = served
                .expect("resident")
                .into_iter()
                .map(|r| r.response)
                .collect();
            encode_batch_parts_into(&parts, 1, &mut frame);
            frame.len()
        };
        g.throughput(Throughput::Bytes(hit() as u64));
        g.bench_function("frame", |b| b.iter(&mut hit));
        if group == "roi_hit" {
            let spec = DatasetSpec {
                id: 0,
                name: "bench".into(),
                reader: Arc::clone(&reader),
            };
            let server = NetServer::spawn("127.0.0.1:0", NetConfig::default(), vec![spec]);
            let server = server.expect("loopback fleet");
            let mut client = NetClient::connect(server.local_addr()).expect("connect");
            client.batch(0, &[query]).expect("fills the server's cache");
            g.bench_function("loopback", |b| {
                b.iter(|| client.batch(0, &[query]).expect("warm request").len())
            });
        }
        g.finish();
    }
}

criterion_group!(benches, bench_hit_path);
criterion_main!(benches);
