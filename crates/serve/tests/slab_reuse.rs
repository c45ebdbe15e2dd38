//! A slab someone still holds is never reused. The bare reader's owned
//! walks hand their chunks back to a process-wide slab pool; a borrowed
//! answer of the same reader and a chunk a server caches over it must keep
//! their bytes however many walks run after them.

use hqmr_grid::synth;
use hqmr_mr::{to_adaptive, RoiConfig, Upsample};
use hqmr_serve::{StoreServer, UNBOUNDED};
use hqmr_store::{read, write_store, ChunkSource, StoreConfig, StoreReader};
use hqmr_sz3::Sz3Codec;
use std::sync::Arc;

#[test]
fn held_slabs_keep_their_bytes_across_bare_walks() {
    let mr = to_adaptive(&synth::nyx_like(32, 5), &RoiConfig::new(8, 0.5));
    let cfg = StoreConfig::new(1e6).with_chunk_blocks(2);
    let reader =
        Arc::new(StoreReader::from_bytes(write_store(&mr, &cfg, &Sz3Codec::default())).unwrap());
    let server = StoreServer::new(reader.clone(), UNBOUNDED);
    let d = reader.meta().levels[0].dims;
    let (lo, hi) = ([0, 0, 0], [d.nx, d.ny, d.nz / 2]);

    // Held across the walks: borrowed answers of the bare reader and a
    // chunk the server caches. A level's walk hands its windows back while
    // the answer holds them; level 0, walked last, leaves its slabs the
    // newest in the pool, the first that `read_all` would draw.
    let roi = read::roi_parts(&*reader, 0, lo, hi, -1.0).unwrap();
    let levels: Vec<_> = (0..reader.meta().levels.len())
        .rev()
        .map(|l| read::level_parts(&*reader, l, None).unwrap())
        .collect();
    let cached = server.chunk(0, 0).unwrap();
    let roi_before = roi.to_owned();
    let levels_before: Vec<_> = levels.iter().map(|l| l.to_owned()).collect();
    let cached_before = cached.data.to_vec();

    for _ in 0..2 {
        reader.read_all().unwrap();
        reader.read_roi(0, lo, hi, -1.0).unwrap();
        for step in reader.progressive(Upsample::Nearest) {
            step.unwrap();
        }
    }

    assert_eq!(roi.to_owned(), roi_before, "borrowed ROI answer");
    for (parts, before) in levels.iter().zip(&levels_before) {
        assert_eq!(
            parts.to_owned(),
            *before,
            "borrowed level {} answer",
            parts.level
        );
    }
    assert_eq!(*cached.data, *cached_before, "cached chunk");
    assert_eq!(server.chunk(0, 0).unwrap().data, cached.data);
}
