//! The read path at the size where `Field3`'s allocations are advised onto
//! huge pages (from 4 MiB): every other store under test is a few KiB, so
//! only this one has progressive's accumulator and step copy take that
//! branch. The hint may change no bit of what they hold.

use hqmr_grid::{Dims3, Field3};
use hqmr_mr::{to_adaptive, RoiConfig, Upsample};
use hqmr_store::{write_store, StoreConfig, StoreReader};
use hqmr_sz3::Sz3Codec;

fn bits(f: &Field3) -> Vec<u32> {
    f.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn progressive_steps_over_a_large_domain_equal_reconstructions() {
    let domain = Dims3::new(128, 128, 64);
    assert!(domain.len() * 4 >= 4 << 20);
    let field = Field3::from_fn(domain, |x, y, z| {
        let (x, y, z) = (x as f32 / 9.0, y as f32 / 13.0, z as f32 / 7.0);
        x.sin() * y.cos() + (x * z).sin() * 0.25 * (1.0 + (y / 4.0).sin())
    });
    let mr = to_adaptive(&field, &RoiConfig::paper_default());
    assert_eq!(mr.levels.len(), 2);
    assert!(mr.levels.iter().all(|l| !l.blocks.is_empty()));

    let bytes = write_store(&mr, &StoreConfig::new(1e-3), &Sz3Codec::default());
    let reader = StoreReader::from_bytes(bytes).unwrap();
    let steps: Vec<_> = reader
        .progressive(Upsample::Nearest)
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(steps.iter().map(|s| s.level).collect::<Vec<_>>(), [1, 0]);

    let decoded = reader.read_all().unwrap();
    let mut coarse = decoded.clone();
    coarse.levels[0].blocks.clear();
    let want_coarse = coarse.reconstruct(Upsample::Nearest);
    let want_full = decoded.reconstruct(Upsample::Nearest);
    assert_eq!(steps[0].field.dims(), domain);
    assert!(bits(&steps[0].field) == bits(&want_coarse), "coarse step");
    assert!(bits(&steps[1].field) == bits(&want_full), "final step");
}
