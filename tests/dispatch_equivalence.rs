//! Property tests for the runtime SIMD dispatch layer in
//! `hqmr_codec::kernels`: for arbitrary field shapes — degenerate axes,
//! non-power-of-two line lengths, values spanning smooth and rough content —
//! the dispatched kernels and the forced-scalar arm must produce
//! byte-identical streams, and each arm must decode the other's output to
//! the same reconstruction. [`ADVERSARIAL`] repeats that for the inputs the
//! sine-plus-noise generator never produces (NaN, ±∞, `f32::MAX`, subnormals,
//! −0.0, quantizer ties, outlier-dense, constant and linear fields) across
//! sixty decades of error bound.
//!
//! "The dispatched arm" has to mean the vector arm for any of this to be a
//! comparison: [`pin_arm`] fails the suite on an AVX2 machine whose unforced
//! level is not `Avx2`, so it can never pass by comparing scalar with scalar.
//!
//! `hqmr_codec::crc32` dispatches through the same module, so its
//! carry-less-multiply arm is pinned here too: against the slicing-by-8
//! tables and against a bit-at-a-time loop that shares no code with either.
//!
//! The force-scalar switch is process-global, so every toggle happens under
//! [`arm_switch`] and is always restored: a test that asks for an arm gets
//! that arm, whatever its neighbours are doing.

use hqmr::codec::{crc32, kernels, Codec};
use hqmr::grid::{Dims3, Field3};
use hqmr::sz2::Sz2Codec;
use hqmr::sz3::{InterpKind, LevelEbPolicy, Sz3Codec};
use hqmr::zfp::ZfpCodec;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests' use of the process-wide force-scalar switch.
fn arm_switch() -> MutexGuard<'static, ()> {
    static SWITCH: Mutex<()> = Mutex::new(());
    // A failed property poisons the lock; the switch itself is still fine.
    SWITCH.lock().unwrap_or_else(|e| e.into_inner())
}

/// Pins the scalar arm, or unpins it — and then the kernels must really be
/// on the vector arm wherever the CPU has one.
fn pin_arm(scalar: bool) {
    kernels::set_force_scalar(scalar);
    #[cfg(target_arch = "x86_64")]
    if !scalar && std::arch::is_x86_feature_detected!("avx2") {
        assert_eq!(kernels::simd_level(), kernels::SimdLevel::Avx2);
    }
}

/// Every cell's bit pattern: NaN payloads and signed zeros count.
fn bits(f: &Field3) -> Vec<u32> {
    f.data().iter().map(|v| v.to_bits()).collect()
}

/// Deterministic field mixing a smooth ramp with value-dependent roughness,
/// so quantizer fast paths and outlier/replay paths both get exercised.
fn mk_field(nx: usize, ny: usize, nz: usize, seed: u32) -> Field3 {
    let dims = Dims3::new(nx, ny, nz);
    let mut x = seed as u64 | 1;
    let data: Vec<f32> = (0..dims.len())
        .map(|i| {
            x = x.rotate_left(13).wrapping_mul(0x2545_F491_4F6C_DD1D);
            let rough = ((x >> 40) as f64 / (1 << 24) as f64) - 0.5;
            (i as f64 * 0.37).sin() as f32 * 100.0 + rough as f32 * (i % 7) as f32
        })
        .collect();
    Field3::from_vec(dims, data)
}

/// Encodes under both dispatch arms and asserts byte identity — `compress`
/// and `compress_with_recon` write one stream, whichever arm runs — then
/// cross-decodes: the scalar arm decodes the AVX2 stream and vice versa, to
/// the same bits, which are also the reconstruction the encoder handed back.
fn assert_arms_identical(codec: &dyn Codec, f: &Field3, eb: f64, at: &str) {
    let _switch = arm_switch();
    let encode = |scalar: bool| {
        pin_arm(scalar);
        let (mut out, mut recon) = (Vec::new(), Field3::zeros(Dims3::new(0, 0, 0)));
        codec
            .compress_with_recon(f, eb, &mut out, &mut recon)
            .expect(at);
        assert_eq!(
            out,
            codec.compress(f, eb),
            "{at}: compress_with_recon stream"
        );
        (out, bits(&recon))
    };
    let (simd, simd_recon) = encode(false);
    let (scalar, scalar_recon) = encode(true);
    assert_eq!(
        simd.len(),
        scalar.len(),
        "{at}: stream length, simd vs scalar"
    );
    assert_eq!(simd, scalar, "{at}: streams differ between arms");
    assert_eq!(simd_recon, scalar_recon, "{at}: recon differs between arms");
    let dec_scalar = bits(&codec.decompress(&simd).expect(at));
    pin_arm(false);
    let dec_simd = bits(&codec.decompress(&scalar).expect(at));
    assert_eq!(dec_simd, dec_scalar, "{at}: decodes differ between arms");
    assert_eq!(dec_simd, simd_recon, "{at}: recon is not the decode");
}

/// The three optimised backends in both of their block/interpolator setups.
fn dispatched_codecs() -> Vec<Box<dyn Codec>> {
    vec![
        Box::new(Sz3Codec::default()),
        Box::new(Sz3Codec::PAPER),
        Box::new(Sz2Codec::default()),
        Box::new(Sz2Codec::MULTIRES),
        Box::new(ZfpCodec),
    ]
}

/// A class name and its cell generator `(index, eb) -> value`.
type Adversary = (&'static str, fn(usize, f64) -> f32);

/// A field per input class [`mk_field`] never produces. `eb` places the tie
/// class on the quantizer's half steps.
const ADVERSARIAL: [Adversary; 11] = [
    ("sparse NaN", |i, _| match i % 211 {
        0 => f32::NAN,
        _ => smooth(i),
    }),
    ("NaN every fifth", |i, _| match i % 5 {
        0 => f32::from_bits(0xFFC0_0000 | i as u32), // negative, payload varies
        _ => smooth(i),
    }),
    ("±∞", |i, _| match i % 11 {
        3 => f32::INFINITY,
        7 => f32::NEG_INFINITY,
        _ => smooth(i),
    }),
    ("f32::MAX/MIN", |i, _| match i % 3 {
        0 => f32::MAX,
        1 => f32::MIN,
        _ => 0.0,
    }),
    ("subnormals", |i, _| {
        f32::from_bits(((i as u32 & 1) << 31) | (1 + hash(i) as u32 % 0x7F_FFFF))
    }),
    ("−0.0", |i, _| if i % 4 == 1 { 0.0 } else { -0.0 }),
    ("half-step ties", |i, eb| {
        (((hash(i) % 9) as f64 - 4.0) * eb) as f32
    }),
    ("outlier-dense", |i, _| match i % 2 {
        0 => smooth(i),
        _ => (hash(i) % 1000) as f32 * 3.0e30,
    }),
    ("constant", |_, _| 42.5),
    ("linear", |i, _| 0.25 * i as f32 - 17.0),
    ("everything planted", |i, eb| match i % 13 {
        2 => f32::NAN,
        4 => f32::INFINITY,
        5 => -0.0,
        6 => f32::from_bits(1),
        8 => f32::MIN,
        9 => (3.0 * eb) as f32,
        _ => smooth(i),
    }),
];

fn hash(i: usize) -> u64 {
    (i as u64 + 1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(23)
        >> 11
}

fn smooth(i: usize) -> f32 {
    (i as f64 * 0.37).sin() as f32 * 100.0 - 0.05
}

/// Shapes from one cell to partial blocks on every face of every codec's
/// block size (4, 6) and a finest-`z` line long enough for the vector loops.
const SHAPES: [[usize; 3]; 8] = [
    [1, 1, 1],
    [1, 1, 9],
    [3, 2, 1],
    [4, 4, 4],
    [8, 8, 8],
    [5, 7, 9],
    [6, 6, 33],
    [12, 12, 40],
];

#[test]
fn adversarial_inputs_are_identical_on_both_arms() {
    for codec in dispatched_codecs() {
        for [nx, ny, nz] in SHAPES {
            let dims = Dims3::new(nx, ny, nz);
            for eb in [1e-30, 1e-12, 1e-3, 0.5, 1e6, 1e30] {
                for (class, cell) in ADVERSARIAL {
                    let f = Field3::from_vec(dims, (0..dims.len()).map(|i| cell(i, eb)).collect());
                    let at = format!("{} {dims} {class} eb {eb:e}", codec.name());
                    assert_arms_identical(codec.as_ref(), &f, eb, &at);
                }
            }
        }
    }
}

/// The input the arms used to disagree on: zfp's `maxabs` fold drops NaN, so
/// a block holding one is scaled and encoded, and the NaN lane must become
/// the 0 the scalar cast gives on the vector arm too.
#[test]
fn zfp_block_with_one_nan_is_identical_on_both_arms() {
    let mut f = mk_field(8, 8, 8, 1);
    f.data_mut()[300] = f32::NAN;
    assert_arms_identical(&ZfpCodec, &f, 0.5, "zfp 8x8x8 one NaN");
}

/// x and y extents whose sweeps hold 0, 1, 2 and many cubic points.
const ACROSS_XY: [usize; 7] = [1, 2, 3, 5, 9, 17, 33];

/// z extents for the across-lines arm: lane counts `ceil(nz / 2)` on and off
/// a multiple of four, windows that do and do not end inside the row, and —
/// with a 33 in x or y — coarse x/y levels at z steps 4 … 64.
const ACROSS_Z: [usize; 15] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 255, 256, 257];

/// Both interpolators, with and without the per-level error bound.
const SZ3_SETUPS: [Sz3Codec; 4] = [
    Sz3Codec {
        interp: InterpKind::Cubic,
        level_eb: None,
    },
    Sz3Codec::PAPER,
    Sz3Codec {
        interp: InterpKind::Linear,
        level_eb: None,
    },
    Sz3Codec {
        interp: InterpKind::Linear,
        level_eb: Some(LevelEbPolicy::PAPER),
    },
];

/// Every x/y sweep geometry the across-lines arm meets: all `ACROSS_XY²`
/// footprints at the short z extents (setup and bound rotating with the
/// shape), and the long z extents on footprints with a 33, under every setup.
#[test]
fn sz3_across_lines_shapes_are_identical_on_both_arms() {
    let mut i = 0usize;
    for nx in ACROSS_XY {
        for ny in ACROSS_XY {
            for nz in ACROSS_Z.into_iter().filter(|&nz| nz <= 17) {
                let codec = &SZ3_SETUPS[i % 4];
                let eb = [0.5, 1e-2, 1e-5][i % 3];
                let f = mk_field(nx, ny, nz, i as u32);
                let at = format!("sz3 {} {codec:?} eb {eb:e}", f.dims());
                assert_arms_identical(codec, &f, eb, &at);
                i += 1;
            }
        }
    }
    for [nx, ny] in [[33, 2], [2, 33], [17, 17]] {
        for nz in [255, 256, 257] {
            for (s, codec) in SZ3_SETUPS.iter().enumerate() {
                let f = mk_field(nx, ny, nz, s as u32);
                let at = format!("sz3 {} {codec:?}", f.dims());
                assert_arms_identical(codec, &f, 1e-2, &at);
            }
        }
    }
}

/// A shape whose finest x and y sweeps pass the decode's fan-out threshold
/// (65 536 points): 511 lanes, so the last slab of every outer coordinate
/// ends in a partial group, with outliers planted in several slabs.
#[test]
fn sz3_fanned_out_decode_is_identical_on_both_arms() {
    let mut f = mk_field(9, 33, 1021, 7);
    for (x, y, z) in [
        (1, 0, 0),
        (3, 4, 130),
        (0, 1, 126),
        (8, 31, 1020),
        (1, 32, 1018),
    ] {
        f.set(x, y, z, -4.0e30);
    }
    for codec in &SZ3_SETUPS[..2] {
        assert_arms_identical(codec, &f, 1e-2, &format!("sz3 {} {codec:?}", f.dims()));
    }
}

/// One planted value per field, at a target and at a support of an x and of
/// a y sweep, in every lane of every four-lane group and in the scalar tail
/// (`nz = 17`: two loaded groups and a tail lane; `nz = 15`: the second
/// group's window leaves the row and is gathered), finest and coarse level.
/// The classes: an outlier, NaN, ±∞, and half-step ties on a zero base.
#[test]
fn sz3_planted_lanes_are_identical_on_both_arms() {
    let planted: [(&str, f32, bool); 6] = [
        ("outlier", 3.0e30, false),
        ("NaN", f32::NAN, false),
        ("+∞", f32::INFINITY, false),
        ("−∞", f32::NEG_INFINITY, false),
        ("tie +2.5", 2.5, true),
        ("tie −1.5", -1.5, true),
    ];
    for [nx, ny, nz] in [[5, 5, 17], [5, 3, 15]] {
        let dims = Dims3::new(nx, ny, nz);
        for (class, v, zero_base) in planted {
            for lane in 0..nz.div_ceil(2) {
                let z = 2 * lane;
                // (x, y, z): x-sweep target and support, y-sweep target and
                // support at the finest level; x-sweep target and support at
                // s = 2 (lanes 4 apart, gathered).
                let mut cells = vec![[1, 0, z], [0, 0, z], [2, 1, z], [2, 2, z]];
                if z % 4 == 0 {
                    cells.extend([[2, 0, z], [4, 0, z]]);
                }
                for [x, y, z] in cells {
                    let mut f = if zero_base {
                        Field3::zeros(dims)
                    } else {
                        mk_field(nx, ny, nz, lane as u32)
                    };
                    f.set(x, y, z, v);
                    for codec in &SZ3_SETUPS[..2] {
                        let at = format!("sz3 {dims} {class} at ({x},{y},{z}) {codec:?}");
                        assert_arms_identical(codec, &f, 0.5, &at);
                    }
                }
            }
        }
    }
}

/// [`ADVERSARIAL`] on footprints whose x/y sweeps run the across-lines arm
/// at several lane counts, under all four setups.
#[test]
fn sz3_adversarial_inputs_across_lines_are_identical_on_both_arms() {
    for [nx, ny, nz] in [[5, 5, 17], [9, 9, 16], [17, 3, 15], [33, 2, 9]] {
        let dims = Dims3::new(nx, ny, nz);
        for eb in [1e-3, 0.5, 1e30] {
            for (class, cell) in ADVERSARIAL {
                let f = Field3::from_vec(dims, (0..dims.len()).map(|i| cell(i, eb)).collect());
                for codec in &SZ3_SETUPS {
                    let at = format!("sz3 {dims} {class} eb {eb:e} {codec:?}");
                    assert_arms_identical(codec, &f, eb, &at);
                }
            }
        }
    }
}

/// A stream whose outlier side channel is one value short fails with the
/// same typed error on both arms (and the reference decoder) when the
/// missing value belongs to an across-lines sweep: the pre-fill scan makes
/// the line kernels' underrun substitution.
#[test]
fn sz3_short_side_channel_fails_alike_on_both_arms() {
    use hqmr::codec::{push_stream_id, tag, write_uvarint, Container, Cur};
    let dims = Dims3::new(9, 9, 17);
    // An exact ramp, so every prediction is exact, and plants just past the
    // code range (±32 767 steps of 2·eb), so their neighbours, predicted
    // from them with weight ≤ 9/16, stay in range: the planted cells are the
    // only outliers. Finest x target (lane 2), finest y target (lane 3, the
    // group's last), coarse x target (s = 2), the x target in the tail, and
    // three at once (the last one, dropped, in a y sweep).
    for plants in [
        vec![[1, 0, 4]],
        vec![[0, 1, 6]],
        vec![[2, 0, 8]],
        vec![[1, 2, 16]],
        vec![[1, 0, 0], [3, 1, 6], [0, 3, 2]],
    ] {
        let mut f = Field3::from_fn(dims, |x, y, z| (x + 2 * y + 3 * z) as f32);
        for &[x, y, z] in &plants {
            f.set(x, y, z, 5.0e4);
        }
        let _switch = arm_switch();
        pin_arm(false);
        let stream = Sz3Codec::default().compress(&f, 0.5);
        let c = Container::from_bytes(&stream).unwrap();
        let unpr = c.require(tag(b"UNPR")).unwrap();
        let outliers = Cur::new(unpr).count(4).unwrap();
        assert_eq!(outliers, plants.len(), "{plants:?}: planted cells only");
        // Rebuild the stream with the side channel's last value dropped.
        let mut short = Vec::new();
        write_uvarint(&mut short, plants.len() as u64 - 1);
        short.extend_from_slice(&unpr[1..unpr.len() - 4]);
        let mut cut = Container::new();
        push_stream_id(&mut cut, hqmr::sz3::SZ3_CODEC_ID);
        for t in [tag(b"S3HD"), tag(b"QNTC")] {
            cut.push(t, c.require(t).unwrap().to_vec());
        }
        cut.push(tag(b"UNPR"), short);
        let bytes = cut.to_bytes();
        let simd = Sz3Codec::default().decompress(&bytes).map(|_| ());
        pin_arm(true);
        let scalar = Sz3Codec::default().decompress(&bytes).map(|_| ());
        pin_arm(false);
        let want = Err(hqmr::codec::CodecError::Malformed("stream underrun"));
        assert_eq!(scalar, want, "{plants:?}: scalar arm");
        assert_eq!(simd, want, "{plants:?}: AVX2 arm");
        assert_eq!(
            hqmr::sz3::reference::decompress(&bytes).map(|_| ()),
            want,
            "{plants:?}: reference"
        );
    }
}

/// sz2's side channel one value short fails with the same typed error on
/// both arms and in the reference decoder, wherever the missing value
/// belongs: a regression block's vector quad, a quad row's scalar tail, or a
/// Lorenzo block.
#[test]
fn sz2_short_side_channel_fails_alike_on_both_arms() {
    use hqmr::codec::{push_stream_id, tag, write_uvarint, Container, Cur};
    // 6³ blocks over a plane, `1000 + 2x + 3y + z`. The seven blocks on a
    // domain face add ±1 noise, which Lorenzo's eight-term stencil amplifies
    // and a fitted plane does not, so they are regression; the block that
    // touches no face, (6, 6, 6), adds `x'·y' + y'·z'` (block-local) instead,
    // which Lorenzo predicts exactly and a plane does not, so it is Lorenzo.
    // A plant 1e5 above the field is out of band; a regression block's other
    // cells stay in range however the plant tilts its plane, and the
    // Lorenzo plant sits in the domain's last cell, which no later
    // prediction reads. Plants: (1, 1, 1) in a quad of block (0, 0, 0),
    // (2, 2, 11) in the scalar tail of a row of block (0, 0, 6), and
    // (11, 11, 11) in the Lorenzo block — alone, and all three at once (the
    // dropped value is then the Lorenzo block's).
    let dims = Dims3::cube(12);
    let field = |x: usize, y: usize, z: usize| {
        let plane = (1000 + 2 * x + 3 * y + z) as f32;
        if x >= 6 && y >= 6 && z >= 6 {
            plane + ((x - 6) * (y - 6) + (y - 6) * (z - 6)) as f32
        } else {
            plane + (((x * 73_856_093) ^ (y * 19_349_663) ^ (z * 83_492_791)) % 3) as f32 - 1.0
        }
    };
    for plants in [
        vec![[1, 1, 1]],
        vec![[2, 2, 11]],
        vec![[11, 11, 11]],
        vec![[1, 1, 1], [2, 2, 11], [11, 11, 11]],
    ] {
        let mut f = Field3::from_fn(dims, field);
        for &[x, y, z] in &plants {
            f.set(x, y, z, field(x, y, z) + 1.0e5);
        }
        let codec = Sz2Codec::default();
        let r = hqmr::sz2::reference::compress(&f, &codec, 0.5);
        assert_eq!(
            (r.lorenzo_blocks, r.regression_blocks),
            (1, 7),
            "{plants:?}"
        );
        assert_eq!(r.outliers, plants.len(), "{plants:?}: planted cells only");
        let _switch = arm_switch();
        pin_arm(false);
        let stream = codec.compress(&f, 0.5);
        assert_eq!(stream, r.bytes, "{plants:?}");
        let c = Container::from_bytes(&stream).unwrap();
        let unpr = c.require(tag(b"UNPR")).unwrap();
        assert_eq!(Cur::new(unpr).count(4).unwrap(), plants.len());
        // Rebuild the stream with the side channel's last value dropped.
        let mut short = Vec::new();
        write_uvarint(&mut short, plants.len() as u64 - 1);
        short.extend_from_slice(&unpr[1..unpr.len() - 4]);
        let mut cut = Container::new();
        push_stream_id(&mut cut, hqmr::sz2::SZ2_CODEC_ID);
        for t in [tag(b"S2HD"), tag(b"FLGS"), tag(b"COEF"), tag(b"QNTC")] {
            cut.push(t, c.require(t).unwrap().to_vec());
        }
        cut.push(tag(b"UNPR"), short);
        let bytes = cut.to_bytes();
        let simd = codec.decompress(&bytes).map(|_| ());
        pin_arm(true);
        let scalar = codec.decompress(&bytes).map(|_| ());
        pin_arm(false);
        let want = Err(hqmr::codec::CodecError::Malformed("stream underrun"));
        assert_eq!(scalar, want, "{plants:?}: scalar arm");
        assert_eq!(simd, want, "{plants:?}: AVX2 arm");
        assert_eq!(
            hqmr::sz2::reference::decompress(&bytes).map(|_| ()),
            want,
            "{plants:?}: reference"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SZ3's interpolation sweeps hit every `LineGeom` split (mid head,
    /// cubic run, mid tail, extrapolated boundary) as the axes vary.
    #[test]
    fn sz3_dispatch_arms_identical(
        nx in 1usize..12, ny in 1usize..14, nz in 1usize..40, seed in any::<u32>(),
    ) {
        let f = mk_field(nx, ny, nz, seed);
        let at = format!("sz3 {} seed {seed}", f.dims());
        assert_arms_identical(&Sz3Codec::default(), &f, 0.5, &at);
    }

    /// SZ2's block Lorenzo path, including partial edge blocks.
    #[test]
    fn sz2_dispatch_arms_identical(
        nx in 1usize..12, ny in 1usize..14, nz in 1usize..40, seed in any::<u32>(),
    ) {
        let f = mk_field(nx, ny, nz, seed);
        let at = format!("sz2 {} seed {seed}", f.dims());
        assert_arms_identical(&Sz2Codec::default(), &f, 0.5, &at);
    }

    /// ZFP's 4³-block lifting, including partial blocks on every face.
    #[test]
    fn zfp_dispatch_arms_identical(
        nx in 1usize..12, ny in 1usize..14, nz in 1usize..40, seed in any::<u32>(),
    ) {
        let f = mk_field(nx, ny, nz, seed);
        let at = format!("zfp {} seed {seed}", f.dims());
        assert_arms_identical(&ZfpCodec, &f, 0.5, &at);
    }
}

/// CRC-32 one bit at a time, straight from the polynomial: no tables, no
/// folding — the definition both real arms are held to.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

/// `crc32` under the dispatched arm (carry-less multiply where the CPU has
/// it) and under the pinned table arm; asserts they agree with each other
/// and with the bitwise definition, and returns the value.
fn crc32_on_both_arms(bytes: &[u8], what: &str) -> u32 {
    kernels::set_force_scalar(false);
    let dispatched = crc32(bytes);
    kernels::set_force_scalar(true);
    let tables = crc32(bytes);
    kernels::set_force_scalar(false);
    assert_eq!(dispatched, tables, "arms differ on {what}");
    assert_eq!(
        tables,
        crc32_bitwise(bytes),
        "tables differ from bitwise on {what}"
    );
    tables
}

#[test]
fn crc32_arms_agree_on_every_length_alignment_and_pattern() {
    let _switch = arm_switch();
    // Lengths straddling every fold width: the 16-byte lane, the 64-byte
    // four-lane step, a page, and a megabyte with a ragged tail.
    let edge_lens = [15, 16, 17, 63, 64, 65, 4095, 4096, 4097, (1 << 20) + 3];
    let longest = *edge_lens.iter().max().unwrap();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let random: Vec<u8> = (0..longest + 16)
        .map(|_| {
            x = x.rotate_left(13).wrapping_mul(0x2545_F491_4F6C_DD1D);
            (x >> 56) as u8
        })
        .collect();
    let patterns = [
        ("random", random),
        ("zeros", vec![0x00; longest + 16]),
        ("ones", vec![0xFF; longest + 16]),
    ];
    for (name, buf) in &patterns {
        for len in (0..=1024).chain(edge_lens) {
            // The megabyte case at one alignment is enough for the bitwise
            // oracle; everything shorter runs at all sixteen.
            let starts = if len > 1 << 16 { 0..1 } else { 0..16 };
            for start in starts {
                crc32_on_both_arms(
                    &buf[start..start + len],
                    &format!("{name}, len {len}, start {start}"),
                );
            }
        }
    }
}

#[test]
fn crc32_standard_vectors_hold_on_both_arms() {
    let _switch = arm_switch();
    assert_eq!(crc32_on_both_arms(b"", "empty"), 0);
    assert_eq!(crc32_on_both_arms(b"a", "a"), 0xE8B7_BE43);
    assert_eq!(crc32_on_both_arms(b"123456789", "check"), 0xCBF4_3926);
    // Long enough for the fold: the 80-digit vector.
    let digits = b"1234567890".repeat(8);
    assert_eq!(crc32_on_both_arms(&digits, "80 digits"), 0x7CA9_4A72);
}

/// A wire frame sealed under one arm verifies under the other, both ways:
/// the arms are interchangeable across a connection.
#[test]
fn frames_cross_verify_between_crc_arms() {
    use hqmr::net::proto::{read_frame, Kind, Request};
    use hqmr::serve::Query;
    let _switch = arm_switch();
    let req = Request::Batch {
        dataset: 3,
        queries: (0..40)
            .map(|i| Query::Roi {
                level: 0,
                lo: [i, 2 * i, 3 * i],
                hi: [i + 64, 2 * i + 64, 3 * i + 64],
                fill: -1.5,
            })
            .collect(),
    };
    let mut frames = Vec::new();
    for sealed_scalar in [false, true] {
        kernels::set_force_scalar(sealed_scalar);
        let mut frame = Vec::new();
        req.encode_into(11, &mut frame);
        assert!(frame.len() > 256, "body must be long enough to fold");
        kernels::set_force_scalar(!sealed_scalar);
        let (header, body) = read_frame(&mut frame.as_slice(), 1 << 20).expect("frame verifies");
        assert_eq!((header.kind, header.req_id), (Kind::Batch, 11));
        assert_eq!(Request::decode(header.kind, &body).unwrap(), req);
        frames.push(frame);
    }
    kernels::set_force_scalar(false);
    assert_eq!(frames[0], frames[1], "frame bytes depend on the CRC arm");
}
