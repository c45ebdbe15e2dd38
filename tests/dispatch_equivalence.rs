//! Property tests for the runtime SIMD dispatch layer in
//! `hqmr_codec::kernels`: for arbitrary field shapes — degenerate axes,
//! non-power-of-two line lengths, values spanning smooth and rough content —
//! the dispatched kernels and the forced-scalar arm must produce
//! byte-identical streams, and each arm must decode the other's output to
//! the same reconstruction.
//!
//! `hqmr_codec::crc32` dispatches through the same module, so its
//! carry-less-multiply arm is pinned here too: against the slicing-by-8
//! tables and against a bit-at-a-time loop that shares no code with either.
//!
//! The force-scalar switch is process-global, so every toggle happens under
//! [`arm_switch`] and is always restored: a test that asks for an arm gets
//! that arm, whatever its neighbours are doing.

use hqmr::codec::{crc32, kernels};
use hqmr::grid::{Dims3, Field3};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests' use of the process-wide force-scalar switch.
fn arm_switch() -> MutexGuard<'static, ()> {
    static SWITCH: Mutex<()> = Mutex::new(());
    // A failed property poisons the lock; the switch itself is still fine.
    SWITCH.lock().unwrap_or_else(|e| e.into_inner())
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

/// Compresses under both dispatch arms and asserts byte identity, then
/// cross-decodes: the scalar arm decodes the SIMD stream and vice versa.
fn assert_arms_identical(
    f: &Field3,
    compress: impl Fn(&Field3) -> Vec<u8>,
    decompress: impl Fn(&[u8]) -> Field3,
) {
    let _switch = arm_switch();
    kernels::set_force_scalar(false);
    let simd = compress(f);
    kernels::set_force_scalar(true);
    let scalar = compress(f);
    assert_eq!(simd, scalar, "compressed streams differ between arms");
    let dec_scalar = decompress(&simd);
    kernels::set_force_scalar(false);
    let dec_simd = decompress(&scalar);
    assert_eq!(
        dec_simd.data(),
        dec_scalar.data(),
        "reconstructions differ between arms"
    );
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
        let cfg = hqmr::sz3::Sz3Config::new(0.5);
        assert_arms_identical(
            &f,
            |f| hqmr::sz3::compress(f, &cfg).bytes,
            |b| hqmr::sz3::decompress(b).expect("fresh stream decodes"),
        );
    }

    /// SZ2's block Lorenzo path, including partial edge blocks.
    #[test]
    fn sz2_dispatch_arms_identical(
        nx in 1usize..12, ny in 1usize..14, nz in 1usize..40, seed in any::<u32>(),
    ) {
        let f = mk_field(nx, ny, nz, seed);
        let cfg = hqmr::sz2::Sz2Config::new(0.5);
        assert_arms_identical(
            &f,
            |f| hqmr::sz2::compress(f, &cfg).bytes,
            |b| hqmr::sz2::decompress(b).expect("fresh stream decodes"),
        );
    }

    /// ZFP's 4³-block lifting, including partial blocks on every face.
    #[test]
    fn zfp_dispatch_arms_identical(
        nx in 1usize..12, ny in 1usize..14, nz in 1usize..40, seed in any::<u32>(),
    ) {
        let f = mk_field(nx, ny, nz, seed);
        let cfg = hqmr::zfp::ZfpConfig::new(0.5);
        assert_arms_identical(
            &f,
            |f| hqmr::zfp::compress(f, &cfg).bytes,
            |b| hqmr::zfp::decompress(b).expect("fresh stream decodes"),
        );
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
