//! Runtime kernel dispatch: SIMD level selection.
//!
//! The compressor crates carry hand-vectorized `core::arch` variants of their
//! stride-1 interior kernels (SSE2 baseline on x86-64, AVX2 when the CPU has
//! it) next to the scalar code, and pick an arm per call through
//! [`simd_level`]. Every arm produces bit-identical streams — the scalar path
//! is the oracle, the way `engine::reference` pins the algorithmic rewrites —
//! so the choice is pure throughput, never format.
//!
//! [`crc32`](crate::crc32) dispatches the same way through [`clmul_crc`]:
//! where the CPU has PCLMULQDQ (and SSE4.1) it folds 64 bytes per step with
//! carry-less multiplies, elsewhere — and for inputs under 64 bytes, and for
//! the last few bytes of every input — it walks the slicing-by-8 tables.
//! A CRC is a pure function of the bytes, so chunk, sidecar and wire-frame
//! checksums written under one arm verify under the other.
//!
//! Two override channels exist so CI and the benches can pin an arm:
//!
//! * `HQMR_FORCE_SCALAR=1` in the environment forces the scalar arm — the
//!   scalar kernels and the table CRC — for the whole process (the
//!   forced-scalar CI job runs the differential suites under it).
//! * [`set_force_scalar`] flips the same switch at runtime, letting one
//!   process run (and compare) the SIMD and scalar arms.

use std::sync::atomic::{AtomicU8, Ordering};

/// Instruction-set arm a kernel call should take.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar code — the oracle arm, and the only arm off x86-64.
    Scalar,
    /// 128-bit SSE2 — the x86-64 baseline, always present there.
    Sse2,
    /// 256-bit AVX2 — runtime-detected.
    Avx2,
}

const UNSET: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

/// Tri-state flag: `UNSET` until first read (which consults the
/// environment), then pinned to `ON`/`OFF` unless the setter rewrites it.
static FORCE_SCALAR: AtomicU8 = AtomicU8::new(UNSET);

/// True when the scalar arm is pinned (`HQMR_FORCE_SCALAR=1` or
/// [`set_force_scalar`]).
pub fn force_scalar() -> bool {
    match FORCE_SCALAR.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => {
            let on = std::env::var("HQMR_FORCE_SCALAR").is_ok_and(|v| !(v.is_empty() || v == "0"));
            set_force_scalar(on);
            on
        }
    }
}

/// Pins (or unpins) the scalar arm for the whole process, overriding the
/// environment. The benches use this to time both arms in one run.
pub fn set_force_scalar(on: bool) {
    FORCE_SCALAR.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

/// Decode paths fan intra-chunk tiles (SZ3 sweep lines, store slab assembly)
/// across the rayon shim whenever the work is large enough — there is no
/// switch. Kept because the repo benchmark echoes it in its run header.
pub fn tile_parallel() -> bool {
    true
}

#[cfg(target_arch = "x86_64")]
fn detect() -> SimdLevel {
    if std::arch::is_x86_feature_detected!("avx2") {
        SimdLevel::Avx2
    } else {
        // SSE2 is part of the x86-64 baseline; no detection needed.
        SimdLevel::Sse2
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> SimdLevel {
    SimdLevel::Scalar
}

/// The arm kernels should dispatch to for this call.
///
/// Detection runs once per process; the force-scalar override is consulted
/// on every call (it is a relaxed atomic load — nanoseconds next to any
/// kernel body).
pub fn simd_level() -> SimdLevel {
    use std::sync::OnceLock;
    static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
    if force_scalar() {
        return SimdLevel::Scalar;
    }
    *DETECTED.get_or_init(detect)
}

/// True when [`crc32`](crate::crc32) should take its carry-less-multiply
/// arm: the CPU has `pclmulqdq` and `sse4.1`, and the scalar arm is not
/// pinned. Always false off x86-64.
pub fn clmul_crc() -> bool {
    use std::sync::OnceLock;
    static DETECTED: OnceLock<bool> = OnceLock::new();
    !force_scalar()
        && *DETECTED.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            let has = std::arch::is_x86_feature_detected!("pclmulqdq")
                && std::arch::is_x86_feature_detected!("sse4.1");
            #[cfg(not(target_arch = "x86_64"))]
            let has = false;
            has
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_scalar_round_trips() {
        // Whatever the environment says, the runtime setter wins.
        set_force_scalar(true);
        assert_eq!(simd_level(), SimdLevel::Scalar);
        assert!(force_scalar());
        set_force_scalar(false);
        assert!(!force_scalar());
        #[cfg(target_arch = "x86_64")]
        assert!(simd_level() >= SimdLevel::Sse2);
        set_force_scalar(true);
        assert!(!clmul_crc());
        set_force_scalar(false);
    }
}
