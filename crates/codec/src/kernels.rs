//! Runtime kernel dispatch: SIMD level selection and parallelism toggles.
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
//!
//! The intra-chunk tile parallelism of the decode path (lines of an SZ3
//! sweep fanned across the rayon shim) has the same two channels:
//! `HQMR_TILE_PARALLEL=0` / [`set_tile_parallel`]. Tiling never changes
//! bytes either — it partitions writes over disjoint output positions.

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

/// Tri-state flags: `UNSET` until first read (which consults the
/// environment), then pinned to `ON`/`OFF` unless a setter rewrites them.
static FORCE_SCALAR: AtomicU8 = AtomicU8::new(UNSET);
static TILE_PARALLEL: AtomicU8 = AtomicU8::new(UNSET);

fn read_flag(flag: &AtomicU8, env: &str, default: bool) -> bool {
    match flag.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => {
            let on = match std::env::var(env) {
                Ok(v) => !(v.is_empty() || v == "0"),
                Err(_) => default,
            };
            flag.store(if on { ON } else { OFF }, Ordering::Relaxed);
            on
        }
    }
}

/// True when the scalar arm is pinned (`HQMR_FORCE_SCALAR=1` or
/// [`set_force_scalar`]).
pub fn force_scalar() -> bool {
    read_flag(&FORCE_SCALAR, "HQMR_FORCE_SCALAR", false)
}

/// Pins (or unpins) the scalar arm for the whole process, overriding the
/// environment. The benches use this to time both arms in one run.
pub fn set_force_scalar(on: bool) {
    FORCE_SCALAR.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

/// True when decode paths may fan intra-chunk tiles (SZ3 sweep lines, store
/// slab assembly) across the rayon shim. Default on; `HQMR_TILE_PARALLEL=0`
/// or [`set_tile_parallel`] turn it off (the benches' serial baseline arm).
pub fn tile_parallel() -> bool {
    read_flag(&TILE_PARALLEL, "HQMR_TILE_PARALLEL", true)
}

/// Enables/disables intra-chunk tile parallelism at runtime.
pub fn set_tile_parallel(on: bool) {
    TILE_PARALLEL.store(if on { ON } else { OFF }, Ordering::Relaxed);
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

    #[test]
    fn tile_parallel_round_trips() {
        set_tile_parallel(false);
        assert!(!tile_parallel());
        set_tile_parallel(true);
        assert!(tile_parallel());
    }
}
