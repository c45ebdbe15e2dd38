//! Runtime kernel dispatch: two arms per kernel.
//!
//! Every dispatched kernel of the compressor crates exists exactly twice:
//!
//! * the **scalar arm** — portable Rust, the definition of the format. It is
//!   the only arm off x86-64 and on an x86-64 CPU without AVX2, and the arm
//!   `HQMR_FORCE_SCALAR=1` pins;
//! * one **AVX2 arm** — hand-vectorized `core::arch` code for the same
//!   loop, taken when [`simd_level`] probes AVX2. Its lanes are whatever
//!   points the loop can evaluate independently: the stride-1 interior of a
//!   block or line (sz2, zfp, sz3's finest `z` sweep), or — for sz3's x and
//!   y sweeps — the same target position on four lines adjacent in `z`.
//!
//! Each arm of an SZ prediction kernel is one walk for both directions: it
//! computes the predictions and hands every point to a
//! [`PointStep`](crate::quantizer::PointStep) — quantize-and-record on
//! encode, recover on decode — so the two directions cannot drift apart.
//!
//! The AVX2 arm must write the bytes the scalar arm writes, for every input
//! including the non-finite ones: a vector lane either evaluates the scalar
//! expression sequence exactly (no FMA contraction, no reassociation) or the
//! group replays through the scalar code. In particular a float → integer
//! conversion of NaN yields 0, as Rust's `as` cast does, not the
//! integer-indefinite value the raw `cvttpd` instructions produce.
//!
//! Who runs which arm: every suite runs the scalar arm under
//! `HQMR_FORCE_SCALAR=1` (the forced-scalar CI job) and the AVX2 arm
//! otherwise; `tests/dispatch_equivalence.rs` runs both in one process via
//! [`set_force_scalar`], compares their streams byte for byte, and refuses to
//! pass on an AVX2 machine where the unforced level is not [`SimdLevel::Avx2`].
//! The `reference` oracles pin both arms to the pre-optimization algorithms.
//!
//! [`crc32`](crate::crc32) dispatches the same way through [`clmul_crc`]:
//! where the CPU has PCLMULQDQ (and SSE4.1) it folds 64 bytes per step with
//! carry-less multiplies, elsewhere — and for inputs under 64 bytes, and for
//! the last few bytes of every input — it walks the slicing-by-8 tables.
//! A CRC is a pure function of the bytes, so chunk, sidecar and wire-frame
//! checksums written under one arm verify under the other.
//!
//! Two override channels exist so CI and the tests can pin an arm:
//!
//! * `HQMR_FORCE_SCALAR=1` in the environment forces the scalar arm — the
//!   scalar kernels and the table CRC — for the whole process.
//! * [`set_force_scalar`] flips the same switch at runtime, letting one
//!   process run (and compare) both arms.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU8, Ordering};

/// Instruction-set arm a kernel call should take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar code — the oracle arm, and the only arm on a CPU
    /// without AVX2.
    Scalar,
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
            publish_env(&FORCE_SCALAR, on)
        }
    }
}

/// Publishes the environment's answer into a still-`UNSET` flag and returns
/// what the flag then holds: a [`set_force_scalar`] that landed since the
/// caller's load wins over the environment instead of being overwritten.
fn publish_env(flag: &AtomicU8, env_on: bool) -> bool {
    let env = if env_on { ON } else { OFF };
    match flag.compare_exchange(UNSET, env, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => env_on,
        Err(set_meanwhile) => set_meanwhile == ON,
    }
}

/// Pins (or unpins) the scalar arm for the whole process, overriding the
/// environment. The tests use this to run both arms in one process.
pub fn set_force_scalar(on: bool) {
    FORCE_SCALAR.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

/// Decode paths fan intra-chunk tiles (SZ3 sweep lines, store slab assembly)
/// across the rayon shim whenever the work is large enough — there is no
/// switch. Kept because the repo benchmark echoes it in its run header.
pub fn tile_parallel() -> bool {
    true
}

/// Minimum size (cells) of one array before the work on it fans out across
/// the rayon shim: 1 Mi cells, 4 MiB of `f32`. That is the level-sized
/// arrays of `mrc` and `one_chunk_per_level`, whose encode (zfp's slabs,
/// sz2's wavefront) or slab extraction (the store's decode) takes
/// milliseconds. A default store chunk (16 × 16³ cells, 256 KiB) is tens to
/// hundreds of microseconds of work and already one of many chunks encoded
/// or decoded side by side, where a second, nested fan-out would only add
/// thread spawns — so it must stay below this.
pub const PAR_MIN_CELLS: usize = 1 << 20;

/// One `&mut [f32]` shared by the workers of a one-array fan-out (sz3's
/// sweep decode, sz2's encode wavefront), each re-materializing the whole
/// slice and writing only cells no other worker reads or writes meanwhile.
/// Built from the exclusive borrow, so it cannot outlive it; every use site
/// states why its workers' cells are disjoint.
pub struct SharedSlice<'a> {
    ptr: *mut f32,
    len: usize,
    _borrow: PhantomData<&'a mut [f32]>,
}

// SAFETY: the slice is borrowed exclusively for `'a` and `f32` is plain
// data; the only access is `slice`, whose callers keep to the disjointness
// contract.
unsafe impl Send for SharedSlice<'_> {}
// SAFETY: as for `Send` — a shared `&SharedSlice` hands out only the pointer.
unsafe impl Sync for SharedSlice<'_> {}

impl<'a> SharedSlice<'a> {
    /// Shares `buf` for the lifetime of its borrow.
    pub fn new(buf: &'a mut [f32]) -> Self {
        SharedSlice {
            ptr: buf.as_mut_ptr(),
            len: buf.len(),
            _borrow: PhantomData,
        }
    }

    /// The whole shared slice.
    ///
    /// # Safety
    /// No cell the caller writes is read or written by another thread while
    /// the caller's view lives, and no cell it reads is written meanwhile.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice(&self) -> &mut [f32] {
        std::slice::from_raw_parts_mut(self.ptr, self.len)
    }
}

fn detect() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return SimdLevel::Avx2;
    }
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
        set_force_scalar(true);
        assert!(!clmul_crc());
        set_force_scalar(false);
    }

    /// The lost update: a reader finds the flag `UNSET` and goes to the
    /// environment; a setter lands before the reader publishes. The setter's
    /// value must survive and be what the reader reports.
    #[test]
    fn env_never_overwrites_a_setter() {
        for (set, env_on) in [(ON, false), (OFF, true)] {
            let flag = AtomicU8::new(UNSET); // the reader's load saw this
            flag.store(set, Ordering::Relaxed); // the setter, meanwhile
            assert_eq!(publish_env(&flag, env_on), set == ON);
            assert_eq!(flag.load(Ordering::Relaxed), set);
        }
        let flag = AtomicU8::new(UNSET);
        assert!(publish_env(&flag, true));
        assert_eq!(flag.load(Ordering::Relaxed), ON);
    }
}
