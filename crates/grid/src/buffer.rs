//! The one allocation path for fresh `f32` fields.
//!
//! A level-sized field — a reconstruction, a progressive step — is written
//! front to back right after it is allocated, so on 4 KiB pages its cost is
//! mostly first-touch faults: one trap per page. From [`HUGE_MIN_BYTES`] on,
//! the buffer's 2 MiB-aligned interior is advised `MADV_HUGEPAGE` before
//! anything writes it, and a kernel with transparent huge pages enabled (or
//! set to `madvise`) faults it in 2 MiB at a time. The hint is advisory: it
//! changes no byte, and it does nothing where THP is off or off Linux.
//!
//! A `+0.0` fill keeps the allocator's lazily zeroed pages (no zero pass);
//! any other fill is written after the hint.

use std::alloc::{alloc, alloc_zeroed, Layout};
use std::mem::MaybeUninit;
use std::ops::Range;

/// Smallest buffer whose interior is advised onto huge pages.
const HUGE_MIN_BYTES: usize = 4 << 20;
/// Transparent huge page size on x86-64 and 4 KiB-granule aarch64.
const HUGE_PAGE: usize = 2 << 20;

/// The 2 MiB-aligned interior of the allocation `[addr, addr + len)` that is
/// worth advising: empty below [`HUGE_MIN_BYTES`], or when no aligned page
/// fits (a buffer of at least `HUGE_MIN_BYTES` always holds one, short of
/// the top of the address space).
#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
fn huge_page_range(addr: usize, len: usize) -> Range<usize> {
    if len < HUGE_MIN_BYTES {
        return 0..0;
    }
    let start = addr.checked_next_multiple_of(HUGE_PAGE);
    let end = addr.checked_add(len).map(|e| e / HUGE_PAGE * HUGE_PAGE);
    match (start, end) {
        (Some(start), Some(end)) if start < end => start..end,
        _ => 0..0,
    }
}

/// A `len`-cell buffer holding `fill`, or `None` if its size overflows or
/// the allocator refuses it.
pub(crate) fn filled(len: usize, fill: f32) -> Option<Vec<f32>> {
    let layout = Layout::array::<f32>(len).ok()?;
    if layout.size() == 0 {
        return Some(Vec::new());
    }
    // Only `+0.0` is all zero bits; `-0.0` and NaNs are written like any fill.
    let zero = fill.to_bits() == 0;
    // SAFETY: `layout` has a non-zero size.
    let ptr = unsafe {
        if zero {
            alloc_zeroed(layout)
        } else {
            alloc(layout)
        }
    };
    if ptr.is_null() {
        return None;
    }
    advise_huge_pages(ptr, layout.size());
    let ptr = ptr.cast::<f32>();
    if !zero {
        // SAFETY: `ptr` is a live, `f32`-aligned allocation of `len` cells,
        // viewed as uninitialized until this fill writes every one.
        let cells = unsafe { std::slice::from_raw_parts_mut(ptr.cast::<MaybeUninit<f32>>(), len) };
        cells.fill(MaybeUninit::new(fill));
    }
    // SAFETY: `ptr` comes from the global allocator with
    // `Layout::array::<f32>(len)`, and all `len` cells are initialized
    // (zeroed memory is `+0.0`).
    Some(unsafe { Vec::from_raw_parts(ptr, len, len) })
}

#[cfg(target_os = "linux")]
fn advise_huge_pages(ptr: *mut u8, len: usize) {
    const MADV_HUGEPAGE: std::ffi::c_int = 14;
    extern "C" {
        fn madvise(
            addr: *mut std::ffi::c_void,
            len: usize,
            advice: std::ffi::c_int,
        ) -> std::ffi::c_int;
    }
    let range = huge_page_range(ptr as usize, len);
    if range.is_empty() {
        return;
    }
    // SAFETY: `range` lies inside the live allocation `[ptr, ptr + len)`
    // and is page-aligned, and `MADV_HUGEPAGE` only changes how the kernel
    // backs those pages, never their contents. A refusal (THP compiled out,
    // `EINVAL`) leaves ordinary pages, so the return value is ignored.
    unsafe {
        let start = ptr.add(range.start - ptr as usize);
        madvise(start.cast(), range.len(), MADV_HUGEPAGE);
    }
}

#[cfg(not(target_os = "linux"))]
fn advise_huge_pages(_: *mut u8, _: usize) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_advised_range_is_the_aligned_interior() {
        let offsets = [0, 1, 4095, 4096, HUGE_PAGE - 1, HUGE_PAGE, HUGE_PAGE + 8];
        let lens = [
            HUGE_MIN_BYTES,
            HUGE_MIN_BYTES + 1,
            HUGE_MIN_BYTES + HUGE_PAGE - 1,
            3 * HUGE_MIN_BYTES + 12,
            64 << 20,
        ];
        for base in [0x7f00_0000_0000usize, 0x5555_5555_0010] {
            for off in offsets {
                for len in lens {
                    let addr = base + off;
                    let r = huge_page_range(addr, len);
                    assert!(!r.is_empty(), "{addr:#x} + {len}");
                    assert_eq!(r.start % HUGE_PAGE, 0);
                    assert_eq!(r.end % HUGE_PAGE, 0);
                    assert!(addr <= r.start && r.end <= addr + len);
                    // The interior is maximal: less than a page cut off at
                    // either end.
                    assert!(r.start - addr < HUGE_PAGE && addr + len - r.end < HUGE_PAGE);
                }
            }
        }
    }

    #[test]
    fn the_advised_range_is_empty_below_the_cutoff_or_without_a_page() {
        for len in [0, 1, HUGE_PAGE, HUGE_MIN_BYTES - 1] {
            assert!(huge_page_range(0x7f00_0020_0000, len).is_empty());
        }
        // No aligned page fits below the end of the address space.
        assert!(huge_page_range(usize::MAX - HUGE_PAGE, HUGE_MIN_BYTES).is_empty());
        assert!(huge_page_range(usize::MAX - 8, HUGE_MIN_BYTES).is_empty());
    }

    #[test]
    fn fields_above_the_cutoff_keep_their_fill_bits() {
        let dims = crate::Dims3::new(3, 5, HUGE_MIN_BYTES / 4 / 15 + 7);
        assert!(dims.len() * 4 > HUGE_MIN_BYTES);
        // `-0.0` compares equal to `+0.0`, and NaN to nothing: compare bits,
        // which also catches a `-0.0` taking the zeroed branch.
        for fill in [0.0, -0.0, f32::from_bits(0x7fc0_1234), 1.5] {
            let f = crate::Field3::new(dims, fill);
            assert_eq!(f.len(), dims.len());
            assert!(
                f.data().iter().all(|v| v.to_bits() == fill.to_bits()),
                "{fill}"
            );
        }
        assert_eq!(filled(0, 1.5), Some(Vec::new()));
        // A size that overflows, and one (1 EiB) no allocator grants.
        assert_eq!(filled(usize::MAX / 2, 0.0), None);
        assert_eq!(filled(1 << 58, 0.0), None);
    }
}
