//! What the benchmark reads from the process itself: heap high-water mark
//! (a counting global allocator), CPU time, and a calibration loop that
//! says whether the machine was quiet while the workload ran.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Counts live and peak heap bytes; every allocation of the process —
/// library, server threads and the benchmark's own buffers — goes through
/// it, so `peak_heap_mb` is the footprint a user of the stack would see.
pub struct CountingAlloc;

// `Relaxed` throughout: the counters publish no other data, they are
// statistics read after the threads that bumped them have been joined.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the bookkeeping touches only the two atomics above and
// never the returned memory, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`, i.e.
        // from `System` with the same layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and `new_size` obeys `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Heap high-water mark since process start, in bytes.
pub fn peak_heap_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds consumed by every thread of this process.
/// Unlike wall time it does not grow while a neighbour holds the core, and
/// it shows when a wall-clock win was bought with more total CPU.
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec`-layout struct (two 64-bit
    // fields on every 64-bit Linux target this benchmark supports) and the
    // clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Rates the calibration loop runs at on a quiet two-core runner of the kind
/// the numbers in `README.md` were taken on, in million elements per
/// wall-clock second (both threads together) and per CPU second. Calibrated
/// times are measured times scaled by `measured rate ÷ nominal rate`.
pub const CALIB_NOMINAL_WALL: f64 = 800.0;
pub const CALIB_NOMINAL_CPU: f64 = 545.0;

/// One pass of the calibration loop, in million elements per second.
#[derive(Debug, Clone, Copy)]
pub struct CalibSample {
    /// Per wall-clock second: falls with every kind of interference, so it
    /// scales wall-clock times.
    pub wall_rate: f64,
    /// Per CPU second the loop's threads consumed: falls when instructions
    /// get slower (a neighbour on the sibling hyperthread, in the cache) but
    /// not while the threads are merely descheduled, so it scales CPU times.
    pub cpu_rate: f64,
}

/// The calibration loop: twelve fork-joins of two threads, each sweeping a
/// 4 MiB buffer with a short polynomial per element — independent lanes, so it is bound by
/// instruction throughput and cache bandwidth the way the codecs' kernels
/// are, not by one dependency chain. That matters: on a shared host the
/// interference that counts (a neighbour on the sibling hyperthread, in the
/// shared cache) slows throughput-bound code by tens of percent and leaves
/// a latency-bound loop untouched. It depends on nothing under `crates/`,
/// so when it slows down the machine did, not the program.
pub struct Calibrator {
    lanes: [Vec<f32>; 2],
}

impl Calibrator {
    const ELEMS: usize = 1 << 20;
    const PASSES: usize = 12;

    pub fn new() -> Self {
        let lane: Vec<f32> = (0..Self::ELEMS).map(|i| i as f32 * 1e-6).collect();
        Calibrator {
            lanes: [lane.clone(), lane],
        }
    }

    /// One sample. Call it while the rest of the process is idle: the CPU
    /// rate charges the loop with everything the process burned meanwhile.
    pub fn sample(&mut self) -> CalibSample {
        let cpu0 = process_cpu_seconds();
        let t0 = Instant::now();
        // One fork-join per pass, a few milliseconds each: the library fans
        // chunk work out the same way, so a descheduled thread costs the
        // loop what it costs a decode.
        for pass in 0..Self::PASSES {
            let k = 1.0 + pass as f32 * 1e-6;
            std::thread::scope(|s| {
                for lane in &mut self.lanes {
                    s.spawn(move || {
                        for w in lane.iter_mut() {
                            let x = *w * k;
                            let y = ((((x * 0.1 + 0.2) * x + 0.3) * x + 0.4) * x + 0.5) * x + 0.6;
                            *w = y - (y as i32) as f32;
                        }
                    });
                }
            });
        }
        std::hint::black_box(&self.lanes);
        let wall = t0.elapsed().as_secs_f64();
        let cpu = process_cpu_seconds() - cpu0;
        let melems = (2 * Self::ELEMS * Self::PASSES) as f64 / 1e6;
        CalibSample {
            wall_rate: melems / wall,
            cpu_rate: melems / cpu,
        }
    }
}
