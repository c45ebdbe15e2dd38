//! In-memory spans around the public calls the benchmark makes into each
//! crate, and the attribution that turns them into per-layer self times.
//!
//! Spans are recorded only in a traced run (`--trace 1`); the end-to-end
//! metrics come from a run in which [`span`] is never reached. A span's
//! layer is the part of its name before the first `.` (`store.fetch` →
//! `store`). Nothing under `crates/` is instrumented: where a library call
//! hides the boundary between two layers, the traced run replays the call as
//! the explicit sequence of public functions it is built from, behind the
//! two adaptors below ([`TracedCodec`], [`TracedSource`]).

use hqmr_codec::{Codec, CodecError};
use hqmr_grid::{Dims3, Field3};
use hqmr_mr::strip_padding;
use hqmr_store::{codec_for_id, ChunkSource, DecodedChunk, StoreError, StoreMeta, StoreReader};
use rayon::prelude::*;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded interval. `parent == 0` marks the root of an op's replay.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op_id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Not timed directly but computed as a difference of two timed
    /// intervals (e.g. `append` minus encode and parity = publish).
    pub derived: bool,
}

impl Span {
    fn dur(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64
    }
}

struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

static ON: AtomicBool = AtomicBool::new(false);
static TRACER: OnceLock<Tracer> = OnceLock::new();
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
/// Innermost open span and op of the thread driving the current op. The
/// rayon shim runs chunk work on freshly spawned threads whose own span
/// stack is empty; their spans hang off this one. Only meaningful while one
/// thread drives ops (every workload but `net_serve`, whose client threads
/// open no spans on other threads).
static AMBIENT_PARENT: AtomicU32 = AtomicU32::new(0);
static AMBIENT_OP: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static OP: Cell<u32> = const { Cell::new(0) };
    /// Per-thread decode scratch, as in the reader's own decode path.
    static SCRATCH: RefCell<Field3> = RefCell::new(Field3::zeros(Dims3::new(0, 0, 0)));
}

fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| Tracer {
        t0: Instant::now(),
        spans: Mutex::new(Vec::new()),
    })
}

fn now_ns(t: &Tracer) -> u64 {
    t.t0.elapsed().as_nanos() as u64
}

/// Turns span recording on for the rest of the process.
pub fn enable() {
    tracer();
    ON.store(true, Ordering::SeqCst);
}

/// Runs `f` with recording off: the traced run performs each op once the
/// way the untraced run does, and that call must not pay for spans.
pub fn paused<R>(f: impl FnOnce() -> R) -> R {
    let was = ON.swap(false, Ordering::SeqCst);
    let out = f();
    ON.store(was, Ordering::SeqCst);
    out
}

/// Names the op the calling thread's following spans belong to.
pub fn begin_op(op_id: u32) {
    OP.with(|o| o.set(op_id));
    AMBIENT_OP.store(op_id, Ordering::SeqCst);
}

/// Runs `f` inside a span called `name`; free when tracing is off.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    span_then(name, f, |_| Vec::new())
}

/// [`span`], then `after(&result)` runs *outside* the span and returns
/// `(name, seconds)` parts of it to record as derived children: time that
/// was not measured while the span ran but by repeating a part of its work
/// on the same data (the compressor's share of `encode_prepared`, which
/// builds its own codec and so cannot be handed a [`TracedCodec`]).
pub fn span_then<R>(
    name: &'static str,
    f: impl FnOnce() -> R,
    after: impl FnOnce(&R) -> Vec<(&'static str, f64)>,
) -> R {
    if !ON.load(Ordering::Relaxed) {
        return f();
    }
    let t = tracer();
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let on_driver = OP.with(Cell::get) != 0;
    let parent = STACK
        .with(|s| {
            let mut s = s.borrow_mut();
            let top = s.last().copied();
            s.push(id);
            top
        })
        .unwrap_or_else(|| {
            if on_driver {
                0
            } else {
                AMBIENT_PARENT.load(Ordering::SeqCst)
            }
        });
    let op_id = if on_driver {
        OP.with(Cell::get)
    } else {
        AMBIENT_OP.load(Ordering::SeqCst)
    };
    if on_driver {
        AMBIENT_PARENT.store(id, Ordering::SeqCst);
    }
    let start_ns = now_ns(t);
    let out = f();
    let end_ns = now_ns(t);
    STACK.with(|s| s.borrow_mut().pop());
    if on_driver {
        AMBIENT_PARENT.store(parent, Ordering::SeqCst);
    }
    let parts = after(&out);
    let mut spans = t
        .spans
        .lock()
        .expect("a span recorder panicked while holding the span list");
    spans.push(Span {
        id,
        parent,
        op_id,
        name,
        start_ns,
        end_ns,
        derived: false,
    });
    for (part, seconds) in parts {
        spans.push(derived_span(part, id, op_id, end_ns, seconds));
    }
    out
}

fn derived_span(name: &'static str, parent: u32, op_id: u32, end_ns: u64, seconds: f64) -> Span {
    Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent,
        op_id,
        name,
        start_ns: end_ns.saturating_sub((seconds.max(0.0) * 1e9) as u64),
        end_ns,
        derived: true,
    }
}

/// Records a top-level span of the calling thread's op whose length was
/// computed as a difference of timed intervals rather than timed.
pub fn derived(name: &'static str, seconds: f64) {
    if !ON.load(Ordering::Relaxed) {
        return;
    }
    let t = tracer();
    let s = derived_span(name, 0, OP.with(Cell::get), now_ns(t), seconds);
    t.spans
        .lock()
        .expect("a span recorder panicked while holding the span list")
        .push(s);
}

/// Every span recorded so far, in completion order.
pub fn snapshot() -> Vec<Span> {
    TRACER
        .get()
        .map(|t| {
            t.spans
                .lock()
                .expect("a span recorder panicked while holding the span list")
                .clone()
        })
        .unwrap_or_default()
}

/// Writes spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`,
/// `op_id`, plus `id` and `derived`).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\": {}, \"parent\": {}, \"op_id\": {}, \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}, \"derived\": {}}}",
            s.id, s.parent, s.op_id, s.name, s.start_ns, s.end_ns, s.derived
        )?;
    }
    w.flush()
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> f64 {
    intervals.sort_unstable();
    let (mut total, mut edge) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(edge), e.min(hi));
        if e > s {
            total += e - s;
            edge = e;
        }
    }
    total as f64
}

/// Self time of one op per span path (`store.read_all/store.fetch`), in
/// seconds; the values sum to the op's top-level spans.
///
/// A span's self time is its length minus the part of it its children
/// cover. Children that ran side by side on two cores cover less wall time
/// than their lengths add up to, so each child subtree is scaled by
/// `covered / Σ child lengths`: the op is charged for the time it was
/// blocked, not for CPU seconds. Derived children are charged in full.
pub fn self_times(op_spans: &[&Span]) -> BTreeMap<String, f64> {
    let mut children: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in op_spans {
        children.entry(s.parent).or_default().push(s);
    }
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    // (span, its path, scale inherited from its ancestors)
    let mut todo: Vec<(&Span, String, f64)> = children
        .get(&0)
        .map(|roots| {
            roots
                .iter()
                .map(|r| (*r, r.name.to_string(), 1.0))
                .collect()
        })
        .unwrap_or_default();
    while let Some((s, path, scale)) = todo.pop() {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let mut timed: Vec<(u64, u64)> = kids
            .iter()
            .filter(|k| !k.derived)
            .map(|k| (k.start_ns, k.end_ns))
            .collect();
        let timed_sum: f64 = kids.iter().filter(|k| !k.derived).map(|k| k.dur()).sum();
        let derived_sum: f64 = kids.iter().filter(|k| k.derived).map(|k| k.dur()).sum();
        let cover = covered(&mut timed, s.start_ns, s.end_ns);
        let own = (s.dur() - cover - derived_sum).max(0.0);
        let squeeze = if timed_sum > 0.0 {
            cover / timed_sum
        } else {
            1.0
        };
        for k in kids {
            let k_scale = if k.derived { scale } else { scale * squeeze };
            todo.push((k, format!("{path}/{}", k.name), k_scale));
        }
        *out.entry(path).or_default() += own * scale * 1e-9;
    }
    out
}

/// The crate a span path is charged to: its last component's prefix.
pub fn layer_of(path: &str) -> &str {
    let leaf = path.rsplit('/').next().unwrap_or(path);
    leaf.split('.').next().unwrap_or(leaf)
}

fn span_name(codec: &'static str, compress: bool) -> &'static str {
    match (codec, compress) {
        ("sz3", true) => "sz3.compress",
        ("sz3", false) => "sz3.decompress",
        ("sz2", true) => "sz2.compress",
        ("sz2", false) => "sz2.decompress",
        ("zfp", true) => "zfp.compress",
        ("zfp", false) => "zfp.decompress",
        (_, true) => "codec.compress",
        (_, false) => "codec.decompress",
    }
}

/// A codec that records a span around every call and otherwise is the
/// codec it wraps: handed to library functions that take `&dyn Codec`, it
/// shows the compressor's share of their time.
pub struct TracedCodec(pub Box<dyn Codec>);

impl Codec for TracedCodec {
    fn id(&self) -> u32 {
        self.0.id()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn compress(&self, field: &Field3, eb: f64) -> Vec<u8> {
        span(span_name(self.0.name(), true), || {
            self.0.compress(field, eb)
        })
    }

    fn decompress(&self, bytes: &[u8]) -> Result<Field3, CodecError> {
        span(span_name(self.0.name(), false), || self.0.decompress(bytes))
    }

    fn compress_into(&self, field: &Field3, eb: f64, out: &mut Vec<u8>) {
        span(span_name(self.0.name(), true), || {
            self.0.compress_into(field, eb, out)
        })
    }

    fn decompress_into(&self, bytes: &[u8], out: &mut Field3) -> Result<(), CodecError> {
        span(span_name(self.0.name(), false), || {
            self.0.decompress_into(bytes, out)
        })
    }
}

/// A [`ChunkSource`] over a bare [`StoreReader`] that produces each chunk by
/// the public steps `StoreReader::decode_chunk` is built from — fetch + CRC,
/// codec decode, padding strip and per-slot slab extraction — with a span on
/// each. The generic read paths in `hqmr_store::read` run unchanged on top,
/// so their own span is the assembly time. Callers check its results
/// against the reader's one-call results byte for byte.
pub struct TracedSource<'a> {
    reader: &'a StoreReader,
    codec: TracedCodec,
}

impl<'a> TracedSource<'a> {
    pub fn new(reader: &'a StoreReader) -> Self {
        let codec = codec_for_id(reader.meta().codec_id)
            .expect("the reader opened, so its codec id is registered");
        TracedSource {
            reader,
            codec: TracedCodec(codec),
        }
    }

    fn decode(&self, level: usize, block: usize, bytes: &[u8]) -> Result<DecodedChunk, StoreError> {
        span("store.decode_chunk", || {
            let c = &self.reader.meta().levels[level].chunks[block];
            SCRATCH.with(|scratch| {
                let mut field = scratch.borrow_mut();
                self.codec
                    .decompress_into(bytes, &mut field)
                    .map_err(|source| StoreError::Codec {
                        level,
                        block,
                        source,
                    })?;
                let stripped;
                let data: &Field3 = if c.padded {
                    stripped = strip_padding(&field);
                    &stripped
                } else {
                    &field
                };
                let n = c.unit.pow(3);
                let mut slab = vec![0f32; c.slots.len() * n];
                for (k, &(slot, _)) in c.slots.iter().enumerate() {
                    data.extract_box_into(slot, Dims3::cube(c.unit), &mut slab[k * n..(k + 1) * n]);
                }
                Ok(DecodedChunk {
                    unit: c.unit,
                    origins: c.slots.iter().map(|&(_, origin)| origin).collect(),
                    data: slab.into(),
                })
            })
        })
    }
}

impl ChunkSource for TracedSource<'_> {
    fn store_meta(&self) -> &StoreMeta {
        self.reader.meta()
    }

    fn chunk(&self, level: usize, block: usize) -> Result<DecodedChunk, StoreError> {
        let bytes = span("store.fetch", || {
            self.reader.fetch_chunk_bytes(level, block)
        })?;
        self.decode(level, block, &bytes)
    }

    /// Same shape as the reader's bulk path: fetch serially, decode across
    /// the rayon shim.
    fn chunks(&self, level: usize, indices: &[usize]) -> Result<Vec<DecodedChunk>, StoreError> {
        let payloads = span("store.fetch", || {
            indices
                .iter()
                .map(|&i| Ok((i, self.reader.fetch_chunk_bytes(level, i)?)))
                .collect::<Result<Vec<_>, StoreError>>()
        })?;
        let decoded: Vec<Result<DecodedChunk, StoreError>> = payloads
            .par_iter()
            .map(|(i, bytes)| self.decode(level, *i, bytes))
            .collect();
        decoded.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op_id: 1,
            name,
            start_ns,
            end_ns,
            derived: false,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        // root 0..100; a 10..40 with child c 20..30; b 50..90.
        let spans = [
            sp(1, 0, "bench.op", 0, 100),
            sp(2, 1, "store.a", 10, 40),
            sp(3, 2, "sz3.c", 20, 30),
            sp(4, 1, "store.b", 50, 90),
        ];
        let refs: Vec<&Span> = spans.iter().collect();
        let t = self_times(&refs);
        let ns = |path: &str| (t[path] * 1e9).round();
        assert_eq!(ns("bench.op"), 30.0);
        assert_eq!(ns("bench.op/store.a"), 20.0);
        assert_eq!(ns("bench.op/store.a/sz3.c"), 10.0);
        assert_eq!(ns("bench.op/store.b"), 40.0);
        assert_eq!((t.values().sum::<f64>() * 1e9).round(), 100.0);
        assert_eq!(layer_of("bench.op/store.a/sz3.c"), "sz3");
        assert_eq!(layer_of("store.read_all"), "store");
    }

    #[test]
    fn parallel_children_are_charged_the_wall_time_they_cover() {
        // Two workers decode side by side for 40 ns each inside a 50 ns
        // parent: they cover 40 ns of wall, not 80.
        let spans = [
            sp(1, 0, "store.read", 0, 50),
            sp(2, 1, "sz3.decompress", 5, 45),
            sp(3, 1, "sz3.decompress", 5, 45),
        ];
        let refs: Vec<&Span> = spans.iter().collect();
        let t = self_times(&refs);
        assert_eq!((t["store.read"] * 1e9).round(), 10.0);
        assert_eq!((t["store.read/sz3.decompress"] * 1e9).round(), 40.0);
    }

    #[test]
    fn derived_spans_are_charged_in_full() {
        let mut publish = sp(2, 1, "core.publish", 70, 100);
        publish.derived = true;
        let spans = [
            sp(1, 0, "bench.op", 0, 100),
            publish,
            sp(3, 1, "store.encode", 0, 60),
        ];
        let refs: Vec<&Span> = spans.iter().collect();
        let t = self_times(&refs);
        assert_eq!((t["bench.op/core.publish"] * 1e9).round(), 30.0);
        assert_eq!((t["bench.op/store.encode"] * 1e9).round(), 60.0);
        assert_eq!((t["bench.op"] * 1e9).round(), 10.0);
    }
}
