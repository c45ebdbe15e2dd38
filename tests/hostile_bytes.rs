//! One driver over every parser of outside bytes.
//!
//! The products of the workflow are files and frames somebody else reads
//! later, so every reader must answer hostile bytes with a typed error or
//! the right data — never a panic, and never an allocation out of proportion
//! to its input. This suite sweeps the committed fixtures (the MRC streams
//! under `tests/golden/`, the HQST / HQPR / HQTM files under
//! `tests/golden/store/`, the wire frames under `crates/net/tests/golden/`)
//! through `decompress_mr`, all four `Codec::decompress`,
//! `StoreReader::from_bytes` + `read_all`, `TemporalManifest::from_bytes`,
//! `ParitySidecar::from_bytes` and `Request::decode` / `NetResponse::decode`:
//!
//! * every truncation prefix (strided on the large files);
//! * fixed-seed byte mutations, with the enclosing section / table / frame
//!   CRC re-stamped, so the mutation reaches the parser *behind* the CRC the
//!   way a crafted file would — a CRC is integrity, not authentication.
//!
//! Each case runs under `catch_unwind` with this binary's counting allocator
//! holding it to [`HEAP_CAP`]. The crafted inputs that used to abort or
//! panic — four codec and container streams, and a store whose progressive
//! walk aborted — are pinned by name at the bottom, followed by codec
//! streams that are structurally valid but for one hostile head value.

use hqmr::codec::{crc32, tag, write_uvarint, CodecError, Container, ContainerError, Cur};
use hqmr::grid::Dims3;
use hqmr::mr::Upsample;
use hqmr::net::proto::{read_frame, read_hello, Kind, NetResponse, Request};
use hqmr::store::format::StoreMeta;
use hqmr::store::format::{self, parse_head};
use hqmr::store::temporal::TemporalManifest;
use hqmr::store::{codec_for_id, ParitySidecar, StoreError, StoreReader};
use hqmr::workflow::mrc::decompress_mr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

/// Peak heap one case may add on top of its input. The largest fixture
/// decodes to 32³ cells (128 KiB) and readers hold a few copies of that: the
/// sweep peaks near 0.5 MiB.
const HEAP_CAP: usize = 2 << 20;
/// A single request above this is answered with null, the way a machine
/// that has run out would: a regression must fail this suite, not take the
/// shared machine with it.
const REFUSE: usize = 1 << 30;
const SEED: u64 = 0x22_C0_FF_EE;
/// Mutated variants per fixture.
const MUTATIONS: usize = 64;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own arguments
// (or refuses with null, which `GlobalAlloc` permits) and only adds counter
// updates, so `System`'s guarantees carry over unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        if l.size() > REFUSE {
            return std::ptr::null_mut();
        }
        let p = System.alloc(l);
        if !p.is_null() {
            grew(l.size());
        }
        p
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        if l.size() > REFUSE {
            return std::ptr::null_mut();
        }
        let p = System.alloc_zeroed(l);
        if !p.is_null() {
            grew(l.size());
        }
        p
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        LIVE.fetch_sub(l.size(), Relaxed);
        System.dealloc(p, l);
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        if new_size > REFUSE {
            return std::ptr::null_mut();
        }
        let q = System.realloc(p, l, new_size);
        if !q.is_null() {
            LIVE.fetch_sub(l.size(), Relaxed);
            grew(new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The counters are process-wide, so cases run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Runs one case: no panic, and at most [`HEAP_CAP`] above where it started.
fn case(what: &dyn Fn() -> String, parse: impl FnOnce()) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let outcome = catch_unwind(AssertUnwindSafe(parse));
    let peak = PEAK.load(Relaxed).saturating_sub(base);
    assert!(outcome.is_ok(), "{}: panicked", what());
    assert!(
        peak <= HEAP_CAP,
        "{}: peak heap {peak} B over the {HEAP_CAP} B cap",
        what()
    );
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Files under `dir` (recursively) with extension `ext`, sorted.
fn fixtures(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(d) = dirs.pop() {
        for entry in std::fs::read_dir(&d).expect("fixture directory") {
            let path = entry.expect("fixture entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == ext) {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Every prefix length of a short input; ~128 evenly strided ones (and the
/// last) of a long one.
fn cuts(len: usize) -> Vec<usize> {
    if len <= 1024 {
        return (0..len).collect();
    }
    let mut cuts: Vec<usize> = (0..len).step_by(len / 128).collect();
    cuts.push(len - 1);
    cuts
}

/// Overwrites one byte with a value picked to hurt: varint continuation
/// bits, all-ones, zero, a flipped bit, or noise.
fn mutate_plain(bytes: &mut [u8], rng: &mut StdRng) {
    if bytes.is_empty() {
        return;
    }
    let at = rng.gen_range(0..bytes.len());
    bytes[at] = match rng.gen_range(0..6) {
        0 => 0xFF,
        1 => 0x80,
        2 => 0x7F,
        3 => 0x00,
        4 => bytes[at] ^ (1 << rng.gen_range(0..8)),
        _ => rng.gen_range(0..=255u8),
    };
}

/// The sections of an `HQMR` container, their CRCs dropped.
fn sections(bytes: &[u8]) -> Option<Vec<(u32, Vec<u8>)>> {
    let mut c = Cur::new(bytes);
    if c.take(4).ok()? != b"HQMR" {
        return None;
    }
    c.u8().ok()?;
    let n = c.count(3).ok()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = c.uvarint().ok()? as u32;
        let len = c.usize().ok()?;
        c.uvarint().ok()?;
        out.push((tag, c.take(len).ok()?.to_vec()));
    }
    Some(out)
}

/// Serializes sections back into a container, every CRC fresh.
fn rebuild(sections: Vec<(u32, Vec<u8>)>) -> Vec<u8> {
    let mut c = Container::new();
    for (tag, data) in sections {
        c.push(tag, data);
    }
    c.to_bytes()
}

/// Mutates one byte inside one section of a container — descending into
/// sections that are containers themselves (an MRC stream holds codec
/// streams) — and re-stamps every CRC on the way back out.
fn mutate_behind_crcs(bytes: &[u8], rng: &mut StdRng) -> Vec<u8> {
    match sections(bytes) {
        Some(mut s) if !s.is_empty() => {
            let i = rng.gen_range(0..s.len());
            s[i].1 = mutate_behind_crcs(&s[i].1, rng);
            rebuild(s)
        }
        _ => {
            let mut out = bytes.to_vec();
            mutate_plain(&mut out, rng);
            out
        }
    }
}

/// Re-stamps the CRC of a `magic | version | len | crc | body` head.
fn restamp_framed(bytes: &mut [u8]) {
    let len = u32::from_le_bytes(bytes[5..9].try_into().unwrap()) as usize;
    let crc = crc32(&bytes[13..13 + len]);
    bytes[9..13].copy_from_slice(&crc.to_le_bytes());
}

/// Mutates a framed file (HQTM, HQPR): a body byte with the CRC re-stamped,
/// or — one time in four — any byte as it is.
fn mutate_framed(bytes: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let len = u32::from_le_bytes(bytes[5..9].try_into().unwrap()) as usize;
    if rng.gen_range(0..4) == 0 {
        mutate_plain(&mut out, rng);
    } else {
        mutate_plain(&mut out[13..13 + len], rng);
        restamp_framed(&mut out);
    }
    out
}

/// Mutates a store file: a directory byte with the table CRC re-stamped, or
/// a chunk payload mutated behind its section CRCs, appended to the data
/// region and given a directory entry that vouches for it.
fn mutate_store(bytes: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let (mut meta, data_start) = parse_head(bytes).expect("fixture head");
    let data_start = data_start as usize;
    if rng.gen_range(0..3) == 0 {
        let mut out = bytes.to_vec();
        mutate_plain(&mut out[format::PREFIX_LEN..data_start], rng);
        restamp_framed(&mut out);
        return out;
    }
    let mut data = bytes[data_start..].to_vec();
    let level = rng.gen_range(0..meta.levels.len());
    let block = rng.gen_range(0..meta.levels[level].chunks.len());
    let chunk = &mut meta.levels[level].chunks[block];
    let payload = mutate_behind_crcs(&data[chunk.offset as usize..][..chunk.len], rng);
    chunk.offset = data.len() as u64;
    chunk.len = payload.len();
    chunk.crc = crc32(&payload);
    data.extend_from_slice(&payload);
    format::frame(&meta, &data)
}

/// Sweeps one fixture: the intact bytes must parse, then every cut and
/// [`MUTATIONS`] mutated variants go through `parse` under [`case`].
fn sweep(
    name: &str,
    bytes: &[u8],
    rng: &mut StdRng,
    mutate: impl Fn(&[u8], &mut StdRng) -> Vec<u8>,
    parse: impl Fn(&[u8]) -> bool,
) {
    let mut intact = false;
    case(&|| format!("{name} intact"), || intact = parse(bytes));
    assert!(intact, "{name}: the committed fixture must parse");
    for cut in cuts(bytes.len()) {
        case(&|| format!("{name} cut at {cut}"), || {
            assert!(!parse(&bytes[..cut]), "{name}: a prefix parsed");
        });
    }
    for i in 0..MUTATIONS {
        let bad = mutate(bytes, rng);
        case(&|| format!("{name} mutation {i}"), || {
            parse(&bad);
        });
    }
}

fn read(path: &Path) -> (String, Vec<u8>) {
    let name = path.strip_prefix(root()).unwrap().display().to_string();
    (name, std::fs::read(path).expect("fixture"))
}

#[test]
fn mrc_and_codec_streams_survive_truncation_and_mutation() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(SEED);
    let files = fixtures(&root().join("tests/golden"), "bin");
    assert_eq!(files.len(), 16);
    for path in files.iter().filter(|p| p.parent() == files[0].parent()) {
        let (name, bytes) = read(path);
        sweep(&name, &bytes, &mut rng, mutate_behind_crcs, |b| {
            decompress_mr(b).is_ok()
        });
        // The codec streams inside, each through its own backend: the first
        // and the largest of the file.
        let parts = sections(&bytes).expect("fixture container");
        let id = parts.iter().find(|(t, _)| *t == tag(b"CDID")).unwrap();
        let id = u32::from_le_bytes(id.1[..].try_into().unwrap());
        let codec = codec_for_id(id).expect("registered codec");
        let streams: Vec<&Vec<u8>> = (parts.iter().filter(|(t, _)| *t == id))
            .map(|(_, d)| d)
            .collect();
        let largest = streams.iter().max_by_key(|s| s.len()).unwrap();
        for (which, stream) in [("first", streams[0]), ("largest", largest)] {
            let name = format!("{name} {which} {} stream", codec.name());
            sweep(&name, stream, &mut rng, mutate_behind_crcs, |b| {
                codec.decompress(b).is_ok()
            });
        }
    }
}

#[test]
fn store_files_survive_truncation_and_mutation() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(SEED ^ 1);
    let dir = root().join("tests/golden/store");
    let (stores, sidecars, manifests) = (
        fixtures(&dir, "hqst"),
        fixtures(&dir, "hqpr"),
        fixtures(&dir, "hqtm"),
    );
    assert_eq!(stores.len() + sidecars.len() + manifests.len(), 35);
    for path in &stores {
        let (name, bytes) = read(path);
        sweep(&name, &bytes, &mut rng, mutate_store, |b| {
            StoreReader::from_bytes(b.to_vec())
                .and_then(|r| r.read_all())
                .is_ok()
        });
    }
    for path in &sidecars {
        let (name, bytes) = read(path);
        sweep(&name, &bytes, &mut rng, mutate_framed, |b| {
            ParitySidecar::from_bytes(b).is_ok()
        });
    }
    for path in &manifests {
        let (name, bytes) = read(path);
        sweep(&name, &bytes, &mut rng, mutate_framed, |b| {
            TemporalManifest::from_bytes(b).is_ok()
        });
    }
}

#[test]
fn wire_frames_survive_truncation_and_mutation() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(SEED ^ 2);
    let files = fixtures(&root().join("crates/net/tests/golden"), "bin");
    assert_eq!(files.len(), 12);
    let plain = |b: &[u8], rng: &mut StdRng| {
        let mut out = b.to_vec();
        mutate_plain(&mut out, rng);
        out
    };
    for path in &files {
        let (name, bytes) = read(path);
        if name.ends_with("hello_v3.bin") {
            sweep(&name, &bytes, &mut rng, plain, |b| {
                read_hello(&mut &b[..]).is_ok()
            });
            continue;
        }
        // The whole frame through the frame reader, then the body — what
        // sits behind the frame CRC — straight through the decoders: under
        // its own kind, and under every kind of the other direction.
        sweep(&name, &bytes, &mut rng, plain, |b| {
            read_frame(&mut &b[..], 1 << 20).is_ok()
        });
        let (header, body) = read_frame(&mut &bytes[..], 1 << 20).expect("fixture frame");
        let request = REQUEST_KINDS.contains(&header.kind);
        sweep(&format!("{name} body"), &body, &mut rng, plain, |b| {
            if request {
                for kind in RESPONSE_KINDS {
                    let _ = NetResponse::decode(kind, b);
                }
                Request::decode(header.kind, b).is_ok()
            } else {
                for kind in REQUEST_KINDS {
                    let _ = Request::decode(kind, b);
                }
                NetResponse::decode(header.kind, b).is_ok()
            }
        });
    }
}

const REQUEST_KINDS: [Kind; 5] = [
    Kind::List,
    Kind::Batch,
    Kind::Progressive,
    Kind::Stats,
    Kind::BatchDegraded,
];
const RESPONSE_KINDS: [Kind; 6] = [
    Kind::RDatasets,
    Kind::RBatch,
    Kind::RProgressive,
    Kind::RStats,
    Kind::RBatchDegraded,
    Kind::RError,
];

/// A codec stream of the committed fixtures — the first inside
/// `tests/golden/<file>` — as its sections.
fn fixture_stream(file: &str, id: &[u8; 4]) -> Vec<(u32, Vec<u8>)> {
    let bytes = std::fs::read(root().join("tests/golden").join(file)).expect("fixture");
    let parts = sections(&bytes).expect("fixture container");
    let stream = parts.iter().find(|(t, _)| *t == tag(id)).expect("stream");
    sections(&stream.1).expect("codec stream")
}

fn section<'a>(parts: &'a mut [(u32, Vec<u8>)], name: &[u8; 4]) -> &'a mut Vec<u8> {
    let part = parts.iter_mut().find(|(t, _)| *t == tag(name));
    &mut part.expect("section").1
}

/// `head` with its three leading varints replaced by `dims`.
fn with_dims(head: &[u8], dims: [u64; 3]) -> Vec<u8> {
    let mut c = Cur::new(head);
    for _ in 0..3 {
        c.uvarint().expect("declared extent");
    }
    let mut out = Vec::new();
    for d in dims {
        write_uvarint(&mut out, d);
    }
    out.extend_from_slice(c.rest());
    out
}

/// The inputs that used to abort the process or panic, by name.
#[test]
fn crafted_inputs_are_typed_errors_within_the_heap_cap() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let malformed = |r: Result<_, CodecError>| matches!(r, Err(CodecError::Malformed(_)));

    // (1) Twelve bytes of run-length code asking for 16 GiB, as the `QNTC`
    // section of an otherwise intact sz3 and sz2 stream.
    let mut rle = vec![1u8];
    write_uvarint(&mut rle, 1 << 34);
    write_uvarint(&mut rle, 1 << 34);
    rle.push(0);
    assert_eq!(rle.len(), 12);
    for (file, id) in [("sz3_linear.bin", b"SZ3S"), ("sz2_linear.bin", b"SZ2S")] {
        let mut parts = fixture_stream(file, id);
        *section(&mut parts, b"QNTC") = rle.clone();
        let bad = rebuild(parts);
        let codec = codec_for_id(tag(id)).unwrap();
        case(&|| format!("{file}: 16 GiB run"), || {
            assert!(malformed(codec.decompress(&bad)));
        });
    }

    // (2) A 58-byte zfp stream declaring 1024×512×512 cells over one payload
    // byte: refused before the field is sized by the dims.
    let mut head = Vec::new();
    for d in [1024u64, 512, 512] {
        write_uvarint(&mut head, d);
    }
    head.extend_from_slice(&1e-3f64.to_le_bytes());
    let zfp = rebuild(vec![
        (tag(b"CDID"), b"ZFPS".to_vec()),
        (tag(b"ZFHD"), head),
        (tag(b"ZFBP"), vec![0]),
    ]);
    assert_eq!(zfp.len(), 58);
    let codec = codec_for_id(tag(b"ZFPS")).unwrap();
    case(&|| "zfp: 1 GiB of declared cells".into(), || {
        assert!(malformed(codec.decompress(&zfp)));
    });

    // (3) Declared extents of (2^40)³: the cell product overflows, which is
    // `Malformed` for every backend — `Dims3::len` used to panic in debug.
    for (file, id, head) in [
        ("null_linear.bin", b"RAWS", b"RWHD"),
        ("sz3_linear.bin", b"SZ3S", b"S3HD"),
        ("sz2_linear.bin", b"SZ2S", b"S2HD"),
        ("zfp_linear.bin", b"ZFPS", b"ZFHD"),
    ] {
        let mut parts = fixture_stream(file, id);
        let h = section(&mut parts, head);
        *h = with_dims(h, [1 << 40; 3]);
        let bad = rebuild(parts);
        let codec = codec_for_id(tag(id)).unwrap();
        case(&|| format!("{file}: (2^40)^3 cells"), || {
            assert!(malformed(codec.decompress(&bad)));
        });
    }

    // (4) A section length of `u64::MAX`: `pos + len` used to overflow.
    let mut bad = b"HQMR\x01\x01\x01".to_vec();
    write_uvarint(&mut bad, u64::MAX);
    bad.push(0);
    case(&|| "container: u64::MAX section".into(), || {
        let got = Container::from_bytes(&bad).map(|_| ());
        assert_eq!(got, Err(ContainerError::Truncated));
    });

    // (5) A store of no levels over a 2^20 × 2^20 × 2^10 domain: it opens
    // and reads, and `progressive` used to size its 4 PiB accumulator up
    // front and abort. Its first step is now the typed error, and the last.
    let meta = StoreMeta {
        domain: Dims3::new(1 << 20, 1 << 20, 1 << 10),
        codec_id: tag(b"SZ3S"),
        eb: 1e-3,
        levels: vec![],
    };
    let bad = format::frame(&meta, &[]);
    case(&|| "store: 4 PiB domain, no levels".into(), || {
        let r = StoreReader::from_bytes(bad.clone()).expect("opens");
        assert!(r.read_all().expect("reads").levels.is_empty());
        let mut walk = r.progressive(Upsample::Nearest);
        assert!(matches!(walk.next(), Some(Err(StoreError::Malformed(_)))));
        assert!(walk.next().is_none());
    });
}

/// `vals` as consecutive varints.
fn varints(vals: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    vals.iter().for_each(|&v| write_uvarint(&mut out, v));
    out
}

/// The three extents a codec head opens with.
fn head_dims(head: &[u8]) -> [u64; 3] {
    let mut c = Cur::new(head);
    [0; 3].map(|_| c.uvarint().expect("declared extent"))
}

/// A committed codec stream with its `head` section replaced, every CRC
/// re-stamped, through its own backend: the typed error `want`, under the
/// heap cap and without a panic.
fn refuses_head(file: &str, id: &[u8; 4], head: &[u8; 4], bytes: Vec<u8>, want: &'static str) {
    let mut parts = fixture_stream(file, id);
    *section(&mut parts, head) = bytes;
    refuses(file, id, parts, want);
}

/// [`refuses_head`] for a stream given as its sections.
fn refuses(file: &str, id: &[u8; 4], parts: Vec<(u32, Vec<u8>)>, want: &'static str) {
    let bad = rebuild(parts);
    let codec = codec_for_id(tag(id)).unwrap();
    case(&|| format!("{file}: hostile {want}"), || {
        assert_eq!(
            codec.decompress(&bad).map(drop),
            Err(CodecError::Malformed(want))
        );
    });
}

/// Structurally valid codec streams that each carry one hostile value in a
/// declared field: a tag or flag one past the last, a zero block side, a
/// non-finite or non-positive bound, extents whose product overflows or is
/// huge, an outlier count one past the body.
#[test]
fn hostile_head_values_are_typed_errors_within_the_heap_cap() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let bad_bounds = [f64::NAN, 0.0, -1.0, f64::INFINITY];
    let f64s = |vals: &[f64]| -> Vec<u8> { vals.iter().flat_map(|v| v.to_le_bytes()).collect() };

    // sz3: extents | eb | interp tag | level-eb flag [| alpha | beta].
    let (file, id) = ("sz3_linear.bin", b"SZ3S");
    let dims = head_dims(section(&mut fixture_stream(file, id), b"S3HD"));
    let sz3 = |eb: f64, interp: u8, level_eb: Option<[f64; 2]>| {
        let mut h = varints(&dims);
        h.extend(f64s(&[eb]));
        h.push(interp);
        h.push(u8::from(level_eb.is_some()));
        if let Some(policy) = level_eb {
            h.extend(f64s(&policy));
        }
        h
    };
    refuses_head(file, id, b"S3HD", sz3(1e-3, 2, None), "interp kind");
    let mut flag2 = sz3(1e-3, 0, None);
    *flag2.last_mut().unwrap() = 2;
    refuses_head(file, id, b"S3HD", flag2, "level-eb flag");
    for eb in bad_bounds {
        refuses_head(file, id, b"S3HD", sz3(eb, 0, None), "eb");
    }
    // A sane stream bound that a level's policy turns insane: a cap of 0
    // divides the finest level's bound by zero, a negative one flips it.
    for beta in [0.0, -1.0] {
        refuses_head(file, id, b"S3HD", sz3(1e-3, 1, Some([2.25, beta])), "eb");
    }

    // sz2: extents | block side | eb.
    let (file, id) = ("sz2_linear.bin", b"SZ2S");
    let dims = head_dims(section(&mut fixture_stream(file, id), b"S2HD"));
    let sz2 = |block: u64, eb: f64| {
        let mut h = varints(&dims);
        h.extend(varints(&[block]));
        h.extend(f64s(&[eb]));
        h
    };
    refuses_head(file, id, b"S2HD", sz2(0, 1e-3), "block size");
    for eb in bad_bounds {
        refuses_head(file, id, b"S2HD", sz2(4, eb), "eb");
    }

    // zfp: extents | tolerance.
    let (file, id) = ("zfp_linear.bin", b"ZFPS");
    let dims = head_dims(section(&mut fixture_stream(file, id), b"ZFHD"));
    for tol in bad_bounds {
        let mut h = varints(&dims);
        h.extend(f64s(&[tol]));
        refuses_head(file, id, b"ZFHD", h, "tol");
    }

    // Every backend: extents whose product is 2^64, one past `usize`, and
    // extents whose product of 2^63 fits but no section can back.
    for (file, id, head, huge) in [
        ("null_linear.bin", b"RAWS", b"RWHD", "length overflow"),
        ("sz3_linear.bin", b"SZ3S", b"S3HD", "code count"),
        ("sz2_linear.bin", b"SZ2S", b"S2HD", "flag count"),
        ("zfp_linear.bin", b"ZFPS", b"ZFHD", "stream underrun"),
    ] {
        for (dims, want) in [
            ([1 << 32, 1 << 32, 1], "length overflow"),
            ([1 << 21; 3], huge),
        ] {
            let mut parts = fixture_stream(file, id);
            let h = section(&mut parts, head);
            *h = with_dims(h, dims);
            refuses(file, id, parts, want);
        }
    }

    // sz3 and sz2: an `UNPR` count one past the outliers its body holds.
    for (file, id) in [("sz3_linear.bin", b"SZ3S"), ("sz2_linear.bin", b"SZ2S")] {
        let mut parts = fixture_stream(file, id);
        let unpr = section(&mut parts, b"UNPR");
        let mut c = Cur::new(unpr);
        let n = c.uvarint().expect("outlier count");
        let mut bumped = varints(&[n + 1]);
        bumped.extend_from_slice(c.rest());
        *unpr = bumped;
        refuses(file, id, parts, "count exceeds body");
    }
}
