//! Adversarial property suite for the HQNW wire protocol: random bytes,
//! truncated frames, and bit-flipped frames must always produce a typed
//! [`ProtocolError`] — never a panic, never an over-allocation — and every
//! request/response variant round-trips bit-identically. The bytes
//! themselves are pinned by the fixtures under `tests/golden/`, written by
//! the two-write, table-CRC framing this protocol version shipped with.

use hqmr_grid::{Dims3, Field3};
use hqmr_mr::{LevelData, UnitBlock, Upsample};
use hqmr_net::proto::{
    read_frame, read_frame_into, read_hello, recycle, write_frame, write_hello, Kind, NetResponse,
    ProtocolError, Request, ServerStats, HEADER_LEN, RETAINED_BUF_CAP,
};
use hqmr_net::{DatasetInfo, ErrorFrame, WireStoreError};
use hqmr_serve::{CacheStats, Query, QueryResult, Response};
use hqmr_store::RefinementStep;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::io::{IoSlice, Write};

// The offline rand shim exposes `next_u64` + `gen_range` only; these cover
// the handful of other draws this suite needs.
fn fill(rng: &mut StdRng, buf: &mut [u8]) {
    for b in buf.iter_mut() {
        *b = rng.next_u64() as u8;
    }
}

fn ru32(rng: &mut StdRng) -> u32 {
    rng.next_u64() as u32
}

fn rbool(rng: &mut StdRng) -> bool {
    rng.next_u64() & 1 == 1
}

const REQUEST_KINDS: [Kind; 5] = [
    Kind::List,
    Kind::Batch,
    Kind::BatchDegraded,
    Kind::Progressive,
    Kind::Stats,
];
const RESPONSE_KINDS: [Kind; 6] = [
    Kind::RDatasets,
    Kind::RBatch,
    Kind::RBatchDegraded,
    Kind::RProgressive,
    Kind::RStats,
    Kind::RError,
];

/// Decoding must be total: typed result out, whatever bytes go in. The
/// assertion is simply that this returns (no panic) and that `Ok` implies a
/// clean re-encode cycle.
fn decode_any(kind: Kind, body: &[u8]) {
    let round = |req: &Request| {
        let enc = req.encode();
        assert_eq!(&Request::decode(req.kind(), &enc).unwrap(), req);
    };
    match kind {
        Kind::List | Kind::Batch | Kind::BatchDegraded | Kind::Progressive | Kind::Stats => {
            if let Ok(req) = Request::decode(kind, body) {
                round(&req);
            }
        }
        _ => {
            if let Ok(resp) = NetResponse::decode(kind, body) {
                let enc = resp.encode();
                assert_eq!(NetResponse::decode(resp.kind(), &enc).unwrap(), resp);
            }
        }
    }
}

#[test]
fn random_bodies_never_panic() {
    let mut rng = StdRng::seed_from_u64(0x4e45_5457);
    for case in 0..4000 {
        let len = rng.gen_range(0usize..256);
        let mut body = vec![0u8; len];
        fill(&mut rng, &mut body);
        for kind in REQUEST_KINDS.into_iter().chain(RESPONSE_KINDS) {
            decode_any(kind, &body);
        }
        // Also feed the raw bytes to the frame reader itself.
        let _ = read_frame(&mut body.as_slice(), 1 << 16);
        let _ = read_hello(&mut body.as_slice());
        if case % 1000 == 0 {
            // Occasionally go bigger to cross varint/count boundaries.
            let mut big = vec![0u8; rng.gen_range(256..4096)];
            fill(&mut rng, &mut big);
            for kind in REQUEST_KINDS.into_iter().chain(RESPONSE_KINDS) {
                decode_any(kind, &big);
            }
        }
    }
}

fn sample_level(rng: &mut StdRng) -> LevelData {
    let unit = *[1usize, 2, 4].get(rng.gen_range(0..3)).unwrap();
    let blocks = (0..rng.gen_range(0..4))
        .map(|i| UnitBlock {
            origin: [i * unit, 0, rng.gen_range(0..8)],
            data: (0..unit.pow(3)).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        })
        .collect();
    LevelData {
        level: rng.gen_range(0..4),
        unit,
        dims: Dims3::new(8, 8, 8),
        blocks,
    }
}

fn sample_field(rng: &mut StdRng) -> Field3 {
    let dims = Dims3::new(
        rng.gen_range(1..5),
        rng.gen_range(1..5),
        rng.gen_range(1..5),
    );
    Field3::from_fn(dims, |_, _, _| rng.gen_range(-10.0..10.0))
}

fn sample_queries(rng: &mut StdRng) -> Vec<Query> {
    (0..rng.gen_range(0..6))
        .map(|_| match rng.gen_range(0..3) {
            0 => Query::Level {
                level: rng.gen_range(0..8),
            },
            1 => {
                let lo = [
                    rng.gen_range(0..4),
                    rng.gen_range(0..4),
                    rng.gen_range(0..4),
                ];
                Query::Roi {
                    level: rng.gen_range(0..8),
                    lo,
                    hi: [lo[0] + rng.gen_range(1..9), lo[1] + 1, lo[2] + 3],
                    fill: rng.gen_range(-1.0..1.0),
                }
            }
            _ => Query::Iso {
                level: rng.gen_range(0..8),
                iso: rng.gen_range(-5.0..5.0),
            },
        })
        .collect()
}

fn sample_request(rng: &mut StdRng) -> Request {
    match rng.gen_range(0..5) {
        0 => Request::List,
        1 => Request::Batch {
            dataset: ru32(rng),
            queries: sample_queries(rng),
        },
        4 => Request::BatchDegraded {
            dataset: ru32(rng),
            queries: sample_queries(rng),
        },
        2 => Request::Progressive {
            dataset: ru32(rng),
            scheme: if rbool(rng) {
                Upsample::Nearest
            } else {
                Upsample::Trilinear
            },
        },
        _ => Request::Stats {
            dataset: ru32(rng),
            take: rbool(rng),
        },
    }
}

fn sample_store_error(rng: &mut StdRng) -> WireStoreError {
    match rng.gen_range(0..12) {
        0 => WireStoreError::Io("io broke".into()),
        1 => WireStoreError::Open {
            path: "/tmp/x.hqst".into(),
            message: "denied".into(),
        },
        2 => WireStoreError::BadMagic,
        3 => WireStoreError::BadVersion(rng.next_u64() as u8),
        4 => WireStoreError::Truncated,
        5 => WireStoreError::CorruptTable,
        6 => WireStoreError::Malformed("meta".into()),
        7 => WireStoreError::UnknownCodec(ru32(rng)),
        8 => WireStoreError::CorruptChunk {
            level: rng.gen_range(0..9),
            block: rng.gen_range(0..999),
        },
        9 => WireStoreError::Codec {
            level: rng.gen_range(0..9),
            block: rng.gen_range(0..999),
            message: "huff".into(),
        },
        10 => WireStoreError::NoSuchLevel(rng.gen_range(0..99)),
        _ => WireStoreError::RoiOutOfBounds,
    }
}

fn sample_query_response(rng: &mut StdRng) -> Response {
    match rng.gen_range(0..3) {
        0 => Response::Level(sample_level(rng)),
        1 => Response::Roi(sample_field(rng)),
        _ => Response::Iso(sample_level(rng)),
    }
}

fn sample_response(rng: &mut StdRng) -> NetResponse {
    match rng.gen_range(0..6) {
        5 => NetResponse::BatchDegraded(
            (0..rng.gen_range(0..4))
                .map(|_| QueryResult {
                    response: sample_query_response(rng),
                    degraded: (0..rng.gen_range(0..4))
                        .map(|_| (rng.gen_range(0..8), rng.gen_range(0..999)))
                        .collect(),
                })
                .collect(),
        ),
        0 => NetResponse::Datasets(
            (0..rng.gen_range(0..4))
                .map(|i| DatasetInfo {
                    id: i,
                    name: format!("ds-{i}"),
                    codec_id: ru32(rng),
                    eb: rng.gen_range(1e-6..1e6),
                    domain: Dims3::new(
                        rng.gen_range(1..64),
                        rng.gen_range(1..64),
                        rng.gen_range(1..64),
                    ),
                    levels: rng.gen_range(1..5),
                    chunks: rng.gen_range(1..999),
                    compressed_bytes: rng.next_u64(),
                })
                .collect(),
        ),
        1 => NetResponse::Batch(
            (0..rng.gen_range(0..4))
                .map(|_| sample_query_response(rng))
                .collect(),
        ),
        2 => NetResponse::Progressive(
            (0..rng.gen_range(0..4))
                .map(|l| RefinementStep {
                    level: l,
                    field: sample_field(rng),
                })
                .collect(),
        ),
        3 => {
            let (hits, shared, misses) = (
                rng.gen_range(0..1000),
                rng.gen_range(0..10),
                rng.gen_range(0..1000),
            );
            NetResponse::Stats(ServerStats {
                cache: CacheStats {
                    requests: hits + shared + misses, // keep the identity plausible
                    hits,
                    shared,
                    misses,
                    evictions: rng.next_u64(),
                    resident_bytes: rng.next_u64(),
                    peak_resident_bytes: rng.next_u64(),
                    budget_bytes: rng.next_u64(),
                    repairs: rng.gen_range(0..100),
                    repair_failures: rng.gen_range(0..100),
                },
                busy_rejections: rng.next_u64(),
                admission_rejections: rng.next_u64(),
                deadline_rejections: rng.next_u64(),
                scrub_passes: rng.gen_range(0..1000),
                scrub_verified: rng.next_u64(),
                scrub_repaired: rng.gen_range(0..1000),
                scrub_unrepairable: rng.gen_range(0..1000),
            })
        }
        _ => NetResponse::Error(match rng.gen_range(0..6) {
            0 => ErrorFrame::Busy,
            1 => ErrorFrame::TooManyConnections,
            2 => ErrorFrame::NoSuchDataset(ru32(rng)),
            3 => ErrorFrame::BadRequest("q".into()),
            4 => ErrorFrame::DeadlineExceeded,
            _ => ErrorFrame::Store(sample_store_error(rng)),
        }),
    }
}

/// Round-trip: randomized instances of every variant survive
/// encode→frame→read_frame→decode bit-identically, and the in-place frame
/// builder emits the same bytes as framing a separately encoded body.
#[test]
fn every_variant_roundtrips_through_frames() {
    let mut rng = StdRng::seed_from_u64(0xf4a3);
    let mut frame = vec![0xAA; 99]; // stale contents must not leak into a frame
    for i in 0..400 {
        let req = sample_request(&mut rng);
        let mut wire = Vec::new();
        write_frame(&mut wire, req.kind(), i, &req.encode()).unwrap();
        req.encode_into(i, &mut frame);
        assert_eq!(frame, wire);
        let (h, body) = read_frame(&mut wire.as_slice(), 1 << 24).unwrap();
        assert_eq!((h.kind, h.req_id), (req.kind(), i));
        assert_eq!(Request::decode(h.kind, &body).unwrap(), req);

        let resp = sample_response(&mut rng);
        let mut wire = Vec::new();
        write_frame(&mut wire, resp.kind(), i, &resp.encode()).unwrap();
        resp.encode_into(i, &mut frame);
        assert_eq!(frame, wire);
        let (h, body) = read_frame(&mut wire.as_slice(), 1 << 24).unwrap();
        assert_eq!(NetResponse::decode(h.kind, &body).unwrap(), resp);
    }
}

fn golden_list() -> NetResponse {
    NetResponse::Datasets(vec![
        DatasetInfo {
            id: 3,
            name: "nyx-t1".into(),
            codec_id: 0x53_5A_33_53,
            eb: 1e-3,
            domain: Dims3::new(64, 64, 64),
            levels: 3,
            chunks: 17,
            compressed_bytes: 123_456,
        },
        DatasetInfo {
            id: 300,
            name: "warpx-Ez".into(),
            codec_id: 0x5A_46_50_31,
            eb: 2.5e-2,
            domain: Dims3::new(128, 128, 1024),
            levels: 2,
            chunks: 4096,
            compressed_bytes: 1 << 33,
        },
    ])
}

fn golden_batch() -> NetResponse {
    let roi = Field3::from_fn(Dims3::new(3, 2, 4), |x, y, z| {
        (x + 10 * y + 100 * z) as f32 + 0.5
    });
    NetResponse::Batch(vec![Response::Roi(roi)])
}

fn golden_level() -> LevelData {
    LevelData {
        level: 1,
        unit: 2,
        dims: Dims3::new(4, 4, 200),
        blocks: vec![
            UnitBlock {
                origin: [0, 0, 0],
                data: (0..8).map(|i| i as f32 - 3.5).collect(),
            },
            UnitBlock {
                origin: [2, 2, 130],
                data: vec![f32::MIN_POSITIVE; 8],
            },
        ],
    }
}

/// Every query shape, with varints of one and two bytes.
fn golden_queries() -> Vec<Query> {
    vec![
        Query::Level { level: 1 },
        Query::Roi {
            level: 0,
            lo: [0, 8, 16],
            hi: [8, 16, 300],
            fill: -1.0,
        },
        Query::Iso {
            level: 2,
            iso: 0.25,
        },
    ]
}

/// One committed frame per request kind and per response shape the two
/// first fixtures do not cover: `(file, message, req_id)`.
fn golden_frames() -> Vec<(&'static str, Result<Request, NetResponse>, u64)> {
    let field = Field3::from_fn(Dims3::new(2, 3, 2), |x, y, z| (x * 100 + y * 10 + z) as f32);
    let stats = ServerStats {
        cache: CacheStats {
            requests: 1,
            hits: 2,
            shared: 3,
            misses: 4,
            evictions: 5,
            resident_bytes: 6 << 20,
            peak_resident_bytes: 7 << 30,
            budget_bytes: u64::MAX,
            repairs: 9,
            repair_failures: 10,
        },
        busy_rejections: 11,
        admission_rejections: 12,
        deadline_rejections: 13,
        scrub_passes: 14,
        scrub_verified: 1 << 40,
        scrub_repaired: 16,
        scrub_unrepairable: 17,
    };
    vec![
        ("list_request.bin", Ok(Request::List), 1),
        (
            "batch_request.bin",
            Ok(Request::Batch {
                dataset: 3,
                queries: golden_queries(),
            }),
            2,
        ),
        (
            "progressive_request.bin",
            Ok(Request::Progressive {
                dataset: 300,
                scheme: Upsample::Trilinear,
            }),
            3,
        ),
        (
            "stats_request.bin",
            Ok(Request::Stats {
                dataset: 3,
                take: true,
            }),
            4,
        ),
        (
            "batch_degraded_request.bin",
            Ok(Request::BatchDegraded {
                dataset: 0x0102_0304,
                queries: golden_queries(),
            }),
            u64::MAX,
        ),
        (
            "batch_level_iso_response.bin",
            Err(NetResponse::Batch(vec![
                Response::Level(golden_level()),
                Response::Iso(golden_level()),
            ])),
            6,
        ),
        (
            "progressive_response.bin",
            Err(NetResponse::Progressive(vec![
                RefinementStep {
                    level: 1,
                    field: field.clone(),
                },
                RefinementStep { level: 0, field },
            ])),
            7,
        ),
        ("stats_response.bin", Err(NetResponse::Stats(stats)), 8),
        (
            "batch_degraded_response.bin",
            Err(NetResponse::BatchDegraded(vec![
                QueryResult {
                    response: Response::Level(golden_level()),
                    degraded: vec![(0, 3), (1, 200)],
                },
                QueryResult {
                    response: Response::Roi(Field3::from_fn(Dims3::new(1, 2, 1), |_, y, _| {
                        y as f32
                    })),
                    degraded: vec![],
                },
            ])),
            9,
        ),
    ]
}

/// The same message's frame from both frame writers.
fn frames_of(msg: &Result<Request, NetResponse>, req_id: u64) -> [Vec<u8>; 2] {
    let mut frame = Vec::new();
    let mut wire = Vec::new();
    match msg {
        Ok(req) => {
            req.encode_into(req_id, &mut frame);
            write_frame(&mut wire, req.kind(), req_id, &req.encode()).unwrap();
        }
        Err(resp) => {
            resp.encode_into(req_id, &mut frame);
            write_frame(&mut wire, resp.kind(), req_id, &resp.encode()).unwrap();
        }
    }
    [frame, wire]
}

/// A level answer with one block of unit 1.
fn tiny_level() -> LevelData {
    LevelData {
        level: 1,
        unit: 1,
        dims: Dims3::new(2, 1, 1),
        blocks: vec![UnitBlock {
            origin: [1, 0, 0],
            data: vec![2.0],
        }],
    }
}

fn store_error(e: WireStoreError) -> NetResponse {
    NetResponse::Error(ErrorFrame::Store(e))
}

/// Wire v3, byte for byte: the committed hello and frames are reproduced
/// exactly by both frame writers, and parse back to the values they encode.
#[test]
fn golden_wire_bytes_are_reproduced_exactly() {
    let hello: &[u8] = include_bytes!("golden/hello_v3.bin");
    let mut out = Vec::new();
    write_hello(&mut out).unwrap();
    assert_eq!(out, hello);
    read_hello(&mut &hello[..]).unwrap();

    let cases: [(&[u8], NetResponse, u64); 2] = [
        (include_bytes!("golden/list_response.bin"), golden_list(), 7),
        (
            include_bytes!("golden/batch_roi_response.bin"),
            golden_batch(),
            0x0102_0304_0506_0708,
        ),
    ];
    for (golden, resp, req_id) in cases {
        let mut frame = Vec::new();
        resp.encode_into(req_id, &mut frame);
        assert_eq!(frame, golden, "encode_into, kind {:?}", resp.kind());
        let mut wire = Vec::new();
        write_frame(&mut wire, resp.kind(), req_id, &resp.encode()).unwrap();
        assert_eq!(wire, golden, "write_frame, kind {:?}", resp.kind());
        let (h, body) = read_frame(&mut &golden[..], 1 << 20).unwrap();
        assert_eq!((h.kind, h.req_id), (resp.kind(), req_id));
        assert_eq!(NetResponse::decode(h.kind, &body).unwrap(), resp);
    }

    for (file, msg, req_id) in golden_frames() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
        let golden = std::fs::read(path.join(file)).expect("committed frame");
        for built in frames_of(&msg, req_id) {
            assert_eq!(built, golden, "{file}");
        }
        let (h, body) = read_frame(&mut &golden[..], 1 << 20).unwrap();
        assert_eq!(h.req_id, req_id, "{file}");
        match &msg {
            Ok(req) => assert_eq!(&Request::decode(h.kind, &body).unwrap(), req, "{file}"),
            Err(resp) => assert_eq!(&NetResponse::decode(h.kind, &body).unwrap(), resp, "{file}"),
        }
    }

    // Every single-tag body: each query, response and upsample tag, both
    // `take` values, every error tag and every store-error tag.
    let requests: [(Request, &[u8]); 7] = [
        (
            Request::Batch {
                dataset: 7,
                queries: vec![Query::Level { level: 300 }],
            },
            &[0x07, 0x00, 0x00, 0x00, 0x01, 0x00, 0xac, 0x02],
        ),
        (
            Request::Batch {
                dataset: 7,
                queries: vec![Query::Roi {
                    level: 1,
                    lo: [1, 2, 3],
                    hi: [4, 5, 130],
                    fill: -0.5,
                }],
            },
            &[
                0x07, 0x00, 0x00, 0x00, 0x01, 0x01, 0x01, 0x01, 0x02, 0x03, 0x04, 0x05, 0x82, 0x01,
                0x00, 0x00, 0x00, 0xbf,
            ],
        ),
        (
            Request::Batch {
                dataset: 7,
                queries: vec![Query::Iso { level: 2, iso: 1.5 }],
            },
            &[
                0x07, 0x00, 0x00, 0x00, 0x01, 0x02, 0x02, 0x00, 0x00, 0xc0, 0x3f,
            ],
        ),
        (
            Request::Progressive {
                dataset: 9,
                scheme: Upsample::Nearest,
            },
            &[0x09, 0x00, 0x00, 0x00, 0x00],
        ),
        (
            Request::Progressive {
                dataset: 9,
                scheme: Upsample::Trilinear,
            },
            &[0x09, 0x00, 0x00, 0x00, 0x01],
        ),
        (
            Request::Stats {
                dataset: 9,
                take: false,
            },
            &[0x09, 0x00, 0x00, 0x00, 0x00],
        ),
        (
            Request::Stats {
                dataset: 9,
                take: true,
            },
            &[0x09, 0x00, 0x00, 0x00, 0x01],
        ),
    ];
    for (req, bytes) in requests {
        assert_eq!(req.encode(), bytes, "{req:?}");
        assert_eq!(Request::decode(req.kind(), bytes).unwrap(), req);
    }
    let responses: [(NetResponse, &[u8]); 20] = [
        (
            NetResponse::Batch(vec![Response::Level(tiny_level())]),
            &[
                0x01, 0x00, 0x01, 0x01, 0x02, 0x01, 0x01, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
                0x40,
            ],
        ),
        (
            NetResponse::Batch(vec![Response::Roi(Field3::from_vec(
                Dims3::new(1, 1, 2),
                vec![1.0, -1.0],
            ))]),
            &[
                0x01, 0x01, 0x01, 0x01, 0x02, 0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x80, 0xbf,
            ],
        ),
        (
            NetResponse::Batch(vec![Response::Iso(tiny_level())]),
            &[
                0x01, 0x02, 0x01, 0x01, 0x02, 0x01, 0x01, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
                0x40,
            ],
        ),
        (NetResponse::Error(ErrorFrame::Busy), &[0x00]),
        (NetResponse::Error(ErrorFrame::TooManyConnections), &[0x01]),
        (
            NetResponse::Error(ErrorFrame::NoSuchDataset(258)),
            &[0x02, 0x02, 0x01, 0x00, 0x00],
        ),
        (
            NetResponse::Error(ErrorFrame::BadRequest("no".into())),
            &[0x03, 0x02, 0x6e, 0x6f],
        ),
        (NetResponse::Error(ErrorFrame::DeadlineExceeded), &[0x05]),
        (
            store_error(WireStoreError::Io("io".into())),
            &[0x04, 0x00, 0x02, 0x69, 0x6f],
        ),
        (
            store_error(WireStoreError::Open {
                path: "p".into(),
                message: "m".into(),
            }),
            &[0x04, 0x01, 0x01, 0x70, 0x01, 0x6d],
        ),
        (store_error(WireStoreError::BadMagic), &[0x04, 0x02]),
        (
            store_error(WireStoreError::BadVersion(9)),
            &[0x04, 0x03, 0x09],
        ),
        (store_error(WireStoreError::Truncated), &[0x04, 0x04]),
        (store_error(WireStoreError::CorruptTable), &[0x04, 0x05]),
        (
            store_error(WireStoreError::Malformed("x".into())),
            &[0x04, 0x06, 0x01, 0x78],
        ),
        (
            store_error(WireStoreError::UnknownCodec(0x5A46_5031)),
            &[0x04, 0x07, 0x31, 0x50, 0x46, 0x5a],
        ),
        (
            store_error(WireStoreError::CorruptChunk {
                level: 1,
                block: 128,
            }),
            &[0x04, 0x08, 0x01, 0x80, 0x01],
        ),
        (
            store_error(WireStoreError::Codec {
                level: 2,
                block: 3,
                message: "c".into(),
            }),
            &[0x04, 0x09, 0x02, 0x03, 0x01, 0x63],
        ),
        (
            store_error(WireStoreError::NoSuchLevel(4)),
            &[0x04, 0x0a, 0x04],
        ),
        (store_error(WireStoreError::RoiOutOfBounds), &[0x04, 0x0b]),
    ];
    for (resp, bytes) in responses {
        assert_eq!(resp.encode(), bytes, "{resp:?}");
        assert_eq!(NetResponse::decode(resp.kind(), bytes).unwrap(), resp);
    }
}

/// A sink that takes between 1 and `most` bytes per call — the short-write
/// shape of the chaos layer's `partial:` fault, without the hangup.
struct Trickle {
    taken: Vec<u8>,
    rng: StdRng,
    most: usize,
}

impl Write for Trickle {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.rng.gen_range(1..self.most + 1));
        self.taken.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// However little the sink accepts per call, `write_frame` delivers the
/// whole frame, in order, exactly once.
#[test]
fn short_writes_still_deliver_the_whole_frame() {
    let mut rng = StdRng::seed_from_u64(0x5407);
    for most in [1, 2, 7, HEADER_LEN - 1, HEADER_LEN, HEADER_LEN + 1, 64] {
        for _ in 0..20 {
            let resp = sample_response(&mut rng);
            let body = resp.encode();
            let mut whole = Vec::new();
            write_frame(&mut whole, resp.kind(), 5, &body).unwrap();
            let mut sink = Trickle {
                taken: Vec::new(),
                rng: StdRng::seed_from_u64(most as u64),
                most,
            };
            write_frame(&mut sink, resp.kind(), 5, &body).unwrap();
            assert_eq!(sink.taken, whole, "at most {most} bytes per write");
        }
    }
    // An empty body (List) has only the header to deliver.
    let mut sink = Trickle {
        taken: Vec::new(),
        rng: StdRng::seed_from_u64(1),
        most: 3,
    };
    write_frame(&mut sink, Kind::List, 1, &[]).unwrap();
    assert_eq!(sink.taken.len(), HEADER_LEN);
}

/// A sink that takes everything it is offered — like a socket with room —
/// and counts how many times it was called.
#[derive(Default)]
struct Counting {
    taken: Vec<u8>,
    calls: usize,
}

impl Write for Counting {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.calls += 1;
        self.taken.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        self.calls += 1;
        bufs.iter().for_each(|b| self.taken.extend_from_slice(b));
        Ok(bufs.iter().map(|b| b.len()).sum())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One frame, one hand-off: header and body reach a willing sink in a
/// single call on both write paths — never a 17-byte header on its own.
#[test]
fn a_frame_reaches_the_sink_in_one_write() {
    let resp = golden_batch();
    let mut sink = Counting::default();
    write_frame(&mut sink, resp.kind(), 9, &resp.encode()).unwrap();
    assert_eq!(sink.calls, 1, "write_frame");

    // What a connection does: build in place, then one `write_all`.
    let mut frame = Vec::new();
    resp.encode_into(9, &mut frame);
    let mut direct = Counting::default();
    direct.write_all(&frame).unwrap();
    assert_eq!(direct.calls, 1, "encode_into + write_all");
    assert_eq!(direct.taken, sink.taken);
}

/// A reused read buffer holds exactly the current frame's body, also after
/// a longer one; `recycle` keeps ordinary buffers and drops oversized ones.
#[test]
fn reused_read_buffer_returns_the_right_body() {
    let long = NetResponse::Error(ErrorFrame::BadRequest("x".repeat(5000)));
    let short = NetResponse::Error(ErrorFrame::NoSuchDataset(9));
    let mut wire = Vec::new();
    for (i, resp) in [&long, &short, &long].into_iter().enumerate() {
        write_frame(&mut wire, resp.kind(), i as u64, &resp.encode()).unwrap();
    }
    let mut stream = wire.as_slice();
    let mut body = Vec::new();
    for (i, resp) in [&long, &short, &long].into_iter().enumerate() {
        let h = read_frame_into(&mut stream, 1 << 20, &mut body).unwrap();
        assert_eq!((h.kind, h.req_id), (Kind::RError, i as u64));
        assert_eq!(body, resp.encode());
        recycle(&mut body);
        assert!(body.capacity() >= 5000, "an ordinary buffer is kept");
    }
    assert!(stream.is_empty());

    let mut huge = Vec::with_capacity(RETAINED_BUF_CAP + 1);
    recycle(&mut huge);
    assert_eq!(huge.capacity(), 0, "an oversized buffer is released");
}

/// Every proper prefix of a valid frame is a typed error (Truncated via the
/// io path), and never a success.
#[test]
fn truncated_frames_are_typed() {
    let mut rng = StdRng::seed_from_u64(77);
    let req = sample_request(&mut rng);
    let mut wire = Vec::new();
    write_frame(&mut wire, req.kind(), 9, &req.encode()).unwrap();
    for cut in 0..wire.len() {
        let err = read_frame(&mut &wire[..cut], 1 << 24)
            .map(|_| ())
            .expect_err("prefix must not parse");
        assert!(
            matches!(err, ProtocolError::Truncated | ProtocolError::Io(_)),
            "cut at {cut}: {err}"
        );
    }
}

/// Any single bit flip anywhere in a frame — header or body — is caught
/// with a typed error. The frame CRC covers both parts, so even a kind
/// byte flipping into another *valid* kind cannot slip through.
#[test]
fn every_single_bit_flip_is_rejected_typed() {
    let mut rng = StdRng::seed_from_u64(4242);
    for _ in 0..40 {
        let resp = sample_response(&mut rng);
        let mut wire = Vec::new();
        write_frame(&mut wire, resp.kind(), 3, &resp.encode()).unwrap();
        for bit in 0..wire.len() * 8 {
            let mut bad = wire.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let err = read_frame(&mut bad.as_slice(), 1 << 24)
                .map(|_| ())
                .expect_err("flipped frame must not parse");
            assert!(
                matches!(
                    err,
                    ProtocolError::BadCrc
                        | ProtocolError::Truncated
                        | ProtocolError::Io(_)
                        | ProtocolError::UnknownKind(_)
                        | ProtocolError::FrameTooLarge { .. }
                ),
                "flip at bit {bit}: unexpected {err}"
            );
        }
    }
}

/// The frame reader refuses to allocate for bodies beyond its cap, and the
/// decoders refuse counts that exceed the actual bytes present.
#[test]
fn hostile_lengths_are_rejected_before_allocation() {
    // 4 GiB body announcement in a 21-byte message.
    let mut wire = Vec::new();
    wire.extend_from_slice(&u32::MAX.to_le_bytes());
    wire.extend_from_slice(&[0x02]); // Batch
    wire.extend_from_slice(&7u64.to_le_bytes());
    wire.extend_from_slice(&0u32.to_le_bytes());
    match read_frame(&mut wire.as_slice(), 1 << 20) {
        Err(ProtocolError::FrameTooLarge { len, max }) => {
            assert_eq!(len, u32::MAX as u64);
            assert_eq!(max, 1 << 20);
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
}
