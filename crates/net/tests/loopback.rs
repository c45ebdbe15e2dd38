//! Loopback differential suite: a real TCP round-trip through [`NetServer`]
//! must be *bit-identical* to calling the in-process `StoreServer` — for
//! every codec backend, every query shape, and progressive refinement —
//! and server-side failures must arrive as the same typed variants the
//! in-process API returns.

use hqmr_codec::{Codec, NullCodec};
use hqmr_grid::{synth, Dims3};
use hqmr_mr::{to_adaptive, LevelData, MultiResData, RoiConfig, UnitBlock, Upsample};
use hqmr_net::proto::DEFAULT_MAX_FRAME;
use hqmr_net::{
    DatasetSpec, ErrorFrame, NetClient, NetConfig, NetError, NetServer, WireStoreError,
};
use hqmr_serve::{Query, StoreServer, UNBOUNDED};
use hqmr_store::{write_store, StoreConfig, StoreReader};
use hqmr_sz2::Sz2Codec;
use hqmr_sz3::Sz3Codec;
use hqmr_zfp::ZfpCodec;
use std::sync::Arc;

/// Every registered backend, as (name, codec).
fn all_codecs() -> Vec<(&'static str, Box<dyn Codec>)> {
    vec![
        ("sz3", Box::new(Sz3Codec::default())),
        ("sz2", Box::new(Sz2Codec::MULTIRES)),
        ("zfp", Box::new(ZfpCodec)),
        ("null", Box::new(NullCodec)),
    ]
}

fn store_bytes(seed: u64, codec: &dyn Codec) -> Vec<u8> {
    store_bytes_at(16, seed, codec)
}

/// A store over a `side`³ field.
fn store_bytes_at(side: usize, seed: u64, codec: &dyn Codec) -> Vec<u8> {
    let f = synth::nyx_like(side, seed);
    let mr = to_adaptive(&f, &RoiConfig::new(8, 0.5));
    // nyx-scale values are ~1e8; eb 1e6 keeps the test fast.
    write_store(&mr, &StoreConfig::new(1e6).with_chunk_blocks(2), codec)
}

fn query_mix(dims: Dims3) -> Vec<Query> {
    vec![
        Query::Level { level: 0 },
        Query::Level { level: 1 },
        Query::Roi {
            level: 0,
            lo: [1, 2, 0],
            hi: [dims.nx - 1, dims.ny / 2 + 2, dims.nz],
            fill: -3.0,
        },
        Query::Roi {
            level: 1,
            lo: [0, 0, 0],
            hi: [dims.nx / 2, dims.ny / 2, dims.nz / 2],
            fill: 0.0,
        },
        Query::Iso { level: 0, iso: 5e7 },
        Query::Iso { level: 1, iso: 1e8 },
    ]
}

/// The acceptance criterion: all four backends, all query shapes, remote ==
/// in-process, bit for bit.
#[test]
fn remote_batch_is_bit_identical_to_in_process_across_backends() {
    for (i, (name, codec)) in all_codecs().into_iter().enumerate() {
        let buf = store_bytes(200 + i as u64, codec.as_ref());
        let oracle = StoreServer::new(
            Arc::new(StoreReader::from_bytes(buf.clone()).unwrap()),
            UNBOUNDED,
        );
        let server = NetServer::spawn(
            "127.0.0.1:0",
            NetConfig {
                workers: 2,
                ..NetConfig::default()
            },
            vec![DatasetSpec {
                id: 0,
                name: name.into(),
                reader: Arc::new(StoreReader::from_bytes(buf).unwrap()),
            }],
        )
        .unwrap();

        let mut client = NetClient::connect(server.local_addr()).unwrap();
        let queries = query_mix(oracle.meta().domain);
        // Twice: a cold pass (decodes) and a warm pass (cache hits) must
        // serve the same bytes.
        for pass in ["cold", "warm"] {
            let remote = client.batch(0, &queries).unwrap();
            let direct = oracle.serve_batch(&queries).unwrap();
            assert_eq!(remote, direct, "backend {name}, {pass} pass");
        }
    }
}

/// Progressive refinement over the wire matches the in-process iterator
/// step by step, both upsampling schemes.
#[test]
fn remote_progressive_matches_in_process() {
    let buf = store_bytes(300, &Sz3Codec::default());
    let oracle = StoreServer::new(
        Arc::new(StoreReader::from_bytes(buf.clone()).unwrap()),
        UNBOUNDED,
    );
    let server = NetServer::spawn(
        "127.0.0.1:0",
        NetConfig::default(),
        vec![DatasetSpec {
            id: 4,
            name: "prog".into(),
            reader: Arc::new(StoreReader::from_bytes(buf).unwrap()),
        }],
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    for scheme in [Upsample::Nearest, Upsample::Trilinear] {
        let remote = client.progressive(4, scheme).unwrap();
        let direct: Vec<_> = oracle
            .progressive(scheme)
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(remote, direct, "{scheme:?}");
    }
}

/// The catalog reflects the hosted stores, and stats round-trip with the
/// snapshot identity intact; `take` drains the window remotely.
#[test]
fn catalog_and_stats_round_trip() {
    let buf_a = store_bytes(310, &Sz3Codec::default());
    let buf_b = store_bytes(311, &NullCodec);
    let server = NetServer::spawn(
        "127.0.0.1:0",
        NetConfig::default(),
        vec![
            DatasetSpec {
                id: 2,
                name: "alpha".into(),
                reader: Arc::new(StoreReader::from_bytes(buf_a).unwrap()),
            },
            DatasetSpec {
                id: 5,
                name: "beta".into(),
                reader: Arc::new(StoreReader::from_bytes(buf_b).unwrap()),
            },
        ],
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    let list = client.datasets().unwrap();
    assert_eq!(list.len(), 2);
    assert_eq!((list[0].id, list[0].name.as_str()), (2, "alpha"));
    assert_eq!((list[1].id, list[1].name.as_str()), (5, "beta"));
    assert!(list.iter().all(|d| d.levels > 0 && d.chunks > 0));

    client.batch(2, &[Query::Level { level: 0 }]).unwrap();
    let s = client.stats(2, true).unwrap();
    assert!(s.cache.requests > 0);
    assert_eq!(s.cache.requests, s.cache.hits + s.cache.misses);
    // No scrubber configured, no faults injected: the global counters sit
    // at zero.
    assert_eq!((s.scrub_passes, s.cache.repairs), (0, 0));
    // The take drained the window; an untouched peek is now empty.
    let s2 = client.stats(2, false).unwrap();
    assert_eq!(s2.cache.requests, 0);
    // The other tenant's counters are isolated.
    let sb = client.stats(5, false).unwrap();
    assert_eq!(sb.cache.requests, 0);
}

/// In-process error variants come back over the wire as the same typed
/// story: `NoSuchLevel` and `RoiOutOfBounds` from the store, plus the
/// net-level `NoSuchDataset`.
#[test]
fn typed_errors_cross_the_wire() {
    let buf = store_bytes(320, &Sz3Codec::default());
    let server = NetServer::spawn(
        "127.0.0.1:0",
        NetConfig::default(),
        vec![DatasetSpec {
            id: 0,
            name: "err".into(),
            reader: Arc::new(StoreReader::from_bytes(buf).unwrap()),
        }],
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    match client.batch(0, &[Query::Level { level: 42 }]) {
        Err(NetError::Remote(ErrorFrame::Store(WireStoreError::NoSuchLevel(42)))) => {}
        other => panic!("expected NoSuchLevel(42), got {other:?}"),
    }
    match client.batch(
        0,
        &[Query::Roi {
            level: 0,
            lo: [0, 0, 0],
            hi: [usize::MAX, 1, 1],
            fill: 0.0,
        }],
    ) {
        Err(NetError::Remote(ErrorFrame::Store(WireStoreError::RoiOutOfBounds))) => {}
        other => panic!("expected RoiOutOfBounds, got {other:?}"),
    }
    match client.batch(9, &[Query::Level { level: 0 }]) {
        Err(NetError::Remote(ErrorFrame::NoSuchDataset(9))) => {}
        other => panic!("expected NoSuchDataset(9), got {other:?}"),
    }
    // The connection survives typed errors: a valid request still works.
    assert!(client.batch(0, &[Query::Level { level: 0 }]).is_ok());
}

/// An answer over the frame cap, which every client refuses unread, is
/// answered `BadRequest` on the same connection instead of being sent.
#[test]
fn over_cap_answers_are_typed_and_keep_the_connection() {
    // One unit block in a level whose whole-level ROI is just over the cap.
    let dims = Dims3::new(512, 512, 260);
    assert!(dims.len() * 4 > DEFAULT_MAX_FRAME);
    let mr = MultiResData {
        domain: dims,
        levels: vec![LevelData {
            level: 0,
            unit: 4,
            dims,
            blocks: vec![UnitBlock {
                origin: [0, 0, 0],
                data: vec![1.0; 64],
            }],
        }],
    };
    let buf = write_store(&mr, &StoreConfig::new(0.5), &NullCodec);
    let server = NetServer::spawn(
        "127.0.0.1:0",
        NetConfig::default(),
        vec![DatasetSpec {
            id: 0,
            name: "sparse".into(),
            reader: Arc::new(StoreReader::from_bytes(buf).unwrap()),
        }],
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let roi = |hi| Query::Roi {
        level: 0,
        lo: [0, 0, 0],
        hi,
        fill: 0.0,
    };
    match client.batch(0, &[roi(dims.as_array())]) {
        Err(NetError::Remote(ErrorFrame::BadRequest(m))) => assert!(m.contains("cap"), "{m}"),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    assert!(client.batch(0, &[roi([4, 4, 4])]).is_ok());
}

/// A corrupted frame (bad CRC) is answered with a typed error frame before
/// the server hangs up — corruption is a protocol answer, not a dropped
/// connection with no explanation.
#[test]
fn corrupt_frames_get_a_typed_error_frame() {
    use hqmr_net::proto::{
        read_frame, read_hello, write_frame, write_hello, Kind, NetResponse, Request,
    };
    use std::io::Write;

    let buf = store_bytes(330, &NullCodec);
    let server = NetServer::spawn(
        "127.0.0.1:0",
        NetConfig::default(),
        vec![DatasetSpec {
            id: 0,
            name: "crc".into(),
            reader: Arc::new(StoreReader::from_bytes(buf).unwrap()),
        }],
    )
    .unwrap();

    // Raw socket: handshake, then a deliberately corrupted frame.
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    write_hello(&mut stream).unwrap();
    read_hello(&mut stream).unwrap();
    let req = Request::Batch {
        dataset: 0,
        queries: vec![Query::Level { level: 0 }],
    };
    let mut frame = Vec::new();
    write_frame(&mut frame, req.kind(), 1, &req.encode()).unwrap();
    let last = frame.len() - 1;
    frame[last] ^= 0xFF; // flip body bits → CRC mismatch at the server
    stream.write_all(&frame).unwrap();

    let (header, body) = read_frame(&mut stream, 1 << 20).unwrap();
    assert_eq!(header.kind, Kind::RError);
    match NetResponse::decode(header.kind, &body).unwrap() {
        NetResponse::Error(ErrorFrame::BadRequest(msg)) => {
            assert!(msg.contains("CRC"), "unexpected message: {msg}");
        }
        other => panic!("expected BadRequest error frame, got {other:?}"),
    }
    // After answering, the server hangs up (the stream is desynced).
    assert!(matches!(
        read_frame(&mut stream, 1 << 20),
        Err(hqmr_net::ProtocolError::Truncated | hqmr_net::ProtocolError::Io(_))
    ));
}

/// Admission control: over the connection cap, a client gets the typed
/// `TooManyConnections` answer instead of a hang, and capacity frees up
/// when a connection closes.
#[test]
fn connection_cap_is_typed_and_recovers() {
    let buf = store_bytes(340, &NullCodec);
    let server = NetServer::spawn(
        "127.0.0.1:0",
        NetConfig {
            max_connections: 2,
            ..NetConfig::default()
        },
        vec![DatasetSpec {
            id: 0,
            name: "cap".into(),
            reader: Arc::new(StoreReader::from_bytes(buf).unwrap()),
        }],
    )
    .unwrap();
    let addr = server.local_addr();

    let mut a = NetClient::connect(addr).unwrap();
    let mut b = NetClient::connect(addr).unwrap();
    assert!(a.datasets().is_ok());
    assert!(b.datasets().is_ok());

    // Third connection: handshake completes, first call is answered typed.
    let mut c = NetClient::connect(addr).unwrap();
    match c.datasets() {
        Err(NetError::TooManyConnections) => {}
        other => panic!("expected TooManyConnections, got {other:?}"),
    }
    assert_eq!(b.stats(0, false).unwrap().admission_rejections, 1);

    // Close one; a new connection must be admitted. The guard decrements
    // after the conn thread winds down, so poll briefly.
    drop(a);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let mut d = NetClient::connect(addr).unwrap();
        match d.datasets() {
            Ok(_) => break,
            Err(NetError::TooManyConnections) if std::time::Instant::now() < deadline => {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            other => panic!("expected recovery, got {other:?}"),
        }
    }
}

/// Concurrent clients hammering a tiny fleet (1 worker, depth-1 queue, zero
/// cache budget) either get correct answers or typed Busy — never a hang,
/// never a protocol error, never a panic.
#[test]
fn saturation_yields_busy_or_correct_answers() {
    let buf = store_bytes(350, &Sz3Codec::default());
    let oracle = StoreServer::new(
        Arc::new(StoreReader::from_bytes(buf.clone()).unwrap()),
        UNBOUNDED,
    );
    let expected = Arc::new(oracle.serve_batch(&[Query::Level { level: 1 }]).unwrap());
    let server = NetServer::spawn(
        "127.0.0.1:0",
        NetConfig {
            workers: 1,
            queue_depth: 1,
            cache_budget: 0,
            ..NetConfig::default()
        },
        vec![DatasetSpec {
            id: 0,
            name: "storm".into(),
            reader: Arc::new(StoreReader::from_bytes(buf).unwrap()),
        }],
    )
    .unwrap();
    let addr = server.local_addr();

    let handles: Vec<_> = (0..8)
        .map(|_| {
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).unwrap();
                let mut ok = 0u32;
                let mut busy = 0u32;
                for _ in 0..30 {
                    match client.batch(0, &[Query::Level { level: 1 }]) {
                        Ok(resp) => {
                            assert_eq!(resp, *expected);
                            ok += 1;
                        }
                        Err(NetError::Busy) => busy += 1,
                        Err(other) => panic!("unexpected failure under load: {other}"),
                    }
                }
                (ok, busy)
            })
        })
        .collect();

    let mut total_ok = 0;
    for h in handles {
        let (ok, _busy) = h.join().expect("load thread panicked");
        total_ok += ok;
    }
    // Progress is mandatory; Busy counts are load-dependent and asserted
    // deterministically in the server's unit test instead.
    assert!(total_ok > 0, "no request ever succeeded");
}

/// One request on a raw socket; returns the response frame exactly as it
/// came off the wire, header included.
fn raw_call(stream: &mut std::net::TcpStream, req_id: u64, req: &hqmr_net::Request) -> Vec<u8> {
    use hqmr_net::proto::HEADER_LEN;
    use std::io::{Read, Write};
    let mut frame = Vec::new();
    req.encode_into(req_id, &mut frame);
    stream.write_all(&frame).unwrap();
    frame.resize(HEADER_LEN, 0);
    stream.read_exact(&mut frame).unwrap();
    let body_len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
    frame.resize(HEADER_LEN + body_len, 0);
    stream.read_exact(&mut frame[HEADER_LEN..]).unwrap();
    frame
}

/// The server writes an exact batch's frame straight from the cached chunk
/// slabs, on a worker's answer (a miss) or on the connection thread (all
/// resident). Either way the bytes on the wire are those of
/// `NetResponse::Batch(serve_batch(..)).encode_into(..)` — for every
/// backend, query shape and cache state — and a degraded batch's are those
/// of `NetResponse::BatchDegraded` over the owned `serve(.., Fill)`, cold
/// and warm. The cache ledger a client reads afterwards is the one the
/// in-process server keeps for the same request sequence.
#[test]
fn raw_frames_equal_the_owned_encoding_in_every_cache_state() {
    use hqmr_net::proto::{read_hello, write_hello, Kind, NetResponse, Request};
    use hqmr_serve::{OnCorrupt, QueryResult};
    use std::time::Duration;

    for (i, (name, codec)) in all_codecs().into_iter().enumerate() {
        let buf = store_bytes_at(32, 400 + i as u64, codec.as_ref());
        let oracle =
            StoreServer::unbounded(Arc::new(StoreReader::from_bytes(buf.clone()).unwrap()));
        let server = NetServer::spawn(
            "127.0.0.1:0",
            NetConfig {
                workers: 2,
                ..NetConfig::default()
            },
            vec![DatasetSpec {
                id: 0,
                name: name.into(),
                reader: Arc::new(StoreReader::from_bytes(buf).unwrap()),
            }],
        )
        .unwrap();
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        write_hello(&mut stream).unwrap();
        read_hello(&mut stream).unwrap();

        let meta = oracle.meta();
        let (d0, d1) = (meta.levels[0].dims, meta.levels[1].dims);
        let unit = meta.levels[0].unit;
        let roi = |level, lo, hi, fill| Query::Roi {
            level,
            lo,
            hi,
            fill,
        };
        // Unit-aligned, unaligned, clipped at the domain edge, and the whole
        // level: in an adaptive layout no level covers its domain, so the
        // last shows `fill`.
        let aligned = roi(0, [0, unit, 0], [unit, 2 * unit, 2 * unit], 9.0);
        let unaligned = roi(0, [1, 2, 3], [d0.nx - 2, d0.ny / 2 + 1, d0.nz - 1], -3.0);
        let clipped = roi(0, [d0.nx - 3, d0.ny - 5, 1], [d0.nx, d0.ny, d0.nz], 0.5);
        let sparse = roi(0, [0, 0, 0], [d0.nx, d0.ny, d0.nz], -1.5);
        let whole = oracle
            .reader()
            .read_roi(0, [0, 0, 0], [d0.nx, d0.ny, d0.nz], -1.5);
        let uncovered = whole.unwrap().data().iter().filter(|&&v| v == -1.5).count();
        assert!(uncovered > 0, "{name}: the whole-level box shows no fill");
        // An isovalue just above the median chunk maximum skips about half
        // the chunks (those wholly below it), so decoded and proxy blocks
        // share the frame.
        let isos = [0, 1].map(|level| {
            let chunks = &meta.levels[level].chunks;
            let mut maxes: Vec<f32> = chunks.iter().map(|c| c.max).collect();
            maxes.sort_by(f32::total_cmp);
            let iso = maxes[(maxes.len() - 1) / 2] + 3.0 * meta.eb as f32;
            let kept = oracle.reader().iso_chunk_indices(level, iso).unwrap().len();
            (kept, chunks.len(), Query::Iso { level, iso })
        });
        let skipping = isos.iter().any(|&(kept, of, _)| (1..of).contains(&kept));
        assert!(
            skipping,
            "{name}: no iso query mixes decoded and proxy blocks"
        );
        let isos = isos.map(|(.., q)| q);
        // cold → partly warm → fully warm, twice over: single queries, then
        // one batch of everything with overlapping boxes; exact and
        // degraded, each cold and warm.
        let everything = vec![
            aligned,
            clipped,
            sparse,
            unaligned,
            Query::Level { level: 1 },
            isos[0],
            isos[1],
            roi(1, [0, 0, 0], [d1.nx / 2 + 1, d1.ny, d1.nz / 2], 0.0),
            Query::Level { level: 0 },
        ];
        // One block of level 1's first chunk: cold until the degraded steps.
        let lo1 = meta.levels[1].chunks[0].slots[0].1;
        let block1 = roi(1, lo1, lo1.map(|o| o + meta.levels[1].unit), 2.0);
        let (exact, fill) = (OnCorrupt::Fail, OnCorrupt::Fill);
        let script = [
            (vec![unaligned], exact),
            (vec![Query::Level { level: 0 }], exact),
            (vec![Query::Level { level: 0 }], exact),
            (vec![block1], fill),
            (vec![block1], fill),
            (everything.clone(), exact),
            (everything.clone(), fill),
            (everything, exact),
        ];
        for (step, (queries, on_corrupt)) in script.into_iter().enumerate() {
            let req_id = 0x0100 + step as u64;
            let (direct, request) = match on_corrupt {
                OnCorrupt::Fail => (
                    NetResponse::Batch(oracle.serve_batch(&queries).unwrap()),
                    Request::Batch {
                        dataset: 0,
                        queries,
                    },
                ),
                OnCorrupt::Fill => {
                    let results = oracle.serve(&queries, on_corrupt).unwrap();
                    let owned = results.iter().map(QueryResult::to_owned).collect();
                    let request = Request::BatchDegraded {
                        dataset: 0,
                        queries,
                    };
                    (NetResponse::BatchDegraded(owned), request)
                }
            };
            let mut expected = Vec::new();
            direct.encode_into(req_id, &mut expected);
            let got = raw_call(&mut stream, req_id, &request);
            assert!(
                got == expected,
                "backend {name}, step {step}: frames differ"
            );

            let peek = Request::Stats {
                dataset: 0,
                take: false,
            };
            let frame = raw_call(&mut stream, 7, &peek);
            let body = &frame[hqmr_net::proto::HEADER_LEN..];
            let NetResponse::Stats(remote) = NetResponse::decode(Kind::RStats, body).unwrap()
            else {
                panic!("expected stats");
            };
            assert_eq!(remote.cache, oracle.stats(), "backend {name}, step {step}");
        }
        let ledger = oracle.stats();
        assert!(ledger.hits > 0 && ledger.misses == meta.chunk_count() as u64);
    }
}

/// A well-formed answer of the wrong kind is `UnexpectedResponse` from
/// every request method, after exactly one request: the `_retry` forms
/// retry failed exchanges, never a wrong-kind answer. A raw listener plays
/// the server: it completes the hello, counts every request frame, and
/// answers each with a frame of another kind that echoes the request id.
#[test]
fn wrong_kind_answers_are_unexpected_after_one_request() {
    use hqmr_net::proto::{read_frame, read_hello, write_hello, Kind, DEFAULT_MAX_FRAME};
    use hqmr_net::{NetResponse, ServerStats};
    use std::io::Write;
    use std::sync::atomic::{AtomicUsize, Ordering};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let requests = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&requests);
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        write_hello(&mut stream).unwrap();
        read_hello(&mut stream).unwrap();
        let mut frame = Vec::new();
        // Until the client hangs up.
        while let Ok((header, _)) = read_frame(&mut stream, DEFAULT_MAX_FRAME) {
            seen.fetch_add(1, Ordering::SeqCst);
            let wrong = if header.kind == Kind::List {
                NetResponse::Stats(ServerStats::default())
            } else {
                NetResponse::Datasets(Vec::new())
            };
            frame.clear();
            wrong.encode_into(header.req_id, &mut frame);
            stream.write_all(&frame).unwrap();
        }
    });

    let mut client = NetClient::connect(addr).unwrap();
    let queries = [Query::Level { level: 0 }];
    let mut sent = 0;
    let mut check = |name: &str, err: NetError| {
        sent += 1;
        assert!(
            matches!(err, NetError::UnexpectedResponse),
            "{name}: expected UnexpectedResponse, got {err:?}"
        );
        assert_eq!(
            requests.load(Ordering::SeqCst),
            sent,
            "{name}: requests sent"
        );
    };
    check("datasets", client.datasets().unwrap_err());
    check("batch", client.batch(0, &queries).unwrap_err());
    check(
        "batch_retry",
        client.batch_retry(0, &queries, 3).unwrap_err(),
    );
    check(
        "batch_degraded",
        client.batch_degraded(0, &queries).unwrap_err(),
    );
    let err = client.batch_degraded_retry(0, &queries, 3).unwrap_err();
    check("batch_degraded_retry", err);
    let err = client.progressive(0, Upsample::Nearest).unwrap_err();
    check("progressive", err);
    check("stats", client.stats(0, false).unwrap_err());
    drop(client);
    server.join().unwrap();
}
