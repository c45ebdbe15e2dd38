//! The serving fleet: one TCP listener, a thread-per-core worker pool, and
//! stores sharded across workers by dataset id.
//!
//! # Architecture
//!
//! ```text
//!                    ┌ worker 0 ── tenants {0, W, 2W, …}
//! accept ─ conn ─┐   ├ worker 1 ── tenants {1, W+1, …}
//! accept ─ conn ─┼──▶│   …          (bounded sync_channel per worker)
//! accept ─ conn ─┘   └ worker W−1
//! ```
//!
//! Each connection gets its own thread that parses frames and answers
//! catalog/stats requests inline (they never decode). Decode-bearing work —
//! [`Request::Batch`] and [`Request::Progressive`] — is routed to the worker
//! that owns the target dataset (`id % workers`) through a *bounded* queue:
//! a full queue is an immediate [`ErrorFrame::Busy`] response, never an
//! unbounded backlog. The same shard always serves the same dataset, so its
//! [`StoreServer`] cache stays hot and two shards never duplicate a chunk.
//!
//! Admission control is a hard connection cap: over the limit, the server
//! completes the handshake, sends [`ErrorFrame::TooManyConnections`], and
//! closes — clients get a typed answer, not a hang.
//!
//! Per-tenant cache budgets are carved from one global byte budget with
//! [`partition_budget`], weighted by each
//! store's compressed size, so co-hosted datasets cannot collectively
//! exceed the machine's memory plan.

use crate::chaos::{chunk_fault_hook, ChaosConfig, ChaosStream};
use crate::proto::{
    parse_header, read_hello, recycle, write_hello, DatasetInfo, ErrorFrame, NetResponse,
    ProtocolError, Request, ServerStats, HEADER_LEN,
};
use hqmr_mr::Upsample;
use hqmr_serve::{partition_budget, Query, StoreServer};
use hqmr_store::{StoreReader, Throttle};
use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the accept loop re-checks the shutdown flag while no
/// connection is pending. Bounds shutdown latency without a wake
/// connection (which can fail and then hang the old blocking accept).
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// One dataset to host: an id (the addressing and sharding key), a
/// human-readable name, and an opened store.
pub struct DatasetSpec {
    /// Dataset id, unique within the server.
    pub id: u32,
    /// Catalog name.
    pub name: String,
    /// The opened store.
    pub reader: Arc<StoreReader>,
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Worker (shard) count; `0` means one per available core.
    pub workers: usize,
    /// Bound of each worker's job queue. A full queue produces
    /// [`ErrorFrame::Busy`] responses instead of queueing without limit.
    pub queue_depth: usize,
    /// Hard cap on concurrent connections (admission control).
    pub max_connections: usize,
    /// Global decoded-chunk cache budget in bytes, carved across tenants
    /// weighted by compressed store size. [`hqmr_serve::UNBOUNDED`] turns
    /// eviction off everywhere.
    pub cache_budget: usize,
    /// Largest frame body this server will read.
    pub max_frame_len: usize,
    /// Socket read timeout. Between frames a timeout is just an idle tick
    /// (connections may legitimately sit quiet); *mid-frame* it means the
    /// peer is feeding bytes too slowly (slow-loris) and is answered with
    /// [`ErrorFrame::DeadlineExceeded`] and disconnected. `None` waits
    /// forever.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout: a client that stops reading its responses
    /// cannot pin a connection thread forever.
    pub write_timeout: Option<Duration>,
    /// Per-request deadline from dispatch to worker reply (queue wait
    /// included). On expiry the client gets a typed
    /// [`ErrorFrame::DeadlineExceeded`] and the worker's eventual result
    /// is discarded. `None` waits forever.
    pub request_deadline: Option<Duration>,
    /// Fault injection; `None` (the default) injects nothing.
    pub chaos: Option<ChaosConfig>,
    /// Parity group size for in-memory sidecars built over each tenant at
    /// spawn. `0` (the default) hosts stores without parity — corrupt
    /// chunks stay typed errors / degraded fills. `>0` arms
    /// [`StoreServer`] auto-repair for every tenant.
    pub parity_group: usize,
    /// Background scrubber budget in bytes/second. `None` (the default)
    /// runs no scrubber; `Some(rate)` spawns one thread that cycles the
    /// hosted datasets under that throttle, repairing what parity can heal
    /// and exporting counters through wire `Stats`.
    pub scrub_rate: Option<u64>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            workers: 0,
            queue_depth: 32,
            max_connections: 256,
            cache_budget: hqmr_serve::UNBOUNDED,
            max_frame_len: crate::proto::DEFAULT_MAX_FRAME,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            request_deadline: Some(Duration::from_secs(60)),
            chaos: None,
            parity_group: 0,
            scrub_rate: None,
        }
    }
}

/// One hosted dataset: its caching server plus the shard that owns it.
struct Tenant {
    id: u32,
    name: String,
    serve: StoreServer,
    worker: usize,
}

/// Decode-bearing work routed to a shard.
enum Work {
    /// One batch; `degraded` picks the wire kind's fill-and-flag answer
    /// over the exact one.
    Batch {
        queries: Vec<Query>,
        degraded: bool,
    },
    Progressive(Upsample),
    /// Test hook: parks the worker on a barrier so queue-full behaviour can
    /// be exercised deterministically.
    #[cfg(test)]
    Park(Arc<std::sync::Barrier>),
}

struct Job {
    tenant: usize,
    work: Work,
    reply: mpsc::SyncSender<NetResponse>,
}

struct Shared {
    cfg: NetConfig,
    tenants: Vec<Tenant>,
    by_id: HashMap<u32, usize>,
    worker_tx: Vec<mpsc::SyncSender<Job>>,
    live_conns: AtomicUsize,
    busy_rejections: AtomicU64,
    admission_rejections: AtomicU64,
    deadline_rejections: AtomicU64,
    scrub_passes: AtomicU64,
    scrub_verified: AtomicU64,
    scrub_repaired: AtomicU64,
    scrub_unrepairable: AtomicU64,
    stop: AtomicBool,
}

impl Shared {
    fn tenant(&self, dataset: u32) -> Result<usize, ErrorFrame> {
        self.by_id
            .get(&dataset)
            .copied()
            .ok_or(ErrorFrame::NoSuchDataset(dataset))
    }

    fn catalog(&self) -> NetResponse {
        NetResponse::Datasets(
            self.tenants
                .iter()
                .map(|t| {
                    let m = t.serve.meta();
                    DatasetInfo {
                        id: t.id,
                        name: t.name.clone(),
                        codec_id: m.codec_id,
                        eb: m.eb,
                        domain: m.domain,
                        levels: m.levels.len(),
                        chunks: m.chunk_count(),
                        compressed_bytes: m.compressed_bytes(),
                    }
                })
                .collect(),
        )
    }

    /// Routes one parsed request to its answer. Decode-bearing work goes
    /// through the owning shard's bounded queue; everything else is answered
    /// inline. This is the single choke point the Busy path runs through,
    /// for both real connections and the deterministic unit test.
    fn route(&self, req: Request) -> NetResponse {
        match req {
            Request::List => self.catalog(),
            Request::Stats { dataset, take } => match self.tenant(dataset) {
                Err(e) => NetResponse::Error(e),
                Ok(t) => {
                    let serve = &self.tenants[t].serve;
                    let cache = if take {
                        serve.take_stats()
                    } else {
                        serve.stats()
                    };
                    // Rejection and scrub counters are server-global; they
                    // are *peeked* (never drained) regardless of `take`.
                    NetResponse::Stats(ServerStats {
                        cache,
                        busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
                        admission_rejections: self.admission_rejections.load(Ordering::Relaxed),
                        deadline_rejections: self.deadline_rejections.load(Ordering::Relaxed),
                        scrub_passes: self.scrub_passes.load(Ordering::Relaxed),
                        scrub_verified: self.scrub_verified.load(Ordering::Relaxed),
                        scrub_repaired: self.scrub_repaired.load(Ordering::Relaxed),
                        scrub_unrepairable: self.scrub_unrepairable.load(Ordering::Relaxed),
                    })
                }
            },
            Request::Batch { dataset, queries } => self.dispatch(
                dataset,
                Work::Batch {
                    queries,
                    degraded: false,
                },
            ),
            Request::BatchDegraded { dataset, queries } => self.dispatch(
                dataset,
                Work::Batch {
                    queries,
                    degraded: true,
                },
            ),
            Request::Progressive { dataset, scheme } => {
                self.dispatch(dataset, Work::Progressive(scheme))
            }
        }
    }

    fn dispatch(&self, dataset: u32, work: Work) -> NetResponse {
        let tenant = match self.tenant(dataset) {
            Ok(t) => t,
            Err(e) => return NetResponse::Error(e),
        };
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let job = Job {
            tenant,
            work,
            reply: reply_tx,
        };
        match self.worker_tx[self.tenants[tenant].worker].try_send(job) {
            Ok(()) => {}
            Err(mpsc::TrySendError::Full(_)) | Err(mpsc::TrySendError::Disconnected(_)) => {
                // Full queue is backpressure by design; a disconnected
                // worker means shutdown is in progress — same client-side
                // answer: come back later.
                self.busy_rejections.fetch_add(1, Ordering::Relaxed);
                return NetResponse::Error(ErrorFrame::Busy);
            }
        }
        match self.cfg.request_deadline {
            // The deadline covers queue wait + decode; on expiry the
            // receiver is dropped, so the worker's late `send` fails
            // harmlessly and the client holds a typed answer instead of a
            // hang.
            Some(d) => match reply_rx.recv_timeout(d) {
                Ok(resp) => resp,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    self.deadline_rejections.fetch_add(1, Ordering::Relaxed);
                    NetResponse::Error(ErrorFrame::DeadlineExceeded)
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => NetResponse::Error(ErrorFrame::Busy),
            },
            None => match reply_rx.recv() {
                Ok(resp) => resp,
                Err(_) => NetResponse::Error(ErrorFrame::Busy),
            },
        }
    }
}

/// How long the background scrubber idles between full passes over the
/// hosted datasets, polled in small slices so shutdown stays prompt.
const SCRUB_CYCLE_PAUSE: Duration = Duration::from_millis(200);

/// Background scrubber: cycles every tenant's cache-level scrub under the
/// configured byte/second throttle until shutdown. Each full cycle bumps
/// `scrub_passes`; per-chunk outcomes accumulate into the shared counters
/// that wire `Stats` exports.
fn scrub_loop(shared: &Shared, rate: u64) {
    let mut throttle = Throttle::new(rate);
    while !shared.stop.load(Ordering::Acquire) {
        for tenant in &shared.tenants {
            if shared.stop.load(Ordering::Acquire) {
                return;
            }
            let report = tenant.serve.scrub_pass(Some(&mut throttle));
            shared
                .scrub_verified
                .fetch_add(report.verified as u64, Ordering::Relaxed);
            shared
                .scrub_repaired
                .fetch_add(report.repaired as u64, Ordering::Relaxed);
            shared
                .scrub_unrepairable
                .fetch_add(report.unrepairable.len() as u64, Ordering::Relaxed);
        }
        shared.scrub_passes.fetch_add(1, Ordering::Relaxed);
        // Idle between cycles without going deaf to the stop flag.
        let mut slept = Duration::ZERO;
        while slept < SCRUB_CYCLE_PAUSE && !shared.stop.load(Ordering::Acquire) {
            std::thread::sleep(ACCEPT_POLL);
            slept += ACCEPT_POLL;
        }
    }
}

fn worker_loop(shared: &Shared, rx: &mpsc::Receiver<Job>) {
    loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(job) => {
                let serve = &shared.tenants[job.tenant].serve;
                let served = match job.work {
                    Work::Batch { queries, degraded } => {
                        if degraded {
                            let results = serve.serve_batch_degraded(&queries);
                            results.map(NetResponse::BatchDegraded)
                        } else {
                            serve.serve_batch(&queries).map(NetResponse::Batch)
                        }
                    }
                    Work::Progressive(scheme) => serve
                        .progressive(scheme)
                        .collect::<Result<Vec<_>, _>>()
                        .map(NetResponse::Progressive),
                    #[cfg(test)]
                    Work::Park(barrier) => {
                        barrier.wait();
                        Ok(NetResponse::Error(ErrorFrame::Busy))
                    }
                };
                let resp =
                    served.unwrap_or_else(|e| NetResponse::Error(ErrorFrame::Store((&e).into())));
                // A vanished client is not the worker's problem.
                let _ = job.reply.send(resp);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Decrements the live-connection gauge however the connection ends.
struct ConnGuard<'a>(&'a AtomicUsize);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Builds `resp`'s frame in `frame` — the connection's reused buffer — and
/// hands it to the (unbuffered) socket in one `write_all`: header and body
/// leave together instead of as two `TCP_NODELAY` segments.
fn send_response(
    w: &mut impl Write,
    frame: &mut Vec<u8>,
    req_id: u64,
    resp: &NetResponse,
) -> Result<(), ProtocolError> {
    resp.encode_into(req_id, frame);
    let sent = w.write_all(frame);
    recycle(frame);
    Ok(sent?)
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// How a patient exact-length read ended.
enum ReadOutcome {
    /// The buffer is full.
    Full,
    /// Clean EOF before the first byte.
    Closed,
    /// Socket timeout with zero bytes read — the peer is merely quiet.
    Idle,
    /// Timeout (or EOF) partway through — the peer stalled or died
    /// mid-frame.
    Stalled,
    /// A real socket error.
    Err,
}

/// Reads exactly `buf.len()` bytes, classifying timeouts by position: a
/// timeout before the first byte is idleness, a timeout after it means the
/// sender stalled inside a frame (the slow-loris shape the read timeout
/// exists to catch).
fn read_patient(r: &mut impl Read, buf: &mut [u8]) -> ReadOutcome {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return ReadOutcome::Closed,
            Ok(0) => return ReadOutcome::Stalled,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => {
                return if filled == 0 {
                    ReadOutcome::Idle
                } else {
                    ReadOutcome::Stalled
                };
            }
            Err(_) => return ReadOutcome::Err,
        }
    }
    ReadOutcome::Full
}

/// Serves one connection to completion. Returns on client close, socket
/// error, or a framing-level corruption (after answering it with a typed
/// error frame — once CRC or length sync is lost, the stream cannot be
/// trusted further). Generic over the stream halves so the chaos wrapper
/// slots in without a separate code path.
fn connection_loop<R: Read, W: Write>(
    shared: &Shared,
    mut reader: R,
    mut writer: W,
) -> Result<(), ProtocolError> {
    write_hello(&mut writer)?;
    read_hello(&mut reader)?;
    let mut header = [0u8; HEADER_LEN];
    // Request body and response frame buffers, reused across the
    // connection's frames.
    let mut body = Vec::new();
    let mut frame = Vec::new();
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return Ok(());
        }
        // Between frames, a read timeout is just an idle tick: loop around
        // and re-check the stop flag. Once the first header byte lands the
        // peer owes us a whole frame promptly; a timeout after that is
        // answered with a typed deadline error and a hangup.
        match read_patient(&mut reader, &mut header) {
            ReadOutcome::Full => {}
            ReadOutcome::Idle => continue,
            ReadOutcome::Closed | ReadOutcome::Err => return Ok(()),
            ReadOutcome::Stalled => {
                let resp = NetResponse::Error(ErrorFrame::DeadlineExceeded);
                let _ = send_response(&mut writer, &mut frame, 0, &resp);
                return Ok(());
            }
        }
        let raw = match parse_header(&header, shared.cfg.max_frame_len) {
            Ok(raw) => raw,
            // Framing-level corruption: answer typed, then hang up (the
            // byte stream is no longer trustworthy).
            Err(e) => {
                let resp = NetResponse::Error(ErrorFrame::BadRequest(e.to_string()));
                let _ = send_response(&mut writer, &mut frame, 0, &resp);
                return Err(e);
            }
        };
        body.resize(raw.body_len, 0);
        match read_patient(&mut reader, &mut body) {
            ReadOutcome::Full => {}
            ReadOutcome::Closed | ReadOutcome::Err => return Ok(()),
            ReadOutcome::Idle | ReadOutcome::Stalled => {
                let resp = NetResponse::Error(ErrorFrame::DeadlineExceeded);
                let _ = send_response(&mut writer, &mut frame, raw.header.req_id, &resp);
                return Ok(());
            }
        }
        if let Err(e) = raw.verify(&body) {
            let resp = NetResponse::Error(ErrorFrame::BadRequest(e.to_string()));
            let _ = send_response(&mut writer, &mut frame, raw.header.req_id, &resp);
            return Err(e);
        }
        let resp = match Request::decode(raw.header.kind, &body) {
            // Body-level malformation: the frame boundary held, so answer
            // typed and keep the connection.
            Err(e) => NetResponse::Error(ErrorFrame::BadRequest(e.to_string())),
            Ok(req) => shared.route(req),
        };
        recycle(&mut body);
        send_response(&mut writer, &mut frame, raw.header.req_id, &resp)?;
    }
}

/// Applies the per-connection socket policy (nodelay, read/write timeouts,
/// optional chaos wrapping) and runs the frame loop.
fn serve_connection(shared: &Shared, stream: TcpStream, conn_id: u64) -> Result<(), ProtocolError> {
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(shared.cfg.read_timeout)
        .map_err(ProtocolError::Io)?;
    stream
        .set_write_timeout(shared.cfg.write_timeout)
        .map_err(ProtocolError::Io)?;
    match shared.cfg.chaos.as_ref().filter(|c| c.wire_active()) {
        Some(chaos) => {
            let stream = ChaosStream::new(stream, chaos.clone(), conn_id);
            let reader = BufReader::new(stream.try_clone().map_err(ProtocolError::Io)?);
            connection_loop(shared, reader, stream)
        }
        None => {
            let reader = BufReader::new(stream.try_clone().map_err(ProtocolError::Io)?);
            connection_loop(shared, reader, stream)
        }
    }
}

/// Tells an over-limit client why it is being dropped.
fn reject_connection(mut stream: TcpStream) {
    let resp = NetResponse::Error(ErrorFrame::TooManyConnections);
    if write_hello(&mut stream).is_ok() {
        let _ = send_response(&mut stream, &mut Vec::new(), 0, &resp);
    }
}

/// A running serving fleet. Dropping (or [`shutdown`](NetServer::shutdown))
/// stops the accept loop and the workers.
pub struct NetServer {
    shared: Arc<Shared>,
    addr: std::net::SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    scrubber: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` and spawns the fleet: one accept thread, `cfg.workers`
    /// shard workers, and a per-tenant [`StoreServer`] with its slice of
    /// the global cache budget.
    pub fn spawn(
        addr: impl ToSocketAddrs,
        cfg: NetConfig,
        datasets: Vec<DatasetSpec>,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism().map_or(4, usize::from)
        } else {
            cfg.workers
        };
        let queue_depth = cfg.queue_depth.max(1);

        let weights: Vec<u64> = datasets
            .iter()
            .map(|d| d.reader.meta().compressed_bytes())
            .collect();
        let budgets = partition_budget(cfg.cache_budget, &weights);

        let mut tenants = Vec::with_capacity(datasets.len());
        let mut by_id = HashMap::new();
        let fault_hook = cfg.chaos.as_ref().and_then(chunk_fault_hook);
        for (i, (spec, budget)) in datasets.into_iter().zip(budgets).enumerate() {
            if by_id.insert(spec.id, i).is_some() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("duplicate dataset id {}", spec.id),
                ));
            }
            let mut serve = StoreServer::new(spec.reader, budget);
            if let Some(hook) = &fault_hook {
                serve = serve.with_fault_hook(Arc::clone(hook));
            }
            if cfg.parity_group > 0 {
                serve = serve
                    .with_built_parity(cfg.parity_group)
                    .map_err(std::io::Error::other)?;
            }
            tenants.push(Tenant {
                id: spec.id,
                name: spec.name,
                serve,
                worker: spec.id as usize % workers,
            });
        }

        let mut worker_tx = Vec::with_capacity(workers);
        let mut worker_rx = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = mpsc::sync_channel(queue_depth);
            worker_tx.push(tx);
            worker_rx.push(rx);
        }

        let shared = Arc::new(Shared {
            cfg,
            tenants,
            by_id,
            worker_tx,
            live_conns: AtomicUsize::new(0),
            busy_rejections: AtomicU64::new(0),
            admission_rejections: AtomicU64::new(0),
            deadline_rejections: AtomicU64::new(0),
            scrub_passes: AtomicU64::new(0),
            scrub_verified: AtomicU64::new(0),
            scrub_repaired: AtomicU64::new(0),
            scrub_unrepairable: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });

        let scrubber = shared.cfg.scrub_rate.map(|rate| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("hqnw-scrub".into())
                .spawn(move || scrub_loop(&shared, rate))
                .expect("spawn scrubber")
        });

        let worker_handles: Vec<JoinHandle<()>> = worker_rx
            .into_iter()
            .enumerate()
            .map(|(i, rx)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hqnw-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &rx))
                    .expect("spawn worker")
            })
            .collect();

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("hqnw-accept".into())
                .spawn(move || {
                    // Non-blocking accept + poll: shutdown never depends on
                    // one more connection arriving to wake the loop.
                    let _ = listener.set_nonblocking(true);
                    let mut conn_id: u64 = 0;
                    loop {
                        if shared.stop.load(Ordering::Acquire) {
                            return;
                        }
                        let stream = match listener.accept() {
                            Ok((s, _)) => s,
                            Err(e) if is_timeout(&e) => {
                                std::thread::sleep(ACCEPT_POLL);
                                continue;
                            }
                            // Transient accept errors (e.g. the peer reset
                            // before we got to it) are not fatal to the
                            // listener.
                            Err(_) => {
                                std::thread::sleep(ACCEPT_POLL);
                                continue;
                            }
                        };
                        // Some platforms let accepted sockets inherit the
                        // listener's non-blocking mode; the frame loop
                        // relies on blocking reads with timeouts.
                        let _ = stream.set_nonblocking(false);
                        conn_id += 1;
                        let prev = shared.live_conns.fetch_add(1, Ordering::AcqRel);
                        if prev >= shared.cfg.max_connections {
                            shared.live_conns.fetch_sub(1, Ordering::AcqRel);
                            shared.admission_rejections.fetch_add(1, Ordering::Relaxed);
                            reject_connection(stream);
                            continue;
                        }
                        let shared = Arc::clone(&shared);
                        let _ =
                            std::thread::Builder::new()
                                .name("hqnw-conn".into())
                                .spawn(move || {
                                    let _guard = ConnGuard(&shared.live_conns);
                                    let _ = serve_connection(&shared, stream, conn_id);
                                });
                    }
                })
                .expect("spawn accept loop")
        };

        Ok(NetServer {
            shared,
            addr: local,
            accept: Some(accept),
            workers: worker_handles,
            scrubber,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Requests answered with [`ErrorFrame::Busy`] because the owning
    /// shard's queue was full.
    pub fn busy_rejections(&self) -> u64 {
        self.shared.busy_rejections.load(Ordering::Relaxed)
    }

    /// Connections refused at the admission cap.
    pub fn admission_rejections(&self) -> u64 {
        self.shared.admission_rejections.load(Ordering::Relaxed)
    }

    /// Requests answered with [`ErrorFrame::DeadlineExceeded`] because the
    /// worker did not reply within [`NetConfig::request_deadline`].
    pub fn deadline_rejections(&self) -> u64 {
        self.shared.deadline_rejections.load(Ordering::Relaxed)
    }

    /// Completed background-scrub cycles over all hosted datasets
    /// (`0` when [`NetConfig::scrub_rate`] is `None`).
    pub fn scrub_passes(&self) -> u64 {
        self.shared.scrub_passes.load(Ordering::Relaxed)
    }

    /// Chunks the background scrubber repaired from parity.
    pub fn scrub_repaired(&self) -> u64 {
        self.shared.scrub_repaired.load(Ordering::Relaxed)
    }

    /// Stops accepting, drains the workers, and joins them. Live
    /// connections see their next request answered as Busy (workers gone)
    /// and then close from the client side. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // The accept loop polls the stop flag every ACCEPT_POLL, so no
        // wake-up connection is needed (and none can fail).
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Dropping the senders is not possible while `Shared` is alive;
        // the workers exit on their shutdown poll instead.
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.scrubber.take() {
            let _ = h.join();
        }
    }

    /// Blocks until the accept loop exits (i.e. forever, absent
    /// [`shutdown`](NetServer::shutdown) from another thread or an
    /// unrecoverable listener error). Used by the `netd` binary.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.shutdown();
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqmr_grid::synth;
    use hqmr_mr::{to_adaptive, RoiConfig};
    use hqmr_store::{write_store, StoreConfig};
    use hqmr_sz3::Sz3Codec;

    fn demo_reader(seed: u64) -> Arc<StoreReader> {
        let f = synth::nyx_like(16, seed);
        let mr = to_adaptive(&f, &RoiConfig::new(8, 0.5));
        let buf = write_store(
            &mr,
            &StoreConfig::new(1e-3).with_chunk_blocks(2),
            &Sz3Codec::default(),
        );
        Arc::new(StoreReader::from_bytes(buf).expect("open demo store"))
    }

    fn fleet(cfg: NetConfig) -> NetServer {
        let datasets = vec![
            DatasetSpec {
                id: 0,
                name: "alpha".into(),
                reader: demo_reader(1),
            },
            DatasetSpec {
                id: 1,
                name: "beta".into(),
                reader: demo_reader(2),
            },
        ];
        NetServer::spawn("127.0.0.1:0", cfg, datasets).expect("spawn fleet")
    }

    #[test]
    fn duplicate_dataset_id_is_invalid_input_not_a_panic() {
        let datasets = [3, 7, 3].map(|id| DatasetSpec {
            id,
            name: format!("d{id}"),
            reader: demo_reader(u64::from(id)),
        });
        let err = NetServer::spawn("127.0.0.1:0", NetConfig::default(), datasets.into())
            .err()
            .expect("a duplicate id must be refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("id 3"), "{err}");
    }

    #[test]
    fn route_answers_catalog_and_stats_inline() {
        let server = fleet(NetConfig {
            workers: 2,
            ..NetConfig::default()
        });
        let NetResponse::Datasets(list) = server.shared.route(Request::List) else {
            panic!("expected catalog");
        };
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].name, "alpha");
        assert!(list[0].compressed_bytes > 0);

        let NetResponse::Stats(stats) = server.shared.route(Request::Stats {
            dataset: 1,
            take: false,
        }) else {
            panic!("expected stats");
        };
        assert_eq!(stats.cache.requests, 0);
        assert_eq!(stats.scrub_passes, 0);

        let resp = server.shared.route(Request::Stats {
            dataset: 99,
            take: false,
        });
        assert_eq!(resp, NetResponse::Error(ErrorFrame::NoSuchDataset(99)));
    }

    #[test]
    fn batch_routes_through_shard_and_matches_direct_serve() {
        let server = fleet(NetConfig {
            workers: 2,
            ..NetConfig::default()
        });
        let queries = vec![
            Query::Level { level: 1 },
            Query::Roi {
                level: 0,
                lo: [2, 2, 2],
                hi: [10, 9, 8],
                fill: 0.0,
            },
        ];
        let NetResponse::Batch(via_net) = server.shared.route(Request::Batch {
            dataset: 0,
            queries: queries.clone(),
        }) else {
            panic!("expected batch response");
        };
        let direct = server.shared.tenants[0]
            .serve
            .serve_batch(&queries)
            .unwrap();
        assert_eq!(via_net, direct);
    }

    #[test]
    fn store_errors_travel_as_typed_error_frames() {
        let server = fleet(NetConfig {
            workers: 1,
            ..NetConfig::default()
        });
        let resp = server.shared.route(Request::Batch {
            dataset: 0,
            queries: vec![Query::Level { level: 99 }],
        });
        assert_eq!(
            resp,
            NetResponse::Error(ErrorFrame::Store(
                crate::proto::WireStoreError::NoSuchLevel(99)
            ))
        );
    }

    /// The acceptance-critical backpressure property, deterministically:
    /// park the single worker, fill its depth-1 queue, and the next
    /// dispatch must answer Busy instead of blocking or queueing.
    #[test]
    fn full_queue_answers_busy() {
        let server = fleet(NetConfig {
            workers: 1,
            queue_depth: 1,
            ..NetConfig::default()
        });
        let shared = &server.shared;

        // Park the worker: it pulls this job and blocks on the barrier.
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let (park_tx, _park_rx) = mpsc::sync_channel(1);
        shared.worker_tx[0]
            .send(Job {
                tenant: 0,
                work: Work::Park(Arc::clone(&barrier)),
                reply: park_tx,
            })
            .unwrap();

        // Occupy the queue slot. `send` (blocking) is fine: the slot is
        // free until the parked job is pulled off.
        let (fill_tx, fill_rx) = mpsc::sync_channel(1);
        shared.worker_tx[0]
            .send(Job {
                tenant: 0,
                work: Work::Batch {
                    queries: vec![Query::Level { level: 0 }],
                    degraded: false,
                },
                reply: fill_tx,
            })
            .unwrap();

        // Queue full, worker parked → immediate Busy, counted.
        let before = shared.busy_rejections.load(Ordering::Relaxed);
        let resp = shared.route(Request::Batch {
            dataset: 0,
            queries: vec![Query::Level { level: 0 }],
        });
        assert_eq!(resp, NetResponse::Error(ErrorFrame::Busy));
        assert_eq!(shared.busy_rejections.load(Ordering::Relaxed), before + 1);

        // Release the worker; the queued job must still complete.
        barrier.wait();
        let queued = fill_rx.recv().expect("queued job completes");
        assert!(matches!(queued, NetResponse::Batch(_)));
    }

    #[test]
    fn degraded_batch_routes_through_shard() {
        let server = fleet(NetConfig {
            workers: 2,
            ..NetConfig::default()
        });
        let queries = vec![Query::Level { level: 0 }];
        let NetResponse::BatchDegraded(results) = server.shared.route(Request::BatchDegraded {
            dataset: 0,
            queries: queries.clone(),
        }) else {
            panic!("expected degraded batch response");
        };
        // A healthy store serves the degraded path exactly.
        assert!(results.iter().all(|r| r.is_exact()));
        let direct = server.shared.tenants[0]
            .serve
            .serve_batch(&queries)
            .unwrap();
        let via_net: Vec<_> = results.into_iter().map(|r| r.response).collect();
        assert_eq!(via_net, direct);
    }

    /// A parked worker cannot hold a request hostage: the dispatcher's
    /// reply wait expires into a typed DeadlineExceeded and the counter
    /// ticks.
    #[test]
    fn slow_worker_hits_request_deadline() {
        let server = fleet(NetConfig {
            workers: 1,
            queue_depth: 4,
            request_deadline: Some(Duration::from_millis(50)),
            ..NetConfig::default()
        });
        let shared = &server.shared;

        let barrier = Arc::new(std::sync::Barrier::new(2));
        let (park_tx, _park_rx) = mpsc::sync_channel(1);
        shared.worker_tx[0]
            .send(Job {
                tenant: 0,
                work: Work::Park(Arc::clone(&barrier)),
                reply: park_tx,
            })
            .unwrap();

        let before = shared.deadline_rejections.load(Ordering::Relaxed);
        let resp = shared.route(Request::Batch {
            dataset: 0,
            queries: vec![Query::Level { level: 0 }],
        });
        assert_eq!(resp, NetResponse::Error(ErrorFrame::DeadlineExceeded));
        assert_eq!(
            shared.deadline_rejections.load(Ordering::Relaxed),
            before + 1
        );

        // Release the worker; its late reply to the dropped receiver must
        // be harmless (shutdown on drop would hang otherwise).
        barrier.wait();
    }

    #[test]
    fn budget_is_carved_across_tenants() {
        let server = fleet(NetConfig {
            workers: 2,
            cache_budget: 1 << 20,
            ..NetConfig::default()
        });
        let budgets: Vec<u64> = server
            .shared
            .tenants
            .iter()
            .map(|t| t.serve.stats().budget_bytes)
            .collect();
        assert_eq!(budgets.iter().sum::<u64>(), 1 << 20);
        assert!(budgets.iter().all(|&b| b > 0));
    }
}
