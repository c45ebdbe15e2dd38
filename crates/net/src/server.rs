//! The serving fleet: one TCP listener, a thread per connection, and a pool
//! of decode workers behind one bounded queue.
//!
//! # Architecture
//!
//! ```text
//!   resident batch: cache → frame → socket, on the connection's thread
//!
//! accept ─ conn ─┐                                     ┌ worker 0   ┐
//! accept ─ conn ─┼─ anything that may decode ─▶ queue ─┤    …       ├ any tenant
//! accept ─ conn ─┘◀──────────── answer ────────────────└ worker W−1 ┘
//! ```
//!
//! Each connection gets its own thread that parses frames, builds every
//! response frame and writes it to the socket. What it *computes* itself is
//! only what cannot block on a decode: catalog and stats requests, a batch
//! (of either kind) that does not plan, and one whose every chunk is
//! resident in its tenant's cache ([`StoreServer::serve_resident`] — one
//! lock acquisition checks and harvests, on the thread that is about to
//! write the answer anyway; no queue, no hand-off, no wake-up). Everything
//! decode-bearing — a batch with a miss, a progressive read — goes through
//! **one** bounded queue that every worker pulls from: a full queue is an
//! immediate [`ErrorFrame::Busy`] response, never an unbounded backlog, and
//! [`NetConfig::request_deadline`] bounds the wait for the answer. Exact
//! batches stay [`ResponseParts`] — still in the decoded chunks — and the
//! connection thread encodes its frame straight from the slabs
//! ([`encode_batch_parts_into`]): a cached cell is copied once, into the
//! frame.
//!
//! Any worker serves any tenant. Datasets used to be pinned to one worker
//! each so that "two shards never duplicate a chunk"; since every tenant has
//! exactly one [`StoreServer`] — one LRU, one in-flight table that joins
//! concurrent misses of a chunk whichever threads they come from — the pin
//! bought nothing and serialised a popular tenant's clients behind each
//! other's misses. [`NetConfig::workers`] now bounds how many decode-bearing
//! requests run at once, [`NetConfig::queue_depth`]` × workers` how many may
//! wait.
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
    batch_parts_len, encode_batch_parts_into, parse_header, read_hello, recycle, write_hello,
    DatasetInfo, ErrorFrame, NetResponse, ProtocolError, Request, ServerStats, DEFAULT_MAX_FRAME,
    HEADER_LEN,
};
use hqmr_mr::Upsample;
use hqmr_serve::{
    partition_budget, FaultHook, OnCorrupt, Query, QueryResult, ResponseParts, StoreServer,
};
use hqmr_store::{StoreError, StoreReader, Throttle};
use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the accept loop looks for a pending connection. It parks
/// between looks and [`NetServer::shutdown`] unparks it, so shutdown waits
/// for no poll — and needs no wake connection (which can fail and then hang
/// a blocking accept).
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// One dataset to host: an id (the addressing key), a human-readable name,
/// and an opened store.
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
    /// Decode worker count — how many decode-bearing requests (a batch with
    /// a cache miss, a progressive read) run at once, whichever datasets
    /// they name; `0` means one per available core. Batches answered wholly
    /// from cache never occupy a worker.
    pub workers: usize,
    /// Waiting room per worker: the fleet's one job queue holds
    /// `queue_depth × workers` requests. A full queue produces
    /// [`ErrorFrame::Busy`] responses instead of queueing without limit.
    pub queue_depth: usize,
    /// Hard cap on concurrent connections (admission control).
    pub max_connections: usize,
    /// Global decoded-chunk cache budget in bytes, carved across tenants
    /// weighted by compressed store size. [`hqmr_serve::UNBOUNDED`] turns
    /// eviction off everywhere.
    pub cache_budget: usize,
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
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            request_deadline: Some(Duration::from_secs(60)),
            chaos: None,
            parity_group: 0,
            scrub_rate: None,
        }
    }
}

/// One hosted dataset and its caching server.
struct Tenant {
    id: u32,
    name: String,
    serve: StoreServer,
}

/// Decode-bearing work routed to the workers.
enum Work {
    /// One batch under its wire kind's policy.
    Batch(Vec<Query>, OnCorrupt),
    Progressive(Upsample),
    /// Test hook: parks the worker on a barrier so queue-full behaviour can
    /// be exercised deterministically.
    #[cfg(test)]
    Park(Arc<std::sync::Barrier>),
}

struct Job {
    tenant: usize,
    work: Work,
    reply: mpsc::SyncSender<Answer>,
}

/// What a request is answered with.
enum Answer {
    /// An exact batch, still in the decoded chunks it is made of; its frame
    /// is written straight from them.
    Batch(Vec<ResponseParts>),
    /// Every other answer, owned.
    Other(NetResponse),
}

impl Answer {
    fn error(e: ErrorFrame) -> Answer {
        Answer::Other(NetResponse::Error(e))
    }

    /// A read's result as the answer that travels.
    fn served<T>(served: Result<T, StoreError>, ok: impl FnOnce(T) -> Answer) -> Answer {
        served.map_or_else(|e| Answer::error(ErrorFrame::Store((&e).into())), ok)
    }

    /// A batch's result as its wire kind's answer: exact answers stay in
    /// their chunks, filled ones are owned and flagged.
    fn batch(
        served: Result<Vec<QueryResult<ResponseParts>>, StoreError>,
        on_corrupt: OnCorrupt,
    ) -> Answer {
        Answer::served(served, |results| match on_corrupt {
            OnCorrupt::Fail => Answer::Batch(results.into_iter().map(|r| r.response).collect()),
            OnCorrupt::Fill => {
                let owned = results.iter().map(QueryResult::to_owned).collect();
                Answer::Other(NetResponse::BatchDegraded(owned))
            }
        })
    }

    /// Builds the answer's frame in `frame`, replacing its contents. An
    /// answer over [`DEFAULT_MAX_FRAME`], which every client refuses unread,
    /// is answered `BadRequest` instead — for an exact batch, before its
    /// first byte is written.
    fn encode_into(&self, req_id: u64, frame: &mut Vec<u8>) {
        let len = match self {
            Answer::Batch(parts) => batch_parts_len(parts),
            Answer::Other(resp) => {
                resp.encode_into(req_id, frame);
                frame.len() - HEADER_LEN
            }
        };
        if len > DEFAULT_MAX_FRAME {
            let over = format!("answer body {len} B exceeds frame cap {DEFAULT_MAX_FRAME} B");
            NetResponse::Error(ErrorFrame::BadRequest(over)).encode_into(req_id, frame);
        } else if let Answer::Batch(parts) = self {
            encode_batch_parts_into(parts, req_id, frame);
        }
    }
}

/// The fleet's one job queue: bounded, any worker takes the next job, and
/// closable — [`JobQueue::close`] wakes every idle worker at once, so
/// shutdown waits for no poll however many workers there are.
struct JobQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    capacity: usize,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    fn new(capacity: usize) -> Self {
        let state = QueueState {
            jobs: VecDeque::new(),
            closed: false,
        };
        JobQueue {
            state: Mutex::new(state),
            ready: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().expect("job queue lock poisoned")
    }

    /// Queues `job`, or hands it back if the queue is full or closed.
    fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut st = self.lock();
        if st.closed || st.jobs.len() >= self.capacity {
            return Err(job);
        }
        st.jobs.push_back(job);
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// The next job, waiting for one if need be; `None` once the queue is
    /// closed *and* drained — jobs queued before the close are still served.
    fn pop(&self) -> Option<Job> {
        let mut st = self.lock();
        loop {
            if let Some(job) = st.jobs.pop_front() {
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).expect("job queue lock poisoned");
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

struct Shared {
    cfg: NetConfig,
    tenants: Vec<Tenant>,
    by_id: HashMap<u32, usize>,
    queue: JobQueue,
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

    /// Routes one parsed request to its answer: catalog and stats inline,
    /// everything that reads data through [`Shared::dispatch`]. This is the
    /// single choke point the Busy path runs through, for both real
    /// connections and the deterministic unit tests.
    fn route(&self, req: Request) -> Answer {
        match req {
            Request::List => Answer::Other(self.catalog()),
            Request::Stats { dataset, take } => match self.tenant(dataset) {
                Err(e) => Answer::error(e),
                Ok(t) => {
                    let serve = &self.tenants[t].serve;
                    let cache = if take {
                        serve.take_stats()
                    } else {
                        serve.stats()
                    };
                    // Rejection and scrub counters are server-global; they
                    // are *peeked* (never drained) regardless of `take`.
                    Answer::Other(NetResponse::Stats(ServerStats {
                        cache,
                        busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
                        admission_rejections: self.admission_rejections.load(Ordering::Relaxed),
                        deadline_rejections: self.deadline_rejections.load(Ordering::Relaxed),
                        scrub_passes: self.scrub_passes.load(Ordering::Relaxed),
                        scrub_verified: self.scrub_verified.load(Ordering::Relaxed),
                        scrub_repaired: self.scrub_repaired.load(Ordering::Relaxed),
                        scrub_unrepairable: self.scrub_unrepairable.load(Ordering::Relaxed),
                    }))
                }
            },
            Request::Batch { dataset, queries } => {
                self.dispatch(dataset, Work::Batch(queries, OnCorrupt::Fail))
            }
            Request::BatchDegraded { dataset, queries } => {
                self.dispatch(dataset, Work::Batch(queries, OnCorrupt::Fill))
            }
            Request::Progressive { dataset, scheme } => {
                self.dispatch(dataset, Work::Progressive(scheme))
            }
        }
    }

    /// Answers data-reading work: a batch that fails to plan or whose
    /// chunks are all resident is answered right here, on the calling
    /// (connection) thread; anything that may decode waits for a worker —
    /// within the queue's bound and the request deadline.
    fn dispatch(&self, dataset: u32, work: Work) -> Answer {
        let tenant = match self.tenant(dataset) {
            Ok(t) => t,
            Err(e) => return Answer::error(e),
        };
        if let Work::Batch(queries, on_corrupt) = &work {
            let serve = &self.tenants[tenant].serve;
            if let Some(served) = serve.serve_resident(queries, *on_corrupt).transpose() {
                return Answer::batch(served, *on_corrupt);
            }
        }
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let job = Job {
            tenant,
            work,
            reply: reply_tx,
        };
        if self.queue.try_push(job).is_err() {
            // Full queue is backpressure by design; a closed one means
            // shutdown is in progress — same client-side answer: come back
            // later.
            self.busy_rejections.fetch_add(1, Ordering::Relaxed);
            return Answer::error(ErrorFrame::Busy);
        }
        match self.cfg.request_deadline {
            // The deadline covers queue wait + decode; on expiry the
            // receiver is dropped, so the worker's late `send` fails
            // harmlessly and the client holds a typed answer instead of a
            // hang.
            Some(d) => match reply_rx.recv_timeout(d) {
                Ok(answer) => answer,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    self.deadline_rejections.fetch_add(1, Ordering::Relaxed);
                    Answer::error(ErrorFrame::DeadlineExceeded)
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => Answer::error(ErrorFrame::Busy),
            },
            None => reply_rx
                .recv()
                .unwrap_or_else(|_| Answer::error(ErrorFrame::Busy)),
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

/// One decode worker: serves whatever job is next, for whichever tenant,
/// until the queue is closed and drained.
fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        let serve = &shared.tenants[job.tenant].serve;
        let answer = match job.work {
            Work::Batch(queries, on_corrupt) => {
                Answer::batch(serve.serve(&queries, on_corrupt), on_corrupt)
            }
            Work::Progressive(scheme) => {
                let steps = serve.progressive(scheme).collect::<Result<_, _>>();
                Answer::served(steps.map(NetResponse::Progressive), Answer::Other)
            }
            #[cfg(test)]
            Work::Park(barrier) => {
                barrier.wait();
                Answer::error(ErrorFrame::Busy)
            }
        };
        // A vanished client is not the worker's problem.
        let _ = job.reply.send(answer);
    }
}

/// One admitted connection's share of `max_connections`. It is taken before
/// the connection's thread is spawned and moved into it, so the slot goes
/// back to the gauge however the connection ends — including a spawn that
/// fails and drops the closure unrun.
struct ConnSlot(Arc<Shared>);

impl ConnSlot {
    /// Counts a connection into the live-connection gauge, or counts an
    /// admission rejection and returns `None` when the server is full.
    fn admit(shared: &Arc<Shared>) -> Option<ConnSlot> {
        let prev = shared.live_conns.fetch_add(1, Ordering::AcqRel);
        if prev >= shared.cfg.max_connections {
            shared.live_conns.fetch_sub(1, Ordering::AcqRel);
            shared.admission_rejections.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        Some(ConnSlot(Arc::clone(shared)))
    }
}

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.0.live_conns.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Builds `answer`'s frame in `frame` — the connection's reused buffer — and
/// hands it to the (unbuffered) socket in one `write_all`: header and body
/// leave together instead of as two `TCP_NODELAY` segments. The answer (and
/// any cached chunks it holds) is released before the socket is waited on.
fn send_response(
    w: &mut impl Write,
    frame: &mut Vec<u8>,
    req_id: u64,
    answer: Answer,
) -> Result<(), ProtocolError> {
    answer.encode_into(req_id, frame);
    drop(answer);
    let sent = w.write_all(frame);
    recycle(frame);
    Ok(sent?)
}

/// Unix read/write timeouts surface as `WouldBlock`, other platforms as
/// `TimedOut`; treat both as the timeout they are.
pub(crate) fn is_timeout(e: &std::io::Error) -> bool {
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
                let late = Answer::error(ErrorFrame::DeadlineExceeded);
                let _ = send_response(&mut writer, &mut frame, 0, late);
                return Ok(());
            }
        }
        let raw = match parse_header(&header, DEFAULT_MAX_FRAME) {
            Ok(raw) => raw,
            // Framing-level corruption: answer typed, then hang up (the
            // byte stream is no longer trustworthy).
            Err(e) => {
                let bad = Answer::error(ErrorFrame::BadRequest(e.to_string()));
                let _ = send_response(&mut writer, &mut frame, 0, bad);
                return Err(e);
            }
        };
        body.resize(raw.body_len, 0);
        match read_patient(&mut reader, &mut body) {
            ReadOutcome::Full => {}
            ReadOutcome::Closed | ReadOutcome::Err => return Ok(()),
            ReadOutcome::Idle | ReadOutcome::Stalled => {
                let late = Answer::error(ErrorFrame::DeadlineExceeded);
                let _ = send_response(&mut writer, &mut frame, raw.header.req_id, late);
                return Ok(());
            }
        }
        if let Err(e) = raw.verify(&body) {
            let bad = Answer::error(ErrorFrame::BadRequest(e.to_string()));
            let _ = send_response(&mut writer, &mut frame, raw.header.req_id, bad);
            return Err(e);
        }
        let answer = match Request::decode(raw.header.kind, &body) {
            // Body-level malformation: the frame boundary held, so answer
            // typed and keep the connection.
            Err(e) => Answer::error(ErrorFrame::BadRequest(e.to_string())),
            Ok(req) => shared.route(req),
        };
        recycle(&mut body);
        send_response(&mut writer, &mut frame, raw.header.req_id, answer)?;
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
    if write_hello(&mut stream).is_ok() {
        let full = Answer::error(ErrorFrame::TooManyConnections);
        let _ = send_response(&mut stream, &mut Vec::new(), 0, full);
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
    /// decode workers on one job queue, and a per-tenant [`StoreServer`]
    /// with its slice of the global cache budget.
    pub fn spawn(
        addr: impl ToSocketAddrs,
        cfg: NetConfig,
        datasets: Vec<DatasetSpec>,
    ) -> std::io::Result<NetServer> {
        let fault_hook = cfg.chaos.as_ref().and_then(chunk_fault_hook);
        Self::spawn_with(addr, cfg, datasets, fault_hook)
    }

    /// [`NetServer::spawn`] with every tenant's chunk fault hook given
    /// rather than derived from [`NetConfig::chaos`].
    fn spawn_with(
        addr: impl ToSocketAddrs,
        cfg: NetConfig,
        datasets: Vec<DatasetSpec>,
        fault_hook: Option<FaultHook>,
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
            });
        }

        let shared = Arc::new(Shared {
            cfg,
            tenants,
            by_id,
            queue: JobQueue::new(queue_depth.saturating_mul(workers)),
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

        let worker_handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hqnw-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("hqnw-accept".into())
                .spawn(move || {
                    // Non-blocking accept + parked poll: shutdown unparks
                    // the loop and never depends on one more connection
                    // arriving to wake it.
                    let _ = listener.set_nonblocking(true);
                    let mut conn_id: u64 = 0;
                    loop {
                        if shared.stop.load(Ordering::Acquire) {
                            return;
                        }
                        let stream = match listener.accept() {
                            Ok((s, _)) => s,
                            // Nothing pending — or a transient accept error
                            // (e.g. the peer reset before we got to it),
                            // which is not fatal to the listener.
                            Err(_) => {
                                std::thread::park_timeout(ACCEPT_POLL);
                                continue;
                            }
                        };
                        // Some platforms let accepted sockets inherit the
                        // listener's non-blocking mode; the frame loop
                        // relies on blocking reads with timeouts.
                        let _ = stream.set_nonblocking(false);
                        conn_id += 1;
                        let Some(slot) = ConnSlot::admit(&shared) else {
                            reject_connection(stream);
                            continue;
                        };
                        // A failed spawn drops the closure, and the slot
                        // with it: the connection closes unserved and the
                        // server keeps its full capacity.
                        let _ =
                            std::thread::Builder::new()
                                .name("hqnw-conn".into())
                                .spawn(move || {
                                    let _ = serve_connection(&slot.0, stream, conn_id);
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

    /// Stops accepting, lets the workers answer what is already queued,
    /// and joins them — idle threads are woken, not waited out. Live
    /// connections see their next decode-bearing request answered as Busy
    /// (queue closed) and then close from the client side. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        self.shared.queue.close();
        if let Some(h) = self.accept.take() {
            h.thread().unpark();
            let _ = h.join();
        }
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

    impl Answer {
        /// The owned response a client would decode from this answer.
        fn into_response(self) -> NetResponse {
            match self {
                Answer::Batch(parts) => {
                    NetResponse::Batch(parts.iter().map(ResponseParts::to_owned).collect())
                }
                Answer::Other(resp) => resp,
            }
        }
    }

    impl Shared {
        fn respond(&self, req: Request) -> NetResponse {
            self.route(req).into_response()
        }

        /// Queues `work` for tenant 0 as a connection would, waiting out a
        /// momentarily full queue; the returned receiver gets the answer.
        fn enqueue(&self, work: Work) -> mpsc::Receiver<Answer> {
            let (reply, answer) = mpsc::sync_channel(1);
            let mut job = Job {
                tenant: 0,
                work,
                reply,
            };
            let patience = std::time::Instant::now() + Duration::from_secs(30);
            while let Err(back) = self.queue.try_push(job) {
                assert!(std::time::Instant::now() < patience, "queue never drained");
                job = back;
                std::thread::yield_now();
            }
            answer
        }

        /// Parks one worker on a fresh two-party barrier until the returned
        /// guard is released (or dropped).
        fn park_worker(&self) -> Parked {
            let barrier = Arc::new(std::sync::Barrier::new(2));
            let reply = self.enqueue(Work::Park(Arc::clone(&barrier)));
            Parked {
                barrier: Some(barrier),
                _reply: reply,
            }
        }
    }

    /// A worker held at a barrier. Dropping the guard lets it go, so a
    /// failed assertion unwinds into a clean shutdown instead of a join on
    /// a thread that waits forever (declare it after the server).
    struct Parked {
        barrier: Option<Arc<std::sync::Barrier>>,
        /// Keeps the parked job's reply slot open for its late send.
        _reply: mpsc::Receiver<Answer>,
    }

    impl Parked {
        fn release(&mut self) {
            if let Some(barrier) = self.barrier.take() {
                barrier.wait();
            }
        }
    }

    impl Drop for Parked {
        fn drop(&mut self) {
            self.release();
        }
    }

    /// A two-party meeting point that gives up: `arrive` returns whether
    /// the other party showed up within `patience`.
    #[derive(Default)]
    struct Meet {
        arrived: Mutex<usize>,
        both: Condvar,
    }

    impl Meet {
        fn arrive(&self, patience: Duration) -> bool {
            let mut arrived = self.arrived.lock().unwrap();
            *arrived += 1;
            self.both.notify_all();
            let both = |n: &mut usize| *n < 2;
            let wait = self.both.wait_timeout_while(arrived, patience, both);
            !wait.unwrap().1.timed_out()
        }
    }

    fn level0() -> Work {
        Work::Batch(vec![Query::Level { level: 0 }], OnCorrupt::Fail)
    }

    fn fleet(cfg: NetConfig) -> NetServer {
        fleet_of(cfg, [demo_reader(1), demo_reader(2)].into(), None)
    }

    /// A fleet hosting `readers` as datasets `0..`, with `hook` on every
    /// chunk fetch.
    fn fleet_of(
        cfg: NetConfig,
        readers: Vec<Arc<StoreReader>>,
        hook: Option<FaultHook>,
    ) -> NetServer {
        let datasets = (0..).zip(["alpha", "beta"]).zip(readers);
        let datasets = datasets.map(|((id, name), reader)| DatasetSpec {
            id,
            name: name.into(),
            reader,
        });
        NetServer::spawn_with("127.0.0.1:0", cfg, datasets.collect(), hook).expect("spawn fleet")
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
        let NetResponse::Datasets(list) = server.shared.respond(Request::List) else {
            panic!("expected catalog");
        };
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].name, "alpha");
        assert!(list[0].compressed_bytes > 0);

        let NetResponse::Stats(stats) = server.shared.respond(Request::Stats {
            dataset: 1,
            take: false,
        }) else {
            panic!("expected stats");
        };
        assert_eq!(stats.cache.requests, 0);
        assert_eq!(stats.scrub_passes, 0);

        let resp = server.shared.respond(Request::Stats {
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
        let NetResponse::Batch(via_net) = server.shared.respond(Request::Batch {
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
        let resp = server.shared.respond(Request::Batch {
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

    /// A connection's slot goes back however its thread ends — also when the
    /// thread never runs: a failed spawn drops the closure that owns the
    /// slot, and the server must keep its full `max_connections`.
    #[test]
    fn an_admitted_slot_dropped_unserved_frees_its_connection() {
        let server = fleet(NetConfig {
            workers: 1,
            max_connections: 1,
            ..NetConfig::default()
        });
        let shared = &server.shared;
        let slot = ConnSlot::admit(shared).expect("an empty server admits");
        assert_eq!(shared.live_conns.load(Ordering::Acquire), 1);
        assert!(ConnSlot::admit(shared).is_none(), "the one slot is taken");
        assert_eq!(shared.admission_rejections.load(Ordering::Relaxed), 1);
        // What a failed spawn does with the connection's body: drops it unrun.
        let body = move || slot.0.live_conns.load(Ordering::Acquire);
        drop(body);
        assert_eq!(shared.live_conns.load(Ordering::Acquire), 0);
        assert!(ConnSlot::admit(shared).is_some(), "the slot is free again");
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
        let mut parked = shared.park_worker();

        // Occupy the queue's one slot (free once the parked job is pulled
        // off it).
        let queued = shared.enqueue(level0());

        // Queue full, worker parked → immediate Busy, counted.
        let before = shared.busy_rejections.load(Ordering::Relaxed);
        let resp = shared.respond(Request::Batch {
            dataset: 0,
            queries: vec![Query::Level { level: 0 }],
        });
        assert_eq!(resp, NetResponse::Error(ErrorFrame::Busy));
        assert_eq!(shared.busy_rejections.load(Ordering::Relaxed), before + 1);

        // Release the worker; the queued job must still complete.
        parked.release();
        let queued = queued.recv().expect("queued job completes");
        assert!(matches!(queued, Answer::Batch(_)));
    }

    /// A resident batch needs no worker: with the only worker parked and
    /// the queue full, a batch of either kind whose chunks are all cached
    /// is still answered — on its own thread — and so is one that does not
    /// plan, while one that needs a decode gets Busy.
    #[test]
    fn resident_batch_is_answered_while_the_worker_is_parked() {
        let server = fleet(NetConfig {
            workers: 1,
            queue_depth: 1,
            ..NetConfig::default()
        });
        let shared = &server.shared;
        let warm = Request::Batch {
            dataset: 0,
            queries: vec![Query::Level { level: 1 }],
        };
        let expected = shared.respond(warm.clone());
        assert!(matches!(expected, NetResponse::Batch(_)));
        let ledger = shared.tenants[0].serve.stats();

        let mut parked = shared.park_worker();
        let queued = shared.enqueue(level0());

        assert_eq!(shared.respond(warm), expected);
        let after = shared.tenants[0].serve.stats();
        assert_eq!(after.misses, ledger.misses, "nothing decoded");
        assert_eq!(
            after.hits, ledger.misses,
            "each chunk counted once, as a hit"
        );
        assert_eq!(shared.busy_rejections.load(Ordering::Relaxed), 0);

        // A resident degraded batch is answered here too, exactly; a batch
        // that does not plan gets its typed error, not a queue slot.
        let NetResponse::Batch(exact) = expected else {
            unreachable!("checked above");
        };
        let exact = exact.into_iter().map(|response| QueryResult {
            response,
            degraded: Vec::new(),
        });
        let degraded = shared.respond(Request::BatchDegraded {
            dataset: 0,
            queries: vec![Query::Level { level: 1 }],
        });
        assert_eq!(degraded, NetResponse::BatchDegraded(exact.collect()));
        let malformed = shared.respond(Request::Batch {
            dataset: 0,
            queries: vec![Query::Level { level: 99 }],
        });
        let no_such_level = crate::proto::WireStoreError::NoSuchLevel(99);
        assert_eq!(
            malformed,
            NetResponse::Error(ErrorFrame::Store(no_such_level))
        );
        assert_eq!(shared.busy_rejections.load(Ordering::Relaxed), 0);

        let cold = shared.respond(Request::Batch {
            dataset: 0,
            queries: vec![Query::Level { level: 0 }],
        });
        assert_eq!(cold, NetResponse::Error(ErrorFrame::Busy));
        assert_eq!(shared.busy_rejections.load(Ordering::Relaxed), 1);

        parked.release();
        assert!(matches!(queued.recv(), Ok(Answer::Batch(_))));
    }

    /// Any worker serves any tenant: two requests that each miss one chunk
    /// of the *same* dataset decode side by side. Each decode's fault hook
    /// waits (ten seconds at most) for the other's, so a fleet that ran them
    /// one after the other — a tenant pinned to one worker — never has both
    /// at the meeting point.
    #[test]
    fn two_misses_of_one_tenant_decode_side_by_side() {
        let meet = Arc::new(Meet::default());
        let met = Arc::new(AtomicBool::new(true));
        let hook: FaultHook = {
            let (meet, met) = (Arc::clone(&meet), Arc::clone(&met));
            Arc::new(move |_, _| {
                met.fetch_and(meet.arrive(Duration::from_secs(10)), Ordering::SeqCst);
                false
            })
        };
        let reader = demo_reader(1);
        let chunks = &reader.meta().levels[0].chunks;
        assert!(chunks.len() >= 2, "need two chunks to miss");
        let unit = chunks[0].unit;
        // One-chunk queries: each names one block of a different chunk.
        let queries = [0, chunks.len() - 1].map(|c| {
            let lo = chunks[c].slots[0].1;
            Query::Roi {
                level: 0,
                lo,
                hi: lo.map(|o| o + unit),
                fill: 0.0,
            }
        });
        let serve = StoreServer::unbounded(Arc::clone(&reader));
        for q in &queries {
            assert_eq!(serve.plan(&[*q]).unwrap().len(), 1, "one chunk per query");
        }
        let expected = queries.map(|q| serve.serve_batch(&[q]).unwrap());

        let server = fleet_of(
            NetConfig {
                workers: 2,
                request_deadline: Some(Duration::from_secs(20)),
                ..NetConfig::default()
            },
            vec![reader],
            Some(hook),
        );
        let shared = &server.shared;
        let answers: Vec<NetResponse> = std::thread::scope(|s| {
            let asked: Vec<_> = queries
                .iter()
                .map(|&q| {
                    s.spawn(move || {
                        shared.respond(Request::Batch {
                            dataset: 0,
                            queries: vec![q],
                        })
                    })
                })
                .collect();
            asked.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(
            met.load(Ordering::SeqCst),
            "the two decodes never overlapped"
        );
        for (answer, expected) in answers.into_iter().zip(expected) {
            assert_eq!(answer, NetResponse::Batch(expected));
        }
    }

    /// Shutdown wakes idle threads instead of waiting out their polls: an
    /// idle eight-worker fleet is down in a fraction of the 50 ms a single
    /// worker's poll used to take (eight polls' worth behind a shared
    /// receiver). The fastest of five rounds is judged — a poll cannot be
    /// lucky five times, a loaded test machine cannot make waking slower
    /// than it is.
    #[test]
    fn idle_fleet_shuts_down_without_waiting_for_a_poll() {
        let rounds = (0..5).map(|_| {
            let mut server = fleet(NetConfig {
                workers: 8,
                ..NetConfig::default()
            });
            // Let every thread reach its idle wait first.
            std::thread::sleep(Duration::from_millis(20));
            let t0 = std::time::Instant::now();
            server.shutdown();
            t0.elapsed()
        });
        let fastest = rounds.min().unwrap();
        assert!(
            fastest < Duration::from_millis(10),
            "shutdown took {fastest:?}"
        );
    }

    #[test]
    fn degraded_batch_routes_through_shard() {
        let server = fleet(NetConfig {
            workers: 2,
            ..NetConfig::default()
        });
        let queries = vec![Query::Level { level: 0 }];
        let NetResponse::BatchDegraded(results) = server.shared.respond(Request::BatchDegraded {
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

        let mut parked = shared.park_worker();

        let before = shared.deadline_rejections.load(Ordering::Relaxed);
        let resp = shared.respond(Request::Batch {
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
        parked.release();
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
