//! `net_serve` — the remote viewer's side: cache, queueing and framing
//! under mixed hits and misses.
//!
//! Two tenants (an sz3 store and a smaller zfp one) behind an in-process
//! `NetServer` on loopback, with a cache budget that leaves the sz3 tenant
//! about a third of its decoded size, so hits, misses and evictions all
//! occur. Two
//! closed-loop `NetClient` connections each replay a seeded script of
//! single-query batches: 85 % ROI boxes with Zipf(1.1)-skewed origins over a
//! 4×4×4 lattice, 10 % coarsest-level reads, 5 % isovalue reads; 80 % of
//! requests go to the sz3 tenant. `net` (framing, CRC, sockets, shard
//! queues) and `serve` (LRU, single-flight, planner) do most of the work,
//! `store`/codec decode only on misses: the cache-using counterpart of
//! `cold_read`.

use super::{digest, digest_mr, timed, Ctx, Quality, Recorder, Round, TracedOp, Workload, REL_EB};
use crate::gen::{self, Rng, Zipf};
use crate::trace::{self, span};
use hqmr_core::Backend;
use hqmr_grid::{Dims3, Field3};
use hqmr_mr::{to_adaptive, MultiResData, RoiConfig, Upsample};
use hqmr_net::{DatasetSpec, NetClient, NetConfig, NetServer};
use hqmr_serve::{partition_budget, CacheStats, Query, Response, StoreServer};
use hqmr_store::{write_store, StoreConfig, StoreReader};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Closed-loop connections; `BENCHMARK.json`'s runner has two cores.
const CLIENTS: usize = 2;
/// Every n-th timed response is digested against the oracle.
const SAMPLE_EVERY: usize = 16;
/// Share of the sz3 tenant's decoded size its cache partition may hold.
const MAIN_CACHE_SHARE: f64 = 0.6;
/// Retry budget per request, as the repo's own storm clients use.
const RETRIES: usize = 16;

/// One hosted dataset.
struct Tenant {
    field: Field3,
    backend: Backend,
    eb: f64,
    fill: f32,
    iso: f32,
    path: PathBuf,
    /// ROI origins in Zipf rank order.
    lattice: Vec<[usize; 3]>,
    store_bytes: u64,
    reader: Option<Arc<StoreReader>>,
}

/// One scripted request and where its answer's digest lives.
#[derive(Clone, Copy)]
struct Req {
    tenant: usize,
    query: Query,
    oracle: usize,
}

/// What a client measured on one request.
struct Sample {
    started: Instant,
    req: Req,
    seconds: f64,
}

pub struct NetServe {
    tenants: [Tenant; 2],
    roi_side: usize,
    requests: usize,
    seed: u64,
    traced: bool,
    /// Per-client request scripts, replayed identically every round.
    scripts: Vec<Vec<Req>>,
    /// Distinct queries across the scripts, and their answers' digests
    /// from a bare `StoreReader`.
    distinct: Vec<(usize, Query)>,
    oracle: Vec<u64>,
    server: Option<NetServer>,
    clients: Vec<NetClient>,
    /// In-process twin of the server's per-tenant caches (traced run).
    mirror: Vec<StoreServer>,
    budget: usize,
    next_op: u32,
}

fn digest_response(r: &Response) -> u64 {
    match r {
        Response::Roi(f) => digest(f.data()),
        Response::Level(l) | Response::Iso(l) => digest_mr(&MultiResData {
            domain: l.dims,
            levels: vec![l.clone()],
        }),
    }
}

/// `f32` payload bytes of a response.
fn response_bytes(r: &Response) -> f64 {
    match r {
        Response::Roi(f) => (f.len() * 4) as f64,
        Response::Level(l) | Response::Iso(l) => (l.covered_cells() * 4) as f64,
    }
}

impl Tenant {
    fn new(ctx: &Ctx, dims: Dims3, backend: Backend, label: u64) -> Self {
        let field = gen::warpx(dims, ctx.seed ^ label);
        let (mn, mx) = field.min_max();
        // Which box holds which popularity rank is fixed; the seed picks one
        // of the eight symmetries of the transverse plane to apply to it.
        // The proxy is symmetric about the beam axis, so every seed ranks
        // boxes of the same cost (fine-block count, chunks touched) alike,
        // where a free shuffle moved throughput by ±7 % between seeds.
        let mut lattice = gen::roi_lattice(dims, ctx.sizes.roi_side, 4, 16);
        gen::shuffle(&mut lattice, &mut Rng::fork(0x5EED_07A7, label));
        let sym = Rng::fork(ctx.seed, label).below(8);
        let span = [dims.nx - ctx.sizes.roi_side, dims.ny - ctx.sizes.roi_side];
        for o in &mut lattice {
            if sym & 1 != 0 {
                o[0] = span[0] - o[0];
            }
            if sym & 2 != 0 {
                o[1] = span[1] - o[1];
            }
            if sym & 4 != 0 && dims.nx == dims.ny {
                o.swap(0, 1);
            }
        }
        Tenant {
            eb: (mx - mn) as f64 * REL_EB,
            fill: mn,
            iso: mn + 0.65 * (mx - mn),
            path: ctx.dir.join(format!("net_serve_{}.hqst", backend.name())),
            field,
            backend,
            lattice,
            store_bytes: 0,
            reader: None,
        }
    }

    /// Writes the store file and opens it; returns its decoded size.
    fn build(&mut self) -> Result<usize, String> {
        let mr = to_adaptive(&self.field, &RoiConfig::paper_default());
        let codec = self.backend.codec();
        let buf = write_store(&mr, &StoreConfig::new(self.eb), codec.as_ref());
        std::fs::write(&self.path, &buf).map_err(|e| e.to_string())?;
        self.store_bytes = buf.len() as u64;
        self.reader = Some(Arc::new(
            StoreReader::open(&self.path).map_err(|e| e.to_string())?,
        ));
        Ok(mr.total_cells() * 4)
    }

    fn reader(&self) -> &Arc<StoreReader> {
        self.reader.as_ref().expect("set up")
    }
}

impl NetServe {
    pub fn new(ctx: &Ctx) -> Self {
        NetServe {
            tenants: [
                Tenant::new(ctx, ctx.sizes.big, Backend::SZ3, 0xA),
                Tenant::new(ctx, ctx.sizes.small, Backend::ZFP, 0xB),
            ],
            roi_side: ctx.sizes.roi_side,
            requests: ctx.sizes.net_requests,
            seed: ctx.seed,
            traced: ctx.traced,
            scripts: Vec::new(),
            distinct: Vec::new(),
            oracle: Vec::new(),
            server: None,
            clients: Vec::new(),
            mirror: Vec::new(),
            budget: 0,
            next_op: 1,
        }
    }

    /// Builds each client's script and interns its distinct queries.
    ///
    /// The mix is stratified rather than drawn request by request: every
    /// script has exactly its 80/20 tenant split, its 85/10/5 kind split and
    /// the Zipf(1.1) popularity histogram by quantiles, so that two seeds
    /// differ in the order of requests and in which box holds which rank,
    /// not in how many hits a script happens to contain.
    fn build_scripts(&mut self) {
        let n = self.requests;
        let zipf = Zipf::new(self.tenants[0].lattice.len(), 1.1);
        self.distinct.clear();
        let mut scripts = Vec::with_capacity(CLIENTS);
        for c in 0..CLIENTS {
            let mut rng = Rng::fork(self.seed, 0xC11E + c as u64);
            let mut tenants: Vec<usize> = (0..n).map(|i| usize::from(i * 5 >= n * 4)).collect();
            // 0 = ROI, 1 = coarsest level, 2 = isovalue read.
            let mut kinds: Vec<u8> = (0..n)
                .map(|i| match i * 100 / n {
                    0..=84 => 0,
                    85..=94 => 1,
                    _ => 2,
                })
                .collect();
            let rois = kinds.iter().filter(|&&k| k == 0).count();
            let mut ranks: Vec<usize> = (0..rois)
                .map(|j| zipf.quantile((j as f64 + 0.5) / rois as f64))
                .collect();
            gen::shuffle(&mut tenants, &mut rng);
            gen::shuffle(&mut kinds, &mut rng);
            gen::shuffle(&mut ranks, &mut rng);
            let mut script = Vec::with_capacity(n);
            for (tenant, kind) in tenants.into_iter().zip(kinds) {
                let t = &self.tenants[tenant];
                let coarsest = t.reader().meta().levels.len() - 1;
                let query = match kind {
                    0 => gen::roi_query(
                        t.lattice[ranks.pop().expect("one rank per ROI request")],
                        self.roi_side,
                        t.fill,
                    ),
                    1 => Query::Level { level: coarsest },
                    _ => Query::Iso {
                        level: coarsest,
                        iso: t.iso,
                    },
                };
                let key = (tenant, query);
                let oracle = self
                    .distinct
                    .iter()
                    .position(|k| *k == key)
                    .unwrap_or_else(|| {
                        self.distinct.push(key);
                        self.distinct.len() - 1
                    });
                script.push(Req {
                    tenant,
                    query,
                    oracle,
                });
            }
            scripts.push(script);
        }
        self.scripts = scripts;
    }

    /// Cheap shape check on every response.
    fn shape_ok(&self, req: &Req, resp: &Response) -> bool {
        let meta = self.tenants[req.tenant].reader().meta();
        match (req.query, resp) {
            (Query::Roi { .. }, Response::Roi(f)) => f.dims() == Dims3::cube(self.roi_side),
            (Query::Level { level }, Response::Level(l))
            | (Query::Iso { level, .. }, Response::Iso(l)) => {
                l.dims == meta.levels[level].dims && !l.blocks.is_empty()
            }
            _ => false,
        }
    }

    /// One client's pass over its script. Returns its wall time, delivered
    /// bytes and per-request samples.
    fn client_pass(
        &self,
        client: &mut NetClient,
        script: &[Req],
        rec: &mut Recorder,
        check_all: bool,
        start: &Barrier,
    ) -> (f64, f64, Vec<Sample>) {
        let mut samples = Vec::with_capacity(script.len());
        let mut bytes = 0.0;
        start.wait();
        let t0 = Instant::now();
        for (i, req) in script.iter().enumerate() {
            let started = Instant::now();
            let res = client.batch_retry(req.tenant as u32, &[req.query], RETRIES);
            let seconds = started.elapsed().as_secs_f64();
            let outcome = match res {
                Ok(rs) if rs.len() == 1 && self.shape_ok(req, &rs[0]) => {
                    bytes += response_bytes(&rs[0]);
                    if (check_all || i % SAMPLE_EVERY == 0)
                        && digest_response(&rs[0]) != self.oracle[req.oracle]
                    {
                        Err(format!(
                            "{:?}: bytes differ from the bare reader",
                            req.query
                        ))
                    } else {
                        Ok(())
                    }
                }
                Ok(_) => Err(format!("{:?}: wrong response shape", req.query)),
                Err(e) => Err(format!("{:?}: {e}", req.query)),
            };
            rec.op(seconds, outcome);
            samples.push(Sample {
                started,
                req: *req,
                seconds,
            });
        }
        (t0.elapsed().as_secs_f64(), bytes, samples)
    }

    /// All clients run their scripts side by side; the round lasts until
    /// the slower one is done.
    fn run_clients(&mut self, rec: &mut Recorder, check_all: bool) -> (Round, Vec<Sample>) {
        let mut clients = std::mem::take(&mut self.clients);
        let start = Barrier::new(clients.len());
        let this = &*self;
        let passes: Vec<(f64, f64, Vec<Sample>, Recorder)> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(&this.scripts)
                .map(|(client, script)| {
                    let keep = rec.keep;
                    let start = &start;
                    s.spawn(move || {
                        let mut mine = Recorder {
                            keep,
                            ..Recorder::default()
                        };
                        let (wall, bytes, samples) =
                            this.client_pass(client, script, &mut mine, check_all, start);
                        (wall, bytes, samples, mine)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread panicked"))
                .collect()
        });
        self.clients = clients;
        let mut round = Round {
            wall_s: 0.0,
            field_bytes: 0.0,
        };
        let mut samples = Vec::new();
        for (wall, bytes, s, mine) in passes {
            round.wall_s = round.wall_s.max(wall);
            round.field_bytes += bytes;
            samples.extend(s);
            rec.absorb(mine);
        }
        (round, samples)
    }

    fn server_stats(&mut self) -> Option<(CacheStats, u64)> {
        let client = self.clients.first_mut()?;
        let mut total = CacheStats::default();
        let mut busy = 0;
        for tenant in 0..2 {
            let s = client.stats(tenant, false).ok()?;
            total.hits += s.cache.hits;
            total.misses += s.cache.misses;
            total.shared += s.cache.shared;
            total.evictions += s.cache.evictions;
            busy = s.busy_rejections;
        }
        Some((total, busy))
    }
}

impl Workload for NetServe {
    fn setup(&mut self) -> Result<(), String> {
        self.clients.clear();
        self.server = None; // shuts the previous fleet down
        let mut decoded = [0usize; 2];
        for (t, d) in self.tenants.iter_mut().zip(&mut decoded) {
            *d = t.build()?;
        }
        // The fleet carves the global budget by *compressed* size, and the
        // sz3 tenant (8× the cells, 80 % of the requests) compresses to a
        // third of the bytes: size the global budget so that its share is
        // `MAIN_CACHE_SHARE` of its decoded size. The zfp tenant then fits
        // whole; the sz3 tenant's working set does not, so hits, misses and
        // evictions all occur, with hits in the clear majority (a hit
        // ratio near one half would put `op_ms_p50` on the boundary
        // between a hit's latency and a miss's).
        let compressed: Vec<u64> = self.tenants.iter().map(|t| t.store_bytes).collect();
        self.budget = (MAIN_CACHE_SHARE * decoded[0] as f64 * compressed.iter().sum::<u64>() as f64
            / compressed[0] as f64) as usize;
        let datasets = self
            .tenants
            .iter()
            .enumerate()
            .map(|(id, t)| DatasetSpec {
                id: id as u32,
                name: t.backend.name().to_string(),
                reader: Arc::clone(t.reader()),
            })
            .collect();
        let cfg = NetConfig {
            cache_budget: self.budget,
            ..NetConfig::default()
        };
        let server = NetServer::spawn("127.0.0.1:0", cfg, datasets).map_err(|e| e.to_string())?;
        for _ in 0..CLIENTS {
            self.clients
                .push(NetClient::connect(server.local_addr()).map_err(|e| e.to_string())?);
        }
        self.server = Some(server);
        Ok(())
    }

    fn prepare_checks(&mut self) -> Result<(), String> {
        self.build_scripts();
        self.oracle = self
            .distinct
            .iter()
            .map(|&(tenant, query)| {
                let r = self.tenants[tenant].reader();
                let resp = match query {
                    Query::Roi {
                        level,
                        lo,
                        hi,
                        fill,
                    } => r.read_roi(level, lo, hi, fill).map(Response::Roi),
                    Query::Level { level } => r.read_level(level).map(Response::Level),
                    Query::Iso { level, iso } => r.read_level_iso(level, iso).map(Response::Iso),
                };
                resp.map(|r| digest_response(&r)).map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        if self.traced {
            let weights: Vec<u64> = self
                .tenants
                .iter()
                .map(|t| t.reader().meta().compressed_bytes())
                .collect();
            self.mirror = self
                .tenants
                .iter()
                .zip(partition_budget(self.budget, &weights))
                .map(|(t, budget)| StoreServer::new(Arc::clone(t.reader()), budget))
                .collect();
        }
        Ok(())
    }

    fn begin_timed(&mut self) {
        // Drain the cache ledgers so hit ratios cover the timed phase only.
        if let Some(client) = self.clients.first_mut() {
            for tenant in 0..2 {
                let _ = client.stats(tenant, true);
            }
        }
    }

    fn round(&mut self, rec: &mut Recorder, full_check: bool) -> Round {
        self.run_clients(rec, full_check).0
    }

    fn traced_round(&mut self, rec: &mut Recorder, ops: &mut Vec<TracedOp>) -> Round {
        let (round, mut samples) = trace::paused(|| self.run_clients(rec, false));
        // Replay on the twin caches in the order the server saw the
        // requests start, one at a time: the clients are not disturbed
        // while they measure, and the twin sees the same sequence.
        samples.sort_by_key(|s| s.started);
        for s in samples {
            let op_id = self.next_op;
            self.next_op += 1;
            trace::begin_op(op_id);
            let (res, replay_s) = timed(|| {
                span("serve.serve_batch", || {
                    self.mirror[s.req.tenant].serve_batch(&[s.req.query])
                })
            });
            // Socket, shard queue, frame encode/CRC/decode and the thread
            // hand-offs: everything the TCP path adds to the in-process
            // call. None of it can be called from outside `hqmr-net`.
            trace::derived("net.wire", s.seconds - replay_s);
            let ok = matches!(&res, Ok(rs) if rs.len() == 1
                && digest_response(&rs[0]) == self.oracle[s.req.oracle]);
            if !ok {
                rec.check(Err(format!("{:?}: in-process replay differs", s.req.query)));
            }
            ops.push(TracedOp {
                op_id,
                one_call_s: s.seconds,
            });
        }
        round
    }

    fn quality(&mut self, rec: &mut Recorder) -> Quality {
        let (mut stored, mut input, mut psnr) = (0u64, 0usize, 0.0);
        for t in &self.tenants {
            stored += t.store_bytes;
            input += t.field.len() * 4;
            match t.reader().read_all() {
                Ok(all) => {
                    psnr += hqmr_metrics::psnr(&t.field, &all.reconstruct(Upsample::Nearest)) / 2.0
                }
                Err(e) => rec.check(Err(format!("quality read-back: {e}"))),
            }
        }
        Quality {
            stored_bytes_per_input_byte: stored as f64 / input as f64,
            psnr_db: psnr,
        }
    }

    fn counters(&mut self) -> Vec<(&'static str, f64)> {
        let Some((c, busy)) = self.server_stats() else {
            return Vec::new();
        };
        let lookups = (c.hits + c.misses).max(1) as f64;
        vec![
            ("serve.hit_ratio", c.hits as f64 / lookups),
            ("serve.misses", c.misses as f64),
            ("serve.evictions", c.evictions as f64),
            ("serve.shared_joins", c.shared as f64),
            ("net.busy_rejections", busy as f64),
        ]
    }

    fn teardown(&mut self) {
        self.clients.clear();
        self.server = None;
        for t in &self.tenants {
            let _ = std::fs::remove_file(&t.path);
        }
    }
}
