//! `cold_read` — the post-hoc analyst's side: decode-dominated, no cache
//! anywhere.
//!
//! One op is a fixed exploration script on a freshly opened store file:
//! `read_all`, eight seeded ROI boxes, two isovalue reads and one full
//! progressive walk. `store` fetch/CRC/decode/slab assembly and the sz3
//! decoder do all the work; `serve` and `net` are bypassed, so a cache or
//! wire change must predict no change here.

use super::{
    check_bound, digest, digest_mr, same, timed, Ctx, Quality, Recorder, Round, TracedOp, Workload,
    REL_EB,
};
use crate::gen::{self, Rng};
use crate::trace::{self, span, TracedSource};
use hqmr_core::Backend;
use hqmr_grid::Field3;
use hqmr_mr::{to_adaptive, LevelData, MultiResData, RoiConfig, Upsample};
use hqmr_store::{read, write_store, ChunkSource, StoreConfig, StoreError, StoreReader};
use std::path::PathBuf;

/// ROI boxes per op.
const ROIS: usize = 8;

pub struct ColdRead {
    field: Field3,
    eb: f64,
    fill: f32,
    /// Isovalues for the two isovalue reads: (level, iso).
    isos: [(usize, f32); 2],
    rois: Vec<[usize; 3]>,
    roi_side: usize,
    path: PathBuf,
    /// The adaptive form the store was written from (the bound's reference).
    mr: Option<MultiResData>,
    store_bytes: u64,
    /// Output digests recorded by the fully checked warm-up op.
    expect: Option<Digests>,
    /// Chunks and compressed bytes the last traced op decoded.
    last_decoded: (u64, u64),
    next_op: u32,
}

/// Digest of every output of one op, in script order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Digests(Vec<u64>);

/// Everything one op returns.
struct Outputs {
    all: MultiResData,
    rois: Vec<Field3>,
    isos: Vec<LevelData>,
    steps: Vec<Field3>,
    chunks_decoded: u64,
    bytes_decoded: u64,
}

impl Outputs {
    fn digests(&self) -> Digests {
        let mut d = vec![digest_mr(&self.all)];
        d.extend(self.rois.iter().map(|f| digest(f.data())));
        d.extend(self.isos.iter().map(|l| {
            digest_mr(&MultiResData {
                domain: l.dims,
                levels: vec![l.clone()],
            })
        }));
        d.extend(self.steps.iter().map(|f| digest(f.data())));
        Digests(d)
    }

    /// `f32` bytes handed to the caller.
    fn field_bytes(&self) -> f64 {
        let cells = self.all.total_cells()
            + self.rois.iter().map(Field3::len).sum::<usize>()
            + self
                .isos
                .iter()
                .map(LevelData::covered_cells)
                .sum::<usize>()
            + self.steps.iter().map(Field3::len).sum::<usize>();
        (cells * 4) as f64
    }
}

impl ColdRead {
    pub fn new(ctx: &Ctx) -> Self {
        let field = gen::warpx(ctx.sizes.big, ctx.seed);
        let (mn, mx) = field.min_max();
        let eb = (mx - mn) as f64 * REL_EB;
        let mut rng = Rng::fork(ctx.seed, 0xC01D);
        let mut lattice = gen::roi_lattice(ctx.sizes.big, ctx.sizes.roi_side, 4, 16);
        gen::shuffle(&mut lattice, &mut rng);
        lattice.truncate(ROIS);
        ColdRead {
            eb,
            fill: mn,
            isos: [(0, mn + 0.65 * (mx - mn)), (1, mn + 0.45 * (mx - mn))],
            rois: lattice,
            roi_side: ctx.sizes.roi_side,
            path: ctx.dir.join("cold_read.hqst"),
            field,
            mr: None,
            store_bytes: 0,
            expect: None,
            last_decoded: (0, 0),
            next_op: 1,
        }
    }

    /// The op script over any chunk source; `src` is the bare reader in the
    /// untraced run and the span-recording source in the replay.
    fn script<S: ChunkSource>(&self, src: &S, reader: &StoreReader) -> Result<Outputs, StoreError> {
        let all = span("store.read_all", || read::read_all(src))?;
        let rois = self
            .rois
            .iter()
            .map(|&lo| {
                let hi = lo.map(|o| o + self.roi_side);
                span("store.read_roi", || {
                    read::read_roi(src, 0, lo, hi, self.fill)
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let isos = self
            .isos
            .iter()
            .map(|&(level, iso)| span("store.read_iso", || read::read_level_iso(src, level, iso)))
            .collect::<Result<Vec<_>, _>>()?;
        let steps = span("store.progressive", || {
            read::progressive(src, Upsample::Nearest)
                .map(|s| s.map(|s| s.field))
                .collect::<Result<Vec<_>, _>>()
        })?;
        Ok(Outputs {
            all,
            rois,
            isos,
            steps,
            chunks_decoded: reader.chunks_decoded(),
            bytes_decoded: reader.bytes_decoded(),
        })
    }

    /// The op as a user performs it: open the file, run the script.
    fn op(&self) -> Result<Outputs, StoreError> {
        let reader = StoreReader::open(&self.path)?;
        self.script(&reader, &reader)
    }

    /// Checks one op's outputs against paths that share no code with the
    /// reads that produced them.
    fn full_check(&self, out: &Outputs) -> Result<(), String> {
        let mr = self.mr.as_ref().expect("set up");
        check_bound(mr, &out.all, self.eb)?;
        let fine = out.all.levels[0].to_field(self.fill);
        for (lo, roi) in self.rois.iter().zip(&out.rois) {
            let want = fine.extract_box(*lo, roi.dims());
            same(
                "roi vs cropped level",
                digest(roi.data()),
                digest(want.data()),
            )?;
        }
        for (&(level, _), got) in self.isos.iter().zip(&out.isos) {
            if got.blocks.len() != mr.levels[level].blocks.len() {
                return Err(format!("iso read of level {level} lost blocks"));
            }
        }
        let last = out.steps.last().ok_or("progressive yielded no step")?;
        let want = out.all.reconstruct(Upsample::Nearest);
        same(
            "progressive end vs reconstruct",
            digest(last.data()),
            digest(want.data()),
        )
    }

    fn check(&mut self, out: &Outputs, full: bool) -> Result<(), String> {
        let got = out.digests();
        if full {
            self.full_check(out)?;
            match &self.expect {
                Some(want) if *want != got => return Err("outputs changed between ops".into()),
                _ => self.expect = Some(got),
            }
            return Ok(());
        }
        match &self.expect {
            Some(want) if *want == got => Ok(()),
            Some(_) => Err("outputs differ from the checked warm-up op".into()),
            None => Err("no checked warm-up op to compare against".into()),
        }
    }
}

impl Workload for ColdRead {
    fn setup(&mut self) -> Result<(), String> {
        let mr = to_adaptive(&self.field, &RoiConfig::paper_default());
        let codec = Backend::SZ3.codec();
        let buf = write_store(&mr, &StoreConfig::new(self.eb), codec.as_ref());
        std::fs::write(&self.path, &buf).map_err(|e| e.to_string())?;
        let reader = StoreReader::open(&self.path).map_err(|e| e.to_string())?;
        self.store_bytes = buf.len() as u64;
        if reader.meta().chunk_count() == 0 {
            return Err("store has no chunks".into());
        }
        self.mr = Some(mr);
        Ok(())
    }

    fn round(&mut self, rec: &mut Recorder, full_check: bool) -> Round {
        let (out, secs) = timed(|| self.op());
        let mut bytes = 0.0;
        let outcome = match out {
            Ok(out) => {
                bytes = out.field_bytes();
                self.check(&out, full_check)
            }
            Err(e) => Err(e.to_string()),
        };
        rec.op(secs, outcome);
        Round {
            wall_s: secs,
            field_bytes: bytes,
        }
    }

    fn traced_round(&mut self, rec: &mut Recorder, ops: &mut Vec<TracedOp>) -> Round {
        let op_id = self.next_op;
        self.next_op += 1;
        let (out, secs) = trace::paused(|| timed(|| self.op()));
        trace::begin_op(op_id);
        let replay = span("store.open", || StoreReader::open(&self.path)).and_then(|reader| {
            let src = TracedSource::new(&reader);
            self.script(&src, &reader)
        });
        let mut bytes = 0.0;
        let outcome = match (out, replay) {
            (Ok(out), Ok(replay)) => {
                bytes = out.field_bytes();
                self.last_decoded = (out.chunks_decoded, out.bytes_decoded);
                self.check(&out, false).and_then(|()| {
                    if out.digests() != replay.digests()
                        || (out.chunks_decoded, out.bytes_decoded)
                            != (replay.chunks_decoded, replay.bytes_decoded)
                    {
                        Err("replay differs from the one-call op".into())
                    } else {
                        Ok(())
                    }
                })
            }
            (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
        };
        rec.op(secs, outcome);
        ops.push(TracedOp {
            op_id,
            one_call_s: secs,
        });
        Round {
            wall_s: secs,
            field_bytes: bytes,
        }
    }

    fn quality(&mut self, rec: &mut Recorder) -> Quality {
        let psnr_db = match StoreReader::open(&self.path).and_then(|r| r.read_all()) {
            Ok(all) => hqmr_metrics::psnr(&self.field, &all.reconstruct(Upsample::Nearest)),
            Err(e) => {
                rec.check(Err(format!("quality read-back: {e}")));
                0.0
            }
        };
        Quality {
            stored_bytes_per_input_byte: self.store_bytes as f64 / (self.field.len() * 4) as f64,
            psnr_db,
        }
    }

    fn counters(&mut self) -> Vec<(&'static str, f64)> {
        vec![
            ("store.chunks_decoded", self.last_decoded.0 as f64),
            ("store.bytes_decoded", self.last_decoded.1 as f64),
        ]
    }

    fn teardown(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}
