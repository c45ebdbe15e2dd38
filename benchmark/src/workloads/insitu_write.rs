//! `insitu_write` — the simulation's side: encode-dominated, the only
//! writer.
//!
//! A round is one fresh temporal (`HQTM`) store directory; an op is one
//! timestep: `resample_like` into the frame-stable ROI layout, then
//! `TemporalWriter::append` (prepare → per-chunk try-both → compress → CRC →
//! parity → atomic write + fsync + rename). `mr`, the sz3 compress kernels,
//! `store` encode/parity and `core::insitu` publish do all the work; `serve`,
//! `net` and `vis` do none. A format change that speeds decode but costs
//! encode time or bytes shows here.

use super::{check_bound, timed, Ctx, Quality, Recorder, Round, TracedOp, Workload, REL_EB};
use crate::gen;
use crate::trace::{self, span, TracedCodec};
use hqmr_core::{MrcConfig, TemporalWriter};
use hqmr_grid::Field3;
use hqmr_mr::{resample_like, to_adaptive, MultiResData, RoiConfig, Upsample};
use hqmr_store::temporal::{Prediction, TemporalEncoder, TemporalReader};
use hqmr_store::{sidecar_bytes_for, DEFAULT_CHUNK_BLOCKS};
use std::path::{Path, PathBuf};

/// Timesteps per round.
const FRAMES: usize = 6;

pub struct InsituWrite {
    frames: Vec<Field3>,
    eb: f64,
    dir: PathBuf,
    /// The ROI layout, chosen once on frame 0 as an in-situ run does.
    template: Option<MultiResData>,
    /// Bytes on disk after a round, which must repeat exactly.
    dir_bytes: Option<u64>,
    next_op: u32,
}

impl InsituWrite {
    pub fn new(ctx: &Ctx) -> Self {
        let frames = gen::warpx_sequence(ctx.sizes.frame, FRAMES, ctx.seed);
        let (mn, mx) = frames[0].min_max();
        InsituWrite {
            eb: (mx - mn) as f64 * REL_EB,
            frames,
            dir: ctx.dir.join("insitu_write.hqtm"),
            template: None,
            dir_bytes: None,
            next_op: 1,
        }
    }

    fn cfg(&self) -> MrcConfig {
        MrcConfig::ours(self.eb)
    }

    fn fresh_writer(&self) -> Result<TemporalWriter, String> {
        let _ = std::fs::remove_dir_all(&self.dir);
        TemporalWriter::create(&self.dir, &self.cfg(), Prediction::delta())
            .map_err(|e| format!("create: {e}"))
    }

    /// Reads frames back through the delta chains and holds them to the
    /// bound; `all` checks every frame, otherwise only the last (whose
    /// chain runs through all the others).
    fn read_back(&self, all: bool) -> Result<(), String> {
        let template = self.template.as_ref().expect("set up");
        let reader = TemporalReader::open(&self.dir).map_err(|e| format!("reopen: {e}"))?;
        if reader.frame_count() != FRAMES {
            return Err(format!(
                "{} frames on disk, wrote {FRAMES}",
                reader.frame_count()
            ));
        }
        let first = if all { 0 } else { FRAMES - 1 };
        for t in first..FRAMES {
            let back = reader
                .read_frame(t)
                .map_err(|e| format!("frame {t}: {e}"))?;
            check_bound(&resample_like(template, &self.frames[t]), &back, self.eb)
                .map_err(|e| format!("frame {t}: {e}"))?;
        }
        Ok(())
    }

    /// Checks after a round: the read-back, and that the directory holds
    /// exactly as many bytes as every other round's.
    fn check_round(&mut self, rec: &mut Recorder, all: bool) {
        rec.check(self.read_back(all));
        let bytes = dir_bytes(&self.dir);
        match self.dir_bytes {
            Some(want) if want != bytes => rec.check(Err(format!(
                "round wrote {bytes} bytes, an earlier one {want}"
            ))),
            _ => self.dir_bytes = Some(bytes),
        }
    }
}

/// Total size of the regular files in `dir` (frames, parity sidecars,
/// manifest).
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl Workload for InsituWrite {
    fn setup(&mut self) -> Result<(), String> {
        self.template = Some(to_adaptive(&self.frames[0], &RoiConfig::paper_default()));
        self.fresh_writer().map(drop)
    }

    fn round(&mut self, rec: &mut Recorder, full_check: bool) -> Round {
        let template = self.template.as_ref().expect("set up");
        let mut round = Round {
            wall_s: 0.0,
            field_bytes: 0.0,
        };
        match self.fresh_writer() {
            Ok(mut writer) => {
                for (t, frame) in self.frames.iter().enumerate() {
                    let (res, secs) = timed(|| {
                        let mr = resample_like(template, frame);
                        writer.append(t as u64, &mr)
                    });
                    rec.op(secs, res.map(drop).map_err(|e| format!("append {t}: {e}")));
                    round.wall_s += secs;
                    round.field_bytes += (frame.len() * 4) as f64;
                }
            }
            Err(e) => rec.check(Err(e)),
        }
        self.check_round(rec, full_check);
        round
    }

    fn traced_round(&mut self, rec: &mut Recorder, ops: &mut Vec<TracedOp>) -> Round {
        let template = self.template.as_ref().expect("set up");
        let mut round = Round {
            wall_s: 0.0,
            field_bytes: 0.0,
        };
        let mut writer = match self.fresh_writer() {
            Ok(w) => w,
            Err(e) => {
                rec.check(Err(e));
                return round;
            }
        };
        // The replay's encoder runs in lockstep with the writer's own.
        let scfg = self.cfg().store_config(DEFAULT_CHUNK_BLOCKS);
        let mut encoder = TemporalEncoder::new(scfg, Prediction::delta());
        let codec = TracedCodec(self.cfg().backend.codec());
        let mut buf = Vec::new();
        for (t, frame) in self.frames.iter().enumerate() {
            let op_id = self.next_op;
            self.next_op += 1;
            let ((res, append_s), secs) = trace::paused(|| {
                timed(|| {
                    let mr = resample_like(template, frame);
                    timed(|| writer.append(t as u64, &mr))
                })
            });
            trace::begin_op(op_id);
            let mr = span("mr.resample_like", || resample_like(template, frame));
            let (flags, encode_s) = timed(|| {
                span("store.temporal_encode", || {
                    encoder.encode_frame_into(&mr, &codec, &mut buf)
                })
            });
            let (_, parity_s) = timed(|| {
                span("store.parity", || {
                    sidecar_bytes_for(&buf, scfg.parity_group)
                })
            });
            // What `append` does beyond encode and parity: three atomic
            // writes (frame, sidecar, manifest), each temp + fsync + rename +
            // directory fsync. `write_atomic` is private to `hqmr-core`, so
            // this is a difference, not a timed call.
            trace::derived("core.publish", append_s - encode_s - parity_s);
            let outcome = match (res, flags) {
                (Ok(rep), Ok(_)) => match std::fs::read(self.dir.join(&rep.file)) {
                    Ok(on_disk) if on_disk == buf => Ok(()),
                    Ok(_) => Err(format!("frame {t}: replay bytes differ from the file")),
                    Err(e) => Err(format!("frame {t}: {e}")),
                },
                (Err(e), _) => Err(format!("append {t}: {e}")),
                (_, Err(e)) => Err(format!("replay encode {t}: {e}")),
            };
            rec.op(secs, outcome);
            ops.push(TracedOp {
                op_id,
                one_call_s: secs,
            });
            round.wall_s += secs;
            round.field_bytes += (frame.len() * 4) as f64;
        }
        self.check_round(rec, false);
        round
    }

    fn quality(&mut self, rec: &mut Recorder) -> Quality {
        let input: usize = self.frames.iter().map(|f| f.len() * 4).sum();
        let last = FRAMES - 1;
        let psnr_db = match TemporalReader::open(&self.dir).and_then(|r| r.read_frame(last)) {
            Ok(back) => {
                hqmr_metrics::psnr(&self.frames[last], &back.reconstruct(Upsample::Nearest))
            }
            Err(e) => {
                rec.check(Err(format!("quality read-back: {e}")));
                0.0
            }
        };
        Quality {
            stored_bytes_per_input_byte: self.dir_bytes.unwrap_or(0) as f64 / input as f64,
            psnr_db,
        }
    }

    fn teardown(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
