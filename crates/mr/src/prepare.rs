//! The compression-prep stage shared by every container format.
//!
//! Both the monolithic MRC stream (`hqmr-core::mrc`) and the block-indexed
//! store (`hqmr-store`) feed levels through the same two steps before any
//! codec runs: arrange unit blocks into dense arrays ([`crate::merge_level`])
//! and
//! pad the two small dimensions of linear merges when the unit is large
//! enough to make the overhead worthwhile ([`should_pad`], §III-A).
//! Keeping the stage here — below both containers — guarantees the two
//! formats produce byte-identical codec inputs for the same configuration,
//! which is what makes the store's per-chunk streams bit-for-bit comparable
//! with the monolithic stream's per-array streams.
//!
//! The layout sidecar ([`encode_layout`] / [`decode_layout`]) records, per
//! merged array, whether it was padded plus every `(array slot, level
//! origin)` placement pair, so a decoder can split a decompressed array back
//! into unit blocks without any external context.

use crate::merge::{merge_blocks, MergeStrategy, MergedArray};
use crate::padding::{pad_small_dims, should_pad, PadKind};
use crate::types::{LevelData, UnitBlock};
use hqmr_codec::schema::{self, Arr, Layout, Pair, Seq, Var};
use hqmr_codec::{Cur, Fault};
use hqmr_grid::Field3;

/// One level's compression-ready arrays — the output of the pre-processing
/// stage (merge + pad), before any codec runs.
///
/// Unpadded levels do not duplicate their data: the compression-ready field
/// *is* the merged array, borrowed in place. Only padded levels materialize
/// separate (padded) fields.
#[derive(Debug, Clone)]
pub struct PreparedLevel {
    arrays: Vec<MergedArray>,
    /// Padded variants of `arrays[i].field`; empty when `!padded`.
    padded_fields: Vec<Field3>,
    padded: bool,
}

impl PreparedLevel {
    /// Number of dense arrays this level produced.
    pub fn array_count(&self) -> usize {
        self.arrays.len()
    }

    /// Whether padding was applied.
    pub fn padded(&self) -> bool {
        self.padded
    }

    /// The merged arrays (layout + original, unpadded data).
    pub fn arrays(&self) -> &[MergedArray] {
        &self.arrays
    }

    /// The compression-ready field of array `i`: the padded variant when
    /// [`Self::padded`], the merged array itself otherwise.
    pub fn field(&self, i: usize) -> &Field3 {
        if self.padded {
            &self.padded_fields[i]
        } else {
            &self.arrays[i].field
        }
    }

    /// Iterates the compression-ready fields, aligned index-wise with
    /// [`Self::arrays`].
    pub fn fields(&self) -> impl Iterator<Item = &Field3> {
        (0..self.arrays.len()).map(move |i| self.field(i))
    }

    /// Iterates `(layout, compression-ready field)` pairs — one per block a
    /// container writer would compress independently.
    pub fn blocks(&self) -> impl Iterator<Item = (&MergedArray, &Field3)> {
        self.arrays
            .iter()
            .enumerate()
            .map(move |(i, m)| (m, self.field(i)))
    }
}

/// Whether this merge × pad × unit combination pads (linear merges only, and
/// only above the `u = 4` overhead cutoff).
pub fn pads(merge: MergeStrategy, pad: Option<PadKind>, unit: usize) -> bool {
    pad.is_some() && merge == MergeStrategy::Linear && should_pad(unit)
}

/// Pre-processing stage: merge (and pad) one level into compression-ready
/// arrays. Split out from encoding so in-situ writers can time it separately
/// (Table IV) and so block-indexed containers can compress each array
/// independently.
pub fn prepare_level(
    level: &LevelData,
    merge: MergeStrategy,
    pad: Option<PadKind>,
) -> PreparedLevel {
    prepare_blocks(&level.blocks, level.unit, merge, pad)
}

/// [`prepare_level`] over a borrowed block slice — the entry point for
/// chunked containers (`hqmr-store`), which tile a level into groups and
/// prepare each group without copying the block data into a temporary
/// [`LevelData`].
pub fn prepare_blocks(
    blocks: &[UnitBlock],
    unit: usize,
    merge: MergeStrategy,
    pad: Option<PadKind>,
) -> PreparedLevel {
    let arrays = merge_blocks(blocks, unit, merge);
    let padded = pads(merge, pad, unit);
    let padded_fields = if padded {
        arrays
            .iter()
            .map(|m| pad_small_dims(&m.field, pad.unwrap_or(PadKind::Linear)))
            .collect()
    } else {
        // Unpadded: codecs read the merged arrays directly — no copy.
        Vec::new()
    };
    PreparedLevel {
        arrays,
        padded_fields,
        padded,
    }
}

/// `(slot, origin)` placement pairs of a merged array.
pub type LayoutSlots = Vec<([usize; 3], [usize; 3])>;

type SlotsL = Seq<Pair<Arr<Var, 3>, Arr<Var, 3>>>;

/// A merged array's layout: padded flag, unit, and every `(slot, origin)`
/// pair. Any nonzero flag byte reads as padded.
struct MergeL;
impl Layout for MergeL {
    type T = (bool, usize, LayoutSlots);
    const MIN: usize = 3;
    fn put((padded, unit, slots): &Self::T, out: &mut Vec<u8>) {
        out.push(u8::from(*padded));
        Var::put(unit, out);
        SlotsL::put(slots, out);
    }
    fn get(c: &mut Cur<'_>) -> Result<Self::T, Fault> {
        let padded = c.u8()? != 0;
        Ok((padded, Var::get(c)?, SlotsL::get(c)?))
    }
}

/// Serializes a merged array's layout: padded flag, unit, and every
/// `(slot, origin)` pair.
pub fn encode_layout(padded: bool, unit: usize, slots: &[([usize; 3], [usize; 3])]) -> Vec<u8> {
    schema::encode::<MergeL>(&(padded, unit, slots.to_vec()))
}

/// Parses [`encode_layout`] output: `(padded, unit, slots)`. Bytes after
/// the layout are ignored.
pub fn decode_layout(bytes: &[u8]) -> Result<(bool, usize, LayoutSlots), Fault> {
    MergeL::get(&mut Cur::new(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::UnitBlock;
    use hqmr_grid::Dims3;

    fn level(unit: usize, n: usize) -> LevelData {
        LevelData {
            level: 0,
            unit,
            dims: Dims3::new(unit, unit, unit * n),
            blocks: (0..n)
                .map(|i| UnitBlock {
                    origin: [0, 0, i * unit],
                    data: (0..unit.pow(3)).map(|k| (i * 1000 + k) as f32).collect(),
                })
                .collect(),
        }
    }

    #[test]
    fn pad_cutoff_follows_unit_and_strategy() {
        assert!(pads(MergeStrategy::Linear, Some(PadKind::Linear), 8));
        assert!(!pads(MergeStrategy::Linear, Some(PadKind::Linear), 4));
        assert!(!pads(MergeStrategy::Stack, Some(PadKind::Linear), 8));
        assert!(!pads(MergeStrategy::Linear, None, 8));
    }

    #[test]
    fn prepared_fields_carry_padding() {
        let lvl = level(8, 3);
        let prep = prepare_level(&lvl, MergeStrategy::Linear, Some(PadKind::Linear));
        assert!(prep.padded());
        assert_eq!(prep.array_count(), 1);
        assert_eq!(prep.field(0).dims(), Dims3::new(9, 9, 24));
        assert_eq!(prep.arrays()[0].field.dims(), Dims3::new(8, 8, 24));
        assert_eq!(prep.blocks().count(), 1);
    }

    #[test]
    fn layout_roundtrip() {
        let lvl = level(4, 5);
        let prep = prepare_level(&lvl, MergeStrategy::Linear, None);
        let m = &prep.arrays()[0];
        let bytes = encode_layout(prep.padded(), m.unit, &m.slots);
        let (padded, unit, slots) = decode_layout(&bytes).unwrap();
        assert!(!padded);
        assert_eq!(unit, 4);
        assert_eq!(slots, m.slots);
        // Truncation never panics.
        for cut in 0..bytes.len() {
            let _ = decode_layout(&bytes[..cut]);
        }
        assert!(decode_layout(&[]).is_err());
    }
}
