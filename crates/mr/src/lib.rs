//! Multi-resolution data model (§III "ROI selection and preprocessing").
//!
//! Two producers build [`MultiResData`]:
//!
//! * [`adaptive::to_adaptive`] converts a *uniform* field into two levels via
//!   the paper's range-threshold ROI selector (top `x%` of `b³` blocks by
//!   value range stay fine; the rest are 2× downsampled);
//! * [`amr::to_amr`] builds a 2–3 level AMR-style hierarchy with target
//!   per-level densities, standing in for Nyx/IAMR refinement output.
//!
//! One consumer prepares levels for 3-D compression: [`merge`] arranges each
//! level's unit blocks into dense arrays (linear baseline, AMRIC's cubic
//! stacking, TAC's adjacency-preserving boxes) and [`padding`] adds the single
//! extrapolated layer on the two small dimensions that SZ3MR needs.

pub mod adaptive;
pub mod amr;
pub mod merge;
pub mod padding;
pub mod prepare;
pub mod temporal;
mod types;

pub use adaptive::{roi_only_field, to_adaptive, RoiConfig};
pub use amr::{to_amr, AmrConfig};
pub use merge::{
    check_slots, merge_blocks, merge_discontinuity, merge_level, split_blocks, unsplit_level,
    MergeStrategy, MergedArray,
};
pub use padding::{pad_small_dims, strip_padding, PadKind};
pub use prepare::{
    decode_layout, encode_layout, prepare_blocks, prepare_level, LayoutSlots, PreparedLevel,
};
pub use temporal::{resample_like, structure_matches};
pub use types::{insert_blocks_upsampled, LevelData, MultiResData, UnitBlock, Upsample};
