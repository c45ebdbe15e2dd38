//! Dense 3-D scalar fields and the synthetic dataset proxies.
//!
//! Everything downstream (compressors, the multi-resolution model, metrics,
//! visualization) operates on [`Field3`], a row-major `f32` volume. The
//! [`synth`] module generates stand-ins for the paper's five applications
//! (Nyx, WarpX, IAMR Rayleigh–Taylor, Hurricane Isabel, S3D) — see DESIGN.md
//! §2 for the substitution argument.

pub mod block;
mod buffer;
pub mod dims;
pub mod field;
pub mod io;
pub mod stats;
pub mod synth;

pub use block::{BlockGrid, BlockRef};
pub use dims::Dims3;
pub use field::Field3;
pub use stats::FieldStats;
