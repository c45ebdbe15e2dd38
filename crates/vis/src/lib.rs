//! Visualization for the workflow's quality and uncertainty analysis.
//!
//! * [`iso`] — isosurface machinery: per-cell crossing tests, connected
//!   surface features (the cyan/green boxes of Fig. 14 are quantified as
//!   features present/missing/recovered), and mesh extraction. Meshes are
//!   extracted by marching *tetrahedra* — a table-free, watertight equivalent
//!   of marching cubes (DESIGN.md §2 records the substitution; all Fig. 14
//!   statistics depend only on cell crossings, which are identical).
//! * [`pmc`] — probabilistic marching cubes (Pöthkow et al., the paper's
//!   §III-C): per-voxel Gaussian uncertainty → per-cell level-crossing
//!   probability, closed form under independence plus a Monte-Carlo variant
//!   with spatial correlation.
//! * [`render`] — 2-D slice rendering with colormaps and PPM output for the
//!   visual-comparison figures.
//!
//! The cell kernels of [`iso`] and [`pmc`] share one walk over the grid (the
//! private `cells` module): a vertex is evaluated once per plane, and a cell
//! is visited only if its corners can disagree.

mod cells;
pub mod iso;
pub mod pmc;
pub mod render;

pub use iso::{
    cell_crossings, components_of, extract_isosurface, features_bbox, surface_features, IsoMesh,
    SurfaceFeature,
};
pub use pmc::{crossing_probability_field, gaussian_cdf, PmcConfig};
pub use render::{render_slice, save_ppm, Colormap, Image};
