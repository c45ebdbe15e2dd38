//! 3-D extents and index arithmetic.

/// Extents of a 3-D grid. Row-major with `z` fastest:
/// `idx = (x·ny + y)·nz + z`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Dims3 {
    /// Slowest-varying extent.
    pub nx: usize,
    /// Middle extent.
    pub ny: usize,
    /// Fastest-varying extent.
    pub nz: usize,
}

impl Dims3 {
    /// Constructs extents.
    pub const fn new(nx: usize, ny: usize, nz: usize) -> Self {
        Dims3 { nx, ny, nz }
    }

    /// Cubic extents `n³`.
    pub const fn cube(n: usize) -> Self {
        Dims3 {
            nx: n,
            ny: n,
            nz: n,
        }
    }

    /// Total number of cells.
    #[inline]
    pub const fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// [`Self::len`] for extents read from outside the program: `None` when
    /// the product overflows.
    #[inline]
    pub const fn checked_len(&self) -> Option<usize> {
        match self.nx.checked_mul(self.ny) {
            Some(xy) => xy.checked_mul(self.nz),
            None => None,
        }
    }

    /// True iff any extent is zero.
    #[inline]
    pub const fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear index of `(x, y, z)`.
    #[inline]
    pub const fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        (x * self.ny + y) * self.nz + z
    }

    /// Inverse of [`Self::idx`].
    #[inline]
    pub const fn coords(&self, idx: usize) -> (usize, usize, usize) {
        let z = idx % self.nz;
        let rest = idx / self.nz;
        (rest / self.ny, rest % self.ny, z)
    }

    /// True when `(x, y, z)` lies inside the grid.
    #[inline]
    pub const fn contains(&self, x: usize, y: usize, z: usize) -> bool {
        x < self.nx && y < self.ny && z < self.nz
    }

    /// Extents as an array `[nx, ny, nz]`.
    #[inline]
    pub const fn as_array(&self) -> [usize; 3] {
        [self.nx, self.ny, self.nz]
    }

    /// Component-wise integer division, rounding up.
    #[inline]
    pub const fn div_ceil(&self, d: usize) -> Dims3 {
        Dims3 {
            nx: self.nx.div_ceil(d),
            ny: self.ny.div_ceil(d),
            nz: self.nz.div_ceil(d),
        }
    }

    /// Component-wise scaling.
    #[inline]
    pub const fn scaled(&self, s: usize) -> Dims3 {
        Dims3 {
            nx: self.nx * s,
            ny: self.ny * s,
            nz: self.nz * s,
        }
    }

    /// Largest extent.
    #[inline]
    pub fn max_extent(&self) -> usize {
        self.nx.max(self.ny).max(self.nz)
    }

    /// Smallest extent.
    #[inline]
    pub fn min_extent(&self) -> usize {
        self.nx.min(self.ny).min(self.nz)
    }
}

impl std::fmt::Display for Dims3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.nx, self.ny, self.nz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        let d = Dims3::new(4, 5, 6);
        for x in 0..4 {
            for y in 0..5 {
                for z in 0..6 {
                    let i = d.idx(x, y, z);
                    assert_eq!(d.coords(i), (x, y, z));
                }
            }
        }
        assert_eq!(d.len(), 120);
    }

    #[test]
    fn z_is_fastest() {
        let d = Dims3::new(2, 2, 8);
        assert_eq!(d.idx(0, 0, 1) - d.idx(0, 0, 0), 1);
        assert_eq!(d.idx(0, 1, 0) - d.idx(0, 0, 0), 8);
        assert_eq!(d.idx(1, 0, 0) - d.idx(0, 0, 0), 16);
    }

    #[test]
    fn div_ceil_and_scale() {
        let d = Dims3::new(10, 16, 7);
        assert_eq!(d.div_ceil(4), Dims3::new(3, 4, 2));
        assert_eq!(d.div_ceil(4).scaled(4), Dims3::new(12, 16, 8));
    }

    #[test]
    fn contains_bounds() {
        let d = Dims3::cube(3);
        assert!(d.contains(2, 2, 2));
        assert!(!d.contains(3, 0, 0));
        assert!(!d.contains(0, 3, 0));
        assert!(!d.contains(0, 0, 3));
    }

    #[test]
    fn display() {
        assert_eq!(Dims3::new(512, 512, 512).to_string(), "512x512x512");
    }
}
