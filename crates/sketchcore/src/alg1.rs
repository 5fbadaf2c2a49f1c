//! Algorithm 1 — the outer blocking driver.
//!
//! `(⌈d/b_d⌉, 1, ⌈n/b_n⌉)`-blocking of `Â = S·A`: the outermost loop walks
//! vertical blocks of `A` (encouraging the sparse data and the active panel
//! of `Â` to stay cached), the inner loop walks row blocks of `S`/`Â`, and
//! the `m` dimension is not blocked. Each `(i, j)` iterate hands a
//! `d₁×n₁` block of `Â` to a compute kernel (Algorithm 3 or 4).

use crate::config::SketchConfig;

/// One block of the outer iteration space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OuterBlock {
    /// Row offset into `Â`/`S` (the `i` of Algorithm 1).
    pub i: usize,
    /// Rows in this block (`d₁ = d_stop − i + 1`).
    pub d1: usize,
    /// Column offset into `Â`/`A` (the `j` of Algorithm 1).
    pub j: usize,
    /// Columns in this block (`n₁ = n_stop − j + 1`).
    pub n1: usize,
}

/// Algorithm 1's row blocks `(i, d₁)` of `S`/`Â`, in loop order.
pub(crate) fn row_blocks(cfg: &SketchConfig) -> impl Iterator<Item = (usize, usize)> {
    let (d, b_d) = (cfg.d, cfg.b_d);
    (0..d).step_by(b_d).map(move |i| (i, b_d.min(d - i)))
}

/// Column blocks `(j, n₁)` of width `b_n` over `n` columns, in loop order.
pub(crate) fn col_blocks(b_n: usize, n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n).step_by(b_n).map(move |j| (j, b_n.min(n - j)))
}

/// The blocks of one column panel `j..j+n1`: every row block, in loop order.
pub(crate) fn panel(cfg: &SketchConfig, j: usize, n1: usize) -> impl Iterator<Item = OuterBlock> {
    row_blocks(cfg).map(move |(i, d1)| OuterBlock { i, d1, j, n1 })
}

/// Enumerate Algorithm 1's blocks in its loop order (columns outermost),
/// lazily: the count grows with `d·n`, so nothing collects them.
pub fn blocks(cfg: &SketchConfig, n: usize) -> impl Iterator<Item = OuterBlock> + '_ {
    col_blocks(cfg.b_n, n).flat_map(|(j, n1)| panel(cfg, j, n1))
}

/// Drive a compute kernel over Algorithm 1's blocks.
///
/// `kernel(block)` must add `S[i..i+d1, :] · A[:, j..j+n1]` into
/// `Â[i..i+d1, j..j+n1]`; the driver guarantees each block is visited
/// exactly once, in the paper's loop order.
pub fn drive<F: FnMut(OuterBlock)>(cfg: &SketchConfig, n: usize, mut kernel: F) {
    for b in blocks(cfg, n) {
        kernel(b);
    }
}

/// Write access to the column segments of `Â` a block kernel updates.
///
/// The kernels address the output only through this trait, so one kernel
/// body serves every driver: the sequential and column-panel drivers write
/// through a [`Panel`], the row-stripe drivers through a stripe window.
pub(crate) trait ColumnSegments<T> {
    /// Rows `i..i+d1` of column `col` of `Â`.
    fn segment(&mut self, col: usize, i: usize, d1: usize) -> &mut [T];
}

/// A column-major panel of `Â` holding columns `j0..`: the whole matrix for
/// the sequential drivers, one chunk of columns for the panel drivers.
pub(crate) struct Panel<'a, T> {
    data: &'a mut [T],
    d: usize,
    j0: usize,
}

impl<'a, T> Panel<'a, T> {
    /// View `data` (column-major, `d` rows per column) as columns `j0..`.
    pub(crate) fn new(data: &'a mut [T], d: usize, j0: usize) -> Self {
        Self { data, d, j0 }
    }
}

impl<T> ColumnSegments<T> for Panel<'_, T> {
    #[inline(always)]
    fn segment(&mut self, col: usize, i: usize, d1: usize) -> &mut [T] {
        let at = (col - self.j0) * self.d + i;
        &mut self.data[at..at + d1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_tile_exactly() {
        let cfg = SketchConfig::new(10, 4, 3, 0);
        let bs: Vec<_> = blocks(&cfg, 7).collect();
        // 3 column blocks (3,3,1) × 3 row blocks (4,4,2).
        assert_eq!(bs.len(), 9);
        let total: usize = bs.iter().map(|b| b.d1 * b.n1).sum();
        assert_eq!(total, 10 * 7);
        // Column loop outermost: first three blocks share j = 0.
        assert!(bs[..3].iter().all(|b| b.j == 0));
        assert_eq!(bs[0].i, 0);
        assert_eq!(bs[1].i, 4);
        assert_eq!(bs[2].i, 8);
        assert_eq!(bs[2].d1, 2);
        // Ragged last column block.
        assert_eq!(bs[8].j, 6);
        assert_eq!(bs[8].n1, 1);
    }

    #[test]
    fn blocks_disjoint() {
        let cfg = SketchConfig::new(9, 2, 2, 0);
        let mut covered = [false; 9 * 5];
        for b in blocks(&cfg, 5) {
            for di in 0..b.d1 {
                for dj in 0..b.n1 {
                    let cell = (b.i + di) * 5 + (b.j + dj);
                    assert!(!covered[cell], "cell covered twice");
                    covered[cell] = true;
                }
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn single_block_when_sizes_exceed_dims() {
        let cfg = SketchConfig::new(5, 100, 100, 0);
        let bs: Vec<_> = blocks(&cfg, 3).collect();
        assert_eq!(bs.len(), 1);
        assert_eq!(
            bs[0],
            OuterBlock {
                i: 0,
                d1: 5,
                j: 0,
                n1: 3
            }
        );
    }

    #[test]
    fn empty_matrix_no_blocks() {
        let cfg = SketchConfig::new(5, 2, 2, 0);
        assert_eq!(blocks(&cfg, 0).count(), 0);
    }

    #[test]
    fn drive_visits_all() {
        let cfg = SketchConfig::new(6, 5, 2, 0);
        let mut seen = Vec::new();
        drive(&cfg, 4, |b| seen.push(b));
        assert!(seen.into_iter().eq(blocks(&cfg, 4)));
    }
}
