//! Column-major dense matrix.
//!
//! The sketch `Â` produced by the kernels is dense and is updated
//! column-contiguously by Algorithm 3 (variant `kji` streams columns of `G`),
//! so column-major is the natural layout. Row-major views are provided where
//! the MKL-style baseline needs them.

use crate::Scalar;

/// Dense matrix in column-major order.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix<T> {
    nrows: usize,
    ncols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// An all-zero matrix.
    ///
    /// # Panics
    ///
    /// When `nrows · ncols` overflows `usize`.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        let Some(len) = nrows.checked_mul(ncols) else {
            panic!("Matrix::zeros: {nrows}×{ncols} entries overflow usize");
        };
        Self {
            nrows,
            ncols,
            data: vec![T::ZERO; len],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for j in 0..ncols {
            for i in 0..nrows {
                data.push(f(i, j));
            }
        }
        Self { nrows, ncols, data }
    }

    /// Build from a row-major buffer (transposing copy).
    pub fn from_row_major(nrows: usize, ncols: usize, data: &[T]) -> Self {
        assert_eq!(data.len(), nrows * ncols, "buffer length mismatch");
        Self::from_fn(nrows, ncols, |i, j| data[i * ncols + j])
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Underlying column-major slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Underlying column-major slice, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Column `j` as a slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[T] {
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Column `j` as a mutable slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Two distinct columns mutably (for rotation kernels).
    ///
    /// # Panics
    /// If `j1 == j2`.
    pub fn two_cols_mut(&mut self, j1: usize, j2: usize) -> (&mut [T], &mut [T]) {
        assert_ne!(j1, j2, "columns must be distinct");
        let n = self.nrows;
        if j1 < j2 {
            let (a, b) = self.data.split_at_mut(j2 * n);
            (&mut a[j1 * n..(j1 + 1) * n], &mut b[..n])
        } else {
            let (a, b) = self.data.split_at_mut(j1 * n);
            let (x, y) = (&mut b[..n], &mut a[j2 * n..(j2 + 1) * n]);
            (x, y)
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix<T> {
        Matrix::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)])
    }

    /// Matrix-vector product `y = A·x`.
    pub fn matvec(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        y.fill(T::ZERO);
        for (j, &xj) in x.iter().enumerate() {
            if xj == T::ZERO {
                continue;
            }
            for (yi, &aij) in y.iter_mut().zip(self.col(j).iter()) {
                *yi = aij.mul_add(xj, *yi);
            }
        }
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> T {
        let mut acc = T::ZERO;
        for &v in &self.data {
            acc = v.mul_add(v, acc);
        }
        acc.sqrt()
    }

    /// Sub-matrix copy `A[r0..r1, c0..c1]`.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix<T> {
        assert!(r0 <= r1 && r1 <= self.nrows && c0 <= c1 && c1 <= self.ncols);
        Matrix::from_fn(r1 - r0, c1 - c0, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Memory footprint of the value buffer in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }

    /// Scale all entries in place.
    pub fn scale(&mut self, s: T) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Elementwise difference Frobenius norm `‖self − other‖_F`
    /// (verification helper).
    pub fn diff_norm(&self, other: &Matrix<T>) -> T {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        let mut acc = T::ZERO;
        for (&a, &b) in self.data.iter().zip(other.data.iter()) {
            let d = a - b;
            acc = d.mul_add(d, acc);
        }
        acc.sqrt()
    }
}

/// Expand a sparse CSC matrix to dense column-major in O(m·n) — prefer this
/// over `Matrix::from_fn(|i, j| a.get(i, j))`, which pays a binary search per
/// entry.
pub fn densify<T: Scalar>(a: &sparsekit::CscMatrix<T>) -> Matrix<T> {
    let mut out = Matrix::zeros(a.nrows(), a.ncols());
    for j in 0..a.ncols() {
        let (rows, vals) = a.col(j);
        let col = out.col_mut(j);
        for (&i, &v) in rows.iter().zip(vals.iter()) {
            col[i] = v;
        }
    }
    out
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;

    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[j * self.nrows + i]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[j * self.nrows + i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(1, 2)], 12.0);
        assert_eq!(m.col(1), &[1.0, 11.0]);
    }

    #[test]
    fn row_major_round_trip() {
        let rm = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let m = Matrix::from_row_major(2, 3, &rm);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 4.0);
        let t = m.transpose();
        assert_eq!(t[(1, 0)], 2.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matvec_and_transpose_matvec() {
        let m = Matrix::from_row_major(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut y = [0.0; 2];
        m.matvec(&[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, [6.0, 15.0]);
        let mut z = [0.0; 3];
        m.transpose().matvec(&[1.0, 1.0], &mut z);
        assert_eq!(z, [5.0, 7.0, 9.0]);
    }

    #[test]
    fn two_cols_mut_disjoint() {
        let mut m = Matrix::<f64>::zeros(3, 4);
        {
            let (a, b) = m.two_cols_mut(1, 3);
            a[0] = 1.0;
            b[2] = 2.0;
        }
        assert_eq!(m[(0, 1)], 1.0);
        assert_eq!(m[(2, 3)], 2.0);
        // Reversed order.
        {
            let (a, b) = m.two_cols_mut(3, 1);
            assert_eq!(b[0], 1.0);
            a[0] = 5.0;
        }
        assert_eq!(m[(0, 3)], 5.0);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn two_cols_same_panics() {
        let mut m = Matrix::<f64>::zeros(2, 2);
        let _ = m.two_cols_mut(1, 1);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_row_major(2, 2, &[3.0, 0.0, 0.0, 4.0]);
        assert_eq!(m.fro_norm(), 5.0);
        let z = Matrix::<f64>::zeros(2, 2);
        assert_eq!(m.diff_norm(&z), 5.0);
    }

    #[test]
    fn submatrix_extraction() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = m.submatrix(1, 3, 2, 4);
        assert_eq!(s.nrows(), 2);
        assert_eq!(s[(0, 0)], 6.0);
        assert_eq!(s[(1, 1)], 11.0);
    }

    #[test]
    fn densify_matches_get() {
        let mut coo = sparsekit::CooMatrix::<f64>::new(4, 3);
        coo.push(0, 0, 1.5).unwrap();
        coo.push(3, 2, -2.0).unwrap();
        coo.push(1, 1, 7.0).unwrap();
        let a = coo.to_csc().unwrap();
        let d = densify(&a);
        for i in 0..4 {
            for j in 0..3 {
                assert_eq!(d[(i, j)], a.get(i, j));
            }
        }
    }

    #[test]
    fn identity_matvec() {
        let i = Matrix::<f64>::identity(3);
        let mut y = [0.0; 3];
        i.matvec(&[7.0, 8.0, 9.0], &mut y);
        assert_eq!(y, [7.0, 8.0, 9.0]);
    }
}
