//! CSC (compressed sparse column) — the paper's default input format.
//!
//! Algorithm 3 consumes plain CSC directly: its outer loop walks columns of
//! `A`, and within a column the stored rows select which columns of `S` must
//! be regenerated. The format here is the standard three-array layout with
//! sorted, duplicate-free rows within each column (validated on
//! construction).

use crate::scalar::Scalar;
use crate::{CsrMatrix, Result};

/// Compressed sparse column matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct CscMatrix<T> {
    nrows: usize,
    ncols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<T>,
}

impl<T: Scalar> CscMatrix<T> {
    /// Construct with full structural validation: `col_ptr` monotone with the
    /// right endpoints, row indices in bounds and strictly increasing within
    /// each column.
    pub fn try_new(
        nrows: usize,
        ncols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<usize>,
        values: Vec<T>,
    ) -> Result<Self> {
        crate::validate::CompressedParts {
            outer_len: ncols,
            inner_len: nrows,
            ptr: &col_ptr,
            idx: &row_idx,
            outer_is_col: true,
            shape: (nrows, ncols),
        }
        .check_structure(values.len())?;
        Ok(Self {
            nrows,
            ncols,
            col_ptr,
            row_idx,
            values,
        })
    }

    /// Re-check every storage invariant of an already-built matrix, plus a
    /// NaN/Inf scan of the values.
    ///
    /// Construction via [`CscMatrix::try_new`] only enforces *structure*
    /// (NaN payloads are legal to build — the abnormal-input generators rely
    /// on that); library entry points that cannot tolerate poisoned data
    /// call this before trusting the matrix. The pointer array is vetted
    /// before any slot slice is formed, so a corrupted matrix can never
    /// panic the validator.
    pub fn validate(&self) -> Result<()> {
        let parts = crate::validate::CompressedParts {
            outer_len: self.ncols,
            inner_len: self.nrows,
            ptr: &self.col_ptr,
            idx: &self.row_idx,
            outer_is_col: true,
            shape: (self.nrows, self.ncols),
        };
        parts.check_structure(self.values.len())?;
        parts.check_finite(&self.values)
    }

    /// Construct without validation. The caller guarantees the CSC
    /// invariants; debug builds still spot-check endpoints.
    pub fn from_parts_unchecked(
        nrows: usize,
        ncols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<usize>,
        values: Vec<T>,
    ) -> Self {
        debug_assert_eq!(col_ptr.len(), ncols + 1);
        debug_assert_eq!(*col_ptr.last().unwrap_or(&0), row_idx.len());
        debug_assert_eq!(row_idx.len(), values.len());
        Self {
            nrows,
            ncols,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// An all-zero matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            col_ptr: vec![0; ncols + 1],
            row_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        Self {
            nrows: n,
            ncols: n,
            col_ptr: (0..=n).collect(),
            row_idx: (0..n).collect(),
            values: vec![T::ONE; n],
        }
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

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Fraction of entries stored.
    pub fn density(&self) -> f64 {
        if self.nrows == 0 || self.ncols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.nrows as f64 * self.ncols as f64)
    }

    /// Column pointer array (length `ncols + 1`).
    #[inline]
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Row index array (length `nnz`).
    #[inline]
    pub fn row_idx(&self) -> &[usize] {
        &self.row_idx
    }

    /// Values array (length `nnz`).
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Rows and values of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> (&[usize], &[T]) {
        let (lo, hi) = (self.col_ptr[j], self.col_ptr[j + 1]);
        (&self.row_idx[lo..hi], &self.values[lo..hi])
    }

    /// Number of stored entries in column `j`.
    #[inline]
    pub fn col_nnz(&self, j: usize) -> usize {
        self.col_ptr[j + 1] - self.col_ptr[j]
    }

    /// Value at `(i, j)` (binary search; zero if not stored).
    pub fn get(&self, i: usize, j: usize) -> T {
        assert!(i < self.nrows && j < self.ncols, "index out of bounds");
        let (rows, vals) = self.col(j);
        match rows.binary_search(&i) {
            Ok(k) => vals[k],
            Err(_) => T::ZERO,
        }
    }

    /// Memory footprint in bytes of the three arrays (the `mem(A)` column of
    /// the paper's Tables VIII and XI).
    pub fn memory_bytes(&self) -> usize {
        self.col_ptr.len() * std::mem::size_of::<usize>()
            + self.row_idx.len() * std::mem::size_of::<usize>()
            + self.values.len() * std::mem::size_of::<T>()
    }

    /// Sparse matrix-vector product `y = A·x`.
    pub fn spmv(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.ncols, "x length mismatch");
        assert_eq!(y.len(), self.nrows, "y length mismatch");
        y.fill(T::ZERO);
        for (j, &xj) in x.iter().enumerate() {
            if xj == T::ZERO {
                continue;
            }
            let (rows, vals) = self.col(j);
            for (&i, &v) in rows.iter().zip(vals.iter()) {
                y[i] += v * xj;
            }
        }
    }

    /// Transposed sparse matrix-vector product `y = Aᵀ·x`.
    pub fn spmv_t(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.nrows, "x length mismatch");
        assert_eq!(y.len(), self.ncols, "y length mismatch");
        for (j, yj) in y.iter_mut().enumerate() {
            let (rows, vals) = self.col(j);
            let mut acc = T::ZERO;
            for (&i, &v) in rows.iter().zip(vals.iter()) {
                acc = v.mul_add(x[i], acc);
            }
            *yj = acc;
        }
    }

    /// Transpose into CSR of the same logical matrix (shares the algorithm
    /// with CSC→CSR conversion: the arrays are reinterpreted).
    pub fn to_csr(&self) -> CsrMatrix<T> {
        // Count nonzeros per row.
        let mut row_counts = vec![0usize; self.nrows + 1];
        for &r in &self.row_idx {
            row_counts[r + 1] += 1;
        }
        for i in 0..self.nrows {
            row_counts[i + 1] += row_counts[i];
        }
        let mut cursor = row_counts.clone();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![T::ZERO; self.nnz()];
        for j in 0..self.ncols {
            let (rows, vals) = self.col(j);
            for (&i, &v) in rows.iter().zip(vals.iter()) {
                let k = cursor[i];
                col_idx[k] = j;
                values[k] = v;
                cursor[i] += 1;
            }
        }
        // Columns within each row come out sorted because we scanned j in
        // increasing order.
        CsrMatrix::from_parts_unchecked(self.nrows, self.ncols, row_counts, col_idx, values)
    }

    /// The transpose `Aᵀ` as a CSC matrix.
    pub fn transpose(&self) -> CscMatrix<T> {
        let csr = self.to_csr();
        // CSR of A reinterpreted as CSC of Aᵀ.
        CscMatrix::from_parts_unchecked(
            self.ncols,
            self.nrows,
            csr.row_ptr().to_vec(),
            csr.col_idx().to_vec(),
            csr.values().to_vec(),
        )
    }

    /// Scale every stored value by `s` in place (used by the scaling trick:
    /// compute `(S·f)(A/f)`).
    pub fn scale_values(&mut self, s: T) {
        for v in &mut self.values {
            *v *= s;
        }
    }

    /// Column 2-norms, `‖A_j‖₂` for each `j` (used by the LSQR-D diagonal
    /// preconditioner).
    pub fn col_norms(&self) -> Vec<T> {
        (0..self.ncols)
            .map(|j| {
                let (_, vals) = self.col(j);
                let mut acc = T::ZERO;
                for &v in vals {
                    acc = v.mul_add(v, acc);
                }
                acc.sqrt()
            })
            .collect()
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> T {
        let mut acc = T::ZERO;
        for &v in &self.values {
            acc = v.mul_add(v, acc);
        }
        acc.sqrt()
    }

    /// Indices of columns that contain no nonzeros.
    pub fn empty_cols(&self) -> Vec<usize> {
        (0..self.ncols).filter(|&j| self.col_nnz(j) == 0).collect()
    }

    /// Indices of rows that contain no nonzeros.
    pub fn empty_rows(&self) -> Vec<usize> {
        let mut seen = vec![false; self.nrows];
        for &r in &self.row_idx {
            seen[r] = true;
        }
        (0..self.nrows).filter(|&i| !seen[i]).collect()
    }

    /// Dense row-major expansion (tests and small examples only).
    pub fn to_dense_row_major(&self) -> Vec<T> {
        let mut out = vec![T::ZERO; self.nrows * self.ncols];
        for j in 0..self.ncols {
            let (rows, vals) = self.col(j);
            for (&i, &v) in rows.iter().zip(vals.iter()) {
                out[i * self.ncols + j] = v;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn small() -> CscMatrix<f64> {
        // [1 0 2]
        // [0 3 0]
        // [4 0 5]
        let mut coo = CooMatrix::new(3, 3);
        for &(i, j, v) in &[
            (0, 0, 1.0),
            (2, 0, 4.0),
            (1, 1, 3.0),
            (0, 2, 2.0),
            (2, 2, 5.0),
        ] {
            coo.push(i, j, v).unwrap();
        }
        coo.to_csc().unwrap()
    }

    #[test]
    fn validation_catches_bad_structures() {
        // Bad col_ptr length.
        assert!(CscMatrix::<f64>::try_new(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // Bad endpoint.
        assert!(CscMatrix::<f64>::try_new(2, 2, vec![0, 1, 2], vec![0], vec![1.0]).is_err());
        // Row out of bounds.
        assert!(CscMatrix::<f64>::try_new(2, 2, vec![0, 1, 1], vec![5], vec![1.0]).is_err());
        // Unsorted rows.
        assert!(CscMatrix::<f64>::try_new(3, 1, vec![0, 2], vec![2, 1], vec![1.0, 2.0]).is_err());
        // Duplicate rows.
        assert!(CscMatrix::<f64>::try_new(3, 1, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).is_err());
        // Non-monotone col_ptr.
        assert!(CscMatrix::<f64>::try_new(2, 2, vec![0, 1, 0], vec![0], vec![1.0]).is_err());
        // Value length mismatch.
        assert!(CscMatrix::<f64>::try_new(2, 2, vec![0, 1, 1], vec![0], vec![]).is_err());
    }

    #[test]
    fn getters_and_density() {
        let a = small();
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.ncols(), 3);
        assert_eq!(a.nnz(), 5);
        assert!((a.density() - 5.0 / 9.0).abs() < 1e-15);
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(1, 0), 0.0);
        assert_eq!(a.col_nnz(1), 1);
    }

    #[test]
    fn spmv_matches_dense() {
        let a = small();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        a.spmv(&x, &mut y);
        assert_eq!(y, [1.0 + 6.0, 6.0, 4.0 + 15.0]);
    }

    #[test]
    fn spmv_t_matches_dense() {
        let a = small();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        a.spmv_t(&x, &mut y);
        // Aᵀx: col j of A dotted with x.
        assert_eq!(y, [1.0 + 12.0, 6.0, 2.0 + 15.0]);
    }

    #[test]
    fn to_csr_round_trip() {
        let a = small();
        let csr = a.to_csr();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(a.get(i, j), csr.get(i, j), "mismatch at ({i},{j})");
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let a = small();
        let att = a.transpose().transpose();
        assert_eq!(a, att);
        // And Aᵀ really transposes.
        let at = a.transpose();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(a.get(i, j), at.get(j, i));
            }
        }
    }

    #[test]
    fn identity_and_zeros() {
        let i3 = CscMatrix::<f64>::identity(3);
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        i3.spmv(&x, &mut y);
        assert_eq!(y, x);
        let z = CscMatrix::<f64>::zeros(2, 4);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.density(), 0.0);
    }

    #[test]
    fn col_norms_and_fro() {
        let a = small();
        let norms = a.col_norms();
        assert!((norms[0] - (1.0f64 + 16.0).sqrt()).abs() < 1e-15);
        assert!((norms[1] - 3.0).abs() < 1e-15);
        assert!((norms[2] - (4.0f64 + 25.0).sqrt()).abs() < 1e-15);
        let fro = a.fro_norm();
        assert!((fro - (1.0f64 + 16.0 + 9.0 + 4.0 + 25.0).sqrt()).abs() < 1e-15);
    }

    #[test]
    fn empty_rows_cols_detection() {
        let mut coo = CooMatrix::<f64>::new(4, 4);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(3, 0, 2.0).unwrap();
        let a = coo.to_csc().unwrap();
        assert_eq!(a.empty_cols(), vec![1, 2, 3]);
        assert_eq!(a.empty_rows(), vec![1, 2]);
    }

    #[test]
    fn memory_bytes_accounting() {
        let a = small();
        let expected = 4 * 8 + 5 * 8 + 5 * 8; // col_ptr + row_idx + values
        assert_eq!(a.memory_bytes(), expected);
    }

    #[test]
    fn scale_values_in_place() {
        let mut a = small();
        a.scale_values(2.0);
        assert_eq!(a.get(2, 2), 10.0);
    }

    #[test]
    fn dense_expansion() {
        let a = small();
        let d = a.to_dense_row_major();
        assert_eq!(d, vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 0.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        small().get(3, 0);
    }
}
