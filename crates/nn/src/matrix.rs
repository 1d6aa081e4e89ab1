//! A small row-major `f32` matrix.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f32`.
///
/// Only the kernels needed by dense-network training are provided; all
/// shape mismatches panic, because they are programming errors in a closed
/// training loop rather than recoverable conditions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying row-major slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self * other` (`[m x k] * [k x n] -> [m x n]`), cache-friendly ikj
    /// order.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul inner dimensions");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            let o_row = &mut out.data[i * n..(i + 1) * n];
            for (kk, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[kk * n..(kk + 1) * n];
                for (o, &b) in o_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self^T * other` (`[k x m]^T * [k x n] -> [m x n]`).
    ///
    /// # Panics
    ///
    /// Panics on row-count mismatch.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn outer dimensions");
        let (k, m, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        for kk in 0..k {
            let a_row = &self.data[kk * m..(kk + 1) * m];
            let b_row = &other.data[kk * n..(kk + 1) * n];
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let o_row = &mut out.data[i * n..(i + 1) * n];
                for (o, &b) in o_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self * other^T` (`[m x k] * [n x k]^T -> [m x n]`).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt inner dimensions");
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &other.data[j * k..(j + 1) * k];
                let mut acc = 0.0;
                for (&a, &b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                out.data[i * n + j] = acc;
            }
        }
        out
    }

    /// Adds `vec` to every row (bias broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `vec.len() != cols`.
    pub fn add_row_vector(&mut self, vec: &[f32]) {
        assert_eq!(vec.len(), self.cols);
        for r in 0..self.rows {
            for (v, &b) in self.row_mut(r).iter_mut().zip(vec) {
                *v += b;
            }
        }
    }

    /// Column-wise sums (gradient of a bias).
    pub fn column_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
        sums
    }

    /// Element-wise map in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise product in place (`self *= other`).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard_inplace(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a *= b;
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:+.3}")).collect();
            writeln!(
                f,
                "  [{}{}]",
                shown.join(", "),
                if self.cols > 8 { ", …" } else { "" }
            )?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_small() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_tn_equals_transpose_then_matmul() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]); // a^T is 2x3
        let b = m(3, 2, &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let c = a.matmul_tn(&b);
        // a^T = [[1,3,5],[2,4,6]]; a^T*b = [[1+5, 3+5],[2+6, 4+6]]
        assert_eq!(c.as_slice(), &[6.0, 8.0, 8.0, 10.0]);
    }

    #[test]
    fn matmul_nt_equals_matmul_with_transpose() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(2, 3, &[1.0, 1.0, 0.0, 0.0, 1.0, 1.0]); // b^T is 3x2
        let c = a.matmul_nt(&b);
        assert_eq!(c.as_slice(), &[3.0, 5.0, 9.0, 11.0]);
    }

    #[test]
    fn bias_broadcast_and_column_sums() {
        let mut a = Matrix::zeros(2, 3);
        a.add_row_vector(&[1.0, 2.0, 3.0]);
        assert_eq!(a.column_sums(), vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn hadamard_and_scale() {
        let mut a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[2.0, 0.5, -1.0]);
        a.hadamard_inplace(&b);
        assert_eq!(a.as_slice(), &[2.0, 1.0, -3.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn indexing() {
        let mut a = Matrix::zeros(2, 2);
        a[(1, 0)] = 5.0;
        assert_eq!(a[(1, 0)], 5.0);
        assert_eq!(a.row(1), &[5.0, 0.0]);
    }

    proptest! {
        /// (A*B)*C == A*(B*C) within float tolerance.
        #[test]
        fn matmul_is_associative(
            a in proptest::collection::vec(-2.0f32..2.0, 6),
            b in proptest::collection::vec(-2.0f32..2.0, 6),
            c in proptest::collection::vec(-2.0f32..2.0, 6),
        ) {
            let a = m(2, 3, &a);
            let b = m(3, 2, &b);
            let c = m(2, 3, &c);
            let left = a.matmul(&b).matmul(&c);
            let right = a.matmul(&b.matmul(&c));
            for (l, r) in left.as_slice().iter().zip(right.as_slice()) {
                prop_assert!((l - r).abs() < 1e-3);
            }
        }

        /// matmul_tn(A, B) agrees with explicit transposition.
        #[test]
        fn tn_matches_explicit_transpose(
            a in proptest::collection::vec(-2.0f32..2.0, 12),
            b in proptest::collection::vec(-2.0f32..2.0, 8),
        ) {
            let a = m(4, 3, &a);
            let b = m(4, 2, &b);
            let mut at = Matrix::zeros(3, 4);
            for r in 0..4 { for c in 0..3 { at[(c, r)] = a[(r, c)]; } }
            let expect = at.matmul(&b);
            let got = a.matmul_tn(&b);
            for (l, r) in expect.as_slice().iter().zip(got.as_slice()) {
                prop_assert!((l - r).abs() < 1e-4);
            }
        }
    }
}
