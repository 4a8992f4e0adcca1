//! Row-major dense matrix used across the ReaLM workspace.

use crate::{Result, TensorError};

/// A dense, row-major matrix.
///
/// The matrix is deliberately simple: the ReaLM reproduction only needs 2-D operands for
/// GEMM/GEMV, elementwise maps and per-row reductions. Batched activations are represented
/// as `(tokens, features)` matrices.
///
/// # Example
///
/// ```
/// use realm_tensor::Matrix;
///
/// let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as i32);
/// assert_eq!(m.shape(), (2, 3));
/// assert_eq!(m[(1, 2)], 5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

/// Matrix of `f32` elements (floating-point activations and weights).
pub type MatF32 = Matrix<f32>;
/// Matrix of `i8` elements (quantized GEMM operands).
pub type MatI8 = Matrix<i8>;
/// Matrix of `i32` elements (GEMM accumulator results, the error-injection target).
pub type MatI32 = Matrix<i32>;

impl<T: Copy + Default> Matrix<T> {
    /// Creates a matrix of the given shape filled with `T::default()`.
    ///
    /// # Example
    ///
    /// ```
    /// use realm_tensor::MatI32;
    /// let z = MatI32::zeros(3, 4);
    /// assert_eq!(z.shape(), (3, 4));
    /// assert!(z.iter().all(|&v| v == 0));
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![T::default(); rows * cols],
        }
    }

    /// Reshapes the matrix to `rows × cols` leaving element values unspecified (old
    /// contents or `T::default()` for any grown tail), reusing the backing allocation
    /// whenever its capacity suffices.
    ///
    /// For `_into` consumers that overwrite **every** element (quantization, slicing,
    /// normalization, embedding): skips the full zero-fill [`Matrix::resize_reset`] pays,
    /// which matters once per checkout in the per-token hot loop. Never use it for a
    /// destination built up incrementally (a GEMM accumulator needs `resize_reset`).
    pub fn resize_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        let len = rows * cols;
        if len <= self.data.len() {
            self.data.truncate(len);
            return;
        }
        if len > self.data.capacity() && self.data.capacity() > 0 {
            self.data.reserve_exact(len.next_power_of_two());
        }
        self.data.resize(len, T::default());
    }

    /// Reshapes the matrix to `rows × cols` with every element reset to `T::default()`,
    /// reusing the backing allocation whenever its capacity suffices.
    ///
    /// This is the in-place counterpart of [`Matrix::zeros`] used by the `_into` GEMM
    /// paths: a workspace-pooled matrix passes through here once per checkout and never
    /// touches the allocator as long as the pooled capacity covers the new shape.
    pub fn resize_reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        let len = rows * cols;
        if len > self.data.capacity() {
            if self.data.capacity() > 0 {
                // Power-of-two growth keeps a monotonically growing *reused* destination
                // (attention scores lengthen every decode step) to O(log n)
                // re-allocations total.
                self.data.reserve_exact(len.next_power_of_two());
            } else {
                // A fresh matrix (the one-shot allocating wrappers) stays exact.
                self.data.reserve_exact(len);
            }
        }
        self.data.resize(len, T::default());
    }
}

impl<T: Copy> Matrix<T> {
    /// Creates a matrix of the given shape filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: T) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    ///
    /// # Example
    ///
    /// ```
    /// use realm_tensor::MatF32;
    /// let identity = MatF32::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
    /// assert_eq!(identity[(1, 1)], 1.0);
    /// assert_eq!(identity[(0, 2)], 0.0);
    /// ```
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::InvalidDimension {
                op: "Matrix::from_vec",
                detail: format!(
                    "expected {} elements for a {}x{} matrix, got {}",
                    rows * cols,
                    rows,
                    cols,
                    data.len()
                ),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the element at `(row, col)`, or `None` if out of bounds.
    pub fn get(&self, row: usize, col: usize) -> Option<&T> {
        if row < self.rows && col < self.cols {
            self.data.get(row * self.cols + col)
        } else {
            None
        }
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the position is outside the matrix.
    pub fn set(&mut self, row: usize, col: usize, value: T) -> Result<()> {
        if row >= self.rows || col >= self.cols {
            return Err(TensorError::IndexOutOfBounds {
                index: (row, col),
                shape: (self.rows, self.cols),
            });
        }
        self.data[row * self.cols + col] = value;
        Ok(())
    }

    /// Borrows a single row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row(&self, row: usize) -> &[T] {
        assert!(row < self.rows, "row {} out of bounds ({})", row, self.rows);
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutably borrows a single row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row_mut(&mut self, row: usize) -> &mut [T] {
        assert!(row < self.rows, "row {} out of bounds ({})", row, self.rows);
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Iterates over all elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }

    /// Mutably iterates over all elements in row-major order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.data.iter_mut()
    }

    /// Borrows the backing storage in row-major order.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrows the backing storage in row-major order.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the matrix and returns its backing storage.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map<U: Copy>(&self, mut f: impl FnMut(T) -> U) -> Matrix<U> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn apply(&mut self, mut f: impl FnMut(T) -> T) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Extracts a contiguous block of rows `[start, start + count)` as a new matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if the row range exceeds the matrix.
    pub fn rows_slice(&self, start: usize, count: usize) -> Result<Self> {
        if start + count > self.rows {
            return Err(TensorError::InvalidDimension {
                op: "Matrix::rows_slice",
                detail: format!(
                    "rows {}..{} out of bounds for {} rows",
                    start,
                    start + count,
                    self.rows
                ),
            });
        }
        Ok(Self {
            rows: count,
            cols: self.cols,
            data: self.data[start * self.cols..(start + count) * self.cols].to_vec(),
        })
    }

    /// Vertically stacks `self` on top of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the column counts differ.
    pub fn vstack(&self, other: &Self) -> Result<Self> {
        if self.cols != other.cols {
            return Err(TensorError::ShapeMismatch {
                op: "Matrix::vstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Ok(Self {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }
}

impl<T> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;

    fn index(&self, (row, col): (usize, usize)) -> &T {
        assert!(
            row < self.rows && col < self.cols,
            "index ({}, {}) out of bounds for {}x{} matrix",
            row,
            col,
            self.rows,
            self.cols
        );
        &self.data[row * self.cols + col]
    }
}

impl<T> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut T {
        assert!(
            row < self.rows && col < self.cols,
            "index ({}, {}) out of bounds for {}x{} matrix",
            row,
            col,
            self.rows,
            self.cols
        );
        &mut self.data[row * self.cols + col]
    }
}

impl MatF32 {
    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Self) -> Result<Self> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "MatF32::add",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Self {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Elementwise (Hadamard) product in place: `self[i] *= other[i]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn hadamard_assign(&mut self, other: &Self) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "MatF32::hadamard_assign",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a *= b;
        }
        Ok(())
    }

    /// Elementwise addition in place: `self[i] += other[i]`.
    ///
    /// Bit-identical to [`MatF32::add`] (same per-element `a + b`), without the fresh
    /// allocation — the residual-stream update of the workspace-threaded forward path.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add_assign(&mut self, other: &Self) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "MatF32::add_assign",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, factor: f32) -> Self {
        self.map(|v| v * factor)
    }

    /// Multiplies every element by a scalar in place (bit-identical to [`MatF32::scale`]).
    pub fn scale_in_place(&mut self, factor: f32) {
        for v in &mut self.data {
            *v *= factor;
        }
    }

    /// Maximum absolute value over all elements (0.0 for an empty matrix).
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |acc, v| acc.max(v.abs()))
    }

    /// Frobenius norm of the difference with `other`, useful in tests.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn distance(&self, other: &Self) -> Result<f32> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "MatF32::distance",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt())
    }
}

impl<'a, T> IntoIterator for &'a Matrix<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_values() {
        let m = MatI32::zeros(2, 5);
        assert_eq!(m.shape(), (2, 5));
        assert_eq!(m.len(), 10);
        assert!(m.iter().all(|&v| v == 0));
    }

    #[test]
    fn from_vec_rejects_wrong_length() {
        let err = MatI32::from_vec(2, 2, vec![1, 2, 3]).unwrap_err();
        assert!(matches!(err, TensorError::InvalidDimension { .. }));
    }

    #[test]
    fn from_fn_is_row_major() {
        let m = Matrix::from_fn(2, 3, |r, c| (r, c));
        assert_eq!(m.as_slice()[0], (0, 0));
        assert_eq!(m.as_slice()[3], (1, 0));
        assert_eq!(m[(1, 2)], (1, 2));
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut m = MatF32::zeros(3, 3);
        m.set(1, 2, 4.5).unwrap();
        assert_eq!(*m.get(1, 2).unwrap(), 4.5);
        assert!(m.get(3, 0).is_none());
        assert!(m.set(0, 3, 1.0).is_err());
    }

    #[test]
    fn rows_slice_extracts_block() {
        let m = MatI32::from_fn(4, 2, |r, c| (r * 2 + c) as i32);
        let block = m.rows_slice(1, 2).unwrap();
        assert_eq!(block.shape(), (2, 2));
        assert_eq!(block[(0, 0)], 2);
        assert_eq!(block[(1, 1)], 5);
        assert!(m.rows_slice(3, 2).is_err());
    }

    #[test]
    fn vstack_concatenates_rows() {
        let a = MatI32::filled(1, 3, 1);
        let b = MatI32::filled(2, 3, 2);
        let s = a.vstack(&b).unwrap();
        assert_eq!(s.shape(), (3, 3));
        assert_eq!(s[(0, 0)], 1);
        assert_eq!(s[(2, 2)], 2);
        assert!(a.vstack(&MatI32::zeros(1, 4)).is_err());
    }

    #[test]
    fn map_changes_element_type() {
        let m = MatI8::filled(2, 2, 3);
        let f = m.map(|v| v as f32 * 0.5);
        assert_eq!(f[(1, 1)], 1.5);
    }

    #[test]
    fn add_respects_shapes() {
        let a = MatF32::filled(2, 2, 2.0);
        let b = MatF32::filled(2, 2, 3.0);
        assert_eq!(a.add(&b).unwrap()[(0, 0)], 5.0);
        let c = MatF32::zeros(3, 2);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn abs_max_and_distance() {
        let a = MatF32::from_vec(1, 3, vec![-4.0, 2.0, 1.0]).unwrap();
        assert_eq!(a.abs_max(), 4.0);
        let b = MatF32::from_vec(1, 3, vec![-4.0, 2.0, 4.0]).unwrap();
        assert!((a.distance(&b).unwrap() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn matrix_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MatI32>();
        assert_send_sync::<MatF32>();
    }
}
