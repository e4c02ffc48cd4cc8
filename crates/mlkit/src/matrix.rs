//! Dense row-major matrices and the matrix kernels the model zoo trains on.
//!
//! The three product kernels ([`Matrix::matmul`], [`Matrix::matmul_transposed`],
//! [`Matrix::transpose_matmul`]) and the broadcast helpers are the batched
//! substrate every training loop in this crate runs on. They are blocked for
//! cache reuse and sharded over the `minipar` pool, with a determinism
//! contract the whole pipeline relies on:
//!
//! * **Row-band sharding.** Output rows are split into contiguous bands and
//!   each band is computed by exactly one task. No output element is ever
//!   touched by two tasks, so there is nothing to merge and no merge order
//!   to get wrong.
//! * **Fixed accumulation order.** Every output element accumulates its
//!   reduction dimension in ascending index order, regardless of banding or
//!   thread count. Results are therefore bit-identical at every `NVD_JOBS`
//!   setting, including the inline `jobs = 1` path.
//! * **Register tiles.** Within a band, each product computes a
//!   [`ROW_BLOCK`] × [`COL_BLOCK`] block of outputs in local accumulators
//!   that reduce the whole contraction dimension before a single store, so
//!   the independent sums overlap instead of waiting on one another.
//!   Leftover rows and columns take a one-row path with the same
//!   per-element order.
//!
//! No BLAS, no unsafe.

use std::fmt;
use std::ops::{Add, Mul, Sub};

/// Output rows per register tile in [`Matrix::matmul`] and
/// [`Matrix::transpose_matmul`].
pub const ROW_BLOCK: usize = 4;

/// Output columns per register tile: a `ROW_BLOCK × COL_BLOCK` block of
/// accumulators stays in registers while it reduces the whole contraction
/// dimension, then is stored once.
pub const COL_BLOCK: usize = 4;

/// A dense, row-major `rows × cols` matrix of `f64`.
///
/// ```
/// use mlkit::matrix::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>10.4}", self[(r, c)])?;
            }
            writeln!(f, "{}]", if self.cols > 8 { " …" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have unequal lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "need at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or a dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Self { rows, cols, data }
    }

    /// Stacks row vectors (e.g. feature vectors) into a matrix.
    ///
    /// # Panics
    ///
    /// Panics if `vectors` is empty or lengths differ.
    pub fn from_vectors(vectors: &[Vec<f64>]) -> Self {
        let refs: Vec<&[f64]> = vectors.iter().map(Vec::as_slice).collect();
        Self::from_rows(&refs)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major data (e.g. for optimizer
    /// updates over a weight matrix).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut t);
        t
    }

    /// [`Matrix::transpose`] into a caller-owned output (overwritten).
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `self.cols() × self.rows()`.
    pub fn transpose_into(&self, out: &mut Matrix) {
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, self.rows),
            "transpose output shape mismatch"
        );
        for (r, row) in self.data.chunks_exact(self.cols).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
    }

    /// Runs `f(row_index, row)` over every row, sharding contiguous row
    /// bands across the `minipar` pool.
    ///
    /// Each row is visited by exactly one task, so as long as `f` is a pure
    /// per-row function the result is bit-identical at every job count.
    /// Band boundaries only affect scheduling, never values. Assumes
    /// roughly `cols` work per row; kernels with heavier rows use
    /// [`Matrix::par_rows_mut_cost`].
    pub fn par_rows_mut(&mut self, f: impl Fn(usize, &mut [f64]) + Sync) {
        let cols = self.cols;
        self.par_rows_mut_cost(cols, f);
    }

    /// [`Matrix::par_rows_mut`] with an explicit per-row work estimate (in
    /// flop-ish units). Small workloads run inline: below
    /// [`MIN_TASK_WORK`] per would-be band, forking costs more than it
    /// saves — the threshold only changes scheduling, never values.
    pub fn par_rows_mut_cost(&mut self, work_per_row: usize, f: impl Fn(usize, &mut [f64]) + Sync) {
        let cols = self.cols;
        let rows = self.rows;
        let bands = band_count(rows, work_per_row);
        if bands <= 1 {
            for (r, row) in self.data.chunks_mut(cols).enumerate() {
                f(r, row);
            }
            return;
        }
        let band_rows = rows.div_ceil(bands);
        minipar::scope(|s| {
            for (bi, band) in self.data.chunks_mut(band_rows * cols).enumerate() {
                let f = &f;
                s.spawn(move || {
                    for (i, row) in band.chunks_mut(cols).enumerate() {
                        f(bi * band_rows + i, row);
                    }
                });
            }
        });
    }

    /// Matrix product `self · other`.
    ///
    /// Blocked and parallel: row bands shard over `minipar`, and within a
    /// band each [`ROW_BLOCK`] × [`COL_BLOCK`] output tile reduces in
    /// registers.
    /// Every output element accumulates `k` in ascending order, so the
    /// result is bit-identical at any job count.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul`] into a caller-owned output (overwritten), so hot
    /// loops can reuse a preallocated workspace.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()` or `out` is not
    /// `self.rows() × other.cols()`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_seeded_into(other, None, out);
    }

    /// [`Matrix::matmul_into`] with every output row's accumulator starting
    /// at `seed` instead of zero: `out[i][j] = seed[j] + Σ_k self[i][k] ·
    /// other[k][j]`, reduced left to right in ascending `k`. Seeding the
    /// sum reproduces a loop that starts each dot product from a bias;
    /// adding the bias after the product would round differently.
    ///
    /// # Panics
    ///
    /// Panics on the [`Matrix::matmul_into`] shape mismatches, or if
    /// `seed` is given and its length is not `other.cols()`.
    pub fn matmul_seeded_into(&self, other: &Matrix, seed: Option<&[f64]>, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.cols),
            "matmul output shape mismatch"
        );
        if let Some(seed) = seed {
            assert_eq!(seed.len(), other.cols, "matmul seed length mismatch");
        }
        let n = other.cols;
        let k_dim = self.cols;
        tiled_product_into(
            out,
            k_dim.saturating_mul(n),
            |i0, j0| {
                let a_rows: [&[f64]; ROW_BLOCK] = std::array::from_fn(|i| self.row(i0 + i));
                let mut acc = [[0.0; COL_BLOCK]; ROW_BLOCK];
                if let Some(seed) = seed {
                    for acc_row in &mut acc {
                        acc_row.copy_from_slice(&seed[j0..j0 + COL_BLOCK]);
                    }
                }
                for k in 0..k_dim {
                    let b = &other.data[k * n + j0..][..COL_BLOCK];
                    for (acc_row, a_row) in acc.iter_mut().zip(&a_rows) {
                        let a = a_row[k];
                        for (o, &b) in acc_row.iter_mut().zip(b) {
                            *o += a * b;
                        }
                    }
                }
                acc
            },
            |i, j0, out_row| {
                match seed {
                    Some(seed) => out_row.copy_from_slice(&seed[j0..]),
                    None => out_row.fill(0.0),
                }
                for (k, &a) in self.row(i).iter().enumerate() {
                    for (o, &b) in out_row.iter_mut().zip(&other.row(k)[j0..]) {
                        *o += a * b;
                    }
                }
            },
        );
    }

    /// Product with a transposed right-hand side: `self · otherᵀ`, where
    /// `other` is `n × k` row-major and `self` is `m × k`.
    ///
    /// This is the natural layout for dense-layer forward passes
    /// (`X · Wᵀ` with `W` stored `units × fan_in`) and for Gram/distance
    /// sweeps: both operands stream row-major. Row bands shard over
    /// `minipar`, and each element is exactly [`dot`] of its two rows
    /// (reduced `k` ascending) — bit-identical at any job count.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_transposed(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_transposed_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_transposed`] into a caller-owned output
    /// (overwritten).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()` or `out` is not
    /// `self.rows() × other.rows()`.
    pub fn matmul_transposed_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transposed shape mismatch {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.rows),
            "matmul_transposed output shape mismatch"
        );
        tiled_product_into(
            out,
            self.cols.saturating_mul(other.rows),
            |i0, j0| {
                let a_rows: [&[f64]; ROW_BLOCK] = std::array::from_fn(|i| self.row(i0 + i));
                let b_rows: [&[f64]; COL_BLOCK] = std::array::from_fn(|j| other.row(j0 + j));
                // `ROW_BLOCK × COL_BLOCK` independent dot products, each
                // exactly [`dot`]'s sequential sum from -0.0.
                let mut acc = [[-0.0; COL_BLOCK]; ROW_BLOCK];
                for k in 0..self.cols {
                    let b: [f64; COL_BLOCK] = std::array::from_fn(|j| b_rows[j][k]);
                    for (acc_row, a_row) in acc.iter_mut().zip(&a_rows) {
                        let a = a_row[k];
                        for (o, &b) in acc_row.iter_mut().zip(&b) {
                            *o += a * b;
                        }
                    }
                }
                acc
            },
            |i, j0, out_row| {
                let a_row = self.row(i);
                for (j, o) in out_row.iter_mut().enumerate() {
                    *o = dot(a_row, other.row(j0 + j));
                }
            },
        );
    }

    /// Product with a transposed left-hand side: `selfᵀ · other`, where
    /// `self` is `s × m` and `other` is `s × n` (both row-major), giving
    /// `m × n`.
    ///
    /// This is the gradient-accumulation kernel (`∂L/∂W = Dᵀ · X` with both
    /// `D` and `X` batch-major). Each output row is owned by one task and
    /// reduces the batch dimension `s` in ascending order — bit-identical
    /// at any job count, and identical to a per-sample accumulation loop.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`.
    pub fn transpose_matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.transpose_matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::transpose_matmul`] into a caller-owned output
    /// (overwritten).
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()` or `out` is not
    /// `self.cols() × other.cols()`.
    pub fn transpose_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "transpose_matmul shape mismatch ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, other.cols),
            "transpose_matmul output shape mismatch"
        );
        let s_dim = self.rows;
        let m = self.cols;
        let n = other.cols;
        tiled_product_into(
            out,
            s_dim.saturating_mul(n),
            |i0, j0| {
                let mut acc = [[0.0; COL_BLOCK]; ROW_BLOCK];
                for s in 0..s_dim {
                    let a = &self.data[s * m + i0..][..ROW_BLOCK];
                    let b = &other.data[s * n + j0..][..COL_BLOCK];
                    for (acc_row, &a) in acc.iter_mut().zip(a) {
                        for (o, &b) in acc_row.iter_mut().zip(b) {
                            *o += a * b;
                        }
                    }
                }
                acc
            },
            |i, j0, out_row| {
                out_row.fill(0.0);
                for s in 0..s_dim {
                    let a = self.data[s * m + i];
                    for (o, &b) in out_row.iter_mut().zip(&other.row(s)[j0..]) {
                        *o += a * b;
                    }
                }
            },
        );
    }

    /// Adds `row` to every row of the matrix in place (bias broadcast),
    /// sharded over `minipar`.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()`.
    pub fn add_broadcast(&mut self, row: &[f64]) {
        assert_eq!(
            row.len(),
            self.cols,
            "add_broadcast shape mismatch: {} columns vs row of {}",
            self.cols,
            row.len()
        );
        self.par_rows_mut(|_, out_row| {
            for (o, &b) in out_row.iter_mut().zip(row) {
                *o += b;
            }
        });
    }

    /// Subtracts `row` from every row of the matrix in place (e.g. mean
    /// centring), sharded over `minipar`.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()`.
    pub fn sub_broadcast(&mut self, row: &[f64]) {
        assert_eq!(
            row.len(),
            self.cols,
            "sub_broadcast shape mismatch: {} columns vs row of {}",
            self.cols,
            row.len()
        );
        self.par_rows_mut(|_, out_row| {
            for (o, &b) in out_row.iter_mut().zip(row) {
                *o -= b;
            }
        });
    }

    /// Column sums, e.g. bias gradients over a batch. Each column reduces
    /// the rows in ascending order.
    pub fn column_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        self.column_sums_into(&mut sums);
        sums
    }

    /// [`Matrix::column_sums`] into a caller-owned slice (overwritten).
    ///
    /// # Panics
    ///
    /// Panics if `sums.len() != self.cols()`.
    pub fn column_sums_into(&self, sums: &mut [f64]) {
        assert_eq!(sums.len(), self.cols, "column_sums output length mismatch");
        sums.fill(0.0);
        for row in self.data.chunks_exact(self.cols) {
            for (s, &x) in sums.iter_mut().zip(row) {
                *s += x;
            }
        }
    }

    /// Like [`Matrix::par_rows_mut_cost`] but hands each task a whole band
    /// (`f(first_row_index, band_slice)`) of `band_rows` rows, where
    /// `band_rows` was sized by the caller from [`band_count`].
    fn par_rows_band_mut(&mut self, band_rows: usize, f: impl Fn(usize, &mut [f64]) + Sync) {
        let cols = self.cols;
        let rows = self.rows;
        if minipar::jobs() <= 1 || rows <= band_rows {
            f(0, &mut self.data);
            return;
        }
        minipar::scope(|s| {
            for (bi, band) in self.data.chunks_mut(band_rows * cols).enumerate() {
                let f = &f;
                s.spawn(move || f(bi * band_rows, band));
            }
        });
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "matvec shape mismatch");
        (0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Applies `f` to every element in place, sharding row bands over
    /// `minipar` (element-wise, so trivially job-count invariant).
    pub fn map_in_place(&mut self, f: impl Fn(f64) -> f64 + Sync) {
        self.par_rows_mut(|_, row| {
            for v in row.iter_mut() {
                *v = f(*v);
            }
        });
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Column means, e.g. for centering before PCA.
    pub fn column_means(&self) -> Vec<f64> {
        let mut means = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (m, &x) in means.iter_mut().zip(self.row(r)) {
                *m += x;
            }
        }
        let n = self.rows as f64;
        for m in &mut means {
            *m /= n;
        }
        means
    }

    /// Whether all elements are finite (no NaN/inf) — a guard the training
    /// loops use to fail fast on divergence.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, other: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, other: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "sub shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;

    /// Element-wise (Hadamard) product; use [`Matrix::matmul`] for the
    /// matrix product.
    fn mul(self, other: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "hadamard shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a * b)
                .collect(),
        }
    }
}

/// The loop nest the three products share. Shards `out` into bands of
/// whole `ROW_BLOCK`-row quads over `minipar` (`work_per_row` sizes the
/// bands), stores `tile(i0, j0)` for every whole `ROW_BLOCK × COL_BLOCK`
/// tile of a full quad, and hands the rest of each row — the columns past
/// the last whole tile, or every column of a short final quad — to
/// `rest(i, j0, &mut out[i][j0..])`. Each output element is computed by
/// exactly one call, so its value never depends on the banding.
fn tiled_product_into(
    out: &mut Matrix,
    work_per_row: usize,
    tile: impl Fn(usize, usize) -> [[f64; COL_BLOCK]; ROW_BLOCK] + Sync,
    rest: impl Fn(usize, usize, &mut [f64]) + Sync,
) {
    let (rows, n) = (out.rows, out.cols);
    let bands = band_count(rows, work_per_row);
    let band_rows = rows.div_ceil(bands).div_ceil(ROW_BLOCK) * ROW_BLOCK;
    let tiled_cols = n - n % COL_BLOCK;
    out.par_rows_band_mut(band_rows, |r0, band| {
        for (qi, quad) in band.chunks_mut(ROW_BLOCK * n).enumerate() {
            let i0 = r0 + qi * ROW_BLOCK;
            let full_quad = quad.len() == ROW_BLOCK * n;
            if full_quad {
                for j0 in (0..tiled_cols).step_by(COL_BLOCK) {
                    let acc = tile(i0, j0);
                    for (out_row, acc_row) in quad.chunks_exact_mut(n).zip(&acc) {
                        out_row[j0..j0 + COL_BLOCK].copy_from_slice(acc_row);
                    }
                }
            }
            let j0 = if full_quad { tiled_cols } else { 0 };
            if j0 < n {
                for (i, out_row) in quad.chunks_exact_mut(n).enumerate() {
                    rest(i0 + i, j0, &mut out_row[j0..]);
                }
            }
        }
    });
}

/// Minimum estimated work (flop-ish units) a parallel band must carry
/// before forking it onto the pool beats running it inline. Tiny kernels —
/// a 32-row minibatch through a 16-unit layer — stay inline at any job
/// count; the backport-scale sweeps fork. Purely a scheduling decision:
/// values never depend on it.
pub const MIN_TASK_WORK: usize = 1 << 16;

/// How many parallel bands to cut `rows` into for a kernel doing
/// `work_per_row` work per row: at most ~4 bands per worker for load
/// balancing, each band carrying at least [`MIN_TASK_WORK`], and 1 (run
/// inline) when the whole job is small or only one job is allowed.
fn band_count(rows: usize, work_per_row: usize) -> usize {
    let jobs = minipar::jobs();
    if jobs <= 1 {
        return 1;
    }
    let total = rows.saturating_mul(work_per_row.max(1));
    (total / MIN_TASK_WORK).min(jobs * 4).min(rows).max(1)
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot over mismatched lengths");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distance over mismatched lengths");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged_rows() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[0.0, 3.0, 9.0]]);
        assert_eq!(a.matmul(&Matrix::identity(3)), a);
        assert_eq!(Matrix::identity(2).matmul(&a), a);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let v = vec![5.0, 6.0];
        assert_eq!(a.matvec(&v), vec![17.0, 39.0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(&a + &b, Matrix::from_rows(&[&[4.0, 7.0]]));
        assert_eq!(&b - &a, Matrix::from_rows(&[&[2.0, 3.0]]));
        assert_eq!(&a * &b, Matrix::from_rows(&[&[3.0, 10.0]]));
        assert_eq!(a.scale(2.0), Matrix::from_rows(&[&[2.0, 4.0]]));
    }

    #[test]
    fn column_means_and_norm() {
        let a = Matrix::from_rows(&[&[1.0, 10.0], &[3.0, 20.0]]);
        assert_eq!(a.column_means(), vec![2.0, 15.0]);
        assert!((Matrix::identity(4).frobenius_norm() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn finite_guard() {
        let mut a = Matrix::zeros(1, 2);
        assert!(a.is_finite());
        a[(0, 1)] = f64::NAN;
        assert!(!a.is_finite());
    }

    #[test]
    fn dot_and_distance() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    /// Deterministic pseudo-random matrix (no RNG dependency needed).
    fn probe(rows: usize, cols: usize, salt: u64) -> Matrix {
        let data: Vec<f64> = (0..rows * cols)
            .map(|i| {
                let mut z = (i as u64)
                    .wrapping_add(salt)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z ^= z >> 29;
                ((z % 2000) as f64 - 1000.0) / 500.0
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// Reference triple loop, no blocking, no parallelism.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for r in 0..a.rows() {
            for c in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a[(r, k)] * b[(k, c)];
                }
                out[(r, c)] = acc;
            }
        }
        out
    }

    #[test]
    fn blocked_matmul_matches_naive_oracle_non_square() {
        // Deliberately awkward shapes: not multiples of ROW_BLOCK, not
        // square, odd reduction length.
        let a = probe(37, 23, 1);
        let b = probe(23, 41, 2);
        let blocked = a.matmul(&b);
        let oracle = naive_matmul(&a, &b);
        assert_eq!(blocked.rows(), 37);
        assert_eq!(blocked.cols(), 41);
        for r in 0..37 {
            for c in 0..41 {
                assert!(
                    (blocked[(r, c)] - oracle[(r, c)]).abs() < 1e-9,
                    "({r},{c}): {} vs {}",
                    blocked[(r, c)],
                    oracle[(r, c)]
                );
            }
        }
    }

    #[test]
    fn transposed_kernels_match_explicit_transpose() {
        let a = probe(17, 9, 3);
        let b = probe(29, 9, 4);
        assert_eq!(a.matmul_transposed(&b), a.matmul(&b.transpose()));
        let c = probe(17, 11, 5);
        let tm = a.transpose_matmul(&c);
        let explicit = a.transpose().matmul(&c);
        for r in 0..tm.rows() {
            for j in 0..tm.cols() {
                assert!((tm[(r, j)] - explicit[(r, j)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn degenerate_shapes_one_by_n_and_n_by_one() {
        // 1×N · N×1 → 1×1 dot product.
        let row = probe(1, 23, 6);
        let col = probe(23, 1, 7);
        let d = row.matmul(&col);
        assert_eq!((d.rows(), d.cols()), (1, 1));
        let expect: f64 = (0..23).map(|k| row[(0, k)] * col[(k, 0)]).sum();
        assert!((d[(0, 0)] - expect).abs() < 1e-12);
        // N×1 · 1×N → rank-1 outer product.
        let outer = col.matmul(&row);
        assert_eq!((outer.rows(), outer.cols()), (23, 23));
        assert!((outer[(4, 9)] - col[(4, 0)] * row[(0, 9)]).abs() < 1e-12);
        // Transposed kernels on single-row operands.
        assert_eq!(
            row.matmul_transposed(&row)[(0, 0)],
            dot(row.row(0), row.row(0))
        );
    }

    #[test]
    fn tiled_products_are_bit_identical_to_sequential_references() {
        // Shapes with whole tiles plus leftover rows and columns.
        for (m, k, n) in [(37, 23, 41), (8, 5, 4), (3, 7, 2), (13, 1, 9)] {
            let a = probe(m, k, 11);
            let b = probe(k, n, 12);
            let seed: Vec<f64> = probe(1, n, 13).row(0).to_vec();
            let mut seeded = Matrix::zeros(m, n);
            a.matmul_seeded_into(&b, Some(&seed), &mut seeded);
            let plain = a.matmul(&b);
            let bt = b.transpose();
            let at_b = a.transpose().transpose_matmul(&b);
            let abt = a.matmul_transposed(&bt);
            for r in 0..m {
                for c in 0..n {
                    let (mut s, mut z) = (seed[c], 0.0);
                    for kk in 0..k {
                        s += a[(r, kk)] * b[(kk, c)];
                        z += a[(r, kk)] * b[(kk, c)];
                    }
                    assert_eq!(seeded[(r, c)].to_bits(), s.to_bits(), "seeded ({r},{c})");
                    assert_eq!(plain[(r, c)].to_bits(), z.to_bits(), "matmul ({r},{c})");
                    assert_eq!(
                        at_b[(r, c)].to_bits(),
                        z.to_bits(),
                        "transpose_matmul ({r},{c})"
                    );
                    let d = dot(a.row(r), bt.row(c));
                    assert_eq!(
                        abt[(r, c)].to_bits(),
                        d.to_bits(),
                        "matmul_transposed ({r},{c})"
                    );
                }
            }
        }
        // An all-negative-zero dot keeps `dot`'s sign of zero.
        let neg = Matrix::from_vec(4, 4, vec![-0.0; 16]);
        let ones = Matrix::from_vec(4, 4, vec![1.0; 16]);
        assert!(neg.matmul_transposed(&ones)[(0, 0)].is_sign_negative());
    }

    #[test]
    fn parallel_and_serial_products_are_bit_identical() {
        let a = probe(53, 31, 8);
        let b = probe(31, 37, 9);
        let bt = b.transpose();
        let serial = minipar::with_jobs(1, || {
            (
                a.matmul(&b),
                a.matmul_transposed(&bt),
                a.transpose_matmul(&a),
            )
        });
        let wide = minipar::with_jobs(4, || {
            (
                a.matmul(&b),
                a.matmul_transposed(&bt),
                a.transpose_matmul(&a),
            )
        });
        // PartialEq on Matrix compares every f64 exactly: bit-identity.
        assert_eq!(serial.0, wide.0, "matmul diverged across job counts");
        assert_eq!(serial.1, wide.1, "matmul_transposed diverged");
        assert_eq!(serial.2, wide.2, "transpose_matmul diverged");
    }

    #[test]
    fn broadcast_and_column_sums() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        m.add_broadcast(&[10.0, 20.0]);
        assert_eq!(m, Matrix::from_rows(&[&[11.0, 22.0], &[13.0, 24.0]]));
        assert_eq!(m.column_sums(), vec![24.0, 46.0]);
        let serial = minipar::with_jobs(1, || {
            let mut x = probe(19, 7, 10);
            x.add_broadcast(&[0.5; 7]);
            x
        });
        let wide = minipar::with_jobs(4, || {
            let mut x = probe(19, 7, 10);
            x.add_broadcast(&[0.5; 7]);
            x
        });
        assert_eq!(serial, wide);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch 2x3 · 2x2")]
    fn matmul_dimension_mismatch_names_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 2);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "matmul_transposed shape mismatch 2x3 · (4x2)ᵀ")]
    fn matmul_transposed_dimension_mismatch_names_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = a.matmul_transposed(&b);
    }

    #[test]
    #[should_panic(expected = "transpose_matmul shape mismatch (2x3)ᵀ · 4x2")]
    fn transpose_matmul_dimension_mismatch_names_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = a.transpose_matmul(&b);
    }

    #[test]
    #[should_panic(expected = "add_broadcast shape mismatch")]
    fn add_broadcast_dimension_mismatch_panics() {
        let mut a = Matrix::zeros(2, 3);
        a.add_broadcast(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "matmul output shape mismatch")]
    fn matmul_into_rejects_wrong_output_shape() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 4);
        let mut out = Matrix::zeros(2, 3);
        a.matmul_into(&b, &mut out);
    }
}
