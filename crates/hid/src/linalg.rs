//! Minimal dense linear algebra for the from-scratch classifiers.
//!
//! Two tiers live here:
//!
//! * the scalar seed primitives ([`dot`], [`axpy`], [`sigmoid`]) the
//!   original jagged `Vec<Vec<f64>>` implementations were written
//!   against — kept verbatim, because they define the reference
//!   floating-point evaluation order;
//! * the flat math core ([`Mat`], [`Normalizer`], [`gemm_nt`],
//!   [`matvec_into`]) the HID runs on: one contiguous row-major
//!   allocation per matrix and cache-blocked GEMM over one lockstep
//!   dot-product kernel.
//!
//! **Bit-exactness contract:** every element any flat routine produces
//! is computed by the *same* inner k-order fold as [`dot`], from the
//! same starting value — blocking and lockstep lanes only reorder which
//! (row, column) pairs are visited, never the additions inside one
//! pair. `crates/hid/tests/fastmath_equivalence.rs` and the proptests
//! in `crates/hid/tests/props.rs` lock this in against the seed
//! implementations.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics when the lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot of mismatched lengths");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `out += alpha * x` (axpy).
///
/// # Panics
///
/// Panics when the lengths differ.
pub fn axpy(alpha: f64, x: &[f64], out: &mut [f64]) {
    assert_eq!(x.len(), out.len(), "axpy of mismatched lengths");
    for (o, v) in out.iter_mut().zip(x) {
        *o += alpha * v;
    }
}

/// Scales a vector in place.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for v in x {
        *v *= alpha;
    }
}

/// Numerically stable logistic sigmoid.
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Rectified linear unit.
pub fn relu(z: f64) -> f64 {
    z.max(0.0)
}

/// Derivative of ReLU (0 at the kink, as is conventional).
pub fn relu_grad(z: f64) -> f64 {
    if z > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// A dense row-major matrix backed by one contiguous allocation.
///
/// `Mat` is the HID's one matrix type: the online corpus, training
/// and scoring batches, network weight layers and whole-batch
/// activations all live in one `Vec<f64>` each, so iterating rows is a
/// pointer bump instead of a pointer chase through per-row boxes.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Mat {
    /// An all-zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Mat {
        Mat { data: vec![0.0; rows * cols], rows, cols }
    }

    /// Wraps an existing flat buffer (row-major) without copying.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(data: Vec<f64>, rows: usize, cols: usize) -> Mat {
        assert_eq!(data.len(), rows * cols, "flat buffer does not match shape");
        Mat { data, rows, cols }
    }

    /// Copies a jagged row set into one flat allocation.
    ///
    /// # Panics
    ///
    /// Panics when rows have inconsistent widths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Mat {
        let cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "inconsistent row width");
            data.extend_from_slice(row);
        }
        Mat { data, rows: rows.len(), cols }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// One row as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// One row as a mutable slice.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The whole backing buffer, row-major.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The whole backing buffer, row-major, mutable.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Iterates rows in order (zero-width rows included).
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.rows).map(move |i| &self.data[i * self.cols..(i + 1) * self.cols])
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics when `row.len() != self.cols()`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "inconsistent row width");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Removes the rows in `range`, shifting later rows up.
    ///
    /// # Panics
    ///
    /// Panics when `range` reaches past the last row.
    pub fn remove_rows(&mut self, range: std::ops::Range<usize>) {
        assert!(range.start <= range.end && range.end <= self.rows, "row range out of bounds");
        self.data.drain(range.start * self.cols..range.end * self.cols);
        self.rows -= range.len();
    }

    /// Reshapes in place to `rows × cols`, zero-filling; keeps the
    /// allocation when capacity suffices.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }
}

/// Per-column z-score normalizer, fit on training data only.
#[derive(Debug, Clone)]
pub struct Normalizer {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl Normalizer {
    /// Fits column means and standard deviations on the rows of `x`,
    /// summing rows in ascending order.
    ///
    /// # Panics
    ///
    /// Panics when `x` has no rows.
    pub fn fit(x: &Mat) -> Normalizer {
        assert!(x.rows() > 0, "cannot fit a normalizer on no data");
        let n = x.rows() as f64;
        let mut mean = vec![0.0; x.cols()];
        for row in x.iter_rows() {
            for (m, v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0; x.cols()];
        for row in x.iter_rows() {
            for ((s, v), m) in var.iter_mut().zip(row).zip(&mean) {
                *s += (v - m) * (v - m);
            }
        }
        let std = var
            .into_iter()
            .map(|s| {
                let sd = (s / n).sqrt();
                if sd < 1e-12 {
                    1.0
                } else {
                    sd
                }
            })
            .collect();
        Normalizer { mean, std }
    }

    /// Normalizes row-major [`Normalizer::dim`]-wide rows in place: one
    /// row, or a whole matrix's [`Mat::as_mut_slice`].
    ///
    /// # Panics
    ///
    /// Panics when `data.len()` is not a multiple of the fitted
    /// dimension.
    pub fn apply(&self, data: &mut [f64]) {
        let dim = self.dim();
        if dim == 0 {
            assert!(data.is_empty(), "row width mismatch");
            return;
        }
        assert_eq!(data.len() % dim, 0, "row width mismatch");
        for row in data.chunks_exact_mut(dim) {
            for ((v, m), s) in row.iter_mut().zip(&self.mean).zip(&self.std) {
                *v = (*v - m) / s;
            }
        }
    }

    /// The feature dimension.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }
}

/// Cache-block edge for [`gemm_nt`]: 32×32 output tiles keep one tile
/// of each operand (~8 KiB at 4-wide features, still fine at 32-wide
/// hidden layers) resident in L1 while the full-k inner loop runs.
const GEMM_BLOCK: usize = 32;

/// Rows the lockstep kernel folds side by side: enough independent
/// add chains to cover the FP adder's latency.
const LANES: usize = 4;

/// The starting value of every fold: `Iterator::<f64>::sum`'s identity,
/// the value [`dot`] starts from (`-0.0` on current toolchains, so an
/// all-`-0.0` product sum stays `-0.0`). Taken from the empty sum
/// itself, so the kernels can never drift from [`dot`].
pub(crate) fn sum_identity() -> f64 {
    std::iter::empty::<f64>().sum()
}

/// The lockstep dot-product kernel: `out[r] = dot(rows[r], x)` for the
/// `out.len()` rows packed row-major in `rows`.
///
/// A single [`dot`] is one serial add chain, bound by the adder's
/// latency. Here [`LANES`] rows advance through k together, each lane a
/// chain of its own, so the adds overlap. Every lane starts from
/// [`sum_identity`] and adds `row[t] * x[t]` in ascending `t` — exactly
/// [`dot`]'s fold — so each element is bit-identical to [`dot`]. Rows
/// left over after the last full group go through [`dot`] itself.
fn matvec_lanes(rows: &[f64], x: &[f64], out: &mut [f64]) {
    let k = x.len();
    debug_assert_eq!(rows.len(), out.len() * k, "kernel shape mismatch");
    let full = out.len() - out.len() % LANES;
    let (grouped, tail) = out.split_at_mut(full);
    for (g, o) in grouped.chunks_exact_mut(LANES).enumerate() {
        let block = &rows[g * LANES * k..(g + 1) * LANES * k];
        let (r0, rest) = block.split_at(k);
        let (r1, rest) = rest.split_at(k);
        let (r2, r3) = rest.split_at(k);
        let (mut a0, mut a1, mut a2, mut a3) =
            (sum_identity(), sum_identity(), sum_identity(), sum_identity());
        for t in 0..k {
            let xv = x[t];
            a0 += r0[t] * xv;
            a1 += r1[t] * xv;
            a2 += r2[t] * xv;
            a3 += r3[t] * xv;
        }
        o.copy_from_slice(&[a0, a1, a2, a3]);
    }
    for (r, o) in (full..).zip(tail) {
        *o = dot(&rows[r * k..(r + 1) * k], x);
    }
}

/// `out = a · bᵀ` — the whole-batch product of two row-major matrices
/// sharing their inner (k) dimension, i/j-blocked for cache reuse.
///
/// Every output element is exactly `dot(a.row(i), b.row(j))`: each
/// tile row is one call of the lockstep kernel behind [`matvec_into`],
/// which never splits the k loop, so each element's floating-point
/// fold matches the scalar seed path bit for bit.
///
/// # Panics
///
/// Panics when the shapes disagree.
pub fn gemm_nt(a: &Mat, b: &Mat, out: &mut Mat) {
    assert_eq!(a.cols(), b.cols(), "gemm_nt inner dimensions differ");
    assert_eq!(out.rows(), a.rows(), "gemm_nt output rows mismatch");
    assert_eq!(out.cols(), b.rows(), "gemm_nt output cols mismatch");
    let (m, n, k) = (a.rows(), b.rows(), a.cols());
    for ib in (0..m).step_by(GEMM_BLOCK) {
        let ie = (ib + GEMM_BLOCK).min(m);
        for jb in (0..n).step_by(GEMM_BLOCK) {
            let je = (jb + GEMM_BLOCK).min(n);
            let b_tile = &b.as_slice()[jb * k..je * k];
            for i in ib..ie {
                matvec_lanes(b_tile, a.row(i), &mut out.row_mut(i)[jb..je]);
            }
        }
    }
}

/// `out[j] = dot(m.row(j), x)` without allocating, computed by the
/// lockstep kernel (bit-identical to per-row [`dot`]).
///
/// # Panics
///
/// Panics when the shapes disagree.
pub fn matvec_into(m: &Mat, x: &[f64], out: &mut [f64]) {
    assert_eq!(m.cols(), x.len(), "matvec_into width mismatch");
    assert_eq!(m.rows(), out.len(), "matvec_into output length mismatch");
    matvec_lanes(m.as_slice(), x, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "mismatched")]
    fn dot_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut out = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut out);
        assert_eq!(out, vec![7.0, 9.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = vec![2.0, -4.0];
        scale(0.5, &mut x);
        assert_eq!(x, vec![1.0, -2.0]);
    }

    #[test]
    fn sigmoid_properties() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(40.0) > 0.999_999);
        assert!(sigmoid(-40.0) < 1e-6);
        // Stability at extremes.
        assert!(sigmoid(-1000.0).is_finite());
        assert!(sigmoid(1000.0).is_finite());
        // Symmetry.
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relu_and_grad() {
        assert_eq!(relu(-3.0), 0.0);
        assert_eq!(relu(3.0), 3.0);
        assert_eq!(relu_grad(-1.0), 0.0);
        assert_eq!(relu_grad(1.0), 1.0);
        assert_eq!(relu_grad(0.0), 0.0);
    }

    #[test]
    fn mat_from_rows_round_trips() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let m = Mat::from_rows(&rows);
        assert_eq!((m.rows(), m.cols()), (3, 2));
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(m.row(i), row.as_slice());
        }
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.iter_rows().count(), 3);
    }

    #[test]
    #[should_panic(expected = "inconsistent row width")]
    fn mat_from_ragged_rows_panics() {
        let _ = Mat::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn mat_from_vec_shape_mismatch_panics() {
        let _ = Mat::from_vec(vec![1.0, 2.0, 3.0], 2, 2);
    }

    #[test]
    fn mat_zero_width_rows_iterate() {
        let m = Mat::zeros(3, 0);
        assert_eq!(m.iter_rows().count(), 3);
        assert!(m.iter_rows().all(|r| r.is_empty()));
    }

    #[test]
    fn mat_reset_keeps_allocation() {
        let mut m = Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let cap = m.as_slice().len();
        m.reset(1, 2);
        assert_eq!((m.rows(), m.cols()), (1, 2));
        assert_eq!(m.row(0), &[0.0, 0.0]);
        assert!(cap >= 2);
    }

    #[test]
    fn mat_push_and_remove_rows() {
        let mut m = Mat::from_rows(&[vec![1.0, 2.0]]);
        m.push_row(&[3.0, 4.0]);
        m.push_row(&[5.0, 6.0]);
        m.push_row(&[7.0, 8.0]);
        m.remove_rows(1..3);
        assert_eq!((m.rows(), m.cols()), (2, 2));
        assert_eq!(m.as_slice(), &[1.0, 2.0, 7.0, 8.0]);
        m.remove_rows(2..2);
        assert_eq!(m.rows(), 2);
    }

    #[test]
    #[should_panic(expected = "inconsistent row width")]
    fn mat_push_row_rejects_wrong_width() {
        Mat::zeros(1, 2).push_row(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn mat_remove_rows_rejects_out_of_range() {
        Mat::zeros(2, 2).remove_rows(1..3);
    }

    #[test]
    fn normalizer_zero_means_unit_std() {
        let mut m = Mat::from_rows(&[vec![1.0, 10.0], vec![3.0, 30.0], vec![5.0, 50.0]]);
        let norm = Normalizer::fit(&m);
        norm.apply(m.as_mut_slice());
        for col in 0..2 {
            let mean: f64 = m.iter_rows().map(|r| r[col]).sum::<f64>() / 3.0;
            let var: f64 = m.iter_rows().map(|r| (r[col] - mean).powi(2)).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-9);
        }
        assert_eq!(norm.dim(), 2);
    }

    #[test]
    fn normalizer_applies_to_any_whole_number_of_rows() {
        let m = Mat::from_rows(&[vec![1.0, 10.0], vec![3.0, 30.0], vec![5.0, 50.0]]);
        let norm = Normalizer::fit(&m);
        let mut whole = m.as_slice().to_vec();
        norm.apply(&mut whole);
        for (i, row) in m.iter_rows().enumerate() {
            let mut one = row.to_vec();
            norm.apply(&mut one);
            for (a, b) in one.iter().zip(&whole[i * 2..]) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
            }
        }
        norm.apply(&mut []);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn normalizer_rejects_partial_rows() {
        let norm = Normalizer::fit(&Mat::from_rows(&[vec![1.0, 2.0]]));
        norm.apply(&mut [1.0, 2.0, 3.0]);
    }

    #[test]
    fn constant_column_does_not_divide_by_zero() {
        let norm = Normalizer::fit(&Mat::from_rows(&[vec![7.0], vec![7.0]]));
        let mut row = [7.0];
        norm.apply(&mut row);
        assert_eq!(row[0], 0.0);
    }

    #[test]
    fn gemm_nt_matches_per_element_dot() {
        // Shapes straddling the 32-wide block edge.
        for (m, n, k) in [(1, 1, 1), (3, 5, 4), (33, 34, 7), (64, 32, 33), (2, 2, 0)] {
            let a = Mat::from_vec(
                (0..m * k).map(|v| (v as f64).sin()).collect(),
                m,
                k,
            );
            let b = Mat::from_vec(
                (0..n * k).map(|v| (v as f64 * 0.7).cos()).collect(),
                n,
                k,
            );
            let mut c = Mat::zeros(m, n);
            gemm_nt(&a, &b, &mut c);
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(
                        c.row(i)[j].to_bits(),
                        dot(a.row(i), b.row(j)).to_bits(),
                        "({m},{n},{k}) element ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn lockstep_folds_start_where_dot_does() {
        // `[-0.0].iter().sum()` is the identity plus -0.0: -0.0 exactly
        // when the identity is -0.0, as on current toolchains.
        let one_term: f64 = [-0.0f64].iter().sum();
        assert_eq!(sum_identity().to_bits(), one_term.to_bits());
        // Every product -0.0: only a fold started from `dot`'s identity
        // reproduces `dot`'s sign, in the lanes and in the tail.
        let m = Mat::from_vec(vec![-0.0; 6 * 3], 6, 3);
        let x = [1.0, 2.0, 3.0];
        let mut out = vec![f64::NAN; 6];
        matvec_into(&m, &x, &mut out);
        for v in out {
            assert_eq!(v.to_bits(), dot(m.row(0), &x).to_bits());
        }
    }

    #[test]
    fn matvec_into_computes_row_dots() {
        let m = Mat::from_rows(&[vec![1.0, 0.5], vec![0.25, 2.0], vec![1.0, 1.0]]);
        let mut out = vec![0.0; 3];
        matvec_into(&m, &[3.0, 4.0], &mut out);
        assert_eq!(out, vec![5.0, 8.75, 7.0]);
    }
}
