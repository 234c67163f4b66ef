//! Compacted interpolation tables (the paper's contribution #2).
//!
//! §2.1.2: *"we use a compacted interpolation table, of which size is
//! only 39 KB (1/7 of the traditional table). The compacted interpolation
//! table contains the values of 5000 sampling points ... all the values
//! in the traditional table can be calculated on the fly using the
//! compacted table and a specific interpolation formula"* (Fig. 5):
//!
//! ```text
//! L[5,2] = ( S[0] − S[4] + 8·(S[3] − S[1]) ) / 12
//! ```
//!
//! which is the classic 5-point central difference for the first
//! derivative at a knot. Knot derivatives come from that stencil and
//! each segment is evaluated as a cubic Hermite polynomial — on the CPE
//! trading ~3× more flops per access for a table that *fits in the 64 KB
//! local store*, the trade the paper shows wins decisively (Fig. 9).
//!
//! The modelled CPE rebuilds the two knot slopes of a segment on every
//! access, and the cost model charges that ([`RECON_EXTRA_FLOPS`]). The
//! host that simulates it need not: the slopes depend on the table
//! alone, so [`CompactTable::build`] runs the stencils once per knot and
//! keeps the results beside the values. Every lookup reads them from
//! that memo, with the bits the stencil would have produced. The memo is
//! host state, outside the model: [`CompactTable::memory_bytes`], the
//! local-store reservation and the resident-table DMA price the values
//! only (DESIGN §6.17).

use crate::BATCH_LANES;

/// Extra scalar flops per table access paid for on-the-fly coefficient
/// reconstruction (5-point stencil ×2 knots + Hermite combination),
/// compared with [`crate::spline::TraditionalTable`] direct evaluation.
/// Used by the CPE cost accounting. A *fused* two-table lookup
/// ([`CompactTable::eval2`]) pays this once per table but the segment
/// locate ([`crate::LOCATE_FLOPS`]) only once. The host reads the
/// slopes from its memo, but the modelled CPE does not have one, so the
/// charge stands.
pub const RECON_EXTRA_FLOPS: u64 = 28;

/// Cubic Hermite basis values at local coordinate `t ∈ [0,1]`:
/// `[h00, h10, h01, h11, dh00, dh10, dh01, dh11]` — the value basis and
/// its derivative basis. Computing these once is what a fused
/// two-table lookup shares besides the locate.
#[inline]
fn hermite_basis(t: f64) -> [f64; 8] {
    let t2 = t * t;
    let t3 = t2 * t;
    [
        2.0 * t3 - 3.0 * t2 + 1.0,
        t3 - 2.0 * t2 + t,
        -2.0 * t3 + 3.0 * t2,
        t3 - t2,
        6.0 * t2 - 6.0 * t,
        3.0 * t2 - 4.0 * t + 1.0,
        -6.0 * t2 + 6.0 * t,
        3.0 * t2 - 2.0 * t,
    ]
}

/// Segment index and local coordinate for `x` on a knot grid of
/// `n` values starting at `x0` with spacing `dx` (clamped to range).
// flops: LOCATE_FLOPS = 4 (sub, div, floor/min, clamp — shared with the
// traditional locate; a fused eval2 pays it once for both tables)
#[inline]
fn locate_on(n: usize, x0: f64, dx: f64, x: f64) -> (usize, f64) {
    let u = ((x - x0) / dx).max(0.0);
    let max_seg = n - 2;
    let i = (u as usize).min(max_seg);
    let t = (u - i as f64).clamp(0.0, 1.0);
    (i, t)
}

/// SoA Hermite basis for one lane group: `out[c][k]` is component `c`
/// of `hermite_basis(t[k])` — component-major so the combine loops in
/// [`CompactTable::eval_segment_lanes`] read contiguous lane arrays.
#[inline]
fn hermite_basis_lanes(t: &[f64; BATCH_LANES]) -> [[f64; BATCH_LANES]; 8] {
    let mut out = [[0.0; BATCH_LANES]; 8];
    for k in 0..BATCH_LANES {
        let b = hermite_basis(t[k]);
        for (c, row) in out.iter_mut().enumerate() {
            row[k] = b[c];
        }
    }
    out
}

/// Value-half SoA Hermite basis (`h00, h10, h01, h11` lanes only) —
/// the value-only density kernel never reads the derivative basis, and
/// the four value components are computed with exactly the
/// [`hermite_basis`] expressions, so the value lanes stay bitwise
/// identical.
#[inline]
fn hermite_value_basis_lanes(t: &[f64; BATCH_LANES]) -> [[f64; BATCH_LANES]; 4] {
    let mut out = [[0.0; BATCH_LANES]; 4];
    for k in 0..BATCH_LANES {
        let t1 = t[k];
        let t2 = t1 * t1;
        let t3 = t2 * t1;
        out[0][k] = 2.0 * t3 - 3.0 * t2 + 1.0;
        out[1][k] = t3 - 2.0 * t2 + t1;
        out[2][k] = -2.0 * t3 + 3.0 * t2;
        out[3][k] = t3 - t2;
    }
    out
}

/// One lane group of a batch argument.
fn lane(x: &[f64]) -> &[f64; BATCH_LANES] {
    x.try_into().expect("lane window")
}

/// One lane group of a batch output.
fn lane_mut(x: &mut [f64]) -> &mut [f64; BATCH_LANES] {
    x.try_into().expect("lane window")
}

/// Knot derivative via the paper's 5-point formula (one-sided stencils
/// of the same order near the boundaries). Run once per knot, by
/// [`CompactTable::build`].
fn knot_deriv(values: &[f64], i: usize, dx: f64) -> f64 {
    let n = values.len();
    if i >= 2 && i + 2 < n {
        // (S[i-2] − S[i+2] + 8·(S[i+1] − S[i-1])) / 12  — Fig. 5.
        (values[i - 2] - values[i + 2] + 8.0 * (values[i + 1] - values[i - 1])) / (12.0 * dx)
    } else if i == 0 {
        (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * dx)
    } else if i == 1 {
        (values[2] - values[0]) / (2.0 * dx)
    } else if i + 2 == n {
        (values[n - 1] - values[n - 3]) / (2.0 * dx)
    } else {
        (3.0 * values[n - 1] - 4.0 * values[n - 2] + values[n - 3]) / (2.0 * dx)
    }
}

/// A compacted table: sample values on a uniform knot grid, and the
/// host's memo of the knot slopes the modelled CPE reconstructs from
/// them. The fields are private so that the memo always belongs to the
/// values and the grid it was built from.
#[derive(Debug, Clone)]
pub struct CompactTable {
    /// First knot abscissa.
    x0: f64,
    /// Knot spacing.
    dx: f64,
    /// The `n` sample values `S[i] = f(x0 + i·dx)`.
    values: Vec<f64>,
    /// `slopes[i]` = the 5-point knot derivative at knot `i`, times
    /// `dx`: host state that no cost or capacity figure counts.
    slopes: Vec<f64>,
}

impl CompactTable {
    /// Samples `f` at `n` equally spaced knots over `[x0, x1]` and
    /// memoises the knot slopes.
    pub fn build(f: impl Fn(f64) -> f64, x0: f64, x1: f64, n: usize) -> Self {
        assert!(n >= 6, "5-point stencil needs at least 6 knots");
        assert!(x1 > x0);
        let dx = (x1 - x0) / (n - 1) as f64;
        let values: Vec<f64> = (0..n).map(|i| f(x0 + i as f64 * dx)).collect();
        let slopes = (0..n).map(|i| knot_deriv(&values, i, dx) * dx).collect();
        Self {
            x0,
            dx,
            values,
            slopes,
        }
    }

    /// The sample values — what a CPE holds resident.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of knots.
    pub fn n(&self) -> usize {
        self.values.len()
    }

    /// Last covered abscissa.
    pub fn x_max(&self) -> f64 {
        self.x0 + (self.n() - 1) as f64 * self.dx
    }

    /// Size in bytes — `n × 8`; 39.1 KiB for the paper's n = 5000,
    /// small enough to sit resident in a CPE local store. The values
    /// only: the slope memo is host state.
    pub fn memory_bytes(&self) -> usize {
        self.values.len() * 8
    }

    /// Segment index and local coordinate for `x` (clamped to range).
    #[inline]
    pub fn locate(&self, x: f64) -> (usize, f64) {
        locate_on(self.values.len(), self.x0, self.dx, x)
    }

    /// Value and derivative of the segment `(i, t)`, given a
    /// precomputed Hermite basis. The two knot slopes come from the
    /// memo; the modelled CPE reconstructs them here.
    // flops: SEG_EVAL_FLOPS = 8 (Hermite value 4·mul+3·add ≈ value +
    // derivative combination, same per-segment charge as the
    // traditional form)
    // flops: RECON_EXTRA_FLOPS = 28 (two 5-point knot-derivative
    // stencils at ~10 ops each + basis/derivative scaling — the
    // compacted table's on-the-fly reconstruction premium on the CPE)
    #[inline]
    fn eval_segment(
        values: &[f64],
        slopes: &[f64],
        i: usize,
        t_basis: &[f64; 8],
        dx: f64,
    ) -> (f64, f64) {
        let (y0, y1, d0, d1) = (values[i], values[i + 1], slopes[i], slopes[i + 1]);
        let [h00, h10, h01, h11, dh00, dh10, dh01, dh11] = *t_basis;
        let value = h00 * y0 + h10 * d0 + h01 * y1 + h11 * d1;
        let deriv = (dh00 * y0 + dh10 * d0 + dh01 * y1 + dh11 * d1) / dx;
        (value, deriv)
    }

    /// Value and derivative at `x` from a table's values and slope memo
    /// as **slices** — the scalar kernel every owned lookup runs.
    #[inline]
    fn eval_slice(values: &[f64], slopes: &[f64], x0: f64, dx: f64, x: f64) -> (f64, f64) {
        let (i, t) = locate_on(values.len(), x0, dx, x);
        Self::eval_segment(values, slopes, i, &hermite_basis(t), dx)
    }

    /// Fused owned-table lookup: `(self(x), self'(x), other(x),
    /// other'(x))` from ONE locate and one Hermite basis, bit-identical
    /// to two separate [`CompactTable::eval_both`] calls. `other` must
    /// share this table's knot grid (the r-indexed pair and density
    /// tables do).
    #[inline]
    pub fn eval2(&self, other: &CompactTable, x: f64) -> (f64, f64, f64, f64) {
        self.assert_same_grid(other);
        let (i, t) = self.locate(x);
        let basis = hermite_basis(t);
        let (va, da) = Self::eval_segment(&self.values, &self.slopes, i, &basis, self.dx);
        let (vb, db) = Self::eval_segment(&other.values, &other.slopes, i, &basis, self.dx);
        (va, da, vb, db)
    }

    /// A fused lookup's precondition: `other` shares this knot grid.
    fn assert_same_grid(&self, other: &CompactTable) {
        debug_assert_eq!(self.x0, other.x0, "fused tables must share x0");
        debug_assert_eq!(self.dx, other.dx, "fused tables must share dx");
        debug_assert_eq!(self.n(), other.n(), "fused tables must share the knot grid");
    }

    /// Value and derivative at `x` from this owned table.
    #[inline]
    pub fn eval_both(&self, x: f64) -> (f64, f64) {
        Self::eval_slice(&self.values, &self.slopes, self.x0, self.dx, x)
    }

    /// Value at `x`.
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        self.eval_both(x).0
    }

    /// Derivative at `x`.
    #[inline]
    pub fn eval_deriv(&self, x: f64) -> f64 {
        self.eval_both(x).1
    }

    /// Segment indices and local coordinates for one full lane group.
    /// Replays [`locate_on`] per lane, so each lane's result is bitwise
    /// identical to the scalar locate.
    #[inline]
    fn locate_lanes(&self, xs: &[f64; BATCH_LANES]) -> ([usize; BATCH_LANES], [f64; BATCH_LANES]) {
        let mut seg = [0usize; BATCH_LANES];
        let mut t = [0.0; BATCH_LANES];
        for k in 0..BATCH_LANES {
            (seg[k], t[k]) = self.locate(xs[k]);
        }
        (seg, t)
    }

    /// The gather stage of the lane-group evals: the knot values and
    /// memoised slopes of each lane's segment, in lane arrays (the only
    /// non-contiguous reads).
    #[inline]
    #[allow(clippy::type_complexity)]
    fn gather_segment_lanes(
        &self,
        seg: &[usize; BATCH_LANES],
    ) -> (
        [f64; BATCH_LANES],
        [f64; BATCH_LANES],
        [f64; BATCH_LANES],
        [f64; BATCH_LANES],
    ) {
        let mut y0 = [0.0; BATCH_LANES];
        let mut y1 = [0.0; BATCH_LANES];
        let mut d0 = [0.0; BATCH_LANES];
        let mut d1 = [0.0; BATCH_LANES];
        for k in 0..BATCH_LANES {
            let i = seg[k];
            y0[k] = self.values[i];
            y1[k] = self.values[i + 1];
            d0[k] = self.slopes[i];
            d1[k] = self.slopes[i + 1];
        }
        (y0, y1, d0, d1)
    }

    /// Evaluates this table's located segments across a full lane
    /// group: the gathered values and slopes are combined with the
    /// shared SoA basis in branch-free lane loops the autovectorizer can
    /// tile. Each lane replays exactly the scalar
    /// [`CompactTable::eval_segment`] expression, so every lane is
    /// bitwise identical to a scalar eval.
    // flops: SEG_EVAL_FLOPS = 8 (per lane — the same Hermite value +
    // derivative combination as the scalar segment eval)
    #[inline]
    fn eval_segment_lanes(
        &self,
        seg: &[usize; BATCH_LANES],
        h: &[[f64; BATCH_LANES]; 8],
        val: &mut [f64; BATCH_LANES],
        der: &mut [f64; BATCH_LANES],
    ) {
        let (y0, y1, d0, d1) = self.gather_segment_lanes(seg);
        for k in 0..BATCH_LANES {
            val[k] = h[0][k] * y0[k] + h[1][k] * d0[k] + h[2][k] * y1[k] + h[3][k] * d1[k];
        }
        for k in 0..BATCH_LANES {
            der[k] =
                (h[4][k] * y0[k] + h[5][k] * d0[k] + h[6][k] * y1[k] + h[7][k] * d1[k]) / self.dx;
        }
    }

    /// Batched value + derivative: full [`BATCH_LANES`] groups go
    /// through the lane kernel, the ragged tail through the scalar
    /// [`CompactTable::eval_both`]. Bitwise identical to per-element
    /// evaluation at every length.
    pub fn eval_batch(&self, xs: &[f64], val: &mut [f64], der: &mut [f64]) {
        assert_eq!(xs.len(), val.len());
        assert_eq!(xs.len(), der.len());
        let full = xs.len() - xs.len() % BATCH_LANES;
        for k in (0..full).step_by(BATCH_LANES) {
            let w = k..k + BATCH_LANES;
            let (seg, t) = self.locate_lanes(lane(&xs[w.clone()]));
            let h = hermite_basis_lanes(&t);
            self.eval_segment_lanes(
                &seg,
                &h,
                lane_mut(&mut val[w.clone()]),
                lane_mut(&mut der[w]),
            );
        }
        for j in full..xs.len() {
            (val[j], der[j]) = self.eval_both(xs[j]);
        }
    }

    /// Batched fused two-table lookup — the batch counterpart of
    /// [`CompactTable::eval2`]: per lane group, ONE locate pass and one
    /// SoA Hermite basis serve both tables (which must share the knot
    /// grid); the ragged tail reuses the scalar `eval2`. All four output
    /// streams are bitwise identical to per-element `eval2` calls.
    #[allow(clippy::too_many_arguments)]
    pub fn eval2_batch(
        &self,
        other: &CompactTable,
        xs: &[f64],
        va: &mut [f64],
        da: &mut [f64],
        vb: &mut [f64],
        db: &mut [f64],
    ) {
        self.assert_same_grid(other);
        for out in [&*va, &*da, &*vb, &*db] {
            assert_eq!(xs.len(), out.len());
        }
        let full = xs.len() - xs.len() % BATCH_LANES;
        for k in (0..full).step_by(BATCH_LANES) {
            let w = k..k + BATCH_LANES;
            let (seg, t) = self.locate_lanes(lane(&xs[w.clone()]));
            let h = hermite_basis_lanes(&t);
            self.eval_segment_lanes(
                &seg,
                &h,
                lane_mut(&mut va[w.clone()]),
                lane_mut(&mut da[w.clone()]),
            );
            other.eval_segment_lanes(&seg, &h, lane_mut(&mut vb[w.clone()]), lane_mut(&mut db[w]));
        }
        for j in full..xs.len() {
            (va[j], da[j], vb[j], db[j]) = self.eval2(other, xs[j]);
        }
    }

    /// Batched value-only lookup — the density-pass kernel (ρ
    /// accumulation never reads f'(r)), which skips the derivative
    /// combine. Values are bitwise identical to per-element
    /// [`CompactTable::eval`] calls.
    pub fn eval_values_batch(&self, xs: &[f64], val: &mut [f64]) {
        assert_eq!(xs.len(), val.len());
        let full = xs.len() - xs.len() % BATCH_LANES;
        for start in (0..full).step_by(BATCH_LANES) {
            let w = start..start + BATCH_LANES;
            let (seg, t) = self.locate_lanes(lane(&xs[w.clone()]));
            let h = hermite_value_basis_lanes(&t);
            let (y0, y1, d0, d1) = self.gather_segment_lanes(&seg);
            let out = lane_mut(&mut val[w]);
            for k in 0..BATCH_LANES {
                out[k] = h[0][k] * y0[k] + h[1][k] * d0[k] + h[2][k] * y1[k] + h[3][k] * d1[k];
            }
        }
        for j in full..xs.len() {
            val[j] = self.eval(xs[j]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spline::{TraditionalTable, PAPER_TABLE_N};

    #[test]
    fn paper_table_is_39kb() {
        let t = CompactTable::build(|x| x, 0.0, 1.0, PAPER_TABLE_N);
        assert_eq!(t.memory_bytes(), 40_000);
        assert!((t.memory_bytes() as f64 / 1024.0 - 39.06).abs() < 0.1);
        // And it fits where the traditional table does not.
        let ldm = mmds_sunway::SwModel::sw26010().ldm_bytes;
        assert!(t.memory_bytes() < ldm);
        let trad = TraditionalTable::build(|x| x, 0.0, 1.0, PAPER_TABLE_N);
        assert!(trad.memory_bytes() > ldm);
        assert_eq!(trad.memory_bytes(), 7 * t.memory_bytes());
    }

    #[test]
    fn slope_memo_is_the_stencil_at_every_knot() {
        // Interior knots take the Fig. 5 stencil, knots 0, 1, n−2 and
        // n−1 the one-sided ones; the memo must hold each one's bits.
        let f = |x: f64| (1.3 * x).sin() * (-0.4 * x).exp() + 0.1 * x;
        for n in [6, 7, 64, PAPER_TABLE_N] {
            let t = CompactTable::build(f, 0.5, 5.0, n);
            assert_eq!(t.slopes.len(), n);
            for i in 0..n {
                let stencil = knot_deriv(&t.values, i, t.dx) * t.dx;
                assert_eq!(t.slopes[i].to_bits(), stencil.to_bits(), "n {n} knot {i}");
            }
            // The memo is host state: the table still prices its values.
            assert_eq!(t.memory_bytes(), 8 * n);
        }
    }

    #[test]
    fn exact_on_cubic() {
        // Hermite with 4th-order-accurate knot slopes is exact on cubics.
        let f = |x: f64| 2.0 * x * x * x - x * x + 3.0;
        let t = CompactTable::build(f, 0.0, 2.0, 40);
        for i in 0..50 {
            let x = 0.15 + i as f64 * 0.035;
            let (v, d) = t.eval_both(x);
            assert!((v - f(x)).abs() < 1e-9, "value at {x}: {v}");
            let df = 6.0 * x * x - 2.0 * x;
            assert!((d - df).abs() < 1e-7, "deriv at {x}: {d} vs {df}");
        }
    }

    #[test]
    fn agrees_with_traditional_table() {
        let f = |x: f64| (1.3 * x).sin() * (-0.4 * x).exp() + 0.1 * x;
        let trad = TraditionalTable::build(f, 0.5, 5.0, PAPER_TABLE_N);
        let comp = CompactTable::build(f, 0.5, 5.0, PAPER_TABLE_N);
        for i in 0..500 {
            let x = 0.5 + 4.5 * (i as f64 + 0.37) / 500.0;
            let (tv, td) = trad.eval_both(x);
            let (cv, cd) = comp.eval_both(x);
            assert!((tv - cv).abs() < 1e-9, "value mismatch at {x}");
            assert!((td - cd).abs() < 1e-5, "deriv mismatch at {x}");
        }
    }

    #[test]
    fn boundary_stencils_reasonable() {
        let f = |x: f64| x.exp();
        let t = CompactTable::build(f, 0.0, 1.0, 100);
        // First and last segments still approximate well.
        let (v, d) = t.eval_both(0.003);
        assert!((v - f(0.003)).abs() < 1e-6);
        assert!((d - f(0.003)).abs() < 1e-3);
        let (v, d) = t.eval_both(0.997);
        assert!((v - f(0.997)).abs() < 1e-6);
        assert!((d - f(0.997)).abs() < 1e-3);
    }

    #[test]
    fn clamps_outside_range() {
        let t = CompactTable::build(|x| x, 1.0, 2.0, 64);
        assert!((t.eval(0.5) - 1.0).abs() < 1e-9);
        assert!((t.eval(3.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fused_eval2_is_bitwise_two_lookups() {
        let fa = |x: f64| (1.1 * x).sin() + 0.2 * x;
        let fb = |x: f64| (-0.3 * x).exp() * x;
        let a = CompactTable::build(fa, 1.0, 5.0, 777);
        let b = CompactTable::build(fb, 1.0, 5.0, 777);
        for i in 0..400 {
            let x = 0.8 + i as f64 * 0.0115; // includes the clamp regions
            let (va, da, vb, db) = a.eval2(&b, x);
            let (va1, da1) = a.eval_both(x);
            let (vb1, db1) = b.eval_both(x);
            assert_eq!(va, va1, "fused value a at {x}");
            assert_eq!(da, da1, "fused deriv a at {x}");
            assert_eq!(vb, vb1, "fused value b at {x}");
            assert_eq!(db, db1, "fused deriv b at {x}");
        }
    }

    #[test]
    fn batch_kernels_are_bitwise_scalar_at_every_length() {
        let fa = |x: f64| (1.1 * x).sin() + 0.2 * x;
        let fb = |x: f64| (-0.3 * x).exp() * x;
        let a = CompactTable::build(fa, 1.0, 5.0, 777);
        let b = CompactTable::build(fb, 1.0, 5.0, 777);
        for len in [0, 1, BATCH_LANES - 1, BATCH_LANES, BATCH_LANES + 1, 37] {
            let xs: Vec<f64> = (0..len).map(|i| 0.8 + i as f64 * 0.13).collect();
            let mut va = vec![0.0; len];
            let mut da = vec![0.0; len];
            let mut vb = vec![0.0; len];
            let mut db = vec![0.0; len];
            a.eval2_batch(&b, &xs, &mut va, &mut da, &mut vb, &mut db);
            let mut vals = vec![0.0; len];
            a.eval_values_batch(&xs, &mut vals);
            let mut v1 = vec![0.0; len];
            let mut d1 = vec![0.0; len];
            a.eval_batch(&xs, &mut v1, &mut d1);
            for (j, &x) in xs.iter().enumerate() {
                let (sva, sda, svb, sdb) = a.eval2(&b, x);
                assert_eq!(va[j], sva, "len {len} lane {j}");
                assert_eq!(da[j], sda, "len {len} lane {j}");
                assert_eq!(vb[j], svb, "len {len} lane {j}");
                assert_eq!(db[j], sdb, "len {len} lane {j}");
                assert_eq!(vals[j], a.eval(x), "len {len} lane {j}");
                assert_eq!(v1[j], a.eval(x));
                assert_eq!(d1[j], a.eval_deriv(x));
            }
        }
    }

    #[test]
    fn eval_slice_matches_owned() {
        let t = CompactTable::build(|x| x * x, 0.0, 3.0, 128);
        let (v1, d1) = t.eval_both(1.718);
        let (v2, d2) = CompactTable::eval_slice(&t.values, &t.slopes, t.x0, t.dx, 1.718);
        assert_eq!(v1, v2);
        assert_eq!(d1, d2);
    }
}
