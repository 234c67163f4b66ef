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

/// Segment indices and local coordinates for one full lane group: the
/// locate as three lane loops.
///
/// ```text
/// u   = ((x − x0) / dx).max(0.0)
/// seg = u.min(max_seg) as i32
/// t   = (u − seg).clamp(0.0, 1.0)
/// ```
///
/// Every lane equals [`locate_on`] at the same `x`, bit for bit, for
/// every input. Both compute `u` with the same expression, so take any
/// `u`: it is never NaN (`max` returns its other operand when one is
/// NaN, so NaN and −∞ give `u = 0`, and +∞ stays +∞) and never below 0.
/// * `u < max_seg` (finite): `min` returns `u`, and both conversions
///   truncate the same non-negative value to `floor(u)`, which is below
///   `max_seg`, so `locate_on`'s integer `min` keeps it too.
/// * `u ≥ max_seg`, +∞ included: `min` returns `max_seg` exactly (it is
///   below 2³¹, [`CompactTable::build`] asserts it), which converts to
///   `max_seg`; `locate_on` converts `u` to `floor(u) ≥ max_seg`, or
///   saturates at +∞, and its integer `min` gives `max_seg` too.
///
/// Both sides then subtract the same integer, converted back exactly,
/// from the same `u` and clamp: the same `t` (+∞ gives the last segment
/// and `t = 1`, NaN segment 0 and `t = 0`). Because `u` is clamped to
/// `[0, max_seg]` first, the conversion never saturates, and it is one
/// 32-bit truncation per lane where `locate_on`'s saturating 64-bit
/// conversion takes two and a fix-up.
#[inline(always)]
fn locate_lanes(
    n: usize,
    x0: f64,
    dx: f64,
    xs: &[f64; BATCH_LANES],
) -> ([usize; BATCH_LANES], [f64; BATCH_LANES]) {
    let max_seg = n - 2;
    let top = max_seg as f64;
    let mut u = [0.0; BATCH_LANES];
    for k in 0..BATCH_LANES {
        u[k] = ((xs[k] - x0) / dx).max(0.0);
    }
    let mut seg = [0i32; BATCH_LANES];
    for k in 0..BATCH_LANES {
        seg[k] = u[k].min(top) as i32;
    }
    let mut t = [0.0; BATCH_LANES];
    for k in 0..BATCH_LANES {
        t[k] = (u[k] - f64::from(seg[k])).clamp(0.0, 1.0);
    }
    (seg.map(|i| i as usize), t)
}

/// The Hermite basis of one lane group, component-major: `out[c][k]` is
/// component `c` of [`hermite_basis`]`(t[k])`. A kernel that reads only
/// the value half leaves the derivative half to dead-code elimination.
#[inline(always)]
fn basis_lanes(t: &[f64; BATCH_LANES]) -> [[f64; BATCH_LANES]; 8] {
    let mut out = [[0.0; BATCH_LANES]; 8];
    for k in 0..BATCH_LANES {
        let b = hermite_basis(t[k]);
        for (c, row) in out.iter_mut().enumerate() {
            row[k] = b[c];
        }
    }
    out
}

/// `Σ_c h[c][k]·g[c][k]` over the four components of one basis half, in
/// [`CompactTable::eval_segment`]'s operand order (`y0, d0, y1, d1`
/// against `h00, h10, h01, h11` or their derivatives).
#[inline(always)]
fn combine_lanes(h: &[[f64; BATCH_LANES]], g: &[[f64; BATCH_LANES]; 4]) -> [f64; BATCH_LANES] {
    let mut out = [0.0; BATCH_LANES];
    for k in 0..BATCH_LANES {
        out[k] = h[0][k] * g[0][k] + h[1][k] * g[1][k] + h[2][k] * g[2][k] + h[3][k] * g[3][k];
    }
    out
}

/// One lane group of a batch argument.
fn lane(x: &[f64]) -> &[f64; BATCH_LANES] {
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
        assert!(
            n - 2 <= i32::MAX as usize,
            "the lane locate converts segment indices through i32"
        );
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

    /// One lane group of this table at located segments `seg` with
    /// basis `h`: the knot values and memoised slopes of each lane's
    /// segment (the only non-contiguous reads), then the value and
    /// derivative combines in [`CompactTable::eval_segment`]'s
    /// expression order.
    #[inline(always)]
    fn segment_lanes(
        &self,
        seg: &[usize; BATCH_LANES],
        h: &[[f64; BATCH_LANES]; 8],
    ) -> ([f64; BATCH_LANES], [f64; BATCH_LANES]) {
        let g = self.gather_lanes(seg);
        let mut der = combine_lanes(&h[4..], &g);
        for d in &mut der {
            *d /= self.dx;
        }
        (combine_lanes(&h[..4], &g), der)
    }

    /// The knot values and memoised slopes of each lane's segment, in
    /// the combine's operand order `[y0, d0, y1, d1]`. Segments are at
    /// most `n − 2` ([`locate_lanes`]); the integer `min` restates that
    /// where the bounds checks can see it.
    #[inline(always)]
    fn gather_lanes(&self, seg: &[usize; BATCH_LANES]) -> [[f64; BATCH_LANES]; 4] {
        let n = self.values.len();
        let (values, slopes) = (&self.values[..n], &self.slopes[..n]);
        let mut g = [[0.0; BATCH_LANES]; 4];
        for k in 0..BATCH_LANES {
            let i = seg[k].min(n - 2);
            g[0][k] = values[i];
            g[1][k] = slopes[i];
            g[2][k] = values[i + 1];
            g[3][k] = slopes[i + 1];
        }
        g
    }

    /// Batched value + derivative: full [`BATCH_LANES`] groups go
    /// through one inlined lane kernel (the clamped locate, the basis,
    /// the gather and the combine, each a lane loop), the ragged tail
    /// through the scalar [`CompactTable::eval_both`]. Each lane replays
    /// the scalar expression, so the outputs are bitwise identical to
    /// per-element evaluation at every length.
    // flops: SEG_EVAL_FLOPS = 8 (per lane — the same Hermite value +
    // derivative combination as the scalar segment eval)
    pub fn eval_batch(&self, xs: &[f64], val: &mut [f64], der: &mut [f64]) {
        assert_eq!(xs.len(), val.len());
        assert_eq!(xs.len(), der.len());
        let full = xs.len() - xs.len() % BATCH_LANES;
        for k in (0..full).step_by(BATCH_LANES) {
            let w = k..k + BATCH_LANES;
            let (seg, t) = locate_lanes(self.n(), self.x0, self.dx, lane(&xs[w.clone()]));
            let (v, d) = self.segment_lanes(&seg, &basis_lanes(&t));
            val[w.clone()].copy_from_slice(&v);
            der[w].copy_from_slice(&d);
        }
        for j in full..xs.len() {
            (val[j], der[j]) = self.eval_both(xs[j]);
        }
    }

    /// Batched fused two-table lookup — the batch counterpart of
    /// [`CompactTable::eval2`]: per lane group, ONE locate and one
    /// Hermite basis serve both tables (which must share the knot
    /// grid), all inlined into one lane kernel; the ragged tail reuses
    /// the scalar `eval2`. All four output streams are bitwise identical
    /// to per-element `eval2` calls.
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
            let (seg, t) = locate_lanes(self.n(), self.x0, self.dx, lane(&xs[w.clone()]));
            let h = basis_lanes(&t);
            let (v, d) = self.segment_lanes(&seg, &h);
            va[w.clone()].copy_from_slice(&v);
            da[w.clone()].copy_from_slice(&d);
            let (v, d) = other.segment_lanes(&seg, &h);
            vb[w.clone()].copy_from_slice(&v);
            db[w].copy_from_slice(&d);
        }
        for j in full..xs.len() {
            (va[j], da[j], vb[j], db[j]) = self.eval2(other, xs[j]);
        }
    }

    /// Batched value-only lookup — the density-pass kernel (ρ
    /// accumulation never reads f'(r)): the lane kernel without the
    /// derivative combine. Values are bitwise identical to per-element
    /// [`CompactTable::eval`] calls.
    pub fn eval_values_batch(&self, xs: &[f64], val: &mut [f64]) {
        assert_eq!(xs.len(), val.len());
        let full = xs.len() - xs.len() % BATCH_LANES;
        for k in (0..full).step_by(BATCH_LANES) {
            let w = k..k + BATCH_LANES;
            let (seg, t) = locate_lanes(self.n(), self.x0, self.dx, lane(&xs[w.clone()]));
            let g = self.gather_lanes(&seg);
            val[w].copy_from_slice(&combine_lanes(&basis_lanes(&t)[..4], &g));
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

    /// Where a locate can go wrong on `t`'s grid: every knot and one
    /// ulp either side of it, values below `x0`, `x_max` and beyond it,
    /// NaN and ±∞.
    fn adversarial_abscissae(t: &CompactTable) -> Vec<f64> {
        let mut xs = Vec::new();
        for i in 0..t.n() {
            let knot = t.x0 + i as f64 * t.dx;
            xs.extend([knot.next_down(), knot, knot.next_up()]);
        }
        let x_max = t.x_max();
        xs.extend([t.x0 - 1.0, t.x0 - t.dx / 3.0, -0.0, 0.0, f64::MIN_POSITIVE]);
        xs.extend([
            x_max,
            x_max.next_up(),
            x_max + t.dx / 3.0,
            2.0 * x_max,
            f64::MAX,
        ]);
        xs.extend([f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        xs
    }

    /// Two tables on one grid: the smallest table, starting at 0 (so
    /// that −0.0 meets `x0`), one of a few lane groups' knots, and one
    /// of 777 knots.
    fn adversarial_tables() -> Vec<(CompactTable, CompactTable)> {
        let fa = |x: f64| (1.1 * x).sin() + 0.2 * x;
        let fb = |x: f64| (-0.3 * x).exp() * x;
        [(6, 0.0, 1.0), (21, 1.0, 5.0), (777, 0.5, 5.6)]
            .map(|(n, x0, x1)| {
                (
                    CompactTable::build(fa, x0, x1, n),
                    CompactTable::build(fb, x0, x1, n),
                )
            })
            .into()
    }

    #[test]
    fn clamped_locate_is_the_scalar_locate() {
        for (t, _) in adversarial_tables() {
            let xs = adversarial_abscissae(&t);
            // Every abscissa in every lane position.
            for start in 0..BATCH_LANES {
                for group in xs[start..].chunks_exact(BATCH_LANES) {
                    let (seg, u) = locate_lanes(t.n(), t.x0, t.dx, lane(group));
                    for k in 0..BATCH_LANES {
                        let (i, ti) = locate_on(t.n(), t.x0, t.dx, group[k]);
                        assert_eq!(
                            (seg[k], u[k].to_bits()),
                            (i, ti.to_bits()),
                            "x {}",
                            group[k]
                        );
                    }
                }
            }
            // NaN lands on segment 0, +∞ on the last segment's end.
            let (seg, u) = locate_lanes(t.n(), t.x0, t.dx, &[f64::NAN; BATCH_LANES]);
            assert_eq!((seg[0], u[0]), (0, 0.0));
            let (seg, u) = locate_lanes(t.n(), t.x0, t.dx, &[f64::INFINITY; BATCH_LANES]);
            assert_eq!((seg[0], u[0]), (t.n() - 2, 1.0));
        }
    }

    #[test]
    fn batch_kernels_are_bitwise_scalar_at_adversarial_abscissae() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (a, b) in adversarial_tables() {
            let all = adversarial_abscissae(&a);
            for len in 0..=3 * BATCH_LANES + 1 {
                // Windows of `len` from every offset: each abscissa meets
                // the lane kernels and, for ragged lengths, the tail.
                for start in 0..all.len().saturating_sub(len) {
                    let xs = &all[start..start + len];
                    let [mut va, mut da, mut vb, mut db, mut vals, mut v1, mut d1] =
                        std::array::from_fn(|_| vec![0.0; len]);
                    a.eval2_batch(&b, xs, &mut va, &mut da, &mut vb, &mut db);
                    a.eval_values_batch(xs, &mut vals);
                    a.eval_batch(xs, &mut v1, &mut d1);
                    let scalar: Vec<_> = xs.iter().map(|&x| a.eval2(&b, x)).collect();
                    let col = |f: fn(&(f64, f64, f64, f64)) -> f64| {
                        scalar.iter().map(f).collect::<Vec<_>>()
                    };
                    let (sva, sda, svb, sdb) =
                        (col(|s| s.0), col(|s| s.1), col(|s| s.2), col(|s| s.3));
                    let at = format!("len {len} start {start}");
                    assert_eq!(bits(&va), bits(&sva), "{at}");
                    assert_eq!(bits(&da), bits(&sda), "{at}");
                    assert_eq!(bits(&vb), bits(&svb), "{at}");
                    assert_eq!(bits(&db), bits(&sdb), "{at}");
                    let own: Vec<_> = xs.iter().map(|&x| a.eval_both(x)).collect();
                    let (v, d): (Vec<f64>, Vec<f64>) = own.into_iter().unzip();
                    assert_eq!(bits(&vals), bits(&v), "{at}");
                    assert_eq!(bits(&v1), bits(&v), "{at}");
                    assert_eq!(bits(&d1), bits(&d), "{at}");
                }
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
