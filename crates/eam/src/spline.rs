//! Traditional cubic-spline interpolation tables (LAMMPS/CoMD layout).
//!
//! The paper, §2.1.2: *"Each traditional interpolation table is a 5000×7
//! 2D array ... the columns 3–6 are the coefficients of a cubic function
//! and the columns 0–2 are the coefficients of its derivative function
//! ... The size of each traditional interpolation table is about 273 KB,
//! which exceeds the size of local store (64 KB)."*
//!
//! With `N = 5000` knots of `f64` rows this layout is `5000·7·8 B =
//! 273.4 KiB` — exactly the paper's number — while the compacted form
//! ([`crate::compact::CompactTable`]) is `5000·8 B = 39.1 KiB`.

use serde::{Deserialize, Serialize};

use crate::BATCH_LANES;

/// Number of knots used by the paper's tables.
pub const PAPER_TABLE_N: usize = 5000;

/// A natural cubic spline in the traditional 7-column coefficient form.
///
/// Row `i` covers `x ∈ [x0 + i·dx, x0 + (i+1)·dx)` with local coordinate
/// `t ∈ [0,1)`:
///
/// * value:      `((c3·t + c4)·t + c5)·t + c6`
/// * derivative: `((c0·t + c1)·t + c2) ` (already divided by `dx`)
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraditionalTable {
    /// First knot abscissa.
    pub x0: f64,
    /// Knot spacing.
    pub dx: f64,
    /// `n` rows of `[c0..c6]` (row `n-1` duplicates `n-2` as padding, so
    /// the array is exactly n×7 like the paper's).
    pub coeff: Vec<[f64; 7]>,
}

impl TraditionalTable {
    /// Builds a table by sampling `f` at `n` equally spaced knots over
    /// `[x0, x1]` and fitting a natural cubic spline.
    pub fn build(f: impl Fn(f64) -> f64, x0: f64, x1: f64, n: usize) -> Self {
        assert!(n >= 4, "need at least 4 knots");
        assert!(x1 > x0);
        let dx = (x1 - x0) / (n - 1) as f64;
        let ys: Vec<f64> = (0..n).map(|i| f(x0 + i as f64 * dx)).collect();
        Self::from_samples(x0, dx, &ys)
    }

    /// Builds the spline from pre-computed samples.
    pub fn from_samples(x0: f64, dx: f64, ys: &[f64]) -> Self {
        let n = ys.len();
        assert!(n >= 4);
        let m = natural_spline_second_derivatives(ys, dx);
        let mut coeff = Vec::with_capacity(n);
        for i in 0..n - 1 {
            let h2 = dx * dx;
            let a = (m[i + 1] - m[i]) * h2 / 6.0;
            let b = m[i] * h2 / 2.0;
            let c = ys[i + 1] - ys[i] - h2 / 6.0 * (2.0 * m[i] + m[i + 1]);
            let d = ys[i];
            coeff.push([3.0 * a / dx, 2.0 * b / dx, c / dx, a, b, c, d]);
        }
        // Padding row so the array is n×7 exactly like the paper's.
        let last = *coeff.last().expect("at least one segment");
        coeff.push(last);
        Self { x0, dx, coeff }
    }

    /// Number of knots (rows).
    pub fn n(&self) -> usize {
        self.coeff.len()
    }

    /// Last covered abscissa.
    pub fn x_max(&self) -> f64 {
        self.x0 + (self.n() - 1) as f64 * self.dx
    }

    /// Size in bytes (what a resident copy would occupy in local store).
    pub fn memory_bytes(&self) -> usize {
        Self::bytes_for(self.n())
    }

    /// Size in bytes of a table of `n` knots, without building one.
    pub const fn bytes_for(n: usize) -> usize {
        n * Self::ROW_BYTES
    }

    /// Segment index and local coordinate for `x` (clamped to range).
    // flops: LOCATE_FLOPS = 4 (sub, div, floor/min, clamp — charged once
    // per lookup; a fused eval2 pays it once for both tables)
    #[inline]
    pub fn locate(&self, x: f64) -> (usize, f64) {
        let u = ((x - self.x0) / self.dx).max(0.0);
        let max_seg = self.coeff.len() - 2;
        let i = (u as usize).min(max_seg);
        let t = (u - i as f64).clamp(0.0, 1.0);
        (i, t)
    }

    /// Interpolated value at `x`.
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        let (i, t) = self.locate(x);
        let c = &self.coeff[i];
        ((c[3] * t + c[4]) * t + c[5]) * t + c[6]
    }

    /// Interpolated derivative at `x`.
    #[inline]
    pub fn eval_deriv(&self, x: f64) -> f64 {
        let (i, t) = self.locate(x);
        let c = &self.coeff[i];
        (c[0] * t + c[1]) * t + c[2]
    }

    /// Value and derivative together (one row fetch — what the CPE
    /// kernel DMA-streams per neighbour in the traditional scheme).
    // flops: SEG_EVAL_FLOPS = 8 (Horner value 3·fma + Horner derivative
    // 2·fma, counted as 8 scalar ops per located segment)
    #[inline]
    pub fn eval_both(&self, x: f64) -> (f64, f64) {
        let (i, t) = self.locate(x);
        let c = &self.coeff[i];
        (
            ((c[3] * t + c[4]) * t + c[5]) * t + c[6],
            (c[0] * t + c[1]) * t + c[2],
        )
    }

    /// Fused two-table lookup: ONE segment locate serves both this
    /// table and `other`, which must be sampled on the same knot grid.
    /// Returns `(self(x), self'(x), other(x), other'(x))`, bit-identical
    /// to two separate [`TraditionalTable::eval_both`] calls. On a CPE
    /// this still costs one coefficient-row gather per table, but only
    /// one locate.
    #[inline]
    pub fn eval2(&self, other: &Self, x: f64) -> (f64, f64, f64, f64) {
        debug_assert_eq!(self.x0, other.x0, "fused tables must share x0");
        debug_assert_eq!(self.dx, other.dx, "fused tables must share dx");
        debug_assert_eq!(self.coeff.len(), other.coeff.len());
        let (i, t) = self.locate(x);
        let c = &self.coeff[i];
        let d = &other.coeff[i];
        (
            ((c[3] * t + c[4]) * t + c[5]) * t + c[6],
            (c[0] * t + c[1]) * t + c[2],
            ((d[3] * t + d[4]) * t + d[5]) * t + d[6],
            (d[0] * t + d[1]) * t + d[2],
        )
    }

    /// Bytes of one coefficient row — the per-access DMA payload when the
    /// table cannot be resident (7 × f64).
    pub const ROW_BYTES: usize = 7 * 8;

    /// One full lane group of locates + row gathers into SoA
    /// coefficient lanes. Each lane replays the scalar
    /// [`TraditionalTable::locate`] exactly.
    #[inline]
    #[allow(clippy::type_complexity)]
    fn gather_lanes(
        &self,
        xs: &[f64; BATCH_LANES],
    ) -> ([[f64; BATCH_LANES]; 7], [f64; BATCH_LANES]) {
        let mut c = [[0.0; BATCH_LANES]; 7];
        let mut t = [0.0; BATCH_LANES];
        for k in 0..BATCH_LANES {
            let (i, tk) = self.locate(xs[k]);
            t[k] = tk;
            let row = &self.coeff[i];
            for (col, lane) in c.iter_mut().enumerate() {
                lane[k] = row[col];
            }
        }
        (c, t)
    }

    /// Batched value + derivative: full [`BATCH_LANES`] groups gather
    /// coefficient rows into SoA lanes and run the Horner combines as
    /// branch-free lane loops; the ragged tail reuses the scalar
    /// [`TraditionalTable::eval_both`]. Every lane replays the scalar
    /// Horner expressions, so outputs are bitwise identical to
    /// per-element evaluation at every length.
    // (markers for LOCATE_FLOPS / SEG_EVAL_FLOPS sit on the scalar
    // kernels above — the lane loops charge identically per element.)
    pub fn eval_batch(&self, xs: &[f64], val: &mut [f64], der: &mut [f64]) {
        assert_eq!(xs.len(), val.len());
        assert_eq!(xs.len(), der.len());
        let full = xs.len() - xs.len() % BATCH_LANES;
        let mut k = 0;
        while k < full {
            let xw: &[f64; BATCH_LANES] = xs[k..k + BATCH_LANES].try_into().expect("lane window");
            let (c, t) = self.gather_lanes(xw);
            for (off, tk) in t.iter().enumerate() {
                val[k + off] = ((c[3][off] * tk + c[4][off]) * tk + c[5][off]) * tk + c[6][off];
            }
            for (off, tk) in t.iter().enumerate() {
                der[k + off] = (c[0][off] * tk + c[1][off]) * tk + c[2][off];
            }
            k += BATCH_LANES;
        }
        for j in full..xs.len() {
            let (v, d) = self.eval_both(xs[j]);
            val[j] = v;
            der[j] = d;
        }
    }

    /// Batched fused two-table lookup — the batch counterpart of
    /// [`TraditionalTable::eval2`]: per lane, one locate serves both
    /// tables' row gathers. Bitwise identical to per-element `eval2`.
    #[allow(clippy::too_many_arguments)]
    pub fn eval2_batch(
        &self,
        other: &Self,
        xs: &[f64],
        va: &mut [f64],
        da: &mut [f64],
        vb: &mut [f64],
        db: &mut [f64],
    ) {
        debug_assert_eq!(self.x0, other.x0, "fused tables must share x0");
        debug_assert_eq!(self.dx, other.dx, "fused tables must share dx");
        debug_assert_eq!(self.coeff.len(), other.coeff.len());
        assert_eq!(xs.len(), va.len());
        assert_eq!(xs.len(), da.len());
        assert_eq!(xs.len(), vb.len());
        assert_eq!(xs.len(), db.len());
        let full = xs.len() - xs.len() % BATCH_LANES;
        let mut k = 0;
        while k < full {
            let xw: &[f64; BATCH_LANES] = xs[k..k + BATCH_LANES].try_into().expect("lane window");
            let mut c = [[0.0; BATCH_LANES]; 7];
            let mut d = [[0.0; BATCH_LANES]; 7];
            let mut t = [0.0; BATCH_LANES];
            for off in 0..BATCH_LANES {
                let (i, tk) = self.locate(xw[off]);
                t[off] = tk;
                let rc = &self.coeff[i];
                let rd = &other.coeff[i];
                for col in 0..7 {
                    c[col][off] = rc[col];
                    d[col][off] = rd[col];
                }
            }
            for (off, tk) in t.iter().enumerate() {
                va[k + off] = ((c[3][off] * tk + c[4][off]) * tk + c[5][off]) * tk + c[6][off];
            }
            for (off, tk) in t.iter().enumerate() {
                da[k + off] = (c[0][off] * tk + c[1][off]) * tk + c[2][off];
            }
            for (off, tk) in t.iter().enumerate() {
                vb[k + off] = ((d[3][off] * tk + d[4][off]) * tk + d[5][off]) * tk + d[6][off];
            }
            for (off, tk) in t.iter().enumerate() {
                db[k + off] = (d[0][off] * tk + d[1][off]) * tk + d[2][off];
            }
            k += BATCH_LANES;
        }
        for j in full..xs.len() {
            let (pva, pda, pvb, pdb) = self.eval2(other, xs[j]);
            va[j] = pva;
            da[j] = pda;
            vb[j] = pvb;
            db[j] = pdb;
        }
    }
}

/// Solves the natural-spline tridiagonal system for second derivatives.
fn natural_spline_second_derivatives(ys: &[f64], dx: f64) -> Vec<f64> {
    let n = ys.len();
    let mut m = vec![0.0; n];
    if n < 3 {
        return m;
    }
    // Thomas algorithm on the interior unknowns M[1..n-1]:
    //   M[i-1] + 4 M[i] + M[i+1] = 6 (y[i-1] - 2 y[i] + y[i+1]) / dx²
    let k = n - 2;
    let mut cp = vec![0.0; k]; // modified upper diagonal
    let mut dp = vec![0.0; k]; // modified rhs
    for i in 0..k {
        let rhs = 6.0 * (ys[i] - 2.0 * ys[i + 1] + ys[i + 2]) / (dx * dx);
        if i == 0 {
            cp[i] = 1.0 / 4.0;
            dp[i] = rhs / 4.0;
        } else {
            let denom = 4.0 - cp[i - 1];
            cp[i] = 1.0 / denom;
            dp[i] = (rhs - dp[i - 1]) / denom;
        }
    }
    for i in (0..k).rev() {
        m[i + 1] = dp[i] - cp[i] * if i + 2 < n - 1 { m[i + 2] } else { 0.0 };
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_is_273kb() {
        let t = TraditionalTable::build(|x| x, 0.0, 1.0, PAPER_TABLE_N);
        assert_eq!(t.memory_bytes(), 280_000);
        assert!((t.memory_bytes() as f64 / 1024.0 - 273.4).abs() < 0.1);
    }

    #[test]
    fn exact_on_linear_function() {
        let t = TraditionalTable::build(|x| 3.0 * x - 1.0, 0.0, 2.0, 50);
        for &x in &[0.0, 0.3, 0.77, 1.5, 2.0] {
            assert!((t.eval(x) - (3.0 * x - 1.0)).abs() < 1e-12);
            assert!((t.eval_deriv(x) - 3.0).abs() < 1e-10);
        }
    }

    #[test]
    fn accurate_on_smooth_function() {
        let f = |x: f64| (x * 1.7).sin() * (-0.3 * x).exp();
        let df = |x: f64| {
            1.7 * (x * 1.7).cos() * (-0.3 * x).exp() - 0.3 * (x * 1.7).sin() * (-0.3 * x).exp()
        };
        let t = TraditionalTable::build(f, 0.5, 5.0, 2000);
        for i in 0..100 {
            let x = 0.5 + 4.5 * (i as f64 + 0.5) / 100.0;
            assert!((t.eval(x) - f(x)).abs() < 1e-8, "value at {x}");
            assert!((t.eval_deriv(x) - df(x)).abs() < 1e-4, "deriv at {x}");
        }
    }

    #[test]
    fn clamps_outside_range() {
        let t = TraditionalTable::build(|x| x * x, 1.0, 2.0, 100);
        // Below range: clamped to x0.
        assert!((t.eval(0.0) - 1.0).abs() < 1e-9);
        // Above range: clamped to x_max.
        assert!((t.eval(10.0) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn interpolates_knots_exactly() {
        let f = |x: f64| x.exp();
        let t = TraditionalTable::build(f, 0.0, 1.0, 64);
        for i in 0..64 {
            let x = t.x0 + i as f64 * t.dx;
            assert!((t.eval(x) - f(x)).abs() < 1e-10, "knot {i}");
        }
    }

    #[test]
    fn fused_eval2_is_bitwise_two_lookups() {
        let a = TraditionalTable::build(|x| (0.9 * x).cos(), 1.0, 5.0, 600);
        let b = TraditionalTable::build(|x| x * x - 3.0, 1.0, 5.0, 600);
        for i in 0..300 {
            let x = 0.7 + i as f64 * 0.016;
            let (va, da, vb, db) = a.eval2(&b, x);
            assert_eq!((va, da), a.eval_both(x), "table a at {x}");
            assert_eq!((vb, db), b.eval_both(x), "table b at {x}");
        }
    }

    #[test]
    fn batch_kernels_are_bitwise_scalar_at_every_length() {
        let a = TraditionalTable::build(|x| (0.9 * x).cos(), 1.0, 5.0, 600);
        let b = TraditionalTable::build(|x| x * x - 3.0, 1.0, 5.0, 600);
        for len in [0, 1, BATCH_LANES - 1, BATCH_LANES, BATCH_LANES + 1, 29] {
            let xs: Vec<f64> = (0..len).map(|i| 0.7 + i as f64 * 0.17).collect();
            let mut va = vec![0.0; len];
            let mut da = vec![0.0; len];
            let mut vb = vec![0.0; len];
            let mut db = vec![0.0; len];
            a.eval2_batch(&b, &xs, &mut va, &mut da, &mut vb, &mut db);
            let mut v1 = vec![0.0; len];
            let mut d1 = vec![0.0; len];
            a.eval_batch(&xs, &mut v1, &mut d1);
            for (j, &x) in xs.iter().enumerate() {
                let (sva, sda, svb, sdb) = a.eval2(&b, x);
                assert_eq!(
                    (va[j], da[j], vb[j], db[j]),
                    (sva, sda, svb, sdb),
                    "len {len}"
                );
                assert_eq!((v1[j], d1[j]), a.eval_both(x), "len {len} lane {j}");
            }
        }
    }

    #[test]
    fn eval_both_consistent() {
        let t = TraditionalTable::build(|x| x * x * x, 0.0, 2.0, 300);
        let (v, d) = t.eval_both(1.234);
        assert_eq!(v, t.eval(1.234));
        assert_eq!(d, t.eval_deriv(1.234));
    }

    #[test]
    fn row_bytes_is_56() {
        assert_eq!(TraditionalTable::ROW_BYTES, 56);
    }
}
