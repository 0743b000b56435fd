//! Points on edwards25519, the twisted Edwards curve
//! −x² + y² = 1 + d·x²·y² over GF(2²⁵⁵−19) with d = −121665/121666.
//!
//! Four representations, each for one job (the ref10 / Hisil et al.
//! a = −1 formulas, as RFC 8032 uses):
//!
//! * [`Point`] — extended (X : Y : Z : T), x = X/Z, y = Y/Z, T = XY/Z:
//!   the public type, and the left operand of every addition;
//! * projective (X : Y : Z) — what doubling takes: no T to maintain;
//! * completed ((X : Z), (Y : T)) — what doubling and addition produce,
//!   3 multiplications from projective and 4 from extended;
//! * cached (Y+X, Y−X, Z, 2d·T) and affine Niels (y+x, y−x, 2d·x·y,
//!   with Z = 1) — the right operand of an addition, precomputed so an
//!   addition is 4 (cached) or 3 (affine) multiplications.
//!
//! Scalar multiplication comes in two production forms. [`Point::base_mul`]
//! (signing, key generation) sums one entry per radix-16 digit from a
//! per-process table of `d·16^w·B` in affine Niels form, no doubling.
//! [`Point::straus`] (verification, single and batched) computes
//! `Σ [kⱼ]Pⱼ + [s]B` by Straus' method: one shared doubling per bit for
//! all the terms, each scalar in the width-w NAF its table serves. A
//! point used once (a decoded `R`, or `A` of a one-shot check) gets the
//! 8 odd multiples of width 5 ([`OddMultiples`]). A registered key gets
//! [`SplitTables`], built once per deployment: 32 odd multiples (width
//! 7) of `A` and of `[2¹²⁸]A`, so a full-width `[k]A` is two 128-bit
//! terms. `[s]B` is split the same way over per-process tables of 64
//! odd multiples (width 8) of `B` and `[2¹²⁸]B`. A pass whose scalars
//! are all below 2¹²⁸ therefore runs about 129 doublings instead of
//! 253 — the precomputation side of the multi-scalar method in Bernstein
//! et al., *High-speed high-security signatures* (CHES 2011). Decoding
//! ([`Point::decompress`]) is RFC 8032 §5.1.3: y must be canonical
//! (< p), and x = u·v³·(u·v⁷)^((p−5)/8) is one exponentiation.

#![allow(clippy::needless_range_loop)]

use std::sync::OnceLock;

use super::field::{curve_d, sqrt_m1, Fe};
use super::scalar::Scalar;

/// A curve point in extended coordinates.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    pub x: Fe,
    pub y: Fe,
    pub z: Fe,
    pub t: Fe,
}

/// (X : Y : Z) with x = X/Z, y = Y/Z.
#[derive(Clone, Copy)]
struct ProjectivePoint {
    x: Fe,
    y: Fe,
    z: Fe,
}

/// ((X : Z), (Y : T)) with x = X/Z, y = Y/T.
struct CompletedPoint {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// An addend (Y+X, Y−X, Z, 2d·T) derived from an extended point.
#[derive(Clone, Copy)]
struct CachedPoint {
    y_plus_x: Fe,
    y_minus_x: Fe,
    z: Fe,
    t2d: Fe,
}

/// An addend (y+x, y−x, 2d·x·y) from an affine point (Z = 1).
#[derive(Clone, Copy)]
struct AffineNielsPoint {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

impl ProjectivePoint {
    fn double(&self) -> CompletedPoint {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let x_plus_y_sq = self.x.add(self.y).square();
        let yy_plus_xx = yy.add(xx);
        let yy_minus_xx = yy.sub(xx);
        CompletedPoint {
            x: x_plus_y_sq.sub(yy_plus_xx),
            y: yy_plus_xx,
            z: yy_minus_xx,
            t: zz.add(zz).sub(yy_minus_xx),
        }
    }

    fn to_extended(self) -> Point {
        Point {
            x: self.x.mul(self.z),
            y: self.y.mul(self.z),
            z: self.z.square(),
            t: self.x.mul(self.y),
        }
    }
}

impl CompletedPoint {
    fn to_projective(&self) -> ProjectivePoint {
        ProjectivePoint {
            x: self.x.mul(self.t),
            y: self.y.mul(self.z),
            z: self.z.mul(self.t),
        }
    }

    fn to_extended(&self) -> Point {
        Point {
            x: self.x.mul(self.t),
            y: self.y.mul(self.z),
            z: self.z.mul(self.t),
            t: self.x.mul(self.y),
        }
    }
}

impl CachedPoint {
    fn neg(&self) -> CachedPoint {
        CachedPoint {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            z: self.z,
            t2d: self.t2d.neg(),
        }
    }
}

impl AffineNielsPoint {
    fn neg(&self) -> AffineNielsPoint {
        AffineNielsPoint {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            xy2d: self.xy2d.neg(),
        }
    }
}

/// `table[i] = (2i + 1)·p`.
fn odd_multiples<const N: usize>(p: &Point) -> [Point; N] {
    let p2 = p.double().to_cached();
    let mut table = [*p; N];
    for i in 1..N {
        table[i] = table[i - 1].add_cached(&p2).to_extended();
    }
    table
}

/// The odd multiples `P, 3P, …, (2N−1)P` of a point, in cached form: what
/// a [`Point::straus`] term adds from. `N` sets the term's NAF width:
/// 8 entries are width 5, 32 are width 7.
#[derive(Clone, Copy)]
pub struct OddMultiples<const N: usize>([CachedPoint; N]);

impl<const N: usize> OddMultiples<N> {
    /// The table of the identity: a placeholder for unused slots of a
    /// fixed-size array.
    pub const IDENTITY: Self = OddMultiples(
        [CachedPoint {
            y_plus_x: Fe::ONE,
            y_minus_x: Fe::ONE,
            z: Fe::ONE,
            t2d: Fe::ZERO,
        }; N],
    );

    pub fn new(p: &Point) -> Self {
        OddMultiples(odd_multiples(p).map(Point::to_cached))
    }

    /// `[k]P` as a Straus term.
    pub fn term(&self, k: Scalar) -> Term<'_> {
        Term { k, table: &self.0 }
    }
}

/// The tables of a point used for many scalars — a registered key: 32
/// odd multiples of `P` and 32 of `[2¹²⁸]P`, so that `[k]P` is two
/// 128-bit terms, `[lo]P + [hi]([2¹²⁸]P)`, and a Straus pass over them
/// runs half the doublings of one over `P` alone.
#[derive(Clone)]
pub struct SplitTables {
    lo: OddMultiples<32>,
    hi: OddMultiples<32>,
}

impl SplitTables {
    pub fn new(p: &Point) -> SplitTables {
        SplitTables {
            lo: OddMultiples::new(p),
            hi: OddMultiples::new(&p.mul_by_2_128()),
        }
    }

    /// `[k]P` as Straus terms, one per half of `k` ([`Scalar::split`]).
    pub fn terms(&self, k: Scalar) -> [Term<'_>; 2] {
        let (lo, hi) = k.split();
        [self.lo.term(lo), self.hi.term(hi)]
    }
}

/// One `[k]P` of a [`Point::straus`] sum: the scalar and the odd
/// multiples of `P` it is recoded over.
#[derive(Clone, Copy)]
pub struct Term<'a> {
    k: Scalar,
    table: &'a [CachedPoint],
}

impl Term<'_> {
    /// `[0]` of the identity: a placeholder for unused slots of a
    /// fixed-size term array.
    pub const ZERO: Term<'static> = Term {
        k: Scalar::ZERO,
        table: &OddMultiples::<8>::IDENTITY.0,
    };

    /// The NAF width whose digits index this term's table: `2^(w−2)`
    /// odd multiples serve digits up to `2^(w−1) − 1`.
    fn width(&self) -> usize {
        debug_assert!(self.table.len().is_power_of_two());
        self.table.len().trailing_zeros() as usize + 2
    }
}

/// Most variable-base terms one [`Point::straus`] call takes: a batch of
/// eight signatures, an `R` term and two `A` terms each.
pub const MAX_TERMS: usize = 24;

/// `(2i + 1)·B` and `(2i + 1)·[2¹²⁸]B` for the width-8 NAF digits of the
/// two halves of `s` in `[s]B`.
fn base_odd_multiples() -> &'static [[AffineNielsPoint; 64]; 2] {
    static TABLES: OnceLock<[[AffineNielsPoint; 64]; 2]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let b = Point::base();
        [b, b.mul_by_2_128()].map(|p| odd_multiples(&p).map(Point::to_affine_niels))
    })
}

impl Point {
    /// The identity element (0, 1).
    pub fn identity() -> Point {
        Point {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
            t: Fe::ZERO,
        }
    }

    /// The standard base point B with y = 4/5 and x even.
    pub fn base() -> Point {
        static B: OnceLock<Point> = OnceLock::new();
        *B.get_or_init(|| {
            let y = Fe::from_u64(4).mul(Fe::from_u64(5).invert());
            let mut enc = y.to_bytes();
            enc[31] &= 0x7f; // sign bit 0: the even root
            Point::decompress(&enc).expect("base point decompression")
        })
    }

    fn to_projective(self) -> ProjectivePoint {
        ProjectivePoint {
            x: self.x,
            y: self.y,
            z: self.z,
        }
    }

    fn to_cached(self) -> CachedPoint {
        CachedPoint {
            y_plus_x: self.y.add(self.x),
            y_minus_x: self.y.sub(self.x),
            z: self.z,
            t2d: self.t.mul(curve_d().add(curve_d())),
        }
    }

    /// One inversion: for tables built once per process.
    fn to_affine_niels(self) -> AffineNielsPoint {
        let (x, y) = self.to_affine();
        AffineNielsPoint {
            y_plus_x: y.add(x),
            y_minus_x: y.sub(x),
            xy2d: x.mul(y).mul(curve_d().add(curve_d())),
        }
    }

    fn add_cached(&self, q: &CachedPoint) -> CompletedPoint {
        let pp = self.y.add(self.x).mul(q.y_plus_x);
        let mm = self.y.sub(self.x).mul(q.y_minus_x);
        let tt2d = self.t.mul(q.t2d);
        let zz = self.z.mul(q.z);
        let zz2 = zz.add(zz);
        CompletedPoint {
            x: pp.sub(mm),
            y: pp.add(mm),
            z: zz2.add(tt2d),
            t: zz2.sub(tt2d),
        }
    }

    fn add_affine(&self, q: &AffineNielsPoint) -> CompletedPoint {
        let pp = self.y.add(self.x).mul(q.y_plus_x);
        let mm = self.y.sub(self.x).mul(q.y_minus_x);
        let txy2d = self.t.mul(q.xy2d);
        let z2 = self.z.add(self.z);
        CompletedPoint {
            x: pp.sub(mm),
            y: pp.add(mm),
            z: z2.add(txy2d),
            t: z2.sub(txy2d),
        }
    }

    /// Point addition (complete formula for a = −1).
    pub fn add(&self, other: &Point) -> Point {
        self.add_cached(&other.to_cached()).to_extended()
    }

    /// Point doubling.
    pub fn double(&self) -> Point {
        self.to_projective().double().to_extended()
    }

    /// Negation: (x, y) → (−x, y).
    pub fn neg(&self) -> Point {
        Point {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// Scalar multiplication with a 4-bit fixed window: the reference
    /// [`Point::base_mul`] and [`Point::straus`] are tested against.
    #[cfg(test)]
    pub fn mul(&self, s: &Scalar) -> Point {
        // Table of 1·P … 15·P.
        let mut table = [*self; 15];
        for i in 1..15 {
            table[i] = table[i - 1].add(self);
        }
        let mut acc = Point::identity();
        let mut started = false;
        // 64 windows of 4 bits, MSB-first.
        for w in (0..64).rev() {
            if started {
                acc = acc.double();
                acc = acc.double();
                acc = acc.double();
                acc = acc.double();
            }
            let digit = ((s.0[w / 16] >> ((w % 16) * 4)) & 0xF) as usize;
            if digit != 0 {
                acc = if started {
                    acc.add(&table[digit - 1])
                } else {
                    table[digit - 1]
                };
                started = true;
            }
        }
        acc
    }

    /// Fixed-base scalar multiplication `s·B`: one mixed addition per
    /// nonzero radix-16 digit from a global table (`d·16^w·B` for every
    /// window `w` and digit `d`, affine Niels), no doubling. One table
    /// build per process; used by signing and key generation.
    pub fn base_mul(s: &Scalar) -> Point {
        static TABLE: OnceLock<Vec<[AffineNielsPoint; 15]>> = OnceLock::new();
        let table = TABLE.get_or_init(|| {
            let mut rows = Vec::with_capacity(64);
            let mut window_base = Point::base(); // 16^w · B
            for _ in 0..64 {
                let mut multiple = window_base;
                rows.push(std::array::from_fn(|_| {
                    let entry = multiple.to_affine_niels();
                    multiple = multiple.add(&window_base);
                    entry
                }));
                // Fifteen additions later `multiple` is 16·(16^w·B).
                window_base = multiple;
            }
            rows
        });
        let mut acc = Point::identity();
        for (w, row) in table.iter().enumerate() {
            let digit = ((s.0[w / 16] >> ((w % 16) * 4)) & 0xF) as usize;
            if digit != 0 {
                acc = acc.add_affine(&row[digit - 1]).to_extended();
            }
        }
        acc
    }

    /// `Σ [kⱼ]Pⱼ + [s]B` by Straus' method — what signature verification
    /// evaluates, one term per table (at most [`MAX_TERMS`]). Each `kⱼ`
    /// is recoded in the NAF width its table serves, the two halves of
    /// `s` ([`Scalar::split`]) in width 8 over the static 64 odd
    /// multiples of `B` and of `[2¹²⁸]B`, and one doubling per bit of the
    /// widest scalar serves every term: about 129 when every `kⱼ` is below
    /// 2¹²⁸, 253 otherwise. Not constant-time.
    pub fn straus(terms: &[Term<'_>], s: &Scalar) -> Point {
        assert!(terms.len() <= MAX_TERMS, "{} Straus terms", terms.len());
        let mut nafs = [[0i8; 256]; MAX_TERMS];
        for (naf, term) in nafs.iter_mut().zip(terms) {
            *naf = term.k.non_adjacent_form(term.width());
        }
        let nafs = &nafs[..terms.len()];
        let (s_lo, s_hi) = s.split();
        let s_nafs = [s_lo.non_adjacent_form(8), s_hi.non_adjacent_form(8)];
        let b_tables = base_odd_multiples();
        let Some(top) = (0..256)
            .rev()
            .find(|&i| s_nafs.iter().chain(nafs).any(|naf| naf[i] != 0))
        else {
            return Point::identity();
        };
        let mut acc = Point::identity().to_projective();
        for i in (0..=top).rev() {
            let mut sum = acc.double();
            for (naf, term) in nafs.iter().zip(terms) {
                let d = naf[i];
                if d != 0 {
                    let q = term.table[d.unsigned_abs() as usize / 2];
                    let q = if d > 0 { q } else { q.neg() };
                    sum = sum.to_extended().add_cached(&q);
                }
            }
            for (naf, table) in s_nafs.iter().zip(b_tables) {
                let d = naf[i];
                if d != 0 {
                    let q = table[d.unsigned_abs() as usize / 2];
                    let q = if d > 0 { q } else { q.neg() };
                    sum = sum.to_extended().add_affine(&q);
                }
            }
            acc = sum.to_projective();
        }
        acc.to_extended()
    }

    /// `[2¹²⁸]P`: 128 doublings, for tables built once.
    fn mul_by_2_128(&self) -> Point {
        let mut p = self.to_projective();
        for _ in 0..128 {
            p = p.double().to_projective();
        }
        p.to_extended()
    }

    /// Affine coordinates (x, y).
    pub fn to_affine(&self) -> (Fe, Fe) {
        let zi = self.z.invert();
        (self.x.mul(zi), self.y.mul(zi))
    }

    /// RFC 8032 point encoding: 32 bytes = y (LE) with the top bit set
    /// to the parity ("sign") of x.
    pub fn compress(&self) -> [u8; 32] {
        let (x, y) = self.to_affine();
        let mut out = y.to_bytes();
        if x.is_odd() {
            out[31] |= 0x80;
        }
        out
    }

    /// RFC 8032 §5.1.3 point decoding. Returns `None` if y is not
    /// canonical (≥ p), if no x satisfies the curve equation, or for
    /// the encoding of "−0" (x = 0 with the sign bit set).
    pub fn decompress(bytes: &[u8; 32]) -> Option<Point> {
        let sign = bytes[31] >> 7;
        let mut y_bytes = *bytes;
        y_bytes[31] &= 0x7f;
        let y = Fe::from_bytes(&y_bytes);
        if y.to_bytes() != y_bytes {
            return None;
        }
        // x² = u/v with u = y² − 1, v = d·y² + 1 (never 0: −1/d is not
        // a square). The candidate root (u/v)^((p+3)/8) needs no
        // inversion as u·v³·(u·v⁷)^((p−5)/8).
        let yy = y.square();
        let u = yy.sub(Fe::ONE);
        let v = curve_d().mul(yy).add(Fe::ONE);
        let v3 = v.square().mul(v);
        let uv7 = u.mul(v3.square().mul(v));
        let mut x = u.mul(v3).mul(uv7.pow_p58());
        // v·x² is u (x is a root), −u (i·x is), or neither (no root).
        let vxx = v.mul(x.square());
        if vxx != u {
            if vxx != u.neg() {
                return None;
            }
            x = x.mul(sqrt_m1());
        }
        if x.is_zero() && sign == 1 {
            return None; // −0 is not a valid encoding
        }
        if (x.is_odd() as u8) != sign {
            x = x.neg();
        }
        Some(Point {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(y),
        })
    }

    /// Check the curve equation −x² + y² = 1 + d·x²·y² in affine
    /// coordinates.
    pub fn is_on_curve(&self) -> bool {
        let (x, y) = self.to_affine();
        let x2 = x.square();
        let y2 = y.square();
        let lhs = y2.sub(x2);
        let rhs = Fe::ONE.add(curve_d().mul(x2).mul(y2));
        lhs == rhs
    }

    /// Equality in the projective sense (compare affine forms).
    pub fn eq_point(&self, other: &Point) -> bool {
        // x1/z1 == x2/z2  ⟺  x1·z2 == x2·z1 (and same for y)
        self.x.mul(other.z) == other.x.mul(self.z) && self.y.mul(other.z) == other.y.mul(self.z)
    }

    pub fn is_identity(&self) -> bool {
        self.eq_point(&Point::identity())
    }

    /// `[8]P`: the identity exactly when `P` is of small order.
    pub fn mul_by_cofactor(&self) -> Point {
        self.double().double().double()
    }
}

#[cfg(test)]
mod tests {
    use super::super::scalar::L;
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The parent's decoding: y reduced mod p (so y ≥ p is accepted),
    /// x² = u/v by an inversion, then (x²)^((p+3)/8) by square-and-
    /// multiply.
    fn decompress_parent(bytes: &[u8; 32]) -> Option<Point> {
        // (p + 3) / 8 = 2²⁵² − 2
        const P_PLUS_3_OVER_8: [u64; 4] = [
            0xffff_ffff_ffff_fffe,
            0xffff_ffff_ffff_ffff,
            0xffff_ffff_ffff_ffff,
            0x0fff_ffff_ffff_ffff,
        ];
        let sign = bytes[31] >> 7;
        let mut y_bytes = *bytes;
        y_bytes[31] &= 0x7f;
        let y = Fe::from_bytes(&y_bytes);
        let yy = y.square();
        let u = yy.sub(Fe::ONE);
        let v = curve_d().mul(yy).add(Fe::ONE);
        let x2 = u.mul(v.invert());
        let mut x = x2.pow(&P_PLUS_3_OVER_8);
        if x.square() != x2 {
            x = x.mul(sqrt_m1());
        }
        if x.square() != x2 {
            return None;
        }
        if x.is_zero() && sign == 1 {
            return None;
        }
        if (x.is_odd() as u8) != sign {
            x = x.neg();
        }
        Some(Point {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(y),
        })
    }

    /// [n]P for a raw 256-bit n, by double-and-add (n may be ≥ L).
    fn mul_raw(p: &Point, n: &[u64; 4]) -> Point {
        let mut acc = Point::identity();
        for i in (0..256).rev() {
            acc = acc.double();
            if (n[i / 64] >> (i % 64)) & 1 == 1 {
                acc = acc.add(p);
            }
        }
        acc
    }

    /// The eight points of order dividing 8, derived rather than
    /// transcribed: [L]P has order dividing 8 for any curve point P;
    /// search for one of order exactly 8 and take its multiples.
    fn small_order_points() -> Vec<Point> {
        let t8 = (0u8..)
            .filter_map(|b| Point::decompress(&[b; 32]))
            .map(|p| mul_raw(&p, &L))
            .find(|t| !t.double().double().is_identity())
            .expect("some curve point has a component of order 8");
        let mut points = vec![Point::identity()];
        for i in 1..8 {
            points.push(points[i - 1].add(&t8));
        }
        points
    }

    /// `p + delta` as 32 little-endian bytes, for small `delta` ≥ 0.
    fn p_plus(delta: u8) -> [u8; 32] {
        let mut b = [0xff; 32];
        b[0] = 0xed + delta; // no carry for delta ≤ 18
        b[31] = 0x7f;
        b
    }

    #[test]
    fn base_point_is_on_curve() {
        assert!(Point::base().is_on_curve());
    }

    #[test]
    fn base_point_matches_rfc8032_x_parity() {
        let (x, y) = Point::base().to_affine();
        assert!(!x.is_odd(), "B_x is even per RFC 8032");
        assert_eq!(y, Fe::from_u64(4).mul(Fe::from_u64(5).invert()));
    }

    #[test]
    fn identity_laws() {
        let b = Point::base();
        let id = Point::identity();
        assert!(b.add(&id).eq_point(&b));
        assert!(id.add(&b).eq_point(&b));
        assert!(id.double().eq_point(&id));
        assert!(b.add(&b.neg()).eq_point(&id));
    }

    #[test]
    fn double_equals_add_self() {
        let b = Point::base();
        assert!(b.double().eq_point(&b.add(&b)));
        let b4a = b.double().double();
        let b4b = b.add(&b).add(&b).add(&b);
        assert!(b4a.eq_point(&b4b));
        assert!(b4a.is_on_curve());
    }

    #[test]
    fn group_order_annihilates_base() {
        // [L]B == identity — a strong self-check of both the point code
        // and the L constant. Scalar(L) is not reduced (== L ≡ 0 mod L),
        // so multiply by its raw bits.
        assert!(mul_raw(&Point::base(), &Scalar(L).0).is_identity());
    }

    #[test]
    fn scalar_mul_matches_repeated_addition() {
        let b = Point::base();
        let mut acc = Point::identity();
        for k in 0u64..12 {
            assert!(
                b.mul(&Scalar::from_u64(k)).eq_point(&acc),
                "k = {k} mismatch"
            );
            acc = acc.add(&b);
        }
    }

    #[test]
    fn scalar_mul_distributes() {
        let b = Point::base();
        let s3 = Scalar::from_u64(3);
        let s5 = Scalar::from_u64(5);
        let lhs = b.mul(&s3.add(s5));
        let rhs = b.mul(&s3).add(&b.mul(&s5));
        assert!(lhs.eq_point(&rhs));
    }

    #[test]
    fn compress_decompress_roundtrip() {
        for k in 1u64..8 {
            let p = Point::base().mul(&Scalar::from_u64(k));
            let enc = p.compress();
            let back = Point::decompress(&enc).expect("valid encoding");
            assert!(back.eq_point(&p), "k = {k}");
            assert!(back.is_on_curve());
        }
    }

    #[test]
    fn decompress_rejects_non_points() {
        // y = 2 gives x² a non-square for edwards25519? Try a few and
        // expect at least one rejection across candidates. A byte
        // pattern that is definitely invalid: y such that v = 0 can't
        // happen (d·y²+1 ≠ 0 has no roots since -1/d is non-square);
        // so probe candidates and verify any accepted point is on-curve.
        let mut rejected = 0;
        for b0 in 0u8..16 {
            let mut enc = [0u8; 32];
            enc[0] = b0;
            enc[1] = 0xEE;
            match Point::decompress(&enc) {
                None => rejected += 1,
                Some(p) => assert!(p.is_on_curve()),
            }
        }
        assert!(rejected > 0, "expected some non-points among probes");
    }

    #[test]
    fn decompress_rejects_y_at_or_above_p() {
        // p ≡ 0 and p + 1 ≡ 1 would decode to the order-4 point and the
        // identity if y were reduced; RFC 8032 §5.1.3 says reject.
        assert!(Point::decompress(&p_plus(0)).is_none());
        assert!(Point::decompress(&p_plus(1)).is_none());
        let mut canonical_identity = [0u8; 32];
        canonical_identity[0] = 1;
        assert!(Point::decompress(&canonical_identity)
            .expect("identity")
            .is_identity());
    }

    #[test]
    fn decompress_matches_the_parent_formula() {
        let mut rng = SmallRng::seed_from_u64(5113);
        let mut encodings: Vec<[u8; 32]> = (0..200).map(|_| rng.gen()).collect();
        let small = small_order_points();
        assert_eq!(small.iter().filter(|p| p.is_identity()).count(), 1);
        encodings.extend(small.iter().map(Point::compress));
        let (mut accepted, mut rejected) = (0, 0);
        for enc in &encodings {
            match (Point::decompress(enc), decompress_parent(enc)) {
                (Some(fast), Some(parent)) => {
                    assert!(fast.eq_point(&parent), "{enc:02x?}");
                    assert!(fast.is_on_curve());
                    accepted += 1;
                }
                (None, None) => rejected += 1,
                (fast, parent) => panic!("{enc:02x?}: fast {fast:?}, parent {parent:?}"),
            }
        }
        // Random strings are curve points about half the time.
        assert!(
            accepted > 80 && rejected > 80,
            "{accepted} accepted, {rejected} rejected"
        );
        // The one intended difference: y ∈ [p, 2²⁵⁵), either sign. The
        // parent decodes y − p; the fast path refuses the encoding.
        for delta in 0..19 {
            for sign in [0, 0x80] {
                let mut enc = p_plus(delta);
                enc[31] |= sign;
                assert!(
                    Point::decompress(&enc).is_none(),
                    "p + {delta}, sign {sign:x}"
                );
                let mut reduced = [0u8; 32];
                reduced[0] = delta;
                reduced[31] = sign;
                let parent = decompress_parent(&enc).map(|p| p.compress());
                assert_eq!(parent, Point::decompress(&reduced).map(|p| p.compress()));
            }
        }
        // y = p + 1 is the identity at the parent.
        assert!(decompress_parent(&p_plus(1))
            .expect("parent accepts")
            .is_identity());
    }

    #[test]
    fn double_scalar_mul_matches_separate() {
        let b = Point::base();
        let p = b.mul(&Scalar::from_u64(9));
        let s1 = Scalar::from_u64(4);
        let s2 = Scalar::from_u64(7);
        let lhs = Point::straus(&[OddMultiples::<8>::new(&p).term(s2)], &s1);
        let rhs = b.mul(&s1).add(&p.mul(&s2));
        assert!(lhs.eq_point(&rhs));
    }

    #[test]
    fn straus_sums_every_term() {
        let mut rng = SmallRng::seed_from_u64(2011);
        let points: Vec<Point> = (0..)
            .filter_map(|_| Point::decompress(&rng.gen()))
            .take(MAX_TERMS)
            .collect();
        let narrow: Vec<OddMultiples<8>> = points.iter().map(OddMultiples::new).collect();
        let wide: Vec<OddMultiples<32>> = points.iter().map(OddMultiples::new).collect();
        for n in [0, 1, 2, 5, MAX_TERMS] {
            // Full-width and 128-bit scalars over 8- and 32-entry tables,
            // as a batch mixes them.
            let scalars: Vec<Scalar> = (0..n)
                .map(|j| {
                    let k = Scalar::from_bytes_wide(&rng.gen());
                    if j % 2 == 0 {
                        k.split().0
                    } else {
                        k
                    }
                })
                .collect();
            let s = Scalar::from_bytes_wide(&rng.gen());
            let terms: Vec<Term<'_>> = scalars
                .iter()
                .enumerate()
                .map(|(j, &k)| {
                    if j / 2 % 2 == 0 {
                        narrow[j].term(k)
                    } else {
                        wide[j].term(k)
                    }
                })
                .collect();
            let reference = scalars
                .iter()
                .zip(&points)
                .fold(Point::base_mul(&s), |acc, (k, p)| acc.add(&p.mul(k)));
            assert!(Point::straus(&terms, &s).eq_point(&reference), "{n} terms");
        }
    }

    #[test]
    fn split_tables_match_reference_mul_at_the_boundaries() {
        let mut rng = SmallRng::seed_from_u64(128);
        let lm1 = Scalar([L[0] - 1, L[1], L[2], L[3]]);
        let edge = [
            Scalar::ZERO,
            Scalar::ONE,
            Scalar([u64::MAX, u64::MAX, 0, 0]),
            Scalar([0, 0, 1, 0]),
            Scalar([1, 0, 1, 0]),
            lm1,
        ];
        let points: Vec<Point> = (0..)
            .filter_map(|_| Point::decompress(&rng.gen()))
            .take(3)
            .chain(small_order_points().into_iter().skip(3).step_by(4))
            .collect();
        for (n, p) in points.iter().enumerate() {
            let tables = SplitTables::new(p);
            let random: Vec<Scalar> = (0..16)
                .map(|_| Scalar::from_bytes_wide(&rng.gen()))
                .collect();
            for &k in edge.iter().chain(&random) {
                let straus = Point::straus(&tables.terms(k), &Scalar::ZERO);
                assert!(straus.eq_point(&p.mul(&k)), "point {n}, k {k:?}");
            }
            for &k in &random {
                let s = Scalar::from_bytes_wide(&rng.gen());
                let straus = Point::straus(&tables.terms(k), &s);
                let reference = p.mul(&k).add(&Point::base_mul(&s));
                assert!(straus.eq_point(&reference), "point {n}, k {k:?}, s {s:?}");
            }
        }
    }

    #[test]
    fn the_high_base_table_starts_at_2_128_b() {
        let expected = Point::base_mul(&Scalar([0, 0, 1, 0])).to_affine_niels();
        let [low, high] = base_odd_multiples();
        let entry = high[0];
        assert_eq!(
            (entry.y_plus_x, entry.y_minus_x, entry.xy2d),
            (expected.y_plus_x, expected.y_minus_x, expected.xy2d)
        );
        let b = Point::base().to_affine_niels();
        assert_eq!(
            (low[0].y_plus_x, low[0].y_minus_x, low[0].xy2d),
            (b.y_plus_x, b.y_minus_x, b.xy2d)
        );
    }

    #[test]
    fn one_pass_mixes_table_widths() {
        let mut rng = SmallRng::seed_from_u64(7);
        let p = Point::base().mul(&Scalar::from_bytes_wide(&rng.gen()));
        let q = Point::base().mul(&Scalar::from_bytes_wide(&rng.gen()));
        let (p_table, q_tables) = (OddMultiples::<8>::new(&p), SplitTables::new(&q));
        for _ in 0..8 {
            let [j, k, s] = [(); 3].map(|_| Scalar::from_bytes_wide(&rng.gen()));
            let j = j.split().0;
            let [q_lo, q_hi] = q_tables.terms(k);
            let straus = Point::straus(&[q_lo, p_table.term(j), q_hi], &s);
            let reference = p.mul(&j).add(&q.mul(&k)).add(&Point::base_mul(&s));
            assert!(straus.eq_point(&reference), "j {j:?}, k {k:?}, s {s:?}");
        }
    }

    #[test]
    fn cofactor_multiplication_kills_exactly_the_small_order_points() {
        for t in small_order_points() {
            assert!(t.mul_by_cofactor().is_identity());
            assert!(!Point::base().add(&t).mul_by_cofactor().is_identity());
        }
    }

    #[test]
    fn straus_matches_reference_mul_plus_base_mul() {
        let mut rng = SmallRng::seed_from_u64(1985);
        let lm1 = Scalar([L[0] - 1, L[1], L[2], L[3]]);
        let edge = [Scalar::ZERO, Scalar::ONE, lm1];
        // Points with torsion components too: what an adversarial
        // public key decodes to.
        let points: Vec<Point> = (0..)
            .filter_map(|_| Point::decompress(&rng.gen()))
            .take(6)
            .chain(small_order_points().into_iter().skip(1).step_by(3))
            .collect();
        for (n, p) in points.iter().enumerate() {
            let pairs = edge.iter().flat_map(|&k| edge.iter().map(move |&s| (k, s)));
            let random = (0..4).map(|_| {
                (
                    Scalar::from_bytes_wide(&rng.gen()),
                    Scalar::from_bytes_wide(&rng.gen()),
                )
            });
            for (k, s) in pairs
                .collect::<Vec<_>>()
                .into_iter()
                .chain(random.collect::<Vec<_>>())
            {
                let reference = p.mul(&k).add(&Point::base_mul(&s));
                let once = Point::straus(&[OddMultiples::<8>::new(p).term(k)], &s);
                assert!(once.eq_point(&reference), "point {n}, k {k:?}, s {s:?}");
                let split = Point::straus(&SplitTables::new(p).terms(k), &s);
                assert!(split.eq_point(&reference), "point {n}, k {k:?}, s {s:?}");
            }
        }
    }

    #[test]
    fn base_mul_matches_generic_mul() {
        for k in [0u64, 1, 2, 7, 255, 256, 0xFFFF_FFFF, u64::MAX] {
            let s = Scalar::from_u64(k);
            assert!(
                Point::base_mul(&s).eq_point(&Point::base().mul(&s)),
                "k = {k}"
            );
        }
        // A full-width scalar too.
        let s = Scalar::from_bytes(&[0xA7; 32]);
        assert!(Point::base_mul(&s).eq_point(&Point::base().mul(&s)));
    }

    #[test]
    fn cofactor_structure() {
        // 8·B has order L/gcd.. — B is in the prime-order subgroup, so
        // [8]B ≠ identity and is on-curve.
        let p8 = Point::base().mul(&Scalar::from_u64(8));
        assert!(!p8.is_identity());
        assert!(p8.is_on_curve());
    }
}
