//! Arithmetic in GF(2²⁵⁵ − 19), the base field of Curve25519.
//!
//! An element is five little-endian limbs in radix 2⁵¹, value
//! `Σ limb[i]·2^(51·i)`. Reduction is lazy: a limb may run past 51 bits,
//! so one element has many representations, and equality, zero and
//! parity all go through the canonical [`Fe::to_bytes`]. What keeps the
//! `u64`/`u128` arithmetic from overflowing is a bound on the limbs,
//! which every operation assumes of its inputs and guarantees of its
//! output:
//!
//! | operation | inputs' limbs | output's limbs |
//! |---|---|---|
//! | `mul`, `square`, `pow*`, `invert` | < 2⁵⁴ | < 2⁵² |
//! | `sub`, `neg` | < 2⁵⁴ | < 2⁵² |
//! | `add` | their sums < 2⁵⁴ | those sums, uncarried |
//! | `from_bytes`, `from_u64` | — | < 2⁵¹ |
//! | `to_bytes`, `==`, `is_zero`, `is_odd` | < 2⁶⁴ | — |
//!
//! Call a value with limbs < 2⁵² *reduced*. Any sum of at most three
//! reduced values (< 3·2⁵² < 2⁵⁴) may go straight into `mul`, `square`
//! or `sub`, which is all the point formulas need; the bounds are
//! `debug_assert`ed and the differential tests run each operation at
//! them.
//!
//! * `mul` is 25 `u128` products, the five that wrap past 2²⁵⁵ folded
//!   with 2²⁵⁵ ≡ 19 (one operand's limbs pre-multiplied by 19, < 2⁵⁹),
//!   then one carry pass; `square` is the same with the 10 symmetric
//!   products shared (15 products).
//! * `sub` computes `a + 16p − b` limb-wise (16p's limbs exceed any
//!   2⁵⁴-bounded `b`) and carries once, so neither `add` nor `sub`
//!   branches.
//! * `invert` (a^(p−2)) and `pow_p58` (a^((p−5)/8), for square roots)
//!   share the ref10 addition chain: 254 squarings and 11
//!   multiplications where square-and-multiply needs ~500 operations.
//!
//! Not constant-time — see the crate-level security disclaimer.
//!
//! `add`/`sub`/`mul`/`neg` deliberately mirror the RFC 8032 pseudocode
//! names rather than operator traits; limb loops index fixed-width
//! arrays on purpose.
#![allow(clippy::should_implement_trait, clippy::needless_range_loop)]

const MASK51: u64 = (1 << 51) - 1;

/// An element of GF(2²⁵⁵ − 19); see the module doc for the limb bounds.
#[derive(Clone, Copy, Debug)]
pub struct Fe([u64; 5]);

#[inline(always)]
fn m(a: u64, b: u64) -> u128 {
    a as u128 * b as u128
}

impl Fe {
    pub const ZERO: Fe = Fe([0; 5]);
    pub const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// From a small integer.
    pub fn from_u64(v: u64) -> Fe {
        Fe([v & MASK51, v >> 51, 0, 0, 0])
    }

    /// Decode 32 little-endian bytes. Bit 255 is ignored, and values in
    /// [p, 2²⁵⁵) are accepted as their residue: callers that must reject
    /// non-canonical encodings compare against [`Fe::to_bytes`].
    pub fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let w = |i: usize| u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap());
        let (w0, w1, w2, w3) = (w(0), w(1), w(2), w(3));
        Fe([
            w0 & MASK51,
            (w0 >> 51 | w1 << 13) & MASK51,
            (w1 >> 38 | w2 << 26) & MASK51,
            (w2 >> 25 | w3 << 39) & MASK51,
            (w3 >> 12) & MASK51,
        ])
    }

    /// The canonical encoding: 32 little-endian bytes of the value
    /// reduced into [0, p).
    pub fn to_bytes(self) -> [u8; 32] {
        // After one carry pass the value is below 2p, so subtracting p
        // once suffices: q = 1 exactly when value + 19 ≥ 2²⁵⁵.
        let mut l = Fe::carry(self.0).0;
        let mut q = (l[0] + 19) >> 51;
        for limb in &l[1..] {
            q = (limb + q) >> 51;
        }
        // value − q·p = value + 19q − q·2²⁵⁵: add 19q, carry, and drop
        // bit 255 with the top limb's mask.
        l[0] += 19 * q;
        for i in 0..4 {
            l[i + 1] += l[i] >> 51;
            l[i] &= MASK51;
        }
        l[4] &= MASK51;
        let words = [
            l[0] | l[1] << 51,
            l[1] >> 13 | l[2] << 38,
            l[2] >> 26 | l[3] << 25,
            l[3] >> 39 | l[4] << 12,
        ];
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(8).zip(words) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// One carry pass over arbitrary `u64` limbs: every output limb is
    /// < 2⁵¹ + 2¹⁸.
    #[inline(always)]
    fn carry(l: [u64; 5]) -> Fe {
        let c = [l[0] >> 51, l[1] >> 51, l[2] >> 51, l[3] >> 51, l[4] >> 51];
        Fe([
            (l[0] & MASK51) + c[4] * 19,
            (l[1] & MASK51) + c[0],
            (l[2] & MASK51) + c[1],
            (l[3] & MASK51) + c[2],
            (l[4] & MASK51) + c[3],
        ])
    }

    fn bounded(self, bits: u32) -> bool {
        self.0.iter().all(|&l| l >> bits == 0)
    }

    /// Limb-wise sum, not carried: the caller keeps the sums < 2⁵⁴.
    #[inline(always)]
    pub fn add(self, other: Fe) -> Fe {
        let (a, b) = (self.0, other.0);
        let sum = Fe([
            a[0] + b[0],
            a[1] + b[1],
            a[2] + b[2],
            a[3] + b[3],
            a[4] + b[4],
        ]);
        debug_assert!(sum.bounded(54), "add past the 2⁵⁴ limb bound");
        sum
    }

    #[inline(always)]
    pub fn sub(self, other: Fe) -> Fe {
        debug_assert!(self.bounded(54) && other.bounded(54));
        // 16p = 16·(2⁵¹ − 19) + Σ 16·(2⁵¹ − 1)·2^(51i).
        const P16_0: u64 = 16 * ((1 << 51) - 19);
        const P16_I: u64 = 16 * ((1 << 51) - 1);
        let (a, b) = (self.0, other.0);
        Fe::carry([
            a[0] + P16_0 - b[0],
            a[1] + P16_I - b[1],
            a[2] + P16_I - b[2],
            a[3] + P16_I - b[3],
            a[4] + P16_I - b[4],
        ])
    }

    pub fn neg(self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Carry five column sums (each < 2¹¹⁵) into a reduced element.
    #[inline(always)]
    fn carry_wide(mut c: [u128; 5]) -> Fe {
        let mut out = [0u64; 5];
        for i in 0..4 {
            c[i + 1] += c[i] >> 51;
            out[i] = c[i] as u64 & MASK51;
        }
        out[4] = c[4] as u64 & MASK51;
        // c[4] holds no ×19 term: < 5·2¹⁰⁸ + 2⁶², so the carry is
        // < 2^59.4 and 19× it plus a 51-bit limb still fits 64 bits.
        out[0] += (c[4] >> 51) as u64 * 19;
        out[1] += out[0] >> 51;
        out[0] &= MASK51;
        Fe(out)
    }

    #[inline(always)]
    pub fn mul(self, other: Fe) -> Fe {
        debug_assert!(self.bounded(54) && other.bounded(54));
        let (a, b) = (self.0, other.0);
        let (b1, b2, b3, b4) = (b[1] * 19, b[2] * 19, b[3] * 19, b[4] * 19);
        Fe::carry_wide([
            m(a[0], b[0]) + m(a[4], b1) + m(a[3], b2) + m(a[2], b3) + m(a[1], b4),
            m(a[1], b[0]) + m(a[0], b[1]) + m(a[4], b2) + m(a[3], b3) + m(a[2], b4),
            m(a[2], b[0]) + m(a[1], b[1]) + m(a[0], b[2]) + m(a[4], b3) + m(a[3], b4),
            m(a[3], b[0]) + m(a[2], b[1]) + m(a[1], b[2]) + m(a[0], b[3]) + m(a[4], b4),
            m(a[4], b[0]) + m(a[3], b[1]) + m(a[2], b[2]) + m(a[1], b[3]) + m(a[0], b[4]),
        ])
    }

    #[inline(always)]
    pub fn square(self) -> Fe {
        debug_assert!(self.bounded(54));
        let a = self.0;
        let (a3_19, a4_19) = (a[3] * 19, a[4] * 19);
        Fe::carry_wide([
            m(a[0], a[0]) + 2 * (m(a[1], a4_19) + m(a[2], a3_19)),
            m(a[3], a3_19) + 2 * (m(a[0], a[1]) + m(a[2], a4_19)),
            m(a[1], a[1]) + 2 * (m(a[0], a[2]) + m(a[4], a3_19)),
            m(a[4], a4_19) + 2 * (m(a[0], a[3]) + m(a[1], a[2])),
            m(a[2], a[2]) + 2 * (m(a[0], a[4]) + m(a[1], a[3])),
        ])
    }

    /// self^(2^k), k ≥ 1.
    fn pow2k(self, k: u32) -> Fe {
        let mut x = self;
        for _ in 0..k {
            x = x.square();
        }
        x
    }

    /// Exponentiation by a 256-bit little-endian exponent, by binary
    /// square-and-multiply: the reference the addition chains are
    /// tested against, and the derivation of `sqrt_m1`.
    pub fn pow(self, exp: &[u64; 4]) -> Fe {
        let mut result = Fe::ONE;
        let mut base = self;
        for limb in exp.iter() {
            let mut bits = *limb;
            for _ in 0..64 {
                if bits & 1 == 1 {
                    result = result.mul(base);
                }
                base = base.square();
                bits >>= 1;
            }
        }
        result
    }

    /// (self^(2²⁵⁰ − 1), self^11): the shared head of ref10's chains.
    /// The comment on each step gives the set bits of its exponent.
    fn pow22501(self) -> (Fe, Fe) {
        let t0 = self.square(); // 1
        let t1 = t0.pow2k(2); // 3
        let t2 = self.mul(t1); // 3,0
        let t3 = t0.mul(t2); // 3,1,0 = 11
        let t4 = t3.square(); // 4,2,1
        let t5 = t2.mul(t4); // 4..0
        let t6 = t5.pow2k(5); // 9..5
        let t7 = t6.mul(t5); // 9..0
        let t8 = t7.pow2k(10); // 19..10
        let t9 = t8.mul(t7); // 19..0
        let t10 = t9.pow2k(20); // 39..20
        let t11 = t10.mul(t9); // 39..0
        let t12 = t11.pow2k(10); // 49..10
        let t13 = t12.mul(t7); // 49..0
        let t14 = t13.pow2k(50); // 99..50
        let t15 = t14.mul(t13); // 99..0
        let t16 = t15.pow2k(100); // 199..100
        let t17 = t16.mul(t15); // 199..0
        let t18 = t17.pow2k(50); // 249..50
        let t19 = t18.mul(t13); // 249..0
        (t19, t3)
    }

    /// Multiplicative inverse via Fermat: a^(p−2), p − 2 having set bits
    /// 254..5, 3, 1, 0 (0 maps to 0).
    pub fn invert(self) -> Fe {
        let (t19, t3) = self.pow22501();
        t19.pow2k(5).mul(t3)
    }

    /// a^((p−5)/8) = a^(2²⁵² − 3), set bits 251..2, 0 — the exponent of
    /// the one-exponentiation square root in point decoding.
    pub fn pow_p58(self) -> Fe {
        let (t19, _) = self.pow22501();
        t19.pow2k(2).mul(self)
    }

    pub fn is_zero(self) -> bool {
        self.to_bytes() == [0; 32]
    }

    /// Low bit of the canonical encoding — the "sign" of x in RFC 8032.
    pub fn is_odd(self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }
}

/// Equality of field values, whatever their limbs.
impl PartialEq for Fe {
    fn eq(&self, other: &Fe) -> bool {
        self.to_bytes() == other.to_bytes()
    }
}

impl Eq for Fe {}

/// sqrt(−1) mod p, computed as 2^((p−1)/4) at first use.
pub fn sqrt_m1() -> Fe {
    use std::sync::OnceLock;
    static V: OnceLock<Fe> = OnceLock::new();
    *V.get_or_init(|| {
        // (p − 1) / 4 = 2²⁵³ − 5
        let exp = [
            0xffff_ffff_ffff_fffb,
            0xffff_ffff_ffff_ffff,
            0xffff_ffff_ffff_ffff,
            0x1fff_ffff_ffff_ffff,
        ];
        Fe::from_u64(2).pow(&exp)
    })
}

/// The twisted Edwards `d` parameter: −121665/121666 mod p.
pub fn curve_d() -> Fe {
    use std::sync::OnceLock;
    static V: OnceLock<Fe> = OnceLock::new();
    *V.get_or_init(|| {
        Fe::from_u64(121665)
            .neg()
            .mul(Fe::from_u64(121666).invert())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn fe(v: u64) -> Fe {
        Fe::from_u64(v)
    }

    /// p = 2²⁵⁵ − 19, little-endian.
    fn p_bytes() -> [u8; 32] {
        let mut b = [0xff; 32];
        b[0] = 0xed;
        b[31] = 0x7f;
        b
    }

    // An oracle that shares nothing with the code under test: canonical
    // integers in [0, p) as four 64-bit words, multiplied by
    // double-and-add with a compare-and-subtract reduction.
    type Word4 = [u64; 4];
    const P4: Word4 = [
        0xffff_ffff_ffff_ffed,
        0xffff_ffff_ffff_ffff,
        0xffff_ffff_ffff_ffff,
        0x7fff_ffff_ffff_ffff,
    ];

    fn oracle_add(a: Word4, b: Word4) -> Word4 {
        let mut sum = [0u64; 4];
        let mut carry = 0u128;
        for i in 0..4 {
            let t = a[i] as u128 + b[i] as u128 + carry;
            sum[i] = t as u64;
            carry = t >> 64;
        }
        // a, b < p < 2²⁵⁵, so the sum fits 256 bits.
        assert_eq!(carry, 0);
        if (0..4).rev().map(|i| sum[i].cmp(&P4[i])).find(|o| o.is_ne())
            != Some(std::cmp::Ordering::Less)
        {
            let mut borrow = 0i128;
            for i in 0..4 {
                let t = sum[i] as i128 - P4[i] as i128 - borrow;
                sum[i] = t as u64;
                borrow = (t < 0) as i128;
            }
        }
        sum
    }

    fn oracle_mul(a: Word4, b: Word4) -> Word4 {
        let mut acc = [0u64; 4];
        for bit in (0..256).rev() {
            acc = oracle_add(acc, acc);
            if (b[bit / 64] >> (bit % 64)) & 1 == 1 {
                acc = oracle_add(acc, a);
            }
        }
        acc
    }

    /// The value of raw limbs, Σ limb·2^(51i) mod p, via the oracle.
    fn oracle_value(limbs: [u64; 5]) -> Word4 {
        let mut acc = [0u64; 4];
        for (i, &limb) in limbs.iter().enumerate() {
            let mut pow = [0u64; 4];
            pow[51 * i / 64] = 1 << (51 * i % 64);
            // limb < 2⁶⁴ < p is already canonical.
            acc = oracle_add(acc, oracle_mul([limb, 0, 0, 0], pow));
        }
        acc
    }

    fn words(bytes: [u8; 32]) -> Word4 {
        std::array::from_fn(|i| u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap()))
    }

    /// Random limbs, each below 2^bits, with every tenth case pinned to
    /// the bound itself.
    fn limbs_below(rng: &mut SmallRng, bits: u32, case: usize) -> [u64; 5] {
        let top = (1u64 << bits) - 1;
        std::array::from_fn(|_| {
            if case.is_multiple_of(10) {
                top
            } else {
                rng.gen::<u64>() & top
            }
        })
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = fe(12345);
        let b = fe(67890);
        assert_eq!(a.add(b).sub(b), a);
        assert_eq!(a.sub(b).add(b), a);
        assert_eq!(a.sub(a), Fe::ZERO);
    }

    #[test]
    fn neg_is_additive_inverse() {
        let a = fe(999);
        assert_eq!(a.add(a.neg()), Fe::ZERO);
        assert_eq!(Fe::ZERO.neg(), Fe::ZERO);
    }

    #[test]
    fn mul_matches_small_integers() {
        assert_eq!(fe(7).mul(fe(6)), fe(42));
        assert_eq!(fe(0).mul(fe(12345)), Fe::ZERO);
        assert_eq!(fe(1).mul(fe(12345)), fe(12345));
    }

    #[test]
    fn wraparound_at_p() {
        // (p − 1) + 2 == 1
        let p_minus_1 = Fe::from_bytes(&p_bytes()).sub(Fe::ONE);
        let pm1 = Fe::ZERO.sub(Fe::ONE);
        assert_eq!(p_minus_1, pm1);
        assert_eq!(pm1.add(fe(2)), Fe::ONE);
        // And 2·(p−1) == p−2 == −2
        assert_eq!(pm1.add(pm1), fe(2).neg());
    }

    #[test]
    fn invert_gives_one() {
        for v in [1u64, 2, 3, 121665, 121666, u64::MAX] {
            let a = fe(v);
            assert_eq!(a.mul(a.invert()), Fe::ONE, "v = {v}");
        }
    }

    #[test]
    fn distributivity() {
        let a = fe(0xdead_beef);
        let b = fe(0xcafe_babe);
        let c = fe(0x1234_5678);
        assert_eq!(a.add(b).mul(c), a.mul(c).add(b.mul(c)));
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let i = sqrt_m1();
        assert_eq!(i.square(), Fe::ONE.neg());
    }

    #[test]
    fn bytes_roundtrip_canonical() {
        let a = fe(123456789).mul(fe(987654321));
        assert_eq!(Fe::from_bytes(&a.to_bytes()), a);
        // Non-canonical encodings (>= p) reduce.
        assert_eq!(Fe::from_bytes(&p_bytes()), Fe::ZERO);
    }

    #[test]
    fn pow_small_exponents() {
        let a = fe(3);
        assert_eq!(a.pow(&[0, 0, 0, 0]), Fe::ONE);
        assert_eq!(a.pow(&[1, 0, 0, 0]), a);
        assert_eq!(a.pow(&[5, 0, 0, 0]), fe(243));
    }

    #[test]
    fn curve_d_satisfies_definition() {
        // d · 121666 == −121665
        assert_eq!(curve_d().mul(fe(121666)), fe(121665).neg());
    }

    #[test]
    fn square_equals_mul_self() {
        let a = Fe::from_bytes(&[0x42; 32]);
        assert_eq!(a.square(), a.mul(a));
    }

    #[test]
    fn addition_chains_equal_square_and_multiply() {
        const P_MINUS_2: Word4 = [
            0xffff_ffff_ffff_ffeb,
            0xffff_ffff_ffff_ffff,
            0xffff_ffff_ffff_ffff,
            0x7fff_ffff_ffff_ffff,
        ];
        // (p − 5) / 8 = 2²⁵² − 3
        const P_MINUS_5_OVER_8: Word4 = [
            0xffff_ffff_ffff_fffd,
            0xffff_ffff_ffff_ffff,
            0xffff_ffff_ffff_ffff,
            0x0fff_ffff_ffff_ffff,
        ];
        let mut rng = SmallRng::seed_from_u64(25);
        let probes = [
            Fe::ZERO,
            Fe::ONE,
            fe(2),
            Fe::ONE.neg(),
            Fe(limbs_below(&mut rng, 54, 0)),
        ];
        for (case, a) in probes
            .into_iter()
            .chain((1..16).map(|c| Fe(limbs_below(&mut rng, 54, c))))
            .enumerate()
        {
            assert_eq!(a.invert(), a.pow(&P_MINUS_2), "invert, case {case}");
            assert_eq!(
                a.pow_p58(),
                a.pow(&P_MINUS_5_OVER_8),
                "pow_p58, case {case}"
            );
        }
    }

    #[test]
    fn operations_match_the_oracle_at_their_limb_bounds() {
        let mut rng = SmallRng::seed_from_u64(2551);
        for case in 0..200 {
            // mul, square and sub take limbs < 2⁵⁴.
            let (a, b) = (
                limbs_below(&mut rng, 54, case),
                limbs_below(&mut rng, 54, case),
            );
            let (va, vb) = (oracle_value(a), oracle_value(b));
            assert_eq!(words(Fe(a).to_bytes()), va, "to_bytes, case {case}");
            assert_eq!(
                words(Fe(a).mul(Fe(b)).to_bytes()),
                oracle_mul(va, vb),
                "mul, case {case}"
            );
            assert_eq!(
                words(Fe(a).square().to_bytes()),
                oracle_mul(va, va),
                "square, case {case}"
            );
            let diff = Fe(a).sub(Fe(b));
            assert!(diff.bounded(52), "sub output past 2⁵², case {case}");
            assert_eq!(
                oracle_add(words(diff.to_bytes()), vb),
                va,
                "sub, case {case}"
            );
            // Outputs of mul/square are reduced (< 2⁵²) ...
            let (ra, rb) = (Fe(a).mul(Fe(b)), Fe(b).square());
            assert!(
                ra.bounded(52) && rb.bounded(52),
                "mul output past 2⁵², case {case}"
            );
            // ... and add takes sums < 2⁵⁴, e.g. of three reduced values.
            let (x, y) = (
                limbs_below(&mut rng, 52, case),
                limbs_below(&mut rng, 53, case),
            );
            let sum = Fe(x).add(Fe(y));
            assert_eq!(
                words(sum.to_bytes()),
                oracle_add(oracle_value(x), oracle_value(y)),
                "add, case {case}"
            );
            assert_eq!(
                words(sum.mul(sum).to_bytes()),
                words(sum.square().to_bytes()),
                "square(sum), case {case}"
            );
        }
    }

    #[test]
    fn to_bytes_is_canonical_around_p() {
        // p − 1, p, p + 1 and 2²⁵⁵ − 1 as raw limbs below 2⁵¹.
        let p = Fe::from_bytes(&p_bytes()).0;
        for (delta, want) in [
            (-1i64, Fe::ONE.neg()),
            (0, Fe::ZERO),
            (1, Fe::ONE),
            (18, fe(18)),
        ] {
            let mut limbs = p;
            limbs[0] = (limbs[0] as i64 + delta) as u64;
            assert_eq!(Fe(limbs).to_bytes(), want.to_bytes(), "p + {delta}");
        }
        assert_eq!(Fe::ONE.neg().to_bytes()[0], 0xec);
    }
}
