//! Arithmetic modulo the Ed25519 group order
//! L = 2²⁵² + 27742317777372353535851937790883648493.
//!
//! A [`Scalar`] is four little-endian `u64` limbs holding a value in
//! [0, L). Signing needs `r + k·s mod L` with 512-bit inputs (SHA-512
//! outputs); every reduction widens its input to eight limbs and runs
//! one Barrett reduction (HAC 14.42 with b = 2⁶⁴, k = 4): the quotient
//! estimate `⌊⌊x / b³⌋·μ / b⁵⌋`, with `μ = ⌊2⁵¹² / L⌋` a five-limb
//! constant, is at most two short, so at most two subtractions of L
//! follow. Everything lives in fixed-size stack arrays; nothing
//! allocates.
//!
//! Verification also recodes scalars into width-w non-adjacent form
//! ([`Scalar::non_adjacent_form`]) for the Straus loop in
//! [`super::point`].

#![allow(clippy::should_implement_trait, clippy::needless_range_loop)]

/// L as little-endian limbs.
pub const L: [u64; 4] = [
    0x5812_631a_5cf5_d3ed,
    0x14de_f9de_a2f7_9cd6,
    0x0000_0000_0000_0000,
    0x1000_0000_0000_0000,
];

/// μ = ⌊2⁵¹² / L⌋, the Barrett constant (pinned by a test).
const MU: [u64; 5] = [
    0xed9c_e5a3_0a2c_131b,
    0x2106_215d_0863_29a7,
    0xffff_ffff_ffff_ffeb,
    0xffff_ffff_ffff_ffff,
    0x0000_0000_0000_000f,
];

/// A scalar in [0, L).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Scalar(pub [u64; 4]);

fn geq_n(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        if a[i] > b[i] {
            return true;
        }
        if a[i] < b[i] {
            return false;
        }
    }
    true
}

/// a -= b in place, equal lengths, wrapping modulo 2^(64·len).
fn sub_in_place(a: &mut [u64], b: &[u64]) {
    let mut borrow = 0u64;
    for i in 0..a.len() {
        let t = (a[i] as u128).wrapping_sub(b[i] as u128 + borrow as u128);
        a[i] = t as u64;
        borrow = ((t >> 64) as u64) & 1;
    }
}

/// out = a·b mod 2^(64·out.len()), schoolbook.
fn mul_into(a: &[u64], b: &[u64], out: &mut [u64]) {
    out.fill(0);
    for (i, &ai) in a.iter().enumerate() {
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let Some(o) = out.get_mut(i + j) else { break };
            let cur = *o as u128 + ai as u128 * bj as u128 + carry;
            *o = cur as u64;
            carry = cur >> 64;
        }
        if let Some(o) = out.get_mut(i + b.len()) {
            *o = carry as u64;
        }
    }
}

/// x mod L for any 512-bit x, by Barrett reduction.
fn reduce(x: &[u64; 8]) -> [u64; 4] {
    // q3 = ⌊⌊x / b³⌋·μ / b⁵⌋ ≤ ⌊x / L⌋, short by at most 2.
    let mut q2 = [0u64; 10];
    mul_into(&x[3..], &MU, &mut q2);
    // r = (x − q3·L) mod b⁵; the true remainder plus at most 2L < b⁵.
    let mut q3l = [0u64; 5];
    mul_into(&q2[5..], &L, &mut q3l);
    let mut r: [u64; 5] = x[..5].try_into().unwrap();
    sub_in_place(&mut r, &q3l);
    let l5 = [L[0], L[1], L[2], L[3], 0];
    while geq_n(&r, &l5) {
        sub_in_place(&mut r, &l5);
    }
    [r[0], r[1], r[2], r[3]]
}

fn limbs<const N: usize>(bytes: &[u8]) -> [u64; N] {
    std::array::from_fn(|i| u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap()))
}

/// A four-limb value zero-extended to the eight limbs `reduce` takes.
fn widen(v: [u64; 4]) -> [u64; 8] {
    [v[0], v[1], v[2], v[3], 0, 0, 0, 0]
}

impl Scalar {
    pub const ZERO: Scalar = Scalar([0, 0, 0, 0]);
    pub const ONE: Scalar = Scalar([1, 0, 0, 0]);

    pub fn from_u64(v: u64) -> Scalar {
        Scalar([v, 0, 0, 0])
    }

    /// Interpret 32 little-endian bytes, reducing mod L.
    pub fn from_bytes(bytes: &[u8; 32]) -> Scalar {
        Scalar(reduce(&widen(limbs(bytes))))
    }

    /// Interpret 32 little-endian bytes *without* reduction, if already
    /// canonical (`< L`). Returns `None` otherwise — used by signature
    /// verification to reject malleable encodings.
    pub fn from_canonical_bytes(bytes: &[u8; 32]) -> Option<Scalar> {
        let limbs = limbs(bytes);
        if geq_n(&limbs, &L) {
            None
        } else {
            Some(Scalar(limbs))
        }
    }

    /// Reduce a 64-byte little-endian value (SHA-512 output) mod L.
    pub fn from_bytes_wide(bytes: &[u8; 64]) -> Scalar {
        Scalar(reduce(&limbs(bytes)))
    }

    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in self.0.iter().enumerate() {
            out[i * 8..i * 8 + 8].copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    pub fn add(self, other: Scalar) -> Scalar {
        let mut sum = [0u64; 8];
        let mut carry = 0u64;
        for i in 0..4 {
            let t = self.0[i] as u128 + other.0[i] as u128 + carry as u128;
            sum[i] = t as u64;
            carry = (t >> 64) as u64;
        }
        sum[4] = carry;
        Scalar(reduce(&sum))
    }

    pub fn mul(self, other: Scalar) -> Scalar {
        let mut t = [0u64; 8];
        mul_into(&self.0, &other.0, &mut t);
        Scalar(reduce(&t))
    }

    /// r + k·s mod L — the Ed25519 signing equation, one reduction.
    pub fn muladd(k: Scalar, s: Scalar, r: Scalar) -> Scalar {
        let mut t = [0u64; 8];
        mul_into(&k.0, &s.0, &mut t);
        // k, s, r < L, so k·s + r < L² + L < 2⁵¹²: no carry out.
        let mut carry = 0u128;
        for (i, limb) in t.iter_mut().enumerate() {
            let cur = *limb as u128 + r.0.get(i).copied().unwrap_or(0) as u128 + carry;
            *limb = cur as u64;
            carry = cur >> 64;
        }
        Scalar(reduce(&t))
    }

    pub fn is_zero(self) -> bool {
        self.0 == [0, 0, 0, 0]
    }

    /// Iterate bits LSB→MSB.
    pub fn bit(self, i: usize) -> bool {
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Width-`w` non-adjacent form, 2 ≤ w ≤ 8: digits `n[i]` that are
    /// zero or odd with `|n[i]| < 2^(w−1)`, any two nonzero ones at
    /// least `w` positions apart, and `Σ n[i]·2^i` equal to the scalar.
    /// Needs the scalar below 2²⁵⁵ (any value < L is), so the final
    /// carry lands inside the 256 digits.
    pub fn non_adjacent_form(&self, w: usize) -> [i8; 256] {
        debug_assert!((2..=8).contains(&w));
        debug_assert!(self.0[3] >> 63 == 0);
        let x = [self.0[0], self.0[1], self.0[2], self.0[3], 0];
        let width = 1u64 << w;
        let window_mask = width - 1;
        let mut naf = [0i8; 256];
        let mut pos = 0;
        let mut carry = 0;
        while pos < 256 {
            let (idx, bit) = (pos / 64, pos % 64);
            let bits = if bit < 64 - w {
                x[idx] >> bit
            } else {
                x[idx] >> bit | x[idx + 1] << (64 - bit)
            };
            let window = carry + (bits & window_mask);
            if window & 1 == 0 {
                // An even window (carry included) emits a zero digit and
                // keeps the carry for the next bit.
                pos += 1;
                continue;
            }
            if window < width / 2 {
                carry = 0;
                naf[pos] = window as i8;
            } else {
                carry = 1;
                naf[pos] = (window as i8).wrapping_sub(width as i8);
            }
            pos += w;
        }
        naf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The parent's binary long division — repeatedly subtract shifted
    /// copies of L — kept as the reference `reduce` is tested against.
    fn reduce_by_long_division(value: &[u64]) -> [u64; 4] {
        let n = value.len();
        let mut rem = value.to_vec();
        let max_shift = (64 * n).saturating_sub(252);
        for shift in (0..=max_shift).rev() {
            let word = shift / 64;
            let bits = shift % 64;
            let mut shifted = vec![0u64; n];
            let mut overflow = false;
            for (i, &limb) in L.iter().enumerate() {
                if limb == 0 {
                    continue;
                }
                let lo_idx = i + word;
                if lo_idx < n {
                    shifted[lo_idx] |= limb << bits;
                } else if limb << bits != 0 {
                    overflow = true;
                }
                if bits > 0 {
                    let hi = limb >> (64 - bits);
                    if hi != 0 {
                        if i + word + 1 < n {
                            shifted[i + word + 1] |= hi;
                        } else {
                            overflow = true;
                        }
                    }
                }
            }
            if !overflow && geq_n(&rem, &shifted) {
                sub_in_place(&mut rem, &shifted);
            }
        }
        assert!(rem[4..].iter().all(|&l| l == 0));
        [rem[0], rem[1], rem[2], rem[3]]
    }

    #[test]
    fn l_equals_2_252_plus_constant() {
        // Cross-check the hex limbs of L against its defining decimal
        // form: L = 2²⁵² + 27742317777372353535851937790883648493.
        // Build the decimal constant with schoolbook ×10 + digit.
        let dec = "27742317777372353535851937790883648493";
        let mut acc = [0u64; 4];
        for d in dec.bytes() {
            // acc = acc * 10 + (d - '0')
            let mut carry = (d - b'0') as u128;
            for limb in acc.iter_mut() {
                let cur = *limb as u128 * 10 + carry;
                *limb = cur as u64;
                carry = cur >> 64;
            }
            assert_eq!(carry, 0);
        }
        // add 2^252
        acc[3] += 1u64 << 60;
        assert_eq!(acc, L);
    }

    #[test]
    fn mu_is_floor_of_2_512_over_l() {
        // μ·L ≤ 2⁵¹² < (μ + 1)·L: the nine-limb product's top limb is
        // zero for μ and nonzero for μ + 1.
        let mut prod = [0u64; 9];
        mul_into(&MU, &L, &mut prod);
        assert_eq!(prod[8], 0);
        let mut mu1 = MU;
        mu1[0] += 1;
        mul_into(&mu1, &L, &mut prod);
        assert_ne!(prod[8], 0);
    }

    #[test]
    fn barrett_matches_long_division() {
        let mut rng = SmallRng::seed_from_u64(252);
        let mut l_squared = [0u64; 8];
        mul_into(&L, &L, &mut l_squared);
        let mut edges = vec![[0u64; 8], [u64::MAX; 8], widen(L), l_squared];
        let mut l_minus_1 = widen(L);
        l_minus_1[0] -= 1;
        edges.push(l_minus_1);
        let mut two_l = [0u64; 8];
        mul_into(&L, &[2], &mut two_l);
        edges.push(two_l);
        for (case, x) in edges
            .into_iter()
            .chain((0..500).map(|_| std::array::from_fn(|_| rng.gen())))
            .enumerate()
        {
            assert_eq!(reduce(&x), reduce_by_long_division(&x), "case {case}");
        }
    }

    #[test]
    fn add_wraps_mod_l() {
        let lm1 = Scalar([L[0] - 1, L[1], L[2], L[3]]); // L - 1
        assert_eq!(lm1.add(Scalar::ONE), Scalar::ZERO);
        assert_eq!(lm1.add(Scalar::from_u64(3)), Scalar::from_u64(2));
    }

    #[test]
    fn mul_small_values() {
        assert_eq!(
            Scalar::from_u64(7).mul(Scalar::from_u64(8)),
            Scalar::from_u64(56)
        );
        assert_eq!(Scalar::ZERO.mul(Scalar::from_u64(8)), Scalar::ZERO);
    }

    #[test]
    fn from_bytes_reduces() {
        // All-ones 32 bytes is > L and must reduce to a value < L.
        let s = Scalar::from_bytes(&[0xFF; 32]);
        assert!(geq_n(&L, &s.0));
        assert_ne!(s.0, [0xFFFF_FFFF_FFFF_FFFF; 4]);
    }

    #[test]
    fn canonical_bytes_rejects_non_canonical() {
        assert!(Scalar::from_canonical_bytes(&[0xFF; 32]).is_none());
        let mut l_bytes = [0u8; 32];
        for (i, limb) in L.iter().enumerate() {
            l_bytes[i * 8..i * 8 + 8].copy_from_slice(&limb.to_le_bytes());
        }
        assert!(Scalar::from_canonical_bytes(&l_bytes).is_none());
        // L - 1 is canonical.
        l_bytes[0] -= 1;
        assert!(Scalar::from_canonical_bytes(&l_bytes).is_some());
        assert!(Scalar::from_canonical_bytes(&[0u8; 32]).is_some());
    }

    #[test]
    fn wide_reduction_matches_composed_arithmetic() {
        // (2^256 mod L) computed two ways: wide reduction of 2^256, and
        // ((2^128 mod L)^2) via mul.
        let mut wide = [0u8; 64];
        wide[32] = 1; // 2^256
        let a = Scalar::from_bytes_wide(&wide);
        let mut b128 = [0u8; 32];
        b128[16] = 1; // 2^128
        let b = Scalar::from_bytes(&b128);
        assert_eq!(a, b.mul(b));
    }

    #[test]
    fn roundtrip_bytes() {
        let s = Scalar::from_bytes(&[7u8; 32]);
        assert_eq!(Scalar::from_bytes(&s.to_bytes()), s);
    }

    #[test]
    fn muladd_matches_definition() {
        let k = Scalar::from_u64(3);
        let s = Scalar::from_u64(5);
        let r = Scalar::from_u64(11);
        assert_eq!(Scalar::muladd(k, s, r), Scalar::from_u64(26));
        let mut rng = SmallRng::seed_from_u64(8032);
        for _ in 0..50 {
            let [k, s, r] = [(); 3].map(|_| Scalar::from_bytes_wide(&rng.gen()));
            assert_eq!(Scalar::muladd(k, s, r), k.mul(s).add(r));
        }
    }

    #[test]
    fn bit_access() {
        let s = Scalar::from_u64(0b1010);
        assert!(!s.bit(0));
        assert!(s.bit(1));
        assert!(!s.bit(2));
        assert!(s.bit(3));
        assert!(!s.bit(255));
    }

    #[test]
    fn naf_digits_are_sparse_odd_and_sum_to_the_scalar() {
        let mut rng = SmallRng::seed_from_u64(5);
        let lm1 = Scalar([L[0] - 1, L[1], L[2], L[3]]);
        let cases = [Scalar::ZERO, Scalar::ONE, lm1, Scalar::from_u64(0xffff)];
        for s in cases
            .into_iter()
            .chain((0..40).map(|_| Scalar::from_bytes_wide(&rng.gen())))
        {
            for w in [5, 8] {
                let naf = s.non_adjacent_form(w);
                let mut last = None;
                // Σ n[i]·2^i evaluated mod L, MSB first.
                let mut acc = Scalar::ZERO;
                for i in (0..256).rev() {
                    acc = acc.add(acc);
                    let d = naf[i];
                    if d == 0 {
                        continue;
                    }
                    assert!(
                        d % 2 != 0 && (d.unsigned_abs() as u32) < 1 << (w - 1),
                        "digit {d}, w = {w}"
                    );
                    if let Some(prev) = last {
                        assert!(prev - i >= w, "digits at {prev} and {i}, w = {w}");
                    }
                    last = Some(i);
                    let mag = Scalar::from_u64(d.unsigned_abs() as u64);
                    acc = if d > 0 {
                        acc.add(mag)
                    } else {
                        acc.add(Scalar([L[0] - mag.0[0], L[1], L[2], L[3]]))
                    };
                }
                assert_eq!(acc, s, "w = {w}");
            }
        }
    }
}
