//! Ed25519 signatures (RFC 8032), from scratch.
//!
//! Each TransEdge edge node holds a unique keypair and signs every
//! protocol message it emits (paper §2, "Interface"); clients verify
//! `f+1` replica signatures on Merkle roots and batch certificates.
//!
//! Layout: [`field`] implements GF(2²⁵⁵−19) in five lazily reduced
//! 51-bit limbs, [`scalar`] arithmetic mod the group order L (Barrett
//! reduction, width-w NAF recoding), [`point`] the twisted Edwards group
//! in extended / projective / completed / cached coordinates; this
//! module implements key expansion, signing and verification on top.
//! Signing is one fixed-base `[r]B` from a per-process radix-16 table.
//! Nothing on the sign or verify path allocates.
//!
//! Verification is *strict* about encodings: non-canonical `S` values
//! (≥ L) are rejected, closing the classic malleability hole, and so
//! are non-canonical point encodings (y ≥ p) of both `A` and `R`
//! (RFC 8032 §5.1.3). The check is the cofactorless `[S]B == R + [k]A`,
//! evaluated as `[k](−A) + [S]B == R` in one Straus pass
//! ([`point::Point::double_base_mul`]) — the same equation, one shared
//! doubling per bit instead of two scalar multiplications.
//!
//! Not constant-time: see the crate-level security disclaimer.

pub mod field;
pub mod point;
pub mod scalar;

use std::fmt;

use rand::RngCore;
use transedge_common::{Decode, Encode, Result, TransEdgeError, WireReader, WireWriter};

use crate::digest::{hex_decode, hex_encode};
use crate::sha2::Sha512;
use point::Point;
use scalar::Scalar;

/// A 32-byte Ed25519 public key (compressed point).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PublicKey(pub [u8; 32]);

/// A 64-byte Ed25519 signature: R (compressed point) ‖ S (scalar).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature(pub [u8; 64]);

/// Secret signing key (seed + cached expansion) with its public key.
#[derive(Clone)]
pub struct Keypair {
    seed: [u8; 32],
    /// Clamped secret scalar `s` (reduced mod L — harmless, see sign()).
    s: Scalar,
    /// The `prefix` half of SHA-512(seed), used to derive nonces.
    prefix: [u8; 32],
    public: PublicKey,
}

impl Keypair {
    /// Deterministic key derivation from a 32-byte seed (RFC 8032 §5.1.5).
    pub fn from_seed(seed: [u8; 32]) -> Keypair {
        let h = {
            let mut hh = Sha512::new();
            hh.update(&seed);
            hh.finalize()
        };
        let mut s_bytes: [u8; 32] = h[..32].try_into().unwrap();
        // Clamp: clear the low 3 bits, clear the top bit, set bit 254.
        s_bytes[0] &= 0xf8;
        s_bytes[31] &= 0x7f;
        s_bytes[31] |= 0x40;
        // Reducing mod L before the point multiplication is sound:
        // [a]B depends only on a mod L, and S = r + k·a is computed
        // mod L anyway.
        let s = Scalar::from_bytes(&s_bytes);
        let prefix: [u8; 32] = h[32..].try_into().unwrap();
        let public = PublicKey(Point::base_mul(&s).compress());
        Keypair {
            seed,
            s,
            prefix,
            public,
        }
    }

    /// Random keypair from the supplied RNG (tests, simulations).
    pub fn generate<R: RngCore>(rng: &mut R) -> Keypair {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        Keypair::from_seed(seed)
    }

    pub fn public(&self) -> PublicKey {
        self.public
    }

    pub fn seed(&self) -> &[u8; 32] {
        &self.seed
    }

    /// Sign a message (RFC 8032 §5.1.6). Deterministic.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        let r = {
            let mut h = Sha512::new();
            h.update(&self.prefix);
            h.update(msg);
            Scalar::from_bytes_wide(&h.finalize())
        };
        let r_point = Point::base_mul(&r);
        let r_enc = r_point.compress();
        let k = {
            let mut h = Sha512::new();
            h.update(&r_enc);
            h.update(&self.public.0);
            h.update(msg);
            Scalar::from_bytes_wide(&h.finalize())
        };
        let s = Scalar::muladd(k, self.s, r);
        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(&r_enc);
        sig[32..].copy_from_slice(&s.to_bytes());
        Signature(sig)
    }
}

impl PublicKey {
    /// Verify a signature over `msg`. Strict: rejects non-canonical S
    /// and invalid or non-canonical point encodings.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        let r_enc: [u8; 32] = sig.0[..32].try_into().unwrap();
        let s_bytes: [u8; 32] = sig.0[32..].try_into().unwrap();
        let Some(s) = Scalar::from_canonical_bytes(&s_bytes) else {
            return false;
        };
        let Some(a) = Point::decompress(&self.0) else {
            return false;
        };
        let Some(r) = Point::decompress(&r_enc) else {
            return false;
        };
        let k = {
            let mut h = Sha512::new();
            h.update(&r_enc);
            h.update(&self.0);
            h.update(msg);
            Scalar::from_bytes_wide(&h.finalize())
        };
        // [S]B == R + [k]A, as [k](−A) + [S]B == R.
        Point::double_base_mul(&k, &a.neg(), &s).eq_point(&r)
    }

    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    pub fn from_hex(hex: &str) -> Option<PublicKey> {
        let v = hex_decode(hex)?;
        Some(PublicKey(v.try_into().ok()?))
    }
}

impl Signature {
    pub fn as_bytes(&self) -> &[u8; 64] {
        &self.0
    }

    pub fn from_hex(hex: &str) -> Option<Signature> {
        let v = hex_decode(hex)?;
        Some(Signature(v.try_into().ok()?))
    }

    pub fn to_hex(&self) -> String {
        hex_encode(&self.0)
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({}…)", hex_encode(&self.0[..4]))
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signature({}…)", hex_encode(&self.0[..4]))
    }
}

impl Encode for PublicKey {
    fn encode(&self, w: &mut WireWriter) {
        w.put_fixed(&self.0);
    }
}

impl Decode for PublicKey {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(PublicKey(r.get_fixed::<32>()?))
    }
}

impl Encode for Signature {
    fn encode(&self, w: &mut WireWriter) {
        w.put_fixed(&self.0);
    }
}

impl Decode for Signature {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(Signature(r.get_fixed::<64>()?))
    }
}

/// Free-function verify mirroring [`PublicKey::verify`], returning a
/// typed error for protocol code that wants to bubble context.
pub fn verify_strict(pk: &PublicKey, msg: &[u8], sig: &Signature) -> Result<()> {
    if pk.verify(msg, sig) {
        Ok(())
    } else {
        Err(TransEdgeError::Verification("bad ed25519 signature".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::hex_decode;

    fn seed_from_hex(hex: &str) -> [u8; 32] {
        hex_decode(hex).unwrap().try_into().unwrap()
    }

    // RFC 8032 §7.1 TEST 1
    #[test]
    fn rfc8032_test1_public_key() {
        let kp = Keypair::from_seed(seed_from_hex(
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        ));
        assert_eq!(
            hex_encode(kp.public().as_bytes()),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
        );
    }

    #[test]
    fn rfc8032_test1_signature() {
        let kp = Keypair::from_seed(seed_from_hex(
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        ));
        let sig = kp.sign(b"");
        assert_eq!(
            sig.to_hex(),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
             5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
                .replace(char::is_whitespace, "")
        );
        assert!(kp.public().verify(b"", &sig));
    }

    // RFC 8032 §7.1 TEST 2
    #[test]
    fn rfc8032_test2() {
        let kp = Keypair::from_seed(seed_from_hex(
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        ));
        assert_eq!(
            hex_encode(kp.public().as_bytes()),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c"
        );
        let sig = kp.sign(&[0x72]);
        assert_eq!(
            sig.to_hex(),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
             085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
                .replace(char::is_whitespace, "")
        );
        assert!(kp.public().verify(&[0x72], &sig));
    }

    // RFC 8032 §7.1 TEST 3
    #[test]
    fn rfc8032_test3() {
        let kp = Keypair::from_seed(seed_from_hex(
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        ));
        assert_eq!(
            hex_encode(kp.public().as_bytes()),
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025"
        );
        let sig = kp.sign(&[0xaf, 0x82]);
        assert_eq!(
            sig.to_hex(),
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
             18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"
                .replace(char::is_whitespace, "")
        );
        assert!(kp.public().verify(&[0xaf, 0x82], &sig));
    }

    #[test]
    fn sign_verify_roundtrip_random_keys() {
        let mut rng = rand::rngs::mock::StepRng::new(42, 104729);
        for i in 0..5 {
            let kp = Keypair::generate(&mut rng);
            let msg = format!("message number {i}");
            let sig = kp.sign(msg.as_bytes());
            assert!(kp.public().verify(msg.as_bytes(), &sig));
        }
    }

    #[test]
    fn tampered_message_fails() {
        let kp = Keypair::from_seed([7u8; 32]);
        let sig = kp.sign(b"pay alice 10");
        assert!(!kp.public().verify(b"pay alice 11", &sig));
    }

    #[test]
    fn tampered_signature_fails() {
        let kp = Keypair::from_seed([7u8; 32]);
        let mut sig = kp.sign(b"hello");
        sig.0[5] ^= 0x01;
        assert!(!kp.public().verify(b"hello", &sig));
        let mut sig2 = kp.sign(b"hello");
        sig2.0[40] ^= 0x80; // flip inside S
        assert!(!kp.public().verify(b"hello", &sig2));
    }

    #[test]
    fn wrong_key_fails() {
        let kp1 = Keypair::from_seed([1u8; 32]);
        let kp2 = Keypair::from_seed([2u8; 32]);
        let sig = kp1.sign(b"hello");
        assert!(!kp2.public().verify(b"hello", &sig));
    }

    #[test]
    fn malleability_rejected() {
        // S' = S + L re-encodes the same residue non-canonically; a
        // strict verifier must reject it.
        let kp = Keypair::from_seed([9u8; 32]);
        let sig = kp.sign(b"msg");
        let s_bytes: [u8; 32] = sig.0[32..].try_into().unwrap();
        // add L to S as 256-bit little-endian integers
        let mut s_limbs = [0u64; 4];
        for (i, c) in s_bytes.chunks_exact(8).enumerate() {
            s_limbs[i] = u64::from_le_bytes(c.try_into().unwrap());
        }
        let mut carry = 0u64;
        for (limb, l) in s_limbs.iter_mut().zip(super::scalar::L) {
            let t = *limb as u128 + l as u128 + carry as u128;
            *limb = t as u64;
            carry = (t >> 64) as u64;
        }
        // If adding L overflowed 256 bits the encoding isn't even
        // representable; skip in that (improbable) case.
        if carry == 0 {
            let mut forged = sig;
            for (i, limb) in s_limbs.iter().enumerate() {
                forged.0[32 + i * 8..32 + i * 8 + 8].copy_from_slice(&limb.to_le_bytes());
            }
            assert!(!kp.public().verify(b"msg", &forged));
        }
    }

    #[test]
    fn signing_is_deterministic() {
        let kp = Keypair::from_seed([3u8; 32]);
        assert_eq!(kp.sign(b"x").0.to_vec(), kp.sign(b"x").0.to_vec());
    }

    #[test]
    fn wire_roundtrip() {
        use transedge_common::wire::roundtrip;
        let kp = Keypair::from_seed([4u8; 32]);
        roundtrip(&kp.public());
        // Signature lacks PartialEq via derive? It has; roundtrip needs Debug+PartialEq.
        let sig = kp.sign(b"wire");
        let bytes = sig.encode_to_vec();
        let back = Signature::decode_all(&bytes).unwrap();
        assert_eq!(back.0.to_vec(), sig.0.to_vec());
    }

    #[test]
    fn verify_strict_returns_typed_error() {
        let kp = Keypair::from_seed([5u8; 32]);
        let sig = kp.sign(b"ok");
        assert!(verify_strict(&kp.public(), b"ok", &sig).is_ok());
        assert!(verify_strict(&kp.public(), b"no", &sig).is_err());
    }

    /// Signature bytes feed certificate digests and wire sizes, so they
    /// must never move: this digest was computed before the field,
    /// point and scalar code was rewritten.
    #[test]
    fn golden_signatures_are_byte_identical() {
        let mut h = crate::Sha256::new();
        for i in 0..64 {
            let kp = Keypair::from_seed([(i % 8) as u8; 32]);
            let msg = format!("transedge golden signature {i}");
            h.update(kp.public().as_bytes());
            h.update(kp.sign(msg.as_bytes()).as_bytes());
        }
        assert_eq!(
            h.finalize().to_hex(),
            "3542b9d41018d21b13606ac5ab27cf2c03c5b37f2d14b4c8f768cd0159ee0cd2"
        );
    }

    /// k = H(R ‖ A ‖ M).
    fn challenge(r_enc: &[u8; 32], pk: &PublicKey, msg: &[u8]) -> Scalar {
        let mut h = Sha512::new();
        h.update(r_enc);
        h.update(&pk.0);
        h.update(msg);
        Scalar::from_bytes_wide(&h.finalize())
    }

    /// `R ‖ S` for nonce `r` announced as `r_enc`, signed by `kp`'s
    /// secret scalar for the claimed key `pk`.
    fn sign_with(
        kp: &Keypair,
        pk: &PublicKey,
        r: Scalar,
        r_enc: [u8; 32],
        msg: &[u8],
    ) -> Signature {
        let k = challenge(&r_enc, pk, msg);
        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(&r_enc);
        sig[32..].copy_from_slice(&Scalar::muladd(k, kp.s, r).to_bytes());
        Signature(sig)
    }

    #[test]
    fn non_canonical_r_is_rejected() {
        // R = the identity ([0]B, so S = k·a), encoded canonically as
        // y = 1 and non-canonically as y = p + 1.
        let kp = Keypair::from_seed([11; 32]);
        let mut canonical = [0u8; 32];
        canonical[0] = 1;
        let mut p_plus_1 = [0xff; 32];
        p_plus_1[0] = 0xee;
        p_plus_1[31] = 0x7f;
        let msg = b"identity nonce";
        let sig = sign_with(&kp, &kp.public(), Scalar::ZERO, p_plus_1, msg);
        assert!(!kp.public().verify(msg, &sig));
        // Cofactorless semantics accept the canonical encoding.
        let sig = sign_with(&kp, &kp.public(), Scalar::ZERO, canonical, msg);
        assert!(kp.public().verify(msg, &sig));
    }

    /// The verification equation as the parent evaluated it: `[S]B` and
    /// `R + [k]A` by separate multiplications (the reference fixed-window
    /// `Point::mul`), compared as points.
    fn verify_reference(pk: &PublicKey, msg: &[u8], sig: &Signature) -> bool {
        let r_enc: [u8; 32] = sig.0[..32].try_into().unwrap();
        let Some(s) = Scalar::from_canonical_bytes(&sig.0[32..].try_into().unwrap()) else {
            return false;
        };
        let (Some(a), Some(r)) = (Point::decompress(&pk.0), Point::decompress(&r_enc)) else {
            return false;
        };
        let k = challenge(&r_enc, pk, msg);
        Point::base_mul(&s).eq_point(&r.add(&a.mul(&k)))
    }

    /// `cases` random signatures, each checked with `verify` against
    /// [`verify_reference`] as issued and under seven mutations.
    fn differential_verify_sweep(cases: usize, seed: u64) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        fn flip<R: Rng>(bytes: &mut [u8], rng: &mut R) {
            let bit = rng.gen_range(0..bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        // (0, −1): order 2, encoded as y = p − 1.
        let mut minus_one = [0xff; 32];
        minus_one[0] = 0xec;
        minus_one[31] = 0x7f;
        let order2 = Point::decompress(&minus_one).expect("(0, -1) is on the curve");
        let (mut accepted, mut checked) = (0, 0);
        for case in 0..cases {
            let kp = Keypair::from_seed(rng.gen());
            let pk = kp.public();
            let len = rng.gen_range(1..80usize);
            let msg: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let sig = kp.sign(&msg);
            assert!(pk.verify(&msg, &sig), "case {case}: issued signature");
            let mut variants = vec![(pk, msg.clone(), sig); 8];
            // One bit flipped in R, in S, in A, in the message.
            flip(&mut variants[1].2 .0[..32], &mut rng);
            flip(&mut variants[2].2 .0[32..], &mut rng);
            flip(&mut variants[3].0 .0, &mut rng);
            flip(&mut variants[4].1, &mut rng);
            // S + L (S < L < 2²⁵³, so the sum fits 256 bits) and S = L.
            let s_plus_l = {
                let mut carry = 0u128;
                let mut out = [0u8; 32];
                for (i, l) in scalar::L.iter().enumerate() {
                    let s = u64::from_le_bytes(sig.0[32 + i * 8..40 + i * 8].try_into().unwrap());
                    let t = s as u128 + *l as u128 + carry;
                    out[i * 8..i * 8 + 8].copy_from_slice(&(t as u64).to_le_bytes());
                    carry = t >> 64;
                }
                out
            };
            variants[5].2 .0[32..].copy_from_slice(&s_plus_l);
            variants[6].2 .0[32..].copy_from_slice(&Scalar(scalar::L).to_bytes());
            // A key with an order-2 component, properly signed for: the
            // cofactorless equation holds exactly when k is even.
            let torsioned = PublicKey(Point::decompress(&pk.0).unwrap().add(&order2).compress());
            let r = Scalar::from_bytes_wide(&rng.gen());
            let r_enc = Point::base_mul(&r).compress();
            variants[7] = (
                torsioned,
                msg.clone(),
                sign_with(&kp, &torsioned, r, r_enc, &msg),
            );
            for (n, (pk, msg, sig)) in variants.iter().enumerate() {
                let got = pk.verify(msg, sig);
                assert_eq!(
                    got,
                    verify_reference(pk, msg, sig),
                    "case {case}, variant {n}"
                );
                accepted += got as usize;
                checked += 1;
            }
        }
        // The issued signatures, plus about half of the torsioned keys.
        assert!(
            accepted > cases && accepted < checked / 4,
            "{accepted} of {checked}"
        );
    }

    #[test]
    fn verify_matches_the_reference_equation() {
        differential_verify_sweep(64, 1);
    }

    /// The release-mode sweep CI runs with `--include-ignored`.
    #[test]
    #[ignore = "10 000 cases: run in release with --include-ignored"]
    fn verify_matches_the_reference_equation_10k() {
        differential_verify_sweep(10_000, 2);
    }
}
