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
//! Nothing on the sign or verify path allocates, batches included.
//!
//! Verification is *strict* about encodings: non-canonical `S` values
//! (≥ L) are rejected, closing the classic malleability hole, and so
//! are non-canonical point encodings (y ≥ p) of both `A` and `R`
//! (RFC 8032 §5.1.3). With `k = H(R ‖ A ‖ M)`, the check is the
//! *cofactored* equation RFC 8032 §5.1.7 allows,
//!
//! ```text
//! [8]([S]B − R − [k]A) = O,
//! ```
//!
//! evaluated as one Straus pass for `[k](−A) + [S]B`
//! ([`point::Point::straus`]), one addition of `−R` and three doublings.
//! A [`VerifyingKey`] decodes `A` once and builds its split tables —
//! 32 odd multiples each of `−A` and `−[2¹²⁸]A` — so `[k](−A)` is two
//! 128-bit terms and the pass runs about 129 doublings instead of 253.
//! [`PublicKey::verify`] decodes `A` per call and, the table serving one
//! check only, builds just the 8 odd multiples of `−A` for a full-width
//! pass. Both share the parse and the equation.
//!
//! [`verify_batch`] checks up to [`MAX_BATCH`] signatures in one
//! multi-scalar multiplication (Bernstein et al., *High-speed
//! high-security signatures*, §5):
//!
//! ```text
//! [8]([Σ zᵢSᵢ]B − Σ [zᵢ]Rᵢ − Σ [zᵢkᵢ]Aᵢ) = O,
//! ```
//!
//! evaluated as one Straus pass of three terms per signature, all below
//! 2¹²⁸: `[zᵢ](−Rᵢ)` and the two halves of `[zᵢkᵢ](−Aᵢ)` over the key's
//! split tables. The `zᵢ` are 128-bit values read from SHA-512 over a
//! digest of every `(Aᵢ, Rᵢ, Sᵢ, kᵢ)` in the batch — a function of the
//! batch alone, so a verdict never depends on a random source, and a
//! forger choosing the batch cannot choose its `zᵢ`. When every
//! signature passes the single equation the batch equation holds, so a
//! failing batch always holds a bad signature; a passing batch with a
//! bad one needs its `zᵢ` to cancel, probability about 2⁻¹²⁸.
//! Cofactored single and batch checks share one accept set (Chalkias,
//! Garillot, Nikolaenko, *Taming the many EdDSAs*, 2020); the
//! cofactorless single check accepted less.
//!
//! What the cofactor changes: a signature whose `[S]B − R − [k]A` is a
//! nonzero point of small order (order 2, 4 or 8) verifies now and did
//! not under `[S]B = R + [k]A`. Only the key's owner can make one:
//! `S` needs the secret scalar, and a third party cannot add torsion to
//! someone else's `R` because `k` hashes `R`. So the change admits no
//! forgery and no third-party malleability; it lets a signer produce
//! more than one valid signature for a message, which nothing in this
//! repository assumes it cannot.
//!
//! Not constant-time: see the crate-level security disclaimer.

pub mod field;
pub mod point;
pub mod scalar;

use std::fmt;

use rand::RngCore;
use transedge_common::{Decode, Encode, Result, WireReader, WireWriter};

use crate::digest::{hex_decode, hex_encode};
use crate::sha2::Sha512;
use point::{OddMultiples, Point, SplitTables, Term, MAX_TERMS};
use scalar::Scalar;

/// Most signatures one [`verify_batch`] call checks: three Straus terms
/// each.
pub const MAX_BATCH: usize = MAX_TERMS / 3;

// `keys::check` chunks by `MAX_BATCH`, so moving it moves every batch
// count a run reports.
const _: () = assert!(3 * MAX_BATCH == MAX_TERMS && MAX_BATCH == 8);

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
        let r_enc = Point::base_mul(&r).compress();
        let k = challenge(&r_enc, &self.public, msg);
        let s = Scalar::muladd(k, self.s, r);
        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(&r_enc);
        sig[32..].copy_from_slice(&s.to_bytes());
        Signature(sig)
    }
}

/// k = H(R ‖ A ‖ M) mod L.
fn challenge(r_enc: &[u8; 32], a: &PublicKey, msg: &[u8]) -> Scalar {
    let mut h = Sha512::new();
    h.update(r_enc);
    h.update(&a.0);
    h.update(msg);
    Scalar::from_bytes_wide(&h.finalize())
}

/// A public key decoded once, with the split tables of `−A` every
/// verification under it reads — what a key directory fixed at setup
/// keeps per key (about 10 KB).
#[derive(Clone)]
pub struct VerifyingKey {
    public: PublicKey,
    /// `None` when the encoding is not a canonical curve point: such a
    /// key verifies nothing.
    neg_a: Option<SplitTables>,
}

/// One signature parsed for the verification equation: `R` decoded, `S`
/// canonical, `k` computed.
struct Parsed {
    r_enc: [u8; 32],
    r: Point,
    s: Scalar,
    k: Scalar,
}

/// `None` when an encoding of the signature is invalid or non-canonical.
fn parse(public: &PublicKey, msg: &[u8], sig: &Signature) -> Option<Parsed> {
    let r_enc: [u8; 32] = sig.0[..32].try_into().unwrap();
    let s = Scalar::from_canonical_bytes(&sig.0[32..].try_into().unwrap())?;
    let r = Point::decompress(&r_enc)?;
    Some(Parsed {
        r_enc,
        r,
        s,
        k: challenge(&r_enc, public, msg),
    })
}

impl Parsed {
    /// The single equation `[8]([k](−A) + [S]B − R) = O`, given `[k](−A)`
    /// as Straus terms.
    fn holds(&self, neg_ka: &[Term<'_>]) -> bool {
        Point::straus(neg_ka, &self.s)
            .add(&self.r.neg())
            .mul_by_cofactor()
            .is_identity()
    }
}

impl VerifyingKey {
    pub fn new(public: PublicKey) -> VerifyingKey {
        VerifyingKey {
            public,
            neg_a: Point::decompress(&public.0).map(|a| SplitTables::new(&a.neg())),
        }
    }

    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// `None` when any encoding, the key's included, is invalid or
    /// non-canonical.
    fn parse(&self, msg: &[u8], sig: &Signature) -> Option<(&SplitTables, Parsed)> {
        let neg_a = self.neg_a.as_ref()?;
        Some((neg_a, parse(&self.public, msg, sig)?))
    }

    /// Verify a signature over `msg`: strict decoding, cofactored
    /// equation (see the module docs).
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        self.parse(msg, sig)
            .is_some_and(|(neg_a, p)| p.holds(&neg_a.terms(p.k)))
    }
}

/// Do all of `items` — `(key, message, signature)`, at most
/// [`MAX_BATCH`] — verify? One multi-scalar multiplication for the batch
/// equation of the module docs. `true` means every single check passes
/// (up to the 2⁻¹²⁸ above); `false` means at least one fails, and which
/// takes a single check each.
pub fn verify_batch(items: &[(&VerifyingKey, &[u8], &Signature)]) -> bool {
    assert!(items.len() <= MAX_BATCH, "batch of {}", items.len());
    let mut parsed: [Option<(&SplitTables, Parsed)>; MAX_BATCH] = Default::default();
    let mut neg_r = [OddMultiples::<8>::IDENTITY; MAX_BATCH];
    let mut transcript = Sha512::new();
    transcript.update(b"transedge/ed25519-batch");
    for ((slot, r_table), (key, msg, sig)) in parsed.iter_mut().zip(&mut neg_r).zip(items) {
        let Some((neg_a, p)) = key.parse(msg, sig) else {
            return false;
        };
        transcript.update(&key.public.0);
        transcript.update(&p.r_enc);
        transcript.update(&p.s.to_bytes());
        transcript.update(&p.k.to_bytes());
        *r_table = OddMultiples::new(&p.r.neg());
        *slot = Some((neg_a, p));
    }
    let seed = transcript.finalize();
    // Four 128-bit zᵢ per SHA-512 block of (seed ‖ block index).
    let mut block = [0u8; 64];
    let mut terms = [Term::ZERO; MAX_TERMS];
    let mut b_scalar = Scalar::ZERO;
    for (i, ((neg_a, p), r_table)) in parsed.iter().flatten().zip(&neg_r).enumerate() {
        if i % 4 == 0 {
            let mut h = Sha512::new();
            h.update(&seed);
            h.update(&[(i / 4) as u8]);
            block = h.finalize();
        }
        let z = u128::from_le_bytes(block[16 * (i % 4)..16 * (i % 4) + 16].try_into().unwrap());
        let z = Scalar([z as u64, (z >> 64) as u64, 0, 0]);
        b_scalar = b_scalar.add(z.mul(p.s));
        let [a_lo, a_hi] = neg_a.terms(z.mul(p.k));
        terms[3 * i..3 * i + 3].copy_from_slice(&[r_table.term(z), a_lo, a_hi]);
    }
    Point::straus(&terms[..3 * items.len()], &b_scalar)
        .mul_by_cofactor()
        .is_identity()
}

impl PublicKey {
    /// Verify a signature over `msg`, decoding the key on the way: the
    /// 8 odd multiples of `−A` and one full-width Straus pass, since
    /// split tables would serve only this check (a [`VerifyingKey`]
    /// decodes once and builds them).
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        let Some(a) = Point::decompress(&self.0) else {
            return false;
        };
        let neg_a = OddMultiples::<8>::new(&a.neg());
        parse(self, msg, sig).is_some_and(|p| p.holds(&[neg_a.term(p.k)]))
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

    #[test]
    fn non_canonical_r_is_rejected() {
        // R = the identity ([0]B, so S = k·a), encoded canonically as
        // y = 1 and non-canonically as y = p + 1.
        let kp = Keypair::from_seed([11; 32]);
        let mut canonical = [0u8; 32];
        canonical[0] = 1;
        let msg = b"identity nonce";
        let sig = tamper::sign_with(&kp, &kp.public(), Scalar::ZERO, tamper::p_plus_1(), msg);
        assert!(!kp.public().verify(msg, &sig));
        // Both equations accept the canonical encoding.
        let sig = tamper::sign_with(&kp, &kp.public(), Scalar::ZERO, canonical, msg);
        assert!(kp.public().verify(msg, &sig));
        assert!(verify_cofactorless(&kp.public(), msg, &sig));
    }

    /// `(S, A, R, k)` of a signature whose encodings all decode.
    fn decoded(
        pk: &PublicKey,
        msg: &[u8],
        sig: &Signature,
    ) -> Option<(Scalar, Point, Point, Scalar)> {
        let r_enc: [u8; 32] = sig.0[..32].try_into().unwrap();
        let s = Scalar::from_canonical_bytes(&sig.0[32..].try_into().unwrap())?;
        let a = Point::decompress(&pk.0)?;
        let r = Point::decompress(&r_enc)?;
        Some((s, a, r, challenge(&r_enc, pk, msg)))
    }

    /// The cofactored equation by separate multiplications (the
    /// reference fixed-window `Point::mul`): `[8]([S]B − (R + [k]A)) = O`.
    fn verify_reference(pk: &PublicKey, msg: &[u8], sig: &Signature) -> bool {
        decoded(pk, msg, sig).is_some_and(|(s, a, r, k)| {
            Point::base_mul(&s)
                .add(&r.add(&a.mul(&k)).neg())
                .mul_by_cofactor()
                .is_identity()
        })
    }

    /// The cofactorless equation verification used before:
    /// `[S]B = R + [k]A`.
    fn verify_cofactorless(pk: &PublicKey, msg: &[u8], sig: &Signature) -> bool {
        decoded(pk, msg, sig)
            .is_some_and(|(s, a, r, k)| Point::base_mul(&s).eq_point(&r.add(&a.mul(&k))))
    }

    #[test]
    fn a_torsioned_r_is_accepted_now_and_the_batch_agrees() {
        let kp = Keypair::from_seed([12; 32]);
        let msg = b"nonce with an order-8 component";
        let (pk, sig) = tamper::signature(
            tamper::TORSIONED_R,
            &kp,
            msg,
            &mut rand::rngs::mock::StepRng::new(3, 7),
        );
        assert!(!verify_cofactorless(&pk, msg, &sig), "rejected before");
        assert!(pk.verify(msg, &sig), "accepted now");
        let honest = kp.sign(b"plain");
        let key = VerifyingKey::new(pk);
        assert!(verify_batch(&[
            (&key, msg, &sig),
            (&key, b"plain", &honest)
        ]));
        assert!(verify_batch(&[(&key, msg, &sig)]));
        // Not a third party's malleation: the same torsion added to an
        // honest signature's R changes k, so S no longer fits.
        let mut moved = honest;
        let r = Point::decompress(&honest.0[..32].try_into().unwrap()).unwrap();
        moved.0[..32].copy_from_slice(&r.add(&tamper::order8()).compress());
        assert!(!pk.verify(b"plain", &moved));
        assert!(!verify_batch(&[
            (&key, b"plain", &moved),
            (&key, msg, &sig)
        ]));
    }

    #[test]
    fn empty_and_full_batches() {
        assert!(verify_batch(&[]));
        let kps: Vec<Keypair> = (0..MAX_BATCH as u8)
            .map(|i| Keypair::from_seed([i; 32]))
            .collect();
        let keys: Vec<VerifyingKey> = kps
            .iter()
            .map(|kp| VerifyingKey::new(kp.public()))
            .collect();
        let sigs: Vec<Signature> = kps.iter().map(|kp| kp.sign(b"full batch")).collect();
        let mut items: Vec<(&VerifyingKey, &[u8], &Signature)> = keys
            .iter()
            .zip(&sigs)
            .map(|(k, s)| (k, &b"full batch"[..], s))
            .collect();
        assert!(verify_batch(&items));
        // The last signer's signature under the first signer's key.
        items[0].0 = &keys[MAX_BATCH - 1];
        assert!(!verify_batch(&items));
    }

    /// `cases` random keys and messages, each signed in every
    /// [`tamper`] shape: the single check against [`verify_reference`]
    /// (and the shapes where [`verify_cofactorless`] said otherwise), and
    /// random batches of the recent ones against the conjunction of
    /// their single verdicts.
    fn differential_verify_sweep(cases: usize, seed: u64) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let mut rng = SmallRng::seed_from_u64(seed);
        let mut pool: std::collections::VecDeque<(VerifyingKey, Vec<u8>, Signature, bool)> =
            std::collections::VecDeque::new();
        let (mut accepted, mut checked, mut batches_passed) = (0, 0, 0);
        for case in 0..cases {
            let kp = Keypair::from_seed(rng.gen());
            let len = rng.gen_range(1..80usize);
            let msg: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            for shape in 0..tamper::SHAPES {
                let (pk, sig) = tamper::signature(shape, &kp, &msg, &mut rng);
                let got = pk.verify(&msg, &sig);
                let key = VerifyingKey::new(pk);
                let at = format!("case {case}, shape {shape}");
                assert_eq!(got, verify_reference(&pk, &msg, &sig), "{at}");
                assert_eq!(got, key.verify(&msg, &sig), "{at}");
                assert_eq!(got, tamper::VALID.contains(&shape), "{at}");
                let before = verify_cofactorless(&pk, &msg, &sig);
                match shape {
                    // Under the order-2 key the old equation held exactly
                    // when k was even; the cofactored one holds for all k.
                    tamper::TORSIONED_KEY => {
                        let (_, _, _, k) = decoded(&pk, &msg, &sig).unwrap();
                        assert_eq!(before, k.0[0] % 2 == 0, "{at}");
                    }
                    tamper::TORSIONED_R => assert!(!before, "{at}"),
                    _ => assert_eq!(before, got, "{at}"),
                }
                accepted += got as usize;
                checked += 1;
                pool.push_back((key, msg.clone(), sig, got));
                if pool.len() > 4 * tamper::SHAPES {
                    pool.pop_front();
                }
            }
            // Batches mostly of valid signatures (so that some pass),
            // half of them with one random signature swapped in.
            let valid: Vec<usize> = (0..pool.len()).filter(|&i| pool[i].3).collect();
            for _ in 0..4 {
                let size = rng.gen_range(1..=MAX_BATCH);
                let mut picks: Vec<usize> = (0..size)
                    .map(|_| valid[rng.gen_range(0..valid.len())])
                    .collect();
                if rng.gen_bool(0.5) {
                    picks[rng.gen_range(0..size)] = rng.gen_range(0..pool.len());
                }
                let items: Vec<(&VerifyingKey, &[u8], &Signature)> = picks
                    .iter()
                    .map(|&i| (&pool[i].0, pool[i].1.as_slice(), &pool[i].2))
                    .collect();
                let all = picks.iter().all(|&i| pool[i].3);
                assert_eq!(verify_batch(&items), all, "case {case}, batch {picks:?}");
                batches_passed += all as usize;
            }
        }
        assert_eq!(
            accepted,
            tamper::VALID.len() * cases,
            "{accepted} of {checked}"
        );
        assert!(batches_passed > cases, "{batches_passed} passing batches");
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

/// Signature shapes shared by this module's and the key store's
/// differential tests: the issued one, one-bit and encoding forgeries,
/// and the small-order cases where the cofactored and cofactorless
/// equations part ways.
#[cfg(test)]
pub(crate) mod tamper {
    use super::*;
    use rand::Rng;

    /// How many shapes [`signature`] makes.
    pub const SHAPES: usize = 11;
    /// A key with an order-2 component, properly signed for.
    pub const TORSIONED_KEY: usize = 7;
    /// A nonce point with an order-8 component, properly signed for.
    pub const TORSIONED_R: usize = 8;
    /// The shapes that verify.
    pub const VALID: [usize; 3] = [0, TORSIONED_KEY, TORSIONED_R];

    /// `R ‖ S` for nonce `r` announced as `r_enc`, signed by `kp`'s
    /// secret scalar for the claimed key `pk`.
    pub fn sign_with(
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

    /// y = p + 1: the identity, encoded non-canonically.
    pub fn p_plus_1() -> [u8; 32] {
        let mut enc = [0xff; 32];
        enc[0] = 0xee;
        enc[31] = 0x7f;
        enc
    }

    /// (0, −1), of order 2, encoded as y = p − 1.
    pub fn order2() -> Point {
        let mut minus_one = [0xff; 32];
        minus_one[0] = 0xec;
        minus_one[31] = 0x7f;
        Point::decompress(&minus_one).expect("(0, -1) is on the curve")
    }

    /// A point of order 8: `[L]P` has order dividing 8 for every curve
    /// point `P`; the first `P` probed whose `[L]P` is not killed by 4.
    pub fn order8() -> Point {
        (0u8..)
            .filter_map(|b| Point::decompress(&[b; 32]))
            .map(|p| p.mul(&Scalar(scalar::L)))
            .find(|t| !t.double().double().is_identity())
            .expect("some curve point has a component of order 8")
    }

    fn flip<R: Rng>(bytes: &mut [u8], rng: &mut R) {
        let bit = rng.gen_range(0..bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
    }

    /// `kp`'s claim on `msg` in shape `shape` (< [`SHAPES`]): the key it
    /// is checked under and the signature.
    pub fn signature<R: Rng>(
        shape: usize,
        kp: &Keypair,
        msg: &[u8],
        rng: &mut R,
    ) -> (PublicKey, Signature) {
        let mut pk = kp.public();
        let mut sig = kp.sign(msg);
        match shape {
            0 => {}
            // One bit flipped in R, in S, in A.
            1 => flip(&mut sig.0[..32], rng),
            2 => flip(&mut sig.0[32..], rng),
            3 => flip(&mut pk.0, rng),
            // Signed over another message.
            4 => {
                let mut other = msg.to_vec();
                flip(&mut other, rng);
                sig = kp.sign(&other);
            }
            // S + L (S < L < 2²⁵³, so the sum fits 256 bits), and S = L.
            5 => {
                let mut carry = 0u128;
                for (i, l) in scalar::L.iter().enumerate() {
                    let limb = &mut sig.0[32 + i * 8..40 + i * 8];
                    let t = u64::from_le_bytes((&*limb).try_into().unwrap()) as u128
                        + *l as u128
                        + carry;
                    limb.copy_from_slice(&(t as u64).to_le_bytes());
                    carry = t >> 64;
                }
            }
            6 => sig.0[32..].copy_from_slice(&Scalar(scalar::L).to_bytes()),
            TORSIONED_KEY => {
                pk = PublicKey(Point::decompress(&pk.0).unwrap().add(&order2()).compress());
                let r = Scalar::from_bytes_wide(&rng.gen());
                sig = sign_with(kp, &pk, r, Point::base_mul(&r).compress(), msg);
            }
            TORSIONED_R => {
                let r = Scalar::from_bytes_wide(&rng.gen());
                let r_enc = Point::base_mul(&r).add(&order8()).compress();
                sig = sign_with(kp, &pk, r, r_enc, msg);
            }
            // A non-canonical R, otherwise a valid signature.
            9 => sig = sign_with(kp, &pk, Scalar::ZERO, p_plus_1(), msg),
            // A non-canonical key.
            10 => pk = PublicKey(p_plus_1()),
            _ => panic!("no signature shape {shape}"),
        }
        (pk, sig)
    }
}
