//! ECDSA over P-256 with SHA-256 digests and RFC 6979 deterministic nonces.
//!
//! This is Fabric's default signature scheme (paper §2.1.1): clients sign
//! transaction proposals, endorser peers sign endorsements, and the orderer
//! signs blocks. On the validator, verification of these signatures is the
//! single most expensive operation (~40% of total time in the paper's
//! Figure 3a) and the reason the Blockchain Machine dedicates pipelined
//! `ecdsa_engine` instances to it.
//!
//! # The verification hot path
//!
//! [`VerifyingKey::verify_prehashed`] runs an optimized pipeline that
//! mirrors what the paper's hardware gets from parallel `ecdsa_engine`
//! units — minimal redundant work per signature:
//!
//! * `u1·G` uses the process-wide precomputed fixed-base comb table
//!   ([`crate::curve::mul_fixed_base`]): ≤31 mixed additions, no
//!   doublings;
//! * `u2·Q` uses a lazily built *per-key* table (wNAF odd multiples of
//!   `Q` and of `2^128·Q`, affine) so the double-scalar half needs only
//!   ~128 shared doublings and ~42 mixed additions — endorser keys
//!   repeat across every block, so the table amortizes immediately;
//! * `s⁻¹ mod n` uses binary-Euclid inversion in the Barrett-folded
//!   scalar field ([`crate::fq256`]), or is amortized across a whole
//!   block with
//!   [`batch_s_inverses`] (Montgomery's trick: one inversion per block)
//!   and [`VerifyingKey::verify_prehashed_with_sinv`];
//! * the final `x(R) ≡ r (mod n)` comparison happens in projective
//!   coordinates ([`JacobianPoint::eq_x_mod_order`]), eliminating the
//!   second field inversion entirely.
//!
//! The seed implementation (bit-serial Shamir ladder + two Fermat
//! inversions) is preserved as [`VerifyingKey::verify_prehashed_shamir`];
//! randomized tests cross-check the two paths agree and the
//! `bench_validation` harness reports the before/after ratio.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::bigint::{U256, U512};
use crate::curve::{mul_fixed_base, p256, wnaf_digits, AffinePoint, JacobianPoint, PointError};
use crate::sha256::{hmac_sha256, sha256};

/// An ECDSA P-256 private key.
#[derive(Clone)]
pub struct SigningKey {
    d: U256,
    public: VerifyingKey,
}

/// An ECDSA P-256 public key.
///
/// Cloning is cheap and clones *share* the lazily built verification
/// table, so the natural pattern — parse a certificate once, verify many
/// endorsements against it — pays the precomputation once per key.
#[derive(Clone)]
pub struct VerifyingKey {
    point: AffinePoint,
    /// Lazily built per-key acceleration table; identity semantics
    /// (`PartialEq`, `Debug`, serialization) ignore it.
    precomp: Arc<OnceLock<KeyPrecomp>>,
}

impl PartialEq for VerifyingKey {
    fn eq(&self, other: &Self) -> bool {
        self.point == other.point
    }
}

impl Eq for VerifyingKey {}

/// Per-key precomputation for the `u2·Q` half of verification: width-5
/// wNAF odd multiples `{1,3,..,15}·B` for both `B = Q` and
/// `B = 2^128·Q`, normalized to affine with one batched inversion.
/// Splitting `u2 = u2_hi·2^128 + u2_lo` halves the doubling count of
/// the Strauss ladder from 256 to 128.
struct KeyPrecomp {
    lo: Vec<AffinePoint>,
    hi: Vec<AffinePoint>,
}

impl KeyPrecomp {
    const WINDOW: u32 = 5;
    const TABLE_LEN: usize = 1 << (Self::WINDOW - 2);

    fn build(q: &AffinePoint) -> Self {
        let base_lo = q.to_jacobian();
        let mut base_hi = base_lo;
        for _ in 0..128 {
            base_hi = base_hi.double();
        }
        let mut jac = Vec::with_capacity(2 * Self::TABLE_LEN);
        for base in [base_lo, base_hi] {
            let twice = base.double();
            let mut acc = base;
            for _ in 0..Self::TABLE_LEN {
                jac.push(acc);
                acc = acc.add(&twice);
            }
        }
        let affine = JacobianPoint::batch_to_affine(&jac);
        let (lo, hi) = affine.split_at(Self::TABLE_LEN);
        KeyPrecomp {
            lo: lo.to_vec(),
            hi: hi.to_vec(),
        }
    }

    /// `k·Q` via the split table: wNAF digits of the two 128-bit halves
    /// walk one shared doubling ladder.
    fn mul(&self, k: &U256) -> JacobianPoint {
        let k_lo = U256([k.0[0], k.0[1], 0, 0]);
        let k_hi = U256([k.0[2], k.0[3], 0, 0]);
        let d_lo = wnaf_digits(&k_lo, Self::WINDOW);
        let d_hi = wnaf_digits(&k_hi, Self::WINDOW);
        let f = &p256().fp;
        let mut acc = JacobianPoint::identity();
        for i in (0..d_lo.len().max(d_hi.len())).rev() {
            acc = acc.double();
            for (digits, table) in [(&d_lo, &self.lo), (&d_hi, &self.hi)] {
                let d = digits.get(i).copied().unwrap_or(0);
                if d > 0 {
                    acc = acc.add_mixed(&table[(d as usize) / 2]);
                } else if d < 0 {
                    let p = &table[(-d as usize) / 2];
                    let neg = AffinePoint {
                        x: p.x,
                        y: f.neg(&p.y),
                        infinity: p.infinity,
                    };
                    acc = acc.add_mixed(&neg);
                }
            }
        }
        acc
    }
}

/// An ECDSA signature as the raw `(r, s)` scalar pair.
///
/// Fabric transmits signatures DER-encoded (see [`crate::der`]); the
/// hardware's `DataProcessor` decodes DER into exactly this fixed-width
/// form before feeding the `ecdsa_engine` (paper §3.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature {
    /// The `r` component, `1 <= r < n`.
    pub r: U256,
    /// The `s` component, `1 <= s < n`.
    pub s: U256,
}

impl SigningKey {
    /// Creates a key from a raw scalar.
    ///
    /// # Errors
    ///
    /// Returns [`EcdsaError::InvalidScalar`] when `d == 0` or `d >= n`.
    pub fn from_scalar(d: U256) -> Result<Self, EcdsaError> {
        let n = &p256().order;
        if d.is_zero() || &d >= n {
            return Err(EcdsaError::InvalidScalar);
        }
        let point = mul_fixed_base(&d).to_affine();
        Ok(SigningKey {
            d,
            public: VerifyingKey::new(point),
        })
    }

    /// Creates a key from 32 big-endian bytes.
    ///
    /// # Errors
    ///
    /// Same as [`SigningKey::from_scalar`].
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Result<Self, EcdsaError> {
        Self::from_scalar(U256::from_be_bytes(bytes))
    }

    /// Generates a key from an RNG.
    pub fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        loop {
            let mut bytes = [0u8; 32];
            rng.fill(&mut bytes[..]);
            if let Ok(k) = Self::from_be_bytes(&bytes) {
                return k;
            }
        }
    }

    /// Derives a key deterministically from a seed label. Handy for
    /// reproducible test networks: the same `(org, role, index)` always
    /// yields the same identity.
    pub fn from_seed(seed: &[u8]) -> Self {
        let mut counter = 0u32;
        loop {
            let mut material = seed.to_vec();
            material.extend_from_slice(&counter.to_be_bytes());
            let digest = sha256(&material);
            if let Ok(k) = Self::from_be_bytes(&digest) {
                return k;
            }
            counter += 1;
        }
    }

    /// The corresponding public key.
    pub fn verifying_key(&self) -> &VerifyingKey {
        &self.public
    }

    /// The raw private scalar as big-endian bytes.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        self.d.to_be_bytes()
    }

    /// Signs `message`, hashing it with SHA-256 first.
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.sign_prehashed(&sha256(message))
    }

    /// Signs a precomputed 32-byte digest using the RFC 6979 deterministic
    /// nonce, so signing needs no RNG and is reproducible across runs.
    ///
    /// `k·G` runs on the precomputed fixed-base comb table (no
    /// doublings) and `k⁻¹` on binary-Euclid inversion, making signing
    /// several times faster than the seed's windowed ladder + Fermat
    /// exponentiation while producing bit-identical signatures.
    pub fn sign_prehashed(&self, digest: &[u8; 32]) -> Signature {
        let c = p256();
        let n = &c.order;
        let z = bits2int(digest, n);
        let mut nonce = Rfc6979::new(&self.d.to_be_bytes(), digest);
        loop {
            let k = nonce.next_candidate();
            if k.is_zero() || &k >= n {
                continue;
            }
            let point = mul_fixed_base(&k).to_affine();
            let r = point.x.reduce_once(n);
            if r.is_zero() {
                continue;
            }
            // s = k^-1 (z + r d) mod n
            let fd = &c.fn_;
            let kinv = fd.inv(&k).expect("k nonzero");
            let sum = fd.add(&z, &fd.mul(&r, &self.d));
            let s = fd.mul(&kinv, &sum);
            if s.is_zero() {
                continue;
            }
            return Signature { r, s };
        }
    }
}

impl fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the private scalar.
        write!(f, "SigningKey(public={:?})", self.public)
    }
}

/// Process-wide registry sharing one precomp slot per distinct public
/// key, so re-parsing the same certificate (every block decode does)
/// reuses the table built on first verification instead of rebuilding
/// it. Bounded: once full, new keys simply get private (unshared) slots.
fn shared_precomp_slot(point: &AffinePoint) -> Arc<OnceLock<KeyPrecomp>> {
    type Registry =
        parking_lot::Mutex<std::collections::HashMap<[u8; 64], Arc<OnceLock<KeyPrecomp>>>>;
    const REGISTRY_CAP: usize = 1024;
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    let registry = REGISTRY
        .get_or_init(|| parking_lot::Mutex::named("crypto.precomp_registry", Default::default()));
    let mut key = [0u8; 64];
    key[..32].copy_from_slice(&point.x_bytes());
    key[32..].copy_from_slice(&point.y_bytes());
    let mut map = registry.lock();
    if let Some(slot) = map.get(&key) {
        return Arc::clone(slot);
    }
    let slot = Arc::new(OnceLock::new());
    if map.len() < REGISTRY_CAP {
        map.insert(key, Arc::clone(&slot));
    }
    slot
}

impl VerifyingKey {
    fn new(point: AffinePoint) -> Self {
        if point.infinity {
            return VerifyingKey {
                point,
                precomp: Arc::new(OnceLock::new()),
            };
        }
        VerifyingKey {
            point,
            precomp: shared_precomp_slot(&point),
        }
    }

    /// Wraps an existing curve point.
    ///
    /// # Errors
    ///
    /// Returns [`EcdsaError::InvalidPoint`] for the identity point.
    pub fn from_point(point: AffinePoint) -> Result<Self, EcdsaError> {
        if point.infinity {
            return Err(EcdsaError::InvalidPoint(PointError::NotOnCurve));
        }
        Ok(VerifyingKey::new(point))
    }

    /// Parses an uncompressed SEC1 encoding (65 bytes, `04 || X || Y`).
    ///
    /// # Errors
    ///
    /// Returns [`EcdsaError::InvalidPoint`] when decoding fails.
    pub fn from_sec1_bytes(bytes: &[u8]) -> Result<Self, EcdsaError> {
        let point = AffinePoint::from_sec1_bytes(bytes).map_err(EcdsaError::InvalidPoint)?;
        Self::from_point(point)
    }

    /// Serializes to uncompressed SEC1 (65 bytes).
    pub fn to_sec1_bytes(&self) -> [u8; 65] {
        self.point.to_sec1_bytes()
    }

    /// The underlying curve point.
    pub fn point(&self) -> &AffinePoint {
        &self.point
    }

    /// Verifies `signature` over `message` (SHA-256 hashed internally).
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), EcdsaError> {
        self.verify_prehashed(&sha256(message), signature)
    }

    /// Verifies against a precomputed digest. This is the operation the
    /// paper's `ecdsa_engine` implements: input `{signature, key, hash}`,
    /// output valid/invalid — and the hottest function in the whole
    /// validator (see the module docs for the optimization pipeline).
    ///
    /// # Errors
    ///
    /// Returns [`EcdsaError::InvalidSignature`] when the signature does not
    /// verify, or [`EcdsaError::InvalidScalar`] when `r`/`s` are out of
    /// range.
    pub fn verify_prehashed(&self, digest: &[u8; 32], sig: &Signature) -> Result<(), EcdsaError> {
        let c = p256();
        let n = &c.order;
        if sig.r.is_zero() || &sig.r >= n || sig.s.is_zero() || &sig.s >= n {
            return Err(EcdsaError::InvalidScalar);
        }
        let sinv = c.fn_.inv(&sig.s).expect("s nonzero");
        self.verify_prehashed_with_sinv(digest, sig, &sinv)
    }

    /// [`Self::verify_prehashed`] with the `s⁻¹ mod n` supplied by the
    /// caller — the entry point for *batched* verification, where
    /// [`batch_s_inverses`] amortizes every inversion in a block into
    /// one (Montgomery's trick), exactly as the tentpole hardware's
    /// shared modular-inverse unit would.
    ///
    /// # Errors
    ///
    /// As [`Self::verify_prehashed`]; an inconsistent `sinv` simply
    /// fails verification.
    pub fn verify_prehashed_with_sinv(
        &self,
        digest: &[u8; 32],
        sig: &Signature,
        sinv: &U256,
    ) -> Result<(), EcdsaError> {
        let c = p256();
        let n = &c.order;
        if sig.r.is_zero() || &sig.r >= n || sig.s.is_zero() || &sig.s >= n {
            return Err(EcdsaError::InvalidScalar);
        }
        let z = bits2int(digest, n);
        let u1 = c.fn_.mul(sinv, &z);
        let u2 = c.fn_.mul(sinv, &sig.r);
        let precomp = self.precomp.get_or_init(|| KeyPrecomp::build(&self.point));
        let rp = mul_fixed_base(&u1).add(&precomp.mul(&u2));
        if rp.eq_x_mod_order(&sig.r) {
            Ok(())
        } else {
            Err(EcdsaError::InvalidSignature)
        }
    }

    /// The seed implementation of verification — bit-serial Shamir
    /// double-scalar ladder, Fermat inversions, long-division
    /// reductions — kept verbatim as the reference path. Randomized
    /// tests assert it agrees with [`Self::verify_prehashed`], and the
    /// validation benchmark reports the speedup of the new path against
    /// this one.
    ///
    /// # Errors
    ///
    /// As [`Self::verify_prehashed`].
    pub fn verify_prehashed_shamir(
        &self,
        digest: &[u8; 32],
        sig: &Signature,
    ) -> Result<(), EcdsaError> {
        let c = p256();
        let n = &c.order;
        if sig.r.is_zero() || &sig.r >= n || sig.s.is_zero() || &sig.s >= n {
            return Err(EcdsaError::InvalidScalar);
        }
        let z = U512::from_u256(&U256::from_be_bytes(digest)).rem(n);
        let fd = &c.fn_;
        let sinv = fd.inv_prime(&sig.s).expect("s nonzero");
        let u1 = fd.mul(&sinv, &z);
        let u2 = fd.mul(&sinv, &sig.r);
        let g = AffinePoint::generator().to_jacobian();
        let q = self.point.to_jacobian();
        let rp = JacobianPoint::shamir(&u1, &g, &u2, &q);
        if rp.is_identity() {
            return Err(EcdsaError::InvalidSignature);
        }
        let x = rp.to_affine().x.rem(n);
        if x == sig.r {
            Ok(())
        } else {
            Err(EcdsaError::InvalidSignature)
        }
    }
}

/// Computes `s⁻¹ mod n` for a whole block's worth of signatures with a
/// *single* modular inversion (Montgomery's trick) — the amortization
/// step of the batched verification pipeline. The result is positional:
/// `out[i]` feeds [`VerifyingKey::verify_prehashed_with_sinv`] for
/// `sigs[i]`. Out-of-range `s` values (zero or `≥ n`) yield a zero
/// entry, which downstream verification rejects as it would any wrong
/// inverse.
pub fn batch_s_inverses(sigs: &[Signature]) -> Vec<U256> {
    let c = p256();
    let n = &c.order;
    let mut values: Vec<U256> = sigs
        .iter()
        .map(|sig| if &sig.s >= n { U256::ZERO } else { sig.s })
        .collect();
    c.fn_.batch_inv(&mut values);
    values
}

impl fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VerifyingKey({:?})", self.point)
    }
}

impl Signature {
    /// Serializes as 64 raw bytes (`r || s`, big-endian).
    pub fn to_raw_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.r.to_be_bytes());
        out[32..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Parses the 64-byte raw form.
    ///
    /// # Errors
    ///
    /// Returns [`EcdsaError::InvalidScalar`] when either half is zero or
    /// `>= n`.
    pub fn from_raw_bytes(bytes: &[u8; 64]) -> Result<Self, EcdsaError> {
        let r = U256::from_be_bytes(&bytes[..32]);
        let s = U256::from_be_bytes(&bytes[32..]);
        let n = &p256().order;
        if r.is_zero() || &r >= n || s.is_zero() || &s >= n {
            return Err(EcdsaError::InvalidScalar);
        }
        Ok(Signature { r, s })
    }
}

/// RFC 6979 §2.3.2: convert a digest to an integer mod `n`. For P-256 with
/// SHA-256 both are 256 bits, so this is a plain reduction — and since
/// `n > 2^255`, any 256-bit digest is `< 2n` and one conditional
/// subtraction replaces the seed's 256-step long division.
fn bits2int(digest: &[u8; 32], n: &U256) -> U256 {
    U256::from_be_bytes(digest).reduce_once(n)
}

/// HMAC-DRBG nonce generator from RFC 6979 §3.2.
struct Rfc6979 {
    k: [u8; 32],
    v: [u8; 32],
}

impl Rfc6979 {
    fn new(x: &[u8; 32], digest: &[u8; 32]) -> Self {
        // h1 is reduced mod n per the RFC (bits2octets).
        let n = p256().order;
        let h_reduced = bits2int(digest, &n).to_be_bytes();
        let mut k = [0u8; 32];
        let mut v = [1u8; 32]; // V = 0x01 x 32
                               // K = HMAC_K(V || 0x00 || x || h1)
        let mut msg = Vec::with_capacity(32 + 1 + 32 + 32);
        msg.extend_from_slice(&v);
        msg.push(0x00);
        msg.extend_from_slice(x);
        msg.extend_from_slice(&h_reduced);
        k = hmac_sha256(&k, &msg);
        v = hmac_sha256(&k, &v);
        // K = HMAC_K(V || 0x01 || x || h1)
        let mut msg = Vec::with_capacity(32 + 1 + 32 + 32);
        msg.extend_from_slice(&v);
        msg.push(0x01);
        msg.extend_from_slice(x);
        msg.extend_from_slice(&h_reduced);
        k = hmac_sha256(&k, &msg);
        v = hmac_sha256(&k, &v);
        Rfc6979 { k, v }
    }

    fn next_candidate(&mut self) -> U256 {
        self.v = hmac_sha256(&self.k, &self.v);
        let candidate = U256::from_be_bytes(&self.v);
        // Prepare for a possible retry: K = HMAC_K(V || 0x00); V = HMAC_K(V)
        let mut msg = [0u8; 33];
        msg[..32].copy_from_slice(&self.v);
        self.k = hmac_sha256(&self.k, &msg);
        self.v = hmac_sha256(&self.k, &self.v);
        candidate
    }
}

/// Errors from key handling, signing and verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcdsaError {
    /// A scalar (`d`, `r`, or `s`) was zero or not below the group order.
    InvalidScalar,
    /// A public-key point failed to decode or validate.
    InvalidPoint(PointError),
    /// The signature did not verify against the key and digest.
    InvalidSignature,
}

impl fmt::Display for EcdsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcdsaError::InvalidScalar => write!(f, "scalar out of range for P-256"),
            EcdsaError::InvalidPoint(e) => write!(f, "invalid public key point: {e}"),
            EcdsaError::InvalidSignature => write!(f, "signature verification failed"),
        }
    }
}

impl std::error::Error for EcdsaError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex32(s: &str) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..32 {
            out[i] = u8::from_str_radix(&s[i * 2..i * 2 + 2], 16).unwrap();
        }
        out
    }

    /// RFC 6979 appendix A.2.5 key pair for P-256.
    fn rfc6979_key() -> SigningKey {
        SigningKey::from_be_bytes(&hex32(
            "c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721",
        ))
        .unwrap()
    }

    #[test]
    fn rfc6979_public_key_matches() {
        let k = rfc6979_key();
        assert_eq!(
            k.verifying_key().point().x_bytes(),
            hex32("60fed4ba255a9d31c961eb74c6356d68c049b8923b61fa6ce669622e60f29fb6")
        );
        assert_eq!(
            k.verifying_key().point().y_bytes(),
            hex32("7903fe1008b8bc99a41ae9e95628bc64f2f1b20c2d7e9f5177a3c294d4462299")
        );
    }

    #[test]
    fn rfc6979_vector_sample() {
        // message = "sample", SHA-256
        let sig = rfc6979_key().sign(b"sample");
        assert_eq!(
            sig.r.to_be_bytes(),
            hex32("efd48b2aacb6a8fd1140dd9cd45e81d69d2c877b56aaf991c34d0ea84eaf3716")
        );
        assert_eq!(
            sig.s.to_be_bytes(),
            hex32("f7cb1c942d657c41d436c7a1b6e29f65f3e900dbb9aff4064dc4ab2f843acda8")
        );
    }

    #[test]
    fn rfc6979_vector_test() {
        // message = "test", SHA-256
        let sig = rfc6979_key().sign(b"test");
        assert_eq!(
            sig.r.to_be_bytes(),
            hex32("f1abb023518351cd71d881567b1ea663ed3efcf6c5132b354f28d3b0b7d38367")
        );
        assert_eq!(
            sig.s.to_be_bytes(),
            hex32("019f4113742a2b14bd25926b49c649155f267e60d3814b4c0cc84250e46f0083")
        );
    }

    #[test]
    fn sign_verify_roundtrip() {
        let key = SigningKey::from_seed(b"roundtrip");
        let sig = key.sign(b"hello fabric");
        assert!(key.verifying_key().verify(b"hello fabric", &sig).is_ok());
    }

    #[test]
    fn tampered_message_fails() {
        let key = SigningKey::from_seed(b"tamper");
        let sig = key.sign(b"original");
        assert_eq!(
            key.verifying_key().verify(b"modified", &sig),
            Err(EcdsaError::InvalidSignature)
        );
    }

    #[test]
    fn tampered_signature_fails() {
        let key = SigningKey::from_seed(b"tamper2");
        let mut sig = key.sign(b"msg");
        sig.s = sig.s.wrapping_add(&U256::ONE);
        assert!(key.verifying_key().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn wrong_key_fails() {
        let key1 = SigningKey::from_seed(b"key1");
        let key2 = SigningKey::from_seed(b"key2");
        let sig = key1.sign(b"msg");
        assert!(key2.verifying_key().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn zero_scalar_rejected() {
        assert_eq!(
            SigningKey::from_scalar(U256::ZERO).unwrap_err(),
            EcdsaError::InvalidScalar
        );
        let n = p256().order;
        assert_eq!(
            SigningKey::from_scalar(n).unwrap_err(),
            EcdsaError::InvalidScalar
        );
    }

    #[test]
    fn out_of_range_signature_rejected() {
        let key = SigningKey::from_seed(b"range");
        let digest = sha256(b"msg");
        let bad = Signature {
            r: U256::ZERO,
            s: U256::ONE,
        };
        assert_eq!(
            key.verifying_key().verify_prehashed(&digest, &bad),
            Err(EcdsaError::InvalidScalar)
        );
    }

    #[test]
    fn raw_bytes_roundtrip() {
        let key = SigningKey::from_seed(b"raw");
        let sig = key.sign(b"data");
        let bytes = sig.to_raw_bytes();
        assert_eq!(Signature::from_raw_bytes(&bytes).unwrap(), sig);
    }

    #[test]
    fn seeded_keys_are_deterministic() {
        let a = SigningKey::from_seed(b"org1.peer0");
        let b = SigningKey::from_seed(b"org1.peer0");
        assert_eq!(a.to_be_bytes(), b.to_be_bytes());
        let c = SigningKey::from_seed(b"org1.peer1");
        assert_ne!(a.to_be_bytes(), c.to_be_bytes());
    }

    #[test]
    fn fast_and_shamir_paths_agree() {
        let key = SigningKey::from_seed(b"agree");
        let digest = sha256(b"payload");
        let sig = key.sign_prehashed(&digest);
        let vk = key.verifying_key();
        assert!(vk.verify_prehashed(&digest, &sig).is_ok());
        assert!(vk.verify_prehashed_shamir(&digest, &sig).is_ok());
        // Corruptions fail identically on both paths.
        let mut bad = sig;
        bad.r = bad.r.wrapping_add(&U256::ONE);
        assert_eq!(
            vk.verify_prehashed(&digest, &bad).is_ok(),
            vk.verify_prehashed_shamir(&digest, &bad).is_ok()
        );
        let other = sha256(b"other payload");
        assert_eq!(
            vk.verify_prehashed(&other, &sig).is_ok(),
            vk.verify_prehashed_shamir(&other, &sig).is_ok()
        );
    }

    #[test]
    fn batched_sinv_verification_matches() {
        let keys: Vec<SigningKey> = (0..5)
            .map(|i| SigningKey::from_seed(format!("batch{i}").as_bytes()))
            .collect();
        let digests: Vec<[u8; 32]> = (0..5)
            .map(|i| sha256(format!("msg{i}").as_bytes()))
            .collect();
        let sigs: Vec<Signature> = keys
            .iter()
            .zip(&digests)
            .map(|(k, d)| k.sign_prehashed(d))
            .collect();
        let sinvs = batch_s_inverses(&sigs);
        for i in 0..5 {
            assert!(keys[i]
                .verifying_key()
                .verify_prehashed_with_sinv(&digests[i], &sigs[i], &sinvs[i])
                .is_ok());
            // Wrong sinv (from a different signature) must fail.
            let wrong = sinvs[(i + 1) % 5];
            assert!(keys[i]
                .verifying_key()
                .verify_prehashed_with_sinv(&digests[i], &sigs[i], &wrong)
                .is_err());
        }
    }

    #[test]
    fn cloned_keys_share_precomp_and_agree() {
        let key = SigningKey::from_seed(b"clone");
        let digest = sha256(b"m");
        let sig = key.sign_prehashed(&digest);
        let vk1 = key.verifying_key().clone();
        let vk2 = vk1.clone();
        assert!(vk1.verify_prehashed(&digest, &sig).is_ok());
        assert!(vk2.verify_prehashed(&digest, &sig).is_ok());
        assert_eq!(vk1, vk2);
    }

    #[test]
    fn sec1_roundtrip_verifying_key() {
        let key = SigningKey::from_seed(b"sec1");
        let vk = key.verifying_key();
        let parsed = VerifyingKey::from_sec1_bytes(&vk.to_sec1_bytes()).unwrap();
        assert_eq!(*vk, parsed);
    }
}
