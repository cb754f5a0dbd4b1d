//! Differential test harness for the P-256 field backends.
//!
//! The convention this repo uses for every crypto fast path (see
//! `crates/fabric-crypto/README.md`): the optimized implementation is
//! pinned operation-by-operation against a preserved oracle on random,
//! boundary, and adversarial inputs — the same verify-both-ways
//! discipline Wycheproof-style suites apply to curve code.
//!
//! Two fast paths are cross-checked here, each against two independent
//! oracles (the generic Montgomery domain on the same modulus — the
//! seed implementation, still fully compiled — and plain 512-bit long
//! division from [`fabric_crypto::bigint`]):
//!
//! * the Solinas-form **base field** ([`fabric_crypto::fp256`], mod the
//!   prime `p`), introduced in PR 2;
//! * the Barrett-folded **scalar field** ([`fabric_crypto::fq256`], mod
//!   the group order `n`), introduced in PR 4 — same operations, biased
//!   toward near-`n` inputs where the quotient estimate saturates.
//!
//! Every comparison runs in-process: the fast fields are the only ones
//! the curve and ECDSA layers use, and the oracles are built here
//! directly. On top of the field layer, full ECDSA sign→verify
//! round-trips and the fast-vs-Shamir verification agreement run on
//! that one production wiring.

use fabric_crypto::bigint::{U256, U512};
use fabric_crypto::ecdsa::{Signature, SigningKey};
use fabric_crypto::fp256::{reduce_wide, Fp256};
use fabric_crypto::fq256::{reduce_wide_scalar, Fq256};
use fabric_crypto::mont::MontgomeryDomain;
use fabric_crypto::sha256::sha256;
use fabric_peer::SigCacheKey;
use proptest::prelude::*;
use std::sync::OnceLock;

/// The Montgomery oracle on the P-256 prime, built once.
fn oracle() -> &'static MontgomeryDomain {
    static ORACLE: OnceLock<MontgomeryDomain> = OnceLock::new();
    ORACLE.get_or_init(|| MontgomeryDomain::new(Fp256::P))
}

/// The Montgomery oracle on the P-256 group order, built once — the
/// baseline the Barrett scalar field is pinned against.
fn scalar_oracle() -> &'static MontgomeryDomain {
    static ORACLE: OnceLock<MontgomeryDomain> = OnceLock::new();
    ORACLE.get_or_init(|| MontgomeryDomain::new(Fq256::N))
}

/// Field elements biased toward the places Solinas folding can go
/// wrong: zero, one, `p − k`, small values, sparse limb patterns, and
/// uniform randoms.
fn arb_fe() -> impl Strategy<Value = U256> {
    prop_oneof![
        any::<[u64; 4]>().prop_map(|l| U256(l).rem(&Fp256::P)),
        Just(U256::ZERO),
        Just(U256::ONE),
        Just(Fp256::P.wrapping_sub(&U256::ONE)),
        Just(Fp256::P.wrapping_sub(&U256::from_u64(2))),
        (1u64..4096).prop_map(|k| Fp256::P.wrapping_sub(&U256::from_u64(k))),
        (0u64..4096).prop_map(U256::from_u64),
        // Single hot limb (exercises word-shuffle edge lanes).
        (0usize..4, any::<u64>()).prop_map(|(i, l)| {
            let mut v = U256::ZERO;
            v.0[i] = l;
            v.rem(&Fp256::P)
        }),
    ]
}

/// Arbitrary 512-bit values, with the all-ones and single-hot-limb
/// extremes mixed in.
fn arb_wide() -> impl Strategy<Value = U512> {
    prop_oneof![
        any::<[u64; 8]>().prop_map(U512),
        Just(U512([u64::MAX; 8])),
        (0usize..8, any::<u64>()).prop_map(|(i, l)| {
            let mut v = U512::default();
            v.0[i] = l;
            v
        }),
        Just(Fp256::P.widening_mul(&Fp256::P)),
    ]
}

/// `x` in the Montgomery oracle's result space mapped back to canonical.
fn via_oracle(f: impl Fn(&MontgomeryDomain, U256, U256) -> U256, a: &U256, b: &U256) -> U256 {
    let m = oracle();
    m.from_mont(&f(m, m.to_mont(a), m.to_mont(b)))
}

/// Scalar-field elements biased toward the places the Barrett quotient
/// estimate can go wrong: zero, one, `n − k`, small values, sparse limb
/// patterns, and uniform randoms (the mod-`n` mirror of [`arb_fe`]).
fn arb_se() -> impl Strategy<Value = U256> {
    prop_oneof![
        any::<[u64; 4]>().prop_map(|l| U256(l).rem(&Fq256::N)),
        Just(U256::ZERO),
        Just(U256::ONE),
        Just(Fq256::N.wrapping_sub(&U256::ONE)),
        Just(Fq256::N.wrapping_sub(&U256::from_u64(2))),
        (1u64..4096).prop_map(|k| Fq256::N.wrapping_sub(&U256::from_u64(k))),
        (0u64..4096).prop_map(U256::from_u64),
        // Single hot limb (exercises the carry lanes of the fold).
        (0usize..4, any::<u64>()).prop_map(|(i, l)| {
            let mut v = U256::ZERO;
            v.0[i] = l;
            v.rem(&Fq256::N)
        }),
    ]
}

/// `x` through the scalar Montgomery oracle, mapped back to canonical.
fn via_scalar_oracle(
    f: impl Fn(&MontgomeryDomain, U256, U256) -> U256,
    a: &U256,
    b: &U256,
) -> U256 {
    let m = scalar_oracle();
    m.from_mont(&f(m, m.to_mont(a), m.to_mont(b)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn solinas_mul_matches_montgomery(a in arb_fe(), b in arb_fe()) {
        let sol = Fp256.mul(&a, &b);
        let mon = via_oracle(|m, x, y| m.mul(&x, &y), &a, &b);
        prop_assert_eq!(sol, mon);
        // And against the long-division oracle, independently.
        prop_assert_eq!(sol, a.widening_mul(&b).rem(&Fp256::P));
    }

    #[test]
    fn solinas_sqr_matches_montgomery(a in arb_fe()) {
        let sol = Fp256.sqr(&a);
        let mon = via_oracle(|m, x, _| m.sqr(&x), &a, &a);
        prop_assert_eq!(sol, mon);
        prop_assert_eq!(Fp256.sqr(&a), Fp256.mul(&a, &a));
    }

    #[test]
    fn solinas_add_sub_neg_match_montgomery(a in arb_fe(), b in arb_fe()) {
        prop_assert_eq!(Fp256.add(&a, &b), via_oracle(|m, x, y| m.add(&x, &y), &a, &b));
        prop_assert_eq!(Fp256.sub(&a, &b), via_oracle(|m, x, y| m.sub(&x, &y), &a, &b));
        let m = oracle();
        prop_assert_eq!(Fp256.neg(&a), m.from_mont(&m.neg(&m.to_mont(&a))));
        // Algebra: a + (−a) = 0, a − b = a + (−b).
        prop_assert!(Fp256.add(&a, &Fp256.neg(&a)).is_zero());
        prop_assert_eq!(Fp256.sub(&a, &b), Fp256.add(&a, &Fp256.neg(&b)));
    }

    #[test]
    fn solinas_inverse_matches_montgomery(a in arb_fe()) {
        let m = oracle();
        let sol = Fp256.inv(&a);
        let mon = m.inv(&m.to_mont(&a)).map(|i| m.from_mont(&i));
        prop_assert_eq!(sol, mon);
        prop_assert_eq!(sol, Fp256.inv_prime(&a));
        prop_assert_eq!(sol, m.inv_prime(&m.to_mont(&a)).map(|i| m.from_mont(&i)));
        if let Some(inv) = sol {
            prop_assert_eq!(Fp256.mul(&a, &inv), U256::ONE);
        } else {
            prop_assert!(a.is_zero());
        }
    }

    #[test]
    fn solinas_batch_inverse_matches_individual(values in proptest::collection::vec(arb_fe(), 1..20)) {
        let mut batch = values.clone();
        let mask = Fp256.batch_inv(&mut batch);
        // The Montgomery reference's batch inversion, same inputs.
        let m = oracle();
        let mut mon_batch: Vec<U256> = values.iter().map(|v| m.to_mont(v)).collect();
        prop_assert_eq!(&m.batch_inv(&mut mon_batch), &mask);
        for (b, mb) in batch.iter().zip(&mon_batch) {
            prop_assert_eq!(*b, m.from_mont(mb));
        }
        for i in 0..values.len() {
            if values[i].is_zero() {
                prop_assert!(!mask[i]);
                prop_assert!(batch[i].is_zero());
            } else {
                prop_assert!(mask[i]);
                prop_assert_eq!(Some(batch[i]), Fp256.inv(&values[i]));
            }
        }
    }

    #[test]
    fn solinas_reduction_matches_long_division(c in arb_wide()) {
        prop_assert_eq!(reduce_wide(&c), c.rem(&Fp256::P));
    }

    #[test]
    fn solinas_pow_matches_montgomery(a in arb_fe(), e in any::<u64>()) {
        let e = U256::from_u64(e);
        let m = oracle();
        prop_assert_eq!(
            Fp256.pow(&a, &e),
            m.from_mont(&m.pow(&m.to_mont(&a), &e))
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn barrett_scalar_mul_matches_montgomery(a in arb_se(), b in arb_se()) {
        let bar = Fq256.mul(&a, &b);
        let mon = via_scalar_oracle(|m, x, y| m.mul(&x, &y), &a, &b);
        prop_assert_eq!(bar, mon);
        // And against the long-division oracle, independently.
        prop_assert_eq!(bar, a.widening_mul(&b).rem(&Fq256::N));
    }

    #[test]
    fn barrett_scalar_sqr_matches_montgomery(a in arb_se()) {
        let bar = Fq256.sqr(&a);
        let mon = via_scalar_oracle(|m, x, _| m.sqr(&x), &a, &a);
        prop_assert_eq!(bar, mon);
        prop_assert_eq!(Fq256.sqr(&a), Fq256.mul(&a, &a));
    }

    #[test]
    fn barrett_scalar_add_sub_neg_match_montgomery(a in arb_se(), b in arb_se()) {
        prop_assert_eq!(Fq256.add(&a, &b), via_scalar_oracle(|m, x, y| m.add(&x, &y), &a, &b));
        prop_assert_eq!(Fq256.sub(&a, &b), via_scalar_oracle(|m, x, y| m.sub(&x, &y), &a, &b));
        let m = scalar_oracle();
        prop_assert_eq!(Fq256.neg(&a), m.from_mont(&m.neg(&m.to_mont(&a))));
        prop_assert!(Fq256.add(&a, &Fq256.neg(&a)).is_zero());
        prop_assert_eq!(Fq256.sub(&a, &b), Fq256.add(&a, &Fq256.neg(&b)));
    }

    #[test]
    fn barrett_scalar_inverse_matches_montgomery(a in arb_se()) {
        let m = scalar_oracle();
        let bar = Fq256.inv(&a);
        let mon = m.inv(&m.to_mont(&a)).map(|i| m.from_mont(&i));
        prop_assert_eq!(bar, mon);
        prop_assert_eq!(bar, Fq256.inv_prime(&a));
        prop_assert_eq!(bar, m.inv_prime(&m.to_mont(&a)).map(|i| m.from_mont(&i)));
        if let Some(inv) = bar {
            prop_assert_eq!(Fq256.mul(&a, &inv), U256::ONE);
        } else {
            prop_assert!(a.is_zero());
        }
    }

    #[test]
    fn barrett_scalar_batch_inverse_matches_individual(values in proptest::collection::vec(arb_se(), 1..20)) {
        let mut batch = values.clone();
        let mask = Fq256.batch_inv(&mut batch);
        // The Montgomery reference's batch inversion, same inputs.
        let m = scalar_oracle();
        let mut mon_batch: Vec<U256> = values.iter().map(|v| m.to_mont(v)).collect();
        prop_assert_eq!(&m.batch_inv(&mut mon_batch), &mask);
        for (b, mb) in batch.iter().zip(&mon_batch) {
            prop_assert_eq!(*b, m.from_mont(mb));
        }
        for i in 0..values.len() {
            if values[i].is_zero() {
                prop_assert!(!mask[i]);
                prop_assert!(batch[i].is_zero());
            } else {
                prop_assert!(mask[i]);
                prop_assert_eq!(Some(batch[i]), Fq256.inv(&values[i]));
            }
        }
    }

    #[test]
    fn barrett_scalar_reduction_matches_long_division(c in arb_wide()) {
        prop_assert_eq!(reduce_wide_scalar(&c), c.rem(&Fq256::N));
    }

    #[test]
    fn barrett_scalar_pow_matches_montgomery(a in arb_se(), e in any::<u64>()) {
        let e = U256::from_u64(e);
        let m = scalar_oracle();
        prop_assert_eq!(
            Fq256.pow(&a, &e),
            m.from_mont(&m.pow(&m.to_mont(&a), &e))
        );
    }
}

proptest! {
    // ECDSA-level agreement is slower per case; fewer, fatter cases.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sign_verify_roundtrip_on_random_keys(seed in any::<[u8; 16]>(), msg in proptest::collection::vec(any::<u8>(), 0..256)) {
        let key = SigningKey::from_seed(&seed);
        let digest = sha256(&msg);
        let sig = key.sign_prehashed(&digest);
        let vk = key.verifying_key();
        prop_assert!(vk.verify_prehashed(&digest, &sig).is_ok());
        prop_assert!(vk.verify_prehashed_shamir(&digest, &sig).is_ok());
    }

    #[test]
    fn fast_and_shamir_verify_agree_under_corruption(
        seed in any::<[u8; 16]>(),
        msg in proptest::collection::vec(any::<u8>(), 1..128),
        corrupt_sig in any::<bool>(),
        corrupt_digest in any::<bool>(),
        flip in 0usize..512,
    ) {
        let key = SigningKey::from_seed(&seed);
        let mut digest = sha256(&msg);
        let mut sig = key.sign_prehashed(&digest);
        if corrupt_sig {
            let mut raw = sig.to_raw_bytes();
            raw[flip % 64] ^= 1 << (flip % 8);
            match Signature::from_raw_bytes(&raw) {
                Ok(s) => sig = s,
                Err(_) => return Ok(()), // out of range: rejected pre-curve on both paths
            }
        }
        if corrupt_digest {
            digest[flip % 32] ^= 1 << (flip % 8);
        }
        let vk = key.verifying_key();
        prop_assert_eq!(
            vk.verify_prehashed(&digest, &sig).is_ok(),
            vk.verify_prehashed_shamir(&digest, &sig).is_ok()
        );
    }

    /// The re-validation cache key is derived from *plain byte*
    /// encodings (SEC1 point, digest, raw `r‖s`), never from an
    /// internal field representation. Recompute it from first
    /// principles and compare.
    #[test]
    fn sig_cache_key_is_backend_independent(seed in any::<[u8; 16]>(), msg in proptest::collection::vec(any::<u8>(), 0..64)) {
        let key = SigningKey::from_seed(&seed);
        let digest = sha256(&msg);
        let sig = key.sign_prehashed(&digest);
        let vk = key.verifying_key();
        let cache_key = SigCacheKey::compute(vk, &digest, &sig);
        let mut material = Vec::new();
        material.extend_from_slice(&vk.to_sec1_bytes()); // 04 ‖ canonical x ‖ canonical y
        material.extend_from_slice(&digest);
        material.extend_from_slice(&sig.to_raw_bytes()); // canonical r ‖ s
        prop_assert_eq!(cache_key, SigCacheKey::from_bytes(sha256(&material)));
    }
}

/// Directed boundary sweep for the scalar field: the exact values where
/// the Barrett quotient estimate and its correction loop can be off by
/// one — `n ± k`, powers of two at every limb boundary, and their
/// pairwise products.
#[test]
fn scalar_boundary_matrix_matches_oracle() {
    let n = Fq256::N;
    let mut edge = vec![U256::ZERO, U256::ONE, U256::from_u64(2)];
    for k in 1u64..=64 {
        edge.push(n.wrapping_sub(&U256::from_u64(k)));
        edge.push(U256::from_u64(k));
    }
    // Powers of two walk every limb boundary.
    for i in 0..256 {
        let mut v = U256::ZERO;
        v.0[i / 64] = 1 << (i % 64);
        edge.push(v.rem(&n));
    }
    let m = scalar_oracle();
    for a in &edge {
        for b in &edge {
            let bar = Fq256.mul(a, b);
            let mon = m.from_mont(&m.mul(&m.to_mont(a), &m.to_mont(b)));
            assert_eq!(bar, mon, "mul mismatch at a={a:?} b={b:?}");
        }
        assert_eq!(
            Fq256.sqr(a),
            m.from_mont(&m.sqr(&m.to_mont(a))),
            "sqr mismatch at a={a:?}"
        );
    }
}

/// Directed boundary sweep kept outside proptest so every case always
/// runs: the exact values where the nine-term fold wraps.
#[test]
fn field_boundary_matrix_matches_oracle() {
    let p = Fp256::P;
    let mut edge = vec![U256::ZERO, U256::ONE, U256::from_u64(2)];
    for k in 1u64..=64 {
        edge.push(p.wrapping_sub(&U256::from_u64(k)));
        edge.push(U256::from_u64(k));
    }
    // Powers of two walk every limb boundary.
    for i in 0..256 {
        let mut v = U256::ZERO;
        v.0[i / 64] = 1 << (i % 64);
        edge.push(v.rem(&p));
    }
    let m = oracle();
    for a in &edge {
        for b in &edge {
            let sol = Fp256.mul(a, b);
            let mon = m.from_mont(&m.mul(&m.to_mont(a), &m.to_mont(b)));
            assert_eq!(sol, mon, "mul mismatch at a={a:?} b={b:?}");
        }
        assert_eq!(
            Fp256.sqr(a),
            m.from_mont(&m.sqr(&m.to_mont(a))),
            "sqr mismatch at a={a:?}"
        );
    }
}
