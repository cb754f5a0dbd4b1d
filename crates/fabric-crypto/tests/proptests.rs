//! Property-based tests for the cryptographic substrate.

use fabric_crypto::bigint::{U256, U512};
use fabric_crypto::curve::{p256, AffinePoint, JacobianPoint};
use fabric_crypto::der::{decode_signature, encode_signature};
use fabric_crypto::ecdsa::{Signature, SigningKey};
use fabric_crypto::mont::MontgomeryDomain;
use fabric_crypto::sha256::{sha256, Sha256};
use proptest::prelude::*;

fn arb_u256() -> impl Strategy<Value = U256> {
    any::<[u64; 4]>().prop_map(U256)
}

/// A scalar guaranteed to be a valid, nonzero value mod n.
fn arb_scalar() -> impl Strategy<Value = U256> {
    arb_u256().prop_map(|v| {
        let n = p256().order;
        let r = v.rem(&n);
        if r.is_zero() {
            U256::ONE
        } else {
            r
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn u256_add_commutes(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(a.wrapping_add(&b), b.wrapping_add(&a));
    }

    #[test]
    fn u256_add_sub_inverse(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(a.wrapping_add(&b).wrapping_sub(&b), a);
    }

    #[test]
    fn u256_be_bytes_roundtrip(a in arb_u256()) {
        prop_assert_eq!(U256::from_be_bytes(&a.to_be_bytes()), a);
    }

    #[test]
    fn u256_hex_roundtrip(a in arb_u256()) {
        prop_assert_eq!(U256::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn u256_mul_commutes(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(a.widening_mul(&b).0, b.widening_mul(&a).0);
    }

    #[test]
    fn u512_rem_is_canonical(a in any::<[u64; 8]>(), m in arb_u256()) {
        prop_assume!(!m.is_zero());
        let r = U512(a).rem(&m);
        prop_assert!(r < m);
    }

    #[test]
    fn field_mul_matches_schoolbook(a in arb_u256(), b in arb_u256()) {
        let dom = &p256().fp;
        let m = *dom.modulus();
        let ar = a.rem(&m);
        let br = b.rem(&m);
        let got = dom.mul(&ar, &br);
        let expect = ar.widening_mul(&br).rem(&m);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn solinas_reduction_matches_long_division(limbs in any::<[u64; 8]>()) {
        let wide = U512(limbs);
        prop_assert_eq!(
            fabric_crypto::fp256::reduce_wide(&wide),
            wide.rem(&fabric_crypto::fp256::Fp256::P)
        );
    }

    #[test]
    fn scalar_inverse_is_inverse(a in arb_scalar()) {
        let dom = &p256().fn_;
        let inv = dom.inv_prime(&a).unwrap();
        prop_assert_eq!(dom.mul(&a, &inv), U256::ONE);
    }

    #[test]
    fn generic_domain_roundtrip(mut m in arb_u256(), x in arb_u256()) {
        m.0[0] |= 1; // force odd
        prop_assume!(m > U256::ONE);
        let dom = MontgomeryDomain::new(m);
        let xr = x.rem(&m);
        prop_assert_eq!(dom.from_mont(&dom.to_mont(&xr)), xr);
    }

    #[test]
    fn scalar_mul_distributes_over_addition(k1 in 1u64..1000, k2 in 1u64..1000) {
        let g = AffinePoint::generator().to_jacobian();
        let lhs = g.mul_scalar(&U256::from_u64(k1 + k2)).to_affine();
        let rhs = g
            .mul_scalar(&U256::from_u64(k1))
            .add(&g.mul_scalar(&U256::from_u64(k2)))
            .to_affine();
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn scalar_mul_stays_on_curve(k in arb_scalar()) {
        let p = AffinePoint::generator().mul_scalar(&k);
        prop_assert!(p.is_on_curve());
    }

    #[test]
    fn shamir_matches_naive(u1 in arb_scalar(), u2 in arb_scalar(), q in 2u64..500) {
        let g = AffinePoint::generator().to_jacobian();
        let qp = g.mul_scalar(&U256::from_u64(q));
        let fast = JacobianPoint::shamir(&u1, &g, &u2, &qp).to_affine();
        let slow = g.mul_scalar(&u1).add(&qp.mul_scalar(&u2)).to_affine();
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn sha256_streaming_matches_oneshot(data in proptest::collection::vec(any::<u8>(), 0..2048), split in 0usize..2048) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn ecdsa_roundtrip(seed in any::<[u8; 16]>(), msg in proptest::collection::vec(any::<u8>(), 0..256)) {
        let key = SigningKey::from_seed(&seed);
        let sig = key.sign(&msg);
        prop_assert!(key.verifying_key().verify(&msg, &sig).is_ok());
    }

    #[test]
    fn ecdsa_rejects_bit_flips(seed in any::<[u8; 16]>(), msg in proptest::collection::vec(any::<u8>(), 1..128), flip in 0usize..1024) {
        let key = SigningKey::from_seed(&seed);
        let sig = key.sign(&msg);
        let mut tampered = msg.clone();
        let idx = flip % tampered.len();
        tampered[idx] ^= 1 << (flip % 8);
        prop_assert!(key.verifying_key().verify(&tampered, &sig).is_err());
    }

    #[test]
    fn fixed_base_comb_matches_windowed_mul(k in arb_scalar()) {
        let g = AffinePoint::generator().to_jacobian();
        prop_assert_eq!(
            fabric_crypto::curve::mul_fixed_base(&k).to_affine(),
            g.mul_scalar(&k).to_affine()
        );
    }

    #[test]
    fn wnaf_matches_windowed_mul(k in arb_scalar(), q in 2u64..100_000) {
        let base = AffinePoint::generator().to_jacobian().mul_scalar(&U256::from_u64(q));
        prop_assert_eq!(
            base.mul_scalar_wnaf(&k).to_affine(),
            base.mul_scalar(&k).to_affine()
        );
    }

    #[test]
    fn batch_inversion_matches_individual(values in proptest::collection::vec(arb_u256(), 1..24)) {
        // Mix of arbitrary residues including zeros (arb_u256 hits zero
        // via its edge bias; force one in as well).
        let dom = &p256().fn_;
        let m = *dom.modulus();
        let mut residues: Vec<U256> = values.iter().map(|v| v.rem(&m)).collect();
        residues.push(U256::ZERO);
        let originals = residues.clone();
        let mask = dom.batch_inv(&mut residues);
        for i in 0..originals.len() {
            if originals[i].is_zero() {
                prop_assert!(!mask[i]);
                prop_assert!(residues[i].is_zero());
            } else {
                prop_assert!(mask[i]);
                prop_assert_eq!(Some(residues[i]), dom.inv_prime(&originals[i]));
            }
        }
    }

    #[test]
    fn euclid_inverse_matches_fermat(a in arb_scalar()) {
        let dom = &p256().fn_;
        prop_assert_eq!(dom.inv(&a), dom.inv_prime(&a));
    }

    #[test]
    fn barrett_scalar_reduction_matches_long_division(limbs in any::<[u64; 8]>()) {
        let wide = U512(limbs);
        prop_assert_eq!(
            fabric_crypto::fq256::reduce_wide_scalar(&wide),
            wide.rem(&fabric_crypto::fq256::Fq256::N)
        );
    }

    #[test]
    fn dedicated_squaring_matches_mul(a in arb_u256()) {
        prop_assert_eq!(a.widening_sqr().0, a.widening_mul(&a).0);
    }

    #[test]
    fn reduce_once_matches_rem_for_digests(bytes in any::<[u8; 32]>()) {
        // Any 256-bit value is < 2n for the P-256 order.
        let n = p256().order;
        let v = U256::from_be_bytes(&bytes);
        prop_assert_eq!(v.reduce_once(&n), v.rem(&n));
    }

    #[test]
    fn verify_paths_agree(seed in any::<[u8; 16]>(), msg in proptest::collection::vec(any::<u8>(), 0..128), corrupt in any::<bool>(), flip in 0u8..255) {
        let key = SigningKey::from_seed(&seed);
        let digest = sha256(&msg);
        let mut sig = key.sign_prehashed(&digest);
        if corrupt {
            // Bit-flip somewhere in (r, s).
            let mut raw = sig.to_raw_bytes();
            raw[(flip as usize) % 64] ^= 1 << (flip % 8);
            match Signature::from_raw_bytes(&raw) {
                Ok(s) => sig = s,
                Err(_) => return Ok(()), // out-of-range: both paths reject by range check
            }
        }
        let vk = key.verifying_key();
        prop_assert_eq!(
            vk.verify_prehashed(&digest, &sig).is_ok(),
            vk.verify_prehashed_shamir(&digest, &sig).is_ok()
        );
    }

    #[test]
    fn batch_sinv_matches_single(count in 1usize..8, seed in any::<[u8; 16]>()) {
        let keys: Vec<SigningKey> = (0..count)
            .map(|i| {
                let mut s = seed.to_vec();
                s.push(i as u8);
                SigningKey::from_seed(&s)
            })
            .collect();
        let digests: Vec<[u8; 32]> = (0..count).map(|i| sha256(&[i as u8])).collect();
        let sigs: Vec<_> = keys.iter().zip(&digests).map(|(k, d)| k.sign_prehashed(d)).collect();
        let sinvs = fabric_crypto::ecdsa::batch_s_inverses(&sigs);
        for i in 0..count {
            prop_assert!(keys[i]
                .verifying_key()
                .verify_prehashed_with_sinv(&digests[i], &sigs[i], &sinvs[i])
                .is_ok());
        }
    }

    #[test]
    fn der_roundtrip(r in arb_scalar(), s in arb_scalar()) {
        let sig = Signature { r, s };
        let der = encode_signature(&sig);
        prop_assert_eq!(decode_signature(&der).unwrap(), sig);
    }

    #[test]
    fn der_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..80)) {
        let _ = decode_signature(&bytes);
    }
}
