//! Wycheproof-style edge vectors for the ECDSA *scalar* arithmetic.
//!
//! The Barrett scalar domain (PR 4) changes how every mod-`n` quantity
//! in verification is computed — `bits2int` folding of the digest,
//! `s⁻¹`, the `u1`/`u2` derivation — so this file pins the scalar
//! values where that arithmetic saturates: `r` or `s` at `n − 1`,
//! `s = 1` (whose inverse is the identity), and digests at or above `n`
//! (which `bits2int` must fold, not truncate).
//!
//! Every ECDSA-level vector is asserted identical on the optimized and
//! the preserved Shamir path. The scalar computations themselves
//! (`u1`/`u2`, `s⁻¹`, batch inversion) are additionally cross-checked
//! *in-process* between the production Barrett field ([`Fq256`]) and
//! the Montgomery reference ([`MontgomeryDomain`] on `n`), which tests
//! build directly.

use fabric_crypto::bigint::U256;
use fabric_crypto::curve::{mul_fixed_base, p256};
use fabric_crypto::ecdsa::{Signature, SigningKey, VerifyingKey};
use fabric_crypto::fq256::Fq256;
use fabric_crypto::mont::MontgomeryDomain;
use fabric_crypto::sha256::sha256;

fn test_key() -> SigningKey {
    SigningKey::from_seed(b"scalar-edge-vectors")
}

/// Asserts both verification paths produce the same accept/reject
/// verdict, and returns it.
fn paths_agree(vk: &VerifyingKey, digest: &[u8; 32], sig: &Signature) -> bool {
    let fast = vk.verify_prehashed(digest, sig);
    let shamir = vk.verify_prehashed_shamir(digest, sig);
    assert_eq!(
        fast.is_ok(),
        shamir.is_ok(),
        "fast ({fast:?}) and shamir ({shamir:?}) verdicts diverged for sig={sig:?}"
    );
    fast.is_ok()
}

/// Forges a digest so that the deterministic nonce relation
/// `s = k⁻¹(z + r·d) mod n` lands exactly on the requested `s`:
/// `z = s·k − r·d mod n`. Returns the signature and the digest bytes.
///
/// This is how Wycheproof builds its `s = 1` / `s = n − 1` acceptance
/// vectors: the signature is *valid* by construction, with the edge
/// value in the scalar slot.
fn forge_signature_with_s(key: &SigningKey, k: &U256, s_target: &U256) -> (Signature, [u8; 32]) {
    let c = p256();
    let n = &c.order;
    let d = U256::from_be_bytes(&key.to_be_bytes());
    let point = mul_fixed_base(k).to_affine();
    let r = point.x.reduce_once(n);
    assert!(!r.is_zero(), "pick a different k");
    // z = s·k − r·d (mod n), all canonical.
    let fd = &c.fn_;
    let sk = fd.mul(s_target, &k.rem(n));
    let rd = fd.mul(&r, &d);
    let z = fd.sub(&sk, &rd);
    let sig = Signature { r, s: *s_target };
    (sig, z.to_be_bytes())
}

#[test]
fn s_equal_one_verifies_on_both_paths() {
    // s = 1 means s⁻¹ = 1: the inverse-identity case every inversion
    // kernel (single, Fermat, batched) must map through untouched.
    let key = test_key();
    let (sig, digest) = forge_signature_with_s(&key, &U256::from_u64(0xdead_beef), &U256::ONE);
    assert_eq!(sig.s, U256::ONE);
    assert!(
        paths_agree(key.verifying_key(), &digest, &sig),
        "forged s = 1 signature must verify"
    );
    // The batched inversion agrees on the identity too.
    let sinvs = fabric_crypto::ecdsa::batch_s_inverses(&[sig]);
    assert_eq!(sinvs[0], U256::ONE);
    assert!(key
        .verifying_key()
        .verify_prehashed_with_sinv(&digest, &sig, &sinvs[0])
        .is_ok());
}

#[test]
fn s_equal_n_minus_one_verifies_on_both_paths() {
    // n − 1 ≡ −1 is its own inverse: the largest admissible s, one
    // below the range check's rejection line.
    let key = test_key();
    let n = p256().order;
    let nm1 = n.wrapping_sub(&U256::ONE);
    let (sig, digest) = forge_signature_with_s(&key, &U256::from_u64(0xc0ff_ee11), &nm1);
    assert_eq!(sig.s, nm1);
    assert!(
        paths_agree(key.verifying_key(), &digest, &sig),
        "forged s = n − 1 signature must verify"
    );
    let sinvs = fabric_crypto::ecdsa::batch_s_inverses(&[sig]);
    assert_eq!(sinvs[0], nm1, "−1 is its own inverse");
}

#[test]
fn r_equal_n_minus_one_rejected_identically() {
    // No P-256 point has x ≡ n − 1 for the test nonces used here, so
    // this is a rejection vector: what matters is that the boundary r
    // passes the range check (it is < n) and both paths walk the full
    // curve arithmetic to the same verdict.
    let key = test_key();
    let digest = sha256(b"r at n-1");
    let good = key.sign_prehashed(&digest);
    let nm1 = p256().order.wrapping_sub(&U256::ONE);
    let sig = Signature { r: nm1, s: good.s };
    assert!(
        !paths_agree(key.verifying_key(), &digest, &sig),
        "r = n − 1 with an unrelated s must not verify"
    );
}

#[test]
fn digests_at_and_above_n_fold_identically() {
    // bits2int: a 256-bit digest ≥ n must be folded mod n, and any two
    // digests that differ by exactly n (as 256-bit integers) are the
    // *same* message to ECDSA. Sign the folded digest, then present the
    // unfolded twin: both paths must accept both forms.
    let key = test_key();
    let vk = key.verifying_key();
    let n = p256().order;
    for (what, z) in [
        ("z = 0 (digest = n folds to zero)", U256::ZERO),
        ("z = 1", U256::ONE),
        ("z = 2^256 − 1 − n", U256::MAX.wrapping_sub(&n)),
        (
            "z just below the fold window",
            U256::MAX.wrapping_sub(&n).wrapping_sub(&U256::from_u64(7)),
        ),
    ] {
        let folded = z.to_be_bytes();
        let (unfolded_v, carry) = z.overflowing_add(&n);
        assert!(!carry, "{what}: twin must fit in 256 bits");
        let unfolded = unfolded_v.to_be_bytes();
        let sig = key.sign_prehashed(&folded);
        assert!(paths_agree(vk, &folded, &sig), "{what}: folded digest");
        assert!(
            paths_agree(vk, &unfolded, &sig),
            "{what}: digest + n must verify identically (bits2int folding)"
        );
        // And signing the unfolded digest yields the identical signature.
        assert_eq!(
            key.sign_prehashed(&unfolded),
            sig,
            "{what}: RFC 6979 reduces the digest before the nonce"
        );
    }
    // The all-ones digest (the largest possible bits2int input).
    let max = [0xffu8; 32];
    let sig = key.sign_prehashed(&max);
    assert!(paths_agree(vk, &max, &sig), "all-ones digest");
}

/// The scalar edge values, crossed in-process through the Barrett
/// field and the Montgomery reference on `n`: `u1`/`u2` derivation and
/// inversion must be bit-identical. Montgomery operands are converted
/// in and out at the boundary, exactly as the reference would be used.
#[test]
fn edge_scalars_agree_across_scalar_backends_in_process() {
    let bar = Fq256;
    let mon = MontgomeryDomain::new(Fq256::N);
    let n = Fq256::N;
    let nm1 = n.wrapping_sub(&U256::ONE);
    let edge = [
        U256::ONE,
        U256::from_u64(2),
        nm1,
        n.wrapping_sub(&U256::from_u64(2)),
        U256::MAX.rem(&n),
        U256([0, 0, 0, 1 << 63]).rem(&n),
    ];
    // Montgomery multiply on canonical operands, canonical result.
    let mon_mul = |a: &U256, b: &U256| mon.from_mont(&mon.mul(&mon.to_mont(a), &mon.to_mont(b)));
    for s in &edge {
        let inv_bar = bar.inv(s).unwrap();
        let inv_mon = mon.from_mont(&mon.inv(&mon.to_mont(s)).unwrap());
        assert_eq!(inv_bar, inv_mon, "s⁻¹ diverged for s={s:?}");
        for z in &edge {
            for r in &edge {
                // u1 = z·s⁻¹, u2 = r·s⁻¹ — the exact per-signature flow.
                let u_bar = (bar.mul(z, &inv_bar), bar.mul(r, &inv_bar));
                let u_mon = (mon_mul(z, &inv_mon), mon_mul(r, &inv_mon));
                assert_eq!(u_bar, u_mon, "u1/u2 diverged at z={z:?} r={r:?} s={s:?}");
            }
        }
    }
    // Batched inversion over the whole edge set, both fields.
    let mut vals_bar = edge.to_vec();
    let mut vals_mon: Vec<U256> = edge.iter().map(|v| mon.to_mont(v)).collect();
    assert_eq!(bar.batch_inv(&mut vals_bar), mon.batch_inv(&mut vals_mon));
    for (b, m) in vals_bar.iter().zip(&vals_mon) {
        assert_eq!(*b, mon.from_mont(m));
    }
}
