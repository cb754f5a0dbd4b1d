//! Barrett-folded arithmetic in the P-256 *scalar* field (mod `n`).
//!
//! The group order
//!
//! ```text
//! n = ffffffff00000000 ffffffffffffffff bce6faada7179e84 f3b9cac2fc632551
//! ```
//!
//! is **not** a Solinas prime — its high half has none of the sparse
//! power-of-two structure the base-field prime has — so the fold that
//! made [`crate::fp256`] fast does not transfer. What does transfer is
//! the *shape* of the win: operating on **canonical residues** so that
//! entering and leaving the representation is free. The generic
//! Montgomery path ([`crate::mont`]) pays a REDC multiply for every
//! `to_mont`/`from_mont` crossing, and the ECDSA scalar flow is all
//! crossings: per signature it performs exactly two useful products
//! (`u1 = z·s⁻¹`, `u2 = r·s⁻¹`) but five conversions around them.
//!
//! [`Fq256`] instead reduces the 512-bit schoolbook product directly
//! with a precomputed Barrett constant `µ = ⌊2^512 / n⌋`:
//!
//! ```text
//! q̂ = x_hi + ⌊x_hi·µ_lo / 2^256⌋        (µ = 2^256 + µ_lo)
//! r  = x − q̂·n,   then at most three conditional −n
//! ```
//!
//! The quotient estimate is provably within 3 of the true quotient for
//! any `x < n·2^256` (which every product of reduced operands
//! satisfies), so the correction loop is tiny and the whole reduction is
//! two extra 256×256 multiplies through the same [`addmul_row`] carry
//! chains the rest of the crate uses — no division, no per-element
//! domain conversions. A canonical-in/canonical-out modular multiply is
//! one Barrett reduction versus the Montgomery path's three REDC
//! crossings (`to_mont`, `to_mont`, `from_mont`) around its one.
//!
//! This is the only scalar field the ECDSA layer runs on. The
//! differential harness
//! (`tests/tests/crypto_differential.rs`) pins every operation here
//! against [`crate::mont::MontgomeryDomain`] and plain long division on
//! random, boundary, and near-`n` inputs.
//!
//! Like the rest of this crate, the implementation favours clarity and
//! auditability over side-channel hardening (the correction loop is
//! input-dependent); the library signs only synthetic benchmark
//! identities.

use crate::bigint::{inv_mod_odd, sbb, U256, U512};

/// The P-256 scalar field (integers mod the group order `n`) with
/// Barrett reduction on canonical residues.
///
/// Stateless: the order and the Barrett constant are compile-time
/// constants.
///
/// ```
/// use fabric_crypto::bigint::U256;
/// use fabric_crypto::fq256::Fq256;
/// let f = Fq256;
/// let a = U256::from_u64(1234);
/// let b = U256::from_u64(5678);
/// assert_eq!(f.mul(&a, &b), U256::from_u64(1234 * 5678));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Fq256;

impl Fq256 {
    /// The P-256 group order `n`.
    pub const N: U256 = U256([
        0xf3b9_cac2_fc63_2551,
        0xbce6_faad_a717_9e84,
        0xffff_ffff_ffff_ffff,
        0xffff_ffff_0000_0000,
    ]);

    /// Low 256 bits of the Barrett constant: `µ_lo = ⌊2^512 / n⌋ − 2^256`
    /// (`µ` itself is 257 bits; its top bit is handled symbolically in
    /// [`reduce_wide_scalar`]).
    const MU_LO: U256 = U256([
        0x012f_fd85_eedf_9bfe,
        0x4319_0552_df1a_6c21,
        0xffff_fffe_ffff_ffff,
        0x0000_0000_ffff_ffff,
    ]);

    /// `2^256 − n`, the fold constant for pre-reducing inputs at or
    /// above `n·2^256` (a 224-bit value).
    const C: U256 = U256([
        0x0c46_353d_039c_daaf,
        0x4319_0552_58e8_617b,
        0x0000_0000_0000_0000,
        0x0000_0000_ffff_ffff,
    ]);

    /// The field modulus (the group order).
    pub fn modulus(&self) -> &'static U256 {
        &Self::N
    }

    /// The multiplicative identity (canonical residues: just `1`).
    pub fn one(&self) -> U256 {
        U256::ONE
    }

    /// Modular multiplication: schoolbook 256×256 multiply followed by
    /// the Barrett fold.
    pub fn mul(&self, a: &U256, b: &U256) -> U256 {
        debug_assert!(a < &Self::N && b < &Self::N);
        barrett_reduce(&a.widening_mul(b))
    }

    /// Modular squaring, on the dedicated squaring kernel (cross
    /// products computed once and doubled).
    pub fn sqr(&self, a: &U256) -> U256 {
        debug_assert!(a < &Self::N);
        barrett_reduce(&a.widening_sqr())
    }

    /// Modular addition.
    pub fn add(&self, a: &U256, b: &U256) -> U256 {
        a.add_mod(b, &Self::N)
    }

    /// Modular subtraction.
    pub fn sub(&self, a: &U256, b: &U256) -> U256 {
        a.sub_mod(b, &Self::N)
    }

    /// Modular negation.
    pub fn neg(&self, a: &U256) -> U256 {
        debug_assert!(a < &Self::N);
        if a.is_zero() {
            U256::ZERO
        } else {
            Self::N.wrapping_sub(a)
        }
    }

    /// Exponentiation by a plain integer exponent, left-to-right binary.
    pub fn pow(&self, base: &U256, exp: &U256) -> U256 {
        let mut acc = U256::ONE;
        for i in (0..exp.bit_len()).rev() {
            acc = self.sqr(&acc);
            if exp.bit(i) {
                acc = self.mul(&acc, base);
            }
        }
        acc
    }

    /// Multiplicative inverse via Fermat's little theorem (`a^(n-2)`).
    /// Returns `None` for zero. Kept for API parity with the Montgomery
    /// oracle; [`Self::inv`] is several times faster.
    pub fn inv_prime(&self, a: &U256) -> Option<U256> {
        if a.is_zero() {
            return None;
        }
        let exp = Self::N.wrapping_sub(&U256::from_u64(2));
        Some(self.pow(a, &exp))
    }

    /// Multiplicative inverse via the shared binary extended Euclid
    /// ([`crate::bigint::inv_mod_odd`]). Returns `None` for zero.
    ///
    /// Unlike the Montgomery path, no domain conversions bracket the
    /// Euclidean core: canonical residues go straight in and out.
    pub fn inv(&self, a: &U256) -> Option<U256> {
        inv_mod_odd(a, &Self::N)
    }

    /// Montgomery-trick batch inversion on the shared prime-field core
    /// ([`crate::bigint::batch_inv_prime_field`]): every invertible
    /// element in `values` is replaced by its inverse at the cost of a
    /// single inversion plus `3(n-1)` multiplications; the mask is
    /// `true` where an inverse was written.
    pub fn batch_inv(&self, values: &mut [U256]) -> Vec<bool> {
        crate::bigint::batch_inv_prime_field(values, |a, b| self.mul(a, b), |a| self.inv(a))
    }
}

/// Barrett reduction of `x < n·2^256` modulo the group order.
///
/// `q̂ = x_hi + hi(x_hi·µ_lo)` underestimates the true quotient by at
/// most 3 (standard Barrett error analysis with the shift split at
/// 2^256 on both sides), so `x − q̂·n < 4n` and the correction loop runs
/// at most three times.
fn barrett_reduce(x: &U512) -> U256 {
    let x_hi = U256([x.0[4], x.0[5], x.0[6], x.0[7]]);
    // q̂ = x_hi·µ / 2^256 with µ = 2^256 + µ_lo: the 2^256 term is x_hi
    // itself, the rest is the high half of a 256×256 product.
    let t = x_hi.widening_mul(&Fq256::MU_LO);
    let t_hi = U256([t.0[4], t.0[5], t.0[6], t.0[7]]);
    let (qhat, overflow) = x_hi.overflowing_add(&t_hi);
    debug_assert!(!overflow, "q̂ < 2^256 for x < n·2^256");
    // r = x − q̂·n across the full 512 bits (no borrow-out since q̂ ≤ q).
    let qn = qhat.widening_mul(&Fq256::N);
    let mut r = [0u64; 8];
    let mut borrow = 0u64;
    #[allow(clippy::needless_range_loop)] // lock-step borrow propagation
    for i in 0..8 {
        (r[i], borrow) = sbb(x.0[i], qn.0[i], borrow);
    }
    debug_assert_eq!(borrow, 0, "q̂ never exceeds the true quotient");
    debug_assert!(r[5] == 0 && r[6] == 0 && r[7] == 0 && r[4] <= 3, "r < 4n");
    let mut hi = r[4];
    let mut lo = U256([r[0], r[1], r[2], r[3]]);
    while hi > 0 || lo >= Fq256::N {
        let (diff, b) = lo.overflowing_sub(&Fq256::N);
        lo = diff;
        hi -= b as u64;
    }
    lo
}

/// Barrett reduction of an arbitrary 512-bit value modulo the group
/// order (the scalar-field analogue of [`crate::fp256::reduce_wide`]).
///
/// General inputs can reach `2^512 − 1 > n·2^256`, outside the core
/// estimate's proven range, so one fold through `2^256 ≡ 2^256 − n
/// (mod n)` shrinks the value below `2^481 ≪ n·2^256` first; the
/// Barrett step then finishes. Hot paths (products of reduced
/// operands) skip the pre-fold via [`Fq256::mul`]/[`Fq256::sqr`].
pub fn reduce_wide_scalar(x: &U512) -> U256 {
    let x_hi = U256([x.0[4], x.0[5], x.0[6], x.0[7]]);
    let x_lo = U256([x.0[0], x.0[1], x.0[2], x.0[3]]);
    // x ≡ x_hi·(2^256 − n) + x_lo (mod n); the sum stays < 2^481.
    let mut folded = x_hi.widening_mul(&Fq256::C);
    let mut carry = 0u64;
    for i in 0..4 {
        let (sum, c) = crate::bigint::adc(folded.0[i], x_lo.0[i], carry);
        folded.0[i] = sum;
        carry = c;
    }
    // The carry must actually propagate in every build — a
    // side-effecting call may never live inside a debug_assert!.
    let overflow = crate::bigint::propagate_carry(&mut folded.0[4..], carry);
    debug_assert_eq!(overflow, 0, "fold result fits in 512 bits");
    barrett_reduce(&folded)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n() -> U256 {
        U256::from_hex("ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551").unwrap()
    }

    #[test]
    fn order_constant_matches_hex_literal() {
        assert_eq!(Fq256::N, n());
        // C is 2^256 − n by construction.
        let (sum, carry) = Fq256::C.overflowing_add(&Fq256::N);
        assert!(sum.is_zero() && carry, "C + N = 2^256");
    }

    #[test]
    fn barrett_constant_matches_division() {
        // µ = ⌊2^512 / n⌋: check n·µ ≤ 2^512 < n·(µ + 1) with µ =
        // 2^256 + µ_lo, using only 512-bit pieces: n·µ = n·2^256 +
        // n·µ_lo must have the form 2^512 − rem with rem < n.
        // Equivalently 2^512 − n·2^256 − n·µ_lo < n. Compute
        // 2^512 − n·2^256 = (2^256 − n)·2^256 = C·2^256, then subtract
        // n·µ_lo and check the remainder is < n.
        let n_mu_lo = Fq256::N.widening_mul(&Fq256::MU_LO);
        let mut c_shift = U512::default();
        c_shift.0[4..8].copy_from_slice(&Fq256::C.0);
        let mut rem = [0u64; 8];
        let mut borrow = 0u64;
        #[allow(clippy::needless_range_loop)] // lock-step borrow propagation
        for i in 0..8 {
            (rem[i], borrow) = sbb(c_shift.0[i], n_mu_lo.0[i], borrow);
        }
        assert_eq!(borrow, 0, "µ does not overshoot");
        assert_eq!(&rem[4..], &[0, 0, 0, 0], "remainder fits in 256 bits");
        assert!(
            U256([rem[0], rem[1], rem[2], rem[3]]) < Fq256::N,
            "µ is the exact floor"
        );
    }

    #[test]
    fn reduce_matches_long_division_on_structured_inputs() {
        let m = n();
        let cases: Vec<U512> = vec![
            U512::default(),
            U512::from_u256(&U256::ONE),
            U512::from_u256(&m),                          // exactly n
            U512::from_u256(&m.wrapping_sub(&U256::ONE)), // n − 1
            U512([0, 0, 0, 0, 1, 0, 0, 0]),               // 2^256
            U512([u64::MAX; 8]),                          // 2^512 − 1
            U512([0, 0, 0, 0, 0, 0, 0, u64::MAX]),        // high-limb only
            m.widening_mul(&m),                           // n² ≡ 0
            m.wrapping_sub(&U256::ONE)
                .widening_mul(&m.wrapping_sub(&U256::ONE)), // (n−1)²
        ];
        for (i, c) in cases.iter().enumerate() {
            assert_eq!(reduce_wide_scalar(c), c.rem(&m), "case {i}");
        }
    }

    #[test]
    fn mul_matches_widening_rem() {
        let f = Fq256;
        let m = n();
        let vals = [
            U256::ZERO,
            U256::ONE,
            U256::from_u64(u64::MAX),
            m.wrapping_sub(&U256::ONE),
            m.wrapping_sub(&U256::from_u64(12345)),
            U256([0, 0, 1 << 63, 0]),
            U256::from_hex("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
                .unwrap()
                .rem(&m),
        ];
        for a in &vals {
            for b in &vals {
                assert_eq!(f.mul(a, b), a.widening_mul(b).rem(&m), "a={a:?} b={b:?}");
                assert_eq!(f.sqr(a), a.widening_sqr().rem(&m), "a={a:?}");
            }
        }
    }

    #[test]
    fn inverse_agrees_with_fermat() {
        let f = Fq256;
        for v in [1u64, 2, 3, 0xdead_beef, u64::MAX] {
            let a = U256::from_u64(v);
            let inv = f.inv(&a).unwrap();
            assert_eq!(f.mul(&a, &inv), U256::ONE, "v={v}");
            assert_eq!(Some(inv), f.inv_prime(&a), "v={v}");
        }
        assert_eq!(f.inv(&U256::ZERO), None);
        assert_eq!(f.inv_prime(&U256::ZERO), None);
        let nm1 = n().wrapping_sub(&U256::ONE); // −1 is its own inverse
        assert_eq!(f.inv(&nm1), Some(nm1));
    }

    #[test]
    fn batch_inversion_matches_individual() {
        let f = Fq256;
        let mut values: Vec<U256> = [7u64, 11, 0, 13, 0, 99]
            .iter()
            .map(|&v| U256::from_u64(v))
            .collect();
        let originals = values.clone();
        let mask = f.batch_inv(&mut values);
        assert_eq!(mask, vec![true, true, false, true, false, true]);
        for i in 0..values.len() {
            if mask[i] {
                assert_eq!(Some(values[i]), f.inv(&originals[i]), "i={i}");
            } else {
                assert!(values[i].is_zero());
            }
        }
        let mut zeros = vec![U256::ZERO; 3];
        assert_eq!(f.batch_inv(&mut zeros), vec![false; 3]);
    }

    #[test]
    fn add_sub_neg_wrap_correctly() {
        let f = Fq256;
        let nm1 = n().wrapping_sub(&U256::ONE);
        assert_eq!(f.add(&nm1, &U256::ONE), U256::ZERO);
        assert_eq!(f.sub(&U256::ZERO, &U256::ONE), nm1);
        assert_eq!(f.neg(&U256::ONE), nm1);
        assert_eq!(f.neg(&U256::ZERO), U256::ZERO);
        assert_eq!(f.add(&f.neg(&nm1), &nm1), U256::ZERO);
    }

    #[test]
    fn pow_small_exponents() {
        let f = Fq256;
        let three = U256::from_u64(3);
        assert_eq!(f.pow(&three, &U256::ZERO), U256::ONE);
        assert_eq!(f.pow(&three, &U256::from_u64(5)), U256::from_u64(243));
    }
}
