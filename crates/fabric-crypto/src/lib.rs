//! Cryptographic substrate for the Blockchain Machine reproduction.
//!
//! Hyperledger Fabric's validation phase is dominated by 256-bit ECDSA
//! verification and SHA-256 hashing (paper §2.1.3, Figure 3a: ~40% and
//! ~10% of validator time respectively). This crate implements that stack
//! from scratch in pure Rust:
//!
//! * [`bigint`] — fixed-width 256-bit integers, with a dedicated
//!   squaring kernel, single-subtraction reduction for `< 2m` values,
//!   and the shared carry-chain primitives (`adc`/`sbb`/`mac`) and
//!   binary-Euclid modular inverse shared by every field implementation;
//! * [`mont`] — Montgomery modular arithmetic for odd 256-bit moduli:
//!   REDC multiply/square, Fermat and binary-Euclid inversion, and
//!   Montgomery-trick *batch* inversion. Not on any production path:
//!   it is the reference the differential tests and the benchmark's
//!   in-process A/B hold both fast fields against;
//! * [`fp256`] — Solinas-form (NIST fast-reduction) arithmetic
//!   specialized to the P-256 prime: reduction is a fixed nine-term
//!   word shuffle with no multiplications, on canonical residues. The
//!   curve layer's base field;
//! * [`fq256`] — Barrett-folded arithmetic in the scalar field (mod
//!   the group order `n`): a precomputed `⌊2^512/n⌋` constant reduces
//!   the 512-bit product on canonical residues, eliminating the REDC
//!   domain crossings the ECDSA scalar flow is dominated by. The ECDSA
//!   layer's scalar field;
//! * [`curve`] — NIST P-256 group operations: Jacobian/mixed addition,
//!   windowed and width-5 wNAF scalar multiplication, Shamir
//!   double-scalar multiplication, a lazily built fixed-base comb table
//!   for `k·G` (zero doublings per multiplication), batched affine
//!   normalization, and a projective x-coordinate check that removes
//!   the final inversion from ECDSA verification;
//! * [`ecdsa`] — ECDSA sign/verify with RFC 6979 deterministic nonces.
//!   Verification is the validator's hottest operation and runs on the
//!   fixed-base + per-key split-wNAF fast path (see the module docs);
//!   the seed's Shamir/Fermat path is preserved for cross-checking and
//!   before/after benchmarking;
//! * [`sha256`](mod@sha256) — FIPS 180-4 SHA-256 and HMAC-SHA-256;
//! * [`der`] — strict DER encoding of `ECDSA-Sig-Value`;
//! * [`identity`] — X.509-lite certificates (~860-byte class, like the
//!   certificates whose redundancy the BMac protocol removes), the 16-bit
//!   encoded node ids of paper §3.2, and a membership service provider.
//!
//! # Example
//!
//! ```
//! use fabric_crypto::identity::{Msp, Role};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut msp = Msp::new(2);
//! let endorser = msp.issue(0, Role::Peer, 0)?;
//! let sig = endorser.sign(b"endorsement payload");
//! endorser.identity.verify(b"endorsement payload", &sig)?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod bigint;
pub mod curve;
pub mod der;
pub mod ecdsa;
pub mod fp256;
pub mod fq256;
pub mod identity;
pub mod mont;
pub mod sha256;

pub use bigint::U256;
pub use ecdsa::{EcdsaError, Signature, SigningKey, VerifyingKey};
pub use identity::{Certificate, Identity, Msp, NodeId, Role, SigningIdentity};
pub use sha256::{sha256, Sha256};

/// Names the one compiled-in base-field arithmetic ([`fp256`]), for
/// the benchmark's configuration echo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldBackend {
    /// Solinas (NIST fast-reduction) arithmetic on canonical residues.
    Solinas,
}

impl FieldBackend {
    /// Stable lowercase name.
    pub fn name(&self) -> &'static str {
        "solinas"
    }
}

/// The base-field arithmetic the curve layer runs on; always
/// [`FieldBackend::Solinas`].
pub fn default_field_backend() -> FieldBackend {
    FieldBackend::Solinas
}

/// Names the one compiled-in scalar-field arithmetic ([`fq256`]), for
/// the benchmark's configuration echo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarBackend {
    /// Barrett-folded reduction on canonical residues.
    Barrett,
}

impl ScalarBackend {
    /// Stable lowercase name.
    pub fn name(&self) -> &'static str {
        "barrett"
    }
}

/// The scalar-field arithmetic the ECDSA layer runs on; always
/// [`ScalarBackend::Barrett`].
pub fn default_scalar_backend() -> ScalarBackend {
    ScalarBackend::Barrett
}
