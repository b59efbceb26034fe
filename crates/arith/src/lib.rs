//! Redundant binary (signed-digit) arithmetic for pipelined execution cores.
//!
//! This crate implements the arithmetic substrate of Brown & Patt,
//! *"Using Internal Redundant Representations and Limited Bypass to Support
//! Pipelined Adders and Register Files"* (HPCA 2002), Section 3:
//!
//! * [`RbNumber`] — a 64-digit signed-digit number whose digits take values
//!   in `{-1, 0, 1}`, encoded as two 64-bit words (the positive and negative
//!   digit planes). This is the "redundant binary" representation the paper
//!   forwards between dependent ALU operations.
//! * [`adder`] — a constant-depth redundant binary adder in which a carry
//!   propagates at most two digit positions, together with the paper's
//!   *bogus overflow* correction and 2's-complement overflow detection
//!   (§3.3–§3.5). After normalization the adder is **exactly** equivalent to
//!   wrapping 2's-complement addition, so sign and zero tests on redundant
//!   results agree with a conventional machine.
//! * [`convert`] — the free (hardwired) 2's-complement → redundant binary
//!   conversion and the carry-propagating conversion back (§3.2).
//! * [`ops`] — the other operations the paper shows can execute on
//!   redundant inputs: digit shifts, scaled adds, sign/zero/LSB tests,
//!   trailing-zero count, and quadword→longword extraction (§3.6).
//! * [`sam`] — Sum-Addressed Memory decoders, including the 3-input
//!   *modified SAM* that indexes a cache directly with a redundant binary
//!   base register plus a 2's-complement displacement (§3.6).
//!
//! # Example
//!
//! ```
//! use redbin_arith::{RbNumber, adder::RbAdder};
//!
//! let adder = RbAdder::new();
//! let a = RbNumber::from_i64(1234);
//! let b = RbNumber::from_i64(-5678);
//! let sum = adder.add(a, b).sum;
//! assert_eq!(sum.to_i64(), 1234 - 5678);
//! // A dependent redundant add never needs a format conversion:
//! let chained = adder.add(sum, RbNumber::from_i64(10_000)).sum;
//! assert_eq!(chained.to_i64(), 1234 - 5678 + 10_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adder;
pub mod convert;
pub mod digit;
pub mod number;
pub mod ops;
pub mod sam;

pub use adder::{AddOutcome, RbAdder};
pub use digit::RbDigit;
pub use number::RbNumber;
