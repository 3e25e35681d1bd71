//! Functional ECC codecs and DRAM burst layouts for the SAM reproduction.
//!
//! Section 2.3 of the paper describes the ECC schemes server memories use and
//! Section 4 argues that SAM keeps chipkill codewords intact under strided
//! access while GS-DRAM cannot. This crate makes those arguments *executable*:
//!
//! * [`gf`] — arithmetic in GF(2^4) and GF(2^8) (log/antilog tables).
//! * [`codes`] — the three codes from Figure 4:
//!   [`codes::SscCode`] (single-symbol-correct chipkill over 18 8-bit
//!   symbols), [`codes::SscDsdCode`] (single-symbol-correct double-symbol-
//!   detect over 36 4-bit symbols), and [`codes::SecDed`] (Hamming(72,64)).
//! * [`layout`] — how a 576-bit DDR4 burst maps onto codewords: the default
//!   beat-spread layout of Figure 4(b), the transposed per-DQ layout of
//!   Figure 4(c) used by SAM-IO, and the GS-DRAM gather layout whose ECC
//!   symbols cannot be co-fetched.
//! * [`inject`] — chip / pin / bit fault models and an evaluator that checks
//!   whether a (layout, code) pair corrects them, reproducing the
//!   "Reliability" row of Table 1.
//! * [`rs`] — general Reed-Solomon over GF(2^8) with Berlekamp-Massey
//!   decoding: the paper's cited strong-protection extension (\[26\], a
//!   512-bit codeword of 72 DQ symbols correcting a whole chip's four DQs).
//!
//! # Example
//!
//! ```
//! use sam_ecc::codes::SscCode;
//!
//! let code = SscCode::new();
//! let data: Vec<u8> = (0..16).collect();
//! let mut cw = code.encode(&data);
//! cw[5] ^= 0xA7; // a whole-symbol (chip) error
//! let decoded = code.decode(&cw).expect("SSC corrects any single symbol");
//! assert_eq!(decoded.data, data);
//! ```

#![warn(missing_docs)]

pub mod codes;
pub mod gf;
pub mod inject;
pub mod layout;
pub mod rs;

/// Errors reported by decoders in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EccError {
    /// The syndrome indicates more errors than the code can correct.
    Uncorrectable,
    /// The codeword had the wrong length for this code.
    LengthMismatch {
        /// Expected codeword length in symbols (or bits for SEC-DED).
        expected: usize,
        /// Length actually supplied.
        actual: usize,
    },
}

impl std::fmt::Display for EccError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EccError::Uncorrectable => write!(f, "uncorrectable error pattern"),
            EccError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "codeword length {actual} does not match expected {expected}"
                )
            }
        }
    }
}

impl std::error::Error for EccError {}
