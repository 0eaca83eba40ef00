//! # sos-ecc — error-correcting codes for flash pages
//!
//! The coding toolbox for the SOS reproduction of *"Degrading Data to
//! Save the Planet"* (HotOS '23):
//!
//! * [`gf`] / [`bch`] — a real binary BCH codec over GF(2^m): a
//!   bit-serial systematic LFSR encoder and one decode path from error
//!   positions (syndromes, Berlekamp–Massey, closed forms or Chien
//!   search). Strong codes protect the SYS partition.
//! * [`crc`] — CRC-32 detection, the minimum SOS needs to *notice*
//!   degradation on approximate data.
//! * [`scheme`] — page-level codecs gluing the codes together, including
//!   the priority-split approximate mode used on SPARE data.
//!
//! The XOR stripe parity the paper adds on top of BCH for SYS blocks
//! (§4.2) lives with the SYS layout it protects, in `sos-core`'s
//! `stripe` module.

pub mod bch;
pub mod crc;
pub mod gf;
pub mod scheme;

pub use bch::{BchCode, BchError};
pub use crc::crc32;
pub use gf::GaloisField;
pub use scheme::{CodecError, DecodeReport, EccScheme, PageCodec, PageStatus, CHUNK_BYTES};
