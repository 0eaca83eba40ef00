//! # sos-media — error-tolerant media codecs and quality metrics
//!
//! The media substrate for the SOS reproduction of *"Degrading Data to
//! Save the Planet"* (HotOS '23). SOS stores media approximately (§4.2);
//! this crate provides the pieces needed to *measure* what approximation
//! does to user-visible quality:
//!
//! * [`image`] / [`synth`] — grayscale images and photo-like synthetic
//!   generators (stand-ins for private user photo collections),
//! * [`dct`] / [`quant`] / [`codec`] — a DCT image codec with fixed-width
//!   coefficients laid out in priority order, so a protected *prefix*
//!   covers exactly the perceptually-critical bits,
//! * [`video`] — an I/P-frame GOP model reproducing the "error-tolerant
//!   frames compose most data in MPEG files" structure,
//! * [`quality`] — MSE and PSNR.

pub mod codec;
pub mod dct;
pub mod image;
pub mod quality;
pub mod quant;
pub mod synth;
pub mod video;

pub use codec::{decode, CodecError, EncodedImage, ImageCodec, HEADER_BYTES};
pub use image::Image;
pub use quality::{mse, psnr};
pub use quant::QuantTable;
pub use synth::{flat, synthetic_photo, texture};
pub use video::{decode_video, synthetic_clip, EncodedFrame, EncodedVideo, FrameKind, VideoCodec};
