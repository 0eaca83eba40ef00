//! E7: approximate-storage quality (§4.2) — PSNR of DCT-coded images
//! versus RBER, and versus retention age on worn PLC, with and without
//! priority-split protection.
//!
//! Two sweeps:
//!  1. Controlled RBER sweep (bit flips injected directly into the
//!     encoded stream) — the codec's intrinsic error tolerance.
//!  2. Device sweep — images stored on a worn PLC FTL under different
//!     ECC schemes and aged.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sos_ecc::EccScheme;
use sos_flash::{CellDensity, DeviceConfig, ProgramMode};
use sos_ftl::{Ftl, FtlConfig, WearLevelingConfig};
use sos_media::{decode, psnr, synthetic_photo, ImageCodec};

fn flip_fraction(bytes: &mut [u8], skip: usize, rber: f64, rng: &mut StdRng) {
    let bits = (bytes.len() - skip) * 8;
    let flips = (bits as f64 * rber).round() as usize;
    for _ in 0..flips {
        let bit = rng.gen_range(0..bits);
        bytes[skip + bit / 8] ^= 1 << (bit % 8);
    }
}

fn sweep_rber() {
    println!("## Sweep 1 — PSNR vs RBER injected into the encoded stream");
    println!(
        "{:<10} {:>12} {:>18}",
        "RBER", "whole stream", "header+DC protected"
    );
    let image = synthetic_photo(128, 128, 5);
    let codec = ImageCodec::default_photo();
    let encoded = codec.encode(&image).expect("encodes");
    let protected = encoded.protected_prefix(1);
    let mut rng = StdRng::seed_from_u64(1);
    for exponent in [-6.0f64, -5.0, -4.0, -3.5, -3.0, -2.5, -2.0] {
        let rber = 10f64.powf(exponent);
        let mut unprotected = encoded.bytes.clone();
        flip_fraction(&mut unprotected, 0, rber, &mut rng);
        let quality_raw = match decode(&unprotected) {
            Ok(img) => psnr(&image, &img).min(99.0),
            Err(_) => 0.0,
        };
        let mut split = encoded.bytes.clone();
        flip_fraction(&mut split, protected, rber, &mut rng);
        let quality_split = match decode(&split) {
            Ok(img) => psnr(&image, &img).min(99.0),
            Err(_) => 0.0,
        };
        println!("{rber:<10.1e} {quality_raw:>10.1} dB {quality_split:>15.1} dB");
    }
    println!("(0.0 dB = header destroyed — exactly what the protected prefix prevents)\n");
}

fn device_sweep() {
    println!("## Sweep 2 — PSNR vs age on worn PLC, by ECC scheme");
    println!("(scrub=yes runs the SOS background scrubber between epochs —");
    println!(" without it, native worn PLC loses even BCH-protected data,");
    println!(" which is exactly why the paper's design scrubs/refreshes)");
    let image = synthetic_photo(96, 96, 7);
    let codec = ImageCodec::default_photo();
    let encoded = codec.encode(&image).expect("encodes");
    let schemes: [(&str, EccScheme, bool); 4] = [
        ("none", EccScheme::None, false),
        (
            "split",
            EccScheme::PrioritySplit {
                t: 18,
                protected_chunks: 1,
            },
            false,
        ),
        (
            "split+scrub",
            EccScheme::PrioritySplit {
                t: 18,
                protected_chunks: 1,
            },
            true,
        ),
        ("full-bch-t18", EccScheme::Bch { t: 18 }, false),
    ];
    println!(
        "{:<16} {:>9} {:>9} {:>9} {:>9}",
        "scheme", "fresh", "+6mo", "+12mo", "+24mo"
    );
    for (name, scheme, scrub) in schemes {
        let config = FtlConfig {
            ecc: scheme,
            wear_leveling: WearLevelingConfig::disabled(),
            ecc_failure_target: 1e-6,
            ..FtlConfig::conventional(ProgramMode::native(CellDensity::Plc))
        };
        let mut ftl = Ftl::new(&DeviceConfig::tiny(CellDensity::Plc).with_seed(5), config);
        let cap = ftl.logical_pages();
        let filler = vec![0x5Au8; ftl.page_bytes()];
        for lpn in 0..cap {
            ftl.write(lpn, &filler).expect("fill");
        }
        let mut x = 3u64;
        for _ in 0..30 * cap {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            ftl.write(x % cap, &filler).expect("wear");
        }
        // Store the image.
        let page_bytes = ftl.page_bytes();
        let lpns: Vec<u64> = (0..encoded.bytes.len().div_ceil(page_bytes) as u64).collect();
        for (&lpn, chunk) in lpns.iter().zip(encoded.bytes.chunks(page_bytes)) {
            let mut page = vec![0u8; page_bytes];
            page[..chunk.len()].copy_from_slice(chunk);
            ftl.write(lpn, &page).expect("store");
        }
        let mut row = format!("{name:<16}");
        for step in 0..4 {
            if step > 0 {
                ftl.advance_days(if step == 1 {
                    182.0
                } else {
                    183.0 * (step as f64 - 0.5)
                });
                if scrub {
                    let _ = ftl.scrub();
                }
            }
            let mut bytes = Vec::new();
            for &lpn in &lpns {
                bytes.extend_from_slice(&ftl.read(lpn).expect("read").data);
            }
            bytes.truncate(encoded.len());
            let quality = match decode(&bytes) {
                Ok(img) => psnr(&image, &img).min(99.0),
                Err(_) => 0.0,
            };
            row.push_str(&format!(" {quality:>7.1}dB"));
        }
        println!("{row}");
    }
    println!("\npaper shape: unprotected media dies with the header; priority-split");
    println!("degrades gracefully under maintenance; full BCH holds until its");
    println!("budget then cliffs. Unscrubbed worn native PLC loses everything —");
    println!("the paper's case for refresh + degradation tolerance.");
}

fn main() {
    println!("# E7 — media quality under approximate storage");
    sweep_rber();
    device_sweep();
}
