//! Approximate storage of a photo on ageing PLC flash (§4.2 / E7).
//!
//! Stores one encoded image on a worn PLC device under three ECC
//! schemes (none, detect-only, priority-split) and reports PSNR as the
//! device ages — the "slightly degrade in quality over time" behaviour,
//! measured.
//!
//! Run with: `cargo run --release -p sos-examples --bin approx_photo`

use sos_ecc::EccScheme;
use sos_flash::{CellDensity, DeviceConfig, ProgramMode};
use sos_ftl::{Ftl, FtlConfig, WearLevelingConfig};
use sos_media::{decode, psnr, synthetic_photo, ImageCodec};

fn ftl_with(scheme: EccScheme, seed: u64) -> Ftl {
    let config = FtlConfig {
        ecc: scheme,
        wear_leveling: WearLevelingConfig::disabled(),
        ecc_failure_target: 1e-6,
        ..FtlConfig::conventional(ProgramMode::native(CellDensity::Plc))
    };
    Ftl::new(
        &DeviceConfig::tiny(CellDensity::Plc).with_seed(seed),
        config,
    )
}

fn main() {
    let image = synthetic_photo(96, 96, 99);
    let codec = ImageCodec::default_photo();
    let encoded = codec.encode(&image).expect("encodes");
    println!("== Photo degradation on worn PLC flash ==");
    println!(
        "image: 96x96, {} bytes encoded, protected prefix suggestion {} bytes\n",
        encoded.len(),
        encoded.protected_prefix(1)
    );
    println!(
        "{:<16} {:>6} {:>10} {:>10} {:>10} {:>10}",
        "scheme", "wear", "fresh", "+180d", "+360d", "+720d"
    );
    let schemes = [
        ("none", EccScheme::None),
        ("detect-only", EccScheme::DetectOnly),
        (
            "priority-split",
            EccScheme::PrioritySplit {
                t: 18,
                protected_chunks: 1,
            },
        ),
        ("full-bch", EccScheme::Bch { t: 18 }),
    ];
    for (name, scheme) in schemes {
        let mut ftl = ftl_with(scheme, 7);
        // Pre-wear the device to ~80% of PLC rated endurance by cycling
        // the blocks under it.
        let cap = ftl.logical_pages();
        let filler = vec![0xA5u8; ftl.page_bytes()];
        for lpn in 0..cap {
            ftl.write(lpn, &filler).expect("fill");
        }
        let mut x = 9u64;
        for _ in 0..60 * cap {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            ftl.write(x % cap, &filler).expect("wear");
        }
        // Store the photo across pages.
        let page_bytes = ftl.page_bytes();
        let pages = encoded.bytes.chunks(page_bytes);
        let lpns: Vec<u64> = (0..pages.len() as u64).collect();
        for (lpn, chunk) in lpns.iter().zip(encoded.bytes.chunks(page_bytes)) {
            let mut page = vec![0u8; page_bytes];
            page[..chunk.len()].copy_from_slice(chunk);
            ftl.write(*lpn, &page).expect("store photo");
        }
        let mut row = format!("{:<16} {:>5}%", name, 80);
        for _ in 0..4 {
            let mut bytes = Vec::new();
            for &lpn in &lpns {
                bytes.extend_from_slice(&ftl.read(lpn).expect("read").data);
            }
            bytes.truncate(encoded.len());
            let quality = match decode(&bytes) {
                Ok(img) => psnr(&image, &img).min(99.0),
                Err(_) => 0.0,
            };
            row.push_str(&format!(" {quality:>9.1}dB"));
            ftl.advance_days(180.0);
        }
        // Shift columns: first measurement was "fresh", the rest aged.
        println!("{row}");
    }
    println!("\n(0.0 dB = header destroyed; priority-split keeps the header alive)");
}
