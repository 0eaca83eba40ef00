//! Cross-crate integration: degradation physics — flash error model →
//! FTL → ECC → media quality.

use sos_ecc::EccScheme;
use sos_flash::{CellDensity, DeviceConfig, Geometry};
use sos_ftl::{Ftl, FtlConfig, ResuscitationPolicy, WearLevelingConfig};
use sos_media::{decode, psnr, synthetic_photo, ImageCodec};

/// A very small device so wear loops stay fast in debug builds; per-block
/// wear per overwrite round is the same as on larger geometries.
fn micro_config(seed: u64) -> DeviceConfig {
    let mut config = DeviceConfig::tiny(CellDensity::Plc).with_seed(seed);
    config.geometry = Geometry {
        blocks: 24,
        ..config.geometry
    };
    config
}

fn plc_ftl(scheme: EccScheme, seed: u64) -> Ftl {
    let mut config = FtlConfig::sos_spare();
    config.ecc = scheme;
    config.wear_leveling = WearLevelingConfig::disabled();
    config.resuscitation = ResuscitationPolicy::retire_only();
    Ftl::new(&micro_config(seed), config)
}

fn wear(ftl: &mut Ftl, rounds: u64) {
    let cap = ftl.logical_pages();
    let page = vec![0x99u8; ftl.page_bytes()];
    for lpn in 0..cap {
        ftl.write(lpn, &page).expect("fill");
    }
    let mut x = 1u64;
    for _ in 0..rounds * cap {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        ftl.write(x % cap, &page).expect("wear");
    }
}

fn store_image(ftl: &mut Ftl, bytes: &[u8]) -> Vec<u64> {
    let page_bytes = ftl.page_bytes();
    let lpns: Vec<u64> = (0..bytes.len().div_ceil(page_bytes) as u64).collect();
    for (&lpn, chunk) in lpns.iter().zip(bytes.chunks(page_bytes)) {
        let mut page = vec![0u8; page_bytes];
        page[..chunk.len()].copy_from_slice(chunk);
        ftl.write(lpn, &page).expect("store");
    }
    lpns
}

fn read_image(ftl: &mut Ftl, lpns: &[u64], len: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    for &lpn in lpns {
        bytes.extend_from_slice(&ftl.read(lpn).expect("read").data);
    }
    bytes.truncate(len);
    bytes
}

#[test]
fn quality_decreases_monotonically_with_retention_age() {
    let image = synthetic_photo(96, 96, 8);
    let codec = ImageCodec::default_photo();
    let encoded = codec.encode(&image).expect("encodes");
    let mut ftl = plc_ftl(EccScheme::None, 44);
    wear(&mut ftl, 25);
    let lpns = store_image(&mut ftl, &encoded.bytes);
    let mut qualities = Vec::new();
    for _ in 0..4 {
        let bytes = read_image(&mut ftl, &lpns, encoded.len());
        let quality = match decode(&bytes) {
            Ok(img) => psnr(&image, &img).min(99.0),
            Err(_) => 0.0,
        };
        qualities.push(quality);
        ftl.advance_days(365.0);
    }
    // Degradation accumulates: the last reading is materially worse than
    // the first (allowing small non-monotonic noise between steps).
    assert!(
        qualities[3] < qualities[0] - 1.0,
        "no degradation observed: {qualities:?}"
    );
}

#[test]
fn priority_split_beats_unprotected_on_worn_flash() {
    let image = synthetic_photo(96, 96, 21);
    let codec = ImageCodec::default_photo();
    let encoded = codec.encode(&image).expect("encodes");
    let run = |scheme: EccScheme| {
        let mut ftl = plc_ftl(scheme, 77);
        wear(&mut ftl, 25);
        let lpns = store_image(&mut ftl, &encoded.bytes);
        ftl.advance_days(730.0);
        let bytes = read_image(&mut ftl, &lpns, encoded.len());
        match decode(&bytes) {
            Ok(img) => psnr(&image, &img).min(99.0),
            Err(_) => 0.0,
        }
    };
    let unprotected = run(EccScheme::None);
    let split = run(EccScheme::PrioritySplit {
        t: 18,
        protected_chunks: 1,
    });
    assert!(
        split >= unprotected,
        "split {split} dB must not be worse than unprotected {unprotected} dB"
    );
    assert!(split > 15.0, "split scheme too degraded: {split} dB");
}

#[test]
fn full_bch_keeps_worn_data_exact_until_budget() {
    let image = synthetic_photo(64, 64, 13);
    let codec = ImageCodec::default_photo();
    let encoded = codec.encode(&image).expect("encodes");
    let mut ftl = plc_ftl(EccScheme::Bch { t: 18 }, 3);
    wear(&mut ftl, 20); // moderate wear: well inside the BCH budget
    let lpns = store_image(&mut ftl, &encoded.bytes);
    ftl.advance_days(90.0);
    let bytes = read_image(&mut ftl, &lpns, encoded.len());
    assert_eq!(bytes, encoded.bytes, "BCH inside budget must be exact");
}

#[test]
fn scrubber_refresh_restores_quality_headroom() {
    // With the scrubber running, data on worn PLC gets refreshed before
    // the RBER runs away; compare block RBER before and after a scrub.
    let mut config = FtlConfig::sos_spare();
    config.ecc = EccScheme::DetectOnly;
    config.scrub.refresh_margin = 0.15;
    let mut ftl = Ftl::new(&micro_config(6), config);
    wear(&mut ftl, 25);
    ftl.advance_days(1095.0);
    // Find the worst live block's RBER before scrubbing.
    let geometry = *ftl.device().geometry();
    let worst_before = (0..geometry.total_blocks())
        .filter_map(|b| ftl.device().block_rber_estimate(b).ok())
        .fold(0.0f64, f64::max);
    let report = ftl.scrub().expect("scrub");
    let worst_after = (0..geometry.total_blocks())
        .filter_map(|b| ftl.device().block_rber_estimate(b).ok())
        .fold(0.0f64, f64::max);
    assert!(
        report.refreshed + report.resuscitated + report.retired > 0,
        "{report:?}"
    );
    assert!(
        worst_after < worst_before,
        "scrub must reduce worst-block RBER ({worst_before:e} -> {worst_after:e})"
    );
}
