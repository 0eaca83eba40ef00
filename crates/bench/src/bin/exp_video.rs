//! E7b: video degradation (§4.2) — "error-tolerant frames, which compose
//! most data in MPEG files, can be approximately stored over flash with
//! low quality loss". Store a GOP-structured clip on worn PLC with only
//! the critical prefix (headers + I-frame DC planes) protected and
//! measure per-frame quality.

use sos_ecc::EccScheme;
use sos_flash::{CellDensity, DeviceConfig, ProgramMode};
use sos_ftl::{Ftl, FtlConfig, WearLevelingConfig};
use sos_media::{decode_video, psnr, synthetic_clip, EncodedVideo, VideoCodec};

fn worn_plc(scheme: EccScheme) -> Ftl {
    let config = FtlConfig {
        ecc: scheme,
        wear_leveling: WearLevelingConfig::disabled(),
        ecc_failure_target: 1e-6,
        ..FtlConfig::conventional(ProgramMode::native(CellDensity::Plc))
    };
    let mut ftl = Ftl::new(&DeviceConfig::tiny(CellDensity::Plc).with_seed(9), config);
    let cap = ftl.logical_pages();
    let filler = vec![0x3Cu8; ftl.page_bytes()];
    for lpn in 0..cap {
        ftl.write(lpn, &filler).expect("fill");
    }
    let mut x = 11u64;
    for _ in 0..30 * cap {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        ftl.write(x % cap, &filler).expect("wear");
    }
    ftl
}

/// Stores every frame's bytes on consecutive LPNs, returns per-frame LPN
/// lists.
fn store_video(ftl: &mut Ftl, video: &EncodedVideo) -> Vec<Vec<u64>> {
    let page_bytes = ftl.page_bytes();
    let mut next = 0u64;
    video
        .frames
        .iter()
        .map(|frame| {
            let lpns: Vec<u64> = (0..frame.bytes.len().div_ceil(page_bytes) as u64)
                .map(|offset| next + offset)
                .collect();
            for (&lpn, chunk) in lpns.iter().zip(frame.bytes.chunks(page_bytes)) {
                let mut page = vec![0u8; page_bytes];
                page[..chunk.len()].copy_from_slice(chunk);
                ftl.write(lpn, &page).expect("store");
            }
            next += lpns.len() as u64;
            lpns
        })
        .collect()
}

fn load_video(ftl: &mut Ftl, template: &EncodedVideo, layout: &[Vec<u64>]) -> EncodedVideo {
    let mut out = template.clone();
    for (frame, lpns) in out.frames.iter_mut().zip(layout) {
        let mut bytes = Vec::new();
        for &lpn in lpns {
            bytes.extend_from_slice(&ftl.read(lpn).expect("read").data);
        }
        bytes.truncate(frame.bytes.len());
        frame.bytes = bytes;
    }
    out
}

fn main() {
    println!("# E7b — GOP video on worn PLC (approximate storage)");
    let frames = synthetic_clip(64, 64, 16, 3);
    let codec = VideoCodec::new(75, 24, 8).expect("codec");
    let video = codec.encode(&frames).expect("encodes");
    println!(
        "clip: {} frames, {} bytes total, {:.0}% error-tolerant (critical: headers + I-frames)",
        video.frames.len(),
        video.total_bytes(),
        video.tolerant_fraction() * 100.0
    );
    let scheme = EccScheme::PrioritySplit {
        t: 18,
        protected_chunks: 1,
    };
    let mut ftl = worn_plc(scheme);
    let layout = store_video(&mut ftl, &video);
    println!(
        "\n{:<8} {:>12} {:>12} {:>12}",
        "age", "I-frames", "P-frames", "overall"
    );
    for label in ["fresh", "+6mo", "+12mo", "+24mo"] {
        if label != "fresh" {
            ftl.advance_days(182.0);
        }
        let loaded = load_video(&mut ftl, &video, &layout);
        match decode_video(&loaded) {
            Ok(decoded) => {
                let mut i_sum = (0.0, 0u32);
                let mut p_sum = (0.0, 0u32);
                let mut all = (0.0, 0u32);
                for (index, (original, got)) in frames.iter().zip(&decoded).enumerate() {
                    let quality = psnr(original, got).min(99.0);
                    if video.frames[index].kind == sos_media::FrameKind::Intra {
                        i_sum = (i_sum.0 + quality, i_sum.1 + 1);
                    } else {
                        p_sum = (p_sum.0 + quality, p_sum.1 + 1);
                    }
                    all = (all.0 + quality, all.1 + 1);
                }
                println!(
                    "{:<8} {:>10.1}dB {:>10.1}dB {:>10.1}dB",
                    label,
                    i_sum.0 / i_sum.1.max(1) as f64,
                    p_sum.0 / p_sum.1.max(1) as f64,
                    all.0 / all.1.max(1) as f64
                );
            }
            Err(error) => println!("{label:<8} undecodable: {error}"),
        }
    }
    println!("\npaper shape: the clip stays watchable as the device ages because");
    println!("the critical bytes (headers, I-frame low frequencies) are the only");
    println!("protected ones — P-frame errors wash out at the next GOP.");
}
