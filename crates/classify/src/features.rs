//! Feature extraction for file classification.
//!
//! §4.4 of the paper: classification uses "name conventions, file
//! locations, and file content" plus access behaviour. Features are
//! computed from [`FileMeta`] records; the *content* signal (what a
//! vision model would say about a photo's significance) is modelled as a
//! noisy observation of the ground-truth significance — the noise level
//! is the knob that calibrates achievable accuracy to the literature
//! (Khan et al. report 79% for deletion prediction).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use sos_workload::FileMeta;

/// Number of features per file.
pub const FEATURE_COUNT: usize = 9;

/// Feature extraction configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureExtractor {
    /// Standard deviation of the noise on the content-significance
    /// observation (0 = oracle content model, 0.3 = weak model).
    pub significance_noise: f64,
    /// Seed for the observation noise.
    pub seed: u64,
}

impl Default for FeatureExtractor {
    fn default() -> Self {
        FeatureExtractor {
            // Calibrated so a linear model lands near the ~80% accuracy
            // the paper's cited classifiers achieve.
            significance_noise: 0.45,
            seed: 0x5EED,
        }
    }
}

impl FeatureExtractor {
    /// Extracts the feature vector for one file at simulated day `now`.
    ///
    /// Deterministic per `(seed, file id)`: repeated extraction of the
    /// same file observes the same (noisy) content signal, as a cached
    /// model inference would.
    pub fn extract(&self, meta: &FileMeta, now: f64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ meta.id.wrapping_mul(0x9E3779B97F4A7C15));
        let noise = if self.significance_noise > 0.0 {
            // Box-Muller.
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen();
            (-2.0 * u1.ln()).sqrt()
                * (2.0 * std::f64::consts::PI * u2).cos()
                * self.significance_noise
        } else {
            0.0
        };
        let observed_significance = (meta.significance + noise).clamp(0.0, 1.0);
        let age = (now - meta.created_day).max(0.0);
        let idle = (now - meta.last_access_day).max(0.0);
        vec![
            // Name/location conventions.
            if is_media_extension(&meta.path) {
                1.0
            } else {
                0.0
            },
            if is_system_path(&meta.path) { 1.0 } else { 0.0 },
            if is_cache_path(&meta.path) { 1.0 } else { 0.0 },
            // Size and age.
            (meta.size as f64).max(1.0).log2(),
            (1.0 + age).ln(),
            (1.0 + idle).ln(),
            // Behaviour.
            (1.0 + meta.access_count as f64).ln(),
            (1.0 + meta.update_count as f64).ln(),
            // Content model output.
            observed_significance,
        ]
    }
}

fn extension(path: &str) -> &str {
    path.rsplit('.').next().unwrap_or("")
}

/// Whether the path looks like a media file by extension.
pub fn is_media_extension(path: &str) -> bool {
    matches!(
        extension(path),
        "jpg" | "jpeg" | "png" | "gif" | "mp4" | "mov" | "mkv" | "mp3" | "aac" | "flac"
    )
}

/// Whether the path is under a system/app location.
pub fn is_system_path(path: &str) -> bool {
    path.starts_with("/system") || path.starts_with("/data/app") || path.starts_with("/data/data")
}

/// Whether the path is under a cache/temporary location.
pub fn is_cache_path(path: &str) -> bool {
    path.contains("cache") || extension(path) == "tmp"
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_workload::FileClass;

    fn meta(path: &str, significance: f64) -> FileMeta {
        FileMeta {
            id: 42,
            class: FileClass::PhotoCasual,
            size: 1 << 20,
            created_day: 10.0,
            last_access_day: 20.0,
            access_count: 5,
            update_count: 0,
            significance,
            path: path.to_string(),
        }
    }

    #[test]
    fn feature_vector_has_fixed_length() {
        let extractor = FeatureExtractor::default();
        let v = extractor.extract(&meta("/sdcard/DCIM/a.jpg", 0.3), 30.0);
        assert_eq!(v.len(), FEATURE_COUNT);
    }

    #[test]
    fn extraction_is_deterministic_per_file() {
        let extractor = FeatureExtractor::default();
        let m = meta("/sdcard/DCIM/a.jpg", 0.3);
        assert_eq!(extractor.extract(&m, 30.0), extractor.extract(&m, 30.0));
    }

    #[test]
    fn noise_perturbs_significance_only() {
        let clean = FeatureExtractor {
            significance_noise: 0.0,
            seed: 1,
        };
        let noisy = FeatureExtractor {
            significance_noise: 0.4,
            seed: 1,
        };
        let m = meta("/sdcard/DCIM/a.jpg", 0.5);
        let a = clean.extract(&m, 30.0);
        let b = noisy.extract(&m, 30.0);
        assert_eq!(a[..FEATURE_COUNT - 1], b[..FEATURE_COUNT - 1]);
        assert!((a[FEATURE_COUNT - 1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn path_predicates() {
        assert!(is_media_extension("/x/y.jpg"));
        assert!(!is_media_extension("/x/y.db"));
        assert!(is_system_path("/system/lib/libc.so"));
        assert!(is_system_path("/data/data/app.db"));
        assert!(!is_system_path("/sdcard/DCIM/a.jpg"));
        assert!(is_cache_path("/data/cache/f.tmp"));
    }

    #[test]
    fn age_features_grow_with_now() {
        let extractor = FeatureExtractor::default();
        let m = meta("/sdcard/DCIM/a.jpg", 0.3);
        let early = extractor.extract(&m, 21.0);
        let late = extractor.extract(&m, 300.0);
        assert!(late[4] > early[4], "age feature");
        assert!(late[5] > early[5], "idle feature");
    }
}
