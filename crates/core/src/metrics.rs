//! Measurement helpers: latency percentiles and quality tracking.

use serde::{Deserialize, Serialize};

/// Collects latency samples and reports percentiles.
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples: Vec<f64>,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        LatencyRecorder::default()
    }

    /// Records one sample (µs).
    pub fn record(&mut self, latency_us: f64) {
        self.samples.push(latency_us);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `q`-quantile (0..=1) by nearest-rank on the sorted samples;
    /// `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((sorted.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        Some(sorted[rank])
    }

    /// Mean latency; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
    }

    /// Convenience summary `(mean, p50, p99)`.
    pub fn summary(&self) -> Option<LatencySummary> {
        Some(LatencySummary {
            mean_us: self.mean()?,
            p50_us: self.quantile(0.5)?,
            p99_us: self.quantile(0.99)?,
            samples: self.len() as u64,
        })
    }
}

/// Summary statistics of a latency distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Mean, µs.
    pub mean_us: f64,
    /// Median, µs.
    pub p50_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// Sample count.
    pub samples: u64,
}

/// Aggregates PSNR observations of sampled media over time.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct QualityTimeline {
    /// `(day, median PSNR dB, min PSNR dB, samples)` per measurement.
    pub points: Vec<(f64, f64, f64, u64)>,
}

impl QualityTimeline {
    /// Records one measurement round. Infinite PSNR (identical images)
    /// is capped at 99 dB for aggregation.
    pub fn record(&mut self, day: f64, mut psnrs: Vec<f64>) {
        if psnrs.is_empty() {
            return;
        }
        for value in psnrs.iter_mut() {
            *value = value.min(99.0);
        }
        psnrs.sort_by(f64::total_cmp);
        let median = psnrs[psnrs.len() / 2];
        let min = psnrs[0];
        self.points.push((day, median, min, psnrs.len() as u64));
    }

    /// The final median PSNR, if any measurement was taken.
    pub fn final_median(&self) -> Option<f64> {
        self.points.last().map(|&(_, median, _, _)| median)
    }

    /// The worst observed minimum across the timeline.
    pub fn worst_min(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, _, min, _)| min)
            .min_by(f64::total_cmp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_on_known_data() {
        let mut recorder = LatencyRecorder::new();
        for i in 1..=100 {
            recorder.record(i as f64);
        }
        assert_eq!(recorder.quantile(0.0), Some(1.0));
        assert_eq!(recorder.quantile(1.0), Some(100.0));
        let p50 = recorder.quantile(0.5).unwrap();
        assert!((49.0..=51.0).contains(&p50));
        assert!((recorder.mean().unwrap() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_recorder_returns_none() {
        let recorder = LatencyRecorder::new();
        assert!(recorder.quantile(0.5).is_none());
        assert!(recorder.mean().is_none());
        assert!(recorder.summary().is_none());
    }

    #[test]
    fn quality_timeline_tracks_median_and_min() {
        let mut timeline = QualityTimeline::default();
        timeline.record(1.0, vec![40.0, 35.0, 45.0]);
        timeline.record(2.0, vec![30.0, f64::INFINITY, 20.0]);
        assert_eq!(timeline.final_median(), Some(30.0));
        assert_eq!(timeline.worst_min(), Some(20.0));
        // Infinite PSNR capped.
        assert!(timeline.points[1].1 <= 99.0);
    }

    #[test]
    fn empty_psnr_round_is_skipped() {
        let mut timeline = QualityTimeline::default();
        timeline.record(1.0, vec![]);
        assert!(timeline.points.is_empty());
        assert!(timeline.final_median().is_none());
    }
}
