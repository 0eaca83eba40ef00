//! The background classification daemon (§4.4) and the auto-delete
//! recommender (§4.5).
//!
//! "The mechanism operates in the background as a privileged system
//! daemon, which performs a periodic review (e.g., daily) of new file
//! data." New files land on SYS (pseudo-QLC) first; once the daemon is
//! confident a file is low-priority it instructs the device to demote it
//! to SPARE (PLC). Demotion "errs on the side of caution" (§4.3): it
//! requires a confidence above `DEMOTE_THRESHOLD` and a minimum file
//! age ([`DaemonConfig::min_age_days`]).

use crate::eval::Confusion;
use crate::features::FeatureExtractor;
use crate::model::Classifier;
use serde::{Deserialize, Serialize};
use sos_workload::FileMeta;

/// Placement verdict for one file.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Placement {
    /// Keep on durable pseudo-QLC storage.
    Sys,
    /// Demote to degradable PLC storage.
    Spare,
}

/// Daemon policy knobs.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DaemonConfig {
    /// Minimum file age (days) before demotion is considered — fresh
    /// files are still hot and their access history is uninformative.
    pub min_age_days: f64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig { min_age_days: 3.0 }
    }
}

/// Minimum SPARE probability before demotion (err on the side of
/// caution: > 0.5).
const DEMOTE_THRESHOLD: f64 = 0.7;
/// Review period in days (§4.4: "a periodic review (e.g., daily)").
const REVIEW_PERIOD_DAYS: f64 = 1.0;

/// One demotion decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    /// The file reviewed.
    pub file: u64,
    /// Verdict.
    pub placement: Placement,
    /// Classifier confidence that the file is SPARE.
    pub spare_probability: f64,
}

/// The classification daemon.
pub struct Daemon<C: Classifier> {
    model: C,
    extractor: FeatureExtractor,
    config: DaemonConfig,
    last_review_day: f64,
}

impl<C: Classifier> Daemon<C> {
    /// Creates a daemon around a *trained* model.
    pub fn new(model: C, extractor: FeatureExtractor, config: DaemonConfig) -> Self {
        Daemon {
            model,
            extractor,
            config,
            last_review_day: f64::NEG_INFINITY,
        }
    }

    /// The policy configuration.
    pub fn config(&self) -> &DaemonConfig {
        &self.config
    }

    /// Whether a review is due at simulated day `now`.
    pub fn review_due(&self, now: f64) -> bool {
        now - self.last_review_day >= REVIEW_PERIOD_DAYS
    }

    /// Classifies one file.
    pub fn classify(&self, meta: &FileMeta, now: f64) -> Decision {
        let features = self.extractor.extract(meta, now);
        let probability = self.model.predict_proba(&features);
        let age = now - meta.created_day;
        let placement = if probability >= DEMOTE_THRESHOLD && age >= self.config.min_age_days {
            Placement::Spare
        } else {
            Placement::Sys
        };
        Decision {
            file: meta.id,
            placement,
            spare_probability: probability,
        }
    }

    /// Runs a periodic review over the current file population,
    /// returning the files that should be demoted to SPARE.
    pub fn review<'a, I>(&mut self, files: I, now: f64) -> Vec<Decision>
    where
        I: IntoIterator<Item = &'a FileMeta>,
    {
        self.last_review_day = now;
        files
            .into_iter()
            .map(|meta| self.classify(meta, now))
            .filter(|decision| decision.placement == Placement::Spare)
            .collect()
    }

    /// Ranks files for the §4.5 auto-delete fallback: under write-
    /// intensive wear SOS "proposes deletion recommendations to users".
    /// Returns file ids most-expendable-first, limited to files the
    /// model is confident are SPARE.
    pub fn deletion_recommendations<'a, I>(&self, files: I, now: f64) -> Vec<(u64, f64)>
    where
        I: IntoIterator<Item = &'a FileMeta>,
    {
        let mut scored: Vec<(u64, f64)> = files
            .into_iter()
            .filter_map(|meta| {
                let features = self.extractor.extract(meta, now);
                let probability = self.model.predict_proba(&features);
                if probability < DEMOTE_THRESHOLD {
                    return None;
                }
                let idle = (now - meta.last_access_day).max(0.0);
                // Expendability: confidently low-priority, long idle,
                // and large (deleting it frees more space).
                let score = probability * (1.0 + idle).ln() * (meta.size as f64).log2();
                Some((meta.id, score))
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores"));
        scored
    }

    /// Evaluates daemon placements against ground truth for a file
    /// population (used by experiment E8).
    pub fn evaluate<'a, I>(&self, files: I, now: f64) -> Confusion
    where
        I: IntoIterator<Item = &'a FileMeta>,
    {
        let mut confusion = Confusion::default();
        for meta in files {
            let decision = self.classify(meta, now);
            let predicted_spare = decision.placement == Placement::Spare;
            match (meta.ground_truth_spare(), predicted_spare) {
                (true, true) => confusion.true_positive += 1,
                (false, true) => confusion.false_positive += 1,
                (false, false) => confusion.true_negative += 1,
                (true, false) => confusion.false_negative += 1,
            }
        }
        confusion
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::multi_user_corpus;
    use crate::logreg::LogisticRegression;
    use sos_workload::FileClass;

    fn trained_daemon() -> Daemon<LogisticRegression> {
        let extractor = FeatureExtractor::default();
        let corpus = multi_user_corpus(&extractor, 2, 11);
        let mut model = LogisticRegression::default();
        model.train(&corpus.features, &corpus.labels);
        Daemon::new(model, extractor, DaemonConfig::default())
    }

    fn file(id: u64, class: FileClass, significance: f64, created: f64) -> FileMeta {
        FileMeta {
            id,
            class,
            size: class.median_size(),
            created_day: created,
            last_access_day: created,
            access_count: 1,
            update_count: 0,
            significance,
            path: format!(
                "{}/f{id}.{}",
                class.typical_path(),
                class.typical_extension()
            ),
        }
    }

    #[test]
    fn casual_old_media_is_demoted_and_system_files_are_not() {
        let mut daemon = trained_daemon();
        let now = 60.0;
        let casual = file(1, FileClass::PhotoCasual, 0.1, 10.0);
        let system = file(2, FileClass::OsSystem, 1.0, 10.0);
        let decisions = daemon.review([&casual, &system], now);
        let demoted: Vec<u64> = decisions.iter().map(|d| d.file).collect();
        assert!(demoted.contains(&1), "casual photo should be demoted");
        assert!(!demoted.contains(&2), "system file must stay on SYS");
    }

    #[test]
    fn fresh_files_are_not_demoted() {
        let daemon = trained_daemon();
        let now = 10.5;
        let fresh = file(3, FileClass::PhotoCasual, 0.1, 10.0);
        let decision = daemon.classify(&fresh, now);
        assert_eq!(decision.placement, Placement::Sys, "age gate must hold");
    }

    #[test]
    fn review_period_gates_reviews() {
        let mut daemon = trained_daemon();
        assert!(daemon.review_due(0.0));
        let _ = daemon.review(std::iter::empty(), 5.0);
        assert!(!daemon.review_due(5.5));
        assert!(daemon.review_due(6.0));
    }

    #[test]
    fn deletion_recommendations_are_ranked_and_filtered() {
        let daemon = trained_daemon();
        let now = 100.0;
        let mut big_idle = file(1, FileClass::VideoCasual, 0.1, 10.0);
        big_idle.last_access_day = 10.0;
        let mut small_recent = file(2, FileClass::PhotoCasual, 0.1, 10.0);
        small_recent.last_access_day = 99.0;
        let system = file(3, FileClass::OsSystem, 1.0, 10.0);
        let recs = daemon.deletion_recommendations([&big_idle, &small_recent, &system], now);
        let ids: Vec<u64> = recs.iter().map(|(id, _)| *id).collect();
        assert!(!ids.contains(&3), "system file must never be recommended");
        if ids.len() == 2 {
            assert_eq!(ids[0], 1, "big idle video ranks first: {recs:?}");
        } else {
            assert!(ids.contains(&1), "big idle video must be recommended");
        }
    }

    #[test]
    fn evaluation_accuracy_is_reasonable() {
        let daemon = trained_daemon();
        // Build an evaluation population directly from the workload.
        let extractor = FeatureExtractor::default();
        let _ = extractor;
        let mut files = Vec::new();
        for i in 0..50 {
            files.push(file(100 + i, FileClass::PhotoCasual, 0.15, 10.0));
            files.push(file(200 + i, FileClass::OsSystem, 1.0, 10.0));
        }
        let confusion = daemon.evaluate(files.iter(), 60.0);
        assert!(
            confusion.accuracy() > 0.7,
            "daemon accuracy {}",
            confusion.accuracy()
        );
    }
}
