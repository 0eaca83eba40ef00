//! Optional cloud backup: golden copies for repairing over-degraded
//! local data.
//!
//! §4.3: "SOS can opportunistically take advantage of such backups by
//! amending overly degraded local data copies through a cloud-backed
//! copy. However, SOS does not inherently rely on the existence of such
//! redundant copies." The backup covers a configurable fraction of
//! objects and is only reachable with a configurable probability
//! (connectivity), so experiments can sweep from "no backup" to "full
//! backup".

use crate::object::ObjectId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Cloud backup configuration.
#[derive(Debug, Clone, Copy)]
pub struct CloudConfig {
    /// Fraction of objects the user actually backs up.
    pub coverage: f64,
    /// Probability a fetch succeeds when attempted (connectivity /
    /// retention of the backup).
    pub availability: f64,
    /// RNG seed.
    pub seed: u64,
}

impl CloudConfig {
    /// No backup at all (SOS must stand alone).
    pub fn none() -> Self {
        CloudConfig {
            coverage: 0.0,
            availability: 0.0,
            seed: 0,
        }
    }
}

/// The backup store.
pub struct CloudBackup {
    config: CloudConfig,
    rng: StdRng,
    copies: HashMap<ObjectId, Vec<u8>>,
    /// Fetches attempted / succeeded (for reports).
    pub fetch_attempts: u64,
    /// Successful fetches.
    pub fetch_successes: u64,
}

impl CloudBackup {
    /// Creates a backup store.
    pub fn new(config: CloudConfig) -> Self {
        CloudBackup {
            rng: StdRng::seed_from_u64(config.seed),
            config,
            copies: HashMap::new(),
            fetch_attempts: 0,
            fetch_successes: 0,
        }
    }

    /// Called when an object is created: probabilistically backs it up
    /// (per-object coverage decision is sticky).
    pub fn maybe_backup(&mut self, id: ObjectId, bytes: &[u8]) {
        if self.config.coverage > 0.0 && self.rng.gen_bool(self.config.coverage.clamp(0.0, 1.0)) {
            self.copies.insert(id, bytes.to_vec());
        }
    }

    /// Called on updates: refreshes the copy if this object is covered.
    pub fn refresh(&mut self, id: ObjectId, bytes: &[u8]) {
        if let Some(copy) = self.copies.get_mut(&id) {
            *copy = bytes.to_vec();
        }
    }

    /// Drops the copy when the object is deleted locally.
    pub fn forget(&mut self, id: ObjectId) {
        self.copies.remove(&id);
    }

    /// Whether a golden copy exists (regardless of reachability).
    pub fn covered(&self, id: ObjectId) -> bool {
        self.copies.contains_key(&id)
    }

    /// Attempts to fetch a golden copy for repair.
    pub fn fetch(&mut self, id: ObjectId) -> Option<Vec<u8>> {
        self.fetch_attempts += 1;
        let copy = self.copies.get(&id)?;
        if self.rng.gen_bool(self.config.availability.clamp(0.0, 1.0)) {
            self.fetch_successes += 1;
            Some(copy.clone())
        } else {
            None
        }
    }

    /// Number of objects currently backed up.
    pub fn object_count(&self) -> usize {
        self.copies.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_config_backs_up_nothing() {
        let mut cloud = CloudBackup::new(CloudConfig::none());
        cloud.maybe_backup(1, &[1, 2, 3]);
        assert!(!cloud.covered(1));
        assert!(cloud.fetch(1).is_none());
    }

    #[test]
    fn full_coverage_repairs() {
        let mut cloud = CloudBackup::new(CloudConfig {
            coverage: 1.0,
            availability: 1.0,
            seed: 1,
        });
        cloud.maybe_backup(1, &[9u8; 10]);
        assert!(cloud.covered(1));
        assert_eq!(cloud.fetch(1).unwrap(), vec![9u8; 10]);
        assert_eq!(cloud.fetch_successes, 1);
    }

    #[test]
    fn refresh_updates_copy_only_if_covered() {
        let mut cloud = CloudBackup::new(CloudConfig {
            coverage: 1.0,
            availability: 1.0,
            seed: 2,
        });
        cloud.maybe_backup(1, &[1]);
        cloud.refresh(1, &[2]);
        assert_eq!(cloud.fetch(1).unwrap(), vec![2]);
        cloud.refresh(99, &[3]); // not covered: no-op
        assert!(!cloud.covered(99));
    }

    #[test]
    fn forget_removes_copy() {
        let mut cloud = CloudBackup::new(CloudConfig {
            coverage: 1.0,
            availability: 1.0,
            seed: 3,
        });
        cloud.maybe_backup(1, &[1]);
        cloud.forget(1);
        assert!(cloud.fetch(1).is_none());
    }

    #[test]
    fn partial_availability_sometimes_fails() {
        let mut cloud = CloudBackup::new(CloudConfig {
            coverage: 1.0,
            availability: 0.5,
            seed: 4,
        });
        cloud.maybe_backup(1, &[1]);
        let successes = (0..100).filter(|_| cloud.fetch(1).is_some()).count();
        assert!((20..80).contains(&successes), "successes {successes}");
    }

    #[test]
    fn partial_coverage_is_sticky() {
        let mut cloud = CloudBackup::new(CloudConfig {
            coverage: 0.5,
            availability: 1.0,
            seed: 5,
        });
        for id in 0..200 {
            cloud.maybe_backup(id, &[id as u8]);
        }
        let covered = cloud.object_count();
        assert!((60..140).contains(&covered), "covered {covered}");
        // Covered objects stay covered.
        for id in 0..200 {
            if cloud.covered(id) {
                assert!(cloud.fetch(id).is_some());
            }
        }
    }
}
