//! Deterministic fault injection.
//!
//! A [`FaultInjector`] attaches to a [`FlashDevice`](crate::FlashDevice)
//! and fires scheduled faults — failing the Nth program or erase,
//! injecting transient read errors, or cutting power mid-program so the
//! in-flight page is left torn. Scheduling is by the injector's own
//! operation counter or by simulated day; randomness comes from a seeded
//! RNG, never a wall clock, so every fault sequence replays exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The device operation a fault hook is consulted about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// A page program.
    Program,
    /// A block erase.
    Erase,
    /// A page read.
    Read,
}

/// What a fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The next eligible program fails and retires its block, exactly
    /// like a deep-wear program failure.
    FailProgram,
    /// The next eligible erase fails and retires its block.
    FailErase,
    /// The next eligible read sees this many extra transient bit flips
    /// on top of whatever the error model injects.
    ReadNoise {
        /// Extra bit flips to inject.
        bits: u32,
    },
    /// Power is cut at the next operation. A program in flight leaves a
    /// torn page (stored with a bad OOB CRC); every later operation
    /// returns [`FlashError::PowerLoss`](crate::FlashError::PowerLoss)
    /// until [`FlashDevice::power_cycle`](crate::FlashDevice::power_cycle).
    PowerCut,
}

impl FaultKind {
    fn applies_to(self, op: FaultOp) -> bool {
        match self {
            FaultKind::FailProgram => op == FaultOp::Program,
            FaultKind::FailErase => op == FaultOp::Erase,
            FaultKind::ReadNoise { .. } => op == FaultOp::Read,
            FaultKind::PowerCut => true,
        }
    }
}

/// When a fault becomes due. A due fault fires at the first subsequent
/// operation its kind applies to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAt {
    /// Due once the injector has observed this many operations
    /// (programs + erases + reads, counted from attachment).
    OpCount(u64),
    /// Due once the simulated clock reaches this day.
    Day(f64),
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// What happens.
    pub kind: FaultKind,
    /// When it becomes due.
    pub at: FaultAt,
}

/// Deterministic fault scheduler for a flash device.
#[derive(Debug)]
pub struct FaultInjector {
    rng: StdRng,
    plans: Vec<FaultPlan>,
    op_count: u64,
}

impl FaultInjector {
    /// A new injector with no faults armed. The seed drives only the
    /// fault payloads (which bits a `ReadNoise` flips, how a torn page's
    /// contents are scrambled); scheduling is exact.
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            rng: StdRng::seed_from_u64(seed),
            plans: Vec::new(),
            op_count: 0,
        }
    }

    /// Arms a fault. Multiple faults may be armed; each fires once, at
    /// the first applicable operation after it becomes due.
    pub fn arm(&mut self, plan: FaultPlan) {
        self.plans.push(plan);
    }

    /// Drops every fault still armed.
    pub fn disarm(&mut self) {
        self.plans.clear();
    }

    /// Operations observed since the injector was attached.
    pub fn op_count(&self) -> u64 {
        self.op_count
    }

    /// Faults still armed.
    pub fn pending(&self) -> &[FaultPlan] {
        &self.plans
    }

    /// Called by the device before each operation; returns the fault to
    /// apply, if one is due.
    pub(crate) fn on_op(&mut self, op: FaultOp, day: f64) -> Option<FaultKind> {
        self.op_count += 1;
        let due = |plan: &FaultPlan| match plan.at {
            FaultAt::OpCount(n) => self.op_count >= n,
            FaultAt::Day(d) => day >= d,
        };
        let index = self
            .plans
            .iter()
            .position(|plan| plan.kind.applies_to(op) && due(plan))?;
        Some(self.plans.swap_remove(index).kind)
    }

    /// Flips `bits` random bit positions in `data` (transient read
    /// noise), returning the flipped positions.
    pub(crate) fn flip_bits(&mut self, data: &mut [u8], bits: u32) -> Vec<usize> {
        let nbits = data.len() * 8;
        let mut positions = Vec::with_capacity(bits as usize);
        for _ in 0..bits {
            let bit = self.rng.gen_range(0..nbits);
            if let Some(byte) = data.get_mut(bit / 8) {
                *byte ^= 1 << (bit % 8);
            }
            positions.push(bit);
        }
        positions
    }

    /// Scrambles the tail of a torn page's payload: a program cut
    /// partway through leaves later cells only partially charged.
    pub(crate) fn tear_data(&mut self, data: &mut [u8]) {
        if data.is_empty() {
            return;
        }
        let cut = self.rng.gen_range(0..data.len());
        for byte in data.iter_mut().skip(cut) {
            *byte ^= self.rng.gen::<u8>();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_fires_once_at_op_count() {
        let mut inj = FaultInjector::new(1);
        inj.arm(FaultPlan {
            kind: FaultKind::PowerCut,
            at: FaultAt::OpCount(3),
        });
        assert_eq!(inj.on_op(FaultOp::Program, 0.0), None);
        assert_eq!(inj.on_op(FaultOp::Read, 0.0), None);
        assert_eq!(inj.on_op(FaultOp::Program, 0.0), Some(FaultKind::PowerCut));
        assert_eq!(inj.on_op(FaultOp::Program, 0.0), None);
        assert!(inj.pending().is_empty());
    }

    #[test]
    fn fault_waits_for_applicable_op() {
        let mut inj = FaultInjector::new(1);
        inj.arm(FaultPlan {
            kind: FaultKind::FailErase,
            at: FaultAt::OpCount(1),
        });
        // Due immediately, but only an erase can trigger it.
        assert_eq!(inj.on_op(FaultOp::Program, 0.0), None);
        assert_eq!(inj.on_op(FaultOp::Read, 0.0), None);
        assert_eq!(inj.on_op(FaultOp::Erase, 0.0), Some(FaultKind::FailErase));
    }

    #[test]
    fn day_scheduled_fault_fires_when_clock_reaches() {
        let mut inj = FaultInjector::new(1);
        inj.arm(FaultPlan {
            kind: FaultKind::PowerCut,
            at: FaultAt::Day(5.0),
        });
        assert_eq!(inj.on_op(FaultOp::Program, 4.9), None);
        assert_eq!(inj.on_op(FaultOp::Program, 5.0), Some(FaultKind::PowerCut));
    }

    #[test]
    fn flip_bits_is_deterministic_per_seed() {
        let mut a = FaultInjector::new(9);
        let mut b = FaultInjector::new(9);
        let mut buf_a = vec![0u8; 64];
        let mut buf_b = vec![0u8; 64];
        assert_eq!(a.flip_bits(&mut buf_a, 8), b.flip_bits(&mut buf_b, 8));
        assert_eq!(buf_a, buf_b);
    }
}
