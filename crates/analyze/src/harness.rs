//! Audited harnesses: per-operation FTL auditing for tests and
//! interval auditing for long simulations.
//!
//! [`AuditedFtl`] wraps an [`Ftl`] and re-audits the full state after
//! every mutating operation. [`run_audited_days`] drives an
//! [`SosController`] for a number of simulated days, auditing the whole
//! device at a configurable day interval — cheap enough to leave on in
//! long experiments.

use crate::auditors::{FtlAuditorSet, PlacementAuditor};
use crate::{StateAuditor, Violation};
use sos_classify::Classifier;
use sos_core::{CoreState, Partition, RemountReport, SosController, SosDevice};
use sos_flash::{FaultAt, FaultKind, FaultPlan, FlashError};
use sos_ftl::{Ftl, FtlError, ReadResult, ScrubReport, SlotSnapshot};

/// A violation tagged with the state it was found in (`"sys"`,
/// `"spare"`, `"core"`, or `"ftl"` for a bare [`AuditedFtl`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AuditFinding {
    /// Which snapshot the violation was found in.
    pub source: &'static str,
    /// The violation itself.
    pub violation: Violation,
}

impl std::fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.source, self.violation)
    }
}

/// All auditors needed for a whole SOS device: one FTL set per
/// partition plus the placement/parity rules.
#[derive(Debug, Default)]
pub struct CoreAuditorSet {
    sys: FtlAuditorSet,
    spare: FtlAuditorSet,
    placement: PlacementAuditor,
}

impl CoreAuditorSet {
    /// A fresh set with no snapshot history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Audits one device snapshot, tagging violations by partition.
    pub fn audit(&mut self, state: &CoreState) -> Vec<AuditFinding> {
        let mut findings: Vec<AuditFinding> = self
            .sys
            .audit(&state.sys)
            .into_iter()
            .map(|violation| AuditFinding {
                source: "sys",
                violation,
            })
            .collect();
        findings.extend(
            self.spare
                .audit(&state.spare)
                .into_iter()
                .map(|violation| AuditFinding {
                    source: "spare",
                    violation,
                }),
        );
        findings.extend(
            self.placement
                .audit(state)
                .into_iter()
                .map(|violation| AuditFinding {
                    source: "core",
                    violation,
                }),
        );
        findings
    }
}

/// An FTL wrapper that audits the complete state after every operation.
///
/// Intended for tests: violations accumulate in [`AuditedFtl::violations`]
/// instead of panicking, so a test decides how strictly to react.
#[derive(Debug)]
pub struct AuditedFtl {
    ftl: Ftl,
    auditors: FtlAuditorSet,
    /// Violations found so far, in operation order.
    pub violations: Vec<Violation>,
}

impl AuditedFtl {
    /// Wraps an FTL, auditing its (clean) initial state.
    pub fn new(ftl: Ftl) -> Self {
        let mut audited = AuditedFtl {
            ftl,
            auditors: FtlAuditorSet::new(),
            violations: Vec::new(),
        };
        audited.check();
        audited
    }

    fn check(&mut self) {
        let state = self.ftl.audit_snapshot();
        self.violations.extend(self.auditors.audit(&state));
    }

    /// Read access to the wrapped FTL.
    pub fn inner(&self) -> &Ftl {
        &self.ftl
    }

    /// Unwraps back into the plain FTL, discarding audit state.
    pub fn into_inner(self) -> Ftl {
        self.ftl
    }

    /// Drains the violations collected so far.
    pub fn take_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }

    /// [`Ftl::write`], followed by a full audit.
    pub fn write(&mut self, lpn: u64, data: &[u8]) -> Result<f64, FtlError> {
        let result = self.ftl.write(lpn, data);
        self.check();
        result
    }

    /// [`Ftl::read`], followed by a full audit (reads mutate statistics
    /// and can surface lost data).
    pub fn read(&mut self, lpn: u64) -> Result<ReadResult, FtlError> {
        let result = self.ftl.read(lpn);
        self.check();
        result
    }

    /// [`Ftl::trim`], followed by a full audit.
    pub fn trim(&mut self, lpn: u64) -> Result<(), FtlError> {
        let result = self.ftl.trim(lpn);
        self.check();
        result
    }

    /// [`Ftl::scrub`], followed by a full audit.
    pub fn scrub(&mut self) -> Result<ScrubReport, FtlError> {
        let result = self.ftl.scrub();
        self.check();
        result
    }

    /// [`Ftl::advance_days`] (no audit needed: time alone moves no
    /// mapping state, only the error clock).
    pub fn advance_days(&mut self, days: f64) {
        self.ftl.advance_days(days);
    }
}

/// Runs an SOS-device simulation for `days`, auditing the whole device
/// every `interval_days` (0 audits only at the end). Returns all tagged
/// findings; a healthy run returns an empty vector.
///
/// The run is fully deterministic: every source of randomness is the
/// seed baked into the controller's device and workload configuration
/// at construction time, so re-building the controller from the same
/// seeds replays the identical simulation. Bench binaries wire those
/// seeds to [`seed_from_env`] so any run can be reproduced from the
/// command line.
pub fn run_audited_days<C: Classifier>(
    controller: &mut SosController<SosDevice, C>,
    days: u64,
    interval_days: u64,
) -> Vec<AuditFinding> {
    let mut auditors = CoreAuditorSet::new();
    let mut findings = Vec::new();
    for day in 1..=days {
        controller.run_day();
        if interval_days != 0 && day.is_multiple_of(interval_days) {
            findings.extend(auditors.audit(&controller.device.audit_snapshot()));
        }
    }
    if interval_days == 0 || days == 0 || !days.is_multiple_of(interval_days) {
        findings.extend(auditors.audit(&controller.device.audit_snapshot()));
    }
    findings
}

/// Checks that a crash-and-remount cycle rebuilt the device to exactly
/// the pre-crash state minus the *declared* crash window.
///
/// Three rules, compared across the pre-crash snapshot, the
/// post-recovery snapshot, and the [`RemountReport`]:
///
/// 1. **Directory stability** — every object in the pre-crash directory
///    is still present with the same partition, placement, and length
///    (host metadata is modelled as crash-safe).
/// 2. **Repair or declare** — every page the directory references is
///    either mapped after recovery (intact or parity-rebuilt) or listed
///    in the report's `sys_lost`/`spare_lost`. Silent loss is a
///    violation.
/// 3. **Torn pages stay dead** — a page left torn by the power cut (bad
///    OOB CRC) must never be mapped as valid data afterwards, unless
///    its block was erased and legitimately reprogrammed in the
///    meantime (detected via the block's program/erase count).
#[derive(Debug, Default)]
pub struct RecoveryAuditor;

impl RecoveryAuditor {
    /// A short, stable name for reports (mirrors [`StateAuditor`]).
    pub fn name(&self) -> &'static str {
        "recovery"
    }

    /// Audits one crash-and-remount cycle.
    pub fn audit_remount(
        before: &CoreState,
        after: &CoreState,
        report: &RemountReport,
    ) -> Vec<Violation> {
        let mut violations = Vec::new();

        // Rule 1: the directory survives the crash unchanged.
        for pre in &before.objects {
            match after.objects.iter().find(|post| post.id == pre.id) {
                None => violations.push(Violation::RemountObjectMismatch {
                    id: pre.id,
                    detail: "object vanished across remount".to_string(),
                }),
                Some(post) => {
                    if post.partition != pre.partition
                        || post.lpns != pre.lpns
                        || post.len != pre.len
                    {
                        violations.push(Violation::RemountObjectMismatch {
                            id: pre.id,
                            detail: format!(
                                "placement changed: {:?}/{} pages/{} bytes -> {:?}/{} pages/{} bytes",
                                pre.partition,
                                pre.lpns.len(),
                                pre.len,
                                post.partition,
                                post.lpns.len(),
                                post.len
                            ),
                        });
                    }
                }
            }
        }

        // Rule 2: every referenced page is recovered or declared lost.
        for object in &after.objects {
            let (state, lost, partition) = match object.partition {
                Partition::Sys => (&after.sys, &report.sys_lost, "sys"),
                Partition::Spare => (&after.spare, &report.spare_lost, "spare"),
            };
            for &lpn in &object.lpns {
                let mapped = matches!(state.l2p.get(lpn as usize), Some(SlotSnapshot::Mapped(_)));
                let declared = lost.iter().any(|&(id, l)| id == object.id && l == lpn);
                if !mapped && !declared {
                    violations.push(Violation::UnreportedCrashLoss {
                        partition,
                        id: object.id,
                        lpn,
                    });
                }
            }
        }

        // Rule 3: torn pages never resurface as valid data. A torn
        // location may be legitimately remapped only after its block is
        // erased and reprogrammed (repair/parity writes during the
        // remount can trigger GC), which shows up as a PEC increase.
        for (partition, pre, post, recovery) in [
            ("sys", &before.sys, &after.sys, &report.sys),
            ("spare", &before.spare, &after.spare, &report.spare),
        ] {
            for &torn in &recovery.torn_pages {
                let block = torn / post.pages_per_block as u64;
                let pec = |state: &sos_ftl::FtlState| {
                    state
                        .device
                        .iter()
                        .find(|snapshot| snapshot.block == block)
                        .map(|snapshot| snapshot.pec)
                };
                if pec(pre) != pec(post) {
                    continue;
                }
                for (lpn, slot) in post.l2p.iter().enumerate() {
                    if *slot == SlotSnapshot::Mapped(torn) {
                        violations.push(Violation::TornPageResurfaced {
                            partition,
                            location: torn,
                            lpn: lpn as u64,
                        });
                    }
                }
            }
        }

        violations
    }
}

/// Aggregate outcome of a crash sweep ([`run_crashy_days`]).
#[derive(Debug, Clone, Default)]
pub struct CrashSweepReport {
    /// Simulated days driven.
    pub days: u64,
    /// Power cuts that fired (each followed by a full remount).
    pub crashes: u64,
    /// Checkpoints taken between days.
    pub checkpoints: u64,
    /// Every auditor finding, tagged with its source snapshot
    /// (`"recovery"` for the remount checks). Empty on a healthy sweep.
    pub findings: Vec<AuditFinding>,
    /// SYS pages lost in crash windows and rebuilt from stripe parity.
    pub sys_repaired: u64,
    /// SYS pages lost beyond parity's reach (declared, counted here).
    pub sys_lost: u64,
    /// SPARE pages lost in crash windows (tolerated and declared).
    pub spare_lost: u64,
    /// Torn pages found by recovery scans (programs cut mid-flight).
    pub torn_pages: u64,
    /// Volatile trims resurrected by recovery and re-trimmed at remount.
    pub resurrected_trimmed: u64,
}

impl CrashSweepReport {
    /// Adds another sweep's counts to this one and appends its
    /// findings (summing shards or consecutive chunks of one sweep).
    pub fn absorb(&mut self, other: CrashSweepReport) {
        self.days += other.days;
        self.crashes += other.crashes;
        self.checkpoints += other.checkpoints;
        self.findings.extend(other.findings);
        self.sys_repaired += other.sys_repaired;
        self.sys_lost += other.sys_lost;
        self.spare_lost += other.spare_lost;
        self.torn_pages += other.torn_pages;
        self.resurrected_trimmed += other.resurrected_trimmed;
    }
}

/// Remounts the device after a power cut and audits the rebuild.
fn remount_and_audit<C: Classifier>(
    controller: &mut SosController<SosDevice, C>,
    auditors: &mut CoreAuditorSet,
    report: &mut CrashSweepReport,
) -> Result<(), FtlError> {
    report.crashes += 1;
    let before = controller.device.audit_snapshot();
    let remount = controller.device.recover_in_place()?;
    let after = controller.device.audit_snapshot();
    report.findings.extend(
        RecoveryAuditor::audit_remount(&before, &after, &remount)
            .into_iter()
            .map(|violation| AuditFinding {
                source: "recovery",
                violation,
            }),
    );
    // Recovery rebuilds wear and GC statistics from scratch, so the
    // stateful auditors must not compare across the remount: start a
    // fresh set and re-baseline it on the recovered snapshot.
    *auditors = CoreAuditorSet::new();
    report.findings.extend(auditors.audit(&after));
    report.sys_repaired += remount.sys_repaired;
    report.sys_lost += remount.sys_lost.len() as u64;
    report.spare_lost += remount.spare_lost.len() as u64;
    report.torn_pages += (remount.sys.torn_pages.len() + remount.spare.torn_pages.len()) as u64;
    report.resurrected_trimmed += remount.resurrected_trimmed;
    controller.clear_crashed();
    Ok(())
}

/// Runs an SOS-device simulation for `days`, cutting power at a
/// scheduled device operation every day and remounting through the full
/// recovery path each time.
///
/// Each day a [`FaultKind::PowerCut`] is armed a small, seed-derived
/// number of operations (1..=101) into the day, alternating between the
/// SYS and SPARE partitions; over hundreds of days the cut lands on
/// essentially every operation offset of the daily op stream. After a
/// crash the device is remounted via
/// [`SosDevice::recover_in_place`](sos_core::SosDevice::recover_in_place)
/// and audited: the [`RecoveryAuditor`] checks the rebuild against the
/// pre-crash snapshot, then a fresh [`CoreAuditorSet`] re-verifies every
/// standing invariant. Checkpoints are taken every
/// `checkpoint_interval_days` (0 never checkpoints, forcing full-device
/// recovery scans); a cut can land inside the checkpoint write itself,
/// which the generational checkpoint format must survive.
///
/// `seed` drives the crash schedule (the per-day op offsets) and the
/// injector's fault payloads (how torn pages are scrambled). The
/// workload's own randomness comes from the controller's construction
/// seeds, so the same controller setup plus the same `seed` replays the
/// identical crash sequence — pair with [`seed_from_env`] to make runs
/// reproducible from the command line.
///
/// # Errors
///
/// Propagates any [`FtlError`] from recovery or checkpointing other
/// than the injected power loss itself; a healthy sweep returns a
/// report with an empty `findings` vector.
pub fn run_crashy_days<C: Classifier>(
    controller: &mut SosController<SosDevice, C>,
    days: u64,
    checkpoint_interval_days: u64,
    seed: u64,
) -> Result<CrashSweepReport, FtlError> {
    let mut auditors = CoreAuditorSet::new();
    let mut report = CrashSweepReport {
        days,
        ..CrashSweepReport::default()
    };
    let mut target = Partition::Sys;
    // xorshift64: cheap, deterministic op-offset schedule.
    let mut rng = seed | 1;
    for day in 1..=days {
        // Arm the day's power cut unless one is still pending from a
        // quiet day (a cut armed on a partition that then saw no
        // traffic fires at that partition's next operation instead).
        let pending = controller
            .device
            .partition(target)
            .ftl
            .injector()
            .is_some_and(|injector| !injector.pending().is_empty());
        if !pending {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let offset = 1 + rng % 101;
            let at = controller.device.injector_op_count(target) + offset;
            controller.device.arm_fault(
                target,
                FaultPlan {
                    kind: FaultKind::PowerCut,
                    at: FaultAt::OpCount(at),
                },
                seed.wrapping_add(day),
            );
        }
        controller.run_day();
        if controller.crashed() {
            remount_and_audit(controller, &mut auditors, &mut report)?;
            target = match target {
                Partition::Sys => Partition::Spare,
                Partition::Spare => Partition::Sys,
            };
        } else {
            report
                .findings
                .extend(auditors.audit(&controller.device.audit_snapshot()));
        }
        if checkpoint_interval_days != 0 && day.is_multiple_of(checkpoint_interval_days) {
            match controller.device.checkpoint() {
                Ok(()) => report.checkpoints += 1,
                // The armed cut landed inside the checkpoint write
                // itself; the generational format falls back to the
                // previous checkpoint at recovery.
                Err(FtlError::Device(FlashError::PowerLoss)) => {
                    remount_and_audit(controller, &mut auditors, &mut report)?;
                    target = match target {
                        Partition::Sys => Partition::Spare,
                        Partition::Spare => Partition::Sys,
                    };
                }
                Err(e) => return Err(e),
            }
        }
    }
    Ok(report)
}

/// Parses an optional replay input — a positional argument or the
/// `SOS_SEED` value: `Ok(None)` when it is absent, `Ok(Some(value))`
/// when it parses, and an error naming `what` when it is present but
/// malformed.
fn parse_input<T: std::str::FromStr>(what: &str, raw: Option<&str>) -> Result<Option<T>, String> {
    raw.map(|text| {
        text.trim()
            .parse()
            .map_err(|_| format!("malformed {what}: {text:?}"))
    })
    .transpose()
}

/// [`parse_input`] for a binary's `main`: a malformed input prints the
/// error and `usage` to stderr and exits with status 2, so a typo never
/// silently runs the defaults.
fn input_or_exit<T: std::str::FromStr>(what: &str, raw: Option<&str>, usage: &str) -> Option<T> {
    parse_input(what, raw).unwrap_or_else(|message| {
        eprintln!("{message}\nusage: {usage}");
        std::process::exit(2)
    })
}

/// Reads positional argument `position` (1-based) as `what`: `None`
/// when absent; exits with status 2 after printing `usage` when it does
/// not parse.
pub fn arg_or_exit<T: std::str::FromStr>(position: usize, what: &str, usage: &str) -> Option<T> {
    input_or_exit(what, std::env::args().nth(position).as_deref(), usage)
}

/// Reads the harness seed from the `SOS_SEED` environment variable
/// (decimal), falling back to `default` when unset. A set but
/// unparsable value prints a usage line and exits with status 2.
///
/// The bench binaries thread this through device, workload, and crash
/// schedules, so any logged run can be replayed exactly:
/// `SOS_SEED=42 cargo run --release --bin exp_crash_sweep`.
pub fn seed_from_env(default: u64) -> u64 {
    let raw = std::env::var("SOS_SEED").ok();
    input_or_exit("SOS_SEED", raw.as_deref(), "SOS_SEED=<u64> <binary> [args]").unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::parse_input;

    #[test]
    fn parse_input_handles_unset_valid_and_malformed_values() {
        assert_eq!(parse_input::<u64>("SOS_SEED", None), Ok(None));
        assert_eq!(
            parse_input::<u64>("SOS_SEED", Some("18446744073709551557")),
            Ok(Some(18_446_744_073_709_551_557))
        );
        assert_eq!(parse_input::<u32>("days", Some(" 30 ")), Ok(Some(30)));
        let error = parse_input::<u32>("days", Some("3O")).unwrap_err();
        assert!(error.contains("days") && error.contains("3O"), "{error}");
        assert!(parse_input::<u64>("SOS_SEED", Some("")).is_err());
        assert!(parse_input::<u32>("days", Some("-1")).is_err());
    }
}
