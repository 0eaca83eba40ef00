//! The crash-sweep harness: [`run_crashy_days`] drives an
//! [`SosController`] day by day, cuts power at scheduled device
//! operations, remounts through the recovery path, and audits the whole
//! device with a [`CoreAuditorSet`] after every uncut day and a
//! [`RecoveryAuditor`] after every remount. Also the replay inputs the
//! bench binaries share ([`seed_from_env`], [`arg_or_exit`]).

use crate::auditors::{FtlAuditorSet, PlacementAuditor};
use crate::{StateAuditor, Violation};
use sos_classify::Classifier;
use sos_core::{CoreState, ObjectError, Partition, RemountReport, SosController, SosDevice};
use sos_flash::{FaultAt, FaultKind, FaultPlan, FlashError};
use sos_ftl::{FtlError, SlotSnapshot};

/// A violation tagged with the state it was found in (`"sys"`,
/// `"spare"`, `"core"`, or `"recovery"` for the remount checks).
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
        let mut findings: Vec<AuditFinding> = tag("sys", self.sys.audit(&state.sys)).collect();
        findings.extend(tag("spare", self.spare.audit(&state.spare)));
        findings.extend(tag("core", self.placement.audit(state)));
        findings
    }
}

/// Tags each violation with the snapshot it was found in.
fn tag(source: &'static str, violations: Vec<Violation>) -> impl Iterator<Item = AuditFinding> {
    violations
        .into_iter()
        .map(move |violation| AuditFinding { source, violation })
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
    /// Power cuts that fired during a day or a checkpoint (each
    /// followed by a full remount).
    pub crashes: u64,
    /// Power cuts that fired inside a remount (each followed by a
    /// retried remount).
    pub recovery_cuts: u64,
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
    /// findings (summing the shards of one sweep).
    pub fn absorb(&mut self, other: CrashSweepReport) {
        self.days += other.days;
        self.crashes += other.crashes;
        self.recovery_cuts += other.recovery_cuts;
        self.checkpoints += other.checkpoints;
        self.findings.extend(other.findings);
        self.sys_repaired += other.sys_repaired;
        self.sys_lost += other.sys_lost;
        self.spare_lost += other.spare_lost;
        self.torn_pages += other.torn_pages;
        self.resurrected_trimmed += other.resurrected_trimmed;
    }
}

/// The sweep's power cuts: xorshift64 draws of operation offsets.
struct CutSchedule {
    rng: u64,
    seed: u64,
}

impl CutSchedule {
    /// Arms a power cut `1..=span` operations ahead, on SYS when `turn`
    /// is even and on SPARE when it is odd.
    fn arm(&mut self, device: &mut SosDevice, turn: u64, span: u64) {
        let partition = match turn % 2 {
            0 => Partition::Sys,
            _ => Partition::Spare,
        };
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let at = device.injector_op_count(partition) + 1 + self.rng % span;
        let plan = FaultPlan {
            kind: FaultKind::PowerCut,
            at: FaultAt::OpCount(at),
        };
        device.arm_fault(partition, plan, self.seed);
    }
}

/// The remount loop: arms one cut 1..=40 operations into the recovery,
/// calls [`SosDevice::recover_in_place`] again after each cut that fires
/// inside it, then audits the state that finally comes up against the
/// one pre-crash snapshot.
fn remount_and_audit<C: Classifier>(
    controller: &mut SosController<SosDevice, C>,
    auditors: &mut CoreAuditorSet,
    report: &mut CrashSweepReport,
    cuts: &mut CutSchedule,
) -> Result<(), ObjectError> {
    report.crashes += 1;
    let before = controller.device.audit_snapshot();
    // Halving the count pairs the recovery's cut with both kinds of day
    // cut on each partition.
    cuts.arm(&mut controller.device, report.crashes / 2, 40);
    let remount = loop {
        match controller.device.recover_in_place() {
            Ok(remount) => break remount,
            Err(FtlError::Device(FlashError::PowerLoss)) => report.recovery_cuts += 1,
            Err(error) => return Err(error.into()),
        }
    };
    let after = controller.device.audit_snapshot();
    let violations = RecoveryAuditor::audit_remount(&before, &after, &remount);
    report.findings.extend(tag("recovery", violations));
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
/// scheduled device operation and remounting through the full recovery
/// path after every cut. Every crash sweep runs through it.
///
/// Each day a [`FaultKind::PowerCut`] is armed a seed-derived 1..=101
/// operations into the day, unless a cut is still pending on either
/// partition; it lands on SYS after an even number of crashes and on
/// SPARE after an odd one. After each crash the remount loop arms a
/// second cut inside the recovery (a cut that does not fire there
/// stays pending for a later day), retries the remount after it, and
/// audits the result: the [`RecoveryAuditor`] checks the rebuild
/// against the pre-crash snapshot, then a fresh [`CoreAuditorSet`]
/// re-verifies every standing invariant. Checkpoints are taken every
/// `checkpoint_interval_days` (0 never checkpoints, forcing full-device
/// recovery scans); a pending cut can land inside the checkpoint write
/// itself, which the generational checkpoint format must survive. No
/// cut is left armed when the sweep returns.
///
/// `seed` drives the cut schedule and the injector's fault payloads
/// (how torn pages are scrambled). The workload's own randomness comes
/// from the controller's construction seeds, so the same controller
/// setup plus the same `seed` replays the identical crash sequence —
/// pair with [`seed_from_env`] to make runs reproducible from the
/// command line.
///
/// # Errors
///
/// Returns the error of a day that halted on anything but a power loss,
/// and any error from recovery or checkpointing other than the injected
/// power loss itself; a healthy sweep returns a report with an empty
/// `findings` vector.
pub fn run_crashy_days<C: Classifier>(
    controller: &mut SosController<SosDevice, C>,
    days: u64,
    checkpoint_interval_days: u64,
    seed: u64,
) -> Result<CrashSweepReport, ObjectError> {
    let mut auditors = CoreAuditorSet::new();
    let mut report = CrashSweepReport {
        days,
        ..CrashSweepReport::default()
    };
    let mut cuts = CutSchedule {
        rng: seed | 1,
        seed,
    };
    for day in 1..=days {
        let pending = [Partition::Sys, Partition::Spare]
            .into_iter()
            .any(|partition| {
                controller
                    .device
                    .partition(partition)
                    .ftl
                    .injector()
                    .is_some_and(|injector| !injector.pending().is_empty())
            });
        if !pending {
            cuts.arm(&mut controller.device, report.crashes, 101);
        }
        controller.run_day();
        match controller.halt() {
            None => report
                .findings
                .extend(auditors.audit(&controller.device.audit_snapshot())),
            Some(ObjectError::PowerLoss) => {
                remount_and_audit(controller, &mut auditors, &mut report, &mut cuts)?
            }
            Some(error) => return Err(error.clone()),
        }
        if checkpoint_interval_days != 0 && day.is_multiple_of(checkpoint_interval_days) {
            match controller.device.checkpoint() {
                Ok(()) => report.checkpoints += 1,
                // The cut landed inside the checkpoint write itself; the
                // generational format falls back to the previous
                // checkpoint at recovery.
                Err(FtlError::Device(FlashError::PowerLoss)) => {
                    remount_and_audit(controller, &mut auditors, &mut report, &mut cuts)?
                }
                Err(error) => return Err(error.into()),
            }
        }
    }
    controller.device.disarm_faults();
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
