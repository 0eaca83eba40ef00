//! # sos-analyze — invariant auditors and a repo-specific lint runner
//!
//! Static and dynamic analysis for the SOS reproduction of *"Degrading
//! Data to Save the Planet"* (HotOS '23). Three layers:
//!
//! * **Invariant auditors** ([`auditors`]) — walk read-only snapshots of
//!   simulator state ([`sos_ftl::FtlState`], [`sos_core::CoreState`])
//!   and verify translation-layer and partition invariants: L2P
//!   injectivity, valid-page accounting, NAND erase-before-program
//!   discipline, wear monotonicity, SYS/SPARE placement and parity
//!   coverage, and GC live-data conservation. Auditors return structured
//!   [`Violation`] reports; they never panic.
//! * **Crash-sweep harness** ([`harness`]) — [`run_crashy_days`] drives
//!   an [`sos_core::SosController`] simulation, cuts power at a
//!   scheduled device operation every day, remounts via the recovery
//!   path, and re-runs every auditor (through [`CoreAuditorSet`]) after
//!   each uncut day, plus the [`RecoveryAuditor`] after each remount
//!   (rebuilt state must equal the pre-crash state minus the *declared*
//!   crash window).
//! * **Static analysis** ([`parse`], [`lint`], [`callgraph`],
//!   [`panicpath`], [`determinism`], `sos-lint` binary) — a spanned
//!   Rust lexer and item extractor feed the lint rules (no lossy `as`
//!   casts in `sos-flash`/`sos-ftl`, no malformed or unknown-rule
//!   suppressions; the rules rustc and clippy already have are set in
//!   the workspace `Cargo.toml` and `clippy.toml`), the **panic-freedom
//!   pass** (a workspace call graph walked from the recovery entry
//!   points — `Ftl::recover`, GC, scrub, remount — flagging every
//!   reachable panicking construct with its call chain), and the
//!   **determinism pass** (the same graph walked from the
//!   experiment/runner entry points, flagging every reachable
//!   nondeterminism source: map iteration, wall clock,
//!   undeclared env reads, thread identity, entropy-seeded RNGs,
//!   unordered float reduction). Residual risks are suppressed inline
//!   with a mandatory written justification. [`analyze`] runs all three
//!   over one call graph into one [`JsonReport`], which `sos-lint`
//!   prints as text or, with `--format json`, as JSON ([`report`]).

pub mod auditors;
pub mod callgraph;
pub mod determinism;
pub mod harness;
pub mod lint;
pub mod panicpath;
pub mod parse;
pub mod report;
pub mod suppress;

pub use auditors::{
    EraseDisciplineAuditor, FtlAuditorSet, GcConservationAuditor, L2pInjectivityAuditor,
    PlacementAuditor, ValidCountAuditor, WearMonotonicityAuditor,
};
pub use callgraph::{CallGraph, EntryPoint};
pub use determinism::{run_determinism, NondetSource, DETERMINISTIC_ENTRY_POINTS};
pub use harness::{
    arg_or_exit, run_crashy_days, seed_from_env, AuditFinding, CoreAuditorSet, CrashSweepReport,
    RecoveryAuditor,
};
pub use panicpath::{run_panic_path, PanicConstruct, PANIC_PATH_ENTRY_POINTS};
pub use parse::Workspace;
pub use report::{analyze, Finding, JsonReport, ReportSummary, Rule};
pub use suppress::SuppressionSet;

use std::fmt;

/// A single invariant violation found in a state snapshot.
///
/// Violations are data, not panics: harnesses collect them and tests
/// assert on exact variants, so a corrupted snapshot can be checked for
/// producing *precisely* the expected report.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Two live LPNs map to the same physical page.
    DuplicateMapping {
        /// First logical page.
        lpn_a: u64,
        /// Second logical page.
        lpn_b: u64,
        /// The shared flat physical page index.
        location: u64,
    },
    /// An LPN maps to a physical page the device never programmed
    /// (a stale or fabricated L2P entry).
    MappedPageNotProgrammed {
        /// The logical page.
        lpn: u64,
        /// The unprogrammed flat physical page index.
        location: u64,
    },
    /// An LPN maps outside the device, or to a page offset beyond the
    /// block's usable range.
    MappingOutOfRange {
        /// The logical page.
        lpn: u64,
        /// The out-of-range flat physical page index.
        location: u64,
    },
    /// The forward map (L2P) and the block reverse map disagree.
    ReverseMapMismatch {
        /// Block whose reverse map is inconsistent.
        block: u64,
        /// Page offset within the block.
        offset: u32,
        /// LPN the forward map says lives here (if any).
        forward: Option<u64>,
        /// LPN the reverse map records here (if any).
        reverse: Option<u64>,
    },
    /// A block's cached valid-page count differs from the number of
    /// LPNs actually mapping into it.
    ValidCountMismatch {
        /// The block.
        block: u64,
        /// The FTL's cached count.
        recorded: u32,
        /// The count recomputed from the reverse map.
        actual: u32,
    },
    /// A page below the block's write pointer is not programmed: the
    /// in-order prefix discipline has a hole (evidence of an erase the
    /// bookkeeping missed).
    ProgrammedPrefixHole {
        /// The block.
        block: u64,
        /// The missing page offset.
        page: u32,
    },
    /// A page at or above the block's write pointer is programmed —
    /// a program that bypassed the erase-before-program discipline
    /// (double program).
    ProgramBeyondWritePointer {
        /// The block.
        block: u64,
        /// The offending page offset.
        page: u32,
        /// The block's write pointer.
        next_page: u32,
    },
    /// A block's write pointer exceeds its usable pages under its
    /// current program mode.
    WritePointerOverflow {
        /// The block.
        block: u64,
        /// The write pointer.
        next_page: u32,
        /// Usable pages under the current mode.
        usable: u32,
    },
    /// A block's program/erase count decreased between snapshots.
    WearRollback {
        /// The block.
        block: u64,
        /// PEC at the previous snapshot.
        previous: u32,
        /// PEC now.
        current: u32,
    },
    /// A block previously retired is back in service.
    RetiredBlockRevived {
        /// The block.
        block: u64,
    },
    /// A partition's program mode is not what the SOS design mandates
    /// (SYS pseudo-QLC, SPARE on physical PLC).
    PartitionModeMismatch {
        /// Which partition ("sys" or "spare").
        partition: &'static str,
        /// Why the mode is wrong.
        detail: String,
    },
    /// A SYS object occupies an LPN inside the reserved parity range.
    SysObjectInParityRange {
        /// The object.
        id: u64,
        /// The offending logical page.
        lpn: u64,
        /// First LPN of the parity range.
        parity_base: u64,
    },
    /// A stripe holding live SYS data has neither a mapped parity page
    /// nor its parity in controller RAM.
    SysParityMissing {
        /// The stripe index.
        stripe: u64,
        /// The parity LPN that should be mapped.
        parity_lpn: u64,
    },
    /// An object references an LPN beyond its partition's logical
    /// capacity.
    ObjectLpnOutOfRange {
        /// The object.
        id: u64,
        /// The offending logical page.
        lpn: u64,
        /// The partition's logical capacity in pages.
        capacity: u64,
    },
    /// Live data (mapped + lost pages) shrank between snapshots by more
    /// than the host trimmed: garbage collection destroyed data.
    LiveDataShrank {
        /// Mapped + lost pages at the previous snapshot.
        before: u64,
        /// Mapped + lost pages now.
        after: u64,
        /// TRIMs issued between the snapshots.
        trims: u64,
    },
    /// An object present in the directory before a crash is missing or
    /// changed placement after the remount. The directory is host
    /// metadata, modelled as crash-safe (journaled), so it must survive
    /// every power cut byte-for-byte.
    RemountObjectMismatch {
        /// The object.
        id: u64,
        /// What changed across the remount.
        detail: String,
    },
    /// A page the directory references is neither mapped after recovery
    /// nor declared lost in the remount report — silent data loss. The
    /// crash-consistency contract is repair-or-declare, never silence.
    UnreportedCrashLoss {
        /// Which partition ("sys" or "spare").
        partition: &'static str,
        /// The owning object.
        id: u64,
        /// The referenced logical page.
        lpn: u64,
    },
    /// A page torn by the power cut (bad OOB CRC) is mapped as valid
    /// data after recovery even though its block was never erased in
    /// between: the recovery scan treated interrupted garbage as a
    /// durable write.
    TornPageResurfaced {
        /// Which partition ("sys" or "spare").
        partition: &'static str,
        /// The torn flat physical page index.
        location: u64,
        /// The logical page mapped onto it.
        lpn: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::DuplicateMapping { lpn_a, lpn_b, location } => write!(
                f,
                "L2P not injective: LPNs {lpn_a} and {lpn_b} both map to physical page {location}"
            ),
            Violation::MappedPageNotProgrammed { lpn, location } => write!(
                f,
                "stale mapping: LPN {lpn} maps to unprogrammed physical page {location}"
            ),
            Violation::MappingOutOfRange { lpn, location } => {
                write!(f, "LPN {lpn} maps out of range (physical page {location})")
            }
            Violation::ReverseMapMismatch { block, offset, forward, reverse } => write!(
                f,
                "reverse-map mismatch at block {block} page {offset}: forward={forward:?} reverse={reverse:?}"
            ),
            Violation::ValidCountMismatch { block, recorded, actual } => write!(
                f,
                "block {block} valid-count skew: recorded {recorded}, actual {actual}"
            ),
            Violation::ProgrammedPrefixHole { block, page } => write!(
                f,
                "block {block} page {page} unprogrammed below the write pointer"
            ),
            Violation::ProgramBeyondWritePointer { block, page, next_page } => write!(
                f,
                "block {block} page {page} programmed at/after write pointer {next_page} (double program)"
            ),
            Violation::WritePointerOverflow { block, next_page, usable } => write!(
                f,
                "block {block} write pointer {next_page} exceeds usable pages {usable}"
            ),
            Violation::WearRollback { block, previous, current } => write!(
                f,
                "block {block} wear rolled back: PEC {previous} -> {current}"
            ),
            Violation::RetiredBlockRevived { block } => {
                write!(f, "retired block {block} returned to service")
            }
            Violation::PartitionModeMismatch { partition, detail } => {
                write!(f, "{partition} partition mode violates the SOS design: {detail}")
            }
            Violation::SysObjectInParityRange { id, lpn, parity_base } => write!(
                f,
                "SYS object {id} stored at LPN {lpn} inside the parity range (base {parity_base})"
            ),
            Violation::SysParityMissing { stripe, parity_lpn } => write!(
                f,
                "stripe {stripe} has live data but no parity at LPN {parity_lpn}"
            ),
            Violation::ObjectLpnOutOfRange { id, lpn, capacity } => write!(
                f,
                "object {id} references LPN {lpn} beyond partition capacity {capacity}"
            ),
            Violation::LiveDataShrank { before, after, trims } => write!(
                f,
                "GC conservation breach: live pages {before} -> {after} with only {trims} trims"
            ),
            Violation::RemountObjectMismatch { id, detail } => {
                write!(f, "object {id} inconsistent across remount: {detail}")
            }
            Violation::UnreportedCrashLoss { partition, id, lpn } => write!(
                f,
                "silent crash loss: {partition} object {id} LPN {lpn} neither recovered nor declared lost"
            ),
            Violation::TornPageResurfaced { partition, location, lpn } => write!(
                f,
                "torn {partition} page {location} resurfaced as valid data (mapped by LPN {lpn})"
            ),
        }
    }
}

/// An auditor that inspects state snapshots of type `S` and reports
/// invariant violations.
///
/// Auditors may be stateful (`&mut self`): wear monotonicity and GC
/// conservation compare successive snapshots. Stateless auditors simply
/// ignore their history.
pub trait StateAuditor<S> {
    /// Audits one snapshot, returning every violation found (empty when
    /// the snapshot is clean).
    fn audit(&mut self, state: &S) -> Vec<Violation>;
}
