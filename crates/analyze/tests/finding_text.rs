//! Pins the rendered text of a finding, byte for byte, for each rule
//! family: a lint rule (no call chain), `panic-path/<construct>` and
//! `nondeterminism/<kind>` (each with its chain). Runs the `sos-lint`
//! binary over the `tests/fixtures/findings` tree, which seeds one
//! finding of each.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn each_rule_family_renders_its_finding_line() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("findings");
    let output = Command::new(env!("CARGO_BIN_EXE_sos-lint"))
        .arg(&root)
        .output()
        .expect("sos-lint runs");
    assert!(!output.status.success(), "findings must fail the gate");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    let findings: Vec<&str> = stdout
        .lines()
        .take_while(|line| !line.starts_with("sos-lint: "))
        .collect();
    assert_eq!(
        findings,
        [
            "crates/demo/src/lib.rs:28: [bad-suppression] missing justification: use allow(<rule>, \"<why>\")",
            "crates/demo/src/lib.rs:14: [panic-path/unwrap] .unwrap() on a recovery-reachable path (via Ftl::recover -> Ftl::replay)",
            "crates/demo/src/lib.rs:24: [nondeterminism/map-iteration] `seen.iter()` iterates a HashMap/HashSet in nondeterministic order (via end_to_end_report -> tally)",
        ],
        "full output:\n{stdout}"
    );
}
