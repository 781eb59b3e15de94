//! The workspace's own acceptance gate: `check_workspace` over the live
//! source tree must report zero findings under the full v2 rule set —
//! every rule (per-file and cross-file) is either satisfied or carries
//! an audited, reasoned suppression that still earns its keep (the
//! stale-suppression pass runs here too).

use coax_analyze::{baseline, check_workspace, Finding, Report};
use std::path::Path;

/// The suppression-ledger ceiling. The stale pass guarantees every
/// suppression still silences a finding; this pin guarantees the ledger
/// does not *grow* silently — raising it is a deliberate, reviewed edit
/// of this constant.
const SUPPRESSION_CEILING: usize = 29;

fn live_report() -> Report {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    check_workspace(&root).expect("workspace walk succeeds")
}

#[test]
fn live_workspace_has_zero_findings() {
    let report = live_report();
    assert!(report.files_scanned > 50, "walk found too few files: {}", report.files_scanned);
    let rendered: Vec<String> = report.findings.iter().map(|f| f.render()).collect();
    assert!(
        rendered.is_empty(),
        "coax-analyze found {} violation(s) in the live workspace:\n{}",
        rendered.len(),
        rendered.join("\n")
    );
}

#[test]
fn suppression_ledger_only_shrinks() {
    let report = live_report();
    assert!(
        report.suppressed <= SUPPRESSION_CEILING,
        "the suppression ledger grew: {} suppressed findings (ceiling {SUPPRESSION_CEILING}). \
         Fix the site instead of suppressing it, or raise the ceiling in this test as a \
         reviewed decision.",
        report.suppressed
    );
}

/// The committed baseline contract: writing a baseline from the live
/// report and immediately filtering against it yields nothing new, while
/// a finding outside the baseline survives the filter.
#[test]
fn baseline_round_trips_on_the_live_workspace() {
    let report = live_report();
    let written = baseline::write_baseline(&report);
    let parsed = baseline::parse(&written).expect("self-written baseline parses");
    assert_eq!(parsed.len(), report.findings.len());
    assert!(
        baseline::filter_new(&report.findings, &parsed).is_empty(),
        "a just-written baseline must cover every live finding"
    );
    let synthetic = [Finding {
        file: "crates/core/src/exec.rs".to_string(),
        line: 1,
        rule: "lock-order",
        message: "synthetic finding not in any baseline".to_string(),
    }];
    assert_eq!(
        baseline::filter_new(&synthetic, &parsed).len(),
        1,
        "a finding outside the baseline must survive the filter"
    );
}
