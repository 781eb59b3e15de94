//! Analysis driver: walks the workspace, classifies files, tracks
//! `#[cfg(test)]` regions, applies suppressions and aggregates findings.
//!
//! Since v2 the engine is two-phase: every file is lexed into a
//! [`SourceFile`], the per-file rules ([`crate::rules`]) run over each
//! in isolation, then the cross-file rules ([`crate::model`]) run over
//! the whole set at once. Suppressions are audited *after* both phases:
//! an `allow(...)` that no longer silences anything becomes a
//! `stale-suppression` finding, so the ledger can only shrink.
//!
//! The engine is deliberately separable from the CLI so the test suite
//! can run it over fixture snippets ([`analyze_source`],
//! [`analyze_files`]) and over the live workspace ([`check_workspace`])
//! without spawning a process.

use crate::lexer::{self, Comment, Tok};
use crate::model;
use crate::rules;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// How a file participates in the rule set.
///
/// Classification is purely path-based (plus `#[cfg(test)]` regions inside
/// library files, which are re-classified as [`FileClass::Test`] line
/// ranges by the engine):
///
/// * `crates/*/src/**`            → [`FileClass::Library`]
/// * `crates/*/src/bin/**`        → [`FileClass::Binary`]
/// * `tests/`, `benches/`, `examples/` → [`FileClass::Test`]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileClass {
    /// Library code: every rule applies at full strength.
    Library,
    /// Binary entry points (`src/bin/`): panics are acceptable UX, the
    /// invariant rules still apply.
    Binary,
    /// Tests, benches, examples and `#[cfg(test)]` regions.
    Test,
}

/// One diagnostic: a rule violated at a file/line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (`/`-separated).
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Rule identifier (see [`rules::RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// The canonical single-line rendering: `file:line: rule: message`.
    pub fn render(&self) -> String {
        format!("{}:{}: {}: {}", self.file, self.line, self.rule, self.message)
    }
}

/// Aggregated result of a workspace check.
#[derive(Debug)]
pub struct Report {
    /// Root the walk started from.
    pub root: PathBuf,
    /// Number of `.rs` files analyzed.
    pub files_scanned: usize,
    /// Surviving findings, sorted by file then line.
    pub findings: Vec<Finding>,
    /// Findings silenced by a well-formed suppression comment.
    pub suppressed: usize,
}

impl Report {
    /// Serializes the report as a stable, machine-readable JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ =
            writeln!(out, "  \"root\": \"{}\",", json_escape(&self.root.display().to_string()));
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"suppressed\": {},", self.suppressed);
        out.push_str("  \"rules\": [");
        for (i, r) in rules::RULES.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\"", json_escape(r.name));
        }
        out.push_str("],\n");
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
                json_escape(&f.file),
                f.line,
                json_escape(f.rule),
                json_escape(&f.message)
            );
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Serializes the report as a minimal SARIF 2.1.0 log — the shape
    /// GitHub code scanning ingests: one run, one driver, every rule
    /// declared, every finding a `result` with a physical location.
    pub fn to_sarif(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"version\": \"2.1.0\",\n");
        out.push_str(
            "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/\
             Schemata/sarif-schema-2.1.0.json\",\n",
        );
        out.push_str("  \"runs\": [{\n");
        out.push_str("    \"tool\": {\"driver\": {\"name\": \"coax-analyze\", \"rules\": [");
        for (i, r) in rules::RULES.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n      {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}",
                json_escape(r.name),
                json_escape(r.description)
            );
        }
        out.push_str("\n    ]}},\n");
        out.push_str("    \"results\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n      {{\"ruleId\": \"{}\", \"level\": \"error\", \"message\": {{\"text\": \
                 \"{}\"}}, \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": \
                 {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}}}}}}}]}}",
                json_escape(f.rule),
                json_escape(&f.message),
                json_escape(&f.file),
                f.line
            );
        }
        if !self.findings.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str("]\n  }]\n}\n");
        out
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Classifies a workspace-relative path (see [`FileClass`]).
pub fn classify(path: &str) -> FileClass {
    if path.contains("/tests/") || path.contains("/benches/") || path.contains("/examples/") {
        FileClass::Test
    } else if path.contains("/src/bin/") {
        FileClass::Binary
    } else {
        FileClass::Library
    }
}

/// One lexed source file: the unit both analysis phases consume.
pub struct SourceFile {
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// Path-derived class of the whole file.
    pub class: FileClass,
    /// Token stream.
    pub toks: Vec<Tok>,
    /// Out-of-band comments.
    pub comments: Vec<Comment>,
    test_ranges: Vec<(u32, u32)>,
}

impl SourceFile {
    /// Lexes `source` as if it lived at `path`.
    pub fn new(path: String, source: &str) -> SourceFile {
        let (toks, comments) = lexer::lex(source);
        let test_ranges = test_regions(&toks);
        SourceFile { class: classify(&path), path, toks, comments, test_ranges }
    }

    /// The effective class at `line`: [`FileClass::Test`] inside
    /// `#[cfg(test)]` regions, the file's class elsewhere.
    pub fn class_at(&self, line: u32) -> FileClass {
        if self.test_ranges.iter().any(|&(s, e)| s <= line && line <= e) {
            FileClass::Test
        } else {
            self.class
        }
    }

    fn ctx(&self) -> FileContext<'_> {
        FileContext {
            path: &self.path,
            class: self.class,
            toks: &self.toks,
            comments: &self.comments,
            test_ranges: &self.test_ranges,
        }
    }
}

/// A suppression parsed from `// coax-analyze: allow(rule, reason)`.
struct Suppression {
    line: u32,
    rule: String,
}

/// Parses every suppression comment; malformed ones (missing reason,
/// unknown rule) become findings themselves — a suppression must carry an
/// auditable justification to count.
fn parse_suppressions(
    path: &str,
    comments: &[Comment],
    findings: &mut Vec<Finding>,
) -> Vec<Suppression> {
    const MARKER: &str = "coax-analyze:";
    let mut out = Vec::new();
    for c in comments {
        // Doc comments *describe* the grammar (module docs, rule docs);
        // only plain comments can actually suppress.
        if c.is_doc {
            continue;
        }
        let Some(at) = c.text.find(MARKER) else { continue };
        let rest = c.text[at + MARKER.len()..].trim_start();
        let Some(args) = rest.strip_prefix("allow(") else {
            findings.push(Finding {
                file: path.to_string(),
                line: c.first_line,
                rule: "suppression",
                message: format!(
                    "malformed suppression `{}`: expected `coax-analyze: allow(<rule>, <reason>)`",
                    rest.trim_end()
                ),
            });
            continue;
        };
        let Some(close) = args.rfind(')') else {
            findings.push(Finding {
                file: path.to_string(),
                line: c.first_line,
                rule: "suppression",
                message: "unterminated suppression: missing `)`".to_string(),
            });
            continue;
        };
        let args = &args[..close];
        let (rule, reason) = match args.split_once(',') {
            Some((rule, reason)) => (rule.trim(), reason.trim()),
            None => (args.trim(), ""),
        };
        if !rules::RULES.iter().any(|r| r.name == rule) {
            findings.push(Finding {
                file: path.to_string(),
                line: c.first_line,
                rule: "suppression",
                message: format!("suppression names unknown rule `{rule}`"),
            });
            continue;
        }
        if reason.is_empty() {
            findings.push(Finding {
                file: path.to_string(),
                line: c.first_line,
                rule: "suppression",
                message: format!(
                    "suppression of `{rule}` has no reason: write \
                     `coax-analyze: allow({rule}, <why this site is exempt>)`"
                ),
            });
            continue;
        }
        out.push(Suppression { line: c.first_line, rule: rule.to_string() });
    }
    out
}

/// Line ranges covered by `#[cfg(test)]`-gated items (inclusive).
///
/// Matches the standard idiom: a `#[cfg(test)]` attribute (not
/// `#[cfg(not(test))]`), optionally followed by further attributes, then
/// an item whose body is the next `{ … }` block. Attribute-only gates
/// with no body (`#[cfg(test)] use …;`) produce no region.
fn test_regions(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        let (close, is_cfg_test) = scan_attr(toks, i + 1);
        if !is_cfg_test {
            i = close + 1;
            continue;
        }
        // Skip any further attributes between the gate and the item.
        let mut j = close + 1;
        while toks.get(j).is_some_and(|t| t.is_punct('#'))
            && toks.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            j = scan_attr(toks, j + 1).0 + 1;
        }
        // The gated item's body is the next brace block, unless a `;`
        // ends the item first.
        let mut open = None;
        let mut k = j;
        while k < toks.len() {
            if toks[k].is_punct(';') {
                break;
            }
            if toks[k].is_punct('{') {
                open = Some(k);
                break;
            }
            k += 1;
        }
        match open {
            Some(open) => {
                let end = match_brace(toks, open);
                out.push((toks[i].line, toks[end].line));
                i = end + 1;
            }
            None => i = close + 1,
        }
    }
    out
}

/// From the index of an attribute's `[`, returns the index of its
/// matching `]` and whether the attribute is a `cfg(… test …)` gate
/// (excluding `not(…)` forms).
fn scan_attr(toks: &[Tok], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut has_cfg = false;
    let mut has_test = false;
    let mut has_not = false;
    let mut i = open;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return (i, has_cfg && has_test && !has_not);
            }
        } else if t.is_ident("cfg") {
            has_cfg = true;
        } else if t.is_ident("test") {
            has_test = true;
        } else if t.is_ident("not") {
            has_not = true;
        }
        i += 1;
    }
    (toks.len().saturating_sub(1), false)
}

/// Index of the `}` matching the `{` at `open` (or the last token).
pub(crate) fn match_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct('{') {
            depth += 1;
        } else if toks[i].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// Per-file context handed to every per-file rule.
pub struct FileContext<'a> {
    /// Workspace-relative `/`-separated path.
    pub path: &'a str,
    /// Path-derived class of the whole file.
    pub class: FileClass,
    /// Token stream.
    pub toks: &'a [Tok],
    /// Out-of-band comments.
    pub comments: &'a [Comment],
    /// `#[cfg(test)]` line ranges.
    test_ranges: &'a [(u32, u32)],
}

impl FileContext<'_> {
    /// The effective class at `line`: [`FileClass::Test`] inside
    /// `#[cfg(test)]` regions, the file's class elsewhere.
    pub fn class_at(&self, line: u32) -> FileClass {
        if self.test_ranges.iter().any(|&(s, e)| s <= line && line <= e) {
            FileClass::Test
        } else {
            self.class
        }
    }
}

/// A suppression with its file and audit flag, for the stale pass.
struct LedgerEntry {
    file: String,
    line: u32,
    rule: String,
    used: bool,
}

/// Analyzes a set of sources as one workspace: per-file rules over each,
/// model rules across all, then the suppression audit. Returns the
/// surviving findings (sorted by file, line, rule) and the number of
/// suppressed ones.
///
/// This is the core entry point; [`analyze_source`] (one virtual file)
/// and [`check_workspace`] (the live tree) are wrappers.
pub fn analyze_files(inputs: &[(String, String)]) -> (Vec<Finding>, usize) {
    let files: Vec<SourceFile> =
        inputs.iter().map(|(path, src)| SourceFile::new(path.clone(), src)).collect();
    // Malformed suppressions are findings in their own right and are
    // never themselves suppressible.
    let mut malformed = Vec::new();
    let mut ledger: Vec<LedgerEntry> = Vec::new();
    let mut raw = Vec::new();
    for file in &files {
        for s in parse_suppressions(&file.path, &file.comments, &mut malformed) {
            ledger.push(LedgerEntry {
                file: file.path.clone(),
                line: s.line,
                rule: s.rule,
                used: false,
            });
        }
        raw.extend(rules::run_rules(&file.ctx()));
    }
    let workspace = model::build(&files);
    model::run_model_rules(&files, &workspace, &mut raw);

    // A suppression covers its own line and the next (the comment-above
    // idiom) for its named rule, in its file only.
    let covers = |s: &LedgerEntry, f: &Finding| {
        s.file == f.file && s.rule == f.rule && (s.line == f.line || s.line + 1 == f.line)
    };
    let mut suppressed = 0;
    raw.retain(|f| match ledger.iter_mut().find(|s| covers(s, f)) {
        Some(s) => {
            s.used = true;
            suppressed += 1;
            false
        }
        None => true,
    });

    // Stale pass: every well-formed suppression that silenced nothing is
    // itself a finding — the ledger can only shrink. A stale finding can
    // be granted a grace period with `allow(stale-suppression, <why>)`,
    // but an unused grace comment is in turn stale (and that is final:
    // the audit does not recurse).
    let mut stale = Vec::new();
    for s in ledger.iter().filter(|s| !s.used && s.rule != "stale-suppression") {
        stale.push(Finding {
            file: s.file.clone(),
            line: s.line,
            rule: "stale-suppression",
            message: format!(
                "suppression of `{}` no longer matches any finding at this site: delete it \
                 (the suppression ledger only shrinks)",
                s.rule
            ),
        });
    }
    stale.retain(|f| {
        match ledger.iter_mut().find(|s| s.rule == "stale-suppression" && covers(s, f)) {
            Some(s) => {
                s.used = true;
                suppressed += 1;
                false
            }
            None => true,
        }
    });
    for s in ledger.iter().filter(|s| !s.used && s.rule == "stale-suppression") {
        stale.push(Finding {
            file: s.file.clone(),
            line: s.line,
            rule: "stale-suppression",
            message: "grace suppression `allow(stale-suppression, ..)` matches no stale \
                      finding: delete it"
                .to_string(),
        });
    }

    raw.extend(stale);
    raw.extend(malformed);
    raw.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
    });
    (raw, suppressed)
}

/// Analyzes one source text as if it lived at `path`, returning the
/// surviving findings and the number of suppressed ones.
///
/// This is the fixture-test entry point: the path decides classification
/// and per-rule file scoping, so fixtures declare a *virtual* path.
pub fn analyze_source(path: &str, source: &str) -> (Vec<Finding>, usize) {
    analyze_files(&[(path.to_string(), source.to_string())])
}

/// Walks `root/crates/**/*.rs` (skipping the analyzer's own fixture
/// snippets, which violate rules on purpose) and analyzes the whole set
/// as one workspace.
pub fn check_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files)?;
    files.sort();
    let mut inputs = Vec::new();
    for file in &files {
        let rel = file.strip_prefix(root).unwrap_or(file).to_string_lossy().replace('\\', "/");
        if rel.starts_with("crates/analyze/tests/fixtures/") {
            continue;
        }
        inputs.push((rel, std::fs::read_to_string(file)?));
    }
    let scanned = inputs.len();
    let (findings, suppressed) = analyze_files(&inputs);
    Ok(Report { root: root.to_path_buf(), files_scanned: scanned, findings, suppressed })
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_by_path() {
        assert_eq!(classify("crates/core/src/exec.rs"), FileClass::Library);
        assert_eq!(classify("crates/bench/src/bin/fig6.rs"), FileClass::Binary);
        assert_eq!(classify("crates/coax/tests/end_to_end.rs"), FileClass::Test);
        assert_eq!(classify("crates/coax/examples/quickstart.rs"), FileClass::Test);
        assert_eq!(classify("crates/bench/benches/fig6_queries.rs"), FileClass::Test);
    }

    #[test]
    fn cfg_test_region_reclassifies_lines() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let (toks, _) = lexer::lex(src);
        let regions = test_regions(&toks);
        assert_eq!(regions, vec![(2, 5)]);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nmod real {\n    fn f() {}\n}\n";
        let (toks, _) = lexer::lex(src);
        assert!(test_regions(&toks).is_empty());
    }

    #[test]
    fn suppression_without_reason_is_a_finding() {
        let src = "// coax-analyze: allow(panic-free-library)\nfn f() {}\n";
        let (findings, suppressed) = analyze_source("crates/core/src/x.rs", src);
        assert_eq!(suppressed, 0);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "suppression");
        assert!(findings[0].message.contains("no reason"));
    }

    #[test]
    fn suppression_with_reason_silences_same_and_next_line() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    \
                   // coax-analyze: allow(panic-free-library, demo reason)\n    \
                   x.unwrap()\n}\n";
        let (findings, suppressed) = analyze_source("crates/core/src/x.rs", src);
        assert!(findings.is_empty(), "unexpected findings: {findings:?}");
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn unknown_rule_in_suppression_is_rejected() {
        let src = "// coax-analyze: allow(no-such-rule, because)\nfn f() {}\n";
        let (findings, _) = analyze_source("crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("unknown rule"));
    }

    #[test]
    fn unused_suppression_is_stale() {
        let src = "// coax-analyze: allow(panic-free-library, used to unwrap here)\n\
                   fn f() -> u32 { 1 }\n";
        let (findings, suppressed) = analyze_source("crates/core/src/x.rs", src);
        assert_eq!(suppressed, 0);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "stale-suppression");
        assert_eq!(findings[0].line, 1);
        assert!(findings[0].message.contains("panic-free-library"));
    }

    #[test]
    fn stale_finding_can_be_granted_grace() {
        let src = "// coax-analyze: allow(stale-suppression, grace until the WAL PR lands)\n\
                   // coax-analyze: allow(panic-free-library, used to unwrap here)\n\
                   fn f() -> u32 { 1 }\n";
        let (findings, suppressed) = analyze_source("crates/core/src/x.rs", src);
        assert!(findings.is_empty(), "unexpected findings: {findings:?}");
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn unused_grace_suppression_is_itself_stale() {
        let src = "// coax-analyze: allow(stale-suppression, nothing stale here)\n\
                   fn f() -> u32 { 1 }\n";
        let (findings, _) = analyze_source("crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "stale-suppression");
        assert!(findings[0].message.contains("grace suppression"));
    }

    #[test]
    fn analyze_files_spans_files_for_model_rules() {
        // The impl lives in one file, the equivalence reference in
        // another: only the cross-file view keeps `trait-contract` quiet.
        let imp = "struct G;\nimpl MultidimIndex for G {\n    fn batch_query(&self) {}\n}\n"
            .to_string();
        let test = "fn pin() { let _ = G; }\n".to_string();
        let (findings, _) = analyze_files(&[
            ("crates/index/src/g.rs".to_string(), imp.clone()),
            ("crates/index/tests/equivalence.rs".to_string(), test),
        ]);
        assert!(findings.is_empty(), "{findings:?}");
        let (findings, _) = analyze_files(&[("crates/index/src/g.rs".to_string(), imp)]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "trait-contract");
    }

    #[test]
    fn absorbed_override_needs_an_equivalence_pin() {
        let imp = "struct G;\nimpl MultidimIndex for G {\n    fn absorbed(&self) {}\n}\n";
        let (findings, _) =
            analyze_files(&[("crates/index/src/g.rs".to_string(), imp.to_string())]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("overrides `absorbed`"), "{findings:?}");
    }

    #[test]
    fn json_report_shape() {
        let report = Report {
            root: PathBuf::from("."),
            files_scanned: 2,
            findings: vec![Finding {
                file: "crates/x/src/lib.rs".to_string(),
                line: 3,
                rule: "panic-free-library",
                message: "a \"quoted\" message".to_string(),
            }],
            suppressed: 1,
        };
        let json = report.to_json();
        assert!(json.contains("\"files_scanned\": 2"));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"rules\": ["));
    }

    #[test]
    fn sarif_report_shape() {
        let report = Report {
            root: PathBuf::from("."),
            files_scanned: 1,
            findings: vec![Finding {
                file: "crates/x/src/lib.rs".to_string(),
                line: 3,
                rule: "lock-order",
                message: "cycle".to_string(),
            }],
            suppressed: 0,
        };
        let sarif = report.to_sarif();
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        assert!(sarif.contains("\"name\": \"coax-analyze\""));
        assert!(sarif.contains("\"ruleId\": \"lock-order\""));
        assert!(sarif.contains("\"startLine\": 3"));
        assert!(sarif.contains("\"uri\": \"crates/x/src/lib.rs\""));
    }
}
