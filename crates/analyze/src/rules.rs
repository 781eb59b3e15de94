//! The project-invariant rule table.
//!
//! Every rule encodes an invariant the compiler cannot see but the
//! workspace's correctness arguments rely on (see `ARCHITECTURE.md`
//! Layer 9 for the full rationale):
//!
//! | rule | invariant |
//! |---|---|
//! | `panic-free-library`  | library code returns errors; panicking APIs are explicit, documented and suppressed by name |
//! | `nan-unsafe-cmp`      | float comparators use `f64::total_cmp`, never `partial_cmp(..).unwrap()` |
//! | `kernel-encapsulation`| cell scans and `PageStore` slab access live in `kernel.rs`/`pages.rs` only |
//! | `thread-discipline`   | threads are spawned only by the exec pool |
//! | `seeded-randomness`   | RNGs come from explicit seeds — no environmental entropy |
//! | `doc-headers`         | every `pub fn` in `coax-core`'s exec/maint documents its contract |
//! | `obs-naming`          | metric names are literal, snake_case, dot-namespaced, registered through the registry constructors |
//! | `lock-order`          | the workspace lock-acquisition graph is acyclic (cross-file, see `model.rs`) |
//! | `guard-scope`         | no obs/journal/metrics traffic while a write/mutex guard is live (cross-file) |
//! | `stale-suppression`   | every `allow(...)` still silences a finding — the ledger only shrinks (engine audit) |
//! | `trait-contract`      | `MultidimIndex` impls overriding batch/cursor/absorb surfaces are pinned by an equivalence suite (cross-file) |
//!
//! This module holds the *per-file* rules (the first seven); the
//! cross-file rules live in [`crate::model`] and the suppression audit
//! in [`crate::engine`], but all share this table as the registry.
//!
//! Rules are scoped by [`FileClass`] (library / binary / test) and, for
//! the encapsulation rules, by an allow-list of file paths. A finding can
//! be silenced inline with `// coax-analyze: allow(<rule>, <reason>)` on
//! the same or the preceding line; the reason is mandatory.

use crate::engine::{FileClass, FileContext, Finding};
use crate::lexer::{Tok, TokKind};

/// Static metadata for one rule.
pub struct RuleInfo {
    /// Stable identifier used in diagnostics and suppressions.
    pub name: &'static str,
    /// One-line description for `--json` consumers and `--help`.
    pub description: &'static str,
}

/// Every rule the analyzer enforces, in diagnostic order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "panic-free-library",
        description: "no unwrap()/expect()/panic! in non-test library code",
    },
    RuleInfo {
        name: "nan-unsafe-cmp",
        description:
            "no partial_cmp(..).unwrap()/expect() float comparators; use f64::total_cmp",
    },
    RuleInfo {
        name: "kernel-encapsulation",
        description:
            "PageStore column slabs and scan primitives are touched only by kernel.rs/pages.rs",
    },
    RuleInfo {
        name: "thread-discipline",
        description: "std::thread::spawn/scope only in coax-core's exec.rs",
    },
    RuleInfo {
        name: "seeded-randomness",
        description: "RNGs are constructed from explicit seeds, never environmental entropy",
    },
    RuleInfo {
        name: "doc-headers",
        description: "every pub fn in coax-core's exec/maint carries a doc comment",
    },
    RuleInfo {
        name: "obs-naming",
        description:
            "metric registrations pass a literal snake_case dot-namespaced name to the \
             registry constructors",
    },
    RuleInfo {
        name: "lock-order",
        description:
            "the workspace lock-acquisition graph (nested guards plus one call-graph level) \
             has no cycle",
    },
    RuleInfo {
        name: "guard-scope",
        description:
            "no obs/journal/metrics call while a write or mutex guard is live — record \
             after the guard drops",
    },
    RuleInfo {
        name: "stale-suppression",
        description:
            "every allow(...) comment still silences a finding; dead suppressions are \
             deleted, not accumulated",
    },
    RuleInfo {
        name: "trait-contract",
        description: "every MultidimIndex impl overriding a batch/cursor/absorb surface is \
             referenced from an equivalence test file",
    },
];

/// Runs every rule over one file's token stream.
pub fn run_rules(ctx: &FileContext<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    panic_free_library(ctx, &mut out);
    nan_unsafe_cmp(ctx, &mut out);
    kernel_encapsulation(ctx, &mut out);
    thread_discipline(ctx, &mut out);
    seeded_randomness(ctx, &mut out);
    doc_headers(ctx, &mut out);
    obs_naming(ctx, &mut out);
    out
}

fn finding(ctx: &FileContext<'_>, line: u32, rule: &'static str, message: String) -> Finding {
    Finding { file: ctx.path.to_string(), line, rule, message }
}

/// Index of the `)` matching the `(` at `open` (or the last token).
pub(crate) fn match_paren(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct('(') {
            depth += 1;
        } else if toks[i].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// `panic-free-library`: `.unwrap()`, `.expect(` and `panic!` are banned
/// in library code. The invariant: every fallible library path surfaces a
/// typed error (`QueryError`, `RowError`, …); the few deliberate
/// panicking APIs (documented `# Panics` contracts, poisoned-lock
/// propagation) are suppressed by name with a reason, which keeps them
/// enumerable.
fn panic_free_library(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.class_at(toks[i].line) != FileClass::Library {
            continue;
        }
        let t = &toks[i];
        if t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            out.push(finding(
                ctx,
                t.line,
                "panic-free-library",
                format!(
                    "`.{}(..)` in library code: surface a typed error (`?`, `try_*`) or add \
                     `coax-analyze: allow(panic-free-library, <reason>)`",
                    t.text
                ),
            ));
        }
        if t.is_ident("panic") && toks.get(i + 1).is_some_and(|n| n.is_punct('!')) {
            out.push(finding(
                ctx,
                t.line,
                "panic-free-library",
                "`panic!` in library code: surface a typed error or add \
                 `coax-analyze: allow(panic-free-library, <reason>)`"
                    .to_string(),
            ));
        }
    }
}

/// `nan-unsafe-cmp`: a `partial_cmp(..).unwrap()/.expect(..)` comparator
/// panics the first time a NaN reaches it. Dataset ingestion validates
/// finiteness, but stats/learn helpers also take raw slices — every float
/// comparator in the workspace uses `f64::total_cmp` instead, which is
/// total over NaN and bit-identical to `partial_cmp` on the finite values
/// the indexes store.
fn nan_unsafe_cmp(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if !toks[i].is_ident("partial_cmp") {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let close = match_paren(toks, i + 1);
        let panicky = toks.get(close + 1).is_some_and(|t| t.is_punct('.'))
            && toks
                .get(close + 2)
                .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"));
        if panicky {
            out.push(finding(
                ctx,
                toks[i].line,
                "nan-unsafe-cmp",
                "`partial_cmp(..)` followed by `.unwrap()`/`.expect(..)` panics on NaN: \
                 use `f64::total_cmp` or validate values at ingestion"
                    .to_string(),
            ));
        }
    }
}

/// Files allowed to touch `PageStore` slabs and scan primitives.
const KERNEL_FILES: &[&str] = &["crates/index/src/kernel.rs", "crates/index/src/pages.rs"];

/// `kernel-encapsulation`: the vectorized scan kernel's bit-identity
/// contract (vectorized == scalar reference, ids/order/counters) is only
/// auditable while every cell scan flows through `kernel.rs`/`pages.rs`.
/// Outside those files, code must call `PageStore::scan_cell*` rather
/// than pulling the raw column slabs or composing tile primitives itself.
fn kernel_encapsulation(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if KERNEL_FILES.contains(&ctx.path) {
        return;
    }
    const BANNED_CALLS: &[&str] = &["columns", "packed_ids"];
    const BANNED_IDENTS: &[&str] = &["tile_mask", "select_tile", "scan_columnar"];
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.class_at(toks[i].line) == FileClass::Test {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let method_call = i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        if method_call && BANNED_CALLS.contains(&t.text.as_str()) {
            out.push(finding(
                ctx,
                t.line,
                "kernel-encapsulation",
                format!(
                    "`.{}()` exposes PageStore column slabs outside kernel.rs/pages.rs: \
                     scan through `PageStore::scan_cell*` instead",
                    t.text
                ),
            ));
        }
        if BANNED_IDENTS.contains(&t.text.as_str()) {
            out.push(finding(
                ctx,
                t.line,
                "kernel-encapsulation",
                format!(
                    "`{}` is a scan-kernel primitive: cell-scan loops live in \
                     kernel.rs/pages.rs so the scalar/vector bit-identity contract \
                     stays auditable in one place",
                    t.text
                ),
            ));
        }
    }
}

/// The one file allowed to spawn threads: the exec layer's pool, which
/// every parallel query path (the shard fan-out included) runs on. A
/// `Maintainer` loops on its caller's thread and starts none.
fn thread_allowed(path: &str) -> bool {
    path == "crates/core/src/exec.rs"
}

/// `thread-discipline`: worker threads are owned by the exec layer's
/// pool. Ad-hoc spawns elsewhere would bypass `ExecConfig` sizing and
/// the pool's cancellation protocol.
fn thread_discipline(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if thread_allowed(ctx.path) {
        return;
    }
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.class_at(toks[i].line) == FileClass::Test {
            continue;
        }
        if toks[i].is_ident("thread")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("spawn") || t.is_ident("scope"))
        {
            let what = &toks[i + 3].text;
            out.push(finding(
                ctx,
                toks[i].line,
                "thread-discipline",
                format!(
                    "`thread::{what}` outside exec.rs: thread lifecycles are owned by the \
                     exec pool (`ExecConfig`)"
                ),
            ));
        }
    }
}

/// `seeded-randomness`: the equivalence suites and benches are only
/// reproducible if every RNG is seeded explicitly. The vendored `rand`
/// offers `seed_from_u64` alone, so today this bans the upstream
/// entropy-drawing constructors by name before they can be introduced.
fn seeded_randomness(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    const BANNED: &[&str] = &["thread_rng", "from_entropy", "from_os_rng"];
    for t in ctx.toks {
        if t.kind == TokKind::Ident && BANNED.contains(&t.text.as_str()) {
            out.push(finding(
                ctx,
                t.line,
                "seeded-randomness",
                format!(
                    "`{}` draws entropy from the environment: construct RNGs with an \
                     explicit seed (`StdRng::seed_from_u64`) so every run is reproducible",
                    t.text
                ),
            ));
        }
    }
}

/// Files the `doc-headers` rule covers.
fn doc_headers_applies(path: &str) -> bool {
    path == "crates/core/src/exec.rs" || path.contains("crates/core/src/maint/")
}

/// `doc-headers`: the exec/maint layers carry the workspace's subtlest
/// contracts (probe ordering, epoch swaps, snapshot pinning); every
/// `pub fn` there must state its contract in a doc comment, not just in
/// the implementation.
fn doc_headers(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if !doc_headers_applies(ctx.path) {
        return;
    }
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if !toks[i].is_ident("pub") || ctx.class_at(toks[i].line) == FileClass::Test {
            continue;
        }
        // Optional restricted visibility: `pub(crate)`, `pub(super)`, …
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_punct('(')) {
            j = match_paren(toks, j) + 1;
        }
        // Qualifiers before `fn`.
        while toks
            .get(j)
            .is_some_and(|t| t.is_ident("const") || t.is_ident("async") || t.is_ident("unsafe"))
        {
            j += 1;
        }
        if !toks.get(j).is_some_and(|t| t.is_ident("fn")) {
            continue;
        }
        let name = toks.get(j + 1).map(|t| t.text.clone()).unwrap_or_default();
        // Walk back over attributes (`#[inline]`, …) to the block start;
        // a `#[doc = …]` attribute counts as documentation.
        let mut first = i;
        let mut doc_attr = false;
        while first >= 1 && toks[first - 1].is_punct(']') {
            let mut depth = 0usize;
            let mut m = first - 1;
            loop {
                if toks[m].is_punct(']') {
                    depth += 1;
                } else if toks[m].is_punct('[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if m == 0 {
                    break;
                }
                m -= 1;
            }
            if m >= 1 && toks[m - 1].is_punct('#') {
                if toks[m..first].iter().any(|t| t.is_ident("doc")) {
                    doc_attr = true;
                }
                first = m - 1;
            } else {
                break;
            }
        }
        let first_line = toks[first].line;
        let documented =
            doc_attr || ctx.comments.iter().any(|c| c.is_doc && c.last_line + 1 == first_line);
        if !documented {
            out.push(finding(
                ctx,
                toks[i].line,
                "doc-headers",
                format!(
                    "`pub fn {name}` in the exec/maint layer has no doc comment: \
                     state the contract (ordering, blocking, epoch behaviour) above it"
                ),
            ));
        }
    }
}

/// Mirror of `coax_core::obs::is_valid_metric_name` (the analyzer is
/// dependency-free by design): ≥2 dot-separated segments, each
/// `[a-z][a-z0-9_]*`.
fn valid_metric_name(name: &str) -> bool {
    let mut segments = 0;
    for seg in name.split('.') {
        let mut chars = seg.chars();
        match chars.next() {
            Some(c) if c.is_ascii_lowercase() => {}
            _ => return false,
        }
        if !chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_') {
            return false;
        }
        segments += 1;
    }
    segments >= 2
}

/// `obs-naming`: the metric name set is an API surface — dashboards,
/// scrape configs and the Prometheus rendering all key on it. Every
/// `.counter(..)` / `.gauge(..)` / `.histogram(..)` registration — and
/// the shard-labelled `.*_shard(..)` variants, whose first argument is
/// the family name — must pass a **string literal** (so `coax-analyze`
/// can enumerate the full set statically) matching the grammar
/// `seg(.seg)+` with snake_case segments. Runtime-computed names would
/// make the set unauditable and the Prometheus name mangling
/// unreviewable; shard numbers travel as a label, never in the name.
fn obs_naming(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    const CONSTRUCTORS: &[&str] =
        &["counter", "gauge", "histogram", "counter_shard", "gauge_shard", "histogram_shard"];
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.class_at(toks[i].line) == FileClass::Test {
            continue;
        }
        let t = &toks[i];
        let registration = t.kind == TokKind::Ident
            && CONSTRUCTORS.contains(&t.text.as_str())
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        if !registration {
            continue;
        }
        match toks.get(i + 2) {
            Some(arg) if arg.kind == TokKind::Lit && !arg.text.is_empty() => {
                if !valid_metric_name(&arg.text) {
                    out.push(finding(
                        ctx,
                        arg.line,
                        "obs-naming",
                        format!(
                            "metric name \"{}\" breaks the grammar: dot-separated \
                             snake_case segments (`[a-z][a-z0-9_]*`), at least one \
                             namespace (e.g. `coax.query.count`)",
                            arg.text
                        ),
                    ));
                }
            }
            _ => {
                out.push(finding(
                    ctx,
                    t.line,
                    "obs-naming",
                    format!(
                        "`.{}(..)` registers a metric without a literal name: pass a \
                         string literal so the metric name set stays statically \
                         enumerable",
                        t.text
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::analyze_source;

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        analyze_source(path, src).0.into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn unwrap_flagged_in_library_not_tests() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(rules_hit("crates/core/src/a.rs", src), vec!["panic-free-library"]);
        assert!(rules_hit("crates/coax/tests/a.rs", src).is_empty());
        assert!(rules_hit("crates/bench/src/bin/a.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_module_is_exempt() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { None::<u32>.unwrap(); }\n}\n";
        assert!(rules_hit("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn partial_cmp_unwrap_flagged_expect_too() {
        let src = "fn c(a: f64, b: f64) { a.partial_cmp(&b).unwrap(); }\n";
        let hits = rules_hit("crates/bench/src/bin/a.rs", src);
        assert_eq!(hits, vec!["nan-unsafe-cmp"]);
        let src = "fn c(a: f64, b: f64) { a.partial_cmp(&b).expect(\"finite\"); }\n";
        let hits = rules_hit("crates/core/src/a.rs", src);
        // Library code trips both the NaN rule and the panic rule.
        assert!(hits.contains(&"nan-unsafe-cmp"));
        assert!(hits.contains(&"panic-free-library"));
    }

    #[test]
    fn total_cmp_is_clean() {
        let src = "fn c(v: &mut Vec<f64>) { v.sort_by(|a, b| a.total_cmp(b)); }\n";
        assert!(rules_hit("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn slab_access_flagged_outside_kernel_files() {
        let src = "fn f(ps: &PageStore) { let _ = ps.columns(); }\n";
        assert_eq!(
            rules_hit("crates/index/src/grid_file.rs", src),
            vec!["kernel-encapsulation"]
        );
        assert!(rules_hit("crates/index/src/pages.rs", src).is_empty());
        assert!(rules_hit("crates/index/src/kernel.rs", src).is_empty());
    }

    #[test]
    fn thread_spawn_flagged_outside_exec() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(rules_hit("crates/index/src/grid_file.rs", src), vec!["thread-discipline"]);
        assert_eq!(rules_hit("crates/core/src/shard.rs", src), vec!["thread-discipline"]);
        assert!(rules_hit("crates/core/src/exec.rs", src).is_empty());
        assert_eq!(
            rules_hit("crates/core/src/maint/policy.rs", src),
            vec!["thread-discipline"]
        );
    }

    #[test]
    fn entropy_rngs_flagged_everywhere() {
        let src = "fn f() { let mut rng = rand::thread_rng(); }\n";
        assert_eq!(rules_hit("crates/coax/tests/a.rs", src), vec!["seeded-randomness"]);
        assert_eq!(rules_hit("crates/data/src/a.rs", src), vec!["seeded-randomness"]);
    }

    #[test]
    fn metric_registration_names_are_validated() {
        let good = "fn f(r: &MetricsRegistry) { r.counter(\"coax.query.count\"); }\n";
        assert!(rules_hit("crates/core/src/obs/mod.rs", good).is_empty());
        let bad_grammar = "fn f(r: &MetricsRegistry) { r.gauge(\"CoaxEpoch\"); }\n";
        assert_eq!(rules_hit("crates/core/src/obs/mod.rs", bad_grammar), vec!["obs-naming"]);
        let single_segment = "fn f(r: &MetricsRegistry) { r.histogram(\"latency\"); }\n";
        assert_eq!(rules_hit("crates/core/src/obs/mod.rs", single_segment), vec!["obs-naming"]);
        let computed = "fn f(r: &MetricsRegistry, n: &str) { r.counter(n); }\n";
        assert_eq!(rules_hit("crates/core/src/obs/mod.rs", computed), vec!["obs-naming"]);
        // Shard-labelled constructors: first argument is the family name
        // and obeys the same grammar; the shard travels as a label.
        let shard_good =
            "fn f(r: &MetricsRegistry) { r.histogram_shard(\"coax.query.latency_us\", Some(3)); }\n";
        assert!(rules_hit("crates/core/src/obs/mod.rs", shard_good).is_empty());
        let shard_computed =
            "fn f(r: &MetricsRegistry, n: &str) { r.counter_shard(n, Some(0)); }\n";
        assert_eq!(rules_hit("crates/core/src/obs/mod.rs", shard_computed), vec!["obs-naming"]);
        // Tests may register scratch metrics however they like.
        let in_test =
            "#[cfg(test)]\nmod tests {\n    fn t(r: &MetricsRegistry) { r.counter(\"X\"); }\n}\n";
        assert!(rules_hit("crates/core/src/obs/mod.rs", in_test).is_empty());
        // Field access and definitions are not registrations.
        let not_calls =
            "pub fn counter(&self, name: &str) {}\nfn g(s: &S) { s.histogram.is_some(); }\n";
        assert!(rules_hit("crates/core/src/obs/registry.rs", not_calls).is_empty());
    }

    #[test]
    fn undocumented_pub_fn_flagged_in_exec_only() {
        let src = "pub fn mystery() {}\n";
        assert_eq!(rules_hit("crates/core/src/exec.rs", src), vec!["doc-headers"]);
        assert!(rules_hit("crates/core/src/translate.rs", src).is_empty());
        let documented = "/// Does a thing.\npub fn mystery() {}\n";
        assert!(rules_hit("crates/core/src/exec.rs", documented).is_empty());
        let attr_between = "/// Docs.\n#[inline]\npub fn mystery() {}\n";
        assert!(rules_hit("crates/core/src/exec.rs", attr_between).is_empty());
    }
}
