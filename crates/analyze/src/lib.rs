//! `coax-analyze` — project-invariant static analysis for the COAX
//! workspace.
//!
//! COAX's correctness rests on contracts the compiler cannot check: the
//! scan kernel's bit-identity promise, the backends' id contract, the
//! epoch-swap/snapshot discipline, lock ordering and guard scopes in the
//! maintenance and shard layers, seeded-deterministic test suites. This
//! crate machine-checks the source-level shadows of those contracts on
//! every push, with zero dependencies (the workspace vendors only
//! `rand`, so the scanner is hand-rolled pure std — see [`lexer`]).
//!
//! The engine is two-phase: per-file rules run over each token stream in
//! isolation ([`rules`]), then a lightweight workspace model — items,
//! lock fields, guard scopes, an approximate call graph — is built over
//! every file at once and the cross-file rules run over it ([`model`]).
//! A committed baseline ([`baseline`]) lets new rules land strict on new
//! code while legacy findings are burned down reviewably.
//!
//! ```text
//! cargo run -p coax-analyze -- check                    # human-readable, exit 1 on findings
//! cargo run -p coax-analyze -- check --format sarif     # GitHub code-scanning output
//! cargo run -p coax-analyze -- check --baseline analyze-baseline.json   # delta gate
//! ```
//!
//! Rules are listed in [`rules::RULES`]; a finding is silenced inline
//! with `// coax-analyze: allow(<rule>, <reason>)` on the same or the
//! preceding line — the reason is mandatory and audited (a reasonless,
//! unknown-rule or *no-longer-firing* suppression is itself a finding,
//! so the ledger only shrinks).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod engine;
pub mod lexer;
pub mod model;
pub mod rules;

pub use engine::{
    analyze_files, analyze_source, check_workspace, FileClass, Finding, Report, SourceFile,
};
