//! Phase 1 of the two-phase engine: the **workspace model**.
//!
//! The per-file rules in [`crate::rules`] see one token stream at a
//! time; the invariants that carry the system's concurrency story (lock
//! ordering, guard scopes, the equivalence-suite contract) are
//! cross-file. This module parses every file's token stream into a
//! lightweight item model — `struct` lock fields, `impl` blocks, `fn`
//! items with their guard-acquisition sites, guard-scope intervals and
//! outgoing calls — and runs the cross-file rules over the whole model:
//!
//! | rule | invariant |
//! |---|---|
//! | `lock-order`     | the workspace lock-acquisition graph is acyclic |
//! | `guard-scope`    | no obs/journal/metrics traffic while a write/mutex guard is live |
//! | `trait-contract` | every `MultidimIndex` impl overriding a batch/cursor/absorb surface is pinned by an equivalence suite |
//!
//! (`stale-suppression`, the fourth v2 rule, lives in the engine: it
//! audits the suppression ledger against the final finding set.)
//!
//! The model is deliberately approximate — no types, no inference, no
//! macro expansion. Precision comes from resolving only what can be
//! named: `self.field` through the enclosing impl, struct fields that
//! are unique workspace-wide, local `Mutex::new`/`RwLock::new` bindings,
//! and the guard-returning helper functions (`read_guard`,
//! `write_guard`, …, detected by their return type). A receiver the
//! model cannot resolve never becomes a lock identity, so every
//! reported cycle is backed by two concrete acquisition chains; the
//! call graph is propagated exactly one level, and only through calls
//! whose callee set is attributable (free/associated calls, and
//! `self.method()` filtered by the enclosing impl type).

use crate::engine::{match_brace, FileClass, Finding, SourceFile};
use crate::lexer::{Tok, TokKind};
use crate::rules::match_paren;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// What flavour of guard an acquisition produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuardKind {
    /// `RwLock::read` — shared; exempt from `guard-scope`.
    Read,
    /// `RwLock::write` — exclusive.
    Write,
    /// `Mutex::lock` — exclusive.
    Mutex,
}

impl GuardKind {
    fn noun(self) -> &'static str {
        match self {
            GuardKind::Read => "read",
            GuardKind::Write => "write",
            GuardKind::Mutex => "mutex",
        }
    }
}

/// The identity of the lock behind a guard acquisition.
///
/// Only `Field` and `Helper` identities participate in the lock-order
/// graph (they name one lock workspace-wide); `Local` identities are
/// site-unique and feed `guard-scope` only.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockId {
    /// A `Mutex`/`RwLock` struct field, `owner.field`.
    Field {
        /// The struct that declares the field.
        owner: String,
        /// The field name.
        field: String,
    },
    /// A guard-returning method called as `self.helper()` — the lock is
    /// whatever the helper's impl type wraps (e.g. the registry's
    /// internal `lock()`).
    Helper {
        /// The impl type the helper belongs to.
        owner: String,
        /// The helper method name.
        helper: String,
    },
    /// A local lock binding or an unresolvable helper argument;
    /// identified by name and line, never linked across functions.
    Local {
        /// The binding or pseudo name.
        name: String,
        /// Acquisition line (keeps the id site-unique).
        line: u32,
    },
}

impl LockId {
    /// Human-readable lock name for diagnostics.
    pub fn render(&self) -> String {
        match self {
            LockId::Field { owner, field } => format!("{owner}.{field}"),
            LockId::Helper { owner, helper } => format!("{owner}::{helper}()"),
            LockId::Local { name, .. } => format!("local `{name}`"),
        }
    }

    /// The workspace-wide graph key, if this identity names one lock.
    fn key(&self) -> Option<String> {
        match self {
            LockId::Local { .. } => None,
            other => Some(other.render()),
        }
    }
}

/// One guard acquisition inside a function body, with its live scope.
#[derive(Clone, Debug)]
pub struct GuardSite {
    /// Which lock is acquired.
    pub lock: LockId,
    /// Guard flavour.
    pub kind: GuardKind,
    /// 1-based acquisition line.
    pub line: u32,
    /// Token index of the acquiring call's name.
    pub call_tok: usize,
    /// Token index of the acquiring call's closing `)`.
    pub end_call: usize,
    /// Last token index (inclusive) at which the guard is live:
    /// `drop(binding)`, end of statement for an unbound temporary, or
    /// the enclosing block's `}`.
    pub scope_end: usize,
}

/// How a call site names its callee — decides call-graph attribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallForm {
    /// `foo(..)` or `Path::foo(..)` — matched against every fn `foo`.
    Free,
    /// `self.foo(..)` — matched against fns `foo` on the same impl type.
    SelfMethod,
    /// `expr.foo(..)` — receiver type unknown, never propagated.
    Method,
}

/// One outgoing call inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Callee name token text.
    pub name: String,
    /// Token index of the name.
    pub tok: usize,
    /// 1-based line.
    pub line: u32,
    /// Attribution form.
    pub form: CallForm,
}

/// One `fn` item (free, inherent or trait method) with its body scan.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Index into the analyzed file list.
    pub file: usize,
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Enclosing impl's type name, if any.
    pub self_type: Option<String>,
    /// Enclosing impl's trait name, if any.
    pub trait_name: Option<String>,
    /// Token range of the body: `(index of {, index of })`.
    pub body: (usize, usize),
    /// `true` for test files and `#[cfg(test)]` regions.
    pub is_test: bool,
    /// `Some` when the return type names a guard type — the fn is a
    /// guard helper and its *call sites* are acquisitions.
    pub returns_guard: Option<GuardKind>,
    /// Guard acquisitions in the body.
    pub guards: Vec<GuardSite>,
    /// Outgoing calls in the body.
    pub calls: Vec<CallSite>,
}

/// One `impl` block header (`impl Type` or `impl Trait for Type`).
#[derive(Clone, Debug)]
pub struct ImplBlock {
    /// Index into the analyzed file list.
    pub file: usize,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
    /// Trait name (last path segment) for trait impls.
    pub trait_name: Option<String>,
    /// Implementing type name (first path segment of the type).
    pub type_name: String,
    /// Token range of the block body.
    pub body: (usize, usize),
}

/// The phase-1 product: every item the cross-file rules need.
#[derive(Debug, Default)]
pub struct WorkspaceModel {
    /// Every `fn` item in the workspace.
    pub fns: Vec<FnItem>,
    /// Every `impl` block in the workspace.
    pub impls: Vec<ImplBlock>,
    /// Lock-typed struct fields: field name → declaring structs.
    pub lock_fields: HashMap<String, Vec<String>>,
    /// Function name → indices into [`WorkspaceModel::fns`].
    pub fns_by_name: HashMap<String, Vec<usize>>,
    /// Guard-helper name → (guard kind, impl type if a method).
    pub helpers: HashMap<String, (GuardKind, Option<String>)>,
}

/// Builds the workspace model over every analyzed file.
pub fn build(files: &[SourceFile]) -> WorkspaceModel {
    let mut model = WorkspaceModel::default();
    for (fi, file) in files.iter().enumerate() {
        scan_structs(file, &mut model);
        scan_impls(fi, file, &mut model);
    }
    for (fi, file) in files.iter().enumerate() {
        scan_fns(fi, file, &mut model);
    }
    for f in &model.fns {
        if let Some(kind) = f.returns_guard {
            model.helpers.entry(f.name.clone()).or_insert((kind, f.self_type.clone()));
        }
    }
    for (i, f) in model.fns.iter().enumerate() {
        model.fns_by_name.entry(f.name.clone()).or_default().push(i);
    }
    let scans: Vec<(Vec<GuardSite>, Vec<CallSite>)> =
        (0..model.fns.len()).map(|i| scan_fn_body(&model, files, i)).collect();
    for (i, (guards, calls)) in scans.into_iter().enumerate() {
        model.fns[i].guards = guards;
        model.fns[i].calls = calls;
    }
    model
}

/// Runs every model-based rule, appending findings.
pub fn run_model_rules(files: &[SourceFile], model: &WorkspaceModel, out: &mut Vec<Finding>) {
    lock_order(files, model, out);
    guard_scope(files, model, out);
    trait_contract(files, model, out);
}

/// Index just past the `>` matching the `<` at `open`. A `>` preceded
/// by `-` (i.e. the arrow `->`) never closes a bracket.
fn skip_angles(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct('<') {
            depth += 1;
        } else if toks[i].is_punct('>') && !(i > 0 && toks[i - 1].is_punct('-')) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    toks.len()
}

/// Collects `Mutex`/`RwLock`-typed struct fields into the model.
fn scan_structs(file: &SourceFile, model: &mut WorkspaceModel) {
    let toks = &file.toks;
    let mut i = 0;
    while i + 1 < toks.len() {
        if !(toks[i].is_ident("struct") && toks[i + 1].kind == TokKind::Ident) {
            i += 1;
            continue;
        }
        let owner = toks[i + 1].text.clone();
        let mut j = i + 2;
        if toks.get(j).is_some_and(|t| t.is_punct('<')) {
            j = skip_angles(toks, j);
        }
        if !toks.get(j).is_some_and(|t| t.is_punct('{')) {
            i = j; // tuple or unit struct: no named fields to record
            continue;
        }
        let end = match_brace(toks, j);
        let mut k = j + 1;
        let mut bdepth = 0i32;
        while k < end {
            let t = &toks[k];
            if t.is_punct('{') {
                bdepth += 1;
            } else if t.is_punct('}') {
                bdepth -= 1;
            }
            // A field at struct depth: `name :` where the `:` is not part
            // of a `::` path and `name` is not itself a path segment.
            let is_field = bdepth == 0
                && t.kind == TokKind::Ident
                && toks.get(k + 1).is_some_and(|n| n.is_punct(':'))
                && !toks.get(k + 2).is_some_and(|n| n.is_punct(':'))
                && !toks[k - 1].is_punct(':');
            if !is_field {
                k += 1;
                continue;
            }
            let field = t.text.clone();
            // Scan the type tokens up to the comma at field depth.
            let mut d = 0i32;
            let mut m = k + 2;
            let mut is_lock = false;
            while m < end {
                let ty = &toks[m];
                if ty.is_punct('<') || ty.is_punct('(') || ty.is_punct('[') || ty.is_punct('{')
                {
                    d += 1;
                } else if ty.is_punct(')')
                    || ty.is_punct(']')
                    || ty.is_punct('}')
                    || (ty.is_punct('>') && !toks[m - 1].is_punct('-'))
                {
                    d -= 1;
                } else if d == 0 && ty.is_punct(',') {
                    break;
                } else if ty.is_ident("Mutex") || ty.is_ident("RwLock") {
                    is_lock = true;
                }
                m += 1;
            }
            if is_lock {
                let owners = model.lock_fields.entry(field).or_default();
                if !owners.contains(&owner) {
                    owners.push(owner.clone());
                }
            }
            k = m + 1;
        }
        i = end + 1;
    }
}

/// `true` when the `impl` token at `i` starts an item (not an
/// `impl Trait` type position such as `-> impl Iterator` or
/// `x: impl Into<T>`).
fn impl_is_item(toks: &[Tok], i: usize) -> bool {
    if i == 0 {
        return true;
    }
    let prev = &toks[i - 1];
    prev.is_punct('}')
        || prev.is_punct(';')
        || prev.is_punct(']')
        || prev.is_punct('{')
        || prev.is_ident("unsafe")
}

/// Collects `impl` block headers into the model.
fn scan_impls(fi: usize, file: &SourceFile, model: &mut WorkspaceModel) {
    let toks = &file.toks;
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].is_ident("impl") && impl_is_item(toks, i)) {
            i += 1;
            continue;
        }
        let line = toks[i].line;
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_punct('<')) {
            j = skip_angles(toks, j);
        }
        // First path: the trait (for `impl Trait for Type`) or the type.
        let mut last_a: Option<String> = None;
        let mut saw_for = false;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_ident("for") {
                saw_for = true;
                j += 1;
                break;
            }
            if t.is_punct('{') {
                break;
            }
            if t.kind == TokKind::Ident && !t.is_ident("dyn") && !t.is_ident("mut") {
                last_a = Some(t.text.clone());
                j += 1;
                if toks.get(j).is_some_and(|t| t.is_punct('<')) {
                    j = skip_angles(toks, j);
                }
                continue;
            }
            j += 1;
        }
        let (trait_name, type_name) = if saw_for {
            // Second path: the implementing type.
            let mut ty: Option<String> = None;
            while j < toks.len() && !toks[j].is_punct('{') {
                if toks[j].kind == TokKind::Ident
                    && !toks[j].is_ident("dyn")
                    && !toks[j].is_ident("mut")
                    && ty.is_none()
                {
                    ty = Some(toks[j].text.clone());
                }
                if toks[j].is_punct('<') {
                    j = skip_angles(toks, j);
                    continue;
                }
                j += 1;
            }
            (last_a, ty)
        } else {
            (None, last_a)
        };
        // Advance to the body brace (past any `where` clause).
        while j < toks.len() && !toks[j].is_punct('{') {
            j += 1;
        }
        let Some(type_name) = type_name else {
            i = j + 1;
            continue;
        };
        if j >= toks.len() {
            break;
        }
        let end = match_brace(toks, j);
        model.impls.push(ImplBlock { file: fi, line, trait_name, type_name, body: (j, end) });
        i = j + 1; // keep scanning inside the body (fns, nested impls)
    }
}

/// Guard types a helper's return type can name.
fn guard_type(name: &str) -> Option<GuardKind> {
    match name {
        "RwLockReadGuard" => Some(GuardKind::Read),
        "RwLockWriteGuard" => Some(GuardKind::Write),
        "MutexGuard" => Some(GuardKind::Mutex),
        _ => None,
    }
}

/// Collects `fn` items (with impl attribution) into the model.
fn scan_fns(fi: usize, file: &SourceFile, model: &mut WorkspaceModel) {
    let toks = &file.toks;
    let mut i = 0;
    while i + 1 < toks.len() {
        if !(toks[i].is_ident("fn") && toks[i + 1].kind == TokKind::Ident) {
            i += 1;
            continue;
        }
        let name = toks[i + 1].text.clone();
        let line = toks[i].line;
        let mut j = i + 2;
        if toks.get(j).is_some_and(|t| t.is_punct('<')) {
            j = skip_angles(toks, j);
        }
        if !toks.get(j).is_some_and(|t| t.is_punct('(')) {
            i += 2;
            continue;
        }
        let params_close = match_paren(toks, j);
        // Return type / where clause up to the body `{` (or `;` for a
        // bodyless trait declaration).
        let mut k = params_close + 1;
        let mut returns_guard = None;
        loop {
            match toks.get(k) {
                None => return,
                Some(t) if t.is_punct('{') => break,
                Some(t) if t.is_punct(';') => {
                    k = usize::MAX;
                    break;
                }
                Some(t) => {
                    if t.kind == TokKind::Ident {
                        if let Some(g) = guard_type(&t.text) {
                            returns_guard = Some(g);
                        }
                    }
                    k += 1;
                }
            }
        }
        if k == usize::MAX {
            i = params_close + 1;
            continue;
        }
        let end = match_brace(toks, k);
        // Innermost enclosing impl block in this file.
        let encl = model
            .impls
            .iter()
            .filter(|im| im.file == fi && im.body.0 < i && i < im.body.1)
            .min_by_key(|im| im.body.1 - im.body.0);
        model.fns.push(FnItem {
            file: fi,
            name,
            line,
            self_type: encl.map(|im| im.type_name.clone()),
            trait_name: encl.and_then(|im| im.trait_name.clone()),
            body: (k, end),
            is_test: file.class_at(line) == FileClass::Test,
            returns_guard,
            guards: Vec::new(),
            calls: Vec::new(),
        });
        i += 2; // nested fns are items too — keep scanning
    }
}

/// Keywords that read like calls when followed by `(`.
fn is_call_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "loop"
            | "else"
            | "in"
            | "as"
            | "let"
            | "break"
            | "continue"
            | "move"
            | "self"
            | "Self"
    )
}

/// Walks a method receiver backwards from its `.` token, returning the
/// dotted path (`self.core.locks[s].lock()` → `[self, core, locks]`).
/// Index projections are skipped; any other shape (call results, parens)
/// is unresolvable and returns an empty path.
fn walk_receiver(toks: &[Tok], dot: usize) -> Vec<String> {
    let mut segs = VecDeque::new();
    let mut j = dot;
    loop {
        if j == 0 {
            return Vec::new();
        }
        let mut k = j - 1;
        while toks[k].is_punct(']') {
            let mut depth = 0i32;
            let mut m = k;
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
                    return Vec::new();
                }
                m -= 1;
            }
            if m == 0 {
                return Vec::new();
            }
            k = m - 1;
        }
        if toks[k].kind != TokKind::Ident {
            return Vec::new();
        }
        segs.push_front(toks[k].text.clone());
        if k >= 1 && toks[k - 1].is_punct('.') {
            j = k - 1;
            continue;
        }
        return segs.into();
    }
}

/// Parses the first argument of a helper call as a dotted path
/// (`read_guard(&self.core.locks[s])` → `[self, core, locks]`).
fn first_arg_path(toks: &[Tok], open: usize, close: usize) -> Option<Vec<String>> {
    let mut i = open + 1;
    while i < close && (toks[i].is_punct('&') || toks[i].is_ident("mut")) {
        i += 1;
    }
    if i >= close || toks[i].kind != TokKind::Ident {
        return None;
    }
    let mut segs = vec![toks[i].text.clone()];
    i += 1;
    while i < close {
        if toks[i].is_punct(',') {
            break;
        }
        if toks[i].is_punct('.') && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
            segs.push(toks[i + 1].text.clone());
            i += 2;
        } else if toks[i].is_punct('[') {
            let mut depth = 0i32;
            while i < close {
                if toks[i].is_punct('[') {
                    depth += 1;
                } else if toks[i].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                i += 1;
            }
            i += 1;
        } else {
            return None; // a call or operator: not a plain place expression
        }
    }
    Some(segs)
}

/// Resolves a dotted path to a lock identity, or `None`.
fn resolve_path(
    path: &[String],
    self_type: Option<&str>,
    locals: &HashSet<String>,
    lock_fields: &HashMap<String, Vec<String>>,
    line: u32,
) -> Option<LockId> {
    if path.is_empty() {
        return None;
    }
    if path[0] == "self" {
        let rest = &path[1..];
        let last = rest.last()?;
        if rest.len() == 1 {
            if let Some(st) = self_type {
                if lock_fields.get(last).is_some_and(|o| o.iter().any(|s| s == st)) {
                    return Some(LockId::Field { owner: st.to_string(), field: last.clone() });
                }
            }
        }
        let owners = lock_fields.get(last)?;
        if owners.len() == 1 {
            return Some(LockId::Field { owner: owners[0].clone(), field: last.clone() });
        }
        return None;
    }
    if path.len() == 1 && locals.contains(&path[0]) {
        return Some(LockId::Local { name: path[0].clone(), line });
    }
    let last = path.last()?;
    let owners = lock_fields.get(last)?;
    if owners.len() == 1 {
        return Some(LockId::Field { owner: owners[0].clone(), field: last.clone() });
    }
    None
}

/// Scans one fn body for local lock bindings, guard acquisitions (with
/// scopes) and outgoing calls. Nested fn items are skipped — they are
/// scanned as their own [`FnItem`]s.
fn scan_fn_body(
    model: &WorkspaceModel,
    files: &[SourceFile],
    idx: usize,
) -> (Vec<GuardSite>, Vec<CallSite>) {
    let f = &model.fns[idx];
    let toks = &files[f.file].toks;
    let (open, end) = f.body;
    let children: Vec<(usize, usize)> = model
        .fns
        .iter()
        .enumerate()
        .filter(|(j, g)| *j != idx && g.file == f.file && g.body.0 > open && g.body.1 < end)
        .map(|(_, g)| g.body)
        .collect();
    let in_child =
        |i: usize| children.iter().find(|&&(s, e)| s <= i && i <= e).map(|&(_, e)| e);

    // Pass 1: local `let x = … Mutex::new(…) …` / `RwLock::new` bindings.
    let mut locals = HashSet::new();
    let mut i = open + 1;
    while i < end {
        if let Some(ce) = in_child(i) {
            i = ce + 1;
            continue;
        }
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.kind == TokKind::Ident) {
                let name = toks[j].text.clone();
                let mut d = 0i32;
                let mut m = j + 1;
                while m < end {
                    let t = &toks[m];
                    if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                        d += 1;
                    } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                        d -= 1;
                    } else if t.is_punct(';') && d == 0 {
                        break;
                    } else if (t.is_ident("Mutex") || t.is_ident("RwLock"))
                        && toks.get(m + 3).is_some_and(|n| n.is_ident("new"))
                    {
                        locals.insert(name.clone());
                    }
                    m += 1;
                }
            }
        }
        i += 1;
    }

    // Precompute brace matches inside the body for enclosing-block scopes.
    let mut brace_match = HashMap::new();
    let mut stack = Vec::new();
    for (t, tok) in toks.iter().enumerate().take(end.min(toks.len() - 1) + 1).skip(open) {
        if tok.is_punct('{') {
            stack.push(t);
        } else if tok.is_punct('}') {
            if let Some(o) = stack.pop() {
                brace_match.insert(o, t);
            }
        }
    }

    // Pass 2: calls and guard acquisitions.
    let mut guards = Vec::new();
    let mut calls = Vec::new();
    let mut enclosing: Vec<usize> = Vec::new(); // stack of close indices
    let mut i = open + 1;
    while i < end {
        if let Some(ce) = in_child(i) {
            i = ce + 1;
            continue;
        }
        let t = &toks[i];
        if t.is_punct('{') {
            enclosing.push(*brace_match.get(&i).unwrap_or(&end));
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            enclosing.pop();
            i += 1;
            continue;
        }
        if !(t.kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && !is_call_keyword(&t.text))
        {
            i += 1;
            continue;
        }
        let name = t.text.clone();
        let line = t.line;
        let close = match_paren(toks, i + 1);
        let is_method = i > open && toks[i - 1].is_punct('.');
        let receiver = if is_method { walk_receiver(toks, i - 1) } else { Vec::new() };
        let form = if !is_method {
            CallForm::Free
        } else if receiver == ["self"] {
            CallForm::SelfMethod
        } else {
            CallForm::Method
        };
        calls.push(CallSite { name: name.clone(), tok: i, line, form });

        let intrinsic = match name.as_str() {
            "lock" => Some(GuardKind::Mutex),
            "read" => Some(GuardKind::Read),
            "write" => Some(GuardKind::Write),
            _ => None,
        };
        let acq: Option<(GuardKind, LockId)> = if is_method
            && close == i + 2
            && intrinsic.is_some()
        {
            let kind = intrinsic.unwrap_or(GuardKind::Mutex);
            match resolve_path(
                &receiver,
                f.self_type.as_deref(),
                &locals,
                &model.lock_fields,
                line,
            ) {
                Some(id) => Some((kind, id)),
                None if receiver == ["self"] && model.helpers.contains_key(&name) => {
                    f.self_type.as_ref().map(|st| {
                        (kind, LockId::Helper { owner: st.clone(), helper: name.clone() })
                    })
                }
                // Unresolvable receivers are skipped: `.read()`/`.write()`
                // on io traits and foreign types must not become guards.
                None => None,
            }
        } else if !is_method && model.helpers.contains_key(&name) {
            let (kind, _) = model.helpers[&name];
            let id = first_arg_path(toks, i + 1, close)
                .and_then(|p| {
                    resolve_path(&p, f.self_type.as_deref(), &locals, &model.lock_fields, line)
                })
                .unwrap_or(LockId::Local { name: format!("{name}(..)"), line });
            Some((kind, id))
        } else if is_method && model.helpers.contains_key(&name) && intrinsic.is_none() {
            let (kind, _) = model.helpers[&name];
            let id = resolve_path(
                &receiver,
                f.self_type.as_deref(),
                &locals,
                &model.lock_fields,
                line,
            )
            .unwrap_or(LockId::Local { name: format!("{name}(..)"), line });
            Some((kind, id))
        } else {
            None
        };

        if let Some((kind, lock)) = acq {
            // Statement start: the token after the previous `;`/`{`/`}`.
            let mut j = i;
            while j > open + 1
                && !(toks[j - 1].is_punct(';')
                    || toks[j - 1].is_punct('{')
                    || toks[j - 1].is_punct('}'))
            {
                j -= 1;
            }
            let binding = if toks[j].is_ident("let") {
                let mut k = j + 1;
                if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
                    k += 1;
                }
                toks.get(k)
                    .filter(|t| t.kind == TokKind::Ident && t.text != "_")
                    .map(|t| t.text.clone())
            } else {
                None
            };
            let encl = *enclosing.last().unwrap_or(&end);
            let scope_end = match &binding {
                Some(b) => {
                    let mut s = encl;
                    let mut t2 = close + 1;
                    while t2 + 3 <= encl {
                        if toks[t2].is_ident("drop")
                            && toks[t2 + 1].is_punct('(')
                            && toks[t2 + 2].is_ident(b)
                            && toks[t2 + 3].is_punct(')')
                        {
                            s = t2 + 3;
                            break;
                        }
                        t2 += 1;
                    }
                    s
                }
                None => {
                    // Temporary: lives to the end of the statement (or of
                    // the enclosing expression if nested in one).
                    let mut d = 0i32;
                    let mut s = encl;
                    let mut t2 = close + 1;
                    while t2 <= encl {
                        let tt = &toks[t2];
                        if tt.is_punct('(') || tt.is_punct('[') || tt.is_punct('{') {
                            d += 1;
                        } else if tt.is_punct(')') || tt.is_punct(']') || tt.is_punct('}') {
                            d -= 1;
                            if d < 0 {
                                s = t2;
                                break;
                            }
                        } else if tt.is_punct(';') && d == 0 {
                            s = t2;
                            break;
                        }
                        t2 += 1;
                    }
                    s.min(encl)
                }
            };
            guards.push(GuardSite {
                lock,
                kind,
                line,
                call_tok: i,
                end_call: close,
                scope_end,
            });
        }
        i += 1;
    }
    (guards, calls)
}

/// `lock-order`: builds the workspace lock-acquisition graph (nested
/// acquisitions within one fn, plus one call-graph level) and reports
/// every cycle with the acquisition chains behind its edges.
fn lock_order(files: &[SourceFile], model: &WorkspaceModel, out: &mut Vec<Finding>) {
    // edge (from, to) → (chain description, finding file, finding line)
    let mut edges: BTreeMap<(String, String), (String, String, u32)> = BTreeMap::new();
    for (fi, f) in model.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let path = &files[f.file].path;
        for g1 in &f.guards {
            let Some(k1) = g1.lock.key() else { continue };
            for g2 in &f.guards {
                let Some(k2) = g2.lock.key() else { continue };
                if g2.call_tok > g1.end_call && g2.call_tok <= g1.scope_end {
                    let chain = format!(
                        "`{}` ({}:{}) takes `{}` then takes `{}` at line {}",
                        f.name, path, g1.line, k1, k2, g2.line
                    );
                    edges.entry((k1.clone(), k2)).or_insert((chain, path.clone(), g1.line));
                }
            }
            for c in &f.calls {
                if !(c.tok > g1.end_call && c.tok <= g1.scope_end) {
                    continue;
                }
                let Some(callees) = model.fns_by_name.get(&c.name) else { continue };
                for &ci in callees {
                    if ci == fi {
                        continue;
                    }
                    let cf = &model.fns[ci];
                    if cf.is_test {
                        continue;
                    }
                    let attributable = match c.form {
                        CallForm::Free => true,
                        CallForm::SelfMethod => cf.self_type == f.self_type,
                        CallForm::Method => false,
                    };
                    if !attributable {
                        continue;
                    }
                    for g2 in &cf.guards {
                        let Some(k2) = g2.lock.key() else { continue };
                        if k2 == k1 {
                            continue; // name-propagated self-edges are noise
                        }
                        let callee = if c.name == cf.name {
                            format!("`{}`", cf.name)
                        } else {
                            format!("`{}` → `{}`", c.name, cf.name)
                        };
                        let chain = format!(
                            "`{}` ({}:{}) takes `{}`, then calls {callee} ({}:{}) which \
                             takes `{}`",
                            f.name, path, g1.line, k1, files[cf.file].path, g2.line, k2
                        );
                        edges.entry((k1.clone(), k2)).or_insert((chain, path.clone(), g1.line));
                    }
                }
            }
        }
    }

    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a.as_str()).or_default().push(b.as_str());
    }
    let mut reported: HashSet<String> = HashSet::new();
    for ((a, b), (chain, file, line)) in &edges {
        let cycle_nodes: Option<Vec<String>> = if a == b {
            Some(vec![a.clone()])
        } else {
            bfs_path(&adj, b, a).map(|mut back| {
                // The path ends where the cycle starts: drop the
                // duplicate so `nodes` lists each lock exactly once.
                back.pop();
                let mut nodes = vec![a.clone()];
                nodes.extend(back);
                nodes
            })
        };
        let Some(nodes) = cycle_nodes else { continue };
        let canonical = nodes
            .iter()
            .collect::<BTreeSet<_>>()
            .iter()
            .map(|s| s.as_str())
            .collect::<Vec<_>>()
            .join(" \u{2194} ");
        if !reported.insert(canonical) {
            continue;
        }
        let display = {
            let mut d = nodes.join("` \u{2192} `");
            d.push_str("` \u{2192} `");
            d.push_str(&nodes[0]);
            format!("`{d}`")
        };
        let mut chains = vec![chain.clone()];
        for w in nodes.windows(2) {
            if let Some((c, _, _)) = edges.get(&(w[0].clone(), w[1].clone())) {
                if !chains.contains(c) {
                    chains.push(c.clone());
                }
            }
        }
        if nodes.len() > 1 {
            if let Some((c, _, _)) =
                edges.get(&(nodes[nodes.len() - 1].clone(), nodes[0].clone()))
            {
                if !chains.contains(c) {
                    chains.push(c.clone());
                }
            }
        }
        let msg = if a == b {
            format!(
                "`{a}` is acquired again while already held — self-deadlock (or reader \
                 starvation) under contention; chain: {}",
                chains.join("; ")
            )
        } else {
            format!(
                "potential deadlock: lock-order cycle {display}; acquisition chains: {}",
                chains.join("; ")
            )
        };
        out.push(Finding { file: file.clone(), line: *line, rule: "lock-order", message: msg });
    }
}

/// Shortest path `from ⇝ to` over the edge list, as the node sequence
/// starting at `from` and ending at `to` (BFS).
fn bfs_path(adj: &BTreeMap<&str, Vec<&str>>, from: &str, to: &str) -> Option<Vec<String>> {
    let mut parent: HashMap<&str, &str> = HashMap::new();
    let mut queue = VecDeque::from([from]);
    let mut seen: HashSet<&str> = HashSet::from([from]);
    while let Some(n) = queue.pop_front() {
        if n == to {
            let mut path = vec![n.to_string()];
            let mut cur = n;
            while let Some(&p) = parent.get(cur) {
                path.push(p.to_string());
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for &m in adj.get(n).into_iter().flatten() {
            if seen.insert(m) {
                parent.insert(m, n);
                queue.push_back(m);
            }
        }
    }
    None
}

/// `guard-scope`: no obs/journal/metrics traffic while an exclusive
/// (write or mutex) guard is live. The PR 8/PR 9 invariant: lock hold
/// time must not grow with the observability layer. `Obs::timer()` is
/// exempt (a pure clock read), as are the obs layer's own files, test
/// code, and binaries.
fn guard_scope(files: &[SourceFile], model: &WorkspaceModel, out: &mut Vec<Finding>) {
    for f in &model.fns {
        if f.is_test || f.guards.is_empty() {
            continue;
        }
        let file = &files[f.file];
        if file.class != FileClass::Library || file.path.starts_with("crates/core/src/obs/") {
            continue;
        }
        let exclusive: Vec<&GuardSite> =
            f.guards.iter().filter(|g| g.kind != GuardKind::Read).collect();
        if exclusive.is_empty() {
            continue;
        }
        let toks = &files[f.file].toks;
        let (open, end) = f.body;
        let children: Vec<(usize, usize)> = model
            .fns
            .iter()
            .filter(|g| {
                g.file == f.file && g.body.0 > open && g.body.1 < end && g.body != f.body
            })
            .map(|g| g.body)
            .collect();
        let mut i = open + 1;
        while i < end {
            if let Some(&(_, ce)) = children.iter().find(|&&(s, e)| s <= i && i <= e) {
                i = ce + 1;
                continue;
            }
            let t = &toks[i];
            let site: Option<(usize, String)> = if t.is_ident("obs")
                && toks.get(i + 1).is_some_and(|n| n.is_punct('.'))
                && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Ident)
                && toks.get(i + 3).is_some_and(|n| n.is_punct('('))
                && !toks[i + 2].is_ident("timer")
            {
                Some((i + 2, format!("obs.{}(..)", toks[i + 2].text)))
            } else if t.is_ident("EventJournal") || t.is_ident("MetricsRegistry") {
                Some((i, format!("{} access", t.text)))
            } else {
                None
            };
            if let Some((site_tok, desc)) = site {
                if file.class_at(toks[site_tok].line) != FileClass::Test {
                    for g in &exclusive {
                        if site_tok > g.end_call && site_tok <= g.scope_end {
                            out.push(Finding {
                                file: file.path.clone(),
                                line: toks[site_tok].line,
                                rule: "guard-scope",
                                message: format!(
                                    "`{desc}` runs while the {} guard on `{}` (line {}) is \
                                     live: record after the guard drops — lock hold time \
                                     must not grow with observability",
                                    g.kind.noun(),
                                    g.lock.render(),
                                    g.line
                                ),
                            });
                            break;
                        }
                    }
                }
                i = site_tok + 1;
                continue;
            }
            i += 1;
        }
    }
}

/// Batch/cursor surfaces of `MultidimIndex`, plus the fold's `absorbed`,
/// whose overrides must be pinned against the reference by an
/// equivalence suite.
const SURFACE: &[&str] =
    &["batch_query", "range_query_cursor", "range_query_filtered_cursor", "absorbed"];

/// `trait-contract`: every non-test `impl MultidimIndex` that overrides
/// a batch/cursor/absorb surface must be referenced from an
/// equivalence test file (`…equivalence….rs` under `tests/`), which is
/// where the house bit-identity sweeps live.
fn trait_contract(files: &[SourceFile], model: &WorkspaceModel, out: &mut Vec<Finding>) {
    let mut equiv_idents: HashSet<&str> = HashSet::new();
    for file in files {
        if file.class == FileClass::Test && file.path.contains("equivalence") {
            for t in &file.toks {
                if t.kind == TokKind::Ident {
                    equiv_idents.insert(t.text.as_str());
                }
            }
        }
    }
    for imp in &model.impls {
        if imp.trait_name.as_deref() != Some("MultidimIndex") {
            continue;
        }
        let file = &files[imp.file];
        if file.class_at(imp.line) == FileClass::Test {
            continue;
        }
        let overridden: Vec<&str> = model
            .fns
            .iter()
            .filter(|f| {
                f.file == imp.file
                    && f.body.0 > imp.body.0
                    && f.body.1 < imp.body.1
                    && SURFACE.contains(&f.name.as_str())
            })
            .map(|f| f.name.as_str())
            .collect();
        if overridden.is_empty() || equiv_idents.contains(imp.type_name.as_str()) {
            continue;
        }
        out.push(Finding {
            file: file.path.clone(),
            line: imp.line,
            rule: "trait-contract",
            message: format!(
                "`impl MultidimIndex for {}` overrides `{}` but `{}` never appears in an \
                 equivalence suite (a test file whose name contains `equivalence`): add it \
                 to the bit-identity sweep so the override cannot drift from the reference",
                imp.type_name,
                overridden.join("`, `"),
                imp.type_name
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SourceFile;

    fn model_of(src: &str) -> (Vec<SourceFile>, WorkspaceModel) {
        let files = vec![SourceFile::new("crates/core/src/x.rs".to_string(), src)];
        let model = build(&files);
        (files, model)
    }

    #[test]
    fn struct_lock_fields_are_collected() {
        let (_, m) = model_of(
            "struct H { state: RwLock<Vec<u64>>, insert: Mutex<()>, n: usize }\n\
             struct Plain { a: Vec<u64> }\n",
        );
        assert_eq!(m.lock_fields.get("state"), Some(&vec!["H".to_string()]));
        assert_eq!(m.lock_fields.get("insert"), Some(&vec!["H".to_string()]));
        assert!(!m.lock_fields.contains_key("n"));
        assert!(!m.lock_fields.contains_key("a"));
    }

    #[test]
    fn impls_and_fn_attribution() {
        let (_, m) = model_of(
            "impl MultidimIndex for Handle {\n    fn batch_query(&self) {}\n}\n\
             impl Handle {\n    fn inherent(&self) {}\n}\n\
             fn free() {}\n",
        );
        assert_eq!(m.impls.len(), 2);
        assert_eq!(m.impls[0].trait_name.as_deref(), Some("MultidimIndex"));
        assert_eq!(m.impls[0].type_name, "Handle");
        assert_eq!(m.impls[1].trait_name, None);
        let bq = m.fns.iter().find(|f| f.name == "batch_query").expect("batch_query");
        assert_eq!(bq.self_type.as_deref(), Some("Handle"));
        assert_eq!(bq.trait_name.as_deref(), Some("MultidimIndex"));
        let free = m.fns.iter().find(|f| f.name == "free").expect("free");
        assert_eq!(free.self_type, None);
    }

    #[test]
    fn impl_trait_in_return_position_is_not_an_impl_block() {
        let (_, m) = model_of("fn f() -> impl Iterator<Item = u32> {\n    0..3\n}\n");
        assert!(m.impls.is_empty());
    }

    #[test]
    fn guard_helper_detected_by_return_type() {
        let (_, m) = model_of(
            "fn read_guard<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {\n\
                 lock.read().unwrap()\n\
             }\n",
        );
        assert_eq!(m.helpers.get("read_guard").map(|h| h.0), Some(GuardKind::Read));
    }

    #[test]
    fn self_field_acquisition_and_drop_scope() {
        let (_, m) = model_of(
            "struct H { state: RwLock<u64>, obs: u32 }\n\
             impl H {\n\
                 fn f(&self) {\n\
                     let mut st = self.state.write().unwrap_or_else(|p| p.into_inner());\n\
                     *st += 1;\n\
                     drop(st);\n\
                     touch();\n\
                 }\n\
             }\n",
        );
        let f = m.fns.iter().find(|f| f.name == "f").expect("fn f");
        assert_eq!(f.guards.len(), 1);
        let g = &f.guards[0];
        assert_eq!(g.kind, GuardKind::Write);
        assert_eq!(g.lock, LockId::Field { owner: "H".into(), field: "state".into() });
        // `touch()` is called after drop(st): outside the guard scope.
        let touch = f.calls.iter().find(|c| c.name == "touch").expect("touch call");
        assert!(touch.tok > g.scope_end, "drop(st) must close the guard scope");
    }

    #[test]
    fn local_mutex_binding_resolves() {
        let (_, m) = model_of(
            "fn f() {\n\
                 let done = Mutex::new(0u64);\n\
                 *done.lock().unwrap_or_else(|p| p.into_inner()) += 1;\n\
             }\n",
        );
        let f = &m.fns[0];
        assert_eq!(f.guards.len(), 1);
        assert!(matches!(&f.guards[0].lock, LockId::Local { name, .. } if name == "done"));
    }

    #[test]
    fn io_read_with_args_is_not_a_guard() {
        let (_, m) = model_of(
            "fn f(r: &mut impl std::io::Read) {\n\
                 let mut buf = [0u8; 4];\n\
                 let _ = r.read(&mut buf);\n\
             }\n",
        );
        assert!(m.fns[0].guards.is_empty());
    }

    #[test]
    fn lock_order_cycle_reported_with_both_chains() {
        let src = "struct L { a: Mutex<u64>, b: Mutex<u64> }\n\
             impl L {\n\
                 fn x(&self) {\n\
                     let ga = self.a.lock().unwrap_or_else(|p| p.into_inner());\n\
                     let gb = self.b.lock().unwrap_or_else(|p| p.into_inner());\n\
                     drop(gb);\n\
                     drop(ga);\n\
                 }\n\
                 fn y(&self) {\n\
                     let gb = self.b.lock().unwrap_or_else(|p| p.into_inner());\n\
                     let ga = self.a.lock().unwrap_or_else(|p| p.into_inner());\n\
                     drop(ga);\n\
                     drop(gb);\n\
                 }\n\
             }\n";
        let (files, m) = model_of(src);
        let mut out = Vec::new();
        lock_order(&files, &m, &mut out);
        assert_eq!(out.len(), 1, "one canonical cycle: {out:?}");
        let msg = &out[0].message;
        assert!(msg.contains("L.a") && msg.contains("L.b"), "{msg}");
        assert!(msg.contains("`x`") && msg.contains("`y`"), "both chains named: {msg}");
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "struct L { a: Mutex<u64>, b: Mutex<u64> }\n\
             impl L {\n\
                 fn x(&self) {\n\
                     let ga = self.a.lock().unwrap_or_else(|p| p.into_inner());\n\
                     let gb = self.b.lock().unwrap_or_else(|p| p.into_inner());\n\
                     drop(gb);\n\
                     drop(ga);\n\
                 }\n\
                 fn y(&self) {\n\
                     let ga = self.a.lock().unwrap_or_else(|p| p.into_inner());\n\
                     let gb = self.b.lock().unwrap_or_else(|p| p.into_inner());\n\
                     drop(gb);\n\
                     drop(ga);\n\
                 }\n\
             }\n";
        let (files, m) = model_of(src);
        let mut out = Vec::new();
        lock_order(&files, &m, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn guard_scope_flags_obs_under_write_guard() {
        let src = "struct H { state: RwLock<u64>, obs: Obs }\n\
             impl H {\n\
                 fn f(&self) {\n\
                     let mut st = self.state.write().unwrap_or_else(|p| p.into_inner());\n\
                     *st += 1;\n\
                     self.obs.record_insert(1);\n\
                     drop(st);\n\
                 }\n\
                 fn g(&self) {\n\
                     let mut st = self.state.write().unwrap_or_else(|p| p.into_inner());\n\
                     *st += 1;\n\
                     drop(st);\n\
                     self.obs.record_insert(1);\n\
                 }\n\
             }\n";
        let (files, m) = model_of(src);
        let mut out = Vec::new();
        guard_scope(&files, &m, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 6);
        assert!(out[0].message.contains("H.state"), "{}", out[0].message);
    }

    #[test]
    fn read_guards_are_exempt_from_guard_scope() {
        let src = "struct H { state: RwLock<u64>, obs: Obs }\n\
             impl H {\n\
                 fn f(&self) {\n\
                     let st = self.state.read().unwrap_or_else(|p| p.into_inner());\n\
                     self.obs.record_insert(*st);\n\
                     drop(st);\n\
                 }\n\
             }\n";
        let (files, m) = model_of(src);
        let mut out = Vec::new();
        guard_scope(&files, &m, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
