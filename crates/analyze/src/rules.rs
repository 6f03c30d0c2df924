//! The `ofar-lint` rule catalog.
//!
//! Four families, each guarding one precondition of a group-parallel
//! engine (ROADMAP item 3a):
//!
//! * **D — determinism.** The simulation must be a pure function of
//!   `(config, seed)`: no hash-order iteration in simulation state, no
//!   wall-clock or thread identity in the deterministic core, no float
//!   accumulation feeding determinism signatures.
//! * **H — hot-path heap allocation.** `Network::step` and everything
//!   conservatively reachable from it must not allocate per cycle.
//! * **S — snapshot completeness.** Every field of a struct with a
//!   checkpoint codec must be visited by that codec: "added a field,
//!   forgot to snapshot it" breaks the build, not bit-exact restart.
//! * **P — release panics.** No `unwrap`/`expect`/panicking macro or
//!   truncating `as` cast in the hot path; no panicking indexing in the
//!   conservation counters.
//!
//! Plus the **A** family: meta-rules keeping the suppression machinery
//! honest (malformed/unused suppressions).

use crate::graph::FnRef;
use crate::lexer::{TokKind, Token};
use crate::parse::File;
use std::collections::{BTreeMap, BTreeSet};

/// D001: order-sensitive hash container in a deterministic-core crate.
pub const RULE_HASH_CONTAINER: &str = "D001";
/// D002: wall-clock time source in the deterministic core.
pub const RULE_WALL_CLOCK: &str = "D002";
/// D003: thread identity / thread-local RNG in the deterministic core.
pub const RULE_THREAD_IDENTITY: &str = "D003";
/// D004: pointer value used as data in the deterministic core.
pub const RULE_POINTER_AS_ID: &str = "D004";
/// D005: floating-point accumulation into deterministic state.
pub const RULE_FLOAT_ACCUM: &str = "D005";
/// H001: heap allocation reachable from `Network::step`.
pub const RULE_HOT_ALLOC: &str = "H001";
/// S001: struct field missing from its snapshot/checkpoint codec.
pub const RULE_SNAPSHOT_FIELD: &str = "S001";
/// P001: panicking call in the release hot path.
pub const RULE_HOT_PANIC: &str = "P001";
/// P002: truncating `as` cast in the release hot path.
pub const RULE_TRUNCATING_CAST: &str = "P002";
/// P003: panicking indexing in the conservation counters.
pub const RULE_COUNTER_INDEXING: &str = "P003";
/// A001: malformed suppression (missing rule or reason).
pub const RULE_BAD_SUPPRESSION: &str = "A001";
/// A002: suppression that suppresses nothing.
pub const RULE_UNUSED_SUPPRESSION: &str = "A002";

/// The full catalog: `(id, one-line description)`.
pub const CATALOG: &[(&str, &str)] = &[
    (
        RULE_HASH_CONTAINER,
        "HashMap/HashSet in a deterministic-core crate: iteration order \
         varies across runs and toolchains; use BTreeMap/BTreeSet or a \
         sorted Vec",
    ),
    (
        RULE_WALL_CLOCK,
        "std::time/Instant/SystemTime in the deterministic core: \
         simulated time must come from the cycle counter",
    ),
    (
        RULE_THREAD_IDENTITY,
        "thread identity or thread-local RNG in the deterministic core: \
         behavior must not depend on scheduling",
    ),
    (
        RULE_POINTER_AS_ID,
        "pointer value used as data in the deterministic core: \
         addresses vary per run (ASLR) and per allocator",
    ),
    (
        RULE_FLOAT_ACCUM,
        "floating-point accumulation into deterministic state: \
         reassociation under the parallel engine changes the result",
    ),
    (
        RULE_HOT_ALLOC,
        "heap allocation reachable from Network::step: per-cycle \
         allocation defeats the arena/SoA hot-path rewrite",
    ),
    (
        RULE_SNAPSHOT_FIELD,
        "struct field not visited by its snapshot codec: silently \
         breaks bit-exact checkpoint/restart",
    ),
    (
        RULE_HOT_PANIC,
        "panicking call reachable from Network::step: release hot paths \
         must fail via typed errors or audited counters",
    ),
    (
        RULE_TRUNCATING_CAST,
        "truncating `as` cast reachable from Network::step: silent \
         wraparound corrupts conservation accounting",
    ),
    (
        RULE_COUNTER_INDEXING,
        "panicking indexing in the conservation counters: counter \
         readout must be total",
    ),
    (
        RULE_BAD_SUPPRESSION,
        "malformed lint:allow — every suppression names a rule and \
         carries a non-empty reason",
    ),
    (
        RULE_UNUSED_SUPPRESSION,
        "lint:allow that suppresses nothing — remove it so the \
         suppression set only shrinks",
    ),
];

/// True when `id` names a shipped rule.
pub fn known_rule(id: &str) -> bool {
    CATALOG.iter().any(|&(r, _)| r == id)
}

/// What the analyzer reports.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule id (`D001`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line (0 for file-level findings).
    pub line: u32,
    /// Human-readable message.
    pub message: String,
    /// Trimmed text of the offending line.
    pub snippet: String,
    /// `Some` once a suppression claimed this finding.
    pub suppressed: Option<Suppression>,
}

/// How a finding was suppressed.
#[derive(Clone, Debug)]
pub struct Suppression {
    /// `"inline"`: a `lint:allow` comment (the JSON report's `via`).
    pub via: &'static str,
    /// The mandatory justification.
    pub reason: String,
}

/// Analyzer configuration.
#[derive(Clone, Debug)]
pub struct LintConfig {
    /// Crates forming the deterministic core (D rules).
    pub det_crates: Vec<String>,
    /// Hot-path roots, as `Type::name` or bare names (H/P rules).
    pub hot_roots: Vec<String>,
    /// Crates that do **not** participate in the per-cycle loop. The
    /// conservative name-based call graph fans out across the whole
    /// workspace, so without this filter a driver-level `apply` or
    /// `push` in a tooling crate would count as hot merely for sharing
    /// a name with an engine method. This is a denylist rather than a
    /// hot allowlist on purpose: a future crate that joins the cycle
    /// loop is checked by default, and misclassifying a crate as hot
    /// surfaces as visible findings — the stale-list failure mode is
    /// noise, never silence. H/P findings are suppressed only in the
    /// crates named here.
    pub cold_crates: Vec<String>,
    /// Impl types forming the conservation counters (P003).
    pub counter_types: Vec<String>,
}

impl Default for LintConfig {
    fn default() -> Self {
        Self {
            det_crates: ["topology", "engine", "routing", "traffic", "verify"]
                .map(str::to_string)
                .to_vec(),
            hot_roots: vec!["Network::step".to_string()],
            cold_crates: ["analyze", "bench", "core", "verify", "ofar"]
                .map(str::to_string)
                .to_vec(),
            counter_types: vec!["Stats".to_string(), "StatsWindow".to_string()],
        }
    }
}

/// Run every rule over the parsed workspace. `reachable` is the hot-path
/// set from [`crate::graph::CallGraph::reachable`].
pub fn run(files: &[File], cfg: &LintConfig, reachable: &BTreeSet<FnRef>) -> Vec<Finding> {
    let mut out = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        let det = cfg.det_crates.iter().any(|c| c == &file.crate_name);
        let hot_crate = !cfg.cold_crates.iter().any(|c| c == &file.crate_name);
        if det {
            d001_hash_containers(file, &mut out);
        }
        for (gi, f) in file.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            if det {
                d00x_body_scans(file, f.body, &mut out);
            }
            if hot_crate && reachable.contains(&(fi, gi)) {
                h001_allocations(file, f, &mut out);
                p001_panics(file, f, &mut out);
                p002_truncating_casts(file, f.body, &mut out);
            }
            if f.impl_type
                .as_deref()
                .is_some_and(|t| cfg.counter_types.iter().any(|c| c == t))
            {
                p003_indexing(file, f.body, &mut out);
            }
        }
    }
    d005_float_accumulation(files, cfg, &mut out);
    s001_snapshot_completeness(files, &mut out);
    out
}

fn code_toks(file: &File) -> &[Token] {
    &file.tokens
}

pub(crate) fn line_snippet(file: &File, line: u32) -> String {
    file.src
        .lines()
        .nth(line.saturating_sub(1) as usize)
        .unwrap_or("")
        .trim()
        .to_string()
}

pub(crate) fn push(
    out: &mut Vec<Finding>,
    rule: &'static str,
    file: &File,
    line: u32,
    message: String,
) {
    out.push(Finding {
        rule,
        file: file.path.clone(),
        line,
        message,
        snippet: line_snippet(file, line),
        suppressed: None,
    });
}

/// Adjacent tokens (no whitespace between): multi-char operator test.
fn adj(a: &Token, b: &Token) -> bool {
    a.end == b.start
}

// ---------------------------------------------------------------------
// D family
// ---------------------------------------------------------------------

fn d001_hash_containers(file: &File, out: &mut Vec<Finding>) {
    let mut seen_lines = BTreeSet::new();
    for t in code_toks(file) {
        if t.kind == TokKind::Ident {
            let s = t.text(&file.src);
            if (s == "HashMap" || s == "HashSet") && seen_lines.insert(t.line) {
                push(
                    out,
                    RULE_HASH_CONTAINER,
                    file,
                    t.line,
                    format!(
                        "{s} in deterministic-core crate `{}`: iteration order is \
                         unspecified; use BTreeMap/BTreeSet or a sorted Vec",
                        file.crate_name
                    ),
                );
            }
        }
    }
}

/// D002/D003/D004 scans over one non-test function body.
#[allow(clippy::needless_range_loop)] // lookback over `i - 1 ..= i - 3` needs the index
fn d00x_body_scans(file: &File, body: (usize, usize), out: &mut Vec<Finding>) {
    let toks = code_toks(file);
    let (lo, hi) = (body.0, body.1.min(toks.len()));
    let text = |i: usize| toks[i].text(&file.src);
    for i in lo..hi {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        let s = text(i);
        match s {
            "Instant" | "SystemTime" => push(
                out,
                RULE_WALL_CLOCK,
                file,
                toks[i].line,
                format!("{s} in the deterministic core: derive time from the cycle counter"),
            ),
            "time"
                if i >= lo + 3
                    && text(i - 1) == ":"
                    && text(i - 2) == ":"
                    && text(i - 3) == "std" =>
            {
                push(
                    out,
                    RULE_WALL_CLOCK,
                    file,
                    toks[i].line,
                    "std::time in the deterministic core: derive time from the cycle counter"
                        .to_string(),
                )
            }
            "thread_rng" | "ThreadId" => push(
                out,
                RULE_THREAD_IDENTITY,
                file,
                toks[i].line,
                format!("{s} in the deterministic core: seed RNGs explicitly from the config"),
            ),
            "current"
                if i >= lo + 3
                    && text(i - 1) == ":"
                    && text(i - 2) == ":"
                    && text(i - 3) == "thread" =>
            {
                push(
                    out,
                    RULE_THREAD_IDENTITY,
                    file,
                    toks[i].line,
                    "thread::current in the deterministic core: behavior must not depend on \
                     scheduling"
                        .to_string(),
                )
            }
            "addr_of" | "addr_of_mut" => push(
                out,
                RULE_POINTER_AS_ID,
                file,
                toks[i].line,
                format!("{s} in the deterministic core: addresses vary per run"),
            ),
            "as" if i + 1 < hi && text(i + 1) == "*" => push(
                out,
                RULE_POINTER_AS_ID,
                file,
                toks[i].line,
                "pointer cast in the deterministic core: pointer values are not stable \
                 identities"
                    .to_string(),
            ),
            _ => {}
        }
    }
}

/// D005: `.field op= …` where `field` is a float-typed field of any
/// deterministic-core struct.
fn d005_float_accumulation(files: &[File], cfg: &LintConfig, out: &mut Vec<Finding>) {
    let mut float_fields: BTreeSet<&str> = BTreeSet::new();
    for file in files {
        if !cfg.det_crates.iter().any(|c| c == &file.crate_name) {
            continue;
        }
        for s in &file.structs {
            if s.is_test {
                continue;
            }
            for fld in &s.fields {
                if fld
                    .ty
                    .split(|c: char| !c.is_alphanumeric())
                    .any(|w| w == "f64" || w == "f32")
                {
                    float_fields.insert(&fld.name);
                }
            }
        }
    }
    if float_fields.is_empty() {
        return;
    }
    for file in files {
        if !cfg.det_crates.iter().any(|c| c == &file.crate_name) {
            continue;
        }
        let toks = code_toks(file);
        for f in &file.fns {
            if f.is_test {
                continue;
            }
            let (lo, hi) = (f.body.0, f.body.1.min(toks.len()));
            for i in lo..hi {
                // `. field += ` / `-=` / `*=`
                if toks[i].kind == TokKind::Ident
                    && i > lo
                    && toks[i - 1].text(&file.src) == "."
                    && float_fields.contains(toks[i].text(&file.src))
                    && i + 2 < hi
                    && matches!(toks[i + 1].text(&file.src), "+" | "-" | "*")
                    && toks[i + 2].text(&file.src) == "="
                    && adj(&toks[i + 1], &toks[i + 2])
                {
                    push(
                        out,
                        RULE_FLOAT_ACCUM,
                        file,
                        toks[i].line,
                        format!(
                            "float accumulation into field `{}`: reassociation under a \
                             parallel engine changes the value; accumulate integers and \
                             divide at readout",
                            toks[i].text(&file.src)
                        ),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// H family
// ---------------------------------------------------------------------

const ALLOC_MACROS: &[&str] = &["vec!", "format!"];
const ALLOC_METHODS: &[&str] = &["clone", "collect", "to_string", "to_vec", "to_owned"];
const ALLOC_TYPES: &[&str] = &[
    "Vec", "String", "Box", "VecDeque", "BTreeMap", "BTreeSet", "HashMap", "HashSet", "Rc", "Arc",
];
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from"];

fn h001_allocations(file: &File, f: &crate::parse::FnItem, out: &mut Vec<Finding>) {
    for c in &f.calls {
        let construct = if ALLOC_MACROS.contains(&c.name.as_str()) {
            Some(c.name.clone())
        } else if c.is_method && ALLOC_METHODS.contains(&c.name.as_str()) {
            Some(format!(".{}()", c.name))
        } else if let Some(q) = &c.qualifier {
            if ALLOC_TYPES.contains(&q.as_str()) && ALLOC_CTORS.contains(&c.name.as_str()) {
                Some(format!("{q}::{}", c.name))
            } else {
                None
            }
        } else {
            None
        };
        if let Some(what) = construct {
            push(
                out,
                RULE_HOT_ALLOC,
                file,
                c.line,
                format!(
                    "{what} in `{}`, reachable from a hot-path root: per-cycle heap \
                     allocation defeats the parallel-engine rewrite",
                    f.qname()
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------
// P family
// ---------------------------------------------------------------------

const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
const PANIC_MACROS: &[&str] = &[
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
    "assert!",
    "assert_eq!",
    "assert_ne!",
];

fn p001_panics(file: &File, f: &crate::parse::FnItem, out: &mut Vec<Finding>) {
    for c in &f.calls {
        let what = if c.is_method && PANIC_METHODS.contains(&c.name.as_str()) {
            Some(format!(".{}()", c.name))
        } else if PANIC_MACROS.contains(&c.name.as_str()) {
            Some(c.name.clone())
        } else {
            None
        };
        if let Some(what) = what {
            push(
                out,
                RULE_HOT_PANIC,
                file,
                c.line,
                format!(
                    "{what} in `{}`, reachable from a hot-path root: release hot paths \
                     must not panic",
                    f.qname()
                ),
            );
        }
    }
}

const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

fn p002_truncating_casts(file: &File, body: (usize, usize), out: &mut Vec<Finding>) {
    let toks = code_toks(file);
    let (lo, hi) = (body.0, body.1.min(toks.len()));
    for i in lo..hi.saturating_sub(1) {
        if toks[i].kind == TokKind::Ident
            && toks[i].text(&file.src) == "as"
            && toks[i + 1].kind == TokKind::Ident
            && NARROW_TARGETS.contains(&toks[i + 1].text(&file.src))
        {
            push(
                out,
                RULE_TRUNCATING_CAST,
                file,
                toks[i].line,
                format!(
                    "`as {}` in the hot path: truncating cast wraps silently; use \
                     try_from or prove the range at the call site",
                    toks[i + 1].text(&file.src)
                ),
            );
        }
    }
}

fn p003_indexing(file: &File, body: (usize, usize), out: &mut Vec<Finding>) {
    let toks = code_toks(file);
    let (lo, hi) = (body.0, body.1.min(toks.len()));
    for i in lo.max(1)..hi {
        if toks[i].text(&file.src) == "["
            && matches!(
                (toks[i - 1].kind, toks[i - 1].text(&file.src)),
                (TokKind::Ident, _) | (TokKind::Punct, ")") | (TokKind::Punct, "]")
            )
        {
            push(
                out,
                RULE_COUNTER_INDEXING,
                file,
                toks[i].line,
                "panicking indexing in the conservation counters: use get/iterators so \
                 counter readout is total"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------------
// S family
// ---------------------------------------------------------------------

/// Verb stems marking a checkpoint-codec function. Matched on a word
/// boundary: `save`, `load_state` and `snap_encode` qualify, but
/// `loads` (offered-load list) or `loader` do not.
const SERIALIZER_STEMS: &[&str] = &[
    "snap", "encode", "decode", "save", "load", "restore", "commit",
];

fn is_serializer_name(name: &str) -> bool {
    SERIALIZER_STEMS
        .iter()
        .any(|stem| name == *stem || name.starts_with(&format!("{stem}_")))
        || name.contains("counters")
}

/// S001: for every struct with a checkpoint codec, each declared field
/// must appear (as an identifier) in the union of its codec bodies.
fn s001_snapshot_completeness(files: &[File], out: &mut Vec<Finding>) {
    // (crate, struct) → union of idents in its serializer-fn bodies.
    let mut codec_idents: BTreeMap<(String, String), BTreeSet<String>> = BTreeMap::new();
    for file in files {
        let toks = code_toks(file);
        let body_idents = |body: (usize, usize)| -> BTreeSet<String> {
            let (lo, hi) = (body.0, body.1.min(toks.len()));
            (lo..hi)
                .filter(|&i| toks[i].kind == TokKind::Ident)
                .map(|i| toks[i].text(&file.src).to_string())
                .collect()
        };
        for f in &file.fns {
            if f.is_test || !is_serializer_name(&f.name) {
                continue;
            }
            match &f.impl_type {
                Some(ty) => {
                    codec_idents
                        .entry((file.crate_name.clone(), ty.clone()))
                        .or_default()
                        .extend(body_idents(f.body));
                }
                None => {
                    // Free `encode_x`/`decode_x`: associate with a
                    // same-crate struct whose lowercased name ends with
                    // the suffix (`encode_packet` → `Packet`,
                    // `encode_config` → `SimConfig`).
                    let Some(suffix) = f
                        .name
                        .strip_prefix("encode_")
                        .or_else(|| f.name.strip_prefix("decode_"))
                    else {
                        continue;
                    };
                    for other in files.iter().filter(|o| o.crate_name == file.crate_name) {
                        for s in &other.structs {
                            if !s.is_test && s.name.to_lowercase().ends_with(suffix) {
                                codec_idents
                                    .entry((file.crate_name.clone(), s.name.clone()))
                                    .or_default()
                                    .extend(body_idents(f.body));
                            }
                        }
                    }
                }
            }
        }
    }
    for file in files {
        for s in &file.structs {
            if s.is_test {
                continue;
            }
            let Some(idents) = codec_idents.get(&(file.crate_name.clone(), s.name.clone())) else {
                continue;
            };
            for fld in &s.fields {
                if !idents.contains(&fld.name) {
                    push(
                        out,
                        RULE_SNAPSHOT_FIELD,
                        file,
                        fld.line,
                        format!(
                            "field `{}::{}` is not visited by the struct's checkpoint \
                             codec: snapshot/restore will silently drop it",
                            s.name, fld.name
                        ),
                    );
                }
            }
        }
    }
}
