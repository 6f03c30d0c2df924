//! Phase segmentation of the engine cycle loop and the R (race/phase)
//! rule family.
//!
//! `Network::step` is segmented into declared *phases* by lightweight
//! region markers in ordinary comments:
//!
//! ```text
//! // ofar-lint: phase(deliver)            — parallel phase (default)
//! // ofar-lint: phase(commit_effects, commit)
//! ```
//!
//! A marker opens a region that runs to the next marker (or the end of
//! the function). Calls made from a region pull their transitive
//! call-graph closure into the phase; every classified state access of
//! every member `Network` method (see [`crate::access`]) lands in the
//! phase's read/write footprint. The rules then enforce the
//! partitionability contract the parallel engine needs:
//!
//! - **R001** — cross-shard write outside a commit phase.
//! - **R002** — read of foreign-shard state that races a same-phase
//!   local write to the same field.
//! - **R003** — shared-accumulator mutation not routed through a
//!   reduction-safe sink operation.
//! - **R004** — phase-marker coverage gap (no markers, statements
//!   before the first marker, malformed or misplaced markers).
//! - **R005** — iteration-order-sensitive fold over sharded state in a
//!   commit phase.
//! - **R006** — position-weighting accumulation over an effect-ledger
//!   drain in a commit phase.
//!
//! Commit phases run serially in declaration order, so R001–R003 do
//! not apply there; R005 and R006 apply only there. R005 catches
//! order-sensitive reductions over shard *collections*; R006 catches
//! the subtler leak through the effect *ledger*: the ledger's element
//! order is the parallel phases' push order, which the shard schedule
//! permutes, so a commit-phase drain must combine elements
//! commutatively (or canonicalize first — a sort before the fold is
//! the sanctioned fix, as `commit_effects` does for `delivered_now`).

use crate::access::{self, Access, Class, Op};
use crate::graph::{CallGraph, FnRef};
use crate::lexer::{TokKind, Token};
use crate::parse::File;
use crate::rules::{
    line_snippet, Finding, LintConfig, RULE_LEDGER_FOLD, RULE_PHASE_ACCUM, RULE_PHASE_CROSS_WRITE,
    RULE_PHASE_FOLD, RULE_PHASE_GAP, RULE_PHASE_READ_RACE,
};
use std::collections::{BTreeMap, BTreeSet};

/// How a phase executes in the parallel engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseKind {
    /// Evaluated concurrently over shards — the race rules apply.
    Parallel,
    /// Evaluated serially, in declaration order — may touch any shard.
    Commit,
}

impl PhaseKind {
    /// Stable lower-case name used in messages and the contract.
    pub fn name(self) -> &'static str {
        match self {
            PhaseKind::Parallel => "parallel",
            PhaseKind::Commit => "commit",
        }
    }
}

/// One parsed `// ofar-lint: phase(…)` marker.
#[derive(Clone, Debug)]
struct Marker {
    name: String,
    kind: PhaseKind,
    line: u32,
}

/// Read/write footprint of one field within one phase.
#[derive(Clone, Debug, Default)]
pub struct FieldFoot {
    /// State class of the field (stable across accesses by table).
    pub class: Option<Class>,
    /// Index kinds observed on reads.
    pub read_idx: BTreeSet<&'static str>,
    /// Index kinds observed on writes.
    pub write_idx: BTreeSet<&'static str>,
    /// Write operations observed (op name or method name).
    pub write_ops: BTreeSet<String>,
}

/// One declared phase with its resolved membership and footprint.
#[derive(Clone, Debug)]
pub struct PhaseSummary {
    /// Declared phase name.
    pub name: String,
    /// Parallel or commit.
    pub kind: PhaseKind,
    /// Marker line in the phase-root file.
    pub line: u32,
    /// Qualified names of member `Network` methods with ≥ 1 access.
    pub functions: BTreeSet<String>,
    /// Per-field footprint, keyed by classified field name.
    pub footprint: BTreeMap<String, FieldFoot>,
}

/// The analyzed phase structure — input to the contract artifact.
#[derive(Clone, Debug)]
pub struct PhaseInfo {
    /// Qualified name of the phase root (`Network::step`).
    pub root: String,
    /// Workspace-relative path of the file declaring the root.
    pub root_file: String,
    /// Declared phases in source order.
    pub phases: Vec<PhaseSummary>,
}

/// Run the phase analysis over the parsed workspace. Returns the R
/// findings plus, when a phase root with markers exists, the phase
/// structure for the contract artifact.
pub fn analyze(
    files: &[File],
    graph: &CallGraph,
    cfg: &LintConfig,
) -> (Vec<Finding>, Option<PhaseInfo>) {
    let mut findings = Findings::default();

    // Locate the phase root.
    let root = files.iter().enumerate().find_map(|(fi, file)| {
        file.fns
            .iter()
            .enumerate()
            .find(|(_, f)| !f.is_test && f.qname() == cfg.phase_root)
            .map(|(gi, _)| (fi, gi))
    });

    // Collect phase markers everywhere (misplaced ones are findings).
    let mut root_markers: Vec<Marker> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        for c in &file.comments {
            let Some(res) = parse_marker(c, &file.src) else {
                continue;
            };
            let m = match res {
                Ok(m) => m,
                Err(msg) => {
                    findings.push(
                        RULE_PHASE_GAP,
                        file,
                        c.line,
                        format!("malformed phase marker: {msg}"),
                    );
                    continue;
                }
            };
            let in_root = root.is_some_and(|(rfi, rgi)| {
                rfi == fi && {
                    let f = &files[rfi].fns[rgi];
                    m.line >= f.line && m.line <= f.end_line
                }
            });
            if in_root {
                root_markers.push(m);
            } else {
                findings.push(
                    RULE_PHASE_GAP,
                    file,
                    c.line,
                    format!(
                        "phase marker `{}` outside the body of the phase root `{}`",
                        m.name, cfg.phase_root
                    ),
                );
            }
        }
    }

    let Some((rfi, rgi)) = root else {
        return (findings.into_vec(), None);
    };
    let root_file = &files[rfi];
    let root_fn = &root_file.fns[rgi];

    if root_markers.is_empty() {
        findings.push(
            RULE_PHASE_GAP,
            root_file,
            root_fn.line,
            format!(
                "phase root `{}` declares no phase markers; every per-cycle \
                 statement must belong to a declared phase",
                cfg.phase_root
            ),
        );
        return (findings.into_vec(), None);
    }
    root_markers.sort_by_key(|m| m.line);

    // Coverage gap: code before the first marker belongs to no phase.
    let first = root_markers[0].line;
    let gap = root_file.tokens[root_fn.body.0..root_fn.body.1.min(root_file.tokens.len())]
        .iter()
        .map(|t| t.line)
        .find(|&l| l > root_fn.line && l < first);
    if let Some(l) = gap {
        findings.push(
            RULE_PHASE_GAP,
            root_file,
            l,
            format!(
                "statement precedes the first phase marker of `{}` — it belongs \
                 to no declared phase",
                cfg.phase_root
            ),
        );
    }

    // Access cache over `Network` methods, resolved through the graph.
    let is_mut_method = |name: &str| {
        graph
            .resolve_call(name, None)
            .iter()
            .any(|&(fi, gi)| files[fi].fns[gi].mut_self)
    };
    let mut cache: BTreeMap<FnRef, Vec<Access>> = BTreeMap::new();
    let mut accesses_of = |fref: FnRef| -> Vec<Access> {
        cache
            .entry(fref)
            .or_insert_with(|| {
                let f = &files[fref.0].fns[fref.1];
                if f.impl_type.as_deref() == Some("Network") {
                    access::scan_fn(&files[fref.0], f, &is_mut_method)
                } else {
                    Vec::new()
                }
            })
            .clone()
    };

    let root_accesses = access::scan_fn(root_file, root_fn, &is_mut_method);

    let mut phases = Vec::new();
    for (k, m) in root_markers.iter().enumerate() {
        let lo = m.line;
        let hi = root_markers
            .get(k + 1)
            .map_or(root_fn.end_line, |n| n.line.saturating_sub(1));

        // Transitive closure seeded from the region's calls.
        let mut members: BTreeSet<FnRef> = BTreeSet::new();
        let mut stack: Vec<FnRef> = Vec::new();
        let seed = |calls: &[crate::parse::Call],
                    impl_type: Option<&str>,
                    members: &mut BTreeSet<FnRef>,
                    stack: &mut Vec<FnRef>,
                    region: Option<(u32, u32)>| {
            for call in calls {
                if let Some((lo, hi)) = region {
                    if call.line < lo || call.line > hi {
                        continue;
                    }
                }
                let name = call.name.strip_suffix('!').unwrap_or(&call.name);
                let q = match call.qualifier.as_deref() {
                    Some("Self") => impl_type,
                    other => other,
                };
                for &tgt in graph.resolve_call(name, q) {
                    if tgt != (rfi, rgi) && members.insert(tgt) {
                        stack.push(tgt);
                    }
                }
            }
        };
        seed(
            &root_fn.calls,
            root_fn.impl_type.as_deref(),
            &mut members,
            &mut stack,
            Some((lo, hi)),
        );
        while let Some(fref) = stack.pop() {
            let f = &files[fref.0].fns[fref.1];
            seed(
                &f.calls,
                f.impl_type.as_deref(),
                &mut members,
                &mut stack,
                None,
            );
        }

        // Phase access set: root-region accesses + member accesses.
        let mut phase_acc: Vec<(usize, Access)> = root_accesses
            .iter()
            .filter(|a| a.line >= lo && a.line <= hi)
            .map(|a| (rfi, a.clone()))
            .collect();
        let mut functions = BTreeSet::new();
        for &fref in &members {
            let acc = accesses_of(fref);
            if !acc.is_empty() {
                functions.insert(files[fref.0].fns[fref.1].qname());
            }
            phase_acc.extend(acc.into_iter().map(|a| (fref.0, a)));
        }

        check_phase(m, &phase_acc, files, &mut findings);
        if m.kind == PhaseKind::Commit {
            r006_ledger_folds(
                root_file,
                root_fn.body,
                Some((lo, hi)),
                &m.name,
                &mut findings,
            );
            for &fref in &members {
                let f = &files[fref.0].fns[fref.1];
                if !f.is_test {
                    r006_ledger_folds(&files[fref.0], f.body, None, &m.name, &mut findings);
                }
            }
        }

        let mut footprint: BTreeMap<String, FieldFoot> = BTreeMap::new();
        for (_, a) in &phase_acc {
            if a.class == Class::Scratch {
                continue;
            }
            let foot = footprint.entry(a.field.clone()).or_default();
            foot.class = Some(a.class);
            if a.write {
                foot.write_idx.insert(a.index.name());
                foot.write_ops
                    .insert(a.method.clone().unwrap_or_else(|| a.op.name().to_string()));
            } else {
                foot.read_idx.insert(a.index.name());
            }
        }
        phases.push(PhaseSummary {
            name: m.name.clone(),
            kind: m.kind,
            line: m.line,
            functions,
            footprint,
        });
    }

    let info = PhaseInfo {
        root: cfg.phase_root.to_string(),
        root_file: root_file.path.clone(),
        phases,
    };
    (findings.into_vec(), Some(info))
}

/// Evaluate R001/R002/R003/R005 over one phase's access set.
fn check_phase(m: &Marker, phase_acc: &[(usize, Access)], files: &[File], findings: &mut Findings) {
    match m.kind {
        PhaseKind::Parallel => {
            // Fields this phase writes shard-locally (for R002).
            let local_written: BTreeSet<&str> = phase_acc
                .iter()
                .filter(|(_, a)| a.class.is_sharded() && a.write && a.index.is_local())
                .map(|(_, a)| a.field.as_str())
                .collect();
            for (fi, a) in phase_acc {
                let file = &files[*fi];
                match a.class {
                    Class::Sharded(axis) => {
                        if a.write && !a.index.is_local() {
                            findings.push(
                                RULE_PHASE_CROSS_WRITE,
                                file,
                                a.line,
                                format!(
                                    "cross-shard write in parallel phase `{}`: \
                                     {}-sharded `{}` written with {} index",
                                    m.name,
                                    axis.name(),
                                    a.field,
                                    a.index.name()
                                ),
                            );
                        } else if !a.write
                            && !a.index.is_local()
                            && local_written.contains(a.field.as_str())
                        {
                            findings.push(
                                RULE_PHASE_READ_RACE,
                                file,
                                a.line,
                                format!(
                                    "read of foreign-shard `{}` in parallel phase `{}` \
                                     races the phase's local writes to the same field",
                                    a.field, m.name
                                ),
                            );
                        }
                    }
                    Class::Global | Class::Static if a.write => {
                        findings.push(
                            RULE_PHASE_ACCUM,
                            file,
                            a.line,
                            format!(
                                "unsharded state `{}` mutated in parallel phase `{}` \
                                 outside any reduction-safe sink",
                                a.field, m.name
                            ),
                        );
                    }
                    Class::Sink if a.write && !sink_write_ok(a) => {
                        findings.push(
                            RULE_PHASE_ACCUM,
                            file,
                            a.line,
                            format!(
                                "sink `{}` mutated through non-reduction-safe \
                                 operation `{}` in parallel phase `{}`",
                                a.field,
                                a.method.as_deref().unwrap_or(a.op.name()),
                                m.name
                            ),
                        );
                    }
                    _ => {}
                }
            }
        }
        PhaseKind::Commit => {
            for (fi, a) in phase_acc {
                let order_sensitive = a
                    .method
                    .as_deref()
                    .is_some_and(|mn| access::ORDER_SENSITIVE.contains(&mn));
                if a.class.is_sharded() && order_sensitive {
                    findings.push(
                        RULE_PHASE_FOLD,
                        &files[*fi],
                        a.line,
                        format!(
                            "iteration-order-sensitive `{}` over sharded `{}` in \
                             commit phase `{}` — result depends on shard enumeration \
                             order",
                            a.method.as_deref().unwrap_or(""),
                            a.field,
                            m.name
                        ),
                    );
                }
            }
        }
    }
}

/// R006: scan one function body (optionally restricted to a line
/// region, for the phase-root segments) for loops draining an effect
/// ledger whose accumulator updates weight elements by position.
///
/// The detected shape is a loop-carried scalar update inside a
/// `for … in …<ledger>…` loop where the accumulator is combined through
/// a position-weighting operation: `acc = acc.wrapping_mul(…)…`,
/// `acc = acc * k + …`, `acc *= …`, or a shift. Commutative reductions
/// (`+=`, `^=`, `wrapping_add`, `max`) stay silent, and so does the
/// canonicalizing `sort_unstable()`-then-append idiom — sorting *is*
/// the sanctioned way to make a drain order-insensitive.
fn r006_ledger_folds(
    file: &File,
    body: (usize, usize),
    region: Option<(u32, u32)>,
    phase: &str,
    findings: &mut Findings,
) {
    let toks = &file.tokens;
    let hi = body.1.min(toks.len());
    let text = |i: usize| toks[i].text(&file.src);
    let is_ident = |i: usize| i < hi && toks[i].kind == TokKind::Ident;
    let adj = |i: usize, j: usize| j < hi && toks[i].end == toks[j].start;
    let skip_group = |at: usize| -> usize {
        let mut depth = 0i64;
        let mut j = at;
        while j < hi {
            match text(j) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        hi
    };
    // A dotted path that stops *before* a call segment, so the first
    // combinator method stays outside the path text.
    let read_path = |at: usize| -> (usize, String) {
        let mut repr = text(at).to_string();
        let mut e = at + 1;
        while e + 1 < hi && text(e) == "." && is_ident(e + 1) && !(e + 2 < hi && text(e + 2) == "(")
        {
            repr.push('.');
            repr.push_str(text(e + 1));
            e += 2;
        }
        (e, repr)
    };
    let weighting_at = |e: usize| -> bool {
        if matches!(text(e), "*" | "/" | "%") {
            return true;
        }
        if (text(e) == "<" && e + 1 < hi && text(e + 1) == "<" && adj(e, e + 1))
            || (text(e) == ">" && e + 1 < hi && text(e + 1) == ">" && adj(e, e + 1))
        {
            return true;
        }
        text(e) == "."
            && is_ident(e + 1)
            && access::ORDER_WEIGHTING.contains(&text(e + 1))
            && e + 2 < hi
            && text(e + 2) == "("
    };

    let mut i = body.0;
    while i < hi {
        if text(i) != "for" || region.is_some_and(|(l, h)| toks[i].line < l || toks[i].line > h) {
            i += 1;
            continue;
        }
        // Top-level `in`, then the header expression up to the body `{`.
        let mut j = i + 1;
        let mut depth = 0i64;
        while j < hi && !(depth == 0 && text(j) == "in") && text(j) != "{" {
            match text(j) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        if j >= hi || text(j) != "in" {
            i = j.max(i + 1);
            continue;
        }
        let mut k = j + 1;
        let mut depth = 0i64;
        let mut ledger: Option<&str> = None;
        while k < hi {
            let t = text(k);
            match t {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => break,
                _ => {
                    if is_ident(k) && access::LEDGERS.contains(&t) {
                        ledger = Some(t);
                    }
                }
            }
            k += 1;
        }
        if k >= hi {
            break;
        }
        let body_end = skip_group(k);
        let Some(ledger) = ledger else {
            i = k + 1; // descend into the loop body: ledger loops nest
            continue;
        };
        let mut flag = |at: usize, path: &str| {
            findings.push(
                RULE_LEDGER_FOLD,
                file,
                toks[at].line,
                format!(
                    "position-weighting accumulation over the `{ledger}` ledger drain \
                     in commit phase `{phase}`: `{path}` weights elements by ledger \
                     position, which the shard schedule permutes — reduce \
                     commutatively or sort the drained elements first"
                ),
            );
        };
        let mut p = k + 1;
        while p + 1 < body_end {
            if !is_ident(p) || (p > 0 && text(p - 1) == ".") {
                p += 1;
                continue;
            }
            let (e, path) = read_path(p);
            if e >= body_end {
                break;
            }
            // `acc *= …`, `acc <<= …` — compound weighting assignment.
            let compound = (matches!(text(e), "*" | "/" | "%")
                && e + 1 < hi
                && text(e + 1) == "="
                && adj(e, e + 1))
                || (matches!(text(e), "<" | ">")
                    && e + 2 < hi
                    && text(e + 1) == text(e)
                    && adj(e, e + 1)
                    && text(e + 2) == "="
                    && adj(e + 1, e + 2));
            if compound {
                flag(p, &path);
                p = e + 2;
                continue;
            }
            // `acc = acc <weighting> …` — self-assignment through a
            // position-weighting first combinator.
            if text(e) == "=" && !(e + 1 < hi && text(e + 1) == "=" && adj(e, e + 1)) {
                let rhs = e + 1;
                if is_ident(rhs) {
                    let (re, rpath) = read_path(rhs);
                    if rpath == path && re < body_end && weighting_at(re) {
                        flag(p, &path);
                    }
                }
            }
            p = e.max(p + 1);
        }
        i = body_end;
    }
}

/// Is this sink mutation one of the sink's declared reduction-safe
/// operations?
fn sink_write_ok(a: &Access) -> bool {
    let Some(policy) = access::sink_policy(&a.field) else {
        return false;
    };
    match a.op {
        Op::Compound => policy.allow_compound,
        Op::Method => match policy.methods {
            access::SinkMethods::Any => true,
            access::SinkMethods::Only(list) => {
                a.method.as_deref().is_some_and(|m| list.contains(&m))
            }
        },
        _ => false,
    }
}

/// Parse one comment token as a phase marker. `None` when the comment
/// is not a phase marker at all; `Some(Err)` when it tries to be one
/// and fails.
fn parse_marker(c: &Token, src: &str) -> Option<Result<Marker, String>> {
    let text = c.text(src);
    // Doc comments host examples, not directives.
    for doc in ["///", "//!", "/*!", "/**"] {
        if text.starts_with(doc) {
            return None;
        }
    }
    let rest = text
        .trim_start_matches('/')
        .trim_start_matches('*')
        .trim_start();
    let rest = rest.strip_prefix("ofar-lint:")?.trim_start();
    let rest = rest.strip_prefix("phase")?;
    let Some(inner) = rest
        .trim_start()
        .strip_prefix('(')
        .and_then(|r| r.split_once(')'))
        .map(|(inner, _)| inner)
    else {
        return Some(Err("expected `phase(<name>[, parallel|commit])`".into()));
    };
    let mut parts = inner.split(',').map(str::trim);
    let name = parts.next().unwrap_or("");
    if name.is_empty()
        || !name
            .chars()
            .all(|ch| ch.is_ascii_lowercase() || ch.is_ascii_digit() || ch == '_')
    {
        return Some(Err(format!(
            "phase name `{name}` must be a snake_case identifier"
        )));
    }
    let kind = match parts.next() {
        None => PhaseKind::Parallel,
        Some("parallel") => PhaseKind::Parallel,
        Some("commit") => PhaseKind::Commit,
        Some(other) => {
            return Some(Err(format!(
                "phase kind `{other}` must be `parallel` or `commit`"
            )))
        }
    };
    if parts.next().is_some() {
        return Some(Err("too many arguments in phase marker".into()));
    }
    Some(Ok(Marker {
        name: name.to_string(),
        kind,
        line: c.line,
    }))
}

/// Finding accumulator deduplicating on (rule, file, line): a member
/// function shared by several phases reports each defect once.
#[derive(Default)]
struct Findings {
    seen: BTreeSet<(&'static str, String, u32)>,
    out: Vec<Finding>,
}

impl Findings {
    fn push(&mut self, rule: &'static str, file: &File, line: u32, message: String) {
        if !self.seen.insert((rule, file.path.clone(), line)) {
            return;
        }
        self.out.push(Finding {
            rule,
            file: file.path.clone(),
            line,
            function: file.fn_at(line),
            message,
            snippet: line_snippet(file, line),
            suppressed: None,
        });
    }

    fn into_vec(self) -> Vec<Finding> {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse;

    fn run(src: &str) -> (Vec<Finding>, Option<PhaseInfo>) {
        let files = vec![parse("engine/src/network.rs", "engine", src, lex(src))];
        let graph = CallGraph::build(&files);
        analyze(&files, &graph, &LintConfig::default())
    }

    fn rules_of(f: &[Finding]) -> Vec<&'static str> {
        f.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn clean_phased_step_has_no_findings() {
        let (f, info) = run(r#"
            impl Network {
                pub fn step(&mut self, now: u64) {
                    // ofar-lint: phase(route)
                    for r in 0..n {
                        self.route(r, now);
                    }
                    // ofar-lint: phase(commit_effects, commit)
                    self.commit_effects(now);
                }
                fn route(&mut self, ridx: usize, now: u64) {
                    self.arena.credits[fab.out_lane(ridx, p, v)] -= s;
                    self.stats.delivered += 1;
                }
                fn commit_effects(&mut self, now: u64) {
                    self.arena.credits[fab.out_lane(up_r, up_p, v)] += s;
                }
            }
        "#);
        assert!(f.is_empty(), "{f:?}");
        let info = info.expect("phase info");
        assert_eq!(info.phases.len(), 2);
        assert_eq!(info.phases[0].kind, PhaseKind::Parallel);
        assert!(info.phases[0].functions.contains("Network::route"));
        assert!(info.phases[0].footprint.contains_key("credits"));
    }

    #[test]
    fn cross_shard_write_in_parallel_phase_is_r001() {
        let (f, _) = run(r#"
            impl Network {
                pub fn step(&mut self, now: u64) {
                    // ofar-lint: phase(route)
                    self.route(now);
                }
                fn route(&mut self, now: u64) {
                    self.arena.credits[fab.out_lane(desc.up_router, p, v)] += x;
                }
            }
        "#);
        assert_eq!(rules_of(&f), vec![RULE_PHASE_CROSS_WRITE]);
    }

    #[test]
    fn foreign_read_racing_local_write_is_r002() {
        let (f, _) = run(r#"
            impl Network {
                pub fn step(&mut self, now: u64) {
                    // ofar-lint: phase(route)
                    self.route(ridx, now);
                }
                fn route(&mut self, ridx: usize, now: u64) {
                    self.arena.credits[fab.out_lane(ridx, p, v)] -= s;
                    let free = self.arena.credits[fab.out_lane(up_r, up_p, v)];
                }
            }
        "#);
        assert_eq!(rules_of(&f), vec![RULE_PHASE_READ_RACE]);
    }

    #[test]
    fn global_write_in_parallel_phase_is_r003() {
        let (f, _) = run(r#"
            impl Network {
                pub fn step(&mut self, now: u64) {
                    // ofar-lint: phase(inject)
                    self.inject(now);
                }
                fn inject(&mut self, now: u64) {
                    self.next_id += 1;
                }
            }
        "#);
        assert_eq!(rules_of(&f), vec![RULE_PHASE_ACCUM]);
    }

    #[test]
    fn sink_plain_assign_is_r003_but_compound_is_not() {
        let (f, _) = run(r#"
            impl Network {
                pub fn step(&mut self, now: u64) {
                    // ofar-lint: phase(route)
                    self.route(now);
                }
                fn route(&mut self, now: u64) {
                    self.stats.delivered += 1;
                    self.stats.last_grant = now;
                }
            }
        "#);
        assert_eq!(rules_of(&f), vec![RULE_PHASE_ACCUM]);
        assert!(f[0].message.contains("assign"));
    }

    #[test]
    fn missing_markers_and_leading_gap_are_r004() {
        let (f, info) = run(r#"
            impl Network {
                pub fn step(&mut self, now: u64) {
                    self.route(now);
                }
                fn route(&mut self, now: u64) {}
            }
        "#);
        assert_eq!(rules_of(&f), vec![RULE_PHASE_GAP]);
        assert!(info.is_none());

        let (f, _) = run(r#"
            impl Network {
                pub fn step(&mut self, now: u64) {
                    self.before(now);
                    // ofar-lint: phase(route)
                    self.route(now);
                }
                fn before(&mut self, now: u64) {}
                fn route(&mut self, now: u64) {}
            }
        "#);
        assert_eq!(rules_of(&f), vec![RULE_PHASE_GAP]);
    }

    #[test]
    fn order_sensitive_fold_in_commit_phase_is_r005() {
        let (f, _) = run(r#"
            impl Network {
                pub fn step(&mut self, now: u64) {
                    // ofar-lint: phase(audit, commit)
                    self.audit(now);
                }
                fn audit(&mut self, now: u64) {
                    let t = self.arena.credits.iter().fold(0u64, |a, c| a ^ h(c));
                }
            }
        "#);
        assert_eq!(rules_of(&f), vec![RULE_PHASE_FOLD]);
    }

    #[test]
    fn malformed_and_misplaced_markers_are_r004() {
        let (f, _) = run(r#"
            // ofar-lint: phase(BadName)
            impl Network {
                pub fn step(&mut self, now: u64) {
                    // ofar-lint: phase(route, sideways)
                    self.route(now);
                }
                fn route(&mut self, now: u64) {}
            }
        "#);
        // One malformed (BadName outside + bad case) and one bad kind,
        // plus the no-valid-marker finding on the root.
        assert!(f.iter().all(|x| x.rule == RULE_PHASE_GAP));
        assert!(f.len() >= 2, "{f:?}");
    }
}
