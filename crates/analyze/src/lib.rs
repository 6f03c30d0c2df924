//! `ofar-analyze` — workspace-specific static analysis for the OFAR
//! simulator, exposed through the `ofar-lint` binary.
//!
//! The analyzer holds the workspace to four mechanically-checked
//! contracts: determinism (D rules), hot-path allocation freedom
//! (H rules), snapshot completeness (S rules) and release-panic
//! freedom (P rules). See [`rules::CATALOG`] for the full rule list and
//! DESIGN.md §13 for the rationale and suppression workflow. The crate
//! also hosts the executable schedule-commutativity certifier
//! ([`race`], the `ofar-race` binary; DESIGN.md §16).
//!
//! The pipeline is entirely hand-rolled — the build environment vendors
//! no parsing or serialization crates:
//!
//! 1. [`lexer`]: total Rust lexer (never panics, degrades to punct
//!    tokens on junk);
//! 2. [`parse`]: lightweight item parser — functions with call lists,
//!    structs with fields, `#[cfg(test)]` tracking;
//! 3. [`graph`]: conservative name-based call graph, hot-path
//!    reachability from `Network::step`;
//! 4. [`rules`]: the rule passes;
//! 5. [`suppress`]: `// lint:allow(rule, reason)` comments,
//!    self-policing (malformed or unused suppressions are findings
//!    too);
//! 6. [`report`]: human-readable text and the JSON artifact CI uploads.

#![warn(missing_docs)]

pub mod corpus;
pub mod graph;
pub mod json;
pub mod lexer;
pub mod parse;
pub mod race;
pub mod report;
pub mod rules;
pub mod suppress;

pub use rules::{Finding, LintConfig};

use graph::CallGraph;
use rules::Suppression;
use std::io;
use std::path::Path;
use suppress::MarkerKind;

/// One source file to analyze.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// Crate the file belongs to (directory name under `crates/`).
    pub crate_name: String,
    /// File contents.
    pub text: String,
}

/// Result of an analyzer run.
#[derive(Debug)]
pub struct Analysis {
    /// Number of files scanned.
    pub files_scanned: usize,
    /// All findings, suppressed ones included, sorted by
    /// (file, line, rule).
    pub findings: Vec<Finding>,
}

impl Analysis {
    /// Findings no suppression claimed — the ones that fail the build.
    pub fn open(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppressed.is_none())
    }
}

/// Run the full analysis over in-memory sources.
pub fn analyze_sources(sources: &[SourceFile], cfg: &LintConfig) -> Analysis {
    let files: Vec<parse::File> = sources
        .iter()
        .map(|s| parse::parse(&s.path, &s.crate_name, &s.text, lexer::lex(&s.text)))
        .collect();
    let graph = CallGraph::build(&files);
    let reachable = graph.reachable(&files, &cfg.hot_roots);
    let mut findings = rules::run(&files, cfg, &reachable);
    let mut extra = Vec::new();

    // Inline suppressions: a well-formed `lint:allow` claims matching
    // findings inside its scope; malformed or unused markers are
    // findings themselves.
    for file in &files {
        let markers = suppress::scan(file);
        let mut used = vec![false; markers.len()];
        for f in findings.iter_mut() {
            if f.file != file.path || f.suppressed.is_some() {
                continue;
            }
            let hit = markers.iter().enumerate().find(|(_, m)| {
                m.kind == MarkerKind::Allow
                    && m.rule == f.rule
                    && !m.reason.trim().is_empty()
                    && f.line >= m.scope.0
                    && f.line <= m.scope.1
            });
            if let Some((i, m)) = hit {
                used[i] = true;
                f.suppressed = Some(Suppression {
                    via: "inline",
                    reason: m.reason.clone(),
                });
            }
        }
        for (i, m) in markers.iter().enumerate() {
            let malformed = m.rule.is_empty()
                || !rules::known_rule(&m.rule)
                || (m.kind == MarkerKind::Allow && m.reason.trim().is_empty());
            if malformed {
                let message = if m.rule.is_empty() || !rules::known_rule(&m.rule) {
                    format!(
                        "malformed suppression: `{}` is not a rule id (see \
                         ofar-lint --list-rules)",
                        m.rule
                    )
                } else {
                    "suppression without a reason: write \
                     lint:allow(RULE, why this is acceptable)"
                        .to_string()
                };
                rules::push(
                    &mut extra,
                    rules::RULE_BAD_SUPPRESSION,
                    file,
                    m.line,
                    message,
                );
            } else if m.kind == MarkerKind::Allow && !used[i] {
                rules::push(
                    &mut extra,
                    rules::RULE_UNUSED_SUPPRESSION,
                    file,
                    m.line,
                    format!("lint:allow({}) suppresses nothing — remove it", m.rule),
                );
            }
        }
    }

    findings.extend(extra);
    findings.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(b.rule))
    });
    Analysis {
        files_scanned: files.len(),
        findings,
    }
}

/// Collect the workspace's own sources: `src/` of the root package and
/// of every crate under `crates/`. The vendored stand-ins under
/// `vendor/` and the analyzer's violation fixtures are deliberately out
/// of scope.
pub fn collect_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    push_tree(&root.join("src"), "ofar", root, &mut out)?;
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut dirs: Vec<_> = std::fs::read_dir(&crates)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            let name = dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            push_tree(&dir.join("src"), &name, root, &mut out)?;
        }
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

fn push_tree(
    dir: &Path,
    crate_name: &str,
    root: &Path,
    out: &mut Vec<SourceFile>,
) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            push_tree(&p, crate_name, root, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(SourceFile {
                path: rel,
                crate_name: crate_name.to_string(),
                text: std::fs::read_to_string(&p)?,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(src: &str) -> Analysis {
        let sf = SourceFile {
            path: "crates/engine/src/t.rs".to_string(),
            crate_name: "engine".to_string(),
            text: src.to_string(),
        };
        analyze_sources(&[sf], &LintConfig::default())
    }

    #[test]
    fn inline_allow_claims_finding() {
        let a = one("use std::collections::HashMap; // lint:allow(D001, membership-only)\n");
        assert_eq!(a.open().count(), 0);
        assert_eq!(a.findings.len(), 1);
        assert_eq!(a.findings[0].suppressed.as_ref().unwrap().via, "inline");
    }

    #[test]
    fn allow_without_reason_is_reported_and_does_not_suppress() {
        let a = one("use std::collections::HashMap; // lint:allow(D001)\n");
        let rules_open: Vec<&str> = a.open().map(|f| f.rule).collect();
        assert!(rules_open.contains(&rules::RULE_HASH_CONTAINER));
        assert!(rules_open.contains(&rules::RULE_BAD_SUPPRESSION));
    }

    #[test]
    fn unused_allow_is_reported() {
        let a = one("// lint:allow(H001, nothing here allocates)\nfn f() {}\n");
        let rules_open: Vec<&str> = a.open().map(|f| f.rule).collect();
        assert_eq!(rules_open, vec![rules::RULE_UNUSED_SUPPRESSION]);
    }

    #[test]
    fn unknown_rule_is_reported() {
        let a = one("// lint:allow(Z999, bogus)\nfn f() {}\n");
        let rules_open: Vec<&str> = a.open().map(|f| f.rule).collect();
        assert_eq!(rules_open, vec![rules::RULE_BAD_SUPPRESSION]);
    }
}
