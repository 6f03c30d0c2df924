//! The seeded violation-fixture corpus.
//!
//! Each fixture under `crates/analyze/fixtures/` violates exactly one
//! rule family and annotates every line that must fire with
//! `// lint:expect(RULE)`. [`selftest`] runs the full analyzer over
//! each fixture and checks the expectation set **bidirectionally**:
//! every expectation must be met by an open finding, and every open
//! finding must be expected — so the corpus pins both recall (the rule
//! fires) and precision (it fires only where seeded). The
//! `s_snapshot.rs` fixture is the seeded missing-field snapshot mutant
//! CI proves the analyzer catches.
//!
//! Fixtures are embedded with `include_str!`, so `ofar-lint --selftest`
//! needs no filesystem layout at run time.

use crate::suppress::{self, MarkerKind};
use crate::{analyze_sources, lexer, parse, LintConfig, SourceFile};

/// One embedded fixture.
pub struct Fixture {
    /// File name (for messages).
    pub name: &'static str,
    /// Source text.
    pub src: &'static str,
}

/// The full corpus: every rule family is represented.
pub const FIXTURES: &[Fixture] = &[
    Fixture {
        name: "d_hash.rs",
        src: include_str!("../fixtures/d_hash.rs"),
    },
    Fixture {
        name: "d_time.rs",
        src: include_str!("../fixtures/d_time.rs"),
    },
    Fixture {
        name: "d_thread.rs",
        src: include_str!("../fixtures/d_thread.rs"),
    },
    Fixture {
        name: "d_ptr.rs",
        src: include_str!("../fixtures/d_ptr.rs"),
    },
    Fixture {
        name: "d_float.rs",
        src: include_str!("../fixtures/d_float.rs"),
    },
    Fixture {
        name: "h_alloc.rs",
        src: include_str!("../fixtures/h_alloc.rs"),
    },
    Fixture {
        name: "s_snapshot.rs",
        src: include_str!("../fixtures/s_snapshot.rs"),
    },
    Fixture {
        name: "p_panic.rs",
        src: include_str!("../fixtures/p_panic.rs"),
    },
    Fixture {
        name: "p_cast.rs",
        src: include_str!("../fixtures/p_cast.rs"),
    },
    Fixture {
        name: "p_index.rs",
        src: include_str!("../fixtures/p_index.rs"),
    },
    Fixture {
        name: "suppress_ok.rs",
        src: include_str!("../fixtures/suppress_ok.rs"),
    },
    Fixture {
        name: "suppress_bad.rs",
        src: include_str!("../fixtures/suppress_bad.rs"),
    },
];

/// Run the analyzer over every fixture and verify the expectation sets.
/// Returns a one-line summary, or the list of mismatches.
pub fn selftest() -> Result<String, Vec<String>> {
    let mut errors = Vec::new();
    let mut expectations = 0usize;
    for fx in FIXTURES {
        let sf = SourceFile {
            path: fx.name.to_string(),
            crate_name: "engine".to_string(),
            text: fx.src.to_string(),
        };
        let analysis = analyze_sources(std::slice::from_ref(&sf), &LintConfig::default());
        let parsed = parse::parse(fx.name, "engine", fx.src, lexer::lex(fx.src));
        let expects: Vec<_> = suppress::scan(&parsed)
            .into_iter()
            .filter(|m| m.kind == MarkerKind::Expect)
            .collect();
        expectations += expects.len();
        let open: Vec<_> = analysis.open().collect();
        for m in &expects {
            let hit = open
                .iter()
                .any(|f| f.rule == m.rule && f.line >= m.scope.0 && f.line <= m.scope.1);
            if !hit {
                errors.push(format!(
                    "{}:{}: expected {} to fire, but it did not",
                    fx.name, m.line, m.rule
                ));
            }
        }
        for f in &open {
            let expected = expects
                .iter()
                .any(|m| m.rule == f.rule && f.line >= m.scope.0 && f.line <= m.scope.1);
            if !expected {
                errors.push(format!(
                    "{}:{}: unexpected open finding [{}] {}",
                    fx.name, f.line, f.rule, f.message
                ));
            }
        }
    }
    if errors.is_empty() {
        Ok(format!(
            "selftest ok: {} fixtures, {} expectations verified bidirectionally",
            FIXTURES.len(),
            expectations
        ))
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The corpus proof: every rule fires where seeded and nowhere else.
    #[test]
    fn corpus_expectations_hold() {
        if let Err(errors) = selftest() {
            panic!("corpus selftest failed:\n{}", errors.join("\n"));
        }
    }

    /// The seeded snapshot mutant specifically (the CI acceptance
    /// criterion): the codec misses `last_eject` and S001 must say so.
    #[test]
    fn snapshot_mutant_is_caught() {
        let fx = FIXTURES.iter().find(|f| f.name == "s_snapshot.rs").unwrap();
        let sf = SourceFile {
            path: fx.name.to_string(),
            crate_name: "engine".to_string(),
            text: fx.src.to_string(),
        };
        let a = analyze_sources(&[sf], &LintConfig::default());
        assert!(
            a.open()
                .any(|f| f.rule == crate::rules::RULE_SNAPSHOT_FIELD
                    && f.message.contains("last_eject")),
            "S001 must flag the unserialized field"
        );
    }
}
