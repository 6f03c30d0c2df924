//! Conservative workspace call graph and hot-path reachability.
//!
//! Calls are resolved **by name**: a call `foo(…)` may reach every
//! workspace function named `foo`; a qualified call `Llr::foo(…)` is
//! narrowed to impls of `Llr` when any exist. This over-approximates
//! (trait dispatch, shadowing and std methods all collapse onto one
//! name), which is exactly what a safety gate wants: the hot-path rules
//! may flag a function that is not truly reachable from
//! `Network::step`, but they can never silently miss one that is.

use crate::parse::File;
use std::collections::{BTreeMap, BTreeSet};

/// A function's global identity: (file index, fn index within file).
pub type FnRef = (usize, usize);

/// The workspace call graph.
pub struct CallGraph {
    /// name → functions carrying that name (test fns excluded).
    by_name: BTreeMap<String, Vec<FnRef>>,
    /// `Type::name` → functions, for qualified-call narrowing.
    by_qname: BTreeMap<String, Vec<FnRef>>,
}

impl CallGraph {
    /// Index every non-test function of the parsed workspace.
    pub fn build(files: &[File]) -> Self {
        let mut by_name: BTreeMap<String, Vec<FnRef>> = BTreeMap::new();
        let mut by_qname: BTreeMap<String, Vec<FnRef>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                by_name.entry(f.name.clone()).or_default().push((fi, gi));
                by_qname.entry(f.qname()).or_default().push((fi, gi));
            }
        }
        Self { by_name, by_qname }
    }

    /// Functions a call may resolve to.
    fn resolve(&self, name: &str, qualifier: Option<&str>) -> &[FnRef] {
        if let Some(q) = qualifier {
            let qn = format!("{q}::{name}");
            if let Some(v) = self.by_qname.get(&qn) {
                return v;
            }
            // Unmatched CamelCase qualifiers are foreign types
            // (`Vec::new`, `RouterId::from`): resolving them by bare
            // name would drag every workspace `new` into the hot set.
            // Primitive qualifiers (`u64::from`) are foreign too.
            // snake_case qualifiers are module paths (`crc::crc32`) —
            // those do resolve by name.
            const PRIMITIVES: &[&str] = &[
                "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128",
                "isize", "f32", "f64", "bool", "char", "str",
            ];
            if q.starts_with(|c: char| c.is_ascii_uppercase()) || PRIMITIVES.contains(&q) {
                return &[];
            }
            return self.by_name.get(name).map_or(&[], Vec::as_slice);
        }
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// All functions reachable from the functions whose qualified name
    /// matches one of `roots` (exact `Type::name` or bare-name match).
    pub fn reachable(&self, files: &[File], roots: &[String]) -> BTreeSet<FnRef> {
        let mut seen: BTreeSet<FnRef> = BTreeSet::new();
        let mut stack: Vec<FnRef> = Vec::new();
        for root in roots {
            let hits = self
                .by_qname
                .get(root)
                .or_else(|| self.by_name.get(root))
                .map_or(&[][..], Vec::as_slice);
            for &r in hits {
                if seen.insert(r) {
                    stack.push(r);
                }
            }
        }
        while let Some((fi, gi)) = stack.pop() {
            let f = &files[fi].fns[gi];
            for call in &f.calls {
                // `Vec::new`-style std constructors resolve nowhere;
                // workspace calls fan out over every name match.
                let name = call.name.strip_suffix('!').unwrap_or(&call.name);
                for &tgt in self.resolve(name, call.qualifier.as_deref()) {
                    if seen.insert(tgt) {
                        stack.push(tgt);
                    }
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse;

    fn files(srcs: &[&str]) -> Vec<File> {
        srcs.iter()
            .enumerate()
            .map(|(i, s)| parse(&format!("f{i}.rs"), "engine", s, lex(s)))
            .collect()
    }

    #[test]
    fn reaches_through_methods_and_names() {
        let fs = files(&[
            r#"
            impl Network {
                pub fn step(&mut self) { self.inject(); helper(); }
                fn inject(&mut self) { self.policy.route(); }
            }
            fn helper() {}
            fn unrelated() {}
            "#,
            r#"
            impl MinPolicy { fn route(&mut self) { leaf(); } }
            fn leaf() {}
            "#,
        ]);
        let g = CallGraph::build(&fs);
        let reach = g.reachable(&fs, &["Network::step".to_string()]);
        let names: Vec<String> = reach
            .iter()
            .map(|&(fi, gi)| fs[fi].fns[gi].qname())
            .collect();
        assert!(names.contains(&"Network::inject".to_string()));
        assert!(names.contains(&"helper".to_string()));
        assert!(names.contains(&"MinPolicy::route".to_string()));
        assert!(names.contains(&"leaf".to_string()));
        assert!(!names.contains(&"unrelated".to_string()));
    }

    #[test]
    fn qualified_calls_do_not_fan_out_over_std_types() {
        let fs = files(&[r#"
            impl Network { pub fn step(&mut self) { let v = Vec::new(); } }
            impl Pool { fn new() { expensive(); } }
            fn expensive() {}
            "#]);
        let g = CallGraph::build(&fs);
        let reach = g.reachable(&fs, &["Network::step".to_string()]);
        let names: Vec<String> = reach
            .iter()
            .map(|&(fi, gi)| fs[fi].fns[gi].qname())
            .collect();
        assert!(
            !names.contains(&"Pool::new".to_string()),
            "Vec::new must not reach Pool::new"
        );
    }
}
