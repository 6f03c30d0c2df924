//! A lightweight item parser over the lexer's token stream.
//!
//! This is **not** a Rust parser: it recovers exactly the shape the
//! rules need — functions (name, enclosing `impl` type, body token
//! range, test-ness), struct fields (name, type text, line) and the
//! calls made inside each function body — and is total on arbitrary
//! token streams (it only ever advances, and gives up gracefully on
//! anything it does not recognize).

use crate::lexer::{TokKind, Token};

/// One parsed source file.
#[derive(Debug)]
pub struct File {
    /// Workspace-relative path (display + suppression key).
    pub path: String,
    /// Directory name of the owning crate (`engine`, `topology`, …).
    pub crate_name: String,
    /// Full source text.
    pub src: String,
    /// Code tokens (comments stripped) — item/rule passes read these.
    pub tokens: Vec<Token>,
    /// Comment tokens, in source order — the suppression scanner reads
    /// these.
    pub comments: Vec<Token>,
    /// Functions found in this file.
    pub fns: Vec<FnItem>,
    /// Structs (with named fields) found in this file.
    pub structs: Vec<StructItem>,
}

/// A function item.
#[derive(Debug)]
pub struct FnItem {
    /// Bare name (`step`).
    pub name: String,
    /// Enclosing `impl` type, if any (`Network`).
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Line of the closing brace of the body.
    pub end_line: u32,
    /// Token index range of the body, **excluding** the outer braces.
    pub body: (usize, usize),
    /// True inside a `#[cfg(test)]` module or under `#[test]`.
    pub is_test: bool,
    /// Calls appearing in the body.
    pub calls: Vec<Call>,
}

impl FnItem {
    /// `Type::name` when in an impl, else the bare name.
    pub fn qname(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A call site inside a function body.
#[derive(Debug)]
pub struct Call {
    /// Callee name (`push_ack`, `collect`, or `vec!` for macros).
    pub name: String,
    /// `Some("Llr")` for `Llr::push_ack(…)`-style qualified calls.
    pub qualifier: Option<String>,
    /// True for `.name(…)` method calls.
    pub is_method: bool,
    /// Line of the call.
    pub line: u32,
}

/// A struct with named fields.
#[derive(Debug)]
pub struct StructItem {
    /// Struct name.
    pub name: String,
    /// Declared named fields in order.
    pub fields: Vec<FieldItem>,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
    /// True inside a `#[cfg(test)]` module.
    pub is_test: bool,
}

/// One named struct field.
#[derive(Debug)]
pub struct FieldItem {
    /// Field name.
    pub name: String,
    /// Source text of the type, tokens joined by spaces.
    pub ty: String,
    /// 1-based line of the field name.
    pub line: u32,
}

/// Parse one source file. `tokens` must come from [`crate::lexer::lex`]
/// on `src`.
pub fn parse(path: &str, crate_name: &str, src: &str, tokens: Vec<Token>) -> File {
    // Comments are parsed out-of-band (suppressions); the item walker
    // works over code tokens, with a map back to original indices so
    // body ranges refer to the filtered stream.
    let (comments, code): (Vec<Token>, Vec<Token>) = tokens
        .iter()
        .copied()
        .partition(|t| matches!(t.kind, TokKind::LineComment | TokKind::BlockComment));
    let mut p = Parser {
        src,
        toks: &code,
        i: 0,
        fns: Vec::new(),
        structs: Vec::new(),
    };
    p.block(None, false, usize::MAX);
    let fns = std::mem::take(&mut p.fns);
    let structs = std::mem::take(&mut p.structs);
    let mut file = File {
        path: path.to_string(),
        crate_name: crate_name.to_string(),
        src: src.to_string(),
        tokens: code,
        comments,
        fns,
        structs,
    };
    for f in &mut file.fns {
        f.calls = extract_calls(&file.src, &file.tokens, f.body);
    }
    file
}

struct Parser<'s> {
    src: &'s str,
    toks: &'s [Token],
    i: usize,
    fns: Vec<FnItem>,
    structs: Vec<StructItem>,
}

impl<'s> Parser<'s> {
    fn text(&self, i: usize) -> &'s str {
        self.toks[i].text(self.src)
    }

    fn is(&self, i: usize, s: &str) -> bool {
        i < self.toks.len() && self.text(i) == s
    }

    fn kind(&self, i: usize) -> Option<TokKind> {
        self.toks.get(i).map(|t| t.kind)
    }

    /// Skip a balanced `(…)`, `[…]`, `{…}` or `<…>` starting at `self.i`
    /// (which must sit on the opener). Always advances at least one.
    fn skip_balanced(&mut self) {
        let (open, close) = match self.toks.get(self.i).map(|t| t.text(self.src)) {
            Some("(") => ("(", ")"),
            Some("[") => ("[", "]"),
            Some("{") => ("{", "}"),
            Some("<") => ("<", ">"),
            _ => {
                self.i += 1;
                return;
            }
        };
        let mut depth = 0i64;
        while self.i < self.toks.len() {
            let t = self.text(self.i);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    self.i += 1;
                    return;
                }
            }
            self.i += 1;
        }
    }

    /// Skip an attribute `#[…]` / `#![…]`; `self.i` sits on `#`.
    /// Returns true when the attribute mentions `test` (covers both
    /// `#[test]` and `#[cfg(test)]`).
    fn skip_attr(&mut self) -> bool {
        self.i += 1; // '#'
        if self.is(self.i, "!") {
            self.i += 1;
        }
        if !self.is(self.i, "[") {
            return false;
        }
        let start = self.i;
        self.skip_balanced();
        (start..self.i).any(|j| self.kind(j) == Some(TokKind::Ident) && self.text(j) == "test")
    }

    /// Read a path (`a::b::C`) at `self.i`, returning its last segment.
    fn path_last_segment(&mut self) -> Option<String> {
        let mut last = None;
        loop {
            if self.kind(self.i) == Some(TokKind::Ident) {
                last = Some(self.text(self.i).to_string());
                self.i += 1;
                if self.is(self.i, ":") && self.is(self.i + 1, ":") {
                    self.i += 2;
                    continue;
                }
            }
            return last;
        }
    }

    /// Walk one brace-delimited region (or the whole file when `limit ==
    /// usize::MAX`), collecting items. `impl_type` names the enclosing
    /// impl; `in_test` marks `#[cfg(test)]` regions.
    fn block(&mut self, impl_type: Option<&str>, in_test: bool, limit: usize) {
        let mut pending_test = false;
        while self.i < self.toks.len() && self.i < limit {
            let t = self.text(self.i);
            match t {
                "#" => {
                    pending_test |= self.skip_attr();
                }
                "}" => {
                    self.i += 1;
                    return;
                }
                "mod" => {
                    let test = std::mem::take(&mut pending_test);
                    self.i += 1;
                    if self.kind(self.i) == Some(TokKind::Ident) {
                        self.i += 1;
                    }
                    if self.is(self.i, "{") {
                        self.i += 1;
                        self.block(None, in_test || test, limit);
                    } else if self.is(self.i, ";") {
                        self.i += 1;
                    }
                }
                "struct" => {
                    let test = std::mem::take(&mut pending_test);
                    self.struct_item(in_test || test);
                }
                "impl" => {
                    pending_test = false;
                    self.impl_item(in_test);
                }
                "trait" => {
                    pending_test = false;
                    // Default methods inside traits are functions too.
                    self.i += 1;
                    while self.i < self.toks.len() && !self.is(self.i, "{") && !self.is(self.i, ";")
                    {
                        if self.is(self.i, "<") {
                            self.skip_balanced();
                        } else {
                            self.i += 1;
                        }
                    }
                    if self.is(self.i, "{") {
                        self.i += 1;
                        self.block(None, in_test, limit);
                    } else {
                        self.i += 1;
                    }
                }
                "fn" => {
                    let test = std::mem::take(&mut pending_test);
                    self.fn_item(impl_type, in_test || test);
                }
                "macro_rules" => {
                    pending_test = false;
                    self.i += 1; // name comes after `!`
                    if self.is(self.i, "!") {
                        self.i += 1;
                    }
                    if self.kind(self.i) == Some(TokKind::Ident) {
                        self.i += 1;
                    }
                    self.skip_balanced();
                }
                "enum" | "union" => {
                    pending_test = false;
                    self.i += 1;
                    while self.i < self.toks.len() && !self.is(self.i, "{") && !self.is(self.i, ";")
                    {
                        if self.is(self.i, "<") {
                            self.skip_balanced();
                        } else {
                            self.i += 1;
                        }
                    }
                    self.skip_balanced();
                }
                "{" => {
                    // An unexpected block (unsafe, const block, …): walk
                    // it with the same context so nested items surface.
                    self.i += 1;
                    self.block(impl_type, in_test, limit);
                }
                _ => {
                    pending_test = false;
                    self.i += 1;
                }
            }
        }
    }

    fn struct_item(&mut self, is_test: bool) {
        let line = self.toks[self.i].line;
        self.i += 1; // `struct`
        let name = match self.kind(self.i) {
            Some(TokKind::Ident) => {
                let n = self.text(self.i).to_string();
                self.i += 1;
                n
            }
            _ => return,
        };
        if self.is(self.i, "<") {
            self.skip_balanced();
        }
        // `where` clause before the body.
        while self.i < self.toks.len()
            && !self.is(self.i, "{")
            && !self.is(self.i, ";")
            && !self.is(self.i, "(")
        {
            if self.is(self.i, "<") {
                self.skip_balanced();
            } else {
                self.i += 1;
            }
        }
        if self.is(self.i, "(") {
            // Tuple struct: skip to the `;`.
            self.skip_balanced();
            if self.is(self.i, ";") {
                self.i += 1;
            }
            return;
        }
        if !self.is(self.i, "{") {
            if self.is(self.i, ";") {
                self.i += 1;
            }
            return;
        }
        self.i += 1; // `{`
        let mut fields = Vec::new();
        // Field grammar at depth 0 of the body: attrs, optional
        // visibility, `name : type ,`.
        loop {
            while self.is(self.i, "#") {
                self.skip_attr();
            }
            if self.is(self.i, "pub") {
                self.i += 1;
                if self.is(self.i, "(") {
                    self.skip_balanced();
                }
            }
            if self.is(self.i, "}") {
                self.i += 1;
                break;
            }
            if self.kind(self.i) != Some(TokKind::Ident) || !self.is(self.i + 1, ":") {
                // Lost sync — bail out of the struct body.
                let mut depth = 1i64;
                while self.i < self.toks.len() && depth > 0 {
                    let t = self.text(self.i);
                    if t == "{" {
                        depth += 1;
                    } else if t == "}" {
                        depth -= 1;
                    }
                    self.i += 1;
                }
                break;
            }
            let fname = self.text(self.i).to_string();
            let fline = self.toks[self.i].line;
            self.i += 2; // name, ':'
            let ty_start = self.i;
            // Type runs to the next `,` or `}` at depth 0.
            let mut depth = 0i64;
            while self.i < self.toks.len() {
                let t = self.text(self.i);
                match t {
                    "<" | "(" | "[" => depth += 1,
                    ">" | ")" | "]" => depth -= 1,
                    "," if depth <= 0 => break,
                    "}" if depth <= 0 => break,
                    _ => {}
                }
                self.i += 1;
            }
            let ty = (ty_start..self.i)
                .map(|j| self.text(j))
                .collect::<Vec<_>>()
                .join(" ");
            fields.push(FieldItem {
                name: fname,
                ty,
                line: fline,
            });
            if self.is(self.i, ",") {
                self.i += 1;
            }
        }
        self.structs.push(StructItem {
            name,
            fields,
            line,
            is_test,
        });
    }

    fn impl_item(&mut self, in_test: bool) {
        self.i += 1; // `impl`
        if self.is(self.i, "<") {
            self.skip_balanced();
        }
        // Header runs to `{`; the implemented type is the path after the
        // last top-level `for` (trait impls), else the first path.
        let mut ty: Option<String> = None;
        let mut after_for = false;
        while self.i < self.toks.len() && !self.is(self.i, "{") && !self.is(self.i, ";") {
            if self.is(self.i, "for") {
                after_for = true;
                ty = None;
                self.i += 1;
                continue;
            }
            if self.is(self.i, "where") {
                // Type already read; skip the clause.
                while self.i < self.toks.len() && !self.is(self.i, "{") && !self.is(self.i, ";") {
                    if self.is(self.i, "<") {
                        self.skip_balanced();
                    } else {
                        self.i += 1;
                    }
                }
                break;
            }
            if self.kind(self.i) == Some(TokKind::Ident) && ty.is_none() {
                ty = self.path_last_segment();
                continue;
            }
            if self.is(self.i, "<") {
                self.skip_balanced();
                continue;
            }
            self.i += 1;
        }
        let _ = after_for;
        if self.is(self.i, "{") {
            self.i += 1;
            let ty = ty.unwrap_or_default();
            self.block(Some(&ty), in_test, usize::MAX);
        } else if self.is(self.i, ";") {
            self.i += 1;
        }
    }

    fn fn_item(&mut self, impl_type: Option<&str>, is_test: bool) {
        let line = self.toks[self.i].line;
        self.i += 1; // `fn`
        let name = match self.kind(self.i) {
            Some(TokKind::Ident) => {
                let n = self.text(self.i).to_string();
                self.i += 1;
                n
            }
            _ => return,
        };
        // Signature runs to the body `{` or a trait-decl `;`. Balanced
        // regions are skipped so `where` bounds and argument types never
        // confuse the scan.
        while self.i < self.toks.len() && !self.is(self.i, "{") && !self.is(self.i, ";") {
            match self.text(self.i) {
                "(" | "<" | "[" => self.skip_balanced(),
                _ => self.i += 1,
            }
        }
        if !self.is(self.i, "{") {
            if self.is(self.i, ";") {
                self.i += 1;
            }
            return;
        }
        let body_open = self.i;
        self.skip_balanced();
        let body = (body_open + 1, self.i.saturating_sub(1));
        let end_line = self
            .toks
            .get(self.i.saturating_sub(1))
            .map_or(line, |t| t.line);
        self.fns.push(FnItem {
            name,
            impl_type: impl_type.map(str::to_string),
            line,
            end_line,
            body,
            is_test,
            calls: Vec::new(),
        });
    }
}

/// Rust keywords that look like calls when followed by `(`.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "let", "else", "move", "ref",
    "mut", "fn", "use", "pub", "where", "impl", "dyn", "box", "await", "unsafe",
];

/// Extract call sites from a function-body token range.
fn extract_calls(src: &str, toks: &[Token], body: (usize, usize)) -> Vec<Call> {
    let mut out = Vec::new();
    let (lo, hi) = body;
    let hi = hi.min(toks.len());
    let text = |i: usize| toks[i].text(src);
    let mut i = lo;
    while i < hi {
        if toks[i].kind == TokKind::Ident {
            let name = text(i);
            if !NON_CALL_KEYWORDS.contains(&name) {
                // Macro call: ident '!' ( ( | [ | { )
                if i + 2 < hi
                    && text(i + 1) == "!"
                    && matches!(text(i + 2), "(" | "[" | "{")
                    && toks[i].end == toks[i + 1].start
                {
                    out.push(Call {
                        name: format!("{name}!"),
                        qualifier: None,
                        is_method: false,
                        line: toks[i].line,
                    });
                    i += 2;
                    continue;
                }
                if i + 1 < hi && text(i + 1) == "(" {
                    let is_method = i > lo && text(i - 1) == ".";
                    let qualifier = if !is_method
                        && i >= lo + 3
                        && text(i - 1) == ":"
                        && text(i - 2) == ":"
                        && toks[i - 3].kind == TokKind::Ident
                    {
                        Some(text(i - 3).to_string())
                    } else {
                        None
                    };
                    out.push(Call {
                        name: name.to_string(),
                        qualifier,
                        is_method,
                        line: toks[i].line,
                    });
                }
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> File {
        parse("test.rs", "engine", src, lex(src))
    }

    #[test]
    fn finds_fns_and_impl_types() {
        let f = parse_src(
            r#"
            struct Network { now: u64, q: Vec<u8> }
            impl Network {
                pub fn step(&mut self) { self.tick(); helper(); }
                fn tick(&mut self) {}
            }
            fn helper() { other::call(); }
            "#,
        );
        let names: Vec<_> = f.fns.iter().map(|x| x.qname()).collect();
        assert_eq!(names, vec!["Network::step", "Network::tick", "helper"]);
        let step = &f.fns[0];
        assert!(step.calls.iter().any(|c| c.name == "tick" && c.is_method));
        assert!(step
            .calls
            .iter()
            .any(|c| c.name == "helper" && !c.is_method));
        let helper = &f.fns[2];
        assert_eq!(helper.calls[0].qualifier.as_deref(), Some("other"));
    }

    #[test]
    fn trait_impls_attribute_to_the_type() {
        let f = parse_src(
            r#"
            impl<P: Policy> Policy for Wrapper<P> {
                fn route(&mut self) { self.inner.route(); }
            }
            impl fmt::Display for Error {
                fn fmt(&self) {}
            }
            "#,
        );
        assert_eq!(f.fns[0].qname(), "Wrapper::route");
        assert_eq!(f.fns[1].qname(), "Error::fmt");
    }

    #[test]
    fn struct_fields_with_types() {
        let f = parse_src(
            r#"
            /// Docs.
            pub struct FaultState {
                /// docs
                out_up: Vec<bool>,
                pending: HashMap<(RouterId, RouterId), u32>,
                pub healthy: bool,
            }
            "#,
        );
        let s = &f.structs[0];
        assert_eq!(s.name, "FaultState");
        let names: Vec<_> = s.fields.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, vec!["out_up", "pending", "healthy"]);
        assert!(s.fields[1].ty.contains("HashMap"));
    }

    #[test]
    fn cfg_test_modules_are_marked() {
        let f = parse_src(
            r#"
            fn prod() {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { prod(); }
            }
            "#,
        );
        assert!(!f.fns[0].is_test);
        assert!(f.fns[1].is_test);
    }

    #[test]
    fn macro_calls_are_named() {
        let f = parse_src("fn a() { let v = vec![1]; let s = format!(\"x\"); }");
        let names: Vec<_> = f.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"vec!"));
        assert!(names.contains(&"format!"));
    }

    #[test]
    fn totality_on_junk_tokens() {
        for junk in [
            "impl",
            "struct {",
            "fn",
            "fn f(",
            "mod m { struct X",
            "} } }",
        ] {
            let _ = parse_src(junk);
        }
    }
}
