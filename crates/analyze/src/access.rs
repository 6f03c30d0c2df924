//! Field-access classification for the R (race/phase) rule family.
//!
//! Walks `self.`-rooted paths (and locally bound aliases of them) in
//! `impl Network` function bodies and classifies every access by the
//! *shard axis* it belongs to (router / NIC / link), the *index kind*
//! used to reach the shard (home, sweep, foreign, unknown) and the
//! operation performed. The phase analysis ([`crate::phases`]) folds
//! these accesses into per-phase read/write footprints and enforces
//! the partitionability rules R001–R005.
//!
//! The classifier is deliberately name-based and conservative, in the
//! same spirit as the call graph: an access it cannot prove home-
//! indexed degrades to `Unknown`, which the parallel-phase rules treat
//! exactly like a foreign access. It can report a spurious race; it
//! cannot silently bless a real one on the fields it models.

use crate::lexer::{TokKind, Token};
use crate::parse::{File, FnItem};
use std::collections::{BTreeMap, BTreeSet};

/// The shard axis a piece of engine state is partitioned over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Axis {
    /// Partitioned per router (the arena, CM per-router sensing, …).
    Router,
    /// Partitioned per NIC/source node (`src_q`, token buckets, …).
    Node,
    /// Partitioned per directed link (`llr` replay/rx state).
    Link,
}

impl Axis {
    /// Stable lower-case name used in messages and the contract.
    pub fn name(self) -> &'static str {
        match self {
            Axis::Router => "router",
            Axis::Node => "node",
            Axis::Link => "link",
        }
    }
}

/// What kind of state an access touches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Indexed per-shard state on the given axis.
    Sharded(Axis),
    /// Allocation-grade per-call scratch (`reqs`, `grants`, …): the
    /// parallel engine gives each worker its own copy, so accesses are
    /// exempt from the race rules.
    Scratch,
    /// A reduction-safe accumulator (`stats`, `effects`, …): mutation
    /// is allowed from parallel phases only through the sink's declared
    /// commutative operations.
    Sink,
    /// Immutable-after-construction topology (`fab`).
    Static,
    /// Everything else reached from `self`: unsharded engine state
    /// (`now`, `policy`, `faults`, …). Writable only in commit phases.
    Global,
}

impl Class {
    /// Stable lower-case name used in messages and the contract.
    pub fn name(self) -> &'static str {
        match self {
            Class::Sharded(a) => a.name(),
            Class::Scratch => "scratch",
            Class::Sink => "sink",
            Class::Static => "static",
            Class::Global => "global",
        }
    }

    /// True for per-shard state.
    pub fn is_sharded(self) -> bool {
        matches!(self, Class::Sharded(_))
    }
}

/// How the shard a sharded access touches relates to the shard the
/// surrounding code is evaluating.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Index {
    /// Indexed by the shard's own id (`ridx`, `node`, …).
    Home,
    /// Reached through a per-shard sweep (`iter_mut().enumerate()`).
    Sweep,
    /// Provably another shard's state (`up_*` / `dst_*` naming).
    Foreign,
    /// The analyzer could not prove the index — treated like foreign
    /// by the parallel-phase rules.
    Unknown,
}

impl Index {
    /// Stable lower-case name used in messages and the contract.
    pub fn name(self) -> &'static str {
        match self {
            Index::Home => "home",
            Index::Sweep => "sweep",
            Index::Foreign => "foreign",
            Index::Unknown => "unknown",
        }
    }

    /// Home or sweep — the access stays inside the evaluating shard.
    pub fn is_local(self) -> bool {
        matches!(self, Index::Home | Index::Sweep)
    }
}

/// The operation an access performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// Plain read.
    Read,
    /// `=` assignment.
    Assign,
    /// `+=`-style compound assignment.
    Compound,
    /// `&mut` borrow of the path.
    MutBorrow,
    /// Terminal method call on the path (name in [`Access::method`]).
    Method,
}

impl Op {
    /// Stable lower-case name used in messages and the contract.
    pub fn name(self) -> &'static str {
        match self {
            Op::Read => "read",
            Op::Assign => "assign",
            Op::Compound => "compound",
            Op::MutBorrow => "mut-borrow",
            Op::Method => "method",
        }
    }
}

/// One classified state access inside a `Network` method.
#[derive(Clone, Debug)]
pub struct Access {
    /// The classified field (deepest table-matched path segment; the
    /// first segment for global state).
    pub field: String,
    /// State class.
    pub class: Class,
    /// Index kind (meaningful for sharded state only).
    pub index: Index,
    /// Operation.
    pub op: Op,
    /// Terminal method name when `op == Method`.
    pub method: Option<String>,
    /// True when the access can mutate the state.
    pub write: bool,
    /// 1-based source line of the access base.
    pub line: u32,
}

/// Fields indexed per router: the bracket group (or sweep) directly
/// after them names the shard.
const ROUTER_ROOTS: &[&str] = &[
    "cong",
    "throttled",
    "free",
    "cap",
    "cap_sum",
    "inv",
    "router_last_grant",
    // The occupancy index: `port_pkts` is `[router × n_in]`, so its
    // bracket names the router too; `port_mask` is one word per router.
    "port_pkts",
    "port_mask",
    // The router arena: `[router × port]` arrays, and per-slot and
    // per-lane arrays whose bracket names the router through the
    // fabric's offsets (`fab.in_slot(router, …)`, `fab.router_lanes(…)`).
    // The FIFOs are reached through methods; their slot argument names
    // the router the same way.
    "in_busy",
    "vc_served_at",
    "fifos",
    "queued",
    "heads",
    "out_busy",
    "credits",
    "in_served_at",
];

/// Fields indexed per NIC/source node. `src_pending` is a bitset: node
/// shards are blocks of 64, so a shard owns whole words.
const NODE_ROOTS: &[&str] = &["src_q", "inj_busy", "tokens", "src_pending"];

/// Fields holding per-directed-link state. They expose no direct
/// bracket: the shard id comes from the terminal method's arguments —
/// `llr`'s replay/rx state by `(router, port)`, and the timing `wheel`
/// by the target of the event filed. Filing an event for another
/// router's port from a `parallel` phase is therefore a cross-shard
/// write (R001); the engine files from the serial `effect_commit` phase
/// and drains from the serial `deliver` phase.
const LINK_ROOTS: &[&str] = &["llr", "wheel"];

/// Per-call allocation scratch — the parallel engine clones these per
/// worker, so the race rules ignore them.
const SCRATCH: &[&str] = &["reqs", "grants", "best_out"];

/// Immutable-after-construction state. The shard-schedule tables are
/// set once per run by the race harness (never from inside `step`), so
/// phase code only ever reads them.
const STATIC_FIELDS: &[&str] = &["fab", "order_nodes", "order_routers"];

/// Which mutations a sink accepts from parallel phases.
#[derive(Clone, Copy, Debug)]
pub enum SinkMethods {
    /// Any method call is treated as reduction-safe (diagnostic sinks
    /// the parallel engine serializes or shards wholesale).
    Any,
    /// Only the listed methods are reduction-safe.
    Only(&'static [&'static str]),
}

/// Reduction policy for one sink field.
#[derive(Clone, Copy, Debug)]
pub struct SinkPolicy {
    /// Field name.
    pub name: &'static str,
    /// `+=`-style compound assignment is commutative and allowed.
    pub allow_compound: bool,
    /// Allowed mutating methods.
    pub methods: SinkMethods,
}

/// Declared reduction-safe sinks. `stats` and the per-source delivery
/// counters merge by addition; `effects` / `delivered_log` are append
/// logs the commit phase drains or that only ever grow; `hooks` (the
/// auditor and mutation seam) is diagnostic instrumentation the
/// parallel engine runs serialized.
pub const SINKS: &[SinkPolicy] = &[
    SinkPolicy {
        name: "delivered_log",
        allow_compound: false,
        methods: SinkMethods::Only(&["push"]),
    },
    SinkPolicy {
        name: "delivered_now",
        allow_compound: false,
        methods: SinkMethods::Only(&["push"]),
    },
    SinkPolicy {
        name: "delivered_per_src",
        allow_compound: true,
        methods: SinkMethods::Only(&[]),
    },
    SinkPolicy {
        name: "effects",
        allow_compound: false,
        methods: SinkMethods::Only(&["push"]),
    },
    SinkPolicy {
        name: "hooks",
        allow_compound: false,
        methods: SinkMethods::Any,
    },
    SinkPolicy {
        name: "link_phits",
        allow_compound: true,
        methods: SinkMethods::Only(&[]),
    },
    SinkPolicy {
        name: "stats",
        allow_compound: true,
        methods: SinkMethods::Only(&[]),
    },
];

/// Look up the reduction policy of a sink field.
pub fn sink_policy(field: &str) -> Option<&'static SinkPolicy> {
    SINKS.iter().find(|s| s.name == field)
}

/// Methods that continue a path chain without changing what it points
/// at (`self.cm.as_mut().unwrap().tokens` classifies like `cm.tokens`).
const TRANSPARENT: &[&str] = &["as_mut", "as_ref", "enumerate", "expect", "iter", "unwrap"];

/// Shape reads (`len`, `is_empty`) carry no shard data — skipped.
const SHAPE: &[&str] = &["is_empty", "len"];

/// Methods whose return borrows into the receiver: a `let` binding of
/// one is an alias of the receiver's state, not a fresh value.
const REF_METHODS: &[&str] = &[
    "back",
    "back_mut",
    "first",
    "first_mut",
    "front",
    "front_mut",
    "get",
    "get_mut",
    "head_mut",
    "last",
    "last_mut",
];

/// Sweep producers in `for` headers: the loop variable visits each
/// element of the swept collection exactly once.
const SWEEP_METHODS: &[&str] = &["chunks", "chunks_mut", "iter", "iter_mut", "windows"];

/// Std-style mutating methods (workspace methods add to this via the
/// `is_mut_method` callback and `FnItem::mut_self`).
const MUT_METHODS: &[&str] = &[
    "as_mut",
    "back_mut",
    "chunks_mut",
    "clear",
    "drain",
    "extend",
    "first_mut",
    "front_mut",
    "get_mut",
    "head_mut",
    "insert",
    "iter_mut",
    "last_mut",
    "pop",
    "pop_back",
    "pop_front",
    "push",
    "push_back",
    "push_front",
    "remove",
    "replace",
    "resize",
    "retain",
    "sort",
    "sort_unstable",
    "split_at_mut",
    "take",
    "truncate",
];

/// Iteration-order-sensitive combinators — R005 flags these over
/// sharded collections in commit phases.
pub const ORDER_SENSITIVE: &[&str] = &[
    "fold",
    "reduce",
    "rev",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
];

/// Effect ledgers: sinks whose element order reflects parallel-phase
/// push order, which the shard schedule permutes. A commit-phase loop
/// draining one of these must combine elements commutatively (R006) —
/// or canonicalize first, as `commit_effects` does by sorting
/// `delivered_now` before the append.
pub const LEDGERS: &[&str] = &["delivered_log", "delivered_now", "effects"];

/// Accumulator combinators that weight an element's contribution by its
/// position in the iteration (polynomial/rolling-hash shapes). R006
/// flags an accumulator updated through one of these inside a ledger
/// drain; order-insensitive reductions (`wrapping_add`, `^=`, `max`)
/// stay silent.
pub const ORDER_WEIGHTING: &[&str] = &[
    "pow",
    "rotate_left",
    "rotate_right",
    "wrapping_mul",
    "wrapping_pow",
    "wrapping_shl",
    "wrapping_shr",
];

/// Identifiers that conventionally hold the evaluating shard's own id.
const HOME_IDENTS: &[&str] = &["node", "r", "rid", "ridx", "router"];

/// Identifier prefixes that conventionally name another shard.
const FOREIGN_PREFIXES: &[&str] = &["dst_", "up_"];

/// Scan one `impl Network` function and classify its state accesses.
/// `is_mut_method` reports whether a workspace method of that name may
/// mutate its receiver (resolved through the call graph).
pub fn scan_fn(file: &File, f: &FnItem, is_mut_method: &dyn Fn(&str) -> bool) -> Vec<Access> {
    let mut s = Scanner {
        src: &file.src,
        toks: &file.tokens,
        lo: f.body.0,
        hi: f.body.1.min(file.tokens.len()),
        aliases: BTreeMap::new(),
        home: HOME_IDENTS.iter().map(|s| s.to_string()).collect(),
        suppressed: BTreeSet::new(),
        out: Vec::new(),
    };
    s.bind_pass();
    s.record_pass(is_mut_method);
    s.out
}

/// Where an alias points: the classification cursor at its binding.
#[derive(Clone, Debug)]
struct AliasInfo {
    class: Option<Class>,
    index: Index,
    field: String,
}

/// Result of walking one access path.
struct PathEnd {
    class: Option<Class>,
    index: Index,
    field: String,
    /// Terminal method name, if the path ends in a call.
    method: Option<String>,
    /// First token index past the path (past terminal args).
    end: usize,
    /// True when no field segment was seen (bare `self` receiver).
    bare: bool,
    /// The chain passed through `as_ref`/`as_mut` — its end product
    /// borrows into the receiver.
    saw_ref: bool,
}

struct Scanner<'a> {
    src: &'a str,
    toks: &'a [Token],
    lo: usize,
    hi: usize,
    aliases: BTreeMap<String, AliasInfo>,
    home: BTreeSet<String>,
    /// Token positions the record pass skips (pattern binders and the
    /// base of alias-binding right-hand sides).
    suppressed: BTreeSet<usize>,
    out: Vec<Access>,
}

impl<'a> Scanner<'a> {
    fn text(&self, i: usize) -> &'a str {
        self.toks[i].text(self.src)
    }

    fn is(&self, i: usize, s: &str) -> bool {
        i < self.hi && self.text(i) == s
    }

    fn kind(&self, i: usize) -> Option<TokKind> {
        (i < self.hi).then(|| self.toks[i].kind)
    }

    fn adj(&self, i: usize, j: usize) -> bool {
        j < self.hi && self.toks[i].end == self.toks[j].start
    }

    /// Skip a balanced group whose opener sits at `i`; returns the
    /// index one past the closer.
    fn skip_group(&self, i: usize) -> usize {
        let (open, close) = match self.text(i) {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            "{" => ("{", "}"),
            _ => return i + 1,
        };
        let mut depth = 0i64;
        let mut j = i;
        while j < self.hi {
            let t = self.text(j);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        self.hi
    }

    /// Classify the identifiers of a bracket/argument group:
    /// foreign naming wins over home naming wins over unknown.
    fn classify_group(&self, i: usize) -> Index {
        let end = self.skip_group(i);
        let mut idx = Index::Unknown;
        for j in i + 1..end.saturating_sub(1) {
            if self.kind(j) != Some(TokKind::Ident) {
                continue;
            }
            let t = self.text(j);
            if FOREIGN_PREFIXES.iter().any(|p| t.starts_with(p)) {
                return Index::Foreign;
            }
            if self.home.contains(t) {
                idx = Index::Home;
            }
        }
        idx
    }

    /// Walk one access path starting at the base token (`self` or an
    /// alias identifier) at `i`.
    fn walk_path(&self, mut i: usize) -> PathEnd {
        let mut class: Option<Class> = None;
        let mut index = Index::Unknown;
        let mut field = String::new();
        let mut bare = true;
        if self.text(i) == "self" {
            i += 1;
        } else {
            if let Some(a) = self.aliases.get(self.text(i)) {
                class = a.class;
                index = a.index;
                field = a.field.clone();
                bare = false;
            }
            i += 1;
            // A bracket directly on a sharded alias selects the shard.
            if self.is(i, "[") {
                if matches!(class, Some(Class::Sharded(_))) && index == Index::Unknown {
                    index = self.classify_group(i);
                }
                i = self.skip_group(i);
            }
        }
        let mut method = None;
        let mut saw_ref = false;
        while self.is(i, ".") && self.kind(i + 1) == Some(TokKind::Ident) {
            let name = self.text(i + 1);
            if i + 2 < self.hi && self.is(i + 2, "(") {
                if TRANSPARENT.contains(&name) {
                    saw_ref |= matches!(name, "as_mut" | "as_ref");
                    i = self.skip_group(i + 2);
                    continue;
                }
                // Terminal method: a sharded path without a proven
                // index takes it from the argument group (covers
                // `llr.push_ack(up_r, …)` / `l.tx_has_room(ridx, …)`).
                if matches!(class, Some(Class::Sharded(_))) && index == Index::Unknown {
                    index = self.classify_group(i + 2);
                }
                method = Some(name.to_string());
                i = self.skip_group(i + 2);
                break;
            }
            // Field segment.
            bare = false;
            let mut shard_root = false;
            if let Some(axis) = root_axis(name) {
                // `src_q` is a `Fifos` of its own: the `heads` and
                // `queued` reached through it are per node.
                (class, field) = if field == "src_q" && axis == Axis::Router {
                    (Some(Class::Sharded(Axis::Node)), format!("src_q.{name}"))
                } else {
                    (Some(Class::Sharded(axis)), name.to_string())
                };
                index = Index::Unknown;
                shard_root = axis != Axis::Link;
            } else if SCRATCH.contains(&name) {
                class = Some(Class::Scratch);
                field = name.to_string();
            } else if STATIC_FIELDS.contains(&name) {
                class = Some(Class::Static);
                field = name.to_string();
            } else if sink_policy(name).is_some() {
                class = Some(Class::Sink);
                field = name.to_string();
            } else if class.is_none() {
                class = Some(Class::Global);
                field = name.to_string();
            }
            i += 2;
            let mut first_bracket = true;
            while self.is(i, "[") {
                if shard_root && first_bracket {
                    index = self.classify_group(i);
                }
                first_bracket = false;
                i = self.skip_group(i);
            }
        }
        PathEnd {
            class,
            index,
            field,
            method,
            end: i,
            bare,
            saw_ref,
        }
    }

    /// Pass 1: bind aliases and home identifiers, and mark binder /
    /// alias-base token positions the record pass must skip.
    fn bind_pass(&mut self) {
        let mut i = self.lo;
        while i < self.hi {
            match self.text(i) {
                "for" => i = self.bind_for(i),
                "let" => i = self.bind_let(i),
                _ => i += 1,
            }
        }
    }

    /// `for PATTERN in EXPR {`: range-fors bind a home id; sweep
    /// methods bind a sweep alias; `enumerate()` binds both.
    fn bind_for(&mut self, at: usize) -> usize {
        // Pattern runs to the top-level `in`.
        let mut i = at + 1;
        let mut depth = 0i64;
        let mut binders: Vec<(usize, String)> = Vec::new();
        while i < self.hi {
            let t = self.text(i);
            match t {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "in" if depth == 0 => break,
                "{" => return i, // lost sync
                _ => {
                    if self.kind(i) == Some(TokKind::Ident) && !matches!(t, "mut" | "ref" | "_") {
                        binders.push((i, t.to_string()));
                    }
                }
            }
            i += 1;
        }
        if !self.is(i, "in") {
            return i;
        }
        for (pos, _) in &binders {
            self.suppressed.insert(*pos);
        }
        let expr = i + 1;
        // Find the loop-body `{` at depth 0 to bound the expression.
        let mut j = expr;
        let mut depth = 0i64;
        let mut is_range = false;
        while j < self.hi {
            let t = self.text(j);
            match t {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => break,
                "." if depth == 0 && self.is(j + 1, ".") && self.adj(j, j + 1) => is_range = true,
                _ => {}
            }
            j += 1;
        }
        if is_range {
            // `for node in 0..n`: the binder is the shard's own id.
            if let [(_, name)] = binders.as_slice() {
                self.home.insert(name.clone());
            }
            return j;
        }
        // Sweep: EXPR is a path chain ending in a sweep method.
        let base = expr;
        let is_base = self.kind(base) == Some(TokKind::Ident)
            && (self.text(base) == "self" || self.aliases.contains_key(self.text(base)));
        if !is_base {
            return j;
        }
        let pe = self.walk_path(base);
        let Some(m) = pe.method.as_deref() else {
            return j;
        };
        if !SWEEP_METHODS.contains(&m) {
            return j;
        }
        let enumerated = self.is(pe.end, ".") && self.is(pe.end + 1, "enumerate");
        let info = AliasInfo {
            class: pe.class,
            index: Index::Sweep,
            field: pe.field,
        };
        match (binders.as_slice(), enumerated) {
            ([(_, a), (_, b)], true) => {
                self.home.insert(a.clone());
                self.aliases.insert(b.clone(), info);
                self.suppressed.insert(base);
            }
            ([(_, a)], false) => {
                self.aliases.insert(a.clone(), info);
                self.suppressed.insert(base);
            }
            _ => {}
        }
        j
    }

    /// `let PATTERN = RHS` (covers `if let` / `while let` / `let …
    /// else`): a borrow or ref-method RHS rooted at `self`/an alias
    /// binds an alias; all pattern binders are suppressed.
    fn bind_let(&mut self, at: usize) -> usize {
        let mut i = at + 1;
        let mut depth = 0i64;
        let mut binders: Vec<(usize, String)> = Vec::new();
        while i < self.hi {
            let t = self.text(i);
            match t {
                "(" | "[" | "<" => depth += 1,
                ")" | "]" | ">" => depth -= 1,
                "=" if depth == 0 => break,
                ";" | "{" => return i, // `let x;` or lost sync
                _ => {
                    if self.kind(i) == Some(TokKind::Ident)
                        && !matches!(t, "mut" | "ref" | "_" | "Some" | "Ok" | "Err" | "None")
                    {
                        binders.push((i, t.to_string()));
                    }
                }
            }
            i += 1;
        }
        if !self.is(i, "=") || (self.is(i + 1, "=") && self.adj(i, i + 1)) {
            return i;
        }
        for (pos, _) in &binders {
            self.suppressed.insert(*pos);
        }
        let rhs = i + 1;
        if self.is(rhs, "(") && binders.len() > 1 {
            // Pairwise tuple binding: `let (a, b) = (&mut x, &y);`.
            let end = self.skip_group(rhs);
            let mut depth = 0i64;
            let mut starts = vec![rhs + 1];
            let mut j = rhs + 1;
            while j + 1 < end {
                match self.text(j) {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "," if depth == 0 => starts.push(j + 1),
                    _ => {}
                }
                j += 1;
            }
            if starts.len() == binders.len() {
                for (k, start) in starts.iter().enumerate() {
                    self.bind_one(binders[k].1.clone(), *start);
                }
            }
            return end;
        }
        if binders.len() == 1 {
            self.bind_one(binders[0].1.clone(), rhs);
        }
        i + 1
    }

    /// Try to bind `name` as an alias of the path starting at `rhs`
    /// (after an optional `&` / `&mut`). A value copy (`let x =
    /// self.foo[i];` with no borrow and no ref-producing method) is
    /// *not* an alias — the record pass reports it as a read.
    fn bind_one(&mut self, name: String, mut rhs: usize) {
        let mut borrowed = false;
        if self.is(rhs, "&") {
            borrowed = true;
            rhs += 1;
            if self.is(rhs, "mut") {
                rhs += 1;
            }
        }
        if self.kind(rhs) != Some(TokKind::Ident) {
            return;
        }
        let base = self.text(rhs);
        if base != "self" && !self.aliases.contains_key(base) {
            return;
        }
        let pe = self.walk_path(rhs);
        let aliasing = match pe.method.as_deref() {
            None => borrowed || pe.saw_ref,
            Some(m) => REF_METHODS.contains(&m),
        };
        if !aliasing || pe.bare {
            return;
        }
        self.suppressed.insert(rhs);
        self.aliases.insert(
            name,
            AliasInfo {
                class: pe.class,
                index: pe.index,
                field: pe.field,
            },
        );
    }

    /// Pass 2: record every classified access.
    fn record_pass(&mut self, is_mut_method: &dyn Fn(&str) -> bool) {
        let mut i = self.lo;
        while i < self.hi {
            if self.kind(i) == Some(TokKind::Ident) && !self.suppressed.contains(&i) {
                let t = self.text(i);
                let is_base =
                    t == "self" || (self.aliases.contains_key(t) && !self.is_nontrigger(i));
                let after_dot = i > self.lo && self.text(i - 1) == ".";
                if is_base && !after_dot && !self.is_struct_field(i) {
                    self.record_at(i, is_mut_method);
                }
            }
            i += 1;
        }
    }

    /// Alias names are common words; skip positions that are clearly
    /// not expression bases (path qualifiers `router::x`).
    fn is_nontrigger(&self, i: usize) -> bool {
        self.is(i + 1, ":") && self.is(i + 2, ":") && self.adj(i + 1, i + 2)
    }

    /// `Effect::Ack { router: … }`-style struct-literal field names
    /// collide with alias names; a single following `:` marks them.
    fn is_struct_field(&self, i: usize) -> bool {
        self.is(i + 1, ":") && !(self.is(i + 2, ":") && self.adj(i + 1, i + 2))
    }

    fn record_at(&mut self, i: usize, is_mut_method: &dyn Fn(&str) -> bool) {
        let pe = self.walk_path(i);
        if pe.bare {
            // `self.deliver_events(now)` — the callee is charged via
            // the phase closure, and a bare `self` carries no field.
            return;
        }
        let Some(class) = pe.class else { return };
        let line = self.toks[i].line;
        let (op, write) = if let Some(m) = pe.method.as_deref() {
            let write = MUT_METHODS.contains(&m) || is_mut_method(m);
            if !write && SHAPE.contains(&m) {
                return; // `self.src_q.queued.len()` carries no shard state
            }
            (Op::Method, write)
        } else if i >= self.lo + 2 && self.text(i - 1) == "mut" && self.text(i - 2) == "&" {
            (Op::MutBorrow, true)
        } else {
            let j = pe.end;
            let compound = j + 1 < self.hi
                && matches!(self.text(j), "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^")
                && self.is(j + 1, "=")
                && self.adj(j, j + 1)
                && !(self.is(j + 2, "=") && self.adj(j + 1, j + 2));
            if compound {
                (Op::Compound, true)
            } else if self.is(j, "=") && !(self.is(j + 1, "=") && self.adj(j, j + 1)) {
                (Op::Assign, true)
            } else {
                (Op::Read, false)
            }
        };
        self.out.push(Access {
            field: pe.field,
            class,
            index: pe.index,
            op,
            method: pe.method,
            write,
            line,
        });
    }
}

/// Shard axis of a root field, if any.
fn root_axis(name: &str) -> Option<Axis> {
    if ROUTER_ROOTS.contains(&name) {
        Some(Axis::Router)
    } else if NODE_ROOTS.contains(&name) {
        Some(Axis::Node)
    } else if LINK_ROOTS.contains(&name) {
        Some(Axis::Link)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse;

    fn accesses(body: &str) -> Vec<Access> {
        let src = format!("impl Network {{ fn f(&mut self, ridx: usize, now: u64) {{ {body} }} }}");
        let file = parse("t.rs", "engine", &src, lex(&src));
        let f = &file.fns[0];
        scan_fn(&file, f, &|m| m == "ws_mut")
    }

    fn one(body: &str) -> Access {
        let a = accesses(body);
        assert_eq!(a.len(), 1, "expected one access in {body:?}: {a:?}");
        a.into_iter().next().unwrap()
    }

    #[test]
    fn home_indexed_write_through_alias() {
        let a =
            accesses("let lanes = &mut self.arena.credits[fab.router_lanes(ridx)]; lanes[v] -= s;");
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].field, "credits");
        assert_eq!(a[0].class, Class::Sharded(Axis::Router));
        assert_eq!(a[0].index, Index::Home);
        assert_eq!(a[0].op, Op::Compound);
        assert!(a[0].write);
    }

    #[test]
    fn foreign_write_by_naming_convention() {
        let a = one("self.arena.credits[fab.out_lane(up_r, up_p, v)] += x;");
        assert_eq!(a.index, Index::Foreign);
        assert!(a.write);
        assert_eq!(a.field, "credits");
    }

    #[test]
    fn sweep_alias_from_enumerate() {
        let a = accesses(
            "for (ridx, ports) in self.arena.in_busy.chunks_mut(n).enumerate() \
             { ports[p] = now; }",
        );
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].index, Index::Sweep);
        assert_eq!(a[0].field, "in_busy");
        assert!(a[0].write);
    }

    /// The arena's FIFOs expose no bracket: like the link roots, the
    /// shard comes from the method's slot argument.
    #[test]
    fn fifo_method_takes_index_from_the_slot_argument() {
        let home = one("self.arena.fifos.pop(fab.in_slot(router, in_port, vc));");
        assert_eq!(home.field, "fifos");
        assert_eq!(home.class, Class::Sharded(Axis::Router));
        assert_eq!(home.index, Index::Home);
        assert!(home.write);
        let foreign = one("self.arena.fifos.push(dst_slot, pkt, cap);");
        assert_eq!(foreign.index, Index::Foreign);
        let head = one("self.arena.fifos.heads[fab.in_slot(router, p, v)].wait = 0;");
        assert_eq!((head.field.as_str(), head.index), ("heads", Index::Home));
    }

    /// The source queues are a `Fifos` too, indexed by node: what is
    /// reached through `src_q` stays on the node axis under its own name.
    #[test]
    fn source_queue_fifos_are_node_sharded() {
        let head = one("self.src_q.heads[node].wait = 0;");
        assert_eq!(head.field, "src_q.heads");
        assert_eq!(head.class, Class::Sharded(Axis::Node));
        assert_eq!(head.index, Index::Home);
        let pop = one("self.src_q.pop(node);");
        assert_eq!((pop.field.as_str(), pop.index), ("src_q", Index::Home));
        assert_eq!(pop.class, Class::Sharded(Axis::Node));
        assert!(pop.write);
        let other = one("let n = self.src_q.queued[i];");
        assert_eq!(
            (other.field.as_str(), other.index),
            ("src_q.queued", Index::Unknown)
        );
    }

    #[test]
    fn link_terminal_method_takes_index_from_args() {
        let home = accesses("let llr = &mut self.llr; llr.push_back(ridx, p);");
        assert_eq!(home.len(), 1);
        assert_eq!(home[0].class, Class::Sharded(Axis::Link));
        assert_eq!(home[0].index, Index::Home);
        assert!(home[0].write);
        let foreign = accesses("let llr = &mut self.llr; llr.push_back(up_r, up_p);");
        assert_eq!(foreign[0].index, Index::Foreign);
    }

    /// The timing wheel is link-sharded by the target of the event: the
    /// engine's own filing (from a commit phase) and the hoisted-credit
    /// mutant (from `route`) are both foreign writes — the phase rules
    /// accept the first and reject the second.
    #[test]
    fn wheel_filing_takes_index_from_the_event_target() {
        let a = one(
            "self.wheel.file_credit(at, Credit { router: desc.up_router, port: desc.up_port, \
             vc, phits });",
        );
        assert_eq!(a.field, "wheel");
        assert_eq!(a.class, Class::Sharded(Axis::Link));
        assert_eq!(a.index, Index::Foreign);
    }

    #[test]
    fn occupancy_index_is_sharded_with_its_structures() {
        let r = one("self.occ.port_pkts[ridx * n_in + port] += 1;");
        assert_eq!(r.field, "port_pkts");
        assert_eq!(r.class, Class::Sharded(Axis::Router));
        assert_eq!(r.index, Index::Home);
        let f = one("self.occ.port_mask[link.dst_router as usize] |= 1 << link.dst_port;");
        assert_eq!(f.index, Index::Foreign);
        let n = one("self.occ.src_pending[node / 64] &= !(1 << (node % 64));");
        assert_eq!(n.class, Class::Sharded(Axis::Node));
        assert_eq!(n.index, Index::Home);
    }

    #[test]
    fn global_and_sink_classification() {
        let g = one("self.now = now + 1;");
        assert_eq!(g.class, Class::Global);
        assert_eq!(g.op, Op::Assign);
        let s = one("self.stats.delivered += 1;");
        assert_eq!(s.class, Class::Sink);
        assert_eq!(s.field, "stats");
        assert_eq!(s.op, Op::Compound);
        let e = one("self.effects.push(x);");
        assert_eq!(e.class, Class::Sink);
        assert_eq!(e.method.as_deref(), Some("push"));
    }

    #[test]
    fn shape_reads_and_bare_self_calls_are_skipped() {
        assert!(accesses("for node in 0..self.src_q.queued.len() { }").is_empty());
        assert!(accesses("self.deliver_events(now);").is_empty());
    }

    #[test]
    fn range_for_binds_home_ident() {
        let a = accesses("for node in 0..n { self.src_q.pop(node); }");
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].class, Class::Sharded(Axis::Node));
        assert_eq!(a[0].index, Index::Home);
    }

    #[test]
    fn option_alias_chain_reclassifies() {
        let a = accesses("let Some(cm) = self.cm.as_mut() else { return }; cm.free[ridx] += x;");
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].field, "free");
        assert_eq!(a[0].class, Class::Sharded(Axis::Router));
        assert_eq!(a[0].index, Index::Home);
    }

    #[test]
    fn workspace_mut_method_counts_as_write() {
        let a = one("self.policy.ws_mut(v);");
        assert_eq!(a.class, Class::Global);
        assert!(a.write);
        let r = one("self.policy.peek(v);");
        assert!(!r.write);
    }

    #[test]
    fn struct_literal_field_names_do_not_trigger_aliases() {
        let a = accesses(
            "let router = &mut self.arena.in_busy[ridx * n..]; take(E { router: up, port: p });",
        );
        // Only the struct-literal value idents appear; `router:` is a
        // field name, not the alias.
        assert!(a.is_empty(), "{a:?}");
    }

    #[test]
    fn scratch_is_classified() {
        let a = one("self.reqs.clear();");
        assert_eq!(a.class, Class::Scratch);
    }

    #[test]
    fn alias_passed_as_argument_is_a_read() {
        let a = accesses(
            "let lanes = &self.arena.credits[fab.router_lanes(ridx)]; eligible(lanes, req);",
        );
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].op, Op::Read);
        assert_eq!(a[0].index, Index::Home);
    }
}
