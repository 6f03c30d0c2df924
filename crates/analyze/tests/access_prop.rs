//! Property tests for the access classifier — the index inference the
//! R-family race rules (and therefore the parallelization contract)
//! stand on.
//!
//! Two properties pin the classifier's conservatism:
//!
//! 1. *Renaming invariance* — user-chosen identifiers (aliases, loop
//!    binders, scalar locals) carry no classification weight of their
//!    own, so renaming them must not change any access's field, class,
//!    index or operation.
//! 2. *Unknown never means home* — an index expression the classifier
//!    cannot tie to the evaluating shard's own id must degrade to
//!    `Unknown` (or prove `Foreign` from naming), never to `Home`: a
//!    spurious race report is acceptable, a silently blessed race is
//!    not.

use ofar_analyze::access::{scan_fn, Access, Axis, Class, Index, Op};
use ofar_analyze::{lexer, parse};
use proptest::prelude::*;

fn accesses(body: &str) -> Vec<Access> {
    let src = format!("impl Network {{ fn f(&mut self, ridx: usize, now: u64) {{ {body} }} }}");
    let file = parse::parse("t.rs", "engine", &src, lexer::lex(&src));
    scan_fn(&file, &file.fns[0], &|_| false)
}

/// Shape of one access, stripped of line numbers: what a renaming must
/// preserve.
fn shape(a: &Access) -> (String, Class, Index, Op, bool) {
    (a.field.clone(), a.class, a.index, a.op, a.write)
}

/// An identifier that cannot collide with the classifier's name tables:
/// nothing in the root/scratch/sink tables, `HOME_IDENTS`, or the
/// `up_`/`dst_` foreign prefixes starts with `zz`.
fn fresh(raw: u64, tag: char) -> String {
    format!("zz{raw:x}{tag}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Renaming a `&mut` alias of a router's home-indexed arena span
    /// must keep the write home-classified on the same field, whatever
    /// the alias is called.
    #[test]
    fn alias_rename_preserves_home_write(raw in 0u64..u64::MAX) {
        let name = fresh(raw, 'a');
        let body = format!(
            "let {name} = &mut self.arena.credits[fab.router_lanes(ridx)]; {name}[v] -= s;"
        );
        let got: Vec<_> = accesses(&body).iter().map(shape).collect();
        prop_assert_eq!(
            got,
            vec![(
                "credits".to_string(),
                Class::Sharded(Axis::Router),
                Index::Home,
                Op::Compound,
                true
            )]
        );
    }

    /// Renaming both binders of a `chunks_mut().enumerate()` sweep must
    /// keep the access a sweep: the binder names are the user's choice,
    /// the sweep classification comes from the iteration shape.
    #[test]
    fn sweep_binder_rename_preserves_sweep(raw in 0u64..u64::MAX) {
        let (idx, row) = (fresh(raw, 'a'), fresh(raw, 'b'));
        let body = format!(
            "for ({idx}, {row}) in self.arena.in_busy.chunks_mut(n).enumerate() \
             {{ {row}[p] = now; }}"
        );
        let got: Vec<_> = accesses(&body).iter().map(shape).collect();
        prop_assert_eq!(
            got,
            vec![(
                "in_busy".to_string(),
                Class::Sharded(Axis::Router),
                Index::Sweep,
                Op::Assign,
                true
            )]
        );
    }

    /// A range-`for` binder is the shard's own id whatever it is named:
    /// `for <x> in 0..n { self.src_q.pop(<x>) }` stays home-indexed.
    #[test]
    fn range_for_binder_rename_preserves_home(raw in 0u64..u64::MAX) {
        let name = fresh(raw, 'a');
        let body = format!("for {name} in 0..n {{ self.src_q.pop({name}); }}");
        let got: Vec<_> = accesses(&body).iter().map(shape).collect();
        prop_assert_eq!(
            got,
            vec![(
                "src_q".to_string(),
                Class::Sharded(Axis::Node),
                Index::Home,
                Op::Method,
                true
            )]
        );
    }

    /// Renaming an `Option` alias bound through `as_mut()` must keep
    /// the downstream sharded access classified identically.
    #[test]
    fn option_alias_rename_preserves_classification(raw in 0u64..u64::MAX) {
        let name = fresh(raw, 'a');
        let body = format!(
            "let Some({name}) = self.cm.as_mut() else {{ return }}; {name}.free[ridx] += x;"
        );
        let got: Vec<_> = accesses(&body).iter().map(shape).collect();
        prop_assert_eq!(
            got,
            vec![(
                "free".to_string(),
                Class::Sharded(Axis::Router),
                Index::Home,
                Op::Compound,
                true
            )]
        );
    }

    /// An arbitrary unknown identifier in a shard bracket must never
    /// classify as `Home` — the fallback is `Unknown`, which the
    /// parallel-phase rules treat exactly like foreign.
    #[test]
    fn unknown_index_never_classifies_home(raw in 0u64..u64::MAX) {
        let name = fresh(raw, 'a');
        for body in [
            format!("self.arena.credits[fab.out_lane({name}, p, v)] -= s;"),
            format!("self.src_q.pop({name});"),
            format!("self.free[{name} + 1] += x;"),
            format!("self.arena.fifos.pop(fab.in_slot({name}, p, v));"),
        ] {
            let got = accesses(&body);
            prop_assert_eq!(got.len(), 1, "one access in {}: {:?}", body, got);
            prop_assert!(
                got[0].class.is_sharded(),
                "sharded access expected in {}",
                body
            );
            prop_assert_eq!(
                got[0].index,
                Index::Unknown,
                "unproven index must degrade to Unknown in {}",
                body
            );
        }
    }

    /// Foreign naming stays foreign under suffix renaming, and mixing a
    /// foreign-named id into an otherwise-home bracket keeps the access
    /// foreign: the pessimistic reading wins.
    #[test]
    fn foreign_prefix_dominates(raw in 0u64..u64::MAX) {
        let suffix = format!("{raw:x}");
        let one = accesses(&format!(
            "self.arena.credits[fab.out_lane(up_{suffix}, p, v)] += x;"
        ));
        prop_assert_eq!(one.len(), 1);
        prop_assert_eq!(one[0].index, Index::Foreign);

        let mixed = accesses(&format!("self.free[ridx + up_{suffix}] += x;"));
        prop_assert_eq!(mixed.len(), 1);
        prop_assert_eq!(mixed[0].index, Index::Foreign);
    }
}
