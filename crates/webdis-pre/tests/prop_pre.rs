//! Property-based tests for the PRE engine: the derivative evaluator, the
//! DFA compilation and the subsumption rules must agree with each other on
//! arbitrary expressions and paths.

use proptest::prelude::*;
use webdis_model::LinkType;
use webdis_pre::{check_subsumption, contains, counterexample, parse, Dfa, Pre, Subsumption};

/// Strategy for arbitrary link types (traversable only).
fn link_type() -> impl Strategy<Value = LinkType> {
    prop_oneof![
        Just(LinkType::Interior),
        Just(LinkType::Local),
        Just(LinkType::Global),
    ]
}

/// Strategy for arbitrary PREs of bounded depth.
fn pre(depth: u32) -> impl Strategy<Value = Pre> {
    let leaf = prop_oneof![Just(Pre::Empty), link_type().prop_map(Pre::sym),];
    leaf.prop_recursive(depth, 64, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Pre::seq(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Pre::alt(a, b)),
            inner.clone().prop_map(Pre::star),
            (inner, 1u32..5).prop_map(|(p, k)| Pre::bounded(p, k)),
        ]
    })
}

/// `p` again, node by node, sharing nothing with the original.
fn rebuilt(p: &Pre) -> Pre {
    use std::sync::Arc;
    let re = |p: &Pre| Arc::new(rebuilt(p));
    match p {
        Pre::Empty | Pre::Never | Pre::Sym(_) => p.clone(),
        Pre::Seq(a, b) => Pre::Seq(re(a), re(b)),
        Pre::Alt(a, b) => Pre::Alt(re(a), re(b)),
        Pre::Star(a) => Pre::Star(re(a)),
        Pre::Bounded(a, k) => Pre::Bounded(re(a), *k),
    }
}

fn path() -> impl Strategy<Value = Vec<LinkType>> {
    prop::collection::vec(link_type(), 0..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The derivative evaluator and the compiled DFA accept exactly the
    /// same paths.
    #[test]
    fn derivatives_agree_with_dfa(p in pre(4), w in path()) {
        let dfa = Dfa::compile(&p);
        prop_assert_eq!(p.accepts(&w), dfa.accepts(&w));
    }

    /// Printing and re-parsing a PRE preserves its language.
    #[test]
    fn display_parse_preserves_language(p in pre(4), w in path()) {
        let printed = p.to_string();
        // `Never` prints as `0`, which the grammar (rightly) rejects;
        // normalized expressions only contain `Never` at top level.
        prop_assume!(!p.is_never());
        let reparsed = parse(&printed)
            .unwrap_or_else(|e| panic!("cannot reparse {printed:?}: {e}"));
        prop_assert_eq!(p.accepts(&w), reparsed.accepts(&w));
    }

    /// nullable() is exactly acceptance of the zero-length path.
    #[test]
    fn nullable_is_empty_path_acceptance(p in pre(4)) {
        prop_assert_eq!(p.nullable(), p.accepts(&[]));
    }

    /// first() contains exactly the link types whose derivative is
    /// non-empty-language.
    #[test]
    fn first_matches_nonempty_derivatives(p in pre(4)) {
        for t in LinkType::TRAVERSABLE {
            let d = p.deriv(t);
            let lang_nonempty = !d.is_never()
                && (d.nullable() || !d.enumerate_paths(12).is_empty());
            if lang_nonempty {
                prop_assert!(
                    p.first().contains(t),
                    "deriv by {t} nonempty but {t} not in first({p})"
                );
            }
            if !p.first().contains(t) {
                // Conservative direction: absent from first ⇒ derivative
                // must have the empty language.
                prop_assert!(
                    !d.nullable() && d.enumerate_paths(12).is_empty(),
                    "{t} not in first({p}) but deriv accepts something"
                );
            }
        }
    }

    /// Smart constructors preserve language: seq/alt/star laws spot-check.
    #[test]
    fn constructor_laws(p in pre(3), w in path()) {
        // ε·p == p
        prop_assert_eq!(Pre::seq(Pre::Empty, p.clone()).accepts(&w), p.accepts(&w));
        // p|p == p
        prop_assert_eq!(Pre::alt(p.clone(), p.clone()).accepts(&w), p.accepts(&w));
        // p ⊆ p*
        if p.accepts(&w) {
            prop_assert!(Pre::star(p.clone()).accepts(&w));
        }
    }

    /// Subsumption soundness: whenever the checker says "drop the new
    /// clone", the new PRE's language really is contained in the logged one.
    #[test]
    fn subsumption_drop_is_sound(a in pre(3), m in 1u32..6, n in 1u32..6, tail in pre(2)) {
        let new = Pre::seq(Pre::bounded(a.clone(), m), tail.clone());
        let logged = Pre::seq(Pre::bounded(a.clone(), n), tail.clone());
        match check_subsumption(&new, &logged) {
            Subsumption::Identical | Subsumption::SubsumedByExisting => {
                prop_assert!(contains(&new, &logged),
                    "checker dropped {new} against {logged} but not contained");
            }
            Subsumption::SupersetOfExisting { rewritten } => {
                // The rewrite must stay within the original language and
                // must cover everything the logged entry did not.
                prop_assert!(contains(&rewritten, &new));
                // new = logged ∪ rewritten (as languages):
                // every path of new is in logged or in rewritten.
                for w in new.enumerate_paths(6) {
                    prop_assert!(
                        logged.accepts(&w) || rewritten.accepts(&w),
                        "path {w:?} of {new} lost by rewrite {rewritten} / log {logged}"
                    );
                }
            }
            Subsumption::Unrelated => {}
        }
    }

    /// Containment via DFA product agrees with brute-force path
    /// enumeration up to a length bound.
    #[test]
    fn containment_agrees_with_enumeration(a in pre(3), b in pre(3)) {
        let claimed = contains(&a, &b);
        if claimed {
            for w in a.enumerate_paths(5) {
                prop_assert!(b.accepts(&w), "claimed {a} ⊆ {b} but {w:?} missing");
            }
        } else {
            // The product automaton yields an exact minimal witness.
            let witness = counterexample(&a, &b)
                .unwrap_or_else(|| panic!("claimed {a} ⊄ {b} but no witness exists"));
            prop_assert!(a.accepts(&witness), "witness not accepted by {a}");
            prop_assert!(!b.accepts(&witness), "witness accepted by {b}");
        }
    }

    /// Derivative size stays bounded under long random walks: the smart
    /// constructors prevent blowup.
    #[test]
    fn derivative_walks_stay_small(p in pre(4), w in prop::collection::vec(link_type(), 0..40)) {
        let budget = 40 * (p.size() + 4) * (p.size() + 4);
        let mut cur = p;
        for t in w {
            cur = cur.deriv(t);
            if cur.is_never() {
                break;
            }
            prop_assert!(cur.size() <= budget, "size {} over budget {}", cur.size(), budget);
        }
    }

    /// Children are shared, identity is not: a PRE rebuilt from scratch
    /// equals the original, hashes alike and is the log table's
    /// `Identical` — and the derivative of a star, which hands back the
    /// star itself, is the derivative the textbook rule builds, also for
    /// a star no smart constructor would have made.
    #[test]
    fn sharing_changes_no_answer(p in pre(4), t in link_type()) {
        use std::hash::{BuildHasher, RandomState};
        let q = rebuilt(&p);
        prop_assert_eq!(&p, &q);
        let hasher = RandomState::new();
        prop_assert_eq!(hasher.hash_one(&p), hasher.hash_one(&q));
        prop_assert_eq!(check_subsumption(&p, &q), Subsumption::Identical);
        prop_assert_eq!(p.clone().deriv(t), q.deriv(t));
        let raw_star = Pre::Star(std::sync::Arc::new(p.clone()));
        prop_assert_eq!(raw_star.deriv(t), Pre::seq(p.deriv(t), Pre::star(p)));
    }
}
