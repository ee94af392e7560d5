//! Property-based tests for the PRE engine: the derivative evaluator, the
//! derivative closure and the subsumption rules must agree with each
//! other and with the reference automaton (`reference/nfa.rs`), whose
//! shortest-witness containment search is the oracle of the log table's
//! drops and rewrites, on arbitrary expressions and paths.

use proptest::prelude::*;
use webdis_model::LinkType;
use webdis_pre::ast;
use webdis_pre::{check_subsumption, closure, parse, Pre, Subsumption, MAX_DEPTH, MAX_STATES};

#[allow(dead_code)]
mod reference;

use reference::enumerate_paths;
use reference::nfa::{counterexample, Dfa};

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

/// PREs from the paper, the experiments and the log-table tests, plus
/// shapes only containment relates (`L·L*` against `L*·L`).
const CORPUS: [&str; 27] = [
    "N",
    "L",
    "G",
    "I",
    "L*",
    "G*",
    "(L|G)*",
    "L·L*",
    "L*·L",
    "L·L·L*",
    "L*1·G",
    "L*4·G",
    "L*2",
    "G·(G|L)",
    "G·(G|L|I)",
    "N|G·L*4",
    "(G|L)*2·I",
    "(G·L)*",
    "(G·L)*2",
    "L*·G",
    "(L|G)*·L·(L|G)*",
    "G·L*1",
    "G·L*2",
    "(L|N)·G",
    "I·L·G",
    "(L*·G)*",
    "L·(G|L)*",
];

/// The log table's rule on every pair of real PREs: a drop only ever
/// drops a language the logged state covers, and a rewrite stays within
/// the arrival's language and, with the logged state, covers all of it.
#[test]
fn the_log_rule_is_sound_on_the_corpus() {
    let corpus: Vec<Pre> = CORPUS.iter().map(|s| parse(s).unwrap()).collect();
    let mut related = 0;
    for new in &corpus {
        for logged in &corpus {
            match check_subsumption(new, logged) {
                Subsumption::Identical | Subsumption::SubsumedByExisting => {
                    let witness = counterexample(new, logged);
                    assert_eq!(witness, None, "{new} dropped against {logged}");
                }
                Subsumption::SupersetOfExisting { rewritten } => {
                    let witness = counterexample(&rewritten, new);
                    assert_eq!(witness, None, "{new} rewritten to {rewritten}");
                    let both = Pre::alt(logged.clone(), rewritten.clone());
                    let lost = counterexample(new, &both);
                    assert_eq!(lost, None, "{new} lost by {rewritten} / log {logged}");
                }
                Subsumption::Unrelated => continue,
            }
            related += 1;
        }
    }
    // More than the diagonal: the rule relates bounded repetitions.
    assert!(related > corpus.len(), "{related}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The derivative evaluator and the reference DFA accept exactly the
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
        match parse(&printed) {
            Ok(reparsed) => prop_assert_eq!(p.accepts(&w), reparsed.accepts(&w)),
            // What parses must ship, every derivative included: the
            // only refusal a printed PRE may meet.
            Err(e) => prop_assert!(e.message.contains("derivative"), "cannot reparse {printed:?}: {e}"),
        }
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
                && (d.nullable() || !enumerate_paths(&d, 12).is_empty());
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
                    !d.nullable() && enumerate_paths(&d, 12).is_empty(),
                    "{t} not in first({p}) but deriv accepts something"
                );
            }
        }
    }

    /// Smart constructors preserve language: seq/alt/star laws spot-check.
    #[test]
    fn constructor_laws(p in pre(3), q in pre(3), w in path()) {
        // ε·p == p
        prop_assert_eq!(Pre::seq(Pre::Empty, p.clone()).accepts(&w), p.accepts(&w));
        // p|p == p, and p|q|p is p|q itself
        prop_assert_eq!(Pre::alt(p.clone(), p.clone()), p.clone());
        let pq = Pre::alt(p.clone(), q.clone());
        prop_assert_eq!(pq.accepts(&w), p.accepts(&w) || q.accepts(&w));
        prop_assert_eq!(Pre::alt(pq.clone(), p.clone()), pq.clone());
        prop_assert_eq!(Pre::alt(pq.clone(), pq.clone()), pq);
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
                let witness = counterexample(&new, &logged);
                prop_assert!(witness.is_none(),
                    "checker dropped {new} against {logged}, which misses {witness:?}");
            }
            Subsumption::SupersetOfExisting { rewritten } => {
                // The rewrite must stay within the original language and
                // must cover everything the logged entry did not.
                let witness = counterexample(&rewritten, &new);
                prop_assert!(witness.is_none(), "{rewritten} ⊄ {new}: {witness:?}");
                // new = logged ∪ rewritten (as languages):
                // every path of new is in logged or in rewritten.
                for w in enumerate_paths(&new, 6) {
                    prop_assert!(
                        logged.accepts(&w) || rewritten.accepts(&w),
                        "path {w:?} of {new} lost by rewrite {rewritten} / log {logged}"
                    );
                }
            }
            Subsumption::Unrelated => {}
        }
    }

    /// Every derivative reachable from a parsed PRE is one of its closure's
    /// states, so it is as shallow as the parser checked.
    #[test]
    fn derivatives_of_a_parsed_pre_stay_in_its_closure(
        p in pre(4),
        w in prop::collection::vec(link_type(), 0..24),
    ) {
        prop_assume!(!p.is_never());
        let Ok(parsed) = parse(&p.to_string()) else {
            return Err(TestCaseError::reject("refused by the parser"));
        };
        let states = closure(&parsed).unwrap();
        prop_assert!(states.len() <= MAX_STATES);
        let mut cur = parsed;
        for t in w {
            cur = cur.deriv(t);
            if cur.is_never() {
                break;
            }
            prop_assert!(states.contains(&cur), "{cur} missing from the closure");
            prop_assert!(cur.depth() <= MAX_DEPTH);
        }
    }

    /// The Section 3.1.1 rewrite `A·A*(m-1)·B` of a parsed `A*m·B` keeps
    /// its derivatives within the parser's bounds — and ordinary queries
    /// are never left unrewritten for it.
    #[test]
    fn the_superset_rewrite_stays_within_the_bounds(
        a in pre(3),
        b in pre(3),
        m in 2u32..6,
        n in 1u32..6,
    ) {
        prop_assume!(n < m);
        let text = |k: u32| format!("({a})*{k}·({b})");
        let (Ok(new), Ok(logged)) = (parse(&text(m)), parse(&text(n))) else {
            return Err(TestCaseError::reject("refused by the parser"));
        };
        // `(N)*m` is ε: then there is no repetition to compare.
        prop_assume!(new != logged);
        match check_subsumption(&new, &logged) {
            Subsumption::SupersetOfExisting { rewritten } => {
                let states = closure(&rewritten).unwrap();
                prop_assert!(states.len() <= MAX_STATES);
                prop_assert!(states.iter().all(|s| s.depth() <= MAX_DEPTH));
            }
            other => prop_assert!(false, "{new} against {logged}: {other:?}"),
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
