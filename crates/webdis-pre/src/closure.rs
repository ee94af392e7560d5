//! A PRE's derivative closure, and language containment over it.
//!
//! [`Pre::alt`] flattens and deduplicates alternatives, so a PRE has
//! finitely many derivatives (Brzozowski 1964): the *closure* is every
//! remaining PRE a clone of the query can carry. [`parse`](crate::parse())
//! and the wire decoder compute it once and refuse a PRE whose closure
//! holds a state deeper than [`MAX_DEPTH`] or more than [`MAX_STATES`]
//! states, so every forward derived from a PRE that was let in can ship.
//!
//! Containment is a breadth-first search over pairs of derivatives:
//! `L(a) ⊆ L(b)` iff no pair `(a′, b′)` reachable by one path has `a′`
//! nullable and `b′` not. The pairs are finitely many for the same reason.

use std::collections::{HashSet, VecDeque};

use webdis_model::LinkType;

use crate::ast::Pre;
use crate::parse::{MAX_DEPTH, MAX_STATES};

/// The PREs reachable from `pre` by derivatives, `pre` first and then in
/// breadth-first order, ∅ left out. `Err` says why `pre` cannot ship: a
/// state deeper than [`MAX_DEPTH`], or more than [`MAX_STATES`] states.
pub fn closure(pre: &Pre) -> Result<Vec<Pre>, String> {
    let mut states = vec![pre.clone()];
    let mut next = 0;
    while let Some(state) = states.get(next) {
        if state.depth() > MAX_DEPTH {
            return Err(format!("a derivative deeper than {MAX_DEPTH} levels"));
        }
        // A few states as a rule: a linear search beats hashing them.
        for d in LinkType::TRAVERSABLE.map(|t| state.deriv(t)) {
            if !d.is_never() && !states.contains(&d) {
                states.push(d);
            }
        }
        if states.len() > MAX_STATES {
            return Err(format!("more than {MAX_STATES} derivative states"));
        }
        next += 1;
    }
    Ok(states)
}

/// Language containment: `L(sub) ⊆ L(sup)`.
pub fn contains(sub: &Pre, sup: &Pre) -> bool {
    let start = (sub.clone(), sup.clone());
    let mut seen = HashSet::from([start.clone()]);
    let mut queue = VecDeque::from([start]);
    while let Some((a, b)) = queue.pop_front() {
        if a.nullable() && !b.nullable() {
            return false;
        }
        // Identical states have identical futures.
        if a == b {
            continue;
        }
        for t in LinkType::TRAVERSABLE {
            let pair = (a.deriv(t), b.deriv(t));
            if !pair.0.is_never() && seen.insert(pair.clone()) {
                queue.push_back(pair);
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use webdis_model::LinkType::{Global as G, Local as L};

    fn pre(s: &str) -> Pre {
        parse(s).unwrap()
    }

    #[test]
    fn containment_bounded_repetition() {
        assert!(contains(&pre("L*1·G"), &pre("L*4·G")));
        assert!(!contains(&pre("L*4·G"), &pre("L*1·G")));
    }

    #[test]
    fn containment_star_superset_of_bounded() {
        assert!(contains(&pre("L*7"), &pre("L*")));
        assert!(!contains(&pre("L*"), &pre("L*7")));
    }

    #[test]
    fn containment_reflexive_and_with_alt() {
        let p = pre("G·(G|L)");
        assert!(contains(&p, &p));
        let sup = pre("G·(G|L|I)");
        assert!(contains(&p, &sup));
        assert!(!contains(&sup, &p));
        assert!(contains(&Pre::Never, &p));
        assert!(!contains(&Pre::Empty, &p));
    }

    #[test]
    fn containment_across_syntax() {
        // L·L* and L*·L are both "one or more L".
        let (a, b) = (pre("L·L*"), pre("L*·L"));
        assert!(contains(&a, &b) && contains(&b, &a));
        assert!(!contains(&pre("L*"), &a));
        assert!(contains(&pre("L·L·L*"), &a));
    }

    #[test]
    fn rewrite_stays_within_the_arrival() {
        // The multiple-rewrite A·A*(m-1)·B drops exactly the paths with no
        // A: here G.
        let (orig, rewritten) = (pre("L*4·G"), pre("L·L*3·G"));
        assert!(contains(&rewritten, &orig));
        assert!(orig.accepts(&[G]) && !rewritten.accepts(&[G]));
        assert!(!contains(&orig, &rewritten));
    }

    #[test]
    fn repeated_alternatives_close_the_closure() {
        // "Reached through at least one local link": each L used to stack
        // one more `|(L|G)*` on the clone's PRE.
        let states = closure(&pre("(L|G)*·L·(L|G)*")).unwrap();
        let printed: Vec<String> = states.iter().map(Pre::to_string).collect();
        assert_eq!(printed, ["(L|G)*·L·(L|G)*", "(L|G)*·L·(L|G)*|(L|G)*"]);
        assert_eq!(closure(&pre("(L|G)*")).unwrap(), [pre("(L|G)*")]);
        assert_eq!(closure(&pre("L*3")).unwrap().len(), 4);
    }

    #[test]
    fn too_deep_or_too_many_derivatives_are_refused() {
        // `P = (L|G)*·G*1·…·G*1` (n links) is n+1 levels deep; by `G` it
        // becomes `P|r|…`, one level deeper, and then stays there.
        let chain = |n: u32| {
            let links = (0..n).fold(Pre::Empty, |rest, _| {
                Pre::seq(Pre::bounded(Pre::sym(G), 1), rest)
            });
            Pre::seq(pre("(L|G)*"), links)
        };
        let fits = chain(MAX_DEPTH - 2);
        let states = closure(&fits).unwrap();
        assert_eq!(states.len(), 2);
        assert_eq!(states.iter().map(Pre::depth).max(), Some(MAX_DEPTH));
        let too_deep = chain(MAX_DEPTH - 1);
        assert_eq!(too_deep.depth(), MAX_DEPTH);
        let err = closure(&too_deep).unwrap_err();
        assert!(err.contains("deeper than 65 levels"), "{err}");

        // `L*k` has k+1 states: itself down to ε.
        let bounded = |k: usize| Pre::bounded(Pre::sym(L), k as u32);
        assert_eq!(closure(&bounded(MAX_STATES - 1)).unwrap().len(), MAX_STATES);
        let err = closure(&bounded(MAX_STATES)).unwrap_err();
        assert!(err.contains("more than"), "{err}");
        assert_eq!(closure(&Pre::Never).unwrap(), [Pre::Never]);
    }
}
