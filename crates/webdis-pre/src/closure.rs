//! A PRE's derivative closure.
//!
//! [`Pre::alt`] flattens and deduplicates alternatives, so a PRE has
//! finitely many derivatives (Brzozowski 1964): the *closure* is every
//! remaining PRE a clone of the query can carry. [`parse`](crate::parse())
//! and the wire decoder compute it once and refuse a PRE whose closure
//! holds a state deeper than [`MAX_DEPTH`] or more than [`MAX_STATES`]
//! states, so every forward derived from a PRE that was let in can ship.
//!
//! The product decides no language containment: the log table's rule
//! ([`check_subsumption`](crate::check_subsumption)) is syntactic.

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use webdis_model::LinkType::{Global as G, Local as L};

    fn pre(s: &str) -> Pre {
        parse(s).unwrap()
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
