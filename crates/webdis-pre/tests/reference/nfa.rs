//! NFA/DFA compilation of PREs and language containment.
//!
//! The engine's hot path uses Brzozowski derivatives directly on the AST;
//! the automaton exists for two purposes:
//!
//! * the *generalized* log-table equivalence extension (`contains(new, old)`
//!   drops a clone whenever its language is a subset of an already-processed
//!   one, not only for the paper's `A*m·B` shape);
//! * a test oracle: derivatives and the DFA must agree on every path.
//!
//! Construction is classic: Thompson NFA → subset-construction DFA over the
//! three-letter alphabet `{I, L, G}`, containment via product traversal.

use std::collections::{BTreeSet, HashMap, VecDeque};

use webdis_model::LinkType;

use crate::ast::Pre;

const ALPHABET: [LinkType; 3] = LinkType::TRAVERSABLE;

fn sym_index(t: LinkType) -> usize {
    match t {
        LinkType::Interior => 0,
        LinkType::Local => 1,
        LinkType::Global => 2,
        LinkType::Null => unreachable!("null link never labels an automaton edge"),
    }
}

/// A Thompson-style NFA with ε-transitions.
#[derive(Debug, Clone)]
pub struct Nfa {
    /// `transitions[s]` is the list of `(label, target)` edges out of `s`;
    /// `None` labels an ε-edge.
    transitions: Vec<Vec<(Option<LinkType>, usize)>>,
    start: usize,
    accept: usize,
}

impl Nfa {
    /// Compiles a PRE into an NFA. Bounded repetition `p*k` is unrolled
    /// into `k` optional copies; PRE bounds in real queries are small.
    pub fn compile(pre: &Pre) -> Nfa {
        let mut builder = Builder {
            transitions: Vec::new(),
        };
        let (start, accept) = builder.build(pre);
        Nfa {
            transitions: builder.transitions,
            start,
            accept,
        }
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.transitions.len()
    }

    fn eps_closure(&self, set: &BTreeSet<usize>) -> BTreeSet<usize> {
        let mut out = set.clone();
        let mut stack: Vec<usize> = set.iter().copied().collect();
        while let Some(s) = stack.pop() {
            for &(label, target) in &self.transitions[s] {
                if label.is_none() && out.insert(target) {
                    stack.push(target);
                }
            }
        }
        out
    }

    fn step(&self, set: &BTreeSet<usize>, t: LinkType) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        for &s in set {
            for &(label, target) in &self.transitions[s] {
                if label == Some(t) {
                    out.insert(target);
                }
            }
        }
        self.eps_closure(&out)
    }
}

struct Builder {
    transitions: Vec<Vec<(Option<LinkType>, usize)>>,
}

impl Builder {
    fn new_state(&mut self) -> usize {
        self.transitions.push(Vec::new());
        self.transitions.len() - 1
    }

    fn edge(&mut self, from: usize, label: Option<LinkType>, to: usize) {
        self.transitions[from].push((label, to));
    }

    /// Returns `(start, accept)` for the fragment.
    fn build(&mut self, pre: &Pre) -> (usize, usize) {
        match pre {
            Pre::Empty => {
                let s = self.new_state();
                let a = self.new_state();
                self.edge(s, None, a);
                (s, a)
            }
            Pre::Never => {
                let s = self.new_state();
                let a = self.new_state();
                // No edge: nothing is accepted.
                (s, a)
            }
            Pre::Sym(t) => {
                let s = self.new_state();
                let a = self.new_state();
                self.edge(s, Some(*t), a);
                (s, a)
            }
            Pre::Seq(p, q) => {
                let (ps, pa) = self.build(p);
                let (qs, qa) = self.build(q);
                self.edge(pa, None, qs);
                (ps, qa)
            }
            Pre::Alt(p, q) => {
                let s = self.new_state();
                let a = self.new_state();
                let (ps, pa) = self.build(p);
                let (qs, qa) = self.build(q);
                self.edge(s, None, ps);
                self.edge(s, None, qs);
                self.edge(pa, None, a);
                self.edge(qa, None, a);
                (s, a)
            }
            Pre::Star(p) => {
                let s = self.new_state();
                let a = self.new_state();
                let (ps, pa) = self.build(p);
                self.edge(s, None, ps);
                self.edge(s, None, a);
                self.edge(pa, None, ps);
                self.edge(pa, None, a);
                (s, a)
            }
            Pre::Bounded(p, k) => {
                // k optional copies in sequence; from each junction we may
                // skip straight to the end.
                let s = self.new_state();
                let a = self.new_state();
                let mut cur = s;
                for _ in 0..*k {
                    self.edge(cur, None, a);
                    let (ps, pa) = self.build(p);
                    self.edge(cur, None, ps);
                    cur = pa;
                }
                self.edge(cur, None, a);
                (s, a)
            }
        }
    }
}

/// A complete DFA over `{I, L, G}` produced by subset construction. State 0
/// is the start state; every state has all three outgoing transitions (a
/// sink state absorbs dead paths).
#[derive(Debug, Clone)]
pub struct Dfa {
    /// `next[s][sym_index]` — successor state.
    next: Vec<[usize; 3]>,
    accepting: Vec<bool>,
}

impl Dfa {
    /// Determinizes an NFA.
    pub fn from_nfa(nfa: &Nfa) -> Dfa {
        let mut states: Vec<BTreeSet<usize>> = Vec::new();
        let mut index: HashMap<BTreeSet<usize>, usize> = HashMap::new();
        let mut next: Vec<[usize; 3]> = Vec::new();
        let mut accepting: Vec<bool> = Vec::new();
        let mut queue = VecDeque::new();

        let start = nfa.eps_closure(&BTreeSet::from([nfa.start]));
        index.insert(start.clone(), 0);
        states.push(start);
        queue.push_back(0usize);

        while let Some(i) = queue.pop_front() {
            let set = states[i].clone();
            accepting.resize(states.len(), false);
            next.resize(states.len(), [usize::MAX; 3]);
            accepting[i] = set.contains(&nfa.accept);
            let mut row = [usize::MAX; 3];
            for t in ALPHABET {
                let succ = nfa.step(&set, t);
                let j = *index.entry(succ.clone()).or_insert_with(|| {
                    states.push(succ);
                    queue.push_back(states.len() - 1);
                    states.len() - 1
                });
                row[sym_index(t)] = j;
            }
            next[i] = row;
        }
        accepting.resize(states.len(), false);
        next.resize(states.len(), [usize::MAX; 3]);
        // Mark acceptance for any states appended after the loop drained
        // (cannot happen — the queue processes all — but keep the resize
        // symmetric for safety).
        for (i, set) in states.iter().enumerate() {
            if set.contains(&nfa.accept) {
                accepting[i] = true;
            }
        }
        Dfa { next, accepting }
    }

    /// Compiles a PRE straight to a DFA.
    pub fn compile(pre: &Pre) -> Dfa {
        Dfa::from_nfa(&Nfa::compile(pre))
    }

    /// Number of DFA states.
    pub fn state_count(&self) -> usize {
        self.next.len()
    }

    /// Does the DFA accept this path?
    pub fn accepts(&self, path: &[LinkType]) -> bool {
        let mut s = 0usize;
        for &t in path {
            s = self.next[s][sym_index(t)];
        }
        self.accepting[s]
    }
}

/// Language containment: `L(sub) ⊆ L(sup)`.
///
/// Product traversal of the two DFAs; containment fails iff some reachable
/// product state accepts in `sub` but not in `sup`.
pub fn contains(sub: &Pre, sup: &Pre) -> bool {
    counterexample(sub, sup).is_none()
}

/// A shortest path accepted by `sub` but not by `sup`, or `None` when
/// `L(sub) ⊆ L(sup)`. BFS over the product automaton, so the witness is
/// minimal — used by tests as the exact oracle for [`contains`].
pub fn counterexample(sub: &Pre, sup: &Pre) -> Option<Vec<LinkType>> {
    let a = Dfa::compile(sub);
    let b = Dfa::compile(sup);
    let nb = b.state_count();
    let key = |sa: usize, sb: usize| sa * nb + sb;
    // parent[k] = (previous product key, symbol index taken).
    let mut parent: Vec<Option<(usize, u8)>> = vec![None; a.state_count() * nb];
    let mut seen = vec![false; a.state_count() * nb];
    let mut queue = VecDeque::from([(0usize, 0usize)]);
    seen[0] = true;
    while let Some((sa, sb)) = queue.pop_front() {
        if a.accepting[sa] && !b.accepting[sb] {
            // Reconstruct the path.
            let mut path = Vec::new();
            let mut k = key(sa, sb);
            while let Some((prev, sym)) = parent[k] {
                path.push(ALPHABET[sym as usize]);
                k = prev;
            }
            path.reverse();
            return Some(path);
        }
        for sym in 0..3u8 {
            let na = a.next[sa][sym as usize];
            let nbs = b.next[sb][sym as usize];
            let k = key(na, nbs);
            if !seen[k] {
                seen[k] = true;
                parent[k] = Some((key(sa, sb), sym));
                queue.push_back((na, nbs));
            }
        }
    }
    None
}

/// Language equivalence: `L(a) == L(b)`.
pub fn equivalent(a: &Pre, b: &Pre) -> bool {
    contains(a, b) && contains(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use webdis_model::LinkType::{Global as G, Local as L};

    #[test]
    fn dfa_agrees_with_derivatives_on_samples() {
        for src in ["N|G·L*4", "L*", "G·(G|L)", "(G|L)*2·I", "L*3·G", "(G·L)*"] {
            let pre = parse(src).unwrap();
            let dfa = Dfa::compile(&pre);
            for path in super::super::enumerate_paths(&pre, 5) {
                assert!(dfa.accepts(&path), "{src} should accept {path:?}");
            }
            // And some arbitrary paths must agree in both directions.
            for path in [
                vec![],
                vec![L],
                vec![G],
                vec![G, L],
                vec![L, L, G],
                vec![G, G, G, G],
                vec![L, L, L, L, L],
            ] {
                assert_eq!(
                    pre.accepts(&path),
                    dfa.accepts(&path),
                    "{src} disagrees on {path:?}"
                );
            }
        }
    }

    #[test]
    fn never_accepts_nothing() {
        let dfa = Dfa::compile(&Pre::Never);
        assert!(!dfa.accepts(&[]));
        assert!(!dfa.accepts(&[L]));
    }

    #[test]
    fn containment_bounded_repetition() {
        let small = parse("L*1·G").unwrap();
        let big = parse("L*4·G").unwrap();
        assert!(contains(&small, &big));
        assert!(!contains(&big, &small));
    }

    #[test]
    fn containment_star_superset_of_bounded() {
        let bounded = parse("L*7").unwrap();
        let star = parse("L*").unwrap();
        assert!(contains(&bounded, &star));
        assert!(!contains(&star, &bounded));
    }

    #[test]
    fn containment_reflexive_and_with_alt() {
        let p = parse("G·(G|L)").unwrap();
        assert!(contains(&p, &p));
        let sup = parse("G·(G|L|I)").unwrap();
        assert!(contains(&p, &sup));
        assert!(!contains(&sup, &p));
    }

    #[test]
    fn equivalence_of_different_syntax() {
        // L·L*  ==  L*·L (both: one or more L)
        let a = parse("L·L*").unwrap();
        let b = parse("L*·L").unwrap();
        assert!(equivalent(&a, &b));
        assert!(!equivalent(&a, &parse("L*").unwrap()));
    }

    #[test]
    fn rewrite_preserves_difference_language() {
        // The multiple-rewrite A·A*(m-1)·B must equal exactly the paths of
        // A*m·B of length >= 1 in A-repetitions.
        let orig = parse("L*4·G").unwrap();
        let rewritten = parse("L·L*3·G").unwrap();
        assert!(contains(&rewritten, &orig));
        // The only dropped path is the 0-repetition one: G.
        assert!(orig.accepts(&[G]));
        assert!(!rewritten.accepts(&[G]));
    }

    #[test]
    fn dfa_is_small_for_typical_pres() {
        let pre = parse("N|G·L*4").unwrap();
        let dfa = Dfa::compile(&pre);
        assert!(dfa.state_count() <= 10, "got {}", dfa.state_count());
    }
}
