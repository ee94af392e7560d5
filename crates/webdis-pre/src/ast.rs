//! The PRE abstract syntax tree and the derivative operations on it.

use std::fmt;
use std::sync::Arc;

use webdis_model::LinkType;

/// A compact set of traversable link types, used for `first`-sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LinkSet(u8);

impl LinkSet {
    const BITS: [(LinkType, u8); 3] = [
        (LinkType::Interior, 0b001),
        (LinkType::Local, 0b010),
        (LinkType::Global, 0b100),
    ];

    /// The empty set.
    pub fn empty() -> LinkSet {
        LinkSet(0)
    }

    /// The set containing every traversable link type.
    pub fn all() -> LinkSet {
        LinkSet(0b111)
    }

    fn bit(t: LinkType) -> u8 {
        Self::BITS
            .iter()
            .find(|(lt, _)| *lt == t)
            .map(|(_, b)| *b)
            .unwrap_or(0) // Null contributes nothing to first-sets.
    }

    /// Inserts a link type (Null is ignored: it never labels an edge).
    pub fn insert(&mut self, t: LinkType) {
        self.0 |= Self::bit(t);
    }

    /// Membership test.
    pub fn contains(&self, t: LinkType) -> bool {
        let b = Self::bit(t);
        b != 0 && self.0 & b != 0
    }

    /// Union of two sets.
    pub fn union(self, other: LinkSet) -> LinkSet {
        LinkSet(self.0 | other.0)
    }

    /// True when no link type is present.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Number of link types present.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterates over the members in I, L, G order.
    pub fn iter(&self) -> impl Iterator<Item = LinkType> + '_ {
        Self::BITS
            .iter()
            .filter(move |(_, b)| self.0 & b != 0)
            .map(|(t, _)| *t)
    }
}

impl FromIterator<LinkType> for LinkSet {
    fn from_iter<I: IntoIterator<Item = LinkType>>(iter: I) -> Self {
        let mut s = LinkSet::empty();
        for t in iter {
            s.insert(t);
        }
        s
    }
}

/// A Path Regular Expression over the link alphabet.
///
/// `Empty` is the regular-expression ε — the paper's *null link* `N`.
/// `Never` (∅) cannot be written in the concrete syntax; it arises from
/// derivatives of expressions that cannot start with the given link type
/// and denotes "no path matches".
///
/// Values are kept lightly normalized by the smart constructors
/// ([`Pre::seq`], [`Pre::alt`], [`Pre::star`], [`Pre::bounded`]):
/// no `Never` subterms except the top level, no `Empty` operands in
/// sequences, alternations flattened into right-nested chains without
/// duplicates, `p*0` collapsed to ε. This keeps the derivatives of a PRE
/// finitely many and makes syntactic equality (`==`) usable as the log
/// table's "completely identical" test. Children are shared
/// (`Arc`), so cloning a PRE copies no subtree; equality, hash and
/// order stay structural.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Pre {
    /// ε / `N` — matches exactly the zero-length path.
    Empty,
    /// ∅ — matches nothing.
    Never,
    /// A single link symbol `I`, `L` or `G`.
    Sym(LinkType),
    /// Concatenation `p · q`.
    Seq(Arc<Pre>, Arc<Pre>),
    /// Alternation `p | q`.
    Alt(Arc<Pre>, Arc<Pre>),
    /// Unbounded repetition `p*` (zero or more).
    Star(Arc<Pre>),
    /// Bounded repetition `p*k` (zero up to `k` repetitions, per the
    /// paper's "`L*4`: zero or more local links upto a maximum of four").
    Bounded(Arc<Pre>, u32),
}

impl Pre {
    /// A single link symbol. `LinkType::Null` maps to ε.
    pub fn sym(t: LinkType) -> Pre {
        if t == LinkType::Null {
            Pre::Empty
        } else {
            Pre::Sym(t)
        }
    }

    /// Smart concatenation: `∅·p = p·∅ = ∅`, `ε·p = p·ε = p`.
    pub fn seq(a: Pre, b: Pre) -> Pre {
        match (a, b) {
            (Pre::Never, _) | (_, Pre::Never) => Pre::Never,
            (Pre::Empty, p) | (p, Pre::Empty) => p,
            (a, b) => Pre::Seq(Arc::new(a), Arc::new(b)),
        }
    }

    /// Smart alternation: `∅|p = p`, `p|p = p`, ε absorbed into an
    /// already-nullable alternative, and otherwise the alternatives of
    /// both sides flattened into one right-nested chain, ∅ dropped and
    /// each duplicate kept where it first occurs. Alternatives equal up to
    /// associativity and idempotence are then equal, so a PRE has finitely
    /// many derivatives (Brzozowski 1964) — see [`closure`](crate::closure()).
    /// The chain is not sorted: `G|L` still prints as written.
    pub fn alt(a: Pre, b: Pre) -> Pre {
        match (a, b) {
            (Pre::Never, p) | (p, Pre::Never) => p,
            (Pre::Empty, p) | (p, Pre::Empty) if p.nullable() => p,
            (a, b) if a == b => a,
            (a @ Pre::Alt(..), b) | (a, b @ Pre::Alt(..)) => {
                // Each side was built here, so its alternatives are
                // already distinct: only `b`'s are checked against `a`'s.
                let mut alts = Vec::new();
                a.for_each_alternative(&mut |p| alts.push(p.clone()));
                let from_a = alts.len();
                b.for_each_alternative(&mut |p| {
                    if !alts[..from_a].contains(p) {
                        alts.push(p.clone());
                    }
                });
                let alt = |rest, p| Pre::Alt(Arc::new(p), Arc::new(rest));
                let last = alts.pop().unwrap_or(Pre::Never);
                alts.into_iter().rev().fold(last, alt)
            }
            (a, b) => Pre::Alt(Arc::new(a), Arc::new(b)),
        }
    }

    /// Calls `f` on each alternative of this PRE, in order, ∅ left out.
    fn for_each_alternative(&self, f: &mut impl FnMut(&Pre)) {
        match self {
            Pre::Alt(a, b) => {
                a.for_each_alternative(f);
                b.for_each_alternative(f);
            }
            Pre::Never => {}
            p => f(p),
        }
    }

    /// Smart Kleene star: `ε* = ε`, `∅* = ε`, `(p*)* = p*`.
    pub fn star(p: Pre) -> Pre {
        match p {
            Pre::Empty | Pre::Never => Pre::Empty,
            s @ Pre::Star(_) => s,
            p => Pre::Star(Arc::new(p)),
        }
    }

    /// Smart bounded repetition: `p*0 = ε`, `ε*k = ε`, `∅*k = ε`.
    pub fn bounded(p: Pre, k: u32) -> Pre {
        match (p, k) {
            (_, 0) | (Pre::Empty, _) | (Pre::Never, _) => Pre::Empty,
            (p, k) => Pre::Bounded(Arc::new(p), k),
        }
    }

    /// True when the PRE matches the zero-length path — the paper's "the
    /// PRE contains the null link", which triggers node-query evaluation at
    /// the current node.
    pub fn nullable(&self) -> bool {
        match self {
            Pre::Empty => true,
            Pre::Never => false,
            Pre::Sym(_) => false,
            Pre::Seq(a, b) => a.nullable() && b.nullable(),
            Pre::Alt(a, b) => a.nullable() || b.nullable(),
            Pre::Star(_) => true,
            Pre::Bounded(_, _) => true, // k >= 1 by construction; 0..k includes 0
        }
    }

    /// The set of link types that can begin a non-empty matching path —
    /// the link types the query server must follow when forwarding.
    pub fn first(&self) -> LinkSet {
        match self {
            Pre::Empty | Pre::Never => LinkSet::empty(),
            Pre::Sym(t) => [*t].into_iter().collect(),
            Pre::Seq(a, b) => {
                let mut s = a.first();
                if a.nullable() {
                    s = s.union(b.first());
                }
                s
            }
            Pre::Alt(a, b) => a.first().union(b.first()),
            Pre::Star(p) | Pre::Bounded(p, _) => p.first(),
        }
    }

    /// The Brzozowski derivative: the PRE matching the remainders of paths
    /// that start with a link of type `t`. This is exactly the paper's
    /// "modify the PRE information carried by the clone to reflect the
    /// traversal of the query to the NextNode" (Section 2.5, step 4).
    pub fn deriv(&self, t: LinkType) -> Pre {
        match self {
            Pre::Empty | Pre::Never => Pre::Never,
            Pre::Sym(s) => {
                if *s == t {
                    Pre::Empty
                } else {
                    Pre::Never
                }
            }
            Pre::Seq(a, b) => {
                let left = Pre::seq(a.deriv(t), (**b).clone());
                if a.nullable() {
                    Pre::alt(left, b.deriv(t))
                } else {
                    left
                }
            }
            Pre::Alt(a, b) => Pre::alt(a.deriv(t), b.deriv(t)),
            // `self` is `star(p)` already, unless it was built (decoded)
            // un-normalized.
            Pre::Star(p) if !matches!(**p, Pre::Empty | Pre::Never | Pre::Star(_)) => {
                Pre::seq(p.deriv(t), self.clone())
            }
            Pre::Star(p) => Pre::seq(p.deriv(t), Pre::star((**p).clone())),
            Pre::Bounded(p, k) => {
                // d(p*k) = d(p) · p*(k-1)
                Pre::seq(p.deriv(t), Pre::bounded((**p).clone(), k - 1))
            }
        }
    }

    /// True when the PRE matches no path at all (is ∅). With the smart
    /// constructors this is just a top-level check.
    pub fn is_never(&self) -> bool {
        matches!(self, Pre::Never)
    }

    /// Does this PRE accept the given path (sequence of link types)?
    /// Linear in path length via derivatives; the engine never asks (it
    /// follows one link at a time), so this is the tests' path oracle.
    pub fn accepts(&self, path: &[LinkType]) -> bool {
        let mut cur = self.clone();
        for &t in path {
            cur = cur.deriv(t);
            if cur.is_never() {
                return false;
            }
        }
        cur.nullable()
    }

    /// A size measure (number of AST nodes), used to bound derivative growth
    /// in tests and to meter wire size.
    pub fn size(&self) -> usize {
        match self {
            Pre::Empty | Pre::Never | Pre::Sym(_) => 1,
            Pre::Seq(a, b) | Pre::Alt(a, b) => 1 + a.size() + b.size(),
            Pre::Star(p) | Pre::Bounded(p, _) => 1 + p.size(),
        }
    }

    /// Levels below the root: 0 for ε, ∅ and a symbol. The wire decoder
    /// refuses a PRE deeper than [`MAX_DEPTH`](crate::MAX_DEPTH), and so
    /// does [`parse`](crate::parse()), which asks this of every node it
    /// builds — so the recursion here never goes deeper than that.
    pub fn depth(&self) -> u32 {
        match self {
            Pre::Empty | Pre::Never | Pre::Sym(_) => 0,
            Pre::Seq(a, b) | Pre::Alt(a, b) => 1 + a.depth().max(b.depth()),
            Pre::Star(p) | Pre::Bounded(p, _) => 1 + p.depth(),
        }
    }
}

/// Operator precedence levels for printing: Alt < Seq < postfix star.
fn prec(p: &Pre) -> u8 {
    match p {
        Pre::Alt(_, _) => 0,
        Pre::Seq(_, _) => 1,
        _ => 2,
    }
}

fn fmt_prec(p: &Pre, min: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let needs_parens = prec(p) < min;
    if needs_parens {
        f.write_str("(")?;
    }
    match p {
        Pre::Empty => f.write_str("N")?,
        Pre::Never => f.write_str("0")?,
        Pre::Sym(t) => f.write_str(t.symbol())?,
        Pre::Seq(a, b) => {
            fmt_prec(a, 1, f)?;
            f.write_str("·")?;
            fmt_prec(b, 1, f)?;
        }
        Pre::Alt(a, b) => {
            fmt_prec(a, 0, f)?;
            f.write_str("|")?;
            fmt_prec(b, 0, f)?;
        }
        Pre::Star(inner) => {
            fmt_prec(inner, 2, f)?;
            f.write_str("*")?;
        }
        Pre::Bounded(inner, k) => {
            fmt_prec(inner, 2, f)?;
            write!(f, "*{k}")?;
        }
    }
    if needs_parens {
        f.write_str(")")?;
    }
    Ok(())
}

impl fmt::Display for Pre {
    /// Prints in the paper's concrete syntax; `Never` (unwritable in the
    /// grammar) prints as `0`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_prec(self, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LinkType::{Global as G, Interior as I, Local as L};

    fn sym(t: LinkType) -> Pre {
        Pre::sym(t)
    }

    #[test]
    fn linkset_basics() {
        let mut s = LinkSet::empty();
        assert!(s.is_empty());
        s.insert(L);
        s.insert(G);
        assert_eq!(s.len(), 2);
        assert!(s.contains(L) && s.contains(G) && !s.contains(I));
        assert!(!s.contains(LinkType::Null));
        s.insert(LinkType::Null); // ignored
        assert_eq!(s.len(), 2);
        let members: Vec<_> = s.iter().collect();
        assert_eq!(members, vec![L, G]);
    }

    #[test]
    fn smart_constructors_normalize() {
        assert_eq!(Pre::seq(Pre::Empty, sym(L)), sym(L));
        assert_eq!(Pre::seq(sym(L), Pre::Empty), sym(L));
        assert_eq!(Pre::seq(Pre::Never, sym(L)), Pre::Never);
        assert_eq!(Pre::alt(Pre::Never, sym(L)), sym(L));
        assert_eq!(Pre::alt(sym(L), sym(L)), sym(L));
        assert_eq!(Pre::star(Pre::Empty), Pre::Empty);
        assert_eq!(Pre::star(Pre::star(sym(L))), Pre::star(sym(L)));
        assert_eq!(Pre::bounded(sym(L), 0), Pre::Empty);
        assert_eq!(Pre::sym(LinkType::Null), Pre::Empty);
    }

    #[test]
    fn alt_flattens_and_keeps_first_occurrences() {
        let lg = Pre::alt(sym(L), sym(G));
        assert_eq!(Pre::alt(lg.clone(), sym(L)), lg);
        assert_eq!(Pre::alt(sym(L), Pre::alt(sym(G), sym(L))), lg);
        assert_eq!(Pre::alt(lg.clone(), lg.clone()), lg);
        // One right-nested chain, in first-occurrence order, whichever way
        // the operands were grouped.
        let lgi = Pre::alt(lg.clone(), sym(I));
        assert_eq!(lgi, Pre::alt(sym(L), Pre::alt(sym(G), sym(I))));
        assert!(matches!(&lgi, Pre::Alt(a, _) if **a == sym(L)));
        assert_eq!(lgi.to_string(), "L|G|I");
        assert_eq!(Pre::alt(sym(G), sym(L)).to_string(), "G|L");
        // ∅ inside an un-normalized (decoded) alternation is dropped.
        let raw = Pre::Alt(Arc::new(Pre::Never), Arc::new(sym(L)));
        assert_eq!(Pre::alt(raw, sym(G)), Pre::alt(sym(L), sym(G)));
    }

    #[test]
    fn alt_absorbs_epsilon_into_nullable() {
        // N | L* == L*
        assert_eq!(Pre::alt(Pre::Empty, Pre::star(sym(L))), Pre::star(sym(L)));
        // N | L stays as-is (L is not nullable).
        let p = Pre::alt(Pre::Empty, sym(L));
        assert!(p.nullable());
        assert!(matches!(p, Pre::Alt(_, _)));
    }

    #[test]
    fn nullable_cases() {
        assert!(Pre::Empty.nullable());
        assert!(!Pre::Never.nullable());
        assert!(!sym(L).nullable());
        assert!(Pre::star(sym(G)).nullable());
        assert!(Pre::bounded(sym(L), 4).nullable());
        assert!(!Pre::seq(sym(G), Pre::star(sym(L))).nullable());
        assert!(Pre::alt(Pre::Empty, sym(G)).nullable());
    }

    #[test]
    fn first_sets() {
        // N | G·(L*4): first = {G}
        let p = Pre::alt(Pre::Empty, Pre::seq(sym(G), Pre::bounded(sym(L), 4)));
        let fs = p.first();
        assert!(fs.contains(G) && !fs.contains(L));
        // L*·G : first = {L, G} since L* is nullable
        let p = Pre::seq(Pre::star(sym(L)), sym(G));
        let fs = p.first();
        assert!(fs.contains(L) && fs.contains(G));
    }

    #[test]
    fn deriv_symbol() {
        assert_eq!(sym(L).deriv(L), Pre::Empty);
        assert_eq!(sym(L).deriv(G), Pre::Never);
        assert_eq!(Pre::Empty.deriv(L), Pre::Never);
    }

    #[test]
    fn deriv_seq_through_nullable_head() {
        // (L*)·G deriv by G must reach Empty via the nullable head.
        let p = Pre::seq(Pre::star(sym(L)), sym(G));
        assert_eq!(p.deriv(G), Pre::Empty);
        // deriv by L keeps the whole expression.
        assert_eq!(p.deriv(L), p);
    }

    #[test]
    fn deriv_bounded_counts_down() {
        let p = Pre::bounded(sym(L), 4);
        let d = p.deriv(L);
        assert_eq!(d, Pre::bounded(sym(L), 3));
        let d3 = d.deriv(L).deriv(L).deriv(L);
        assert_eq!(d3, Pre::Empty);
        assert_eq!(d3.deriv(L), Pre::Never);
    }

    #[test]
    fn accepts_paper_example() {
        // N | G·(L*4) accepts ε, G, GL, GLL, GLLL, GLLLL but not L or GLLLLL.
        let p = Pre::alt(Pre::Empty, Pre::seq(sym(G), Pre::bounded(sym(L), 4)));
        assert!(p.accepts(&[]));
        assert!(p.accepts(&[G]));
        assert!(p.accepts(&[G, L, L, L, L]));
        assert!(!p.accepts(&[L]));
        assert!(!p.accepts(&[G, L, L, L, L, L]));
        assert!(!p.accepts(&[G, G]));
    }

    #[test]
    fn display_round_trip_shapes() {
        let p = Pre::alt(Pre::Empty, Pre::seq(sym(G), Pre::bounded(sym(L), 4)));
        assert_eq!(p.to_string(), "N|G·L*4");
        let p = Pre::seq(Pre::alt(sym(G), sym(L)), sym(I));
        assert_eq!(p.to_string(), "(G|L)·I");
        let p = Pre::star(Pre::alt(sym(G), sym(L)));
        assert_eq!(p.to_string(), "(G|L)*");
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(sym(L).size(), 1);
        assert_eq!(Pre::seq(sym(L), sym(G)).size(), 3);
    }

    #[test]
    fn derivative_size_stays_bounded() {
        // Repeated derivatives of a starred expression must not blow up.
        let p = Pre::star(Pre::seq(Pre::alt(sym(G), sym(L)), Pre::bounded(sym(L), 3)));
        let mut cur = p.clone();
        for i in 0..50 {
            cur = cur.deriv(if i % 2 == 0 {
                LinkType::Local
            } else {
                LinkType::Global
            });
            if cur.is_never() {
                break;
            }
            assert!(cur.size() < 100, "derivative blew up: {}", cur.size());
        }
    }
}
