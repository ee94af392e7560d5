//! URL property tests: parse/display round-trips, normalization
//! idempotence, and the RFC-1808 resolution laws the link classifier
//! depends on.

use proptest::prelude::*;
use webdis_model::{LinkType, Url};

fn host() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9]{0,8}(\\.[a-z]{2,4}){1,2}"
}

fn path_segment() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9_~.-]{1,8}".prop_filter("no dot-only segments", |s| s != "." && s != "..")
}

fn url() -> impl Strategy<Value = Url> {
    (
        host(),
        prop_oneof![Just(80u16), 1u16..9999],
        prop::collection::vec(path_segment(), 0..4),
        any::<bool>(),
    )
        .prop_map(|(h, port, segs, trailing)| {
            let mut path = String::from("/");
            path.push_str(&segs.join("/"));
            if trailing && !segs.is_empty() {
                path.push('/');
            }
            Url::from_parts(&h, port, &path)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Display → parse is the identity.
    #[test]
    fn display_parse_round_trip(u in url()) {
        let reparsed = Url::parse(&u.to_string())
            .unwrap_or_else(|e| panic!("own display must parse: {e}"));
        prop_assert_eq!(reparsed, u);
    }

    /// Parsing is idempotent through normalization: parse(display(parse(s)))
    /// == parse(s) for any parseable input.
    #[test]
    fn normalization_is_idempotent(s in "[ -~]{1,60}") {
        if let Ok(u) = Url::parse(&s) {
            let again = Url::parse(&u.to_string()).unwrap();
            prop_assert_eq!(again, u);
        }
    }

    /// Parser totality: arbitrary strings never panic.
    #[test]
    fn parse_is_total(s in ".{0,200}") {
        let _ = Url::parse(&s);
    }

    /// Resolution totality and closure: resolving any reference against
    /// any base yields either an error or a URL whose display re-parses.
    #[test]
    fn resolve_is_total_and_closed(base in url(), reference in "[ -~]{0,60}") {
        if let Ok(r) = base.resolve(&reference) {
            prop_assert_eq!(Url::parse(&r.to_string()).unwrap(), r);
        }
    }

    /// Self-resolution laws: the empty reference and a pure fragment keep
    /// the document; an absolute path keeps the site.
    #[test]
    fn resolution_laws(base in url(), seg in path_segment(), frag in "[a-z]{1,6}") {
        prop_assert_eq!(base.resolve("").unwrap(), base.clone());
        let f = base.resolve(&format!("#{frag}")).unwrap();
        prop_assert!(f.same_document(&base));
        prop_assert_eq!(f.fragment(), Some(frag.as_str()));
        let abs = base.resolve(&format!("/{seg}")).unwrap();
        prop_assert!(abs.same_site(&base));
        let expected = format!("/{seg}");
        prop_assert_eq!(abs.path(), expected.as_str());
        // Relative resolution stays on the site too.
        let rel = base.resolve(&seg).unwrap();
        prop_assert!(rel.same_site(&base));
    }

    /// Link classification trichotomy: every pair of URLs is exactly one
    /// of interior / local / global, and classification is symmetric for
    /// the interior and local cases.
    #[test]
    fn classification_trichotomy(a in url(), b in url()) {
        let ab = LinkType::classify(&a, &b);
        let ba = LinkType::classify(&b, &a);
        match ab {
            LinkType::Interior => {
                prop_assert!(a.same_document(&b));
                prop_assert_eq!(ba, LinkType::Interior);
            }
            LinkType::Local => {
                prop_assert!(a.same_site(&b) && !a.same_document(&b));
                prop_assert_eq!(ba, LinkType::Local);
            }
            LinkType::Global => {
                prop_assert!(!a.same_site(&b));
                prop_assert_eq!(ba, LinkType::Global);
            }
            LinkType::Null => prop_assert!(false, "classify never yields Null"),
        }
    }

    /// `without_fragment` is idempotent and preserves document identity.
    #[test]
    fn fragment_stripping(u in url(), frag in "[a-z]{1,6}") {
        let with = u.resolve(&format!("#{frag}")).unwrap();
        let stripped = with.without_fragment();
        prop_assert_eq!(stripped.fragment(), None);
        prop_assert!(stripped.same_document(&with));
        prop_assert_eq!(stripped.without_fragment(), stripped.clone());
        prop_assert_eq!(stripped, u);
    }

    /// The shared handle compares, orders and hashes as the tuple of its
    /// parts did when it was four owned fields — `BTreeMap<Url, _>` order
    /// is observable in traces — and its display form parses back to it,
    /// fragment included.
    #[test]
    fn identity_is_that_of_the_parts(a in url(), b in url(), frags in ("[a-z]{0,3}", "[a-z]{0,3}")) {
        use std::hash::{BuildHasher, RandomState};
        let a = a.resolve(&format!("#{}", frags.0)).unwrap();
        let b = b.resolve(&format!("#{}", frags.1)).unwrap();
        let parts = |u: &Url| {
            let fragment = u.fragment().map(str::to_owned);
            (u.host().to_owned(), u.port(), u.path().to_owned(), fragment)
        };
        prop_assert_eq!(a.cmp(&b), parts(&a).cmp(&parts(&b)));
        prop_assert_eq!(a == b, parts(&a) == parts(&b));
        let hasher = RandomState::new();
        prop_assert_eq!(hasher.hash_one(&a), hasher.hash_one(parts(&a)));
        let reparsed = Url::parse(&a.to_string()).unwrap();
        prop_assert_eq!(hasher.hash_one(&reparsed), hasher.hash_one(&a));
        prop_assert_eq!(reparsed, a);
    }
}
