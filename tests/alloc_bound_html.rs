//! The allocation bound of `parse_html`, the document path's entry point
//! for pages from the untrusted web: whatever the bytes,
//!
//! * allocated bytes ≤ A·len + B, and
//! * allocations ≤ C·(number of `<`) + D,
//!
//! with the constants below (derived in DESIGN.md, "The untrusted edge").
//! Held with proptest over arbitrary bytes and over `crawl16` pages
//! mutated by flipping, inserting, deleting and repeating bytes, plus the
//! inputs the derivation names as the worst.
//!
//! One test, alone in its binary: the counters are process-wide.

mod counting;

use std::cell::Cell;

use counting::counted;
use proptest::prelude::*;
use webdis::html::parse_html;
use webdis::web::gen::{generate, WebGenConfig};

#[global_allocator]
static GLOBAL: counting::Counting = counting::Counting;

/// Bytes per input byte: a rel-infon (32 bytes) and an open-stack entry
/// (32 bytes) per 3-byte `<b>`, each in a vector that may have doubled.
const A: usize = 48;
/// The first growth of every buffer of a short input.
const B: usize = 1024;
/// Allocations per `<`: the text run before it, its tag name and its
/// href, each copied at most once, and a share of the buffers' doublings.
const C: usize = 4;
/// The buffers' first allocations.
const D: usize = 16;

/// Markup to insert: tags that open rel-infons and anchors, entities that
/// force copies, upper case that forces folding, and unfinished markup.
#[rustfmt::skip]
const INSERTS: &[&str] = &[
    "<", ">", "<b>", "</b>", "<hr>", "<p>", "<A HREF=x TITLE=&amp; B=&lt;>", "<a href=\"&amp;\">",
    "</a>", "&amp;", "&#32;", "<TITLE>", "</title>", "<!--", "-->", "<script>", "\u{a0}", "  ",
];

/// One edit of a page; a position is taken modulo the page's length.
#[derive(Debug, Clone)]
enum Mutation {
    Flip(usize, u8),
    Insert(usize, &'static str),
    Delete(usize, usize),
    Repeat(usize, usize, usize),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<usize>(), any::<u8>()).prop_map(|(at, b)| Mutation::Flip(at, b)),
        (any::<usize>(), 0..INSERTS.len()).prop_map(|(at, i)| Mutation::Insert(at, INSERTS[i])),
        (any::<usize>(), 1..256usize).prop_map(|(at, n)| Mutation::Delete(at, n)),
        (any::<usize>(), 1..64usize, 1..64usize).prop_map(|(at, n, k)| Mutation::Repeat(at, n, k)),
    ]
}

fn mutate(page: &str, edits: &[Mutation]) -> String {
    let mut bytes = page.as_bytes().to_vec();
    for edit in edits {
        let at = |at: usize| at % (bytes.len() + 1);
        match *edit {
            Mutation::Flip(at, b) => {
                let len = bytes.len().max(1);
                if let Some(byte) = bytes.get_mut(at % len) {
                    *byte = b;
                }
            }
            Mutation::Insert(pos, s) => {
                let pos = at(pos);
                bytes.splice(pos..pos, s.bytes());
            }
            Mutation::Delete(pos, n) => {
                let pos = at(pos);
                bytes.drain(pos..(pos + n).min(bytes.len()));
            }
            Mutation::Repeat(pos, n, k) => {
                let pos = at(pos);
                let slice = bytes[pos..(pos + n).min(bytes.len())].to_vec();
                for _ in 0..k {
                    bytes.splice(pos..pos, slice.iter().copied());
                }
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn parse_html_allocates_linearly_in_its_input() {
    // The worst ratio seen of bytes to length and allocations to `<`s.
    let worst = Cell::new((0.0f64, 0.0f64));
    let check = |input: &str| -> Result<(), TestCaseError> {
        let (doc, allocations, bytes) = counted(|| parse_html(input));
        drop(doc);
        let len = input.len();
        let lts = input.bytes().filter(|&b| b == b'<').count();
        prop_assert!(
            bytes <= A * len + B,
            "{bytes} bytes allocated for {len} bytes of input"
        );
        prop_assert!(
            allocations <= C * lts + D,
            "{allocations} allocations for {lts} `<` in {len} bytes"
        );
        let (b, a) = worst.get();
        worst.set((
            b.max(bytes as f64 / (len.max(64)) as f64),
            a.max(allocations as f64 / lts.max(4) as f64),
        ));
        Ok(())
    };

    // What the constants are derived from.
    let many_attrs = format!("<A {}HREF=x>", "X=&amp; ".repeat(4_000));
    for input in [
        "<b>".repeat(20_000),
        "<B>".repeat(20_000),
        "<hr>".repeat(20_000),
        "<a href=&amp;>&amp;".repeat(5_000),
        "&amp;<A HREF=&amp;>".repeat(5_000),
        many_attrs,
        "<a".repeat(20_000),
        "&amp;".repeat(20_000),
        String::new(),
    ] {
        check(&input).unwrap();
    }

    let config = ProptestConfig::with_cases(256);
    let mut runner = TestRunner::new(config.clone(), "alloc_bound_html::arbitrary_bytes");
    let arbitrary = prop::collection::vec(any::<u8>(), 0..4096)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned());
    runner.run(&arbitrary, |input| check(&input));

    let web = generate(&WebGenConfig {
        sites: 16,
        docs_per_site: 6,
        extra_local_links: 2,
        extra_global_links: 2,
        title_needle_prob: 0.2,
        filler_words: 400,
        seed: 11,
        ..WebGenConfig::default()
    });
    let pages: Vec<&str> = web
        .urls()
        .map(|url| web.get(url).expect("hosted"))
        .collect();
    let mutated = (0..pages.len(), prop::collection::vec(mutation(), 1..8))
        .prop_map(move |(page, edits)| mutate(pages[page], &edits));
    let mut runner = TestRunner::new(config, "alloc_bound_html::mutated_crawl16_pages");
    runner.run(&mutated, |input| check(&input));

    let (bytes, allocations) = worst.get();
    println!(
        "worst: {bytes:.1} bytes per input byte (inputs of 64 bytes and more), \
         {allocations:.2} allocations per `<` (4 and more)"
    );
}
