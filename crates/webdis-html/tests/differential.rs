//! The one-pass parser against the parser it replaced (`reference/`):
//! same title, text and `raw_len`, same anchors and rel-infons in the same
//! order, on every input and whichever of them is read first — the body
//! text is formed on the first read of the text, a label or a rel-infon,
//! and the hrefs and delimiters are read without it. Plus the bounds the
//! one scan buys: a parse result is linear in its input, and so is the
//! time to parse it.

use proptest::prelude::*;
use webdis_html::{parse_html, ParsedDoc};

#[allow(dead_code)]
mod reference;

/// The six things a parse result lends out.
const READS: usize = 6;

/// One read of `new`, checked against the reference parse `old`.
fn read(
    new: &ParsedDoc,
    old: &reference::parse::ParsedDoc,
    what: usize,
) -> Result<(), TestCaseError> {
    match what {
        0 => prop_assert_eq!(new.title(), old.title.as_str()),
        1 => prop_assert_eq!(new.text(), old.text.as_str()),
        2 => {
            let anchors: Vec<_> = new.anchors().map(|a| (a.href, a.label)).collect();
            let old_anchors: Vec<_> = old.anchors.iter().map(|a| (&*a.href, &*a.label)).collect();
            prop_assert_eq!(anchors, old_anchors);
        }
        3 => {
            let relinfons: Vec<_> = new.relinfons().map(|r| (r.delimiter, r.text)).collect();
            let old_relinfons: Vec<_> = old
                .relinfons
                .iter()
                .map(|r| (&*r.delimiter, &*r.text))
                .collect();
            prop_assert_eq!(relinfons, old_relinfons);
        }
        4 => {
            let hrefs: Vec<_> = new.hrefs().collect();
            let old_hrefs: Vec<_> = old.anchors.iter().map(|a| &*a.href).collect();
            prop_assert_eq!(hrefs, old_hrefs);
        }
        _ => {
            let delimiters: Vec<_> = new.delimiters().collect();
            let old_delimiters: Vec<_> = old.relinfons.iter().map(|r| &*r.delimiter).collect();
            prop_assert_eq!(delimiters, old_delimiters);
        }
    }
    Ok(())
}

/// Every read of a fresh parse of `input`, in the order `order`, equals
/// the reference parse; the body is formed only by a read that needs it.
fn same_as_reference(input: &str, order: &[usize]) -> Result<(), TestCaseError> {
    let new = parse_html(input);
    let old = reference::parse::parse_html(input);
    prop_assert_eq!(new.raw_len(), old.raw_len);
    prop_assert_eq!(new.anchors().len(), old.anchors.len());
    prop_assert_eq!(new.relinfons().len(), old.relinfons.len());
    let mut needs_body = false;
    for &what in order {
        read(&new, &old, what)?;
        // The text itself, a label or a rel-infon's text.
        needs_body |= what == 1
            || (what == 2 && !old.anchors.is_empty())
            || (what == 3 && !old.relinfons.is_empty());
        prop_assert_eq!(new.text_formed(), needs_body, "after read {}", what);
    }
    Ok(())
}

/// A random order of the six reads.
fn orders() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(any::<u32>(), READS).prop_map(|keys| {
        let mut order: Vec<usize> = (0..READS).collect();
        order.sort_by_key(|&what| keys[what]);
        order
    })
}

/// Up to 60 fragments drawn from `vocab`, concatenated.
fn soup(vocab: &'static [&'static str]) -> impl Strategy<Value = String> {
    prop::collection::vec(0..vocab.len(), 0..60)
        .prop_map(|picks| picks.into_iter().map(|i| vocab[i]).collect())
}

#[rustfmt::skip]
const TAG_SOUP: &[&str] = &[
    "<", ">", "</", "/>", "\"", "'", "=", " ", "x", "Word", "<B>", "</B>", "<b>", "</b >",
    "<I>", "</i>", "<P>", "</P>", "<p>", "<DIV class=x>", "</div>", "<HR>", "<br/>", "<BR />",
    "<TITLE>", "</Title>", "<A HREF=", "<a href=\"u.html\">", "<a HREF='v' href=w>",
    "<a name=n>", "</A>", "</a>", "<img src=i>", "<td/>", "<h1>", "</H1>", "</ b>", "</>",
    "<1>", "<b-c d_e=f>", "<a href>", "<A HREF TITLE=t>", "<a x href = 'q' >",
];

#[rustfmt::skip]
const RAWTEXT: &[&str] = &[
    "<script>", "<SCRIPT type=t>", "</script>", "</ScRiPt>", "</SCRIPT", "</script x>",
    "<style>", "<Style>", "</style>", "</STYLE >", "<style/>", "<script/>", "</scrip>", "</",
    "<", ">", "<b>", "</b>", "a<b", " ", "text", "<!--", "-->", "<title>", "</title>",
];

#[rustfmt::skip]
const COMMENTS: &[&str] = &[
    "<!--", "-->", "--", "->", "<!", "<?", "?>", ">", "<", "<!DOCTYPE html>", "<!-->", "<!--->",
    "<b>", "</b>", "<hr>", " ", "word", "<a href=x>", "</a>",
];

#[rustfmt::skip]
const ENTITIES: &[&str] = &[
    "&nbsp;", "&#32;", "&#x20;", "&#9;", "&#10;", "&#160;", "&#xA0;", "&#x2003;", "&#x85;",
    "&#11;", "&amp;", "&lt;", "&gt;", "&quot;", "&apos;", "&bogus;", "&", ";", "&#", "&#x",
    "&#;", "&#99999999999;", "&#xD800;", "&amp", "a", "B", " ", "<b>", "</b>", "<p>", "<hr>",
    "<title>", "</title>", "<a href=\"a&#32;b&amp;c\">", "<a href=&nbsp;>", "</a>",
];

#[rustfmt::skip]
const UNICODE_SPACE: &[&str] = &[
    "\u{b}", "\u{c}", "\u{85}", "\u{a0}", "\u{2003}", "\u{1680}", "\u{2028}", "\u{3000}",
    "\u{200b}", "\u{feff}", "\u{1c}", "\u{1f}", "é", "\u{10000}", " ", "  ", "\t", "\n", "\r",
    "a", "bc", "<b>", "</b>", "<p>", "</p>", "<hr>", "<br>", "<title>", "</title>",
    "<a href=\"\u{a0}x\u{2003}\">", "<a href=y\u{b}z>", "</a>", "</\u{a0}b\u{2003}>",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn arbitrary_text(input in ".{0,400}", order in orders()) {
        same_as_reference(&input, &order)?;
    }

    #[test]
    fn tag_soup_with_upper_case_tags(input in soup(TAG_SOUP), order in orders()) {
        same_as_reference(&input, &order)?;
    }

    #[test]
    fn script_and_style_with_mixed_case_close_tags(input in soup(RAWTEXT), order in orders()) {
        same_as_reference(&input, &order)?;
    }

    #[test]
    fn unterminated_comments_and_declarations(input in soup(COMMENTS), order in orders()) {
        same_as_reference(&input, &order)?;
    }

    #[test]
    fn entities_that_decode_to_whitespace(input in soup(ENTITIES), order in orders()) {
        same_as_reference(&input, &order)?;
    }

    #[test]
    fn unicode_whitespace_that_ascii_tests_get_wrong(input in soup(UNICODE_SPACE), order in orders()) {
        same_as_reference(&input, &order)?;
    }
}

/// What a parse result holds, in bytes: its text, and a fixed cost per
/// anchor and per rel-infon (two spans each, plus a short name).
fn retained(doc: &webdis_html::ParsedDoc) -> usize {
    const PER_ENTRY: usize = 4 * std::mem::size_of::<usize>() + 8;
    doc.title().len() + doc.text().len() + PER_ENTRY * (doc.anchors().len() + doc.relinfons().len())
}

/// When every rel-infon owned a copy of its text, 80 KB of unclosed `<b>`
/// made the parser hold 256 MB (each of 16 000 rel-infons a copy of
/// everything after its tag). Spans make the result linear in the input.
#[test]
fn parse_result_is_linear_in_its_input() {
    let unclosed = "<b>x ".repeat(16_000);
    let depth = 20_000;
    let nested = format!("{}x{}", "<i>".repeat(depth), "</i>".repeat(depth));
    for (input, relinfons) in [(&unclosed, 16_000), (&nested, depth)] {
        let doc = parse_html(input);
        assert_eq!(doc.relinfons().len(), relinfons);
        assert!(
            retained(&doc) <= 16 * input.len(),
            "{} bytes retained for {} of input",
            retained(&doc),
            input.len()
        );
    }
    // The spans are the rel-infons the copies were: the outermost holds
    // every word, the innermost the last.
    let doc = parse_html(&unclosed);
    let first = doc.relinfons().next().expect("16 000 rel-infons");
    let last = doc.relinfons().last().expect("16 000 rel-infons");
    assert_eq!(first.text, "x");
    assert_eq!(last.text.len(), 2 * 16_000 - 1);
}

/// Seconds to parse `input` once: the best of three rounds of `rounds`
/// parses each.
fn parse_seconds(input: &str, rounds: u32) -> f64 {
    let best = (0..3).map(|_| {
        let started = std::time::Instant::now();
        for _ in 0..rounds {
            std::hint::black_box(parse_html(std::hint::black_box(input)));
        }
        started.elapsed().as_secs_f64() / f64::from(rounds)
    });
    best.fold(f64::INFINITY, f64::min)
}

/// An end tag with no open match used to search the whole stack of open
/// containers: a 224 KB page of 32 000 `<b>` then 32 000 `</i>` took four
/// seconds to parse, against 5 ms matched. With a count of the open
/// containers of each name it is turned away at once, so the parse time
/// grows with the page, not with its square: sixteen times the tags take
/// about sixteen times as long, where a quadratic parse would take 256.
#[test]
fn unmatched_end_tags_parse_in_linear_time() {
    // Debug builds are too slow for a wall-clock ratio to mean much.
    if cfg!(debug_assertions) {
        return;
    }
    let page = |n: usize| format!("{}{}", "<b>".repeat(n), "</i>".repeat(n));
    let n = 2_000;
    let (small, large) = (page(n), page(16 * n));
    // Enough parses of the small page for the clock to resolve them.
    let ratio = parse_seconds(&large, 1) / parse_seconds(&small, 16);
    assert!(
        ratio <= 64.0,
        "16× the unmatched end tags took {ratio:.0}× as long (linear ≈ 16, quadratic ≈ 256)"
    );
    let doc = parse_html(&large);
    assert_eq!(doc.relinfons().len(), 16 * n, "every <b> closes at the end");
}
