//! The one-pass parser against the parser it replaced (`reference/`):
//! same tokens, same title, text and `raw_len`, same anchors and
//! rel-infons in the same order, on every input — plus the bound the span
//! representation buys: a parse result is linear in its input.

use proptest::prelude::*;
use webdis_html::token::decode_entities;
use webdis_html::{parse_html, tokenize, Token};

#[allow(dead_code)]
mod reference;

/// Both tokenizers' output in one comparable shape, attributes parsed.
#[derive(Debug, PartialEq)]
enum Tok {
    Start(String, Vec<(String, String)>, bool),
    End(String),
    Text(String),
    Comment(String),
}

fn new_tokens(input: &str) -> Vec<Tok> {
    tokenize(input)
        .map(|t| match t {
            Token::StartTag {
                name,
                attrs,
                self_closing,
            } => Tok::Start(
                name.into_owned(),
                attrs
                    .map(|(n, v)| (n.to_ascii_lowercase(), decode_entities(v).into_owned()))
                    .collect(),
                self_closing,
            ),
            Token::EndTag { name } => Tok::End(name.into_owned()),
            Token::Text(t) => Tok::Text(t.into_owned()),
            Token::Comment(c) => Tok::Comment(c.to_owned()),
        })
        .collect()
}

fn reference_tokens(input: &str) -> Vec<Tok> {
    use reference::token::Token as Old;
    reference::token::tokenize(input)
        .into_iter()
        .map(|t| match t {
            Old::StartTag {
                name,
                attrs,
                self_closing,
            } => Tok::Start(
                name,
                attrs.into_iter().map(|a| (a.name, a.value)).collect(),
                self_closing,
            ),
            Old::EndTag { name } => Tok::End(name),
            Old::Text(t) => Tok::Text(t),
            Old::Comment(c) => Tok::Comment(c),
        })
        .collect()
}

fn same_as_reference(input: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(new_tokens(input), reference_tokens(input));
    let new = parse_html(input);
    let old = reference::parse::parse_html(input);
    prop_assert_eq!(new.title(), old.title);
    prop_assert_eq!(new.text(), old.text);
    prop_assert_eq!(new.raw_len(), old.raw_len);
    let anchors: Vec<_> = new.anchors().map(|a| (a.href, a.label)).collect();
    let old_anchors: Vec<_> = old.anchors.iter().map(|a| (&*a.href, &*a.label)).collect();
    prop_assert_eq!(anchors, old_anchors);
    let relinfons: Vec<_> = new.relinfons().map(|r| (r.delimiter, r.text)).collect();
    let old_relinfons: Vec<_> = old
        .relinfons
        .iter()
        .map(|r| (&*r.delimiter, &*r.text))
        .collect();
    prop_assert_eq!(relinfons, old_relinfons);
    Ok(())
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
    "<1>", "<b-c d_e=f>",
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
    fn arbitrary_text(input in ".{0,400}") {
        same_as_reference(&input)?;
    }

    #[test]
    fn tag_soup_with_upper_case_tags(input in soup(TAG_SOUP)) {
        same_as_reference(&input)?;
    }

    #[test]
    fn script_and_style_with_mixed_case_close_tags(input in soup(RAWTEXT)) {
        same_as_reference(&input)?;
    }

    #[test]
    fn unterminated_comments_and_declarations(input in soup(COMMENTS)) {
        same_as_reference(&input)?;
    }

    #[test]
    fn entities_that_decode_to_whitespace(input in soup(ENTITIES)) {
        same_as_reference(&input)?;
    }

    #[test]
    fn unicode_whitespace_that_ascii_tests_get_wrong(input in soup(UNICODE_SPACE)) {
        same_as_reference(&input)?;
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
