//! Single-pass document extraction: title, text, anchors, rel-infons.
//!
//! Every byte of body text is written once, into [`ParsedDoc::text`]. An
//! anchor label or a rel-infon is the stretch of that buffer between the
//! point where its tag opened and the point where it closed, so it is
//! recorded as a span and lent out as a `&str` — a document nested `n`
//! deep holds one copy of its text, not `n`.

use std::borrow::Cow;
use std::ops::Range;

use crate::token::{decode_entities, tokenize, Token};

/// An anchor as found in the document: the raw (unresolved) `href` and the
/// hypertext label. Resolution against the base URL and link-type
/// classification happen in the relational layer, which knows the
/// document's own URL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawAnchor<'a> {
    /// The raw `href` attribute value.
    pub href: &'a str,
    /// The anchor's enclosed text, whitespace-normalized.
    pub label: &'a str,
}

/// A *rel-infon* (Section 2.2, after \[12\]): a group of related
/// information delimited by a tag.
///
/// Two delimiter styles are supported:
/// * **container** tags (`b`, `i`, `h1`…, `p`, `td`, …): the text enclosed
///   between the start tag and its matching end tag;
/// * **separator** tags (`hr`, `br`): the text segment *preceding* each
///   occurrence (since the previous occurrence or the document start) —
///   this is what makes the paper's "the convener name is succeeded by a
///   horizontal line" query (`r.delimiter = "hr"`) work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelInfon<'a> {
    /// Lower-cased delimiter tag name.
    pub delimiter: &'a str,
    /// Whitespace-normalized enclosed/preceding text.
    pub text: &'a str,
}

/// A byte range of one of [`ParsedDoc`]'s two buffers.
type Span = Range<usize>;

/// The result of the Database Constructor's single pass over a document.
///
/// The fields are private because the anchor and rel-infon spans are only
/// meaningful against the buffers they were cut from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedDoc {
    title: String,
    text: String,
    raw_len: usize,
    /// Anchor hrefs and rel-infon delimiters, back to back.
    names: String,
    /// (href in `names`, label in `text`), in document order.
    anchors: Vec<(Span, Span)>,
    /// (delimiter in `names`, text in `text`), in document order
    /// (close-tag order for containers).
    relinfons: Vec<(Span, Span)>,
}

impl ParsedDoc {
    /// Contents of `<title>` (whitespace-normalized; empty if absent).
    pub fn title(&self) -> &str {
        &self.title
    }

    /// All character data outside the title, whitespace-normalized.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Length of the raw HTML in bytes — the DOCUMENT relation's `length`.
    pub fn raw_len(&self) -> usize {
        self.raw_len
    }

    /// Anchors in document order.
    pub fn anchors(&self) -> impl ExactSizeIterator<Item = RawAnchor<'_>> {
        self.anchors.iter().map(|(href, label)| RawAnchor {
            href: &self.names[href.clone()],
            label: &self.text[label.clone()],
        })
    }

    /// Rel-infons in document order (close-tag order for containers).
    pub fn relinfons(&self) -> impl ExactSizeIterator<Item = RelInfon<'_>> {
        self.relinfons.iter().map(|(delimiter, text)| RelInfon {
            delimiter: &self.names[delimiter.clone()],
            text: &self.text[text.clone()],
        })
    }

    /// Appends `name` to the name buffer.
    fn push_name(&mut self, name: &str) -> Span {
        let start = self.names.len();
        self.names.push_str(name);
        start..self.names.len()
    }

    /// `text[mark..].trim()`, as a span of `text`.
    fn trimmed_from(&self, mark: usize) -> Span {
        let tail = &self.text[mark..];
        let start = mark + (tail.len() - tail.trim_start().len());
        start..start + tail.trim().len()
    }

    fn close_relinfon(&mut self, delimiter: &str, mark: usize) {
        let entry = (self.push_name(delimiter), self.trimmed_from(mark));
        self.relinfons.push(entry);
    }

    fn close_anchor(&mut self, open: &mut Option<(Span, usize)>) {
        if let Some((href, mark)) = open.take() {
            self.anchors.push((href, self.trimmed_from(mark)));
        }
    }
}

/// What a tag means to the extraction pass, decided by one `match`.
#[derive(Clone, Copy, PartialEq)]
enum Tag {
    Title,
    Anchor,
    /// `hr` or `br`, and its slot in the per-separator marks.
    Separator(usize),
    /// Never gets an end tag.
    Void,
    /// Crossing its boundary always separates words.
    Block,
    Inline,
}

fn classify(name: &str) -> Tag {
    match name {
        "title" => Tag::Title,
        "a" => Tag::Anchor,
        "hr" => Tag::Separator(0),
        "br" => Tag::Separator(1),
        "img" | "meta" | "link" | "input" => Tag::Void,
        "p" | "div" | "li" | "ul" | "ol" | "tr" | "td" | "th" | "table" | "h1" | "h2" | "h3"
        | "h4" | "h5" | "h6" | "body" => Tag::Block,
        _ => Tag::Inline,
    }
}

/// Parses an HTML document in a single pass.
pub fn parse_html(input: &str) -> ParsedDoc {
    // Normalized text is never longer than its source; hrefs and tag
    // names are a small share of it.
    let mut doc = ParsedDoc {
        raw_len: input.len(),
        text: String::with_capacity(input.len()),
        names: String::with_capacity(input.len() / 16),
        ..ParsedDoc::default()
    };
    // Whether a word boundary has been crossed since each buffer's last
    // word.
    let mut pending_space = false;
    let mut title_space = false;

    // Open container elements: (tag name, start offset in `doc.text`).
    let mut open: Vec<(Cow<'_, str>, usize)> = Vec::new();
    // Currently open anchor: (href, start offset).
    let mut open_anchor: Option<(Span, usize)> = None;
    // Per separator tag, the offset of the previous occurrence.
    let mut sep_marks: [usize; 2] = [0, 0];
    let mut in_title = false;

    for tok in tokenize(input) {
        match tok {
            Token::Text(run) => {
                if in_title {
                    append_normalized(&mut doc.title, &mut title_space, &run);
                } else {
                    append_normalized(&mut doc.text, &mut pending_space, &run);
                }
            }
            Token::StartTag {
                name,
                mut attrs,
                self_closing,
            } => match classify(&name) {
                Tag::Title => in_title = true,
                Tag::Separator(idx) => {
                    pending_space = true;
                    doc.close_relinfon(&name, sep_marks[idx]);
                    sep_marks[idx] = doc.text.len();
                }
                Tag::Void => {}
                tag if self_closing => pending_space |= tag == Tag::Block,
                Tag::Anchor => {
                    // An <a> while another is open implicitly closes it.
                    doc.close_anchor(&mut open_anchor);
                    if let Some((_, href)) = attrs.find(|(n, _)| n.eq_ignore_ascii_case("href")) {
                        let href = doc.push_name(&decode_entities(href));
                        open_anchor = Some((href, doc.text.len()));
                    }
                }
                tag => {
                    pending_space |= tag == Tag::Block;
                    open.push((name, doc.text.len()));
                }
            },
            Token::EndTag { name } => match classify(&name) {
                Tag::Title => in_title = false,
                Tag::Anchor => doc.close_anchor(&mut open_anchor),
                tag => {
                    pending_space |= tag == Tag::Block;
                    // Find the matching open tag; everything above it is
                    // implicitly closed (and emits its rel-infon too, so
                    // malformed nesting still yields usable segments).
                    if let Some(pos) = open.iter().rposition(|(n, _)| *n == name) {
                        for (tag, mark) in open.drain(pos..).rev() {
                            doc.close_relinfon(&tag, mark);
                        }
                    }
                }
            },
            Token::Comment(_) => {}
        }
    }
    // Implicitly close what remains open at EOF.
    doc.close_anchor(&mut open_anchor);
    for (tag, mark) in open.into_iter().rev() {
        doc.close_relinfon(&tag, mark);
    }

    // A space is only ever written in front of a word, so neither buffer
    // needs trimming and the spans taken along the way still index `text`.
    debug_assert_eq!(doc.text, doc.text.trim());
    debug_assert_eq!(doc.title, doc.title.trim());
    doc
}

/// Appends a raw text run to `out`, collapsing internal whitespace runs to
/// single spaces and honouring the pending-space flag at the boundary.
///
/// Text is copied a stretch at a time: everything up to the next
/// irregular byte (see [`next_irregular`]) is already normal and goes in
/// with one `push_str`, so only an irregular byte is looked at on its own,
/// one character at a time.
fn append_normalized(out: &mut String, pending_space: &mut bool, run: &str) {
    let bytes = run.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let (word, len) = match next_irregular(bytes, i) {
            end if end > i => (true, end - i),
            _ => {
                let c = run[i..].chars().next().expect("i < len, on a boundary");
                (!c.is_whitespace(), c.len_utf8())
            }
        };
        if word {
            if *pending_space && !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&run[i..i + len]);
        }
        *pending_space = !word;
        i += len;
    }
}

/// The first byte at or after `i` that is not already normal text, or
/// `bytes.len()`. A byte is normal when it is printable ASCII other than a
/// space (`0x21..=0x7e`), or a single space between two such bytes; so a
/// stretch of normal bytes never starts or ends with a space.
///
/// Eight bytes are tested per step with no branch on their contents: the
/// loop leaves only at an irregular byte, not at every word boundary,
/// which on real text is where a per-character loop mispredicts.
fn next_irregular(bytes: &[u8], mut i: usize) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    // The high bit of each byte lane that holds `0x21..=0x7e`. Masking
    // off the high bits first keeps every sum inside its lane.
    let word = |w: u64| {
        let low = w & !HIGH;
        (low + (0x80 - 0x21) * ONES) & !(low + ONES) & !w & HIGH
    };
    let is_word = |k: usize| matches!(bytes.get(k), Some(0x21..=0x7e));
    loop {
        // The eight bytes at `i` and the byte to either side, for the
        // neighbours of a space; byte by byte where there is no such
        // window (at `i` = 0, `get` refuses the range).
        let Some(window) = bytes.get(i.wrapping_sub(1)..i + 9) else {
            let space = |k: usize| bytes[k] == b' ' && k > 0 && is_word(k - 1) && is_word(k + 1);
            if i < bytes.len() && (is_word(i) || space(i)) {
                i += 1;
                continue;
            }
            return i;
        };
        let load = |at: usize| u64::from_le_bytes(window[at..at + 8].try_into().expect("8 bytes"));
        let (before, here, after) = (load(0), load(1), load(2));
        let x = here ^ (u64::from(b' ') * ONES);
        let space = !(((x & !HIGH) + !HIGH) | x) & HIGH;
        let irregular = !(word(here) | (space & word(before) & word(after))) & HIGH;
        if irregular != 0 {
            return i + (irregular.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"<html>
<head><title>Database Systems Lab  People</title></head>
<body>
<h1>People</h1>
<p>Members of the <b>DSL</b> group.</p>
CONVENER Jayant Haritsa
<hr>
<a href="students.html">Students</a>
<a href="http://csa.iisc.ernet.in/">CSA Dept</a>
Faculty list
<hr>
</body>
</html>"#;

    /// The text of the first rel-infon delimited by `tag`.
    fn relinfon<'a>(doc: &'a ParsedDoc, tag: &str) -> &'a str {
        let found = doc.relinfons().find(|r| r.delimiter == tag);
        found.unwrap_or_else(|| panic!("no <{tag}> rel-infon")).text
    }

    /// The texts of every rel-infon delimited by `tag`, in order.
    fn relinfons<'a>(doc: &'a ParsedDoc, tag: &str) -> Vec<&'a str> {
        let of_tag = doc.relinfons().filter(|r| r.delimiter == tag);
        of_tag.map(|r| r.text).collect()
    }

    #[test]
    fn title_extracted_and_normalized() {
        let doc = parse_html(SAMPLE);
        assert_eq!(doc.title(), "Database Systems Lab People");
    }

    /// Each title run used to start with a fresh pending-space flag, so
    /// the space before an inline tag was lost: `"LabPeople"`.
    #[test]
    fn title_keeps_the_space_between_its_runs() {
        let doc = parse_html("<title>Lab <i>People</i></title><p>Lab <i>People</i></p>");
        assert_eq!(doc.title(), "Lab People");
        assert_eq!(doc.text(), "Lab People");
        let doc = parse_html("<title>Lab<i>People</i> \n</title>x");
        assert_eq!(doc.title(), "LabPeople");
    }

    #[test]
    fn text_excludes_title_and_markup() {
        let doc = parse_html(SAMPLE);
        assert!(doc.text().contains("Members of the DSL group."));
        assert!(doc.text().contains("CONVENER Jayant Haritsa"));
        assert!(!doc.text().contains("Database Systems Lab People"));
        assert!(!doc.text().contains('<'));
    }

    #[test]
    fn anchors_in_order_with_labels() {
        let doc = parse_html(SAMPLE);
        assert_eq!(
            doc.anchors().collect::<Vec<_>>(),
            vec![
                RawAnchor {
                    href: "students.html",
                    label: "Students"
                },
                RawAnchor {
                    href: "http://csa.iisc.ernet.in/",
                    label: "CSA Dept"
                },
            ]
        );
    }

    #[test]
    fn hr_relinfon_contains_preceding_segment() {
        let doc = parse_html(SAMPLE);
        let hrs = relinfons(&doc, "hr");
        assert_eq!(hrs.len(), 2);
        assert!(
            hrs[0].contains("CONVENER Jayant Haritsa"),
            "got {:?}",
            hrs[0]
        );
        assert!(hrs[1].contains("Faculty list"));
        assert!(!hrs[1].contains("CONVENER"));
    }

    #[test]
    fn container_relinfon_is_inner_text() {
        let doc = parse_html(SAMPLE);
        assert_eq!(relinfon(&doc, "b"), "DSL");
        assert_eq!(relinfon(&doc, "h1"), "People");
    }

    #[test]
    fn nested_containers_each_emit() {
        let doc = parse_html("<p>a <b>bb <i>cc</i></b> d</p>");
        assert_eq!(relinfon(&doc, "i"), "cc");
        assert_eq!(relinfon(&doc, "b"), "bb cc");
        assert_eq!(relinfon(&doc, "p"), "a bb cc d");
    }

    #[test]
    fn unbalanced_nesting_tolerated() {
        let doc = parse_html("<b>x <i>y</b> z");
        // </b> implicitly closes <i>; trailing text closes nothing.
        assert_eq!(relinfon(&doc, "i"), "y");
        assert_eq!(relinfon(&doc, "b"), "x y");
        assert_eq!(doc.text(), "x y z");
    }

    #[test]
    fn eof_closes_open_containers() {
        let doc = parse_html("<p>open forever");
        assert_eq!(relinfon(&doc, "p"), "open forever");
    }

    #[test]
    fn anchor_without_href_is_not_a_link() {
        let doc = parse_html(r#"<a name="here">target</a><a href="x">go</a>"#);
        assert_eq!(doc.anchors().len(), 1);
        assert_eq!(doc.anchors().next().unwrap().href, "x");
    }

    #[test]
    fn consecutive_anchors_close_implicitly() {
        let doc = parse_html(r#"<a href="1">one <a href="2">two</a>"#);
        let labels: Vec<_> = doc.anchors().map(|a| a.label).collect();
        assert_eq!(labels, vec!["one", "two"]);
    }

    #[test]
    fn inline_tags_do_not_split_words() {
        let doc = parse_html("bo<b>l</b>d");
        assert_eq!(doc.text(), "bold");
    }

    #[test]
    fn block_tags_split_words() {
        let doc = parse_html("<p>a</p><p>b</p>");
        assert_eq!(doc.text(), "a b");
        let doc = parse_html("line1<br>line2");
        assert_eq!(doc.text(), "line1 line2");
    }

    #[test]
    fn raw_len_is_input_bytes() {
        assert_eq!(parse_html(SAMPLE).raw_len(), SAMPLE.len());
        assert_eq!(parse_html("").raw_len(), 0);
    }

    #[test]
    fn empty_document() {
        let doc = parse_html("");
        assert!(doc.title().is_empty());
        assert!(doc.text().is_empty());
        assert_eq!(doc.anchors().len(), 0);
        assert_eq!(doc.relinfons().len(), 0);
    }

    #[test]
    fn entities_in_labels() {
        let doc = parse_html(r#"<a href="x">A &amp; B</a>"#);
        assert_eq!(doc.anchors().next().unwrap().label, "A & B");
    }

    #[test]
    fn br_separator_segments() {
        let doc = parse_html("first<br>second<br>third");
        assert_eq!(relinfons(&doc, "br"), vec!["first", "second"]);
    }

    #[test]
    fn whitespace_is_unicode_whitespace() {
        // U+000B, U+0085, U+00A0 and U+2003 are `char::is_whitespace` but
        // not `u8::is_ascii_whitespace`; U+200B (zero width space) is not
        // whitespace at all.
        let doc = parse_html("a\u{b}b\u{85}c\u{a0}d\u{2003}e\u{200b}f  g \t\n h");
        assert_eq!(doc.text(), "a b c d e\u{200b}f g h");
    }

    #[test]
    fn entities_that_decode_to_whitespace_separate_words() {
        let doc = parse_html("<b>a&nbsp;b&#32;&#32;c</b>&#9;<i>&nbsp;d</i>");
        assert_eq!(doc.text(), "a b c d");
        assert_eq!(relinfon(&doc, "b"), "a b c");
        assert_eq!(relinfon(&doc, "i"), "d");
    }
}
