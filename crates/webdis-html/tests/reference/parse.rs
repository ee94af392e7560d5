//! Single-pass document extraction: title, text, anchors, rel-infons.

use std::fmt;

use super::token::{tokenize, Token};

/// An anchor as found in the document: the raw (unresolved) `href` and the
/// hypertext label. Resolution against the base URL and link-type
/// classification happen in the relational layer, which knows the
/// document's own URL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawAnchor {
    /// The raw `href` attribute value.
    pub href: String,
    /// The anchor's enclosed text, whitespace-normalized.
    pub label: String,
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelInfon {
    /// Lower-cased delimiter tag name.
    pub delimiter: String,
    /// Whitespace-normalized enclosed/preceding text.
    pub text: String,
}

impl fmt::Display for RelInfon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}>{:?}", self.delimiter, self.text)
    }
}

/// The result of the Database Constructor's single pass over a document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedDoc {
    /// Contents of `<title>` (whitespace-normalized; empty if absent).
    pub title: String,
    /// All character data outside the title, whitespace-normalized.
    pub text: String,
    /// Length of the raw HTML in bytes — the DOCUMENT relation's `length`.
    pub raw_len: usize,
    /// Anchors in document order.
    pub anchors: Vec<RawAnchor>,
    /// Rel-infons in document order (close-tag order for containers).
    pub relinfons: Vec<RelInfon>,
}

/// Tags that produce no content and separate text segments.
const SEPARATOR_TAGS: [&str; 2] = ["hr", "br"];
/// Void tags that never get end tags (beyond the separators).
const VOID_TAGS: [&str; 6] = ["hr", "br", "img", "meta", "link", "input"];
/// Tags treated as block-level for whitespace purposes: crossing their
/// boundary always separates words.
const BLOCK_TAGS: [&str; 16] = [
    "p", "div", "li", "ul", "ol", "tr", "td", "th", "table", "h1", "h2", "h3", "h4", "h5", "h6",
    "body",
];

/// Parses an HTML document in a single pass.
pub fn parse_html(input: &str) -> ParsedDoc {
    let tokens = tokenize(input);
    let mut doc = ParsedDoc {
        raw_len: input.len(),
        ..ParsedDoc::default()
    };

    // The normalized text accumulator; marks index into it.
    let mut text = String::new();
    let mut pending_space = false;

    // Open container elements: (tag name, start offset in `text`).
    let mut open: Vec<(String, usize)> = Vec::new();
    // Currently open anchor: (href, start offset).
    let mut open_anchor: Option<(String, usize)> = None;
    // Per separator tag, the offset of the previous occurrence.
    let mut sep_marks: [usize; 2] = [0, 0];
    let mut in_title = false;
    let mut title = String::new();
    let mut title_space = false;

    let finish_anchor =
        |doc: &mut ParsedDoc, open_anchor: &mut Option<(String, usize)>, text: &str| {
            if let Some((href, mark)) = open_anchor.take() {
                doc.anchors.push(RawAnchor {
                    href,
                    label: text[mark..].trim().to_owned(),
                });
            }
        };

    for tok in tokens {
        match tok {
            Token::Text(run) => {
                if in_title {
                    append_normalized(&mut title, &mut title_space, &run);
                } else {
                    append_normalized(&mut text, &mut pending_space, &run);
                }
            }
            Token::StartTag {
                name,
                attrs,
                self_closing,
            } => {
                if name == "title" {
                    in_title = true;
                    continue;
                }
                if BLOCK_TAGS.contains(&name.as_str()) {
                    pending_space = true;
                }
                if let Some(idx) = SEPARATOR_TAGS.iter().position(|t| *t == name) {
                    pending_space = true;
                    let seg = text[sep_marks[idx]..].trim();
                    doc.relinfons.push(RelInfon {
                        delimiter: name.clone(),
                        text: seg.to_owned(),
                    });
                    sep_marks[idx] = text.len();
                    continue;
                }
                if VOID_TAGS.contains(&name.as_str()) || self_closing {
                    continue;
                }
                if name == "a" {
                    // An <a> while another is open implicitly closes it.
                    finish_anchor(&mut doc, &mut open_anchor, &text);
                    let href = attrs
                        .iter()
                        .find(|a| a.name == "href")
                        .map(|a| a.value.clone());
                    if let Some(href) = href {
                        open_anchor = Some((href, text.len()));
                    }
                    continue;
                }
                open.push((name, text.len()));
            }
            Token::EndTag { name } => {
                if name == "title" {
                    in_title = false;
                    continue;
                }
                if BLOCK_TAGS.contains(&name.as_str()) {
                    pending_space = true;
                }
                if name == "a" {
                    finish_anchor(&mut doc, &mut open_anchor, &text);
                    continue;
                }
                // Find the matching open tag; everything above it is
                // implicitly closed (and emits its rel-infon too, so
                // malformed nesting still yields usable segments).
                if let Some(pos) = open.iter().rposition(|(n, _)| *n == name) {
                    while open.len() > pos {
                        let (tag, mark) = open.pop().expect("len > pos");
                        doc.relinfons.push(RelInfon {
                            delimiter: tag,
                            text: text[mark..].trim().to_owned(),
                        });
                    }
                }
            }
            Token::Comment(_) => {}
        }
    }
    // Implicitly close what remains open at EOF.
    finish_anchor(&mut doc, &mut open_anchor, &text);
    while let Some((tag, mark)) = open.pop() {
        doc.relinfons.push(RelInfon {
            delimiter: tag,
            text: text[mark..].trim().to_owned(),
        });
    }

    doc.title = title.trim().to_owned();
    doc.text = text.trim().to_owned();
    doc
}

/// Appends a raw text run to `out`, collapsing internal whitespace runs to
/// single spaces and honouring the pending-space flag at the boundary.
fn append_normalized(out: &mut String, pending_space: &mut bool, run: &str) {
    let mut words = run.split_whitespace();
    let Some(first) = words.next() else {
        // Whitespace-only run: separates words.
        if !run.is_empty() {
            *pending_space = true;
        }
        return;
    };
    let leading_ws = run.starts_with(char::is_whitespace);
    if (*pending_space || leading_ws) && !out.is_empty() {
        out.push(' ');
    }
    out.push_str(first);
    for w in words {
        out.push(' ');
        out.push_str(w);
    }
    *pending_space = run.ends_with(char::is_whitespace);
}
