//! The Database Constructor's one pass over a page. [`ParsedDoc::parse`]
//! finds each `<` by byte search, classifies the tag name where it stands
//! and reads an `<a>`'s `href` alone. It normalises the title as it meets
//! it, and records the body text as byte ranges of the page, normalised
//! on the first read of the text, a label or a rel-infon's text (the runs
//! between its tag's opening and closing): a query that reads only the
//! title and the links never pays for it.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::entity::decode_entities;

/// An anchor as found in the document: the raw (unresolved) `href` and the
/// hypertext label. Resolution against the base URL and link-type
/// classification happen in the relational layer, which knows the
/// document's own URL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawAnchor<'a> {
    /// The raw `href` attribute value, entity-decoded.
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

/// A string of a parse result: a byte range of the page, or from
/// `page.len()` on, of the result's own buffer of what had to change from
/// the page's bytes (a tag name folded, an href decoded).
type Str = (usize, usize);

/// A stretch of body text as it stands in the page (a byte range), and
/// whether a word boundary (a block tag, a separator, a stretch of nothing
/// but ASCII whitespace) lies between it and the run before.
type Run = (usize, usize, bool);

/// The body text between two points of the scan, as the runs `from..to`:
/// a point is the number of runs recorded when it was passed.
type Segment = (usize, usize);

/// The body text, decoded and normalised; `at[k]` is its length after runs
/// `..k`.
#[derive(Debug, Clone)]
struct Body {
    text: String,
    at: Vec<usize>,
}

impl Body {
    fn form(page: &str, runs: &[Run]) -> Body {
        let mut text = String::with_capacity(runs.iter().map(|r| r.1 - r.0).sum());
        let mut at = Vec::with_capacity(runs.len() + 1);
        at.push(0);
        let mut pending_space = false;
        for &(start, end, gap) in runs {
            pending_space |= gap;
            let raw = decode_entities(&page[start..end]);
            append_normalized(&mut text, &mut pending_space, &raw);
            at.push(text.len());
        }
        // A space is only ever written in front of a word, so the text
        // needs no trimming and the points taken along the way index it.
        debug_assert_eq!(text, text.trim());
        Body { text, at }
    }

    fn segment(&self, (from, to): Segment) -> &str {
        self.text[self.at[from]..self.at[to]].trim()
    }
}

/// The result of the Database Constructor's single pass over a document,
/// sharing the page: its ranges and run numbers are only meaningful
/// against that page, so its fields are private.
#[derive(Debug, Clone, Default)]
pub struct ParsedDoc {
    page: Arc<str>,
    title: String,
    runs: Vec<Run>,
    /// Folded tag names and decoded hrefs, back to back.
    own: String,
    /// (href, label), in document order.
    anchors: Vec<(Str, Segment)>,
    /// (delimiter, text), in document order (close-tag order for
    /// containers).
    relinfons: Vec<(Str, Segment)>,
    /// Formed on the first read of the text, a label or a rel-infon, by
    /// one of any racing threads.
    body: OnceLock<Body>,
}

impl ParsedDoc {
    /// Parses `page` in a single pass, sharing it.
    pub fn parse(page: Arc<str>) -> ParsedDoc {
        // Presized in proportion to the page: a short page allocates
        // little, a typical one grows none of them.
        let len = page.len();
        let doc = ParsedDoc {
            page: Arc::clone(&page),
            runs: Vec::with_capacity(len / 64),
            anchors: Vec::with_capacity(len / 256),
            relinfons: Vec::with_capacity(len / 256),
            ..ParsedDoc::default()
        };
        let scan = Scan {
            page: &page,
            doc,
            open: Vec::with_capacity(len / 512),
            open_count: HashMap::with_capacity(len / 512),
            ..Scan::default()
        };
        scan.run()
    }

    /// Contents of `<title>` (whitespace-normalized; empty if absent).
    pub fn title(&self) -> &str {
        &self.title
    }

    /// All character data outside the title, whitespace-normalized.
    pub fn text(&self) -> &str {
        &self.body().text
    }

    /// Length of the raw HTML in bytes — the DOCUMENT relation's `length`.
    pub fn raw_len(&self) -> usize {
        self.page.len()
    }

    /// Anchor hrefs in document order, without forming the body text.
    pub fn hrefs(&self) -> impl ExactSizeIterator<Item = &str> {
        self.anchors.iter().map(|&(href, _)| self.str(href))
    }

    /// Anchors in document order; the first label read forms the body
    /// text.
    pub fn anchors(&self) -> impl ExactSizeIterator<Item = RawAnchor<'_>> {
        self.anchors.iter().map(|&(href, label)| RawAnchor {
            href: self.str(href),
            label: self.body().segment(label),
        })
    }

    /// Rel-infon delimiters in [`relinfons`](ParsedDoc::relinfons) order,
    /// without forming the body text.
    pub fn delimiters(&self) -> impl ExactSizeIterator<Item = &str> {
        self.relinfons.iter().map(|&(name, _)| self.str(name))
    }

    /// Rel-infons in document order (close-tag order for containers); the
    /// first one read forms the body text.
    pub fn relinfons(&self) -> impl ExactSizeIterator<Item = RelInfon<'_>> {
        self.relinfons.iter().map(|&(name, text)| RelInfon {
            delimiter: self.str(name),
            text: self.body().segment(text),
        })
    }

    /// True once the body text has been formed.
    pub fn text_formed(&self) -> bool {
        self.body.get().is_some()
    }

    fn body(&self) -> &Body {
        self.body.get_or_init(|| Body::form(&self.page, &self.runs))
    }

    fn str(&self, s: Str) -> &str {
        text_of(&self.page, &self.own, s)
    }
}

fn text_of<'s>(page: &'s str, own: &'s str, (start, end): Str) -> &'s str {
    match start.checked_sub(page.len()) {
        Some(at) => &own[at..at + (end - start)],
        None => &page[start..end],
    }
}

/// Parses an HTML document in a single pass; [`ParsedDoc::parse`] over a
/// shared copy of `input`.
pub fn parse_html(input: &str) -> ParsedDoc {
    ParsedDoc::parse(input.into())
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

/// Tags whose raw content is skipped to their end tag: it is not text.
const RAWTEXT_TAGS: [&str; 2] = ["script", "style"];

/// One pass over a page, filling in its [`ParsedDoc`].
#[derive(Default)]
struct Scan<'a> {
    page: &'a str,
    doc: ParsedDoc,
    /// Whether a word boundary was crossed since the title's last word,
    /// and since the last body run.
    title_space: bool,
    gap: bool,
    in_title: bool,
    /// The open anchor's href and the point where it opened.
    open_anchor: Option<(Str, usize)>,
    /// Open containers, innermost last: (name, point of opening).
    open: Vec<(Str, usize)>,
    /// How many containers of each name are open, so an end tag with no
    /// open match is turned away without searching `open`.
    open_count: HashMap<Cow<'a, str>, usize>,
    /// Per separator tag, the point of its previous occurrence.
    sep_marks: [usize; 2],
    /// The last `>` found, which ends every markup construct that starts
    /// before it, and whether a search found none, after which none will:
    /// an unterminated tail of `<x`s is searched once, not once per `<`.
    gt: Option<usize>,
    no_gt: bool,
}

impl<'a> Scan<'a> {
    fn run(mut self) -> ParsedDoc {
        let page = self.page;
        // Everything before `pos` has been read; text starts there.
        let (mut pos, mut from) = (0, 0);
        while let Some(lt) = find_byte(b'<', page, from) {
            // A lone '<' that does not begin valid markup is text.
            from = lt + 1;
            if let Some(end) = self.markup(pos, lt) {
                (pos, from) = (end, end);
            }
        }
        self.text(pos, page.len());
        // Implicitly close what remains open at EOF.
        self.close_anchor();
        let to = self.doc.runs.len();
        while let Some((name, from)) = self.open.pop() {
            self.doc.relinfons.push((name, (from, to)));
        }
        debug_assert_eq!(self.doc.title, self.doc.title.trim());
        self.doc
    }

    /// Reads the markup that starts with the `<` at `lt`, after recording
    /// the text from `pos` to it, and returns the offset just past it;
    /// `None`, recording nothing, if it is not valid markup.
    fn markup(&mut self, pos: usize, lt: usize) -> Option<usize> {
        let page = self.page;
        let bytes = &page.as_bytes()[lt..];
        let end = match bytes.get(1)? {
            // An unterminated comment swallows the rest of the input.
            _ if bytes.starts_with(b"<!--") => page[lt + 4..]
                .find("-->")
                .map_or(page.len(), |p| lt + p + 7),
            b'!' | b'?' => self.find_gt(lt)? + 1,
            b'/' => {
                let gt = self.find_gt(lt)?;
                let inner = page[lt + 2..gt].trim_start();
                let name = &inner[..alnum_prefix(inner)];
                if name.is_empty() {
                    return None;
                }
                self.text(pos, lt);
                self.end_tag(lower(name));
                return Some(gt + 1);
            }
            b if b.is_ascii_alphabetic() => {
                let gt = self.find_gt(lt)?;
                // `bytes[1]` is a letter, so a `/` before the `>` is not it.
                let self_closing = page.as_bytes()[gt - 1] == b'/';
                let inner = &page[lt + 1..gt - usize::from(self_closing)];
                let (name, attrs) = inner.split_at(alnum_prefix(inner));
                self.text(pos, lt);
                return Some(self.start_tag(lower(name), attrs, self_closing, gt + 1));
            }
            _ => return None,
        };
        self.text(pos, lt);
        Some(end)
    }

    /// Records the text `start..end`: into the title while it is open,
    /// else as a body run, or a word boundary if it is ASCII whitespace.
    fn text(&mut self, start: usize, end: usize) {
        let raw = &self.page[start..end];
        if self.in_title {
            // Decoding and normalising never lengthen text.
            self.doc.title.reserve(raw.len());
            let raw = decode_entities(raw);
            append_normalized(&mut self.doc.title, &mut self.title_space, &raw);
        } else if raw.bytes().all(|b| b.is_ascii_whitespace()) {
            self.gap |= !raw.is_empty();
        } else {
            let gap = std::mem::take(&mut self.gap);
            self.doc.runs.push((start, end, gap));
        }
    }

    /// `s` as a string of the parse result: the page's own bytes when it
    /// was cut from the page, else a copy in the result's buffer.
    fn keep(&mut self, s: &str) -> Str {
        let at = (s.as_ptr() as usize).wrapping_sub(self.page.as_ptr() as usize);
        if at
            .checked_add(s.len())
            .is_some_and(|end| end <= self.page.len())
        {
            return (at, at + s.len());
        }
        self.doc.own.push_str(s);
        let end = self.page.len() + self.doc.own.len();
        (end - s.len(), end)
    }

    /// Handles a start tag whose markup ends at `end`, and returns where
    /// the scan goes on: there, or past the raw content of a `<script>`
    /// or `<style>`.
    fn start_tag(
        &mut self,
        name: Cow<'a, str>,
        attrs: &'a str,
        self_closing: bool,
        end: usize,
    ) -> usize {
        let point = self.doc.runs.len();
        match classify(&name) {
            Tag::Title => self.in_title = true,
            Tag::Separator(idx) => {
                self.gap = true;
                let from = std::mem::replace(&mut self.sep_marks[idx], point);
                let name = self.keep(&name);
                self.doc.relinfons.push((name, (from, point)));
            }
            Tag::Void => {}
            tag if self_closing => self.gap |= tag == Tag::Block,
            Tag::Anchor => {
                // An <a> while another is open implicitly closes it.
                self.close_anchor();
                if let Some(href) = href_in(attrs) {
                    let href = self.keep(&decode_entities(href));
                    self.open_anchor = Some((href, point));
                }
            }
            tag => {
                self.gap |= tag == Tag::Block;
                let kept = self.keep(&name);
                self.open.push((kept, point));
                let rawtext = RAWTEXT_TAGS.into_iter().find(|t| *t == name);
                *self.open_count.entry(name).or_insert(0) += 1;
                // Skip raw content to the matching end tag, or to the end.
                if let Some(tag) = rawtext {
                    let rest = &self.page[end..];
                    let Some(at) = find_close_tag(rest, tag) else {
                        return self.page.len();
                    };
                    self.end_tag(Cow::Borrowed(tag));
                    return end + rest[at..].find('>').map_or(rest.len(), |p| at + p + 1);
                }
            }
        }
        end
    }

    fn end_tag(&mut self, name: Cow<'a, str>) {
        match classify(&name) {
            Tag::Title => self.in_title = false,
            Tag::Anchor => self.close_anchor(),
            tag => {
                self.gap |= tag == Tag::Block;
                if self.open_count.get(&name).is_none_or(|&n| n == 0) {
                    return;
                }
                // The innermost open container of this name; everything
                // above it is implicitly closed (and emits its rel-infon
                // too, so malformed nesting still yields usable segments).
                let (page, own, to) = (self.page, &self.doc.own, self.doc.runs.len());
                let named = |&(kept, _): &(Str, usize)| text_of(page, own, kept) == name;
                let at = self
                    .open
                    .iter()
                    .rposition(named)
                    .expect("a counted container");
                for (kept, from) in self.open.drain(at..).rev() {
                    let count = self.open_count.get_mut(text_of(page, own, kept));
                    *count.expect("counted when opened") -= 1;
                    self.doc.relinfons.push((kept, (from, to)));
                }
            }
        }
    }

    fn close_anchor(&mut self) {
        if let Some((href, from)) = self.open_anchor.take() {
            self.doc.anchors.push((href, (from, self.doc.runs.len())));
        }
    }

    /// Offset of the first `>` at or after `from`, which only grows from
    /// call to call.
    fn find_gt(&mut self, from: usize) -> Option<usize> {
        if !self.no_gt && self.gt.is_none_or(|gt| from > gt) {
            self.gt = find_byte(b'>', self.page, from);
            self.no_gt = self.gt.is_none();
        }
        self.gt
    }
}

/// A tag name, ASCII-lower-cased: borrowed unless it has an upper-case
/// letter to fold.
fn lower(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// Offset of the first ASCII `byte` in `s` at or after `from` (a character
/// boundary), found by the standard library's word-at-a-time byte search.
fn find_byte(byte: u8, s: &str, from: usize) -> Option<usize> {
    s.get(from..)?.find(char::from(byte)).map(|p| from + p)
}

/// Length of the leading run of ASCII letters and digits.
fn alnum_prefix(s: &str) -> usize {
    s.bytes()
        .position(|b| !b.is_ascii_alphanumeric())
        .unwrap_or(s.len())
}

/// Offset of the first `</name` in `haystack`, ASCII case-insensitively.
fn find_close_tag(haystack: &str, name: &str) -> Option<usize> {
    let bytes = haystack.as_bytes();
    haystack.match_indices("</").map(|(at, _)| at).find(|at| {
        bytes[at + 2..]
            .get(..name.len())
            .is_some_and(|n| n.eq_ignore_ascii_case(name.as_bytes()))
    })
}

/// The value of the first `href` attribute in `attrs` (a start tag after
/// its name), unquoted, not yet decoded: a slice of `attrs`. Accepts `name`, `name=value`,
/// `name="value"`, `name='value'`, in any mix, tolerant of stray junk; a
/// bare `href` has the empty value.
fn href_in(mut attrs: &str) -> Option<&str> {
    let space = |c: char| c.is_ascii_whitespace();
    loop {
        // Skip whitespace and separators.
        attrs = attrs.trim_start_matches(|c: char| !c.is_ascii_alphanumeric() && c != '_');
        let name_end = attrs.find(|c: char| !c.is_ascii_alphanumeric() && !"-_".contains(c));
        let (name, rest) = attrs.split_at(name_end.unwrap_or(attrs.len()));
        if name.is_empty() {
            return None;
        }
        let rest = rest.trim_start_matches(space);
        let value;
        (value, attrs) = match rest.strip_prefix('=').map(|v| v.trim_start_matches(space)) {
            None => (&rest[..0], rest),
            Some(v) if v.starts_with(['"', '\'']) => {
                let (quote, v) = v.split_at(1);
                v.split_once(quote).unwrap_or((v, ""))
            }
            Some(v) => v.split_at(v.find(space).unwrap_or(v.len())),
        };
        if name.eq_ignore_ascii_case("href") {
            return Some(value);
        }
    }
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

    #[test]
    fn the_body_is_formed_on_its_first_read_and_only_then() {
        let doc = parse_html(SAMPLE);
        assert_eq!(doc.title(), "Database Systems Lab People");
        let hrefs: Vec<_> = doc.hrefs().collect();
        assert_eq!(hrefs, ["students.html", "http://csa.iisc.ernet.in/"]);
        let delimiters: Vec<_> = doc.delimiters().collect();
        assert_eq!(
            delimiters,
            ["head", "h1", "b", "p", "hr", "hr", "body", "html"]
        );
        assert_eq!((doc.anchors().len(), doc.relinfons().len()), (2, 8));
        assert!(
            !doc.text_formed(),
            "titles, hrefs, delimiters and counts read no text"
        );
        assert_eq!(doc.anchors().next().unwrap().label, "Students");
        assert!(doc.text_formed());
        // A copy carries the text formed so far.
        assert!(doc.clone().text_formed());
    }

    #[test]
    fn upper_case_names_and_encoded_hrefs_are_kept_apart_from_the_page() {
        let doc = parse_html(r#"<B>x</b><A HREF="a&amp;b">y</A><HR>"#);
        let delimiters: Vec<_> = doc.delimiters().collect();
        assert_eq!(delimiters, ["b", "hr"]);
        assert_eq!(doc.hrefs().next(), Some("a&b"));
        assert_eq!(doc.text(), "xy");
    }

    #[test]
    fn raw_content_is_skipped_and_its_container_closed() {
        let doc = parse_html("x<SCRIPT>if (a<b) {}</ScRiPt junk>y<style>z");
        assert_eq!(doc.text(), "xy");
        assert_eq!(relinfons(&doc, "script"), [""]);
        assert_eq!(relinfons(&doc, "style"), [""]);
    }

    #[test]
    fn an_end_tag_with_nothing_open_of_its_name_closes_nothing() {
        let doc = parse_html("<b>x</i></i><i>y</b>");
        let found: Vec<_> = doc.relinfons().map(|r| (r.delimiter, r.text)).collect();
        assert_eq!(found, [("i", "y"), ("b", "xy")]);
    }

    /// Every `<x` with no `>` after it used to rescan to the end of input:
    /// 160 KB of `<a` took a third of a second and quadrupled per doubling.
    #[test]
    fn unterminated_markup_is_scanned_once() {
        // Debug builds are too slow for a wall-clock bound to mean much.
        if cfg!(debug_assertions) {
            return;
        }
        let input = "<a".repeat(1 << 20);
        let started = std::time::Instant::now();
        let doc = parse_html(&input);
        let elapsed = started.elapsed();
        assert_eq!(doc.text(), input);
        assert!(elapsed.as_millis() < 1000, "2 MB of `<a` took {elapsed:?}");
    }
}
