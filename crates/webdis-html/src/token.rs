//! A permissive, borrowing HTML tokenizer.
//!
//! [`tokenize`] is an iterator of [`Token`]s — start tags, end tags, text
//! runs and comments — that borrow from the input. A tag name is copied
//! only when it has an upper-case letter to fold, a text run only when it
//! has an entity to decode, and a start tag's attributes are slices of it,
//! decoded only where they are read (the document parser reads an `<a>`'s
//! `href` alone). It never fails — malformed markup degrades to text,
//! matching how browsers (and the 1999-era Web the paper ran on) treat it.

use std::borrow::Cow;

/// A lexical token of an HTML document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// `<name attr=...>`; `self_closing` records a trailing `/`.
    StartTag {
        /// Lower-cased tag name.
        name: Cow<'a, str>,
        /// Attributes in document order, as they stand in the tag.
        attrs: Attrs<'a>,
        /// True for `<br/>`-style tags.
        self_closing: bool,
    },
    /// `</name>`.
    EndTag {
        /// Lower-cased tag name.
        name: Cow<'a, str>,
    },
    /// A run of character data, entity-decoded, whitespace preserved.
    Text(Cow<'a, str>),
    /// `<!-- ... -->` or a `<!DOCTYPE ...>` declaration (content kept for
    /// debugging, never queried).
    Comment(&'a str),
}

/// Tags whose raw content is not markup (we only need `script`/`style`
/// skipping to keep extracted text clean).
const RAWTEXT_TAGS: [&str; 2] = ["script", "style"];

/// Tokenizes an HTML document. Never fails.
pub fn tokenize(input: &str) -> Tokens<'_> {
    Tokens {
        input,
        pos: 0,
        pending: None,
        rawtext: None,
        no_gt_from: usize::MAX,
    }
}

/// The token stream of one document; see [`tokenize`].
#[derive(Debug, Clone)]
pub struct Tokens<'a> {
    input: &'a str,
    /// Everything before this offset has been returned; the next text run
    /// starts here.
    pos: usize,
    /// Markup found behind a text run: the run is returned first, this on
    /// the next call.
    pending: Option<Token<'a>>,
    /// A `<script>`/`<style>` start tag has been returned and its raw
    /// content is still to be skipped.
    rawtext: Option<&'static str>,
    /// No `>` occurs at or after this offset. Without the memo every `<x`
    /// of an unterminated tail would rescan to the end of input.
    no_gt_from: usize,
}

impl<'a> Iterator for Tokens<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        if let Some(token) = self.pending.take() {
            return Some(token);
        }
        let input = self.input;
        if let Some(name) = self.rawtext.take() {
            // Skip raw content up to the matching close tag; the content
            // itself is discarded (scripts are not text).
            let rest = &input[self.pos..];
            match find_close_tag(rest, name) {
                Some(at) => {
                    let end = rest[at..].find('>').map_or(rest.len(), |p| at + p + 1);
                    self.pos += end;
                    return Some(Token::EndTag {
                        name: Cow::Borrowed(name),
                    });
                }
                None => self.pos = input.len(),
            }
        }
        let mut from = self.pos;
        while let Some(lt) = input[from..].find('<').map(|p| from + p) {
            let Some((token, consumed)) = self.markup_at(lt) else {
                // A lone '<' that does not begin valid markup is text.
                from = lt + 1;
                continue;
            };
            let text = &input[self.pos..lt];
            self.pos = lt + consumed;
            if let Token::StartTag {
                name,
                self_closing: false,
                ..
            } = &token
            {
                self.rawtext = RAWTEXT_TAGS.iter().copied().find(|t| name == t);
            }
            if text.is_empty() {
                return Some(token);
            }
            self.pending = Some(token);
            return Some(Token::Text(decode_entities(text)));
        }
        let text = &input[self.pos..];
        self.pos = input.len();
        (!text.is_empty()).then(|| Token::Text(decode_entities(text)))
    }
}

impl<'a> Tokens<'a> {
    /// Offset of the first `>` at or after `from`.
    fn find_gt(&mut self, from: usize) -> Option<usize> {
        if from >= self.no_gt_from {
            return None;
        }
        let found = self.input[from..].find('>').map(|p| from + p);
        if found.is_none() {
            self.no_gt_from = from;
        }
        found
    }

    /// Parses the markup construct starting at the `<` at offset `lt`.
    /// Returns the token and the number of bytes consumed, or `None` if
    /// this is not valid markup.
    fn markup_at(&mut self, lt: usize) -> Option<(Token<'a>, usize)> {
        let s = &self.input[lt..];
        let bytes = s.as_bytes();
        if bytes.len() < 2 {
            return None;
        }
        // Comments and declarations.
        if let Some(body) = s.strip_prefix("<!--") {
            return Some(match body.find("-->") {
                Some(p) => (Token::Comment(&body[..p]), p + 7),
                // Unterminated comment swallows the rest of the input.
                None => (Token::Comment(body), s.len()),
            });
        }
        if bytes[1] == b'!' || bytes[1] == b'?' {
            let end = self.find_gt(lt)? - lt;
            return Some((Token::Comment(&s[2..end]), end + 1));
        }
        // End tag.
        if bytes[1] == b'/' {
            let end = self.find_gt(lt)? - lt;
            let inner = s[2..end].trim();
            let name_end = alnum_prefix(inner);
            if name_end == 0 {
                return None;
            }
            let name = lower(&inner[..name_end]);
            return Some((Token::EndTag { name }, end + 1));
        }
        // Start tag: name must begin with a letter.
        if !bytes[1].is_ascii_alphabetic() {
            return None;
        }
        let end = self.find_gt(lt)? - lt;
        let inner = &s[1..end];
        let (inner, self_closing) = match inner.strip_suffix('/') {
            Some(rest) => (rest, true),
            None => (inner, false),
        };
        let name_end = alnum_prefix(inner);
        Some((
            Token::StartTag {
                name: lower(&inner[..name_end]),
                attrs: Attrs {
                    s: &inner[name_end..],
                    i: 0,
                },
                self_closing,
            },
            end + 1,
        ))
    }
}

/// Length of the leading run of ASCII letters and digits.
fn alnum_prefix(s: &str) -> usize {
    s.bytes()
        .position(|b| !b.is_ascii_alphanumeric())
        .unwrap_or(s.len())
}

/// ASCII-lower-cases a name, copying it only if that changes it.
fn lower(s: &str) -> Cow<'_, str> {
    if s.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(s.to_ascii_lowercase())
    } else {
        Cow::Borrowed(s)
    }
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

/// The attribute list of a start tag, parsed one attribute per `next`:
/// each name and value as it stands in the tag, unquoted but neither
/// folded nor decoded. Accepts `name`, `name=value`, `name="value"`,
/// `name='value'`, in any mix, tolerant of stray junk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attrs<'a> {
    s: &'a str,
    i: usize,
}

impl<'a> Iterator for Attrs<'a> {
    type Item = (&'a str, &'a str);

    fn next(&mut self) -> Option<(&'a str, &'a str)> {
        let s = self.s;
        let bytes = s.as_bytes();
        let mut i = self.i;
        // Skip whitespace and separators.
        while i < bytes.len() && !bytes[i].is_ascii_alphanumeric() && bytes[i] != b'_' {
            i += 1;
        }
        if i >= bytes.len() {
            self.i = i;
            return None;
        }
        let name_start = i;
        while i < bytes.len()
            && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'-' || bytes[i] == b'_')
        {
            i += 1;
        }
        let name = &s[name_start..i];
        // Optional '=' value.
        let mut j = i;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if j >= bytes.len() || bytes[j] != b'=' {
            self.i = j;
            return Some((name, ""));
        }
        j += 1;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        let value = if j < bytes.len() && (bytes[j] == b'"' || bytes[j] == b'\'') {
            let quote = bytes[j];
            let start = j + 1;
            let end = bytes[start..]
                .iter()
                .position(|b| *b == quote)
                .map_or(bytes.len(), |p| start + p);
            self.i = (end + 1).min(bytes.len());
            &s[start..end]
        } else {
            let end = bytes[j..]
                .iter()
                .position(u8::is_ascii_whitespace)
                .map_or(bytes.len(), |p| j + p);
            self.i = end;
            &s[j..end]
        };
        Some((name, value))
    }
}

/// Escapes `&`, `<`, `>` and `"`, which [`decode_entities`] undoes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// Decodes the named entities of HTML 2.0 plus decimal/hex numeric
/// references, copying the text only if it has an `&` in it. Unknown
/// entities are passed through verbatim.
pub fn decode_entities(s: &str) -> Cow<'_, str> {
    if !s.contains('&') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        let tail = &rest[amp..];
        // An entity is `&name;` or `&#ddd;` or `&#xhh;` within 12 bytes.
        // Search by bytes: slicing the str at an arbitrary cap could
        // split a multi-byte character ( ';' itself is ASCII, so the
        // found index is always a char boundary).
        let decoded = tail
            .bytes()
            .take(12)
            .position(|b| b == b';')
            .and_then(|semi| Some((decode_entity(&tail[1..semi])?, semi)));
        match decoded {
            Some((c, semi)) => {
                out.push(c);
                rest = &tail[semi + 1..];
            }
            None => {
                out.push('&');
                rest = &tail[1..];
            }
        }
    }
    out.push_str(rest);
    Cow::Owned(out)
}

/// The character an entity body (between `&` and `;`) stands for.
fn decode_entity(body: &str) -> Option<char> {
    match body {
        "amp" => Some('&'),
        "lt" => Some('<'),
        "gt" => Some('>'),
        "quot" => Some('"'),
        "apos" => Some('\''),
        "nbsp" => Some(' '),
        _ => {
            let num = body.strip_prefix('#')?;
            let code = match num.strip_prefix(['x', 'X']) {
                Some(hex) => u32::from_str_radix(hex, 16).ok()?,
                None => num.parse::<u32>().ok()?,
            };
            char::from_u32(code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(name: &str) -> Token<'_> {
        Token::StartTag {
            name: name.into(),
            attrs: Attrs { s: "", i: 0 },
            self_closing: false,
        }
    }

    fn end(name: &str) -> Token<'_> {
        Token::EndTag { name: name.into() }
    }

    fn all(input: &str) -> Vec<Token<'_>> {
        tokenize(input).collect()
    }

    #[test]
    fn tokenizes_simple_document() {
        assert_eq!(
            all("<html><body>Hello</body></html>"),
            vec![
                start("html"),
                start("body"),
                Token::Text("Hello".into()),
                end("body"),
                end("html"),
            ]
        );
    }

    #[test]
    fn parses_attributes_in_all_quote_styles() {
        let toks = all(r#"<a href="x.html" TITLE='hi' rel=next disabled>"#);
        let Token::StartTag { name, attrs, .. } = &toks[0] else {
            panic!("expected start tag");
        };
        assert_eq!(name, "a");
        assert_eq!(
            attrs.clone().collect::<Vec<_>>(),
            vec![
                ("href", "x.html"),
                ("TITLE", "hi"),
                ("rel", "next"),
                ("disabled", ""),
            ]
        );
    }

    #[test]
    fn tag_names_lowercased() {
        let toks = all("<B>x</B>");
        assert_eq!(toks[0], start("b"));
        assert_eq!(toks[2], end("b"));
    }

    #[test]
    fn names_and_text_borrow_unless_they_must_change() {
        let toks = all("<b CLASS=x>plain</b><I>a &amp; b</I>");
        let borrowed = |c: &Cow<'_, str>| matches!(c, Cow::Borrowed(_));
        let Token::StartTag { name, attrs, .. } = &toks[0] else {
            panic!("expected start tag");
        };
        assert!(borrowed(name));
        assert_eq!(attrs.clone().collect::<Vec<_>>(), vec![("CLASS", "x")]);
        assert!(matches!(&toks[1], Token::Text(t) if borrowed(t)));
        assert!(matches!(&toks[3], Token::StartTag { name, .. } if !borrowed(name)));
        assert!(matches!(&toks[4], Token::Text(t) if !borrowed(t) && t == "a & b"));
    }

    #[test]
    fn self_closing_detected() {
        let toks = all("<br/><hr />");
        assert!(
            matches!(&toks[0], Token::StartTag { name, self_closing: true, .. } if name == "br")
        );
        assert!(
            matches!(&toks[1], Token::StartTag { name, self_closing: true, .. } if name == "hr")
        );
    }

    #[test]
    fn comments_and_doctype() {
        let toks = all("<!DOCTYPE html><!-- hi -->x");
        assert!(matches!(&toks[0], Token::Comment(_)));
        assert!(matches!(&toks[1], Token::Comment(c) if *c == " hi "));
        assert_eq!(toks[2], Token::Text("x".into()));
    }

    #[test]
    fn unterminated_comment_swallows_rest() {
        let toks = all("a<!-- open");
        assert_eq!(toks[0], Token::Text("a".into()));
        assert!(matches!(&toks[1], Token::Comment(c) if *c == " open"));
    }

    #[test]
    fn stray_lt_is_text() {
        assert_eq!(
            all("2 < 3 and <3"),
            vec![Token::Text("2 < 3 and <3".into())]
        );
    }

    #[test]
    fn entities_decoded_in_text_and_attrs() {
        let toks = all(r#"<a href="a&amp;b">x &lt; y &#65; &#x42; &nope;</a>"#);
        let Token::StartTag { attrs, .. } = &toks[0] else {
            panic!()
        };
        assert_eq!(decode_entities(attrs.clone().next().unwrap().1), "a&b");
        assert_eq!(toks[1], Token::Text("x < y A B &nope;".into()));
    }

    #[test]
    fn script_content_skipped() {
        let toks = all("<script>if (a<b) {}</script>after");
        assert_eq!(toks[0], start("script"));
        assert_eq!(toks[1], end("script"));
        assert_eq!(toks[2], Token::Text("after".into()));
    }

    #[test]
    fn rawtext_close_tag_matches_in_any_case() {
        let toks = all("x<STYLE>b { </b> }</sTyLe junk>y<script></SCRIPT");
        assert_eq!(
            toks,
            vec![
                Token::Text("x".into()),
                start("style"),
                end("style"),
                Token::Text("y".into()),
                start("script"),
                end("script"),
            ]
        );
    }

    #[test]
    fn unclosed_script_consumes_rest() {
        assert_eq!(all("<script>var x = 1;").len(), 1);
    }

    #[test]
    fn empty_input() {
        assert!(all("").is_empty());
    }

    #[test]
    fn malformed_end_tag_ignored() {
        // `</>` is not a valid end tag; '<' degrades to text.
        assert_eq!(all("a</>b"), vec![Token::Text("a</>b".into())]);
    }

    #[test]
    fn decode_entities_passthrough_fast_path() {
        assert_eq!(decode_entities("plain"), "plain");
        assert_eq!(decode_entities("a & b"), "a & b");
        assert_eq!(decode_entities("&amp;&amp;"), "&&");
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
        let toks = all(&input);
        let elapsed = started.elapsed();
        assert_eq!(toks, vec![Token::Text(input.as_str().into())]);
        assert!(elapsed.as_millis() < 1000, "2 MB of `<a` took {elapsed:?}");
    }
}
