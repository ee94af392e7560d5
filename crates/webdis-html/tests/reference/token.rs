//! A permissive, allocation-conscious HTML tokenizer.
//!
//! Produces a flat stream of [`Token`]s: start tags (with parsed
//! attributes), end tags, text runs (entity-decoded) and comments. It never
//! fails — malformed markup degrades to text, matching how browsers (and
//! the 1999-era Web the paper ran on) treat it.

use std::fmt;

/// One attribute of a start tag. Names are lower-cased; values are
/// entity-decoded and unquoted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attr {
    /// Lower-cased attribute name.
    pub name: String,
    /// Decoded value; empty for bare boolean attributes.
    pub value: String,
}

/// A lexical token of an HTML document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// `<name attr=...>`; `self_closing` records a trailing `/`.
    StartTag {
        /// Lower-cased tag name.
        name: String,
        /// Attributes in document order.
        attrs: Vec<Attr>,
        /// True for `<br/>`-style tags.
        self_closing: bool,
    },
    /// `</name>`.
    EndTag {
        /// Lower-cased tag name.
        name: String,
    },
    /// A run of character data, entity-decoded, whitespace preserved.
    Text(String),
    /// `<!-- ... -->` or a `<!DOCTYPE ...>` declaration (content kept for
    /// debugging, never queried).
    Comment(String),
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::StartTag {
                name,
                attrs,
                self_closing,
            } => {
                write!(f, "<{name}")?;
                for a in attrs {
                    write!(f, " {}={:?}", a.name, a.value)?;
                }
                if *self_closing {
                    write!(f, "/")?;
                }
                write!(f, ">")
            }
            Token::EndTag { name } => write!(f, "</{name}>"),
            Token::Text(t) => write!(f, "{t}"),
            Token::Comment(c) => write!(f, "<!--{c}-->"),
        }
    }
}

/// Tags whose raw content is not markup (we only need `script`/`style`
/// skipping to keep extracted text clean).
const RAWTEXT_TAGS: [&str; 2] = ["script", "style"];

/// Tokenizes an HTML document. Never fails.
pub fn tokenize(input: &str) -> Vec<Token> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut text_start = 0usize;

    let flush_text = |tokens: &mut Vec<Token>, from: usize, to: usize| {
        if from < to {
            let raw = &input[from..to];
            if !raw.is_empty() {
                tokens.push(Token::Text(decode_entities(raw)));
            }
        }
    };

    while i < bytes.len() {
        if bytes[i] != b'<' {
            i += 1;
            continue;
        }
        // Try to parse a markup construct at `i`.
        if let Some((token, consumed)) = parse_markup(&input[i..]) {
            flush_text(&mut tokens, text_start, i);
            let is_rawtext_start = matches!(
                &token,
                Token::StartTag { name, self_closing: false, .. }
                    if RAWTEXT_TAGS.contains(&name.as_str())
            );
            let rawtext_name = if let Token::StartTag { name, .. } = &token {
                name.clone()
            } else {
                String::new()
            };
            tokens.push(token);
            i += consumed;
            if is_rawtext_start {
                // Skip raw content up to the matching close tag.
                let close = format!("</{rawtext_name}");
                let rest = &input[i..];
                if let Some(pos) = find_case_insensitive(rest, &close) {
                    // Content itself is discarded (scripts are not text).
                    let after = &rest[pos..];
                    let end = after.find('>').map(|p| pos + p + 1).unwrap_or(rest.len());
                    tokens.push(Token::EndTag { name: rawtext_name });
                    i += end;
                } else {
                    i = input.len();
                }
            }
            text_start = i;
        } else {
            // A lone '<' that does not begin valid markup: treat as text.
            i += 1;
        }
    }
    flush_text(&mut tokens, text_start, input.len());
    tokens
}

/// Case-insensitive substring search (ASCII).
fn find_case_insensitive(haystack: &str, needle: &str) -> Option<usize> {
    let h = haystack.as_bytes();
    let n = needle.as_bytes();
    if n.is_empty() || h.len() < n.len() {
        return None;
    }
    (0..=h.len() - n.len()).find(|&s| {
        h[s..s + n.len()]
            .iter()
            .zip(n)
            .all(|(a, b)| a.eq_ignore_ascii_case(b))
    })
}

/// Parses one markup construct starting at a `<`. Returns the token and the
/// number of bytes consumed, or `None` if this is not valid markup.
fn parse_markup(s: &str) -> Option<(Token, usize)> {
    let bytes = s.as_bytes();
    debug_assert_eq!(bytes[0], b'<');
    if bytes.len() < 2 {
        return None;
    }
    // Comments and declarations.
    if let Some(body) = s.strip_prefix("<!--") {
        return match body.find("-->").map(|p| p + 4) {
            Some(e) => Some((Token::Comment(s[4..e].to_owned()), e + 3)),
            // Unterminated comment swallows the rest of the input.
            None => Some((Token::Comment(body.to_owned()), s.len())),
        };
    }
    if s.starts_with("<!") || s.starts_with("<?") {
        let end = s.find('>')?;
        return Some((Token::Comment(s[2..end].to_owned()), end + 1));
    }
    // End tag.
    if bytes[1] == b'/' {
        let end = s.find('>')?;
        let name: String = s[2..end]
            .trim()
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase();
        if name.is_empty() {
            return None;
        }
        return Some((Token::EndTag { name }, end + 1));
    }
    // Start tag: name must begin with a letter.
    if !bytes[1].is_ascii_alphabetic() {
        return None;
    }
    let end = s.find('>')?;
    let inner = &s[1..end];
    let (inner, self_closing) = match inner.strip_suffix('/') {
        Some(rest) => (rest, true),
        None => (inner, false),
    };
    let mut chars = inner.char_indices();
    let mut name_end = inner.len();
    for (idx, c) in &mut chars {
        if !c.is_ascii_alphanumeric() {
            name_end = idx;
            break;
        }
    }
    let name = inner[..name_end].to_ascii_lowercase();
    let attrs = parse_attrs(&inner[name_end..]);
    Some((
        Token::StartTag {
            name,
            attrs,
            self_closing,
        },
        end + 1,
    ))
}

/// Parses the attribute list of a start tag. Accepts `name`, `name=value`,
/// `name="value"`, `name='value'`, in any mix, tolerant of stray junk.
fn parse_attrs(s: &str) -> Vec<Attr> {
    let mut attrs = Vec::new();
    let bytes = s.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        // Skip whitespace and separators.
        while i < bytes.len() && !bytes[i].is_ascii_alphanumeric() && bytes[i] != b'_' {
            i += 1;
        }
        if i >= bytes.len() {
            break;
        }
        let name_start = i;
        while i < bytes.len()
            && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'-' || bytes[i] == b'_')
        {
            i += 1;
        }
        let name = s[name_start..i].to_ascii_lowercase();
        // Optional '=' value.
        let mut j = i;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if j < bytes.len() && bytes[j] == b'=' {
            j += 1;
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            let value = if j < bytes.len() && (bytes[j] == b'"' || bytes[j] == b'\'') {
                let quote = bytes[j];
                let vstart = j + 1;
                let mut k = vstart;
                while k < bytes.len() && bytes[k] != quote {
                    k += 1;
                }
                i = (k + 1).min(bytes.len());
                &s[vstart..k]
            } else {
                let vstart = j;
                let mut k = vstart;
                while k < bytes.len() && !bytes[k].is_ascii_whitespace() {
                    k += 1;
                }
                i = k;
                &s[vstart..k]
            };
            attrs.push(Attr {
                name,
                value: decode_entities(value),
            });
        } else {
            i = j.max(i);
            attrs.push(Attr {
                name,
                value: String::new(),
            });
        }
    }
    attrs
}

/// Decodes the named entities of HTML 2.0 plus decimal/hex numeric
/// references. Unknown entities are passed through verbatim.
pub fn decode_entities(s: &str) -> String {
    if !s.contains('&') {
        return s.to_owned();
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
        if let Some(semi) = tail.bytes().take(12).position(|b| b == b';') {
            let body = &tail[1..semi];
            let decoded = match body {
                "amp" => Some('&'),
                "lt" => Some('<'),
                "gt" => Some('>'),
                "quot" => Some('"'),
                "apos" => Some('\''),
                "nbsp" => Some(' '),
                _ => body
                    .strip_prefix('#')
                    .and_then(|num| {
                        if let Some(hex) = num.strip_prefix(['x', 'X']) {
                            u32::from_str_radix(hex, 16).ok()
                        } else {
                            num.parse::<u32>().ok()
                        }
                    })
                    .and_then(char::from_u32),
            };
            match decoded {
                Some(c) => {
                    out.push(c);
                    rest = &tail[semi + 1..];
                    continue;
                }
                None => {
                    out.push('&');
                    rest = &tail[1..];
                    continue;
                }
            }
        }
        out.push('&');
        rest = &tail[1..];
    }
    out.push_str(rest);
    out
}
