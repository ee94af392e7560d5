//! Character references: decoded from a page, escaped into one.

use std::borrow::Cow;

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

    #[test]
    fn decode_entities_passthrough_fast_path() {
        assert_eq!(decode_entities("plain"), "plain");
        assert!(matches!(decode_entities("plain"), Cow::Borrowed(_)));
        assert_eq!(decode_entities("a & b"), "a & b");
        assert_eq!(decode_entities("&amp;&amp;"), "&&");
    }

    #[test]
    fn named_numeric_and_unknown_references() {
        assert_eq!(
            decode_entities("x &lt; y &#65; &#x42; &nope;"),
            "x < y A B &nope;"
        );
        assert_eq!(decode_entities("a&amp;b"), "a&b");
        assert_eq!(
            decode_entities("&#xD800;&#99999999999;"),
            "&#xD800;&#99999999999;"
        );
    }

    #[test]
    fn escape_is_undone_by_decoding() {
        let s = r#"<a href="x">Tom & "Jerry"</a>"#;
        assert_eq!(decode_entities(&escape(s)), s);
    }
}
