//! URL parsing and reference resolution as they stood before the one-scan
//! parser: the reference trimmed twice, the scheme stripped twice, the
//! fragment split, the first `/` and the last `:` found, the host checked
//! and the path searched for `//` and `/.`, each a walk of its own. Kept
//! as the oracle `tests/prop_url.rs` holds `Url::parse` and
//! `Url::resolve` to. A URL is given as its parts, `(host, port, path,
//! fragment)`, and an error as its reason; the code is the parent's, with
//! `Url::new` building those parts and the host table (which only shares
//! equal hosts) left out. Never fix a bug here. The one exception is a
//! bug both had, fixed in both: whitespace before a `#` stayed in the
//! path, so `http://h/x #` displayed as `http://h/x `, which parses back
//! to `/x`; the path is now trimmed at its end.

use std::borrow::Cow;

use webdis_model::Url;

/// `(host, port, path, fragment)`.
pub type Parts = (String, u16, String, Option<String>);

/// The parts of `url`.
pub fn parts(url: &Url) -> Parts {
    let fragment = url.fragment().map(str::to_owned);
    (
        url.host().to_owned(),
        url.port(),
        url.path().to_owned(),
        fragment,
    )
}

pub fn parse(input: &str) -> Result<Parts, &'static str> {
    let s = input.trim();
    if s.is_empty() {
        return Err("empty string");
    }
    let rest = strip_scheme(s).transpose()?.unwrap_or(s);
    // Split off fragment first: it may contain '/'.
    let (rest, fragment) = match rest.split_once('#') {
        Some((r, "")) => (r, None),
        Some((r, f)) => (r, Some(f.to_owned())),
        None => (rest, None),
    };
    let (authority, path) = match rest.find('/') {
        Some(idx) => (&rest[..idx], rest[idx..].trim_end()),
        None => (rest, "/"),
    };
    if authority.is_empty() {
        return Err("missing host");
    }
    let (host, port) = match authority.rsplit_once(':') {
        Some((h, p)) => {
            let port: u16 = p.parse().map_err(|_| "invalid port number")?;
            (h, port)
        }
        None => (authority, 80u16),
    };
    if host.is_empty() {
        return Err("missing host");
    }
    if host.contains(['/', '?', '#', ' ']) {
        return Err("invalid character in host");
    }
    let path = normalize_path(path.into());
    Ok((host.to_ascii_lowercase(), port, path, fragment))
}

pub fn resolve(base: &Url, reference: &str) -> Result<Parts, &'static str> {
    let reference = reference.trim();
    if reference.is_empty() {
        return Ok(parts(base));
    }
    if let Some(frag) = reference.strip_prefix('#') {
        let (host, port, path, _) = parts(base);
        return Ok((
            host,
            port,
            path,
            (!frag.is_empty()).then(|| frag.to_owned()),
        ));
    }
    if strip_scheme(reference).is_some() {
        return parse(reference);
    }
    if has_scheme_prefix(reference) {
        // `mailto:x@y`, `ftp://h/p`, `javascript:...` — not part of the
        // http web model.
        return Err("unsupported scheme");
    }
    if let Some(rest) = reference.strip_prefix("//") {
        return parse(&format!("http://{rest}"));
    }
    // Path (absolute or relative) with optional fragment.
    let (path_part, fragment) = match reference.split_once('#') {
        Some((p, "")) => (p, None),
        Some((p, f)) => (p, Some(f.to_owned())),
        None => (reference, None),
    };
    let path_part = path_part.trim_end();
    let merged = if path_part.starts_with('/') {
        Cow::Borrowed(path_part)
    } else {
        // Resolve against the directory of the base path.
        Cow::Owned(match base.path().rfind('/') {
            Some(idx) => format!("{}{}", &base.path()[..=idx], path_part),
            None => format!("/{path_part}"),
        })
    };
    let path = normalize_path(merged);
    Ok((base.host().to_owned(), base.port(), path, fragment))
}

/// True when the reference begins with an RFC-3986 scheme followed by `:`
/// before any `/`, `?` or `#` — i.e. it is an absolute URL of *some*
/// scheme, not a relative path.
fn has_scheme_prefix(s: &str) -> bool {
    let mut chars = s.char_indices();
    match chars.next() {
        Some((_, c)) if c.is_ascii_alphabetic() => {}
        _ => return false,
    }
    for (_, c) in chars {
        match c {
            ':' => return true,
            c if c.is_ascii_alphanumeric() || matches!(c, '+' | '-' | '.') => {}
            _ => return false,
        }
    }
    false
}

/// Strips a recognised scheme prefix. Returns:
/// * `None` — no scheme present,
/// * `Some(Ok(rest))` — `http`/`https` scheme stripped,
/// * `Some(Err(..))` — a scheme-like prefix we do not support.
fn strip_scheme(s: &str) -> Option<Result<&str, &'static str>> {
    let colon = s.find(':')?;
    let (scheme, rest) = s.split_at(colon);
    if !rest.starts_with("://") {
        // `host:port` — not a scheme.
        return None;
    }
    let rest = &rest[3..];
    if scheme.eq_ignore_ascii_case("http") || scheme.eq_ignore_ascii_case("https") {
        Some(Ok(rest))
    } else {
        Some(Err("unsupported scheme"))
    }
}

/// Collapses `.` and `..` segments and repeated slashes; the result always
/// starts with `/`. A trailing slash is preserved (it distinguishes a
/// directory index from a file). A path with no empty, `.` or `..`
/// segment is already normal: it is returned as it is, copied only if it
/// was borrowed.
fn normalize_path(path: Cow<'_, str>) -> String {
    if path.starts_with('/') && !path.contains("//") && !path.contains("/.") {
        return path.into_owned();
    }
    let mut segments: Vec<&str> = Vec::new();
    for seg in path.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                segments.pop();
            }
            s => segments.push(s),
        }
    }
    let mut out = String::with_capacity(path.len());
    for seg in &segments {
        out.push('/');
        out.push_str(seg);
    }
    // An empty result means the root; otherwise a trailing slash in the
    // source (including `/.` and `/..` forms) is preserved.
    let trailing = path.ends_with('/') || path.ends_with("/.") || path.ends_with("/..");
    if out.is_empty() || (trailing && !out.ends_with('/')) {
        out.push('/');
    }
    out
}
