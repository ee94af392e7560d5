//! A lightweight URL type sufficient for the WEBDIS web model.
//!
//! The paper's engine only needs `http`-style URLs: a host (which identifies
//! the *site*, i.e. the query server responsible for the resource), an
//! optional port, an absolute path identifying the *node*, and an optional
//! fragment (used to classify *interior* links). We implement parsing,
//! normalization and RFC-1808-style relative reference resolution by hand —
//! the subset needed by the engine — rather than pulling in a URL crate.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// Error produced when a string cannot be parsed as a [`Url`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UrlParseError {
    /// The offending input.
    pub input: String,
    /// Human-readable reason.
    pub reason: &'static str,
}

impl fmt::Display for UrlParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid URL {:?}: {}", self.input, self.reason)
    }
}

impl std::error::Error for UrlParseError {}

/// The network address of a *site*: the unit of query-server placement.
///
/// Two nodes belong to the same site exactly when their URLs have the same
/// `(host, port)` pair; the engine forwards at most one clone per site per
/// hop (optimization 4 of Section 3.2).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteAddr {
    /// Lower-cased host name, shared: a clone is a counter bump.
    pub host: Arc<str>,
    /// TCP port (defaults to 80 when absent in the URL).
    pub port: u16,
}

impl fmt::Display for SiteAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.port == 80 {
            write!(f, "{}", self.host)
        } else {
            write!(f, "{}:{}", self.host, self.port)
        }
    }
}

/// An absolute `http` URL identifying a node (web resource).
///
/// Invariants maintained by all constructors:
/// * `host` is non-empty and lower-case;
/// * `path` is absolute (starts with `/`) and contains no `.` / `..`
///   segments (they are collapsed during parsing and resolution);
/// * `fragment` is `None` or non-empty.
///
/// A `Url` is a shared handle: cloning one bumps a counter, and
/// [`Url::site`] shares the host. Order, equality and hash are those of
/// `(host, port, path, fragment)`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Url(Arc<Parts>);

/// Field order is the comparison order.
#[derive(Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Parts {
    host: Arc<str>,
    port: u16,
    path: String,
    fragment: Option<String>,
}

impl Url {
    /// Parses an absolute URL of the form
    /// `http://host[:port][/path][#fragment]`. The scheme is optional (a
    /// bare `host/path` is accepted, matching how the paper writes start
    /// nodes like `dsl.serc.iisc.ernet.in/people`); when present it must be
    /// `http` or `https`.
    pub fn parse(input: &str) -> Result<Self, UrlParseError> {
        Url::parse_in(input, lowercase)
    }

    /// [`Url::parse`], with the host's shared form taken from `shared`.
    fn parse_in(input: &str, shared: impl FnOnce(&str) -> Arc<str>) -> Result<Url, UrlParseError> {
        let s = input.trim();
        let from = match scheme(s) {
            _ if s.is_empty() => Err("empty string"),
            Scheme::Http(at) => Ok(at),
            Scheme::Other => return Err(error(s, "unsupported scheme")),
            Scheme::Name | Scheme::None => Ok(0),
        };
        let url = from.and_then(|from| absolute(s, from, shared));
        url.map_err(|reason| error(input, reason))
    }

    fn new(host: Arc<str>, port: u16, path: String, fragment: Option<String>) -> Url {
        Url(Arc::new(Parts {
            host,
            port,
            path,
            fragment,
        }))
    }

    /// Builds a URL from parts, normalizing the path. Intended for
    /// programmatic construction (e.g. by the synthetic web generator).
    pub fn from_parts(host: &str, port: u16, path: &str) -> Self {
        // A leading `/` doubled by this one is collapsed.
        let path = format!("/{path}");
        let normal = is_normal(&path);
        let path = normalize_path(path.into(), normal);
        Url::new(lowercase(host), port, path, None)
    }

    /// The site (host, port) hosting this node.
    pub fn site(&self) -> SiteAddr {
        SiteAddr {
            host: Arc::clone(&self.0.host),
            port: self.0.port,
        }
    }

    /// Lower-cased host name.
    pub fn host(&self) -> &str {
        &self.0.host
    }

    /// Port number (80 when the URL did not name one).
    pub fn port(&self) -> u16 {
        self.0.port
    }

    /// Absolute, normalized path.
    pub fn path(&self) -> &str {
        &self.0.path
    }

    /// Optional fragment (never the empty string).
    pub fn fragment(&self) -> Option<&str> {
        self.0.fragment.as_deref()
    }

    /// This URL with the fragment removed — the identity of the *node*.
    /// Two references differing only in fragment denote the same resource.
    pub fn without_fragment(&self) -> Url {
        match self.0.fragment {
            None => self.clone(),
            Some(_) => self.with_fragment(None),
        }
    }

    fn with_fragment(&self, fragment: Option<String>) -> Url {
        let p = &*self.0;
        Url::new(Arc::clone(&p.host), p.port, p.path.clone(), fragment)
    }

    /// True when `self` and `other` identify resources on the same site.
    pub fn same_site(&self, other: &Url) -> bool {
        self.0.host == other.0.host && self.0.port == other.0.port
    }

    /// True when `self` and `other` identify the same document (ignoring
    /// fragments).
    pub fn same_document(&self, other: &Url) -> bool {
        self.same_site(other) && self.0.path == other.0.path
    }

    /// Resolves a reference found in a document at `self` (the base URL),
    /// per the subset of RFC 1808 the web model needs:
    ///
    /// * absolute references (`http://h/p`, `//h/p`, `h.example/p` with a
    ///   scheme) replace the base entirely;
    /// * `#frag` keeps the base document and sets the fragment (an
    ///   *interior* link);
    /// * `/abs/path` replaces the path;
    /// * `rel/path` resolves against the base path's directory.
    pub fn resolve(&self, reference: &str) -> Result<Url, UrlParseError> {
        self.resolver().resolve(reference)
    }

    /// A [`Resolver`] for the references of one document at `self`.
    pub fn resolver(&self) -> Resolver<'_> {
        let mut hosts: [Option<Arc<str>>; 8] = Default::default();
        hosts[0] = Some(Arc::clone(&self.0.host));
        Resolver { base: self, hosts }
    }
}

/// [`Url::resolve`] for the references of one document. It keeps the
/// hosts of the URLs it builds in a table of a few entries, so a link to
/// the document's own site, or to a host an earlier link named, shares
/// that host's `Arc<str>`.
#[derive(Debug)]
pub struct Resolver<'a> {
    base: &'a Url,
    hosts: [Option<Arc<str>>; 8],
}

impl Resolver<'_> {
    /// The URL `reference` names; see [`Url::resolve`].
    pub fn resolve(&mut self, reference: &str) -> Result<Url, UrlParseError> {
        let base = self.base;
        let s = reference.trim();
        if s.is_empty() {
            return Ok(base.clone());
        }
        if let Some(frag) = s.strip_prefix('#') {
            return Ok(base.with_fragment((!frag.is_empty()).then(|| frag.to_owned())));
        }
        let from = match scheme(s) {
            Scheme::Http(at) => at,
            // `mailto:x@y`, `ftp://h/p`, `javascript:...` — not part of
            // the http web model.
            Scheme::Other | Scheme::Name => return Err(error(s, "unsupported scheme")),
            Scheme::None if s.starts_with("//") => 2,
            Scheme::None => return Ok(self.path(s)),
        };
        absolute(s, from, |name| self.host(name)).map_err(|reason| error(s, reason))
    }

    /// The URL of a path reference, absolute or relative, with an optional
    /// fragment.
    fn path(&self, s: &str) -> Url {
        let (base, split) = (self.base, Split::of(s, 0));
        let path = s[..split.hash.unwrap_or(s.len())].trim_end();
        let merged = if path.starts_with('/') {
            normalize_path(path.into(), !split.irregular)
        } else {
            // Against the directory of the base path: normal when the
            // directory is and the reference adds no `/.`, `//` or `.`.
            let dir = &base.path()[..=base.path().rfind('/').expect("an absolute path")];
            let normal = is_normal(dir) && !split.irregular && !path.starts_with('.');
            normalize_path([dir, path].concat().into(), normal)
        };
        let host = Arc::clone(&base.0.host);
        Url::new(host, base.port(), merged, split.fragment(s))
    }

    /// `name` lower-cased: the table's copy, or a new one it keeps while
    /// it has room.
    fn host(&mut self, name: &str) -> Arc<str> {
        for slot in &mut self.hosts {
            match slot {
                Some(known) if known.eq_ignore_ascii_case(name) => return Arc::clone(known),
                Some(_) => {}
                None => return Arc::clone(slot.insert(lowercase(name))),
            }
        }
        lowercase(name)
    }
}

/// What a reference's first `:` makes of it: `http://` or `https://`, in
/// any case, and the offset after it; another scheme and `://`; a scheme
/// name and `:` with no `//` (`mailto:x`, or `h:8080/`: a host and port to
/// [`Url::parse`], not a path to [`Url::resolve`]); or none of these.
enum Scheme {
    Http(usize),
    Other,
    Name,
    None,
}

fn scheme(s: &str) -> Scheme {
    let Some((name, rest)) = s.split_once(':') else {
        return Scheme::None;
    };
    let http = name.eq_ignore_ascii_case("http") || name.eq_ignore_ascii_case("https");
    let scheme_byte = |b: &u8| b.is_ascii_alphanumeric() || matches!(b, b'+' | b'-' | b'.');
    match name.as_bytes() {
        _ if rest.starts_with("//") && http => Scheme::Http(name.len() + 3),
        _ if rest.starts_with("//") => Scheme::Other,
        [a, more @ ..] if a.is_ascii_alphabetic() && more.iter().all(scheme_byte) => Scheme::Name,
        _ => Scheme::None,
    }
}

/// One scan of a reference from an offset: where the authority ends (the
/// first `/` or `#`), its last `:` and first `?` or space, the `#`, and
/// whether a `/` before it is followed by `/` or `.` (segments to collapse).
#[derive(Default)]
struct Split {
    end: usize,
    colon: Option<usize>,
    odd: Option<usize>,
    hash: Option<usize>,
    irregular: bool,
}

impl Split {
    fn of(s: &str, from: usize) -> Split {
        let (bytes, mut split, mut end) = (s.as_bytes(), Split::default(), None);
        for (i, &b) in bytes.iter().enumerate().skip(from) {
            match b {
                b'#' => {
                    split.hash = Some(i);
                    break;
                }
                b'/' => {
                    end.get_or_insert(i);
                    split.irregular |= matches!(bytes.get(i + 1), Some(b'/' | b'.'));
                }
                _ if end.is_some() => {}
                b':' => split.colon = Some(i),
                b'?' | b' ' => _ = split.odd.get_or_insert(i),
                _ => {}
            }
        }
        split.end = end.or(split.hash).unwrap_or(s.len());
        split
    }

    /// The fragment after the `#`, if any and not empty.
    fn fragment(&self, s: &str) -> Option<String> {
        let fragment = &s[self.hash? + 1..];
        (!fragment.is_empty()).then(|| fragment.to_owned())
    }
}

/// The URL `s` names with its authority starting at `at`, scanned once.
fn absolute(s: &str, at: usize, host: impl FnOnce(&str) -> Arc<str>) -> Result<Url, &'static str> {
    let split = Split::of(s, at);
    let (end, path_end) = (split.end, split.hash.unwrap_or(s.len()));
    let (host_end, port) = match split.colon {
        Some(colon) => {
            let port = s[colon + 1..end]
                .parse()
                .map_err(|_| "invalid port number")?;
            (colon, port)
        }
        None => (end, 80),
    };
    if host_end == at {
        return Err("missing host");
    }
    if split.odd.is_some_and(|odd| odd < host_end) {
        return Err("invalid character in host");
    }
    // Whitespace before the `#` is no more part of the path than
    // whitespace after the URL: displayed without a fragment it would end
    // the text, which `parse` trims.
    let path = match s[end..path_end].trim_end() {
        "" => "/".to_owned(),
        path => normalize_path(path.into(), !split.irregular),
    };
    Ok(Url::new(
        host(&s[at..host_end]),
        port,
        path,
        split.fragment(s),
    ))
}

fn error(input: &str, reason: &'static str) -> UrlParseError {
    let input = input.to_owned();
    UrlParseError { input, reason }
}

/// The derived form of the struct this was before its fields moved behind
/// the shared handle.
impl fmt::Debug for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = &*self.0;
        f.debug_struct("Url")
            .field("host", &p.host)
            .field("port", &p.port)
            .field("path", &p.path)
            .field("fragment", &p.fragment)
            .finish()
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "http://{}", self.host())?;
        if self.port() != 80 {
            write!(f, ":{}", self.port())?;
        }
        f.write_str(self.path())?;
        if let Some(frag) = self.fragment() {
            write!(f, "#{frag}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for Url {
    type Err = UrlParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Url::parse(s)
    }
}

/// `host` lower-cased, copied once.
fn lowercase(host: &str) -> Arc<str> {
    if host.bytes().any(|b| b.is_ascii_uppercase()) {
        host.to_ascii_lowercase().into()
    } else {
        host.into()
    }
}

/// True when `path` starts with `/` and no `/` in it is followed by `/`
/// or `.`, so it has no empty, `.` or `..` segment to collapse.
fn is_normal(path: &str) -> bool {
    path.starts_with('/') && !path.contains("//") && !path.contains("/.")
}

/// Collapses `.` and `..` segments and repeated slashes; the result always
/// starts with `/`. A trailing slash is preserved (it distinguishes a
/// directory index from a file). A path its caller has found `normal`
/// (see [`is_normal`]) is returned as it is, copied only if it was
/// borrowed.
fn normalize_path(path: Cow<'_, str>, normal: bool) -> String {
    if normal {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_url() {
        let u = Url::parse("http://dsl.serc.iisc.ernet.in:8080/people#top").unwrap();
        assert_eq!(u.host(), "dsl.serc.iisc.ernet.in");
        assert_eq!(u.port(), 8080);
        assert_eq!(u.path(), "/people");
        assert_eq!(u.fragment(), Some("top"));
    }

    #[test]
    fn parses_schemeless_url() {
        let u = Url::parse("csa.iisc.ernet.in/Labs").unwrap();
        assert_eq!(u.host(), "csa.iisc.ernet.in");
        assert_eq!(u.port(), 80);
        assert_eq!(u.path(), "/Labs");
    }

    #[test]
    fn host_is_lowercased() {
        let u = Url::parse("HTTP://CSA.IISC.ERNET.IN/").unwrap();
        assert_eq!(u.host(), "csa.iisc.ernet.in");
    }

    #[test]
    fn default_path_is_root() {
        let u = Url::parse("http://example.org").unwrap();
        assert_eq!(u.path(), "/");
    }

    #[test]
    fn rejects_empty_and_bad_inputs() {
        assert!(Url::parse("").is_err());
        assert!(Url::parse("http://").is_err());
        assert!(Url::parse("ftp://example.org/x").is_err());
        assert!(Url::parse("http://example.org:notaport/").is_err());
    }

    #[test]
    fn display_round_trips() {
        for s in [
            "http://example.org/",
            "http://example.org/a/b.html",
            "http://example.org:8080/a",
            "http://example.org/a#frag",
        ] {
            let u = Url::parse(s).unwrap();
            assert_eq!(u.to_string(), s);
            assert_eq!(Url::parse(&u.to_string()).unwrap(), u);
        }
    }

    #[test]
    fn normalizes_dot_segments() {
        let u = Url::parse("http://h/a/./b/../c").unwrap();
        assert_eq!(u.path(), "/a/c");
        let u = Url::parse("http://h/../../x").unwrap();
        assert_eq!(u.path(), "/x");
    }

    #[test]
    fn preserves_trailing_slash() {
        assert_eq!(Url::parse("http://h/dir/").unwrap().path(), "/dir/");
        assert_eq!(Url::parse("http://h/").unwrap().path(), "/");
    }

    #[test]
    fn resolve_fragment_only() {
        let base = Url::parse("http://h/a/b.html").unwrap();
        let r = base.resolve("#sec2").unwrap();
        assert_eq!(r.path(), "/a/b.html");
        assert_eq!(r.fragment(), Some("sec2"));
        assert!(r.same_document(&base));
    }

    #[test]
    fn resolve_absolute_path() {
        let base = Url::parse("http://h/a/b.html").unwrap();
        let r = base.resolve("/c/d.html").unwrap();
        assert_eq!(r.to_string(), "http://h/c/d.html");
    }

    #[test]
    fn resolve_relative_path() {
        let base = Url::parse("http://h/a/b.html").unwrap();
        assert_eq!(base.resolve("c.html").unwrap().path(), "/a/c.html");
        assert_eq!(base.resolve("../x.html").unwrap().path(), "/x.html");
        assert_eq!(base.resolve("sub/y.html").unwrap().path(), "/a/sub/y.html");
    }

    #[test]
    fn resolve_absolute_url_replaces_base() {
        let base = Url::parse("http://h/a/").unwrap();
        let r = base.resolve("http://other.org/z").unwrap();
        assert_eq!(r.host(), "other.org");
        assert_eq!(r.path(), "/z");
    }

    #[test]
    fn resolve_protocol_relative() {
        let base = Url::parse("http://h/a").unwrap();
        let r = base.resolve("//other.org/z").unwrap();
        assert_eq!(r.host(), "other.org");
    }

    #[test]
    fn resolve_rejects_foreign_schemes() {
        let base = Url::parse("http://h/a").unwrap();
        assert!(base.resolve("mailto:x@y.org").is_err());
        assert!(base.resolve("ftp://h/file").is_err());
        assert!(base.resolve("javascript:void(0)").is_err());
        // https is accepted (treated as part of the web).
        assert!(base.resolve("https://other/x").is_ok());
    }

    #[test]
    fn resolve_empty_reference_is_base() {
        let base = Url::parse("http://h/a").unwrap();
        assert_eq!(base.resolve("").unwrap(), base);
    }

    #[test]
    fn resolver_shares_each_host_once() {
        let base = Url::parse("http://h/a.html").unwrap();
        let mut resolver = base.resolver();
        let same = resolver.resolve("http://H/b.html").unwrap();
        assert!(Arc::ptr_eq(&same.0.host, &base.0.host));
        let g1 = resolver.resolve("http://g/c").unwrap();
        let g2 = resolver.resolve("//G:80/d").unwrap();
        assert!(Arc::ptr_eq(&g1.0.host, &g2.0.host));
        // Past the table's room, hosts are still resolved, only not shared.
        for i in 0..20 {
            let url = resolver.resolve(&format!("http://Host{i}/x")).unwrap();
            assert_eq!(url.host(), format!("host{i}"));
        }
    }

    #[test]
    fn normal_paths_are_kept_as_they_are() {
        // Whether the caller found it normal or not, a normal path comes
        // back as it is.
        for path in ["/", "/a", "/a/", "/a/b.html", "/a.b/..c/.d"] {
            assert_eq!(normalize_path(path.into(), is_normal(path)), path);
            assert_eq!(normalize_path(path.into(), false), path);
        }
        for (path, normal) in [
            ("", "/"),
            ("a", "/a"),
            ("//", "/"),
            ("/a//b", "/a/b"),
            ("/./", "/"),
            ("/a/.", "/a/"),
            ("/a/b/..", "/a/"),
            ("/../x", "/x"),
        ] {
            assert!(!is_normal(path), "{path}");
            assert_eq!(normalize_path(path.into(), false), normal, "{path}");
        }
    }

    #[test]
    fn site_identity() {
        let a = Url::parse("http://h:81/x").unwrap();
        let b = Url::parse("http://h:81/y").unwrap();
        let c = Url::parse("http://h/x").unwrap();
        assert!(a.same_site(&b));
        assert!(!a.same_site(&c), "different port means different site");
        assert_eq!(a.site().to_string(), "h:81");
        assert_eq!(c.site().to_string(), "h");
    }

    #[test]
    fn without_fragment_strips_only_fragment() {
        let u = Url::parse("http://h/a#x").unwrap();
        let w = u.without_fragment();
        assert_eq!(w.to_string(), "http://h/a");
        assert!(u.same_document(&w));
    }

    #[test]
    fn host_port_split_uses_last_colon() {
        // `rsplit_once` must not mis-split a host containing no colon.
        let u = Url::parse("example.org:8080/a").unwrap();
        assert_eq!((u.host(), u.port()), ("example.org", 8080));
    }
}
