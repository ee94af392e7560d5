#![warn(missing_docs)]

//! HTML parsing substrate for WEBDIS.
//!
//! The paper's *Database Constructor* (Section 4.4) makes "a single pass
//! over the associated document" and forms the tuples of the DOCUMENT,
//! ANCHOR and RELINFON virtual relations. This crate implements that pass:
//!
//! * [`tokenize`] — a hand-written, permissive HTML tokenizer (tags with
//!   attributes, text, comments, entity decoding) in the HTML-2.0 spirit of
//!   the paper's reference \[6\]: an iterator of tokens that borrow from
//!   the input and copy a name or a text run only to change it;
//! * [`parse_html`] — a single pass over the token stream extracting the
//!   document [`title`](ParsedDoc::title), the whitespace-normalized
//!   [`text`](ParsedDoc::text), every [`anchor`](RawAnchor) (`<a href>` with
//!   its hypertext label), and every [`rel-infon`](RelInfon): for container
//!   tags like `<b>…</b>` the enclosed text, and for separator tags like
//!   `<hr>` the text segment *preceding* each occurrence (so the paper's
//!   "the convener name is succeeded by a horizontal line" query can match
//!   on `r.delimiter = "hr"`). Labels and rel-infons are spans of the one
//!   text buffer, lent out as `&str`.
//!
//! The parser never fails: real-world HTML is malformed, so unknown syntax
//! degrades to text and unbalanced tags are tolerated.

pub mod parse;
pub mod token;

pub use parse::{parse_html, ParsedDoc, RawAnchor, RelInfon};
pub use token::{tokenize, Attrs, Token, Tokens};
