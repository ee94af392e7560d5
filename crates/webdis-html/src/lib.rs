#![warn(missing_docs)]

//! HTML parsing substrate for WEBDIS.
//!
//! The paper's *Database Constructor* (Section 4.4) makes "a single pass
//! over the associated document" and forms the tuples of the DOCUMENT,
//! ANCHOR and RELINFON virtual relations. This crate implements that pass:
//!
//! * [`parse_html`] / [`ParsedDoc::parse`] — one byte scan of a page,
//!   permissive in the HTML-2.0 spirit of the paper's reference \[6\]. It
//!   extracts the document [`title`](ParsedDoc::title), every
//!   [`anchor`](RawAnchor) (`<a href>` with its hypertext label), and
//!   every [`rel-infon`](RelInfon): for container tags like `<b>…</b>` the
//!   enclosed text, and for separator tags like `<hr>` the text segment
//!   *preceding* each occurrence (so the paper's "the convener name is
//!   succeeded by a horizontal line" query can match on
//!   `r.delimiter = "hr"`). The body [`text`](ParsedDoc::text), labels and
//!   rel-infon texts are normalised once, when one of them is first read.
//! * [`decode_entities`] and [`escape`] — character references.
//!
//! The parser never fails: real-world HTML is malformed, so unknown syntax
//! degrades to text and unbalanced tags are tolerated.

pub mod entity;
pub mod parse;

pub use entity::{decode_entities, escape};
pub use parse::{parse_html, ParsedDoc, RawAnchor, RelInfon};
