//! The document path as it stood before the one-pass rewrite, kept as the
//! reference the differential tests compare against: a `Vec<Token>`
//! tokenizer with an owned `String` per name, attribute and text run, and
//! a parser that copies every anchor label and rel-infon out of the text.
//!
//! `token.rs` and `parse.rs` are the parent's product code verbatim, minus
//! their unit tests (which now run against the product parser) and with
//! `parse.rs` importing `super::token` so the directory can be mounted
//! with `#[path]` from any test crate. Never fix a bug here: a difference
//! the new parser is meant to have belongs in the differential test. The
//! one exception is a bug both parsers had, fixed in both: each title run
//! started with a fresh pending-space flag, so `<title>Lab <i>People</i>`
//! read `"LabPeople"`.

pub mod parse;
pub mod token;
