#![warn(missing_docs)]

//! Web model for the WEBDIS distributed query engine.
//!
//! This crate provides the vocabulary the rest of the system is written in,
//! following Section 2 of the paper:
//!
//! * [`Url`] — a lightweight HTTP URL with host / port / path / fragment,
//!   including resolution of relative references against a base document.
//! * [`LinkType`] — the paper's link taxonomy: *interior*, *local*, *global*
//!   (plus the *null* pseudo-link used only inside path regular expressions).
//! * [`Link`] and [`WebGraph`] — the Web modelled as a directed graph whose
//!   vertices are nodes (web resources) and whose edges are typed links.
//!
//! Everything here is plain data with no I/O; the hosting substrate
//! (`webdis-web`) and the engine (`webdis-core`) build on these types.

pub mod graph;
pub mod link;
pub mod url;

pub use graph::{NodeInfo, WebGraph};
pub use link::{Link, LinkType};
pub use url::{Resolver, SiteAddr, Url, UrlParseError};
