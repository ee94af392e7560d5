//! The PRE automaton as it stood before containment became a search over
//! derivative pairs, kept as the oracle the derivative engine is tested
//! against: a Thompson NFA, a subset-construction DFA, and containment as
//! a breadth-first search of the product DFA with a shortest witness
//! (`counterexample`). It shares nothing with the product's derivatives
//! but the AST.
//!
//! `nfa.rs` is the parent's product code verbatim, unit tests included. It
//! names `crate::ast::Pre` and `crate::parse::parse`, so a test crate that
//! mounts this directory imports `webdis_pre::{ast, parse}` at its root.
//! Never fix a bug here: a difference the product is meant to have belongs
//! in the property test.

pub mod nfa;
