#![warn(missing_docs)]

//! A deterministic discrete-event network simulator.
//!
//! The WEBDIS engine is written as transport-agnostic actors; this crate
//! runs them on a virtual clock with an explicit latency model and full
//! metering, which is what every quantitative experiment in
//! `EXPERIMENTS.md` is measured on:
//!
//! * every sent message is **encoded** (so wire bytes are exact, not
//!   estimated), metered by the [`Ledger`] both runtimes share (read
//!   back as [`Metrics`]), and scheduled for delivery at
//!   `now + latency(bytes)` plus deterministic seeded jitter;
//! * delivery order for equal timestamps is FIFO by send order, so runs
//!   are bit-for-bit reproducible for a given seed;
//! * an endpoint can be down mid-run ([`Injector::down`]: the user site
//!   closing its result socket); senders observe this as a synchronous
//!   [`NetworkError`] — the TCP connection-refused signal the paper's
//!   passive termination (Section 2.8) relies on;
//! * optional jitter-induced reordering and a list of [`Fault`]s (drops,
//!   duplicates, corruption, partitions, crashes) exercise the
//!   robustness corners of the CHT protocol in tests;
//! * everything that happens *at a time* — deliveries, actor timers,
//!   a crash window's restart, the host's own entries — is an entry of one
//!   [`Agenda`], handed on by the one loop, [`Runtime::run_to_host`].
//!
//! Its [`Actor`], [`Event`], [`Network`], [`Agenda`] and [`Runtime`] are
//! the TCP runtime's vocabulary too: the same actors run there
//! unchanged, and what is due at a time comes due in the same order.

pub mod actor;
pub mod agenda;
pub mod fault;
pub mod ledger;
pub mod metrics;
pub mod net;

pub use actor::{Actor, Event, Network, NetworkError, Work};
pub use agenda::{Agenda, Due, Runtime};
pub use fault::{Fault, FaultKind, Injector};
pub use ledger::{Fate, Ledger};
pub use metrics::{KindStats, Metrics};
pub use net::{LatencyModel, ProcModel, SimConfig, SimNet};
