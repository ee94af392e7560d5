#![warn(missing_docs)]

//! A deterministic discrete-event network simulator.
//!
//! The WEBDIS engine is written as transport-agnostic actors; this crate
//! runs them on a virtual clock with an explicit latency model and full
//! metering, which is what every quantitative experiment in
//! `EXPERIMENTS.md` is measured on:
//!
//! * every sent message is **encoded** (so wire bytes are exact, not
//!   estimated), counted in [`Metrics`], and scheduled for delivery at
//!   `now + latency(bytes)` plus deterministic seeded jitter;
//! * delivery order for equal timestamps is FIFO by send order, so runs
//!   are bit-for-bit reproducible for a given seed;
//! * endpoints can deregister mid-run (the user-site closing its result
//!   socket); senders observe this as a synchronous [`SendError`] — the
//!   TCP connection-refused signal the paper's passive termination
//!   (Section 2.8) relies on;
//! * optional jitter-induced reordering and a list of [`Fault`]s (drops,
//!   duplicates, corruption, partitions, crashes) exercise the
//!   robustness corners of the CHT protocol in tests;
//! * everything that happens *at a time* — deliveries, actor timers,
//!   crash and restart edges, the harness's own entries
//!   ([`SimNet::post_host`]) — is an entry of one time-ordered queue.

pub mod metrics;
pub mod net;

pub use metrics::{KindStats, Metrics};
pub use net::{Actor, Ctx, Fault, FaultKind, LatencyModel, SendError, SimConfig, SimEvent, SimNet};
