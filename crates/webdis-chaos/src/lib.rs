//! webdis-chaos: a deterministic chaos harness for the WEBDIS engine.
//!
//! The harness closes the loop the paper's Section 7 opens: WEBDIS
//! claims graceful recovery from site and link failures, so this crate
//! *generates* adversity and *checks* the claim. One master seed
//! expands into a stream of randomized fault schedules — message
//! drops, duplication, byte corruption, link partitions, and daemon
//! crash-restart windows over a generated web topology and DISQL
//! workload ([`FaultScheduleGen`]). Each schedule runs twice through
//! the simulator: once fault-free, once faulted, and an invariant
//! oracle ([`oracle::check`]) compares the two — liveness, row safety,
//! trace coherence (via the doctor's triage), and CHT convergence.
//!
//! A plan's faults are the runtimes' own vocabulary: `webdis_sim::Fault`
//! for the network and `webdis_web::Mutation` for the web, one list of
//! [`ChaosFault`]s. When a schedule fails the oracle, [`shrink()`]
//! delta-debugs that list down to a locally-minimal failing schedule,
//! and [`repro`] serializes it as a replayable `chaos-repro.json`.
//! Everything is seeded, so the same master seed yields byte-identical
//! verdicts ([`verdict_digest`]) on every run.

#![warn(missing_docs)]

pub mod gen;
pub mod oracle;
pub mod plan;
pub mod repro;
pub mod run;
pub mod shrink;

pub use gen::FaultScheduleGen;
pub use oracle::{check, Violation};
pub use plan::{ChaosFault, ChaosPlan};
pub use run::{run_plan, run_tcp_smoke, verdict_digest, ChaosReport};
pub use shrink::{shrink, Shrunk};
