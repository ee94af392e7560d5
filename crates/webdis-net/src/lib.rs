#![warn(missing_docs)]

//! Wire protocol and transports for WEBDIS.
//!
//! The paper forwards serialized Java query objects over sockets
//! (Section 4); here the wire format is an explicit hand-written binary
//! codec ([`wire`]) so that every experiment can meter exact message and
//! byte counts. The message set ([`messages`]) covers the whole protocol:
//!
//! * [`messages::QueryClone`] — a web-query clone forwarded
//!   between query servers (one per destination *site*, carrying the list
//!   of destination nodes — optimization 4 of Section 3.2);
//! * [`messages::ResultReport`] — results and CHT entries
//!   shipped together, batched per site (optimization 3), sent directly to
//!   the user site (Section 2.6);
//! * [`messages::FetchRequest`] /
//!   [`messages::FetchResponse`] — whole-document transfer,
//!   used only by the centralized data-shipping baseline.
//!
//! [`tcp`] implements a real transport on `std::net`: one listener per
//! endpoint, frames naming the site (slot) they are for, one long-lived
//! connection per pair of endpoints, written once per wait and read and
//! decoded by the thread that waits on the endpoint — no I/O thread. The paper's Java daemon dials
//! per dispatch; a connection that carries one frame and closes is the
//! short case of the same code. The simulated transport is `webdis-sim`.
//! The platform is Linux: the endpoint waits on `epoll(7)` and `ppoll(2)`.

#[cfg(not(target_os = "linux"))]
compile_error!("webdis-net's TCP transport waits on epoll(7): the platform is Linux");

pub mod messages;
pub mod meter;
pub mod tcp;
pub mod wire;

pub use messages::{
    AckMsg, ChtEntry, CloneState, Disposition, FetchRequest, FetchResponse, Message, NodeReport,
    QueryClone, QueryId, ResultReport, StageRows,
};
pub use meter::{WireCounters, MESSAGE_KINDS};
pub use tcp::{Closer, Frame, Outbox, Received, RecvTimeoutError, TcpEndpoint, TcpError};
pub use wire::{decode_message, encode_message, Wire, WireError};
