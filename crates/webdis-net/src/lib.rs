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
//! [`tcp`] implements a real transport on `std::net`: length-prefixed
//! frames over one long-lived connection per (sender, receiver) pair,
//! and one `poll`-driven I/O thread per endpoint. The paper's Java
//! daemon dials per dispatch; a connection that carries one frame and
//! closes is the short case of the same code. The deterministic
//! simulated transport lives in `webdis-sim`.

pub mod messages;
pub mod meter;
pub mod tcp;
pub mod wire;

pub use messages::{
    AckMsg, ChtEntry, CloneState, Disposition, FetchRequest, FetchResponse, Message, NodeReport,
    QueryClone, QueryId, ResultReport, StageRows,
};
pub use meter::{WireCounters, MESSAGE_KINDS};
pub use tcp::{send_raw, Closer, ConnPool, Frame, Received, RetryPolicy, TcpEndpoint, TcpError};
pub use wire::{decode_message, encode_message, Wire, WireError};
