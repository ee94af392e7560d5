//! A real TCP transport (`std::net`) with long-lived connections. The
//! paper's Java platform opens a socket per dispatch; here a sender keeps
//! one connection per peer in a [`ConnPool`] and writes any number of
//! length-prefixed [`Frame`]s down it, dialling only when it has no
//! connection or the peer closed the one it had. Every endpoint runs one
//! I/O thread (the paper's *Query Receiver* / *Result Collector*) that
//! multiplexes its listener and every accepted connection with `poll(2)`
//! and reassembles frames onto a channel; the receiving thread decodes
//! them. A connection that carries one frame and closes ([`send_to`]) is
//! the short case of the same code.
//!
//! Passive query termination (Section 2.8) still falls out of the
//! design: closing a [`TcpEndpoint`] closes its listener and every
//! accepted connection, a pooled sender sees that *before* it writes, its
//! re-dial is refused, and the server purges the query locally.

use std::collections::hash_map::{Entry, HashMap};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::messages::Message;
use crate::meter::WireCounters;
use crate::wire::{decode_message, Wire};

/// Maximum accepted frame size (16 MiB) — a defence against hostile or
/// corrupt length prefixes. Admin-socket clients bound the responses
/// they read by the same figure.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Bytes of the big-endian length prefix in front of every payload.
const PREFIX: usize = 4;

/// How long a connection may sit on an incomplete frame without a byte
/// of progress before the endpoint drops it — the slowloris bound. A
/// connection idle *between* frames may stay open indefinitely.
const FRAME_STALL_BOUND: Duration = Duration::from_secs(10);

/// Bytes read from a socket per `read` call, and the capacity above which
/// a connection's reassembly buffer is released once it has emptied.
const READ_CHUNK: usize = 64 * 1024;

/// Reads from one ready connection per turn of the I/O loop, so a peer
/// that writes without pause cannot starve the others.
const READS_PER_TURN: usize = 16;

/// Transport error.
#[derive(Debug)]
pub enum TcpError {
    /// Socket-level failure.
    Io(io::Error),
    /// A frame larger than the 16 MiB frame limit.
    FrameTooLarge(u32),
    /// The peer stalled mid-frame past the stall bound (a slowloris
    /// peer, a dying host). Transient: the sender may retry.
    Timeout,
}

impl std::fmt::Display for TcpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TcpError::Io(e) => write!(f, "transport I/O error: {e}"),
            TcpError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            TcpError::Timeout => write!(f, "peer stalled mid-frame (read timeout)"),
        }
    }
}

impl std::error::Error for TcpError {}

impl From<io::Error> for TcpError {
    fn from(e: io::Error) -> TcpError {
        TcpError::Io(e)
    }
}

impl TcpError {
    /// True for failures worth retrying: timeouts, resets, interrupted
    /// connects. Connection refused is explicitly NOT transient — a
    /// refused result dispatch is the paper's passive-termination signal
    /// (Section 2.8), and retrying it would keep dead queries alive.
    pub fn is_transient(&self) -> bool {
        match self {
            TcpError::Io(e) => !matches!(e.kind(), io::ErrorKind::ConnectionRefused),
            TcpError::Timeout => true,
            TcpError::FrameTooLarge(_) => false,
        }
    }
}

/// Bounded-retry policy for [`ConnPool::send_retrying`]: exponential
/// backoff starting at
/// `base_backoff`, doubling per attempt.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Extra attempts after the first (0 = a plain send).
    pub max_retries: u32,
    /// Sleep before the first retry; doubles each subsequent retry.
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(10),
        }
    }
}

/// Runs `op` under `policy`, sleeping between attempts. Only transient
/// errors are retried; `on_retry(attempt)` fires before each retry
/// (attempt numbering starts at 1).
fn with_retries<T>(
    policy: RetryPolicy,
    mut on_retry: impl FnMut(u32),
    mut op: impl FnMut() -> Result<T, TcpError>,
) -> Result<T, TcpError> {
    let mut backoff = policy.base_backoff;
    let mut attempt = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() && attempt < policy.max_retries => {
                attempt += 1;
                on_retry(attempt);
                std::thread::sleep(backoff);
                backoff *= 2;
            }
            Err(e) => return Err(e),
        }
    }
}

/// One wire frame: the 4-byte big-endian payload length, then the
/// payload, contiguous so the whole frame goes out in one `write`. A
/// message is encoded into it once; the sender reads its byte count off
/// [`payload`](Frame::payload) instead of encoding again to measure.
pub struct Frame(Vec<u8>);

impl Frame {
    /// Encodes `msg` straight behind the space reserved for the prefix.
    pub fn encode(msg: &Message) -> Result<Frame, TcpError> {
        Frame::build(|buf| msg.encode(buf))
    }

    /// Frames a pre-encoded payload as-is — the fault-injection path: a
    /// chaos harness flips bytes in an encoded message and ships the
    /// damaged payload so the receiver's decode error handling runs
    /// against a real socket.
    pub fn from_payload(payload: &[u8]) -> Result<Frame, TcpError> {
        Frame::build(|buf| buf.extend_from_slice(payload))
    }

    /// Lets `fill` append the payload behind a placeholder prefix, then
    /// writes the real length into it.
    fn build(fill: impl FnOnce(&mut Vec<u8>)) -> Result<Frame, TcpError> {
        let mut buf = Vec::with_capacity(128);
        buf.extend_from_slice(&[0; PREFIX]);
        fill(&mut buf);
        let len =
            u32::try_from(buf.len() - PREFIX).map_err(|_| TcpError::FrameTooLarge(u32::MAX))?;
        if len > MAX_FRAME {
            return Err(TcpError::FrameTooLarge(len));
        }
        buf[..PREFIX].copy_from_slice(&len.to_be_bytes());
        Ok(Frame(buf))
    }

    /// The encoded message, without the prefix.
    pub fn payload(&self) -> &[u8] {
        &self.0[PREFIX..]
    }

    /// The payload, for damaging in place. The length prefix is out of
    /// reach, so a damaged frame still frames correctly.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.0[PREFIX..]
    }

    /// The one frame writer: pooled and one-shot sends both end here.
    fn write_to(&self, stream: &mut TcpStream) -> io::Result<()> {
        stream.write_all(&self.0)
    }

    /// Connect, write, close: a connection that lives for one frame.
    fn send_once<A: ToSocketAddrs>(&self, addr: A) -> Result<(), TcpError> {
        Ok(self.write_to(&mut TcpStream::connect(addr)?)?)
    }
}

/// Sends one message on a connection of its own: connect, frame, write,
/// close. The engine sends through a [`ConnPool`]; this is for callers
/// with a single message to deliver.
pub fn send_to<A: ToSocketAddrs>(addr: A, msg: &Message) -> Result<(), TcpError> {
    Frame::encode(msg)?.send_once(addr)
}

/// Sends one raw, pre-encoded payload on a connection of its own (see
/// [`Frame::from_payload`]). A well-formed payload is equivalent to
/// [`send_to`].
pub fn send_raw<A: ToSocketAddrs>(addr: A, payload: &[u8]) -> Result<(), TcpError> {
    Frame::from_payload(payload)?.send_once(addr)
}

/// A sender's long-lived connections, one per peer, dialled on first use
/// (`TCP_NODELAY`: a frame is one `write` and must not wait for the
/// previous frame's ACK). One pool belongs to one thread, so there are no
/// locks; cloning a pool yields an **empty** one that shares only the
/// meter.
#[derive(Default)]
pub struct ConnPool {
    conns: HashMap<SocketAddr, TcpStream>,
    meter: Option<Arc<WireCounters>>,
}

impl Clone for ConnPool {
    fn clone(&self) -> ConnPool {
        ConnPool {
            conns: HashMap::new(),
            meter: self.meter.clone(),
        }
    }
}

impl ConnPool {
    /// An empty pool that counts every dial on `meter`
    /// ([`WireCounters::connects`]).
    pub fn metered(meter: Arc<WireCounters>) -> ConnPool {
        ConnPool {
            conns: HashMap::new(),
            meter: Some(meter),
        }
    }

    /// Writes `frame` down the connection to `addr`, dialling first when
    /// there is none or the peer has closed it. Liveness is checked
    /// *before* the write: a write to a connection the peer already
    /// closed succeeds locally and the frame vanishes, which would turn
    /// passive termination's "this send fails" into "the next one does".
    /// A failed write discards the connection, so a retry starts a fresh
    /// one and framing can never resume mid-frame.
    pub fn send(&mut self, addr: SocketAddr, frame: &Frame) -> Result<(), TcpError> {
        if self.conns.get(&addr).is_some_and(peer_closed) {
            self.conns.remove(&addr);
        }
        let stream = match self.conns.entry(addr) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                if let Some(meter) = &self.meter {
                    meter.record_connect();
                }
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                e.insert(stream)
            }
        };
        if let Err(e) = frame.write_to(stream) {
            self.conns.remove(&addr);
            return Err(e.into());
        }
        Ok(())
    }

    /// [`send`](ConnPool::send) with bounded retry + exponential backoff
    /// on transient failures. Connection-refused fails immediately
    /// (passive termination).
    pub fn send_retrying(
        &mut self,
        addr: SocketAddr,
        frame: &Frame,
        policy: RetryPolicy,
        on_retry: impl FnMut(u32),
    ) -> Result<(), TcpError> {
        with_retries(policy, on_retry, || self.send(addr, frame))
    }
}

/// True when the peer has closed (or reset) a pooled connection. The
/// protocol is one-way — an endpoint never writes — so the only thing
/// that can make a sender's socket readable is the peer's FIN or RST.
fn peer_closed(stream: &TcpStream) -> bool {
    let mut fd = [sys::PollFd::new(stream)];
    sys::wait_readable(&mut fd, Some(Duration::ZERO)).is_err() || fd[0].ready()
}

/// `poll(2)`, the one system call this transport needs that `std` does
/// not wrap (`std` already links the C library it lives in).
mod sys {
    use std::io;
    use std::time::Duration;

    const POLLIN: i16 = 0x001;

    /// One socket to wait on, laid out as C's `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    impl PollFd {
        #[cfg(unix)]
        pub fn new(socket: &impl std::os::unix::io::AsRawFd) -> PollFd {
            PollFd {
                fd: socket.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            }
        }

        #[cfg(not(unix))]
        pub fn new<S>(_socket: &S) -> PollFd {
            PollFd {
                fd: 0,
                events: POLLIN,
                revents: 0,
            }
        }

        /// True when the last wait found data, end of stream, hang-up or
        /// an error on the socket.
        pub fn ready(&self) -> bool {
            self.revents != 0
        }
    }

    #[cfg(any(target_os = "linux", target_os = "android"))]
    type NfdsT = std::os::raw::c_ulong;
    #[cfg(all(unix, not(any(target_os = "linux", target_os = "android"))))]
    type NfdsT = std::os::raw::c_uint;

    /// Blocks until a socket in `fds` is ready or `timeout` passes
    /// (`None`: no limit), then says which through [`PollFd::ready`].
    #[cfg(unix)]
    pub fn wait_readable(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
        extern "C" {
            fn poll(fds: *mut PollFd, nfds: NfdsT, timeout_ms: i32) -> i32;
        }
        // Rounded up, so a deadline a fraction of a millisecond away is
        // slept through rather than spun on.
        let timeout_ms = timeout.map_or(-1, |t| {
            i32::try_from(t.as_micros().div_ceil(1000)).unwrap_or(i32::MAX)
        });
        loop {
            // SAFETY: `fds` is an exclusively borrowed slice of
            // `#[repr(C)]` structs with `struct pollfd`'s layout and
            // `nfds` is its length, so the kernel reads and writes only
            // inside the slice; a stale descriptor in it is reported as
            // POLLNVAL, not dereferenced.
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
            if n >= 0 {
                return Ok(());
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
    }

    /// Without `poll(2)` every socket is reported ready after a
    /// millisecond: the endpoint's non-blocking reads sort out which
    /// really are, and a pooled sender, unable to tell a live connection
    /// from a closed one, dials per message.
    #[cfg(not(unix))]
    pub fn wait_readable(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
        let nap = Duration::from_millis(1);
        std::thread::sleep(timeout.map_or(nap, |t| t.min(nap)));
        for fd in fds {
            fd.revents = POLLIN;
        }
        Ok(())
    }
}

/// One accepted connection in the endpoint's I/O loop: a non-blocking
/// socket and the bytes received so far of a frame not yet complete. The
/// one frame reader: a connection that carries a single frame and closes
/// goes through the same code.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// When the incomplete frame at the front of `buf` last grew; `None`
    /// between frames.
    last_progress: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
            last_progress: None,
        })
    }

    /// One turn of the I/O loop: read what a `readable` socket holds,
    /// hand the payload of every complete frame to `deliver`, and hold
    /// an incomplete one against the `stall` bound. `Err` says why the
    /// connection has to be dropped; whatever partial frame it held goes
    /// with it.
    fn service(
        &mut self,
        readable: bool,
        now: Instant,
        stall: Duration,
        chunk: &mut [u8],
        deliver: &mut impl FnMut(&[u8]),
    ) -> Result<(), TcpError> {
        if readable {
            for _ in 0..READS_PER_TURN {
                match self.stream.read(chunk) {
                    Ok(0) => return Err(TcpError::Io(io::ErrorKind::UnexpectedEof.into())),
                    Ok(n) => {
                        self.buf.extend_from_slice(&chunk[..n]);
                        self.last_progress = Some(now);
                        if n < chunk.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(TcpError::Io(e)),
                }
            }
            self.take_frames(deliver)?;
        }
        match self.last_progress {
            Some(t) if now.duration_since(t) >= stall => Err(TcpError::Timeout),
            _ => Ok(()),
        }
    }

    /// Delivers every complete frame in `buf` and keeps the remainder.
    fn take_frames(&mut self, deliver: &mut impl FnMut(&[u8])) -> Result<(), TcpError> {
        let mut at = 0;
        while let Some(prefix) = self.buf.get(at..at + PREFIX) {
            let len = u32::from_be_bytes(prefix.try_into().expect("PREFIX bytes"));
            if len > MAX_FRAME {
                return Err(TcpError::FrameTooLarge(len));
            }
            let end = at + PREFIX + len as usize;
            let Some(payload) = self.buf.get(at + PREFIX..end) else {
                // The rest of this frame is still to come: make room for
                // it in one step rather than by doubling.
                self.buf.reserve(end - self.buf.len());
                break;
            };
            deliver(payload);
            at = end;
        }
        self.buf.drain(..at);
        if self.buf.is_empty() {
            self.last_progress = None;
            if self.buf.capacity() > READ_CHUNK {
                self.buf = Vec::new();
            }
        }
        Ok(())
    }
}

/// A message taken off an endpoint's inbound queue.
pub struct Received {
    /// The decoded message.
    pub msg: Message,
    /// How long its frame sat in the inbound queue between arriving
    /// whole and this receive — the wall-clock queue wait behind the
    /// `queue_us` span.
    pub queued: Duration,
    /// Size of its encoded payload as it came off the wire.
    pub wire_bytes: usize,
}

/// A complete frame's payload on its way from the I/O thread to the
/// consumer, still encoded. The *consumer* decodes it: the strings and
/// rows of a message are then allocated by the thread that goes on to
/// own and free them, not by an I/O thread whose allocator arena would
/// otherwise fill up with every other thread's long-lived data.
struct Inbound {
    payload: Vec<u8>,
    at: Instant,
}

/// A listening endpoint: one I/O thread accepts connections, reads any
/// number of frames from each, and queues the payloads on an unbounded
/// channel — it never waits for the consumer, so two daemons writing
/// large frames at each other cannot deadlock. Dropping (or calling
/// [`close`](TcpEndpoint::close)) closes the listener and every accepted
/// connection — this is how a user-site terminates a query passively.
pub struct TcpEndpoint {
    closer: Closer,
    rx: Receiver<Inbound>,
    /// Frames enqueued but not yet received — the inbound queue depth a
    /// daemon loop reports as backpressure.
    depth: Arc<AtomicUsize>,
    io_thread: Option<JoinHandle<()>>,
}

/// Closes a [`TcpEndpoint`] from a thread other than the one receiving
/// from it ([`TcpEndpoint::closer`]).
#[derive(Clone)]
pub struct Closer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
}

impl Closer {
    /// Stops the endpoint's I/O thread, which closes the listener and
    /// every accepted connection and hangs up the inbound queue: a
    /// receiver asleep in [`TcpEndpoint::recv_timeout_sized`] wakes with
    /// `Disconnected`. Idempotent.
    pub fn close(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            // Wake the I/O thread's poll with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
        }
    }
}

impl TcpEndpoint {
    /// Binds a listener (use port 0 for an ephemeral port) and starts the
    /// I/O thread.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<TcpEndpoint> {
        TcpEndpoint::bind_with_stall_bound(addr, FRAME_STALL_BOUND)
    }

    fn bind_with_stall_bound<A: ToSocketAddrs>(
        addr: A,
        stall: Duration,
    ) -> io::Result<TcpEndpoint> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (tx, rx) = unbounded();
        let depth = Arc::new(AtomicUsize::new(0));
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let depth_tx = Arc::clone(&depth);
        let closer = Closer { addr, shutdown };
        let io_thread = std::thread::Builder::new()
            .name(format!("webdis-io-{addr}"))
            .spawn(move || io_loop(listener, stall, tx, depth_tx, flag))?;
        Ok(TcpEndpoint {
            closer,
            rx,
            depth,
            io_thread: Some(io_thread),
        })
    }

    /// The bound address (with the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.closer.addr
    }

    /// A handle that closes this endpoint from another thread.
    pub fn closer(&self) -> Closer {
        self.closer.clone()
    }

    /// True once the endpoint has been told to close.
    pub fn closing(&self) -> bool {
        self.closer.shutdown.load(Ordering::SeqCst)
    }

    /// Receives the next message, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Message, RecvTimeoutError> {
        self.recv_timeout_sized(timeout).map(|r| r.msg)
    }

    /// Like [`recv_timeout`](TcpEndpoint::recv_timeout), but also
    /// reports how long the message sat in the inbound queue and the
    /// size it had on the wire, so a receiver that accounts for bytes
    /// need not encode the message again to count them. A `timeout` too
    /// long to add to the clock (`Duration::MAX`) is no timeout: the
    /// call sleeps until a message arrives or the endpoint is closed.
    pub fn recv_timeout_sized(&self, timeout: Duration) -> Result<Received, RecvTimeoutError> {
        let deadline = Instant::now().checked_add(timeout);
        loop {
            let left = deadline.map_or(Duration::MAX, |d| {
                d.saturating_duration_since(Instant::now())
            });
            if let Some(received) = self.decode(self.rx.recv_timeout(left)?) {
                return Ok(received);
            }
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Message> {
        loop {
            if let Some(received) = self.decode(self.rx.try_recv().ok()?) {
                return Some(received.msg);
            }
        }
    }

    /// Takes one frame off the queue's books and decodes it. `None` for
    /// an undecodable payload: it had an intact length prefix, so framing
    /// on its connection is still in step and only that frame is lost —
    /// a long-running daemon must survive garbage.
    fn decode(&self, inbound: Inbound) -> Option<Received> {
        self.depth.fetch_sub(1, Ordering::SeqCst);
        let queued = inbound.at.elapsed();
        let msg = decode_message(&inbound.payload).ok()?;
        Some(Received {
            msg,
            queued,
            wire_bytes: inbound.payload.len(),
        })
    }

    /// Frames currently waiting in the inbound queue.
    pub fn pending(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
    }

    /// Stops the I/O thread and joins it, which closes the listener and
    /// every accepted connection. Any peer that subsequently tries to
    /// send to this endpoint gets a connection error — the passive
    /// termination signal.
    pub fn close(&mut self) {
        self.closer.close();
        if let Some(handle) = self.io_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TcpEndpoint {
    fn drop(&mut self) {
        self.close();
    }
}

/// The endpoint's I/O thread: waits on the listener and every accepted
/// connection at once, and sleeps in `poll` — without a timeout unless a
/// connection is mid-frame — when none has anything to say.
fn io_loop(
    listener: TcpListener,
    stall: Duration,
    tx: Sender<Inbound>,
    depth: Arc<AtomicUsize>,
    shutdown: Arc<AtomicBool>,
) {
    // Persistent accept or poll errors (EMFILE and friends) would
    // otherwise busy-spin this thread at 100% CPU.
    const ERROR_PAUSE: Duration = Duration::from_millis(10);
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<sys::PollFd> = Vec::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut deliver = |payload: &[u8]| {
        // Raise depth before the send so a receiver that dequeues
        // immediately never observes an undercount.
        depth.fetch_add(1, Ordering::SeqCst);
        let inbound = Inbound {
            payload: payload.to_vec(),
            at: Instant::now(),
        };
        if tx.send(inbound).is_err() {
            depth.fetch_sub(1, Ordering::SeqCst);
        }
    };
    loop {
        fds.clear();
        fds.push(sys::PollFd::new(&listener));
        fds.extend(conns.iter().map(|c| sys::PollFd::new(&c.stream)));
        let next_stall = conns
            .iter()
            .filter_map(|c| c.last_progress)
            .min()
            .map(|oldest| (oldest + stall).saturating_duration_since(Instant::now()));
        if sys::wait_readable(&mut fds, next_stall).is_err() {
            std::thread::sleep(ERROR_PAUSE);
            continue;
        }
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let now = Instant::now();
        // `fds[0]` is the listener and `fds[i + 1]` is `conns[i]`;
        // `retain_mut` visits in order, and connections accepted this
        // turn are pushed only afterwards.
        let mut ready = fds[1..].iter().map(sys::PollFd::ready);
        conns.retain_mut(|conn| {
            let readable = ready.next().expect("one fd per connection");
            // Garbage, a stalled peer, an oversized prefix and a closed
            // connection all end the same way: this connection is
            // dropped, every other one is untouched.
            conn.service(readable, now, stall, &mut chunk, &mut deliver)
                .is_ok()
        });
        if fds[0].ready() {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => conns.extend(Conn::new(stream)),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        std::thread::sleep(ERROR_PAUSE);
                        break;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{FetchRequest, FetchResponse};
    use crate::wire::encode_message;
    use webdis_model::Url;

    fn fetch_msg(path: &str) -> Message {
        Message::Fetch(FetchRequest {
            url: Url::parse(&format!("http://h{path}")).unwrap(),
            reply_host: "user".into(),
            reply_port: 9,
        })
    }

    #[test]
    fn round_trip_over_loopback() {
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let msg = fetch_msg("/x");
        send_to(ep.local_addr(), &msg).unwrap();
        let got = ep.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn multiple_messages_in_order_of_arrival() {
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        for i in 0..10 {
            send_to(ep.local_addr(), &fetch_msg(&format!("/doc{i}"))).unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..10 {
            got.push(ep.recv_timeout(Duration::from_secs(5)).unwrap());
        }
        assert_eq!(got.len(), 10);
    }

    #[test]
    fn large_message() {
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let big = "x".repeat(1 << 20);
        let msg = Message::FetchReply(FetchResponse {
            url: Url::parse("http://h/big").unwrap(),
            html: Some(big),
        });
        send_to(ep.local_addr(), &msg).unwrap();
        assert_eq!(ep.recv_timeout(Duration::from_secs(5)).unwrap(), msg);
    }

    #[test]
    fn queued_receive_reports_wait_and_depth() {
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        for i in 0..3 {
            send_to(ep.local_addr(), &fetch_msg(&format!("/doc{i}"))).unwrap();
        }
        // Wait until all three frames have been decoded and enqueued.
        let start = std::time::Instant::now();
        while ep.pending() < 3 && start.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(ep.pending(), 3);
        std::thread::sleep(Duration::from_millis(20));
        let first = ep.recv_timeout_sized(Duration::from_secs(5)).unwrap();
        assert!(
            first.queued >= Duration::from_millis(20),
            "messages sat at least the sleep: {:?}",
            first.queued
        );
        assert_eq!(first.wire_bytes, encode_message(&first.msg).len());
        assert_eq!(ep.pending(), 2);
        ep.try_recv().unwrap();
        ep.try_recv().unwrap();
        assert_eq!(ep.pending(), 0);
    }

    #[test]
    fn send_to_closed_endpoint_fails() {
        let mut ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let addr = ep.local_addr();
        ep.close();
        // The listener is gone: connection refused (the passive
        // termination signal the paper relies on).
        assert!(send_to(addr, &fetch_msg("/x")).is_err());
    }

    #[test]
    fn close_is_idempotent() {
        let mut ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        ep.close();
        ep.close();
    }

    #[test]
    fn slow_sender_does_not_block_fast_sender() {
        // Regression: a connection that sends only the length prefix and
        // then stalls used to hold the accept thread inside read_frame
        // for the full 10 s read timeout, head-of-line-blocking everyone.
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let addr = ep.local_addr();
        let stalled = TcpStream::connect(addr).unwrap();
        (&stalled).write_all(&64u32.to_be_bytes()).unwrap();
        // ... and never sends the payload.
        std::thread::sleep(Duration::from_millis(100));
        let msg = fetch_msg("/fast");
        send_to(addr, &msg).unwrap();
        let got = ep
            .recv_timeout(Duration::from_secs(1))
            .expect("fast sender must not wait behind the stalled one");
        assert_eq!(got, msg);
        drop(stalled);
    }

    #[test]
    fn stalled_peer_surfaces_as_transient_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // A slowloris peer: sends the length prefix, never the payload.
        let stalled = TcpStream::connect(addr).unwrap();
        (&stalled).write_all(&64u32.to_be_bytes()).unwrap();
        let mut conn = Conn::new(listener.accept().unwrap().0).unwrap();
        let stall = Duration::from_millis(50);
        let mut chunk = [0u8; 64];
        let mut deliver = |_: &[u8]| panic!("no complete frame was sent");
        while conn.last_progress.is_none() {
            conn.service(true, Instant::now(), stall, &mut chunk, &mut deliver)
                .expect("a frame in progress is not an error before the bound");
        }
        let err = conn
            .service(
                false,
                Instant::now() + stall,
                stall,
                &mut chunk,
                &mut deliver,
            )
            .unwrap_err();
        assert!(matches!(err, TcpError::Timeout), "{err}");
        assert!(err.is_transient(), "a stalled peer is worth retrying");
        drop(stalled);
    }

    #[test]
    fn corrupted_raw_frame_is_dropped_not_fatal() {
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        // Encode a real message, then flip a byte mid-payload — the
        // receiver's decode path must reject it and survive.
        let mut payload = encode_message(&fetch_msg("/x"));
        let mid = payload.len() / 2;
        payload[mid] ^= 0xff;
        send_raw(ep.local_addr(), &payload).unwrap();
        // The endpoint still works afterwards; the damaged frame is gone.
        let msg = fetch_msg("/ok");
        send_to(ep.local_addr(), &msg).unwrap();
        assert_eq!(ep.recv_timeout(Duration::from_secs(5)).unwrap(), msg);
        assert!(ep.try_recv().is_none(), "corrupt frame must not deliver");
    }

    #[test]
    fn transient_errors_are_retried_with_backoff() {
        let mut failures_left = 2;
        let mut retries = Vec::new();
        let out = with_retries(
            RetryPolicy {
                max_retries: 3,
                base_backoff: Duration::from_millis(1),
            },
            |attempt| retries.push(attempt),
            || {
                if failures_left > 0 {
                    failures_left -= 1;
                    Err(TcpError::Io(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "connect timed out",
                    )))
                } else {
                    Ok(())
                }
            },
        );
        assert!(out.is_ok());
        assert_eq!(retries, vec![1, 2]);
    }

    #[test]
    fn retries_are_bounded() {
        let mut attempts = 0;
        let out: Result<(), _> = with_retries(
            RetryPolicy {
                max_retries: 2,
                base_backoff: Duration::from_millis(1),
            },
            |_| {},
            || {
                attempts += 1;
                Err(TcpError::Io(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "reset",
                )))
            },
        );
        assert!(out.is_err());
        assert_eq!(attempts, 3, "initial try + 2 retries");
    }

    #[test]
    fn connection_refused_is_never_retried() {
        let mut attempts = 0;
        let out: Result<(), _> = with_retries(
            RetryPolicy::default(),
            |_| panic!("refused must not trigger a retry"),
            || {
                attempts += 1;
                Err(TcpError::Io(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    "refused",
                )))
            },
        );
        assert!(out.is_err());
        assert_eq!(attempts, 1);
    }

    #[test]
    fn garbage_frames_are_dropped_not_fatal() {
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        // Send raw garbage (valid length prefix, invalid payload).
        let mut stream = TcpStream::connect(ep.local_addr()).unwrap();
        stream.write_all(&3u32.to_be_bytes()).unwrap();
        stream.write_all(&[0xff, 0xff, 0xff]).unwrap();
        drop(stream);
        // Endpoint still works afterwards.
        let msg = fetch_msg("/ok");
        send_to(ep.local_addr(), &msg).unwrap();
        assert_eq!(ep.recv_timeout(Duration::from_secs(5)).unwrap(), msg);
    }

    // ---- persistent connections ----

    const WAIT: Duration = Duration::from_secs(5);

    fn metered_pool() -> (ConnPool, Arc<WireCounters>) {
        let meter = Arc::new(WireCounters::new());
        (ConnPool::metered(Arc::clone(&meter)), meter)
    }

    fn send_pooled(pool: &mut ConnPool, addr: SocketAddr, msg: &Message) {
        pool.send(addr, &Frame::encode(msg).unwrap()).unwrap();
    }

    fn big_msg(bytes: usize) -> Message {
        Message::FetchReply(FetchResponse {
            url: Url::parse("http://h/big").unwrap(),
            html: Some("x".repeat(bytes)),
        })
    }

    /// Reads until the peer closes or resets the connection; panics when
    /// it does neither within [`WAIT`].
    fn assert_closed_by_peer(mut stream: &TcpStream) {
        stream.set_read_timeout(Some(WAIT)).unwrap();
        match stream.read(&mut [0u8; 1]) {
            Ok(0) => {}
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
            other => panic!("endpoint kept the connection open: {other:?}"),
        }
    }

    #[test]
    fn thousand_frames_over_one_connection_arrive_in_order() {
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let (mut pool, meter) = metered_pool();
        for i in 0..1000 {
            send_pooled(&mut pool, ep.local_addr(), &fetch_msg(&format!("/doc{i}")));
        }
        for i in 0..1000 {
            assert_eq!(
                ep.recv_timeout(WAIT).unwrap(),
                fetch_msg(&format!("/doc{i}"))
            );
        }
        assert_eq!(meter.connects(), 1, "one dial carried all 1000 frames");
    }

    #[test]
    fn three_senders_interleave_without_loss() {
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let addr = ep.local_addr();
        std::thread::scope(|s| {
            for sender in 0..3 {
                s.spawn(move || {
                    let mut pool = ConnPool::default();
                    for i in 0..200 {
                        let msg = fetch_msg(&format!("/s{sender}/{i}"));
                        send_pooled(&mut pool, addr, &msg);
                    }
                });
            }
            let mut next = [0usize; 3];
            for _ in 0..600 {
                let Message::Fetch(f) = ep.recv_timeout(WAIT).unwrap() else {
                    panic!("only fetch requests were sent");
                };
                let (sender, i) = f.url.path()[2..].split_once('/').unwrap();
                let sender: usize = sender.parse().unwrap();
                assert_eq!(
                    i.parse::<usize>().unwrap(),
                    next[sender],
                    "per-sender order"
                );
                next[sender] += 1;
            }
            assert_eq!(next, [200; 3]);
        });
    }

    #[test]
    fn frame_split_into_one_byte_writes_reassembles() {
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let msg = fetch_msg("/split");
        let mut stream = TcpStream::connect(ep.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        for byte in &Frame::encode(&msg).unwrap().0 {
            stream.write_all(&[*byte]).unwrap();
        }
        assert_eq!(ep.recv_timeout(WAIT).unwrap(), msg);
    }

    #[test]
    fn two_frames_in_one_write_both_deliver() {
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let (a, b) = (fetch_msg("/a"), fetch_msg("/b"));
        let mut bytes = Frame::encode(&a).unwrap().0;
        bytes.extend_from_slice(&Frame::encode(&b).unwrap().0);
        let mut stream = TcpStream::connect(ep.local_addr()).unwrap();
        stream.write_all(&bytes).unwrap();
        assert_eq!(ep.recv_timeout(WAIT).unwrap(), a);
        assert_eq!(ep.recv_timeout(WAIT).unwrap(), b);
    }

    #[test]
    fn undecodable_frame_does_not_cost_the_next_frame_on_the_connection() {
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let (mut pool, meter) = metered_pool();
        let garbage = Frame::from_payload(&[0xff, 0xff, 0xff]).unwrap();
        pool.send(ep.local_addr(), &garbage).unwrap();
        let msg = fetch_msg("/after-garbage");
        send_pooled(&mut pool, ep.local_addr(), &msg);
        assert_eq!(ep.recv_timeout(WAIT).unwrap(), msg);
        assert!(ep.try_recv().is_none(), "garbage must not deliver");
        assert_eq!(meter.connects(), 1, "both frames used one connection");
    }

    #[test]
    fn oversized_length_prefix_closes_that_connection_only() {
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let mut pool = ConnPool::default();
        let before = fetch_msg("/before");
        send_pooled(&mut pool, ep.local_addr(), &before);
        assert_eq!(ep.recv_timeout(WAIT).unwrap(), before);

        let hostile = TcpStream::connect(ep.local_addr()).unwrap();
        (&hostile)
            .write_all(&(MAX_FRAME + 1).to_be_bytes())
            .unwrap();
        assert_closed_by_peer(&hostile);

        // The pooled connection that was open all along still delivers.
        let after = fetch_msg("/after");
        send_pooled(&mut pool, ep.local_addr(), &after);
        assert_eq!(ep.recv_timeout(WAIT).unwrap(), after);
    }

    #[test]
    fn peer_stalled_mid_frame_is_dropped_while_others_deliver() {
        let stall = Duration::from_millis(100);
        let ep = TcpEndpoint::bind_with_stall_bound("127.0.0.1:0", stall).unwrap();
        let stalled = TcpStream::connect(ep.local_addr()).unwrap();
        let since = Instant::now();
        (&stalled).write_all(&64u32.to_be_bytes()).unwrap();

        let mut pool = ConnPool::default();
        let during = fetch_msg("/during");
        send_pooled(&mut pool, ep.local_addr(), &during);
        assert_eq!(ep.recv_timeout(WAIT).unwrap(), during);

        assert_closed_by_peer(&stalled);
        assert!(since.elapsed() >= stall, "dropped only after the bound");
        let after = fetch_msg("/after");
        send_pooled(&mut pool, ep.local_addr(), &after);
        assert_eq!(ep.recv_timeout(WAIT).unwrap(), after);
    }

    #[test]
    fn first_pooled_send_after_endpoint_close_fails_for_good() {
        let mut ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let addr = ep.local_addr();
        let mut pool = ConnPool::default();
        let frame = Frame::encode(&fetch_msg("/x")).unwrap();
        pool.send(addr, &frame).unwrap();
        ep.recv_timeout(WAIT).unwrap();
        ep.close();
        // Passive termination (Section 2.8): not "the send after next".
        let err = pool.send(addr, &frame).unwrap_err();
        assert!(!err.is_transient(), "refused, not retried: {err}");
        let mut retries = 0;
        let again = pool.send_retrying(addr, &frame, RetryPolicy::default(), |_| retries += 1);
        assert!(again.is_err());
        // A pool that never had a connection is refused the same way.
        let fresh = ConnPool::default()
            .send_retrying(addr, &frame, RetryPolicy::default(), |_| retries += 1);
        assert!(fresh.is_err());
        assert_eq!(retries, 0, "passive termination must not be retried");
    }

    #[test]
    fn closer_wakes_a_receiver_that_waits_without_limit() {
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let closer = ep.closer();
        let receiver = std::thread::spawn(move || {
            let got = ep.recv_timeout_sized(Duration::MAX);
            (got.err(), ep.closing())
        });
        closer.close();
        closer.close();
        let (err, closing) = receiver.join().unwrap();
        assert_eq!(err, Some(RecvTimeoutError::Disconnected));
        assert!(closing);
    }

    #[test]
    fn send_after_peer_rebinds_the_same_port_reconnects() {
        let mut ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let addr = ep.local_addr();
        let (mut pool, meter) = metered_pool();
        let first = fetch_msg("/first-life");
        send_pooled(&mut pool, addr, &first);
        assert_eq!(ep.recv_timeout(WAIT).unwrap(), first);
        ep.close();

        let reborn = TcpEndpoint::bind(addr).expect("re-bind the port just closed");
        let second = fetch_msg("/second-life");
        send_pooled(&mut pool, addr, &second);
        assert_eq!(reborn.recv_timeout(WAIT).unwrap(), second);
        assert_eq!(meter.connects(), 2, "one dial per life of the peer");
    }

    #[test]
    fn close_is_prompt_with_idle_inbound_connections() {
        let mut ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let frame = Frame::encode(&fetch_msg("/hello")).unwrap();
        let mut pools: Vec<ConnPool> = (0..16).map(|_| ConnPool::default()).collect();
        for pool in &mut pools {
            pool.send(ep.local_addr(), &frame).unwrap();
        }
        // Sixteen messages received: sixteen connections accepted, and
        // now idle.
        for _ in 0..16 {
            ep.recv_timeout(WAIT).unwrap();
        }
        let t0 = Instant::now();
        ep.close();
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "close took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn large_frames_in_both_directions_at_once_do_not_deadlock() {
        // Two daemons that each write before they read. Were an I/O
        // thread ever to wait for its consumer, both writes would block
        // on full socket buffers and neither daemon would get to read.
        let msg = big_msg(4 << 20);
        let endpoints = [
            TcpEndpoint::bind("127.0.0.1:0").unwrap(),
            TcpEndpoint::bind("127.0.0.1:0").unwrap(),
        ];
        let addrs = [endpoints[0].local_addr(), endpoints[1].local_addr()];
        let start = Arc::new(std::sync::Barrier::new(2));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let mut daemons = Vec::new();
        for (me, endpoint) in endpoints.into_iter().enumerate() {
            let (msg, start, done_tx) = (msg.clone(), Arc::clone(&start), done_tx.clone());
            daemons.push(std::thread::spawn(move || {
                let mut pool = ConnPool::default();
                let frame = Frame::encode(&msg).unwrap();
                start.wait();
                for _ in 0..3 {
                    pool.send(addrs[1 - me], &frame).unwrap();
                }
                for _ in 0..3 {
                    assert_eq!(endpoint.recv_timeout(WAIT).unwrap(), msg);
                }
                done_tx.send(()).unwrap();
            }));
        }
        // A deadlock must fail the test, not hang it: wait with a limit
        // before joining.
        for _ in 0..2 {
            done_rx
                .recv_timeout(Duration::from_secs(30))
                .expect("a daemon is stuck: writers deadlocked or a frame was lost");
        }
        for daemon in daemons {
            daemon.join().unwrap();
        }
    }
}
