//! A real TCP transport (`std::net`) with long-lived connections. The
//! paper's Java platform opens a socket per dispatch; here an endpoint
//! binds one listener (§4.4's common port) for the sites it hosts, its
//! numbered *slots*, and keeps one connection to each peer endpoint,
//! shared by them all ([`Outbox`]) and dialled only when it has none or
//! the peer closed it. A send appends a [`Frame`] naming its slot to the
//! connection's buffer; the buffers are written, one `write` per peer
//! endpoint, when the endpoint's receiver next waits. An endpoint has no
//! thread of its own: the thread waiting on it (the paper's *Query
//! Receiver* / *Result Collector*) waits on one poll set of its listener
//! and connections and decodes each complete frame straight from the
//! connection's buffer. A connection that carries one frame and closes
//! ([`send_to`]) is the short case.
//!
//! Passive query termination (Section 2.8) still falls out of the
//! design: closing a [`TcpEndpoint`] closes its listener and every
//! accepted connection, a sender sees that *before* it appends, its
//! re-dial is refused, and the server purges the query locally.

use std::collections::hash_map::{Entry, HashMap};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::messages::Message;
use crate::meter::WireCounters;
use crate::wire::{decode_message, Wire};
use sys::{PollFd, POLLOUT};

/// Maximum accepted frame size (16 MiB) — a defence against hostile or
/// corrupt length prefixes. Admin-socket clients bound the responses
/// they read by the same figure.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Bytes of a frame's big-endian payload length, and of its whole header:
/// the length, then the big-endian slot (a site of the receiver) it is for.
const PREFIX: usize = 4;
const HEADER: usize = PREFIX + 2;

/// How long a connection may sit on an incomplete frame without a byte
/// of progress before the endpoint drops it — the slowloris bound. A
/// connection idle *between* frames may stay open indefinitely.
const FRAME_STALL_BOUND: Duration = Duration::from_secs(10);

/// Bytes read from a socket per `read` call, and the capacity above which
/// a connection's reassembly buffer is released once it has emptied.
const READ_CHUNK: usize = 64 * 1024;

/// Reads from one ready connection per wait on an endpoint, so a peer
/// that writes without pause cannot starve the others.
const READS_PER_TURN: usize = 16;

/// How long an endpoint's listener stays out of its poll set after an
/// accept failed (EMFILE and friends): a listener that stays ready would
/// otherwise busy-spin the waiting thread at 100% CPU.
const ERROR_PAUSE: Duration = Duration::from_millis(10);

/// Transport error.
#[derive(Debug)]
pub enum TcpError {
    /// Socket-level failure.
    Io(io::Error),
    /// A frame larger than the 16 MiB frame limit.
    FrameTooLarge(u32),
    /// The peer stalled mid-frame past the stall bound, sending or
    /// taking it (a slowloris peer, a dying host, a receiver that stopped
    /// reading). Transient: the sender may retry.
    Timeout,
    /// The sending thread's own endpoint closed while a write waited for
    /// room: the thread is shutting down, so the send is not retried.
    Closed,
}

impl std::fmt::Display for TcpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TcpError::Io(e) => write!(f, "transport I/O error: {e}"),
            TcpError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            TcpError::Timeout => write!(f, "peer stalled mid-frame (timeout)"),
            TcpError::Closed => write!(f, "own endpoint closed during a write"),
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
            TcpError::FrameTooLarge(_) | TcpError::Closed => false,
        }
    }
}

/// Why [`TcpEndpoint::recv_timeout`] returned without a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// Nothing arrived before the timeout.
    Timeout,
    /// The endpoint is closed.
    Disconnected,
}

impl std::fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RecvTimeoutError::Timeout => "timed out waiting for a message",
            RecvTimeoutError::Disconnected => "endpoint closed",
        })
    }
}

impl std::error::Error for RecvTimeoutError {}

/// Extra attempts [`Outbox::send`] makes after the first.
const MAX_RETRIES: u32 = 3;
/// Pause before the first retry; doubles each subsequent retry.
const BASE_BACKOFF: Duration = Duration::from_millis(10);

/// Runs `op`, retrying up to [`MAX_RETRIES`] times with exponential
/// backoff from [`BASE_BACKOFF`]. Only transient errors are retried;
/// `on_retry(attempt)` fires before each retry (attempt numbering starts
/// at 1) and `pause(backoff)` waits the backoff out.
fn with_retries<T>(
    mut on_retry: impl FnMut(u32),
    mut pause: impl FnMut(Duration),
    mut op: impl FnMut() -> Result<T, TcpError>,
) -> Result<T, TcpError> {
    let (mut backoff, mut attempt) = (BASE_BACKOFF, 0);
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() && attempt < MAX_RETRIES => {
                attempt += 1;
                on_retry(attempt);
                pause(backoff);
                backoff *= 2;
            }
            Err(e) => return Err(e),
        }
    }
}

/// One wire frame: the 4-byte big-endian payload length, the 2-byte slot
/// (0 until [`Outbox::send`] names it), then the payload, contiguous so the
/// whole frame goes out in one `write`. A message is encoded into it once;
/// the sender reads its byte count off [`payload`](Frame::payload).
pub struct Frame(Vec<u8>);

impl Frame {
    /// Encodes `msg` straight behind a placeholder header, then writes the
    /// real length into it.
    pub fn encode(msg: &Message) -> Result<Frame, TcpError> {
        let mut buf = Vec::with_capacity(128);
        buf.extend_from_slice(&[0; HEADER]);
        msg.encode(&mut buf);
        let len =
            u32::try_from(buf.len() - HEADER).map_err(|_| TcpError::FrameTooLarge(u32::MAX))?;
        if len > MAX_FRAME {
            return Err(TcpError::FrameTooLarge(len));
        }
        buf[..PREFIX].copy_from_slice(&len.to_be_bytes());
        Ok(Frame(buf))
    }

    /// The encoded message, without the header.
    pub fn payload(&self) -> &[u8] {
        &self.0[HEADER..]
    }

    /// The payload, for damaging in place. The header is out of reach, so
    /// a damaged frame still frames correctly, for the slot it names.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.0[HEADER..]
    }
}

/// The one frame writer: held and one-shot frames both end here; returns
/// how many `write` calls took bytes. `wait(stream, progress)` is called
/// whenever `stream` has no room, `progress` being when the peer last took
/// a byte — the clock is read then, not per write.
fn write_frames(
    stream: &mut TcpStream,
    frames: &[u8],
    mut wait: impl FnMut(&TcpStream, Instant) -> Result<(), TcpError>,
) -> Result<u64, TcpError> {
    let (mut rest, mut progress, mut writes) = (frames, None, 0);
    while !rest.is_empty() {
        match stream.write(rest) {
            Ok(0) => return Err(TcpError::Io(io::ErrorKind::WriteZero.into())),
            Ok(n) => (rest, progress, writes) = (&rest[n..], None, writes + 1),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                wait(stream, *progress.get_or_insert_with(Instant::now))?;
            }
            Err(e) if e.kind() != io::ErrorKind::Interrupted => return Err(e.into()),
            Err(_) => {}
        }
    }
    Ok(writes)
}

/// Sends one message to slot 0 at `addr` on a connection of its own:
/// connect, frame, write, close. The engine sends through an [`Outbox`];
/// this is for callers with a single message to deliver. A receiver that
/// takes no byte for the stall bound fails it with [`TcpError::Timeout`].
pub fn send_to<A: ToSocketAddrs>(addr: A, msg: &Message) -> Result<(), TcpError> {
    let (frame, mut stream) = (Frame::encode(msg)?, TcpStream::connect(addr)?);
    stream.set_write_timeout(Some(FRAME_STALL_BOUND))?;
    write_frames(&mut stream, &frame.0, |_, _| Err(TcpError::Timeout)).map(drop)
}

/// A handle to an endpoint's outbound connections, one per peer endpoint
/// (`TCP_NODELAY`, non-blocking), shared by all its handles. A
/// [`send`](Outbox::send) appends a frame naming its slot to a
/// connection's buffer, written before the endpoint's receiver next waits
/// or by [`flush`](Outbox::flush). A write that finds no room, and a
/// retry's backoff, take turns of the endpoint's wait: two endpoints, or
/// two sites of one, writing large frames at each other never both stall.
#[derive(Clone)]
pub struct Outbox(Arc<Shared>);

impl Outbox {
    /// Appends `frame`, for `slot`, to the connection to the endpoint at
    /// `addr`, dialling (counted, with its writes, on `meter`) when there is
    /// none or the peer has closed it — checked *before* the append, so
    /// passive termination fails this send, not the next. Transient
    /// failures are retried with backoff, each told to `on_retry`; a
    /// refused dial fails at once.
    pub fn send(
        &self,
        (addr, slot): (SocketAddr, u16),
        frame: &Frame,
        meter: &Arc<WireCounters>,
        on_retry: impl FnMut(u32),
    ) -> Result<(), TcpError> {
        let home = &self.0;
        let hold = || {
            let mut links = home.links();
            if links.get(&addr).is_some_and(|(s, ..)| peer_closed(s)) {
                links.remove(&addr);
            }
            let (_, held, _) = match links.entry(addr) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    meter.record_connect();
                    let stream = TcpStream::connect(addr)?;
                    stream.set_nodelay(true)?;
                    stream.set_nonblocking(true)?;
                    e.insert((stream, Vec::new(), Arc::clone(meter)))
                }
            };
            let at = held.len();
            held.extend_from_slice(&frame.0);
            held[at + PREFIX..at + HEADER].copy_from_slice(&slot.to_be_bytes());
            Ok(())
        };
        with_retries(on_retry, |backoff| home.pause(backoff), hold)
    }

    /// Writes every buffer now; a connection whose write fails is dropped
    /// with what it held, lost as frames in flight are, and the failure
    /// returned.
    pub fn flush(&self) -> Result<(), TcpError> {
        let home = &self.0;
        home.flush(|left, s| home.take_turn(left, Some(s)))
    }
}

/// True when the peer has closed (or reset) an outbound connection. The
/// protocol is one-way — an endpoint never writes — so all a sender's
/// non-blocking socket can read is the peer's FIN or RST.
fn peer_closed(stream: &TcpStream) -> bool {
    !matches!(stream.peek(&mut [0]), Err(e) if e.kind() == io::ErrorKind::WouldBlock)
}

/// The system calls this transport needs that `std` does not wrap (`std`
/// already links the C library they live in): `ppoll(2)`, whose timeout
/// keeps a fraction of a millisecond, and `epoll(7)`, whose wait costs
/// what is ready rather than what is watched.
mod sys {
    use std::io;
    use std::net::TcpStream;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
    use std::os::raw::{c_int, c_long, c_ulong, c_void};
    use std::ptr::{from_ref, null};
    use std::time::Duration;

    /// What to wait for: data (or end of stream), or room to write.
    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;

    /// One socket to wait on, laid out as C's `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    impl PollFd {
        pub fn new(socket: &impl AsRawFd, events: i16) -> PollFd {
            PollFd {
                fd: socket.as_raw_fd(),
                events,
                revents: 0,
            }
        }

        /// True when the last wait found what was asked for, end of
        /// stream, hang-up or an error on the socket.
        pub fn ready(&self) -> bool {
            self.revents != 0
        }
    }

    /// Blocks until a socket in `fds` is ready or `timeout` passes
    /// (`None`: no limit), then says which through [`PollFd::ready`].
    pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
        type Timespec = [c_long; 2];
        extern "C" {
            fn ppoll(fds: *mut PollFd, n: c_ulong, t: *const Timespec, mask: *const c_void) -> i32;
        }
        let secs = |t: Duration| c_long::try_from(t.as_secs()).unwrap_or(c_long::MAX);
        let timeout: Option<Timespec> = timeout.map(|t| [secs(t), t.subsec_nanos() as c_long]);
        let timeout = timeout.as_ref().map_or(null(), from_ref);
        loop {
            // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
            // structs with `struct pollfd`'s layout, the kernel is told its
            // length, so it reads and writes only inside the slice (a stale
            // descriptor in it is reported as POLLNVAL, not dereferenced);
            // `timeout` is null or points at a live `struct timespec` (two
            // `long`s), and a null signal mask leaves the thread's alone.
            if unsafe { ppoll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout, null()) } >= 0 {
                return Ok(());
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
    }

    /// C's `struct epoll_event`, which the kernel packs on x86.
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
    #[derive(Clone, Copy, Default)]
    struct Event {
        events: u32,
        token: u64,
    }

    /// `EPOLL_CLOEXEC`, which is `O_CLOEXEC`.
    #[cfg(not(any(target_arch = "sparc", target_arch = "sparc64")))]
    const CLOEXEC: c_int = 0x8_0000;
    #[cfg(any(target_arch = "sparc", target_arch = "sparc64"))]
    const CLOEXEC: c_int = 0x40_0000;
    /// `EPOLL_CTL_ADD`, `EPOLL_CTL_DEL` and `EPOLLIN`.
    const ADD: c_int = 1;
    const DEL: c_int = 2;
    const IN: u32 = 0x001;

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(set: c_int, op: c_int, fd: c_int, event: *mut Event) -> c_int;
        fn epoll_wait(set: c_int, events: *mut Event, n: c_int, timeout_ms: c_int) -> c_int;
    }

    /// `r`, or the error the call that returned it left in `errno`.
    fn check(r: c_int) -> io::Result<c_int> {
        if r < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(r)
    }

    /// The sockets an endpoint waits on, each watched for data under a
    /// token, as an epoll set: registered once per socket.
    pub struct Poller {
        set: OwnedFd,
        events: Vec<Event>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            // SAFETY: `epoll_create1` takes no pointer; it returns a new
            // descriptor, or -1.
            let fd = check(unsafe { epoll_create1(CLOEXEC) })?;
            // SAFETY: `fd` was just made, is open, and nothing else owns it.
            let set = unsafe { OwnedFd::from_raw_fd(fd) };
            let events = vec![Event::default(); 64];
            Ok(Poller { set, events })
        }

        /// Watches `socket` for data or end of stream as `token`, or (`on`
        /// false) stops watching it.
        pub fn watch(&mut self, socket: &impl AsRawFd, token: usize, on: bool) -> io::Result<()> {
            let (set, fd) = (self.set.as_raw_fd(), socket.as_raw_fd());
            let (op, token) = (if on { ADD } else { DEL }, token as u64);
            let mut event = Event { events: IN, token };
            // SAFETY: `event` is a live `struct epoll_event` the kernel only
            // reads, and both descriptors are open while borrowed.
            check(unsafe { epoll_ctl(set, op, fd, &mut event) }).map(drop)
        }

        /// Blocks until a watched socket has data, `writer` has room or
        /// `timeout` passes (`None`: no limit), then appends the token of
        /// every ready socket to `ready`; it may return sooner, as its
        /// callers wait in a loop. Without a writer, whole milliseconds are
        /// `epoll_wait`'s own; room, or a fraction of a millisecond, is
        /// waited for by `ppoll`ing the set as one descriptor, then what is
        /// ready is taken without waiting.
        pub fn wait(
            &mut self,
            timeout: Option<Duration>,
            writer: Option<&TcpStream>,
            ready: &mut Vec<usize>,
        ) -> io::Result<()> {
            let timeout_ms = match (writer, timeout) {
                (None, None) => -1,
                (None, Some(t)) if t.is_zero() || t >= Duration::from_millis(1) => {
                    c_int::try_from(t.as_millis()).unwrap_or(c_int::MAX)
                }
                _ => {
                    let set = PollFd::new(&self.set, POLLIN);
                    let mut fds = [set, PollFd::new(&self.set, 0)];
                    if let Some(writer) = writer {
                        fds[1] = PollFd::new(writer, POLLOUT);
                    }
                    wait(&mut fds[..1 + usize::from(writer.is_some())], timeout)?;
                    if !fds[0].ready() {
                        return Ok(());
                    }
                    0
                }
            };
            let (set, capacity) = (self.set.as_raw_fd(), self.events.len() as c_int);
            let n = loop {
                let events = self.events.as_mut_ptr();
                // SAFETY: `events` points at an exclusively borrowed buffer
                // of `capacity` `struct epoll_event`s, the most the kernel
                // is told it may write; the set is open while `self` is.
                match check(unsafe { epoll_wait(set, events, capacity, timeout_ms) }) {
                    Ok(n) => break n as usize,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            };
            let events = self.events.iter().take(n);
            ready.extend(events.map(|event| event.token as usize));
            Ok(())
        }
    }
}

/// One accepted connection of an endpoint: a non-blocking socket and the
/// bytes received so far of a frame not yet complete. The one frame
/// reader: a connection that carries a single frame and closes goes
/// through the same code.
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

    /// One turn of the endpoint's wait: read what a `readable` socket
    /// holds, hand the slot and payload of every complete frame to
    /// `deliver`, and
    /// hold an incomplete one against the `stall` bound. `Err` says why
    /// the connection has to be dropped; whatever partial frame it held
    /// goes with it.
    fn service(
        &mut self,
        readable: bool,
        now: Instant,
        stall: Duration,
        chunk: &mut [u8],
        deliver: &mut impl FnMut(u16, &[u8]),
    ) -> Result<(), TcpError> {
        if readable {
            for _ in 0..READS_PER_TURN {
                match self.stream.read(chunk) {
                    Ok(0) => return Err(TcpError::Io(io::ErrorKind::UnexpectedEof.into())),
                    Ok(n) => {
                        // `read` returns at most `chunk.len()`.
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
    fn take_frames(&mut self, deliver: &mut impl FnMut(u16, &[u8])) -> Result<(), TcpError> {
        let mut at = 0;
        while let Some(&[a, b, c, d]) = self.buf.get(at..at + PREFIX) {
            let len = u32::from_be_bytes([a, b, c, d]);
            if len > MAX_FRAME {
                return Err(TcpError::FrameTooLarge(len));
            }
            let end = at + HEADER + len as usize;
            let Some([s, t, payload @ ..]) = self.buf.get(at + PREFIX..end) else {
                // The rest of this frame is still to come: make room for
                // it in one step rather than by doubling.
                self.buf.reserve(end - self.buf.len());
                break;
            };
            deliver(u16::from_be_bytes([*s, *t]), payload);
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

/// A message taken off an endpoint's inbox.
pub struct Received {
    /// The decoded message.
    pub msg: Message,
    /// How long it sat in the inbox between the wait that read its frame
    /// whole waking and this receive — the wall-clock queue wait behind
    /// the `queue_us` span. Time in the kernel's socket buffer is not
    /// counted.
    pub queued: Duration,
    /// Size of its encoded payload as it came off the wire.
    pub wire_bytes: usize,
    /// The slot its frame named: the endpoint's site it is for.
    pub at: u16,
}

/// A message decoded and not yet taken: when the wait that read its frame
/// whole woke, the message, its size on the wire and the slot it is for.
type Queued = (Instant, Message, usize, u16);

/// The listener's poll-set token; each accepted connection has its own.
const LISTENER: usize = 0;

/// An endpoint's receiving side, read by whichever thread waits on it: a
/// receiver, or the write or retry of one of the endpoint's outboxes.
struct Inbox {
    /// `None` once the endpoint is closed.
    listener: Option<TcpListener>,
    /// The slots the endpoint hosts, from 0: a frame for another is dropped.
    slots: u16,
    /// Accepted connections by token, and the token the next one takes.
    conns: HashMap<usize, Conn>,
    next: usize,
    /// The tokens of the connections that hold part of a frame: the ones
    /// the stall bound watches.
    partial: Vec<usize>,
    queue: VecDeque<Queued>,
    poller: sys::Poller,
    /// While an accept failure keeps the listener out of the poll set,
    /// when it goes back in ([`ERROR_PAUSE`]).
    resume: Option<Instant>,
    /// Scratch of every turn: the tokens its wait found ready, and what
    /// it reads into.
    ready: Vec<usize>,
    chunk: Vec<u8>,
}

impl Inbox {
    /// Sleeps until the listener or a connection has something, `writer`
    /// has room, a connection mid-frame reaches the stall bound, the
    /// listener is due back from an [`ERROR_PAUSE`] or `timeout` passes
    /// (`None`: no limit); then accepts every waiting connection and reads
    /// every ready one, new ones at once, queueing each frame that decodes.
    /// Garbage, a stalled peer, an oversized prefix and a closed
    /// connection all end the same way: that connection is dropped, every
    /// other one is untouched. A failed wait (`ENOMEM`; a signal is waited
    /// out again) reads nothing and ends the turn.
    fn turn(&mut self, stall: Duration, timeout: Option<Duration>, writer: Option<&TcpStream>) {
        if self.resume.is_some_and(|t| t <= Instant::now()) {
            self.listen(true);
        }
        let conns = &self.conns;
        let stalls = self
            .partial
            .iter()
            .filter_map(|t| Some(conns.get(t)?.last_progress? + stall));
        let due = stalls.chain(self.resume).min();
        let due = due.map(|t| t.saturating_duration_since(Instant::now()));
        self.ready.clear();
        let timeout = timeout.into_iter().chain(due).min();
        if self.poller.wait(timeout, writer, &mut self.ready).is_err() {
            return;
        }
        let now = Instant::now();
        // `ready` grows as connections are accepted: each is read at once.
        let mut next = 0;
        while let Some(&token) = self.ready.get(next) {
            next += 1;
            if token == LISTENER {
                self.accept();
            } else if self.service(token, true, now, stall) && !self.partial.contains(&token) {
                self.partial.push(token);
            }
        }
        let mut partial = std::mem::take(&mut self.partial);
        partial.retain(|&token| self.service(token, false, now, stall));
        self.partial = partial;
    }

    /// Puts the listener in the poll set, or takes it out for an
    /// [`ERROR_PAUSE`].
    fn listen(&mut self, listen: bool) {
        self.resume = (!listen).then(|| Instant::now() + ERROR_PAUSE);
        if let Some(listener) = &self.listener {
            let _ = self.poller.watch(listener, LISTENER, listen);
        }
    }

    /// Accepts every connection waiting on the listener and watches each,
    /// reading it in this turn; one the poll set refuses is closed. A
    /// failure other than "none left" (EMFILE and friends) takes the
    /// listener out of the poll set for an [`ERROR_PAUSE`], so it cannot
    /// spin the waiting thread while every accepted connection is read.
    fn accept(&mut self) {
        while let Some(listener) = &self.listener {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return self.listen(false),
            };
            let token = self.next;
            let Ok(conn) = Conn::new(stream) else {
                continue;
            };
            if self.poller.watch(&conn.stream, token, true).is_ok() {
                self.conns.insert(token, conn);
                self.ready.push(token);
                self.next = token + 1;
            }
        }
    }

    /// One turn of the connection under `token` ([`Conn::service`]): its
    /// complete frames decoded into the queue, and the connection
    /// dropped when it has to be. True when it is kept holding part of a
    /// frame.
    fn service(&mut self, token: usize, readable: bool, now: Instant, stall: Duration) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        let (queue, slots) = (&mut self.queue, self.slots);
        // A frame for a slot the endpoint does not host, or whose payload
        // does not decode, had an intact header: framing stays in step and
        // only that frame is lost — a long-running daemon survives garbage.
        let mut deliver = |slot: u16, payload: &[u8]| match decode_message(payload) {
            Ok(msg) if slot < slots => queue.push_back((now, msg, payload.len(), slot)),
            _ => {}
        };
        if conn
            .service(readable, now, stall, &mut self.chunk, &mut deliver)
            .is_ok()
        {
            return conn.last_progress.is_some();
        }
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.watch(&conn.stream, token, false);
        }
        false
    }

    /// Closes the listener and every accepted connection. The poll set is
    /// not waited on again: every wait asks first whether the endpoint is
    /// closing.
    fn close(&mut self) {
        (self.listener, self.conns) = (None, HashMap::new());
        self.partial.clear();
    }
}

/// A dialled connection, the frames held for it, and the meter it counts on.
type Link = (TcpStream, Vec<u8>, Arc<WireCounters>);

/// What an endpoint shares with its [`Closer`]s and [`Outbox`]es.
struct Shared {
    addr: SocketAddr,
    shutdown: AtomicBool,
    stall: Duration,
    inbox: Mutex<Inbox>,
    /// The connections this endpoint dialled, by peer endpoint address.
    links: Mutex<HashMap<SocketAddr, Link>>,
}

impl Shared {
    fn closing(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn inbox(&self) -> MutexGuard<'_, Inbox> {
        self.inbox.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn links(&self) -> MutexGuard<'_, HashMap<SocketAddr, Link>> {
        self.links.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One turn of this endpoint's wait, of at most `left` — unless
    /// another thread holds the endpoint, and so reads it already: then a
    /// nap of at most a millisecond, on `writer` if there is one.
    fn take_turn(&self, left: Duration, writer: Option<&TcpStream>) {
        match self.inbox.try_lock() {
            Ok(mut inbox) => inbox.turn(self.stall, Some(left), writer),
            Err(_) => {
                let mut fd = writer.map(|w| PollFd::new(w, POLLOUT));
                let nap = left.min(Duration::from_millis(1));
                let _ = sys::wait(fd.as_mut_slice(), Some(nap));
            }
        }
    }

    /// Writes every connection's held frames, one `write` each unless the
    /// peer's buffers fill. A write that finds no room waits by
    /// `turn(left, stream)`, a turn of this endpoint of at most `left`, and
    /// gives up once the endpoint closes or the peer has taken no byte for
    /// the stall bound. A connection whose write fails is dropped with
    /// what it held, so framing never resumes mid-frame; the last such
    /// failure is returned.
    fn flush(&self, mut turn: impl FnMut(Duration, &TcpStream)) -> Result<(), TcpError> {
        let mut wait = |stream: &TcpStream, progress: Instant| {
            let left = (progress + self.stall).saturating_duration_since(Instant::now());
            if self.closing() {
                return Err(TcpError::Closed);
            } else if left.is_zero() {
                return Err(TcpError::Timeout);
            }
            turn(left, stream);
            Ok(())
        };
        let mut flushed = Ok(());
        self.links().retain(|_, (stream, held, meter)| {
            let sent = write_frames(stream, held, &mut wait).map(|n| meter.record_writes(n));
            held.clear();
            held.shrink_to(READ_CHUNK);
            sent.map_err(|e| flushed = Err(e)).is_ok()
        });
        flushed
    }

    /// A retry's backoff, waited out in turns of this endpoint, which
    /// read what arrives meanwhile; cut short when the endpoint closes.
    fn pause(&self, pause: Duration) {
        let until = Instant::now() + pause;
        loop {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() || self.closing() {
                return;
            }
            self.take_turn(left, None);
        }
    }
}

/// A listening endpoint: one listener for the sites of one thread, its
/// slots. It has no thread of its own: the thread that waits on it
/// ([`recv_timeout_sized`](TcpEndpoint::recv_timeout_sized), or the write
/// or retry of one of its [`Outbox`]es) accepts connections, reads any
/// number of frames from each and decodes them into its inbox, which has
/// no bound. Dropping (or calling [`close`](TcpEndpoint::close)) closes the
/// listener, every accepted connection and every dialled one — this is
/// how a user-site terminates a query passively.
pub struct TcpEndpoint(Arc<Shared>);

/// Closes a [`TcpEndpoint`] from a thread other than the one receiving
/// from it ([`TcpEndpoint::closer`]).
#[derive(Clone)]
pub struct Closer(Arc<Shared>);

impl Closer {
    /// Marks the endpoint closed and wakes a receiver asleep in
    /// [`TcpEndpoint::recv_timeout_sized`] with a throwaway connection:
    /// it closes the listener and every accepted connection and returns
    /// `Disconnected`, as does every later receive; a write waiting for
    /// room fails with [`TcpError::Closed`]. Idempotent.
    pub fn close(&self) {
        if !self.0.shutdown.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.0.addr);
        }
    }
}

impl TcpEndpoint {
    /// Binds a listener hosting slot 0 alone (port 0: an ephemeral port).
    pub fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<TcpEndpoint> {
        TcpEndpoint::bind_slots(addr, 1)
    }

    /// Binds one listener for `slots` sites, numbered from 0, so one
    /// thread can host them all: each frame names the slot it is for
    /// ([`Received::at`]), and one naming a slot past the last is dropped.
    pub fn bind_slots<A: ToSocketAddrs>(addr: A, slots: u16) -> io::Result<TcpEndpoint> {
        TcpEndpoint::bind_with_stall_bound(addr, slots, FRAME_STALL_BOUND)
    }

    fn bind_with_stall_bound<A: ToSocketAddrs>(
        addr: A,
        slots: u16,
        stall: Duration,
    ) -> io::Result<TcpEndpoint> {
        let (mut poller, listener) = (sys::Poller::new()?, TcpListener::bind(addr)?);
        listener.set_nonblocking(true)?;
        poller.watch(&listener, LISTENER, true)?;
        let addr = listener.local_addr()?;
        let inbox = Inbox {
            listener: Some(listener),
            slots,
            next: LISTENER + 1,
            conns: HashMap::new(),
            partial: Vec::new(),
            queue: VecDeque::new(),
            poller,
            resume: None,
            ready: Vec::new(),
            chunk: vec![0; READ_CHUNK],
        };
        Ok(TcpEndpoint(Arc::new(Shared {
            addr,
            shutdown: AtomicBool::new(false),
            stall,
            inbox: Mutex::new(inbox),
            links: Mutex::default(),
        })))
    }

    /// The listener's address (with the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.0.addr
    }

    /// A handle that sends from this endpoint: every handle shares its
    /// connections, one to each peer endpoint.
    pub fn outbox(&self) -> Outbox {
        Outbox(Arc::clone(&self.0))
    }

    /// A handle that closes this endpoint from another thread.
    pub fn closer(&self) -> Closer {
        Closer(Arc::clone(&self.0))
    }

    /// Receives the next message, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Message, RecvTimeoutError> {
        self.recv_timeout_sized(timeout).map(|r| r.msg)
    }

    /// Like [`recv_timeout`](TcpEndpoint::recv_timeout), but also reports
    /// how long the message sat in the inbox, the size it had on the wire
    /// and the slot it is for, so a receiver that accounts for bytes need
    /// not encode the message again to count them. The inbox is read only
    /// when it is empty, and every frame an [`Outbox`] of the endpoint
    /// holds is written first; a zero `timeout` reads what the sockets hold
    /// without waiting. A `timeout` too long to add to the clock
    /// (`Duration::MAX`) is no timeout: the call sleeps until a message
    /// arrives or the endpoint is closed.
    pub fn recv_timeout_sized(&self, timeout: Duration) -> Result<Received, RecvTimeoutError> {
        let deadline = Instant::now().checked_add(timeout);
        let mut inbox = self.0.inbox();
        let mut waited = false;
        loop {
            if self.0.closing() {
                inbox.close();
                return Err(RecvTimeoutError::Disconnected);
            }
            if let Some((read_at, msg, wire_bytes, at)) = inbox.queue.pop_front() {
                let queued = read_at.elapsed();
                return Ok(Received {
                    msg,
                    queued,
                    wire_bytes,
                    at,
                });
            }
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if waited && left == Some(Duration::ZERO) {
                return Err(RecvTimeoutError::Timeout);
            }
            // What a write waiting for room read is received first, and a
            // close it woke up to is not slept through.
            let turn = |left, s: &_| inbox.turn(self.0.stall, Some(left), Some(s));
            let _ = self.0.flush(turn);
            if inbox.queue.is_empty() && !self.0.closing() {
                inbox.turn(self.0.stall, left, None);
                waited = true;
            }
        }
    }

    /// Messages for slot `at`, read and decoded but not yet received.
    pub fn pending(&self, at: u16) -> usize {
        let inbox = self.0.inbox();
        inbox.queue.iter().filter(|(.., on)| *on == at).count()
    }

    /// Closes the listener, every accepted connection and every dialled
    /// one. Any peer that subsequently tries to send to this endpoint gets
    /// a connection error — the passive termination signal.
    pub fn close(&mut self) {
        self.0.shutdown.store(true, Ordering::SeqCst);
        self.0.inbox().close();
        self.0.links().clear();
    }
}

impl Drop for TcpEndpoint {
    fn drop(&mut self) {
        self.close();
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
        // More than the socket buffers hold: the receiver reads while the
        // sender writes.
        std::thread::scope(|s| {
            let receiver = s.spawn(|| ep.recv_timeout(Duration::from_secs(5)));
            send_to(ep.local_addr(), &msg).unwrap();
            assert_eq!(receiver.join().unwrap().unwrap(), msg);
        });
    }

    #[test]
    fn queued_receive_reports_wait_and_depth() {
        // Three frames in one write: the receive that reads them takes the
        // first and leaves two in the inbox, where they wait for the next.
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let mut bytes = Vec::new();
        for i in 0..3 {
            bytes.extend_from_slice(&Frame::encode(&fetch_msg(&format!("/doc{i}"))).unwrap().0);
        }
        TcpStream::connect(ep.local_addr())
            .unwrap()
            .write_all(&bytes)
            .unwrap();
        let first = ep.recv_timeout_sized(Duration::from_secs(5)).unwrap();
        assert_eq!(first.wire_bytes, encode_message(&first.msg).len());
        assert_eq!(ep.pending(0), 2);
        std::thread::sleep(Duration::from_millis(20));
        let second = ep.recv_timeout_sized(Duration::ZERO).unwrap();
        assert!(
            second.queued >= Duration::from_millis(20),
            "messages sat at least the sleep: {:?}",
            second.queued
        );
        assert_eq!(ep.pending(0), 1);
        ep.recv_timeout(Duration::ZERO).unwrap();
        assert_eq!(ep.pending(0), 0);
        assert_eq!(
            ep.recv_timeout(Duration::ZERO),
            Err(RecvTimeoutError::Timeout)
        );
    }

    #[test]
    fn sub_millisecond_timeout_is_kept_not_rounded_up() {
        // The open-loop generator and every deadline of a TCP runtime's wait
        // sleep through `recv_timeout`: a timeout rounded up to a whole
        // millisecond would make each of them late.
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let timeout = Duration::from_micros(300);
        let took = (0..5).map(|_| {
            let t0 = Instant::now();
            assert_eq!(ep.recv_timeout(timeout), Err(RecvTimeoutError::Timeout));
            t0.elapsed()
        });
        let best = took.min().unwrap();
        assert!(best >= timeout, "woke early: {best:?}");
        assert!(best < Duration::from_millis(1), "rounded up: {best:?}");
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
        let mut deliver = |_: u16, _: &[u8]| panic!("no complete frame was sent");
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
        let mut frame = Frame::encode(&fetch_msg("/x")).unwrap();
        let payload = frame.payload_mut();
        payload[payload.len() / 2] ^= 0xff;
        let mut stream = TcpStream::connect(ep.local_addr()).unwrap();
        stream.write_all(&frame.0).unwrap();
        drop(stream);
        // The endpoint still works afterwards; the damaged frame is gone.
        let msg = fetch_msg("/ok");
        send_to(ep.local_addr(), &msg).unwrap();
        assert_eq!(ep.recv_timeout(Duration::from_secs(5)).unwrap(), msg);
        let next = ep.recv_timeout(Duration::ZERO);
        assert!(next.is_err(), "corrupt frame must not deliver");
    }

    #[test]
    fn transient_errors_are_retried_with_backoff() {
        let mut failures_left = 2;
        let (mut retries, mut pauses) = (Vec::new(), Vec::new());
        let out = with_retries(
            |attempt| retries.push(attempt),
            |backoff| pauses.push(backoff),
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
        assert_eq!(pauses, [BASE_BACKOFF, BASE_BACKOFF * 2]);
    }

    #[test]
    fn retries_are_bounded() {
        let mut attempts = 0;
        let out: Result<(), _> = with_retries(
            |_| {},
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
        assert_eq!(attempts, 1 + MAX_RETRIES, "initial try + every retry");
    }

    #[test]
    fn connection_refused_is_never_retried() {
        let mut attempts = 0;
        let out: Result<(), _> = with_retries(
            |_| panic!("refused must not trigger a retry"),
            |_| panic!("nor a pause"),
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
        // Send raw garbage (valid header, invalid payload).
        let mut stream = TcpStream::connect(ep.local_addr()).unwrap();
        stream.write_all(&3u32.to_be_bytes()).unwrap();
        stream.write_all(&0u16.to_be_bytes()).unwrap();
        stream.write_all(&[0xff, 0xff, 0xff]).unwrap();
        drop(stream);
        // Endpoint still works afterwards.
        let msg = fetch_msg("/ok");
        send_to(ep.local_addr(), &msg).unwrap();
        assert_eq!(ep.recv_timeout(Duration::from_secs(5)).unwrap(), msg);
    }

    // ---- persistent connections ----

    const WAIT: Duration = Duration::from_secs(5);

    /// A fresh meter, as a cluster has one.
    fn meter() -> Arc<WireCounters> {
        Arc::default()
    }

    /// An endpoint of its own, as every sending thread has, and its outbox.
    fn sender() -> (TcpEndpoint, Outbox) {
        let home = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let out = home.outbox();
        (home, out)
    }

    /// Slot 0 of `ep`.
    fn first(ep: &TcpEndpoint) -> (SocketAddr, u16) {
        (ep.local_addr(), 0)
    }

    /// Sends `frame` to `to` and writes it at once, counting a dial on
    /// `meter`.
    fn send_metered(out: &Outbox, meter: &Arc<WireCounters>, to: (SocketAddr, u16), frame: &Frame) {
        out.send(to, frame, meter, |_| {}).unwrap();
        out.flush().unwrap();
    }

    fn send_now(out: &Outbox, to: (SocketAddr, u16), msg: &Message) {
        let frame = Frame::encode(msg).unwrap();
        send_metered(out, &meter(), to, &frame);
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
        let ((_home, out), meter) = (sender(), meter());
        for i in 0..1000 {
            let frame = Frame::encode(&fetch_msg(&format!("/doc{i}"))).unwrap();
            send_metered(&out, &meter, first(&ep), &frame);
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
            for n in 0..3 {
                s.spawn(move || {
                    let (_home, out) = sender();
                    for i in 0..200 {
                        send_now(&out, (addr, 0), &fetch_msg(&format!("/s{n}/{i}")));
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
    fn frames_two_sites_hold_for_one_peer_arrive_whole_in_each_senders_order() {
        // Two sites of one endpoint interleave their sends to two sites of
        // one peer in one batch: they share the endpoint's one connection
        // to that peer, the batch goes out when the endpoint next waits,
        // and each frame reaches the slot it names.
        let peer = TcpEndpoint::bind_slots("127.0.0.1:0", 2).unwrap();
        let host = TcpEndpoint::bind_slots("127.0.0.1:0", 2).unwrap();
        let (sites, meter) = ([host.outbox(), host.outbox()], meter());
        for i in 0..100 {
            for (n, out) in (0..).zip(&sites) {
                let msg = if i % 10 == 0 {
                    big_msg(100_000 + usize::from(n))
                } else {
                    fetch_msg(&format!("/s{n}/{i}"))
                };
                let frame = Frame::encode(&msg).unwrap();
                out.send((peer.local_addr(), n), &frame, &meter, |_| {})
                    .unwrap();
            }
        }
        assert_eq!(
            peer.recv_timeout(Duration::from_millis(50)),
            Err(RecvTimeoutError::Timeout),
            "held until the sending endpoint waits"
        );
        let mut next = [0usize; 2];
        std::thread::scope(|s| {
            s.spawn(|| host.recv_timeout(Duration::ZERO));
            for _ in 0..200 {
                let got = peer.recv_timeout_sized(WAIT).unwrap();
                let (n, i) = match got.msg {
                    Message::Fetch(f) => {
                        let (n, i) = f.url.path()[2..].split_once('/').unwrap();
                        (n.parse::<usize>().unwrap(), i.parse().unwrap())
                    }
                    Message::FetchReply(r) => {
                        let n = r.html.unwrap().len() - 100_000;
                        (n, next[n] / 10 * 10)
                    }
                    other => panic!("not sent: {other:?}"),
                };
                assert_eq!(i, next[n], "site {n}'s order");
                assert_eq!(usize::from(got.at), n, "site {n}'s frame reached its slot");
                next[n] += 1;
            }
        });
        assert_eq!(next, [100; 2]);
        assert_eq!(
            meter.connects(),
            1,
            "co-hosted sites share a connection to a peer endpoint"
        );
    }

    #[test]
    fn a_held_frame_to_a_slot_of_its_own_endpoint_is_delivered() {
        let host = TcpEndpoint::bind_slots("127.0.0.1:0", 2).unwrap();
        let msg = fetch_msg("/self");
        let frame = Frame::encode(&msg).unwrap();
        let to = (host.local_addr(), 1);
        host.outbox().send(to, &frame, &meter(), |_| {}).unwrap();
        let got = host.recv_timeout_sized(WAIT).unwrap();
        assert_eq!((got.msg, got.at), (msg, 1));
    }

    #[test]
    fn a_frame_for_a_slot_the_endpoint_does_not_host_is_dropped_not_fatal() {
        // Like an undecodable frame: the header was intact, so the next
        // frame on the same connection still arrives, for its own slot.
        let ep = TcpEndpoint::bind_slots("127.0.0.1:0", 2).unwrap();
        let ((_home, out), meter) = (sender(), meter());
        let stray = Frame::encode(&fetch_msg("/nobody")).unwrap();
        send_metered(&out, &meter, (ep.local_addr(), 2), &stray);
        let msg = fetch_msg("/after-stray");
        let frame = Frame::encode(&msg).unwrap();
        send_metered(&out, &meter, (ep.local_addr(), 1), &frame);
        let got = ep.recv_timeout_sized(WAIT).unwrap();
        assert_eq!((got.msg, got.at), (msg, 1));
        let next = ep.recv_timeout(Duration::ZERO);
        assert!(next.is_err(), "a frame for no site must not deliver");
        assert_eq!(meter.connects(), 1, "both frames used one connection");
    }

    #[test]
    fn frame_split_into_one_byte_writes_reassembles_with_its_slot() {
        // The header too arrives a byte at a time: the slot is read once
        // the frame is whole, not off its first bytes.
        let ep = TcpEndpoint::bind_slots("127.0.0.1:0", 3).unwrap();
        let msg = fetch_msg("/split");
        let mut stream = TcpStream::connect(ep.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut bytes = Frame::encode(&msg).unwrap().0;
        bytes[PREFIX..HEADER].copy_from_slice(&2u16.to_be_bytes());
        for byte in &bytes {
            stream.write_all(&[*byte]).unwrap();
        }
        let got = ep.recv_timeout_sized(WAIT).unwrap();
        assert_eq!((got.msg, got.at), (msg, 2));
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
        let ((_home, out), meter) = (sender(), meter());
        let garbage = Frame([&3u32.to_be_bytes()[..], &[0, 0], &[0xff; 3]].concat());
        send_metered(&out, &meter, first(&ep), &garbage);
        let msg = fetch_msg("/after-garbage");
        send_metered(&out, &meter, first(&ep), &Frame::encode(&msg).unwrap());
        assert_eq!(ep.recv_timeout(WAIT).unwrap(), msg);
        let next = ep.recv_timeout(Duration::ZERO);
        assert!(next.is_err(), "garbage must not deliver");
        assert_eq!(meter.connects(), 1, "both frames used one connection");
    }

    #[test]
    fn oversized_length_prefix_closes_that_connection_only() {
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let (_home, out) = sender();
        let before = fetch_msg("/before");
        send_now(&out, first(&ep), &before);
        assert_eq!(ep.recv_timeout(WAIT).unwrap(), before);

        // The test thread plays the hostile peer while a receiver waits.
        std::thread::scope(|s| {
            let receiver = s.spawn(|| ep.recv_timeout(WAIT));
            let hostile = TcpStream::connect(ep.local_addr()).unwrap();
            (&hostile)
                .write_all(&(MAX_FRAME + 1).to_be_bytes())
                .unwrap();
            assert_closed_by_peer(&hostile);

            // The connection that was open all along still delivers.
            let after = fetch_msg("/after");
            send_now(&out, first(&ep), &after);
            assert_eq!(receiver.join().unwrap().unwrap(), after);
        });
    }

    #[test]
    fn peer_stalled_mid_frame_is_dropped_while_others_deliver() {
        let stall = Duration::from_millis(100);
        let ep = TcpEndpoint::bind_with_stall_bound("127.0.0.1:0", 1, stall).unwrap();
        let stalled = TcpStream::connect(ep.local_addr()).unwrap();
        let since = Instant::now();
        (&stalled).write_all(&64u32.to_be_bytes()).unwrap();

        let (_home, out) = sender();
        let during = fetch_msg("/during");
        send_now(&out, first(&ep), &during);
        assert_eq!(ep.recv_timeout(WAIT).unwrap(), during);

        // A receiver waits while the test thread watches the stalled peer.
        std::thread::scope(|s| {
            let receiver = s.spawn(|| ep.recv_timeout(WAIT));
            assert_closed_by_peer(&stalled);
            assert!(since.elapsed() >= stall, "dropped only after the bound");
            let after = fetch_msg("/after");
            send_now(&out, first(&ep), &after);
            assert_eq!(receiver.join().unwrap().unwrap(), after);
        });
    }

    #[test]
    fn first_send_after_endpoint_close_fails_for_good() {
        let mut ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let addr = ep.local_addr();
        let ((_home, out), meter) = (sender(), meter());
        let frame = Frame::encode(&fetch_msg("/x")).unwrap();
        send_metered(&out, &meter, (addr, 0), &frame);
        ep.recv_timeout(WAIT).unwrap();
        ep.close();
        // Passive termination (Section 2.8): not "the send after next".
        let mut retries = 0;
        let err = out.send((addr, 0), &frame, &meter, |_| retries += 1);
        let err = err.unwrap_err();
        assert!(!err.is_transient(), "refused, not retried: {err}");
        // An endpoint that never had a connection is refused the same way.
        let (_fresh, fresh) = sender();
        assert!(fresh
            .send((addr, 0), &frame, &meter, |_| retries += 1)
            .is_err());
        assert_eq!(retries, 0, "passive termination must not be retried");
    }

    #[test]
    fn a_send_to_a_closed_peer_is_refused_while_frames_are_held() {
        // A batch in progress: the endpoint holds a frame for each of two
        // peers when one of them closes. The next send to it is refused
        // at the send, not lost at the write, and the held frame to the
        // other peer still goes out.
        let (mut gone, kept) = (sender().0, sender().0);
        let ((home, out), meter) = (sender(), meter());
        let frame = Frame::encode(&fetch_msg("/x")).unwrap();
        for peer in [&gone, &kept] {
            send_metered(&out, &meter, first(peer), &frame);
            peer.recv_timeout(WAIT).unwrap();
        }
        for peer in [&gone, &kept] {
            out.send(first(peer), &frame, &meter, |_| {}).unwrap();
        }
        let addr = gone.local_addr();
        gone.close();
        let err = out.send((addr, 0), &frame, &meter, |_| {}).unwrap_err();
        assert!(!err.is_transient(), "refused: {err}");
        assert_eq!(
            home.recv_timeout(Duration::ZERO),
            Err(RecvTimeoutError::Timeout)
        );
        assert_eq!(kept.recv_timeout(WAIT).unwrap(), fetch_msg("/x"));
    }

    #[test]
    fn closer_wakes_a_receiver_that_waits_without_limit() {
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let closer = ep.closer();
        let receiver = std::thread::spawn(move || {
            let got = ep.recv_timeout_sized(Duration::MAX);
            (got.err(), ep.0.closing())
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
        let ((_home, out), meter) = (sender(), meter());
        let first = fetch_msg("/first-life");
        send_metered(&out, &meter, (addr, 0), &Frame::encode(&first).unwrap());
        assert_eq!(ep.recv_timeout(WAIT).unwrap(), first);
        ep.close();

        let reborn = TcpEndpoint::bind(addr).expect("re-bind the port just closed");
        let second = fetch_msg("/second-life");
        send_metered(&out, &meter, (addr, 0), &Frame::encode(&second).unwrap());
        assert_eq!(reborn.recv_timeout(WAIT).unwrap(), second);
        assert_eq!(meter.connects(), 2, "one dial per life of the peer");
    }

    #[test]
    fn close_is_prompt_with_idle_inbound_connections() {
        let mut ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let senders: Vec<_> = (0..16).map(|_| sender()).collect();
        for (_home, out) in &senders {
            send_now(out, first(&ep), &fetch_msg("/hello"));
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
        // Two daemons that each write before they read. Were a write
        // that waits for room not to read its own endpoint meanwhile, both
        // would block on full socket buffers and neither would get to read.
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
                let out = endpoint.outbox();
                start.wait();
                for _ in 0..3 {
                    send_now(&out, (addrs[1 - me], 0), &msg);
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

    #[test]
    fn a_batch_of_large_frames_between_two_slots_of_one_endpoint_goes_out() {
        // Two sites on one endpoint, and so on one thread, each hold
        // frames larger than the socket buffers for the other; the batch
        // is written, over the endpoint's one connection to itself, when
        // the endpoint next waits. Were the write that waits for room not
        // a turn of that same endpoint, it would wait out the stall bound:
        // nobody else reads that connection.
        let msg = big_msg(4 << 20);
        let frame = Frame::encode(&msg).unwrap();
        let host = TcpEndpoint::bind_slots("127.0.0.1:0", 2).unwrap();
        let (sites, meter) = ([host.outbox(), host.outbox()], meter());
        for _ in 0..3 {
            for (me, out) in (0..).zip(&sites) {
                out.send((host.local_addr(), 1 - me), &frame, &meter, |_| {})
                    .unwrap();
            }
        }
        let mut arrived = [0; 2];
        for _ in 0..6 {
            let got = host.recv_timeout_sized(WAIT).unwrap();
            assert_eq!(got.msg, msg);
            arrived[usize::from(got.at)] += 1;
        }
        assert_eq!(arrived, [3, 3], "each slot received what was sent to it");
        assert_eq!(host.pending(0) + host.pending(1), 0);
        assert_eq!(meter.connects(), 1, "one connection per peer endpoint");
    }

    #[test]
    fn large_frames_written_at_once_between_two_slots_of_one_endpoint() {
        // The same, each frame written as it is sent: an outbox flushed by
        // a thread that waits on no endpoint takes turns of its own.
        let msg = big_msg(4 << 20);
        let host = TcpEndpoint::bind_slots("127.0.0.1:0", 2).unwrap();
        for _ in 0..3 {
            for me in 0..2 {
                send_now(&host.outbox(), (host.local_addr(), 1 - me), &msg);
            }
        }
        let mut arrived = [0; 2];
        for _ in 0..6 {
            arrived[usize::from(host.recv_timeout_sized(WAIT).unwrap().at)] += 1;
        }
        assert_eq!(arrived, [3, 3]);
    }

    /// Sends `frame` to a bound endpoint nobody reads, through `out` on a
    /// thread of its own, and returns what writing it came to — or panics
    /// when the write has not returned within [`WAIT`].
    fn send_unread(out: Outbox, frame: Frame, while_waiting: impl FnOnce()) -> TcpError {
        let unread = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let addr = unread.local_addr();
        let writer = std::thread::spawn(move || {
            let meter = meter();
            out.send((addr, 0), &frame, &meter, |_| {}).unwrap();
            done_tx.send(out.flush()).unwrap();
        });
        while_waiting();
        let sent = done_rx.recv_timeout(WAIT).expect("the write never gave up");
        writer.join().unwrap();
        sent.expect_err("nobody took the frame")
    }

    #[test]
    fn a_write_waiting_for_room_fails_once_its_own_endpoint_closes() {
        // A daemon told to stop while it writes to a receiver that stopped
        // reading: its write fails for good, and the daemon gets to exit.
        let (home, out) = sender();
        let closer = home.closer();
        let frame = Frame::encode(&big_msg(15 << 20)).unwrap();
        let err = send_unread(out, frame, || {
            std::thread::sleep(Duration::from_millis(100));
            closer.close();
        });
        assert!(matches!(err, TcpError::Closed), "{err}");
        assert!(!err.is_transient(), "a closing thread does not retry");
    }

    #[test]
    fn a_write_the_peer_takes_nothing_of_fails_after_the_stall_bound() {
        let stall = Duration::from_millis(100);
        let home = TcpEndpoint::bind_with_stall_bound("127.0.0.1:0", 1, stall).unwrap();
        let frame = Frame::encode(&big_msg(15 << 20)).unwrap();
        let t0 = Instant::now();
        let err = send_unread(home.outbox(), frame, || {});
        assert!(matches!(err, TcpError::Timeout), "{err}");
        assert!(t0.elapsed() >= stall, "gave up early: {:?}", t0.elapsed());
        assert!(err.is_transient(), "a stalled peer is worth retrying");
    }
}
