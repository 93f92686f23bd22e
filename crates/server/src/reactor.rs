//! The readiness-based event loop that serves every gpmld connection.
//!
//! # Shape
//!
//! One reactor thread owns the listener and every connection's socket,
//! all non-blocking, multiplexed with `poll(2)` through a thin
//! `cfg(unix)` syscall shim (std already links libc; no crates needed).
//! A classified request that does real work becomes a [`WorkItem`] on an
//! mpsc channel drained by a fixed pool of worker threads (sized to
//! cores, the same cheap-std-threads discipline as `core::eval::pool`),
//! and completions come back over a second channel paired with a
//! self-pipe [`Waker`] that drops the reactor out of `poll`.
//!
//! # Point lookups run here
//!
//! The exception is a request whose work has a fixed bound.
//! [`Shared::inline`] clears it before dispatch when it is a non-cursor
//! `EXECUTE`, or a non-cursor `QUERY` whose plan is already cached
//! (looked up without counting; the reactor never compiles), and its
//! plan is a point lookup under its bindings over the snapshot it will
//! read: one stage, no `EXISTS` subplan, no quantifier or `?`, a node
//! index already built, a start that is an index probe naming at most
//! one node, and at most `POINT_LOOKUP_WALKS` (64) walks out of that
//! node within the pattern's number of hops. The check itself never
//! builds an index and reads at most 65 degrees, and the run matches and
//! projects at most 64 walks: the same order as the worker round trip.
//! So the reactor runs it, finishes it, and queues its reply in the
//! same wake that read it — no channel, no worker, no self-pipe.
//! Everything else (`PREPARE`, commits, cursors, multi-stage plans,
//! quantified stages, label and all-node scans, starts near a hub, and
//! any request after a node write until a worker rebuilds the index)
//! goes to the workers. Both paths run through one guarded helper and
//! complete through one ([`ConnState::finish`], then the queued reply).
//!
//! **Fairness:** a connection runs at most one request inline per loop
//! iteration. Whole frames still in its read buffer are served on the
//! next iteration, and `poll` does not sleep while any readable
//! connection holds one, so a pipelined burst of lookups takes turns
//! with every other connection instead of monopolizing the loop.
//!
//! # Per-connection discipline
//!
//! The protocol is strict request/response, which the loop exploits for
//! backpressure:
//!
//! * **read interest is off** while a request is in flight (`busy`) or
//!   a response is still unflushed — a client cannot buy more than one
//!   request's worth of server memory, and a pipelined burst simply
//!   waits in the socket;
//! * the **write queue is bounded** at one serialized response; if the
//!   peer stops reading, the frame sits half-written under `POLLOUT`
//!   interest and the connection makes no further progress — other
//!   connections are unaffected (they have their own sockets and the
//!   workers their own threads);
//! * a connection with neither progress nor an in-flight request for
//!   longer than `--idle-timeout` is reaped, which is also what ends
//!   slow-loris dribbles and never-reading receivers.
//!
//! # Shutdown
//!
//! `stop()` flips the shared `stopping` flag and wakes the loop. The
//! loop immediately closes idle connections, stops accepting and
//! reading, but keeps polling until in-flight queries have completed
//! and their responses flushed (bounded by [`DRAIN_WINDOW`]), so a
//! client never loses an answered query to a graceful shutdown.
//!
//! On non-unix targets the same loop runs without `poll(2)`: it sleeps
//! briefly each iteration and treats every socket as ready, relying on
//! `WouldBlock` from the non-blocking sockets for correctness (a
//! busy-poll fallback, not a performance path).

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gpml_obs::TraceBuilder;

use crate::conn::{Action, ConnState, WorkItem, WorkOutput};
use crate::protocol::{ErrorCode, Response, MAX_FRAME};
use crate::server::{ObsCtx, Shared};

/// A request on its way to a worker, and its output on the way back.
type Job = (u64, WorkItem, Option<ObsCtx>);
type Done = (u64, WorkOutput, Option<ObsCtx>);

/// How long a graceful shutdown waits for in-flight queries to finish
/// and their responses to flush before closing connections anyway.
const DRAIN_WINDOW: Duration = Duration::from_secs(5);

/// Upper bound on one `poll` sleep, so the loop re-checks `stopping`
/// and idle deadlines even with no traffic.
const POLL_CAP_MS: i32 = 500;

/// The `poll(2)` shim.
#[cfg(unix)]
mod sys {
    use std::io;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    /// `struct pollfd` as the kernel expects it.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    #[cfg(target_os = "linux")]
    type NfdsT = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NfdsT = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
    }

    /// `poll(2)` with EINTR retry — a stray signal must not look like
    /// readiness or an error.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

#[cfg(not(unix))]
mod sys {
    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;
}

/// Wakes the reactor out of `poll` from another thread (workers after a
/// completion, `stop()` from the handle). A self-pipe: one byte down a
/// non-blocking `UnixStream` pair whose read end the reactor polls.
#[cfg(unix)]
pub(crate) struct Waker {
    tx: std::os::unix::net::UnixStream,
    rx: std::os::unix::net::UnixStream,
}

#[cfg(unix)]
impl Waker {
    pub(crate) fn new() -> io::Result<Waker> {
        let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx })
    }

    /// Queues a wake-up. `WouldBlock` means wake-ups are already
    /// pending, which is just as good as one more.
    pub(crate) fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    fn drain(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
    }

    fn fd(&self) -> i32 {
        std::os::unix::io::AsRawFd::as_raw_fd(&self.rx)
    }
}

/// Non-unix fallback: the loop never blocks longer than a tick, so
/// there is nothing to wake.
#[cfg(not(unix))]
pub(crate) struct Waker;

#[cfg(not(unix))]
impl Waker {
    pub(crate) fn new() -> io::Result<Waker> {
        Ok(Waker)
    }
    pub(crate) fn wake(&self) {}
    fn drain(&self) {}
}

/// One connection as the reactor sees it.
struct Conn {
    stream: TcpStream,
    state: ConnState,
    /// Bytes read but not yet consumed as frames.
    read_buf: Vec<u8>,
    /// The (single) serialized response being written, if any.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// A request is with the workers; no reads until it completes.
    busy: bool,
    /// Close as soon as the write buffer flushes (BUSY rejections).
    closing: bool,
    /// The peer vanished while `busy`; discard the completion.
    dead: bool,
    /// The peer half-closed: no more requests will arrive, but frames
    /// already buffered (a pipelined burst ending in FIN) still get
    /// served — same behavior as the blocking model's frame-by-frame
    /// reads.
    eof: bool,
    /// Whether this connection occupies an admission slot
    /// (`sessions.active`); BUSY rejections do not.
    counted: bool,
    /// Last time a full frame arrived or response bytes moved — the
    /// idle-timeout clock.
    last_progress: Instant,
    /// The loop iteration in which this connection last ran a request
    /// inline: at most one per iteration.
    inlined_at: u64,
}

impl Conn {
    /// Read interest: only between requests, with nothing buffered to
    /// write. This single predicate *is* the backpressure discipline.
    fn wants_read(&self) -> bool {
        !self.busy && self.write_buf.is_empty() && !self.closing
    }

    /// The announced payload length of the frame at the head of the read
    /// buffer, once its length prefix is in.
    fn head_len(&self) -> Option<usize> {
        let prefix = self.read_buf.first_chunk::<4>()?;
        Some(u32::from_be_bytes(*prefix) as usize)
    }

    /// Whether the read buffer holds something [`advance`] acts on
    /// without reading more: a whole frame, or a length prefix over the
    /// cap (a hard close).
    fn frame_ready(&self) -> bool {
        self.head_len()
            .is_some_and(|len| len > MAX_FRAME || self.read_buf.len() >= 4 + len)
    }

    /// Serializes a response into the bounded write queue;
    /// `encode_response_ctx` downgrades an oversized result to the typed
    /// frame-cap error. The request's observability context (if any) is
    /// consumed here — response-ready is where the lane latency record
    /// and the trace retire.
    fn queue_response(&mut self, shared: &Shared, response: Response, ctx: Option<ObsCtx>) {
        let encoded = shared.encode_response_ctx(response, ctx);
        self.write_buf
            .extend_from_slice(&(encoded.len() as u32).to_be_bytes());
        self.write_buf.extend_from_slice(encoded.as_bytes());
    }

    /// Writes as much of the pending response as the socket accepts.
    /// `Ok(true)` once the buffer is empty.
    fn try_flush(&mut self) -> io::Result<bool> {
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.write_pos += n;
                    self.last_progress = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.write_buf.clear();
        self.write_pos = 0;
        Ok(true)
    }
}

/// Whether a connection survives the event that was just handled.
#[derive(PartialEq)]
enum Verdict {
    Keep,
    Close,
}

/// One readiness event.
#[derive(Clone, Copy)]
enum Event {
    Accept,
    Conn(u64, i16),
    /// A connection holds a whole frame it was not served in the last
    /// iteration because it had already run a request inline.
    Ready(u64),
}

/// The loop's `poll` buffers, kept across iterations and refilled each
/// pass.
#[derive(Default)]
struct PollSet {
    #[cfg(unix)]
    fds: Vec<sys::PollFd>,
    #[cfg(unix)]
    ids: Vec<Option<u64>>,
    events: Vec<Event>,
}

/// What request dispatch needs from the loop.
struct Dispatch {
    /// The worker pool's job channel.
    jobs: mpsc::Sender<Job>,
    /// The current loop iteration, which rations inline runs.
    tick: u64,
}

/// Runs the event loop until `stop()`. Owns the listener, every
/// connection, and the worker pool.
pub(crate) fn run(listener: TcpListener, shared: Arc<Shared>, waker: Arc<Waker>) {
    let _ = listener.set_nonblocking(true);
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let (done_tx, done_rx) = mpsc::channel::<Done>();
    let workers = spawn_workers(&shared, job_rx, done_tx, &waker);
    let mut dispatch = Dispatch {
        jobs: job_tx,
        tick: 0,
    };
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id: u64 = 0;
    let mut scratch = vec![0u8; 64 * 1024];
    let mut poll = PollSet::default();
    let mut drain_deadline: Option<Instant> = None;
    let idle_timeout = shared.idle_timeout();

    loop {
        dispatch.tick += 1;
        let stopping = shared.is_stopping();
        if stopping {
            if drain_deadline.is_none() {
                drain_deadline = Some(Instant::now() + DRAIN_WINDOW);
                // Connections with nothing in flight have nothing to
                // drain; everything else gets the window.
                let idle: Vec<u64> = conns
                    .iter()
                    .filter(|(_, c)| !c.busy && c.write_buf.is_empty())
                    .map(|(&id, _)| id)
                    .collect();
                for id in idle {
                    close_conn(&shared, &mut conns, id);
                }
            }
            if conns.is_empty() || Instant::now() >= drain_deadline.expect("just set") {
                break;
            }
        }

        poll_once(&shared, &waker, &listener, &conns, &mut poll);
        for event in poll.events.drain(..) {
            let (id, verdict) = match event {
                Event::Accept => {
                    if !shared.is_stopping() {
                        accept_ready(&shared, &listener, &mut conns, &mut next_id);
                    }
                    continue;
                }
                Event::Conn(id, revents) => match conns.get_mut(&id) {
                    Some(conn) => (
                        id,
                        conn_event(&shared, conn, id, revents, &mut scratch, &dispatch),
                    ),
                    None => continue,
                },
                Event::Ready(id) => match conns.get_mut(&id) {
                    Some(conn) if conn.wants_read() && !shared.is_stopping() => {
                        (id, advance(&shared, conn, id, &dispatch))
                    }
                    _ => continue,
                },
            };
            if verdict == Verdict::Close {
                close_conn(&shared, &mut conns, id);
            }
        }

        // Completions: fold worker output back into connection state.
        while let Ok((id, output, ctx)) = done_rx.try_recv() {
            let verdict = match conns.get_mut(&id) {
                Some(conn) => complete(&shared, conn, id, output, ctx, &dispatch),
                None => continue, // closed during drain; no reader
            };
            if verdict == Verdict::Close {
                close_conn(&shared, &mut conns, id);
            }
        }

        if idle_timeout > Duration::ZERO && !shared.is_stopping() {
            let now = Instant::now();
            let expired: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| !c.busy && now.duration_since(c.last_progress) >= idle_timeout)
                .map(|(&id, _)| id)
                .collect();
            for id in expired {
                close_conn(&shared, &mut conns, id);
            }
        }
    }

    let ids: Vec<u64> = conns.keys().copied().collect();
    for id in ids {
        close_conn(&shared, &mut conns, id);
    }
    drop(dispatch);
    for w in workers {
        let _ = w.join();
    }
}

/// Polls every registered fd once and collects readiness into
/// `poll.events`. A connection still holding a whole frame it was not
/// served (see [`advance`]) gets a `Ready` event, and while one does the
/// poll does not sleep. On non-unix targets this sleeps a tick and
/// reports everything as ready.
fn poll_once(
    shared: &Shared,
    waker: &Waker,
    listener: &TcpListener,
    conns: &HashMap<u64, Conn>,
    poll: &mut PollSet,
) {
    let accepting = !shared.is_stopping();
    let idle_timeout = shared.idle_timeout();
    poll.events.clear();
    for (&id, conn) in conns.iter() {
        if accepting && !conn.dead && conn.wants_read() && conn.frame_ready() {
            poll.events.push(Event::Ready(id));
        }
    }
    #[cfg(unix)]
    {
        use std::os::unix::io::AsRawFd;
        let (fds, ids) = (&mut poll.fds, &mut poll.ids);
        fds.clear();
        ids.clear();
        fds.push(sys::PollFd {
            fd: waker.fd(),
            events: sys::POLLIN,
            revents: 0,
        });
        ids.push(None);
        if accepting {
            fds.push(sys::PollFd {
                fd: listener.as_raw_fd(),
                events: sys::POLLIN,
                revents: 0,
            });
            ids.push(None);
        }
        let listener_slot = if accepting { 1 } else { usize::MAX };
        let mut timeout = if poll.events.is_empty() {
            POLL_CAP_MS
        } else {
            0
        };
        for (&id, conn) in conns.iter() {
            if conn.dead {
                // Already condemned; re-reporting its POLLERR every
                // iteration until the in-flight query completes would
                // turn the loop into a busy-spin.
                continue;
            }
            let mut interest = 0i16;
            if conn.wants_read() && accepting {
                interest |= sys::POLLIN;
            }
            if !conn.write_buf.is_empty() {
                interest |= sys::POLLOUT;
            }
            // interest == 0 still registers the fd: POLLERR/POLLHUP are
            // reported regardless, so a fully-dead peer is noticed.
            fds.push(sys::PollFd {
                fd: conn.stream.as_raw_fd(),
                events: interest,
                revents: 0,
            });
            ids.push(Some(id));
            if idle_timeout > Duration::ZERO && !conn.busy {
                let left = idle_timeout.saturating_sub(conn.last_progress.elapsed());
                let left_ms = left.as_millis().min(POLL_CAP_MS as u128) as i32;
                timeout = timeout.min(left_ms + 1);
            }
        }
        if sys::poll_fds(fds, timeout).is_err() {
            std::thread::sleep(Duration::from_millis(2));
        }
        waker.drain();
        for (slot, fd) in fds.iter().enumerate() {
            if fd.revents == 0 {
                continue;
            }
            match ids[slot] {
                Some(id) => poll.events.push(Event::Conn(id, fd.revents)),
                None if slot == listener_slot => poll.events.push(Event::Accept),
                None => {} // the waker, already drained
            }
        }
    }
    #[cfg(not(unix))]
    {
        let _ = idle_timeout;
        std::thread::sleep(Duration::from_millis(2));
        waker.drain();
        if accepting {
            poll.events.push(Event::Accept);
        }
        for (&id, conn) in conns.iter() {
            let mut revents = 0i16;
            if conn.wants_read() && accepting {
                revents |= sys::POLLIN;
            }
            if !conn.write_buf.is_empty() {
                revents |= sys::POLLOUT;
            }
            if revents != 0 {
                poll.events.push(Event::Conn(id, revents));
            }
        }
    }
}

/// Accepts every pending connection, applying `--max-conns` admission:
/// over the cap, the connection gets one typed `ERR BUSY` frame and is
/// closed after it flushes, without ever occupying a session slot.
fn accept_ready(
    shared: &Shared,
    listener: &TcpListener,
    conns: &mut HashMap<u64, Conn>,
    next_id: &mut u64,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            // Persistent failure (fd exhaustion): back off rather than
            // spin on a level-triggered POLLIN.
            Err(_) => {
                std::thread::sleep(Duration::from_millis(5));
                return;
            }
        };
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let stats = shared.stats();
        let max = shared.max_conns();
        let admitted =
            max == 0 || (stats.connections_active.load(Ordering::Relaxed) as usize) < max;
        *next_id += 1;
        let id = *next_id;
        let mut conn = Conn {
            stream,
            state: ConnState::new(),
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            busy: false,
            closing: !admitted,
            dead: false,
            eof: false,
            counted: admitted,
            last_progress: Instant::now(),
            inlined_at: 0,
        };
        if admitted {
            stats.connections_total.fetch_add(1, Ordering::Relaxed);
            stats.connections_active.fetch_add(1, Ordering::Relaxed);
            conns.insert(id, conn);
        } else {
            stats.conns_rejected.fetch_add(1, Ordering::Relaxed);
            conn.queue_response(
                shared,
                Response::Error {
                    code: ErrorCode::Busy,
                    message: format!("server is at --max-conns ({max}); retry later"),
                },
                None,
            );
            // Flush opportunistically; most rejections fit the socket
            // buffer and close right here.
            let verdict = flush_verdict(&mut conn);
            if verdict == Verdict::Keep {
                conns.insert(id, conn);
            }
        }
    }
}

/// Handles one connection's readiness bits.
fn conn_event(
    shared: &Shared,
    conn: &mut Conn,
    id: u64,
    revents: i16,
    scratch: &mut [u8],
    dispatch: &Dispatch,
) -> Verdict {
    if revents & (sys::POLLERR | sys::POLLNVAL) != 0 {
        if conn.busy {
            conn.dead = true; // reap at completion
            return Verdict::Keep;
        }
        return Verdict::Close;
    }
    if !conn.write_buf.is_empty() && revents & (sys::POLLOUT | sys::POLLHUP) != 0 {
        if flush_verdict(conn) == Verdict::Close {
            return Verdict::Close;
        }
        // A finished flush re-enables reads; buffered pipelined frames
        // can proceed immediately rather than waiting for more bytes.
        if conn.write_buf.is_empty() && !shared.is_stopping() {
            return advance(shared, conn, id, dispatch);
        }
        return Verdict::Keep;
    }
    if conn.wants_read() && !shared.is_stopping() && revents & (sys::POLLIN | sys::POLLHUP) != 0 {
        return read_ready(shared, conn, id, scratch, dispatch);
    }
    if revents & sys::POLLHUP != 0 && !conn.busy && conn.write_buf.is_empty() {
        return Verdict::Close;
    }
    Verdict::Keep
}

/// Reads until `WouldBlock` (bounded by one max frame of buffer), then
/// consumes complete frames.
fn read_ready(
    shared: &Shared,
    conn: &mut Conn,
    id: u64,
    scratch: &mut [u8],
    dispatch: &Dispatch,
) -> Verdict {
    loop {
        if conn.read_buf.len() >= 4 + MAX_FRAME {
            break; // one full frame buffered; parse before reading more
        }
        match conn.stream.read(scratch) {
            // EOF — clean between frames, a pipelined burst ending in
            // FIN, or a mid-frame disconnect. Buffered complete frames
            // are still served below; then the connection is over
            // (handles and cursors are freed by close_conn).
            Ok(0) => {
                conn.eof = true;
                break;
            }
            Ok(n) => conn.read_buf.extend_from_slice(&scratch[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Verdict::Close,
        }
    }
    advance(shared, conn, id, dispatch)
}

/// Consumes buffered frames until the connection goes busy, has a
/// response pending, or runs out of complete frames. At most one
/// request is ever in flight — the protocol is strict request/response.
///
/// A worked request that [`Shared::inline`] clears runs right here, on
/// the reactor, and its reply is queued before the next frame is read.
/// Fairness: a connection runs at most one request inline per loop
/// iteration. Frames it still holds wait for the next iteration, which
/// [`poll_once`] starts without sleeping, so a pipelined burst of
/// lookups shares the loop with every other connection instead of
/// monopolizing it.
fn advance(shared: &Shared, conn: &mut Conn, id: u64, dispatch: &Dispatch) -> Verdict {
    while conn.wants_read() {
        let Some(len) = conn.head_len() else {
            break;
        };
        if len > MAX_FRAME {
            // No way to resynchronize past a lying length prefix; same
            // hard close as the blocking read_frame path.
            return Verdict::Close;
        }
        if conn.read_buf.len() < 4 + len {
            break;
        }
        if conn.inlined_at == dispatch.tick {
            return Verdict::Keep;
        }
        let payload = conn.read_buf[4..4 + len].to_vec();
        conn.read_buf.drain(..4 + len);
        conn.last_progress = Instant::now();
        let verdict = match std::str::from_utf8(&payload) {
            Ok(text) => match conn.state.classify(shared, text) {
                Action::Respond(response, ctx) => {
                    conn.queue_response(shared, response, ctx);
                    flush_verdict(conn)
                }
                Action::Work(item, mut ctx) => {
                    match shared.inline(item, ctx.as_mut().and_then(ObsCtx::trace_mut)) {
                        Ok(run) => {
                            conn.inlined_at = dispatch.tick;
                            let output = run_guarded("reactor", &mut ctx, |trace| {
                                shared.run_inline(run, trace)
                            });
                            settle(shared, conn, output, ctx)
                        }
                        Err(item) => {
                            conn.busy = true;
                            if dispatch.jobs.send((id, item, ctx)).is_err() {
                                return Verdict::Close; // workers gone: shutting down
                            }
                            Verdict::Keep
                        }
                    }
                }
            },
            Err(_) => {
                conn.queue_response(
                    shared,
                    Response::Error {
                        code: ErrorCode::Proto,
                        message: "frame payload is not UTF-8".to_owned(),
                    },
                    None,
                );
                flush_verdict(conn)
            }
        };
        if verdict == Verdict::Close {
            return Verdict::Close;
        }
    }
    // A half-closed peer's connection ends once everything it pipelined
    // has been served (a trailing partial frame can never complete).
    if conn.eof && !conn.busy && conn.write_buf.is_empty() {
        return Verdict::Close;
    }
    Verdict::Keep
}

/// Flushes and folds the outcome into a keep/close verdict (a finished
/// flush on a `closing` connection means its goodbye frame is out).
fn flush_verdict(conn: &mut Conn) -> Verdict {
    match conn.try_flush() {
        Ok(true) if conn.closing => Verdict::Close,
        Ok(_) => Verdict::Keep,
        Err(_) => Verdict::Close,
    }
}

/// Completes one worked request on its connection, wherever it ran:
/// folds the output into connection state (handles, cursors), queues the
/// reply, and starts flushing it.
fn settle(
    shared: &Shared,
    conn: &mut Conn,
    output: WorkOutput,
    mut ctx: Option<ObsCtx>,
) -> Verdict {
    let response = conn.state.finish(shared, output, ctx.as_mut());
    conn.queue_response(shared, response, ctx);
    flush_verdict(conn)
}

/// Folds a worker completion back into its connection.
fn complete(
    shared: &Shared,
    conn: &mut Conn,
    id: u64,
    output: WorkOutput,
    ctx: Option<ObsCtx>,
    dispatch: &Dispatch,
) -> Verdict {
    conn.busy = false;
    if conn.dead {
        return Verdict::Close;
    }
    if settle(shared, conn, output, ctx) == Verdict::Close {
        return Verdict::Close;
    }
    if conn.write_buf.is_empty() {
        if shared.is_stopping() {
            // Drained: the in-flight query was answered in full.
            return Verdict::Close;
        }
        return advance(shared, conn, id, dispatch);
    }
    Verdict::Keep
}

/// Closes a connection and releases everything it held.
fn close_conn(shared: &Shared, conns: &mut HashMap<u64, Conn>, id: u64) {
    let Some(mut conn) = conns.remove(&id) else {
        return;
    };
    conn.state.teardown(shared);
    if conn.counted {
        shared
            .stats()
            .connections_active
            .fetch_sub(1, Ordering::Relaxed);
    }
}

/// The fixed execution pool: workers block on the job channel, run the
/// query, post the completion, and wake the reactor.
fn spawn_workers(
    shared: &Arc<Shared>,
    job_rx: mpsc::Receiver<Job>,
    done_tx: mpsc::Sender<Done>,
    waker: &Arc<Waker>,
) -> Vec<JoinHandle<()>> {
    let job_rx = Arc::new(Mutex::new(job_rx));
    (0..shared.worker_count())
        .map(|k| {
            let shared = Arc::clone(shared);
            let job_rx = Arc::clone(&job_rx);
            let done_tx = done_tx.clone();
            let waker = Arc::clone(waker);
            std::thread::Builder::new()
                .name(format!("gpmld-worker-{k}"))
                .spawn(move || loop {
                    let job = match job_rx.lock() {
                        Ok(rx) => rx.recv(),
                        Err(_) => return,
                    };
                    let Ok((id, item, mut ctx)) = job else { return };
                    let output =
                        run_guarded("worker", &mut ctx, |trace| shared.run_work(item, trace));
                    if done_tx.send((id, output, ctx)).is_err() {
                        return;
                    }
                    waker.wake();
                })
                .expect("spawn gpmld worker thread")
        })
        .collect()
}

/// Runs one worked request on the current thread — a pool worker, or the
/// reactor for a request [`Shared::inline`] cleared — and tags its trace
/// with which (`ran_on`). A panicking query becomes `ERR HOST`: it must
/// not take the pool or the loop, and every connection behind them,
/// down with it.
fn run_guarded(
    ran_on: &'static str,
    ctx: &mut Option<ObsCtx>,
    run: impl FnOnce(Option<&mut TraceBuilder>) -> WorkOutput,
) -> WorkOutput {
    let mut trace = ctx.as_mut().and_then(ObsCtx::trace_mut);
    if let Some(tb) = trace.as_deref_mut() {
        tb.tag("ran_on", ran_on);
    }
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(trace))).unwrap_or_else(|_| {
        WorkOutput::Response(Response::Error {
            code: ErrorCode::Host,
            message: "internal error: query execution panicked".to_owned(),
        })
    })
}
