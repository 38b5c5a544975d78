//! The readiness loops: non-blocking connection I/O over `poll(2)`.
//!
//! A small fixed pool of *event-loop threads* owns every socket the
//! transport core ([`crate::transport`]) accepts, for shards and router
//! alike. Each loop multiplexes its connections through
//! [`qcs_sys::poll_fds`]: reads land in a per-connection
//! [`FrameDecoder`] (partial frames accumulate across wakeups), complete
//! requests are answered inline when cheap (`ping`, `stats`,
//! `shutdown`) or handed, with their raw frame bytes, to the compute
//! worker pool (`compile`, `compile_suite`), and responses drain through
//! a per-connection write buffer with backpressure — a peer that stops
//! reading costs memory on its own connection, never a thread.
//!
//! **Ordering.** Each connection processes its requests strictly in
//! arrival order, one compute job in flight at a time; pipelined
//! requests queue behind it. Responses are therefore byte-for-byte and
//! order-identical to the old thread-per-connection blocking server —
//! the property `tests/nonblocking_fuzz.rs` hammers.
//!
//! **Waking.** Worker completions and newly accepted sockets arrive
//! from other threads while the loop is parked in `poll`. Each loop owns
//! a loopback socket pair; producers push work onto a mutex-protected
//! queue and write one byte to the pair's far end, which makes the
//! loop's own end readable and the `poll` return. The byte count is
//! meaningless (a full pipe means a wakeup is already pending) — the
//! queues are the truth, the pair is just an interrupt.
//!
//! **Lifecycle.** A connection dies when: the peer closes and all its
//! queued work is answered; a write fails; its mid-frame read deadline
//! fires (it gets an `error` frame first); the decoder loses framing
//! sync (oversized prefix — `error` frame, then close); or the server
//! shuts down.
//!
//! **Fault injection.** Two failpoint sites model network misbehavior
//! (see [`qcs_faults::TransportFault`]): `serve.transport.read` fires
//! before each read sweep (slow-read stalls the loop, conn-reset kills
//! the connection, black-hole makes it swallow traffic silently), and
//! `serve.transport.write` fires inside [`Conn::flush`] (partial-write
//! caps one flush, conn-reset kills). The chaos harness arms them with
//! seeded probabilistic policies to prove the fleet above survives.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qcs_sys::{poll_fds, PollFd, POLLIN, POLLOUT};

use crate::frame::FrameDecoder;
use crate::protocol::{error_response, Request};
use crate::transport::{lock_recovering, Core, WorkItem};
use qcs_json::Json;

/// Read-chunk size for every socket read that feeds a [`FrameDecoder`]
/// (client connections here, upstream legs in the router): large enough
/// to drain a pipelined burst or a typical response in one syscall,
/// small enough to keep per-loop memory trivial.
pub(crate) const READ_CHUNK: usize = 64 * 1024;

/// Wakes one event loop from another thread by making its loopback
/// socket readable.
pub(crate) struct Waker {
    tx: TcpStream,
}

impl Waker {
    /// Signals the loop. Never blocks: the socket is non-blocking and a
    /// full buffer means a wakeup is already pending.
    pub(crate) fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }
}

/// The cross-thread face of one event loop: producers push here and
/// wake; the loop drains on its next iteration.
pub(crate) struct LoopShared {
    injected: Mutex<Vec<TcpStream>>,
    completions: Mutex<Vec<(u64, Vec<u8>)>>,
    waker: Waker,
}

impl LoopShared {
    /// Hands a freshly accepted socket to this loop (from the accept
    /// thread).
    pub(crate) fn inject(&self, stream: TcpStream) {
        lock_recovering(&self.injected).push(stream);
        self.waker.wake();
    }

    /// Delivers a finished job's response bytes (from a worker).
    pub(crate) fn complete(&self, token: u64, bytes: Vec<u8>) {
        lock_recovering(&self.completions).push((token, bytes));
        self.waker.wake();
    }

    /// Wakes the loop with no work attached (shutdown broadcast).
    pub(crate) fn wake(&self) {
        self.waker.wake();
    }
}

/// A connected loopback pair: `(wake_rx, wake_tx)`, both non-blocking.
/// Std-only stand-in for `pipe(2)` so the sys shim stays poll-only.
fn wake_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    rx.set_nonblocking(true)?;
    tx.set_nonblocking(true)?;
    tx.set_nodelay(true)?;
    Ok((rx, tx))
}

/// What [`spawn_loops`] hands back: each loop's cross-thread face plus
/// its thread handle, in loop-index order.
pub(crate) type SpawnedLoops = (Vec<Arc<LoopShared>>, Vec<JoinHandle<()>>);

/// Spawns the core's event-loop threads.
pub(crate) fn spawn_loops(core: &Arc<Core>) -> io::Result<SpawnedLoops> {
    let count = core.config.event_loops;
    let mut loops = Vec::with_capacity(count);
    let mut threads = Vec::with_capacity(count);
    for i in 0..count {
        let (wake_rx, wake_tx) = wake_pair()?;
        let ls = Arc::new(LoopShared {
            injected: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
            waker: Waker { tx: wake_tx },
        });
        loops.push(Arc::clone(&ls));
        let core = Arc::clone(core);
        threads.push(
            std::thread::Builder::new()
                .name(format!("{}-loop-{i}", core.config.name))
                .spawn(move || run_loop(i, &core, &ls, wake_rx))
                .expect("spawning an event-loop thread"),
        );
    }
    Ok((loops, threads))
}

/// One queued per-connection action, processed strictly in order.
enum Pending {
    /// Bytes already decided (error frames, inline responses computed at
    /// dequeue time would break ordering — these were queued in arrival
    /// position).
    Respond(Vec<u8>),
    /// A parsed request still to execute, with its raw frame bytes.
    Work(Request, Vec<u8>),
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// When the currently-accumulating frame's first byte arrived.
    frame_started: Option<Instant>,
    /// Unsent response bytes (`out[out_pos..]` is the unwritten tail).
    out: Vec<u8>,
    out_pos: usize,
    /// Requests (and pre-rendered responses) awaiting their turn.
    pending: VecDeque<Pending>,
    /// A compute job for this connection is at the workers.
    in_flight: bool,
    /// No further reads: drain `pending`/`out`, then close.
    closing: bool,
    /// Peer sent EOF (reads are over; queued work still completes).
    peer_closed: bool,
    /// Unrecoverable I/O error: reap immediately.
    dead: bool,
    /// Injected black-hole fault: swallow reads, never write. The
    /// connection lingers (holding peer-side state hostage, as a real
    /// black hole would) until the peer gives up and closes.
    black_holed: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            frame_started: None,
            out: Vec::new(),
            out_pos: 0,
            pending: VecDeque::new(),
            in_flight: false,
            closing: false,
            peer_closed: false,
            dead: false,
            black_holed: false,
        }
    }

    fn has_output(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Appends one already-framed response to the write buffer.
    fn queue_bytes(&mut self, bytes: &[u8]) {
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        self.out.extend_from_slice(bytes);
    }

    /// Frames and appends a payload (length prefix + payload bytes).
    fn queue_payload(&mut self, payload: &[u8]) {
        let len = u32::try_from(payload.len()).expect("responses fit the protocol");
        self.queue_bytes(&len.to_be_bytes());
        self.queue_bytes(payload);
    }

    fn queue_json(&mut self, value: &Json) {
        self.queue_payload(value.to_compact_string().as_bytes());
    }

    /// Writes as much buffered output as the socket accepts right now.
    fn flush(&mut self) {
        if self.black_holed {
            // Responses vanish into the hole; discarding keeps the write
            // buffer from pinning the connection past peer close.
            self.out.clear();
            self.out_pos = 0;
            return;
        }
        let mut write_cap = usize::MAX;
        if qcs_faults::any_armed() {
            match qcs_faults::transport_fault("serve.transport.write") {
                None => {}
                Some(qcs_faults::TransportFault::PartialWrite(n)) => write_cap = n,
                Some(qcs_faults::TransportFault::ConnReset) => {
                    self.dead = true;
                    return;
                }
                // Read-shaped faults are meaningless on the write path.
                Some(_) => {}
            }
        }
        while self.has_output() {
            if write_cap == 0 {
                return; // injected partial write: rest stays queued
            }
            let tail = &self.out[self.out_pos..];
            let tail = &tail[..tail.len().min(write_cap)];
            match self.stream.write(tail) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.out_pos += n;
                    write_cap -= n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        self.out.clear();
        self.out_pos = 0;
    }

    /// Best-effort synchronous drain with a short budget — used for the
    /// `shutdown` acknowledgement, where the loop is about to exit and
    /// would otherwise drop the buffered `ok` frame.
    fn flush_blocking(&mut self, budget: Duration) {
        let deadline = Instant::now() + budget;
        while self.has_output() && !self.dead {
            self.flush();
            if !self.has_output() {
                break;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            let mut fds = [PollFd::new(self.stream.as_raw_fd(), POLLOUT)];
            if poll_fds(&mut fds, Some(remaining.min(Duration::from_millis(50)))).is_err() {
                break;
            }
        }
    }

    /// True when nothing more can or will happen on this connection.
    fn reapable(&self) -> bool {
        self.dead
            || ((self.closing || self.peer_closed)
                && !self.in_flight
                && self.pending.is_empty()
                && !self.has_output())
    }
}

/// Drains a mutex-protected vector without holding the lock during
/// processing.
fn take_all<T>(queue: &Mutex<Vec<T>>) -> Vec<T> {
    std::mem::take(&mut *lock_recovering(queue))
}

fn run_loop(loop_idx: usize, core: &Arc<Core>, ls: &LoopShared, wake_rx: TcpStream) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut read_buf = vec![0u8; READ_CHUNK];
    let mut fds: Vec<PollFd> = Vec::new();
    let mut fd_tokens: Vec<u64> = Vec::new();
    let mut reap: Vec<u64> = Vec::new();
    let mut wake_rx = wake_rx;

    loop {
        // New connections from the accept thread.
        for stream in take_all(&ls.injected) {
            // Chaos failpoint: lets the harness kill a connection at
            // admission to prove the loop (and its other connections)
            // survive. A panic costs this connection only.
            let armed = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let _ = qcs_faults::hit("serve.connection");
            }));
            if armed.is_err() {
                core.connections_panicked.fetch_add(1, Ordering::SeqCst);
                core.active.fetch_sub(1, Ordering::SeqCst);
                continue; // stream drops: closed without a frame
            }
            if stream.set_nonblocking(true).is_err() {
                core.active.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            let _ = stream.set_nodelay(true);
            let token = next_token;
            next_token += 1;
            conns.insert(token, Conn::new(stream));
        }

        // Finished jobs from the workers.
        for (token, bytes) in take_all(&ls.completions) {
            if let Some(conn) = conns.get_mut(&token) {
                conn.queue_payload(&bytes);
                core.frames_out.fetch_add(1, Ordering::SeqCst);
                conn.in_flight = false;
                advance(loop_idx, token, conn, core);
            }
        }

        if core.shutdown.load(Ordering::SeqCst) {
            break;
        }

        // Reap everything that finished during queue draining.
        reap.clear();
        reap.extend(conns.iter().filter(|(_, c)| c.reapable()).map(|(&t, _)| t));
        for token in reap.drain(..) {
            conns.remove(&token);
            core.active.fetch_sub(1, Ordering::SeqCst);
        }

        // Build the poll set: the waker first, then every connection.
        fds.clear();
        fd_tokens.clear();
        fds.push(PollFd::new(wake_rx.as_raw_fd(), POLLIN));
        let mut timeout: Option<Duration> = None;
        let now = Instant::now();
        for (&token, conn) in &conns {
            let mut events = 0i16;
            if !conn.closing && !conn.peer_closed {
                events |= POLLIN;
            }
            if conn.has_output() {
                events |= POLLOUT;
            }
            fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
            fd_tokens.push(token);
            if let Some(started) = conn.frame_started {
                let remaining = core
                    .config
                    .frame_deadline
                    .saturating_sub(now.duration_since(started));
                timeout = Some(timeout.map_or(remaining, |t: Duration| t.min(remaining)));
            }
        }

        if poll_fds(&mut fds, timeout).is_err() {
            // A transient poll failure (resource pressure): fall through
            // and retry — the queues and deadline sweep keep us honest.
            std::thread::sleep(Duration::from_millis(1));
        }

        // Drain the waker.
        if fds[0].readable() {
            core.wakeups.fetch_add(1, Ordering::SeqCst);
            loop {
                match wake_rx.read(&mut read_buf) {
                    Ok(0) => break, // peer end dropped: shutdown imminent
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
        }

        // Service ready connections.
        for (slot, &token) in fd_tokens.iter().enumerate() {
            let entry = fds[slot + 1];
            if entry.revents() == 0 {
                continue;
            }
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            if entry.writable() && conn.has_output() {
                conn.flush();
            }
            if entry.readable() && !conn.closing && !conn.peer_closed {
                read_ready(loop_idx, token, conn, core, &mut read_buf);
            }
        }

        // Mid-frame read deadlines: answer with an error frame, stop
        // reading, and let the normal drain-then-reap path close.
        let now = Instant::now();
        let expired: Vec<u64> = conns
            .iter()
            .filter(|(_, c)| !c.closing && !c.dead)
            .filter(|(_, c)| {
                c.frame_started
                    .is_some_and(|started| now.duration_since(started) > core.config.frame_deadline)
            })
            .map(|(&t, _)| t)
            .collect();
        for token in expired {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            let message = format!(
                "read deadline exceeded: frame incomplete after {} ms",
                core.config.frame_deadline.as_millis()
            );
            conn.pending
                .push_back(Pending::Respond(render(&error_response(message))));
            conn.closing = true;
            conn.frame_started = None;
            advance(loop_idx, token, conn, core);
        }

        // Reap: dead, deadline-closed-and-drained, or peer-closed-and-done.
        reap.clear();
        reap.extend(conns.iter().filter(|(_, c)| c.reapable()).map(|(&t, _)| t));
        for token in reap.drain(..) {
            conns.remove(&token);
            core.active.fetch_sub(1, Ordering::SeqCst);
        }
    }

    // Shutdown: close every connection this loop owns.
    let remaining = conns.len();
    for _ in 0..remaining {
        core.active.fetch_sub(1, Ordering::SeqCst);
    }
    drop(conns);
    // Streams injected after the final drain are closed by Drop too.
    let stragglers = take_all(&ls.injected);
    for _ in &stragglers {
        core.active.fetch_sub(1, Ordering::SeqCst);
    }
}

fn render(value: &Json) -> Vec<u8> {
    value.to_compact_string().into_bytes()
}

/// Reads until the socket would block, feeding the decoder and queueing
/// parsed requests.
fn read_ready(loop_idx: usize, token: u64, conn: &mut Conn, core: &Arc<Core>, buf: &mut [u8]) {
    if qcs_faults::any_armed() {
        match qcs_faults::transport_fault("serve.transport.read") {
            None => {}
            Some(qcs_faults::TransportFault::SlowRead(ms)) => {
                // A stalled NIC stalls the whole loop, not one socket —
                // sleeping here models exactly that.
                core.transport_faults.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(ms));
            }
            Some(qcs_faults::TransportFault::ConnReset) => {
                core.transport_faults.fetch_add(1, Ordering::SeqCst);
                conn.dead = true;
                return;
            }
            Some(qcs_faults::TransportFault::BlackHole) => {
                core.transport_faults.fetch_add(1, Ordering::SeqCst);
                conn.black_holed = true;
            }
            // Write-shaped faults are meaningless on the read path.
            Some(qcs_faults::TransportFault::PartialWrite(_)) => {}
        }
    }
    if conn.black_holed {
        // Swallow whatever arrived; only a peer EOF ends the charade.
        loop {
            match conn.stream.read(buf) {
                Ok(0) => {
                    conn.dead = true;
                    return;
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
    }
    let mut frames: Vec<Vec<u8>> = Vec::new();
    loop {
        match conn.stream.read(buf) {
            Ok(0) => {
                conn.peer_closed = true;
                break;
            }
            Ok(n) => {
                if let Err(e) = conn.decoder.feed(&buf[..n], &mut frames) {
                    // Framing lost (oversized prefix): answer, then close.
                    conn.pending
                        .push_back(Pending::Respond(render(&error_response(e.0))));
                    conn.closing = true;
                    conn.frame_started = None;
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if !conn.closing {
        if conn.decoder.mid_frame() {
            if conn.frame_started.is_none() {
                conn.frame_started = Some(Instant::now());
                core.partial_reads.fetch_add(1, Ordering::SeqCst);
            }
        } else {
            conn.frame_started = None;
        }
    }
    if !frames.is_empty() {
        core.frames_in
            .fetch_add(frames.len() as u64, Ordering::SeqCst);
        for payload in frames {
            match Request::parse(&payload) {
                Ok(request) => conn.pending.push_back(Pending::Work(request, payload)),
                // Malformed request: answer in order and keep the
                // connection — framing is intact, the stream is in sync.
                Err(e) => conn
                    .pending
                    .push_back(Pending::Respond(render(&error_response(e.to_string())))),
            }
        }
    }
    advance(loop_idx, token, conn, core);
}

/// Processes the pending queue in strict arrival order: pre-rendered
/// responses and cheap control requests drain inline; the first compute
/// request dispatches to the workers and blocks the queue until its
/// completion returns.
fn advance(loop_idx: usize, token: u64, conn: &mut Conn, core: &Arc<Core>) {
    while !conn.in_flight && !conn.dead {
        match conn.pending.pop_front() {
            None => break,
            Some(Pending::Respond(bytes)) => {
                conn.queue_payload(&bytes);
                core.frames_out.fetch_add(1, Ordering::SeqCst);
            }
            Some(Pending::Work(request, frame)) => match request {
                Request::Ping => {
                    conn.queue_json(&Json::object([("type", "pong")]));
                    core.frames_out.fetch_add(1, Ordering::SeqCst);
                }
                Request::Stats => {
                    conn.queue_json(&core.stats_json());
                    core.frames_out.fetch_add(1, Ordering::SeqCst);
                }
                Request::Shutdown => {
                    conn.queue_json(&Json::object([("type", "ok")]));
                    core.frames_out.fetch_add(1, Ordering::SeqCst);
                    // The loop exits before another flush chance: drain
                    // the acknowledgement synchronously, best effort.
                    conn.flush_blocking(Duration::from_secs(1));
                    core.initiate_shutdown();
                    return;
                }
                request @ (Request::Compile(_) | Request::CompileSuite(_)) => {
                    conn.in_flight = true;
                    core.enqueue_job(WorkItem {
                        loop_idx,
                        token,
                        request,
                        frame,
                    });
                    break;
                }
            },
        }
    }
    conn.flush();
}
