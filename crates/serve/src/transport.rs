//! The transport core both daemons run: listener, event loops, compute
//! workers, shutdown and the transport counters.
//!
//! A `qcs-serve` shard and the `qcs-router` front-end move bytes the same
//! way and differ only in what a compute request turns into. The core
//! owns every socket and thread; a [`Handler`] supplies the two answers
//! that differ:
//!
//! * `stats`, rendered inline on the event loop;
//! * one compute request (`compile`, `compile_suite`) — the parsed
//!   [`Request`] plus its raw frame bytes — turned into response bytes
//!   on a worker.
//!
//! `ping` and `shutdown` the core answers itself.
//!
//! **Threads.** An *accept thread* owns the listener, applies the
//! connection limit, and hands admitted sockets round-robin to the
//! *event-loop threads* (see [`crate::event`]), which decode frames,
//! answer control requests inline and queue compute requests to the
//! *worker pool*. The pool starts with `eager_workers` threads and grows
//! on demand — one more thread whenever a job is queued while every
//! worker is busy — up to `max_workers`. A shard runs a fixed eager
//! pool; the router starts empty, so its threads track concurrent
//! forwards. Every thread is joined at shutdown.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use qcs_core::ladder::panic_message;
use qcs_json::Json;

use crate::event::{spawn_loops, LoopShared};
use crate::protocol::{error_response, shed_response, write_json, Request};

/// The default mid-frame read deadline: a started frame must finish
/// arriving within this budget.
pub(crate) const FRAME_DEADLINE: Duration = Duration::from_secs(5);

/// How often idle threads re-check the shutdown flag.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Back-off hint handed to load-shed clients.
const SHED_RETRY_MS: u64 = 100;

/// Locks a mutex, recovering from poisoning. Every shared structure in
/// the serving tier (job queue, cache, stats, breakers) maintains its
/// invariants between operations, so a panic that unwound through a
/// guard — e.g. an injected failpoint — leaves consistent data behind
/// and serving can continue.
pub(crate) fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// What a daemon does with the requests the core does not answer itself.
pub(crate) trait Handler: Send + Sync {
    /// The `stats` response. Runs on an event loop, so it must be cheap.
    fn stats(&self, core: &Core) -> Json;

    /// Serves one compute request on a worker, returning the unframed
    /// response payload. `frame` is the request's raw payload bytes.
    fn respond(&self, core: &Core, request: &Request, frame: &[u8]) -> Vec<u8>;
}

/// How one daemon runs the core.
pub(crate) struct CoreConfig {
    /// Thread-name prefix (`qcs-serve`, `qcs-router`).
    pub(crate) name: &'static str,
    /// Bind address; port 0 picks an ephemeral port.
    pub(crate) addr: String,
    pub(crate) event_loops: usize,
    /// Maximum simultaneously admitted connections.
    pub(crate) max_connections: usize,
    pub(crate) frame_deadline: Duration,
    /// Workers spawned at start.
    pub(crate) eager_workers: usize,
    /// Cap on workers; the pool grows on demand up to it.
    pub(crate) max_workers: usize,
}

/// One compute job queued from an event loop to the worker pool. The
/// `(loop_idx, token)` pair routes the finished response back to the
/// connection that asked.
pub(crate) struct WorkItem {
    pub(crate) loop_idx: usize,
    pub(crate) token: u64,
    pub(crate) request: Request,
    pub(crate) frame: Vec<u8>,
}

/// The job queue and the workers serving it.
struct Pool {
    jobs: VecDeque<WorkItem>,
    /// Every worker spawned so far, joined at shutdown.
    threads: Vec<JoinHandle<()>>,
    /// Workers currently running a job.
    busy: usize,
}

/// State shared by the accept thread, the event loops and the workers.
pub(crate) struct Core {
    pub(crate) config: CoreConfig,
    local_addr: SocketAddr,
    handler: Arc<dyn Handler>,
    pub(crate) shutdown: AtomicBool,
    pool: Mutex<Pool>,
    job_signal: Condvar,
    loops: OnceLock<Vec<Arc<LoopShared>>>,
    /// Admitted (not yet reaped) connections, across all event loops.
    pub(crate) active: AtomicUsize,
    pub(crate) jobs_panicked: AtomicU64,
    pub(crate) connections_panicked: AtomicU64,
    pub(crate) connections_shed: AtomicU64,
    connections_admitted: AtomicU64,
    /// Injected transport faults observed by the event loops.
    pub(crate) transport_faults: AtomicU64,
    /// Complete request frames decoded off sockets.
    pub(crate) frames_in: AtomicU64,
    /// Response frames queued to write buffers.
    pub(crate) frames_out: AtomicU64,
    /// Times a read batch ended with a frame still incomplete (the
    /// partial-frame accumulation path).
    pub(crate) partial_reads: AtomicU64,
    /// Times an event loop was woken through its loopback waker.
    pub(crate) wakeups: AtomicU64,
}

impl Core {
    fn event_loops(&self) -> &[Arc<LoopShared>] {
        self.loops.get().map(Vec::as_slice).unwrap_or(&[])
    }

    /// The handler's `stats` response.
    pub(crate) fn stats_json(&self) -> Json {
        self.handler.stats(self)
    }

    /// The transport counters, as the `stats` `transport` block.
    pub(crate) fn transport_json(&self) -> Json {
        let count = |counter: &AtomicU64| Json::from(counter.load(Ordering::SeqCst));
        Json::object([
            ("event_loops", Json::from(self.config.event_loops)),
            ("connections_admitted", count(&self.connections_admitted)),
            ("frames_in", count(&self.frames_in)),
            ("frames_out", count(&self.frames_out)),
            ("partial_reads", count(&self.partial_reads)),
            ("wakeups", count(&self.wakeups)),
        ])
    }

    /// Queues a compute job (called from event loops), growing the pool
    /// when every worker is busy and the cap allows.
    pub(crate) fn enqueue_job(self: &Arc<Self>, item: WorkItem) {
        let mut pool = lock_recovering(&self.pool);
        pool.jobs.push_back(item);
        let idle = pool.threads.len() - pool.busy;
        if pool.jobs.len() > idle && pool.threads.len() < self.config.max_workers {
            // A failed spawn leaves the job to the workers already running.
            let _ = self.spawn_worker(&mut pool);
        }
        drop(pool);
        self.job_signal.notify_one();
    }

    fn spawn_worker(self: &Arc<Self>, pool: &mut Pool) -> io::Result<()> {
        let core = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!(
                "{}-worker-{}",
                self.config.name,
                pool.threads.len()
            ))
            .spawn(move || worker_loop(&core))?;
        pool.threads.push(handle);
        Ok(())
    }

    pub(crate) fn initiate_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return; // already shutting down
        }
        self.job_signal.notify_all();
        for event_loop in self.event_loops() {
            event_loop.wake();
        }
        // The accept thread may be parked in accept(): poke it awake.
        let _ = TcpStream::connect(self.local_addr);
    }
}

/// What the daemon's threads reported at join time.
///
/// Panic isolation means worker threads normally survive even panicking
/// jobs; a nonzero [`threads_panicked`](ShutdownStats::threads_panicked)
/// therefore signals a bug in the serving loop itself, not in a job.
/// Shutdown still completes cleanly either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShutdownStats {
    /// Daemon threads that exited normally.
    pub threads_joined: usize,
    /// Daemon threads that died panicking (their panic is swallowed at
    /// join time so shutdown always completes).
    pub threads_panicked: usize,
}

/// A running core: its shared state plus the accept and loop threads
/// (workers live in the pool).
pub(crate) struct Transport {
    core: Arc<Core>,
    accept_thread: JoinHandle<()>,
    loop_threads: Vec<JoinHandle<()>>,
}

impl Transport {
    /// Binds the listener and spawns the event loops, the eager workers
    /// and the accept thread.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (bind failure, unparsable address).
    pub(crate) fn start(config: CoreConfig, handler: Arc<dyn Handler>) -> io::Result<Transport> {
        assert!(
            config.event_loops > 0,
            "event-loop count must be at least 1"
        );
        assert!(config.max_workers > 0, "worker count must be at least 1");
        let listener = TcpListener::bind(&config.addr)?;
        let core = Arc::new(Core {
            local_addr: listener.local_addr()?,
            config,
            handler,
            shutdown: AtomicBool::new(false),
            pool: Mutex::new(Pool {
                jobs: VecDeque::new(),
                threads: Vec::new(),
                busy: 0,
            }),
            job_signal: Condvar::new(),
            loops: OnceLock::new(),
            active: AtomicUsize::new(0),
            jobs_panicked: AtomicU64::new(0),
            connections_panicked: AtomicU64::new(0),
            connections_shed: AtomicU64::new(0),
            connections_admitted: AtomicU64::new(0),
            transport_faults: AtomicU64::new(0),
            frames_in: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
            partial_reads: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
        });

        let (loop_shared, loop_threads) = spawn_loops(&core)?;
        core.loops
            .set(loop_shared)
            .unwrap_or_else(|_| unreachable!("loops are set exactly once, here"));
        {
            let mut pool = lock_recovering(&core.pool);
            for _ in 0..core.config.eager_workers {
                core.spawn_worker(&mut pool)
                    .expect("spawning a worker thread");
            }
        }
        let accept_core = Arc::clone(&core);
        let accept_thread = std::thread::Builder::new()
            .name(format!("{}-accept", core.config.name))
            .spawn(move || accept_loop(&listener, &accept_core))
            .expect("spawning the accept thread");
        Ok(Transport {
            core,
            accept_thread,
            loop_threads,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.core.local_addr
    }

    pub(crate) fn core(&self) -> &Arc<Core> {
        &self.core
    }

    /// Joins every thread; returns once the core has shut down.
    pub(crate) fn join(self) -> ShutdownStats {
        let mut stats = ShutdownStats::default();
        let mut tally = |thread: JoinHandle<()>| match thread.join() {
            Ok(()) => stats.threads_joined += 1,
            Err(_) => stats.threads_panicked += 1,
        };
        tally(self.accept_thread);
        // The loops are the only producers of work: once they are joined
        // the pool spawns no more workers.
        self.loop_threads.into_iter().for_each(&mut tally);
        let workers = std::mem::take(&mut lock_recovering(&self.core.pool).threads);
        workers.into_iter().for_each(tally);
        stats
    }
}

fn accept_loop(listener: &TcpListener, core: &Core) {
    let loops = core.event_loops();
    let mut next_loop = 0usize;
    for stream in listener.incoming() {
        if core.shutdown.load(Ordering::SeqCst) {
            break; // the stream (often the shutdown self-poke) is dropped
        }
        let Ok(stream) = stream else { continue };
        if core.active.load(Ordering::SeqCst) >= core.config.max_connections {
            core.connections_shed.fetch_add(1, Ordering::SeqCst);
            reject_connection(stream);
            continue;
        }
        // Admit: the counter covers the connection until its owning loop
        // reaps it (including registration-failpoint deaths).
        core.active.fetch_add(1, Ordering::SeqCst);
        core.connections_admitted.fetch_add(1, Ordering::SeqCst);
        loops[next_loop].inject(stream);
        next_loop = (next_loop + 1) % loops.len();
    }
}

/// Tells an over-limit client why it is being turned away and when to
/// come back.
fn reject_connection(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = write_json(
        &mut stream,
        &shed_response("server at connection capacity, retry later", SHED_RETRY_MS),
    );
}

fn worker_loop(core: &Core) {
    loop {
        let item = {
            let mut pool = lock_recovering(&core.pool);
            loop {
                if let Some(item) = pool.jobs.pop_front() {
                    pool.busy += 1;
                    break Some(item);
                }
                if core.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _) = core
                    .job_signal
                    .wait_timeout(pool, POLL_INTERVAL)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                pool = guard;
            }
        };
        let Some(item) = item else { return };
        // Belt and braces: handlers isolate their own panics, but a
        // worker must never die — it would strand every connection whose
        // jobs it was serving.
        let response = std::panic::catch_unwind(AssertUnwindSafe(|| {
            core.handler.respond(core, &item.request, &item.frame)
        }))
        .unwrap_or_else(|panic| {
            core.jobs_panicked.fetch_add(1, Ordering::SeqCst);
            error_response(format!(
                "request handler panicked: {}",
                panic_message(panic.as_ref())
            ))
            .to_compact_string()
            .into_bytes()
        });
        // Idle again before the response can reach the client, so the
        // client's next request finds this worker free instead of
        // growing the pool.
        lock_recovering(&core.pool).busy -= 1;
        if let Some(event_loop) = core.event_loops().get(item.loop_idx) {
            event_loop.complete(item.token, response);
        }
    }
}
