//! Load generators: a sequential pass, a closed loop, and a seeded
//! open-loop schedule. Each uses at most two client connections.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use qcs_circuit::hash::Fnv64;
use qcs_rng::{ChaCha8Rng, Rng};
use qcs_serve::protocol::{read_frame, write_frame};

use crate::workload::Req;

/// Client connections per load phase.
pub const CONNECTIONS: usize = 2;

/// One request's outcome as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into the request slice the phase ran over.
    pub idx: usize,
    /// Microseconds from send (closed loop) or from the scheduled send
    /// time (open loop) to the full response.
    pub latency_us: f64,
    /// True when a `result` frame came back (not an error, shed or I/O
    /// failure).
    pub ok: bool,
    /// Seconds from the phase start to the full response.
    pub done_s: f64,
    /// FNV-1a digest of the response bytes.
    pub digest: u64,
    /// The response bytes, when the phase was asked to keep them.
    pub body: Option<Vec<u8>>,
}

/// What one load phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Completed or failed requests, in completion order.
    pub samples: Vec<Sample>,
    /// Wall time from the first send to the last response.
    pub elapsed_s: f64,
    /// Open loop only: how late each send started, in microseconds.
    pub send_lag_us: Vec<f64>,
    /// Open loop only: requests still unanswered when the last send went
    /// out.
    pub backlog: usize,
    /// Closed loop only: the request stream ran out before the time did.
    pub exhausted: bool,
}

impl Phase {
    /// Completions per second.
    pub fn rps(&self) -> f64 {
        self.samples.len() as f64 / self.elapsed_s.max(1e-9)
    }
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    Ok(stream)
}

fn digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(bytes);
    h.finish()
}

fn sample(
    idx: usize,
    latency: Duration,
    done: Duration,
    response: io::Result<Vec<u8>>,
    keep: bool,
) -> Sample {
    let done_s = done.as_secs_f64();
    match response {
        Ok(body) => Sample {
            idx,
            latency_us: latency.as_secs_f64() * 1e6,
            done_s,
            ok: body.starts_with(br#"{"type":"result""#),
            digest: digest(&body),
            body: keep.then_some(body),
        },
        Err(_) => Sample {
            idx,
            latency_us: latency.as_secs_f64() * 1e6,
            done_s,
            ok: false,
            digest: 0,
            body: None,
        },
    }
}

fn call(stream: &mut Option<TcpStream>, addr: SocketAddr, payload: &[u8]) -> io::Result<Vec<u8>> {
    if stream.is_none() {
        *stream = Some(connect(addr)?);
    }
    let conn = stream.as_mut().expect("connected above");
    let result = write_frame(conn, payload).and_then(|()| {
        read_frame(conn)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"))
    });
    if result.is_err() {
        *stream = None;
    }
    result
}

/// Sends `reqs` one at a time on one connection.
pub fn sequential(addr: SocketAddr, reqs: &[Req], keep: bool) -> Phase {
    let start = Instant::now();
    let mut stream = None;
    let samples = reqs
        .iter()
        .enumerate()
        .map(|(idx, req)| {
            let sent = Instant::now();
            let response = call(&mut stream, addr, &req.bytes);
            sample(idx, sent.elapsed(), start.elapsed(), response, keep)
        })
        .collect();
    Phase {
        samples,
        elapsed_s: start.elapsed().as_secs_f64(),
        ..Phase::default()
    }
}

/// Closed loop: [`CONNECTIONS`] clients each send the next unsent request
/// of `reqs` as soon as their previous one completes, until `duration`
/// has passed and the stream is at a multiple of `block` requests. The
/// requests sent are always a whole number of blocks from the start of
/// `reqs`, so a stream built from balanced blocks is measured whole.
pub fn closed_loop(
    addr: SocketAddr,
    reqs: &[Req],
    duration: Duration,
    block: usize,
    keep: &(dyn Fn(&Req) -> bool + Sync),
) -> Phase {
    let next = AtomicUsize::new(0);
    let stop_at = AtomicUsize::new(usize::MAX);
    let exhausted = AtomicBool::new(false);
    let start = Instant::now();
    let deadline = start + duration;
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                scope.spawn(|| {
                    let mut stream = connect(addr).ok();
                    let mut out = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::SeqCst);
                        if Instant::now() >= deadline {
                            stop_at.fetch_min(idx.next_multiple_of(block), Ordering::SeqCst);
                        }
                        if idx >= stop_at.load(Ordering::SeqCst) {
                            break;
                        }
                        let Some(req) = reqs.get(idx) else {
                            exhausted.store(true, Ordering::Relaxed);
                            break;
                        };
                        let sent = Instant::now();
                        let response = call(&mut stream, addr, &req.bytes);
                        let (latency, done) = (sent.elapsed(), start.elapsed());
                        out.push(sample(idx, latency, done, response, keep(req)));
                    }
                    out
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    Phase {
        samples: per_client.into_iter().flatten().collect(),
        elapsed_s: start.elapsed().as_secs_f64(),
        exhausted: exhausted.load(Ordering::Relaxed),
        ..Phase::default()
    }
}

/// A seeded open-loop schedule entry: send `reqs[idx]` at `due_s`
/// seconds after the phase starts.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Scheduled send time, seconds from phase start.
    pub due_s: f64,
    /// Request index.
    pub idx: usize,
}

/// Per-connection in-flight queue shared by the generator and the
/// connection's reader.
struct InFlight {
    queue: Mutex<(VecDeque<(Instant, usize)>, bool)>,
    ready: Condvar,
}

/// Open loop: one generator thread sends each arrival at its scheduled
/// time, alternating over [`CONNECTIONS`] connections, whatever the
/// responses are doing; one reader per connection times each response
/// from its scheduled send time.
pub fn open_loop(addr: SocketAddr, reqs: &[Req], schedule: &[Arrival], keep: bool) -> Phase {
    let mut writers: Vec<Option<TcpStream>> =
        (0..CONNECTIONS).map(|_| connect(addr).ok()).collect();
    let readers: Vec<Option<TcpStream>> = writers
        .iter()
        .map(|w| w.as_ref().and_then(|s| s.try_clone().ok()))
        .collect();
    let lanes: Vec<InFlight> = (0..CONNECTIONS)
        .map(|_| InFlight {
            queue: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        })
        .collect();
    let received = AtomicUsize::new(0);
    let start = Instant::now();
    let mut send_lag_us = Vec::with_capacity(schedule.len());
    let mut backlog = 0;

    let per_reader: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = readers
            .into_iter()
            .zip(&lanes)
            .map(|(reader, lane)| {
                let received = &received;
                scope.spawn(move || read_lane(reader, lane, received, start, keep))
            })
            .collect();

        for (k, arrival) in schedule.iter().enumerate() {
            let due = start + Duration::from_secs_f64(arrival.due_s);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            send_lag_us.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
            let lane = k % CONNECTIONS;
            {
                let mut q = lanes[lane].queue.lock().expect("in-flight queue poisoned");
                q.0.push_back((due, arrival.idx));
            }
            lanes[lane].ready.notify_one();
            let written = writers[lane]
                .as_mut()
                .is_some_and(|w| write_frame(w, &reqs[arrival.idx].bytes).is_ok());
            if !written {
                // The reader sees the broken stream and fails the queue.
                writers[lane] = None;
            }
        }
        backlog = schedule.len() - received.load(Ordering::Relaxed);
        for lane in &lanes {
            lane.queue.lock().expect("in-flight queue poisoned").1 = true;
            lane.ready.notify_one();
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect()
    });
    Phase {
        samples: per_reader.into_iter().flatten().collect(),
        elapsed_s: start.elapsed().as_secs_f64(),
        send_lag_us,
        backlog,
        exhausted: false,
    }
}

/// Reads responses for one connection in send order until the generator
/// is done and nothing is in flight.
fn read_lane(
    mut reader: Option<TcpStream>,
    lane: &InFlight,
    received: &AtomicUsize,
    start: Instant,
    keep: bool,
) -> Vec<Sample> {
    let mut out = Vec::new();
    loop {
        let (due, idx) = {
            let mut q = lane.queue.lock().expect("in-flight queue poisoned");
            while q.0.is_empty() && !q.1 {
                q = lane.ready.wait(q).expect("in-flight queue poisoned");
            }
            match q.0.pop_front() {
                Some(entry) => entry,
                None => break,
            }
        };
        let response = match reader.as_mut() {
            Some(stream) => read_frame(stream).and_then(|frame| {
                frame.ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "closed"))
            }),
            None => Err(io::Error::new(io::ErrorKind::NotConnected, "no connection")),
        };
        if response.is_err() {
            reader = None;
        }
        let latency = Instant::now().saturating_duration_since(due);
        out.push(sample(idx, latency, start.elapsed(), response, keep));
        received.fetch_add(1, Ordering::Relaxed);
    }
    out
}

/// A seeded Poisson arrival schedule at `rate` per second for `seconds`,
/// conditioned on its expected count: `rate × seconds` arrivals at
/// uniformly drawn times (a Poisson process given its count), so every
/// seed offers exactly the same load. Arrivals take the request indices
/// below `jobs` in rounds, each round a seeded permutation, so every job
/// is offered equally often.
pub fn poisson(rate: f64, seconds: f64, jobs: usize, rng: &mut ChaCha8Rng) -> Vec<Arrival> {
    let count = (rate * seconds).round() as usize;
    let mut times: Vec<f64> = (0..count).map(|_| rng.gen::<f64>() * seconds).collect();
    times.sort_by(f64::total_cmp);
    let mut round = Vec::new();
    times
        .into_iter()
        .map(|due_s| {
            if round.is_empty() {
                round = crate::workload::permutation(jobs, rng);
            }
            Arrival {
                due_s,
                idx: round.pop().expect("refilled above"),
            }
        })
        .collect()
}
