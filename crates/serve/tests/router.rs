//! Integration tests for the consistent-hash sharding router: three
//! in-process shard daemons behind one router, exercising routing
//! stability, cache locality, and rerouting around a dead shard; and
//! scripted stand-in shards that stall, hang up or tear responses, to
//! pin what a hedge and the fresh-connection retry do.

use std::collections::HashSet;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qcs_json::Json;
use qcs_serve::protocol::{read_frame, write_frame, Request};
use qcs_serve::router::{Router, RouterConfig, RouterHandle};
use qcs_serve::server::{Server, ServerConfig, ServerHandle};

fn start_shard() -> ServerHandle {
    start_shard_at("127.0.0.1:0")
}

fn start_shard_at(addr: &str) -> ServerHandle {
    Server::start(ServerConfig {
        addr: addr.to_string(),
        workers: 2,
        event_loops: 1,
        max_connections: 32,
        cache_bytes: 8 << 20,
        frame_deadline: Duration::from_secs(5),
        persist_dir: None,
        semantic_cache: true,
        bucket_angles: false,
    })
    .expect("shard starts")
}

fn router_config(shard_addrs: Vec<String>) -> RouterConfig {
    RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: shard_addrs,
        replicas: 64,
        health_interval: Duration::from_millis(100),
        connect_timeout: Duration::from_secs(1),
        io_timeout: Duration::from_secs(30),
        // Pinned far above test latencies: hedges never fire unless a
        // test opts in, keeping forwarded counts exact.
        hedge_after: Some(Duration::from_secs(5)),
        ..RouterConfig::default()
    }
}

fn start_router(shards: &[&ServerHandle]) -> RouterHandle {
    Router::start(router_config(
        shards.iter().map(|s| s.local_addr().to_string()).collect(),
    ))
    .expect("router starts")
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("router accepts connections");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

fn exchange(stream: &mut TcpStream, request: &str) -> Vec<u8> {
    write_frame(stream, request.as_bytes()).expect("request written");
    read_frame(stream)
        .expect("response read")
        .expect("peer replied")
}

fn exchange_json(stream: &mut TcpStream, request: &str) -> Json {
    let payload = exchange(stream, request);
    qcs_json::parse(std::str::from_utf8(&payload).unwrap()).expect("response is JSON")
}

fn response_type(value: &Json) -> &str {
    value.get("type").and_then(Json::as_str).unwrap_or("?")
}

fn compile_requests() -> Vec<String> {
    (4..=12)
        .map(|n| format!(r#"{{"type":"compile","workload":"ghz:{n}"}}"#))
        .collect()
}

/// Shard `forwarded` counters from the router's own stats.
fn forwarded_counts(control: &mut TcpStream) -> Vec<u64> {
    let stats = exchange_json(control, r#"{"type":"stats"}"#);
    let Some(Json::Array(shards)) = stats.get("shards") else {
        panic!("router stats carry a shards array: {stats:?}");
    };
    shards
        .iter()
        .map(|s| s.get("forwarded").and_then(Json::as_usize).unwrap() as u64)
        .collect()
}

#[test]
fn routes_compiles_and_answers_control_requests_itself() {
    let shards = [start_shard(), start_shard(), start_shard()];
    let router = start_router(&[&shards[0], &shards[1], &shards[2]]);
    let mut control = connect(router.local_addr());

    let pong = exchange_json(&mut control, r#"{"type":"ping"}"#);
    assert_eq!(response_type(&pong), "pong");

    let stats = exchange_json(&mut control, r#"{"type":"stats"}"#);
    assert_eq!(response_type(&stats), "stats");
    assert_eq!(stats.get("role").and_then(Json::as_str), Some("router"));

    // Compiles flow through to shards and come back as results.
    for request in compile_requests() {
        let reply = exchange_json(&mut control, &request);
        assert_eq!(response_type(&reply), "result", "reply: {reply:?}");
    }

    // Every request was forwarded somewhere, and with 9 distinct jobs on
    // a 64-replica ring the load should touch more than one shard.
    let counts = forwarded_counts(&mut control);
    assert_eq!(counts.iter().sum::<u64>(), 9);
    assert!(
        counts.iter().filter(|&&c| c > 0).count() >= 2,
        "all jobs landed on one shard: {counts:?}"
    );

    drop(control);
    router.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}

#[test]
fn identical_requests_always_land_on_the_same_shard() {
    let shards = [start_shard(), start_shard(), start_shard()];
    let router = start_router(&[&shards[0], &shards[1], &shards[2]]);
    let mut control = connect(router.local_addr());

    let requests = compile_requests();
    for request in &requests {
        exchange_json(&mut control, request);
    }
    let first_pass = forwarded_counts(&mut control);

    // Replay the identical workload twice: the per-shard distribution
    // must scale exactly — no request may migrate while its shard lives.
    for _ in 0..2 {
        for request in &requests {
            exchange_json(&mut control, request);
        }
    }
    let third_pass = forwarded_counts(&mut control);
    let expected: Vec<u64> = first_pass.iter().map(|c| c * 3).collect();
    assert_eq!(
        third_pass, expected,
        "routing moved between identical passes"
    );

    // Locality made those replays cache hits on their home shards:
    // fleet-wide hits must cover the two replay passes.
    let mut total_hits = 0;
    for shard in &shards {
        let mut direct = connect(shard.local_addr());
        let stats = exchange_json(&mut direct, r#"{"type":"stats"}"#);
        let cache = stats.get("cache").expect("shard stats carry cache");
        total_hits += cache.get("hits").and_then(Json::as_usize).unwrap();
    }
    assert_eq!(
        total_hits,
        2 * requests.len(),
        "replays were not served from shard-local caches"
    );

    drop(control);
    router.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}

#[test]
fn dead_shard_reroutes_with_zero_failed_requests() {
    let shards = [start_shard(), start_shard(), start_shard()];
    let router = start_router(&[&shards[0], &shards[1], &shards[2]]);
    let mut control = connect(router.local_addr());

    let requests = compile_requests();
    for request in &requests {
        exchange_json(&mut control, request);
    }
    let before = forwarded_counts(&mut control);

    // Kill the busiest shard and replay everything: every request must
    // still succeed, with the dead shard's keys rerouted to survivors.
    let victim = before
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(i, _)| i)
        .unwrap();
    let [a, b, c] = shards;
    let mut remaining = Vec::new();
    for (idx, shard) in [a, b, c].into_iter().enumerate() {
        if idx == victim {
            shard.shutdown();
        } else {
            remaining.push(shard);
        }
    }

    for request in &requests {
        let reply = exchange_json(&mut control, request);
        assert_eq!(
            response_type(&reply),
            "result",
            "request failed after shard death: {reply:?}"
        );
    }

    let after = forwarded_counts(&mut control);
    assert_eq!(
        after[victim], before[victim],
        "dead shard kept receiving successful forwards"
    );
    assert_eq!(
        after.iter().sum::<u64>(),
        2 * requests.len() as u64,
        "some requests were dropped instead of rerouted"
    );

    // Routing for surviving shards' keys must not have moved: their
    // counts at least doubled (own keys) and absorbed the victim's.
    for (idx, (&b_count, &a_count)) in before.iter().zip(after.iter()).enumerate() {
        if idx != victim {
            assert!(
                a_count >= 2 * b_count,
                "surviving shard {idx} lost keys it owned: {before:?} -> {after:?}"
            );
        }
    }

    drop(control);
    router.shutdown();
    for shard in remaining {
        shard.shutdown();
    }
}

/// A stand-in shard that answers health pings correctly but tears down
/// mid-response on any compile: it writes a frame header promising 100
/// bytes, sends only 10, and drops the connection.
fn start_torn_frame_shard() -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("fake shard binds");
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        // Serve connections until the test drops interest; every
        // connection is short-lived, so bound the loop generously.
        for _ in 0..64 {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
            while let Ok(Some(request)) = read_frame(&mut stream) {
                let is_ping = std::str::from_utf8(&request)
                    .ok()
                    .and_then(|text| qcs_json::parse(text).ok())
                    .and_then(|v| v.get("type").and_then(Json::as_str).map(str::to_string))
                    .as_deref()
                    == Some("ping");
                if is_ping {
                    if write_frame(&mut stream, br#"{"type":"pong"}"#).is_err() {
                        break;
                    }
                    continue;
                }
                // Torn response: a 100-byte header with a 10-byte body,
                // then a hard close mid-frame.
                use std::io::Write;
                let _ = stream.write_all(&100u32.to_be_bytes());
                let _ = stream.write_all(b"0123456789");
                let _ = stream.flush();
                break;
            }
        }
    });
    (addr, handle)
}

#[test]
fn shard_dying_mid_response_never_leaks_a_torn_frame_to_the_client() {
    let (fake_addr, _fake_thread) = start_torn_frame_shard();
    let router = Router::start(router_config(vec![fake_addr.to_string()])).expect("router starts");
    let mut control = connect(router.local_addr());

    // The only shard tears every compile mid-response. The client must
    // still receive one *complete* frame carrying a structured error —
    // never the shard's torn bytes, never a hang.
    let reply = exchange_json(&mut control, r#"{"type":"compile","workload":"ghz:4"}"#);
    assert_eq!(response_type(&reply), "error", "reply: {reply:?}");
    assert!(
        reply.get("message").and_then(Json::as_str).is_some(),
        "error carries a message: {reply:?}"
    );

    // The client connection survives the shard's collapse: the router
    // tore down its shard leg only, so control requests still flow.
    let pong = exchange_json(&mut control, r#"{"type":"ping"}"#);
    assert_eq!(response_type(&pong), "pong");
    let stats = exchange_json(&mut control, r#"{"type":"stats"}"#);
    let resilience = stats.get("resilience").expect("router stats resilience");
    assert_eq!(
        resilience.get("deadline_rejected").and_then(Json::as_usize),
        Some(0)
    );

    drop(control);
    router.shutdown();
}

#[test]
fn half_sent_frame_gets_a_read_deadline_error_then_eof() {
    use std::io::Write;
    let shards = [start_shard()];
    let router = start_router(&[&shards[0]]);
    let mut stream = connect(router.local_addr());

    // A length prefix promising 100 bytes, then only 10 of them: the
    // router must answer at its frame deadline rather than hold the
    // connection (and whatever serves it) forever.
    let started = std::time::Instant::now();
    stream.write_all(&100u32.to_be_bytes()).unwrap();
    stream.write_all(b"0123456789").unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let payload = read_frame(&mut stream)
        .expect("an error frame within 10 s")
        .expect("an error frame before EOF");
    assert!(started.elapsed() < Duration::from_secs(10));
    let reply = qcs_json::parse(std::str::from_utf8(&payload).unwrap()).unwrap();
    assert_eq!(response_type(&reply), "error", "reply: {reply:?}");
    let message = reply.get("message").and_then(Json::as_str).unwrap_or("");
    assert!(message.contains("read deadline"), "message: {message}");
    assert!(
        read_frame(&mut stream).expect("clean close").is_none(),
        "the router closes after the deadline error"
    );

    drop(stream);
    router.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}

#[test]
fn shutdown_joins_as_many_threads_after_200_connections_as_after_one() {
    let shards = [start_shard()];
    let serve = |connections: usize| {
        let router = start_router(&[&shards[0]]);
        for _ in 0..connections {
            let mut stream = connect(router.local_addr());
            let reply = exchange_json(&mut stream, r#"{"type":"compile","workload":"ghz:4"}"#);
            assert_eq!(response_type(&reply), "result", "reply: {reply:?}");
        }
        router.shutdown()
    };
    // Threads track concurrent work, not connections ever served: a
    // closed client leaves nothing behind to join.
    let after_one = serve(1);
    let after_many = serve(200);
    assert_eq!(after_one, after_many);

    for shard in shards {
        shard.shutdown();
    }
}

#[test]
fn pipelined_frames_on_one_connection_come_back_in_order() {
    use std::io::Write;
    let shards = [start_shard()];
    let router = start_router(&[&shards[0]]);
    let mut stream = connect(router.local_addr());

    let mut burst = Vec::new();
    for request in [
        r#"{"type":"ping"}"#,
        r#"{"type":"compile","workload":"ghz:5"}"#,
        r#"{"type":"stats"}"#,
    ] {
        burst.extend_from_slice(&(request.len() as u32).to_be_bytes());
        burst.extend_from_slice(request.as_bytes());
    }
    stream.write_all(&burst).unwrap();
    let types: Vec<String> = (0..3)
        .map(|_| {
            let payload = read_frame(&mut stream).unwrap().expect("a response");
            let reply = qcs_json::parse(std::str::from_utf8(&payload).unwrap()).unwrap();
            response_type(&reply).to_string()
        })
        .collect();
    assert_eq!(types, ["pong", "result", "stats"]);

    drop(stream);
    router.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}

#[test]
fn exhausted_deadline_is_rejected_before_forwarding() {
    let shards = [start_shard()];
    let router = start_router(&[&shards[0]]);
    let mut control = connect(router.local_addr());

    // A zero budget is spent by the time the router sees the request:
    // structured rejection, no forward, no retry_after hint (deadline
    // errors are final).
    let reply = exchange_json(
        &mut control,
        r#"{"type":"compile","workload":"ghz:4","deadline_ms":0}"#,
    );
    assert_eq!(response_type(&reply), "error");
    assert_eq!(
        reply.get("code").and_then(Json::as_str),
        Some("deadline_exceeded"),
        "reply: {reply:?}"
    );
    assert!(reply.get("retry_after_ms").is_none());

    let counts = forwarded_counts(&mut control);
    assert_eq!(counts.iter().sum::<u64>(), 0, "request must not forward");
    let stats = exchange_json(&mut control, r#"{"type":"stats"}"#);
    let resilience = stats.get("resilience").expect("router stats resilience");
    assert_eq!(
        resilience.get("deadline_rejected").and_then(Json::as_usize),
        Some(1)
    );

    // A generous budget flows through: the shard sees the rewritten
    // remainder and compiles normally.
    let reply = exchange_json(
        &mut control,
        r#"{"type":"compile","workload":"ghz:4","deadline_ms":60000}"#,
    );
    assert_eq!(response_type(&reply), "result", "reply: {reply:?}");

    drop(control);
    router.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}

fn router_stats(control: &mut TcpStream) -> Json {
    exchange_json(control, r#"{"type":"stats"}"#)
}

/// A counter from router stats: top level, or in the `resilience` block.
fn counter(stats: &Json, key: &str) -> usize {
    stats
        .get(key)
        .or_else(|| stats.get("resilience").and_then(|r| r.get(key)))
        .and_then(Json::as_usize)
        .unwrap_or_else(|| panic!("router stats carry {key}: {stats:?}"))
}

/// Shard `idx`'s `healthy` flag in router stats.
fn shard_healthy(stats: &Json, idx: usize) -> bool {
    stats
        .get("shards")
        .and_then(Json::as_array)
        .and_then(|shards| shards.get(idx))
        .and_then(|s| s.get("healthy"))
        .and_then(Json::as_bool)
        .unwrap_or_else(|| panic!("router stats carry shards[{idx}].healthy: {stats:?}"))
}

/// Polls router stats until shard `idx` is flagged healthy.
fn wait_healthy(control: &mut TcpStream, idx: usize) {
    let until = Instant::now() + Duration::from_secs(10);
    while !shard_healthy(&router_stats(control), idx) {
        assert!(Instant::now() < until, "shard {idx} never readmitted");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// `count` distinct `ghz:N` compile requests whose keys the ring gives to
/// shard `owner` of `shard_count`. Ring positions depend only on the
/// shard index, so a throwaway router over one real shard, listed
/// `shard_count` times, finds them by reading `shards[i].forwarded`.
fn compiles_owned_by(owner: usize, shard_count: usize, count: usize) -> Vec<String> {
    let shard = start_shard();
    let router = Router::start(router_config(vec![
        shard.local_addr().to_string();
        shard_count
    ]))
    .expect("router starts");
    let mut control = connect(router.local_addr());
    let mut owned = Vec::new();
    for n in 4..64 {
        let request = format!(r#"{{"type":"compile","workload":"ghz:{n}"}}"#);
        let before = forwarded_counts(&mut control)[owner];
        exchange_json(&mut control, &request);
        if forwarded_counts(&mut control)[owner] > before {
            owned.push(request);
            if owned.len() == count {
                break;
            }
        }
    }
    assert_eq!(owned.len(), count, "too few ghz:N keys land on {owner}");
    drop(control);
    router.shutdown();
    shard.shutdown();
    owned
}

/// What a scripted stand-in shard does with one compile frame.
#[derive(Clone, Copy)]
enum Step {
    /// Wait this long, then relay the frame to the real shard and pass
    /// the response back.
    Relay(Duration),
    /// Wait this long, then hang up without answering.
    HangUp(Duration),
    /// Relay at once, pass back the first half of the response frame,
    /// then the rest one byte per this interval.
    Dribble(Duration),
}

const RELAY_AT_ONCE: Step = Step::Relay(Duration::ZERO);

/// Writes the first half of `frame` at once and the rest one byte per
/// `gap`.
fn dribble(stream: &mut TcpStream, frame: &[u8], gap: Duration) -> std::io::Result<()> {
    use std::io::Write;
    stream.set_nodelay(true)?;
    let (head, tail) = frame.split_at(frame.len() / 2);
    stream.write_all(head)?;
    for byte in tail {
        std::thread::sleep(gap);
        stream.write_all(std::slice::from_ref(byte))?;
    }
    Ok(())
}

/// A stand-in shard in front of the real shard at `upstream`. It answers
/// health pings itself, and takes `first` for a compile frame whose
/// bytes it has not seen before and `repeat` for one it has. Each
/// connection gets its own thread, so a stalled compile never delays a
/// probe or another connection.
fn start_scripted_shard(upstream: SocketAddr, first: Step, repeat: Step) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("scripted shard binds");
    let addr = listener.local_addr().unwrap();
    let seen = Arc::new(Mutex::new(HashSet::<Vec<u8>>::new()));
    std::thread::spawn(move || {
        for client in listener.incoming() {
            let Ok(mut client) = client else {
                return;
            };
            let seen = Arc::clone(&seen);
            std::thread::spawn(move || {
                let Ok(mut shard) = TcpStream::connect(upstream) else {
                    return;
                };
                while let Ok(Some(request)) = read_frame(&mut client) {
                    if matches!(Request::parse(&request), Ok(Request::Ping)) {
                        if write_frame(&mut client, br#"{"type":"pong"}"#).is_err() {
                            return;
                        }
                        continue;
                    }
                    let step = if seen.lock().unwrap().insert(request.clone()) {
                        first
                    } else {
                        repeat
                    };
                    match step {
                        Step::Relay(delay) => std::thread::sleep(delay),
                        Step::HangUp(delay) => {
                            std::thread::sleep(delay);
                            return;
                        }
                        Step::Dribble(_) => {}
                    }
                    let Ok(Some(response)) =
                        write_frame(&mut shard, &request).and_then(|()| read_frame(&mut shard))
                    else {
                        return;
                    };
                    let sent = match step {
                        Step::Dribble(gap) => {
                            let mut frame = Vec::new();
                            write_frame(&mut frame, &response)
                                .and_then(|()| dribble(&mut client, &frame, gap))
                        }
                        _ => write_frame(&mut client, &response),
                    };
                    if sent.is_err() {
                        return;
                    }
                }
            });
        }
    });
    addr
}

/// Router config for the hedging tests: a hedge fires 50 ms into a
/// hit-class forward, and the prober runs only at startup, so a shard
/// the router charges stays down for the rest of the test.
fn hedging_config(shards: Vec<String>) -> RouterConfig {
    RouterConfig {
        hedge_after: Some(Duration::from_millis(50)),
        health_interval: Duration::from_secs(60),
        ..router_config(shards)
    }
}

#[test]
fn hedge_to_the_backup_wins_while_the_owner_stalls() {
    let request = compiles_owned_by(0, 2, 1).remove(0);
    let real_owner = start_shard();
    let backup = start_shard();
    // The owner answers a first-seen compile at once and stalls 3 s on
    // a repeat.
    let stall = Duration::from_secs(3);
    let owner = start_scripted_shard(real_owner.local_addr(), RELAY_AT_ONCE, Step::Relay(stall));
    let router = Router::start(hedging_config(vec![
        owner.to_string(),
        backup.local_addr().to_string(),
    ]))
    .expect("router starts");
    let mut control = connect(router.local_addr());

    // Served once, the key is hit class: its next forward arms a hedge.
    let reply = exchange_json(&mut control, &request);
    assert_eq!(response_type(&reply), "result", "reply: {reply:?}");
    assert_eq!(forwarded_counts(&mut control), [1, 0]);

    let started = Instant::now();
    let reply = exchange_json(&mut control, &request);
    assert_eq!(response_type(&reply), "result", "reply: {reply:?}");
    assert!(
        started.elapsed() < stall - Duration::from_secs(1),
        "the result waited for the stalled owner: {:?}",
        started.elapsed()
    );
    let stats = router_stats(&mut control);
    assert_eq!(counter(&stats, "hedges_fired"), 1, "stats: {stats:?}");
    assert_eq!(counter(&stats, "hedges_won"), 1, "stats: {stats:?}");
    assert_eq!(forwarded_counts(&mut control), [1, 1]);
    // Losing the race is no failure: the owner is not charged.
    assert!(shard_healthy(&stats, 0), "stats: {stats:?}");
    assert_eq!(counter(&stats, "reroutes"), 0);
    assert_eq!(counter(&stats, "forward_errors"), 0);

    drop(control);
    router.shutdown();
    real_owner.shutdown();
    backup.shutdown();
}

#[test]
fn owner_leg_breaking_after_the_hedge_fired_is_charged_to_the_owner() {
    let request = compiles_owned_by(0, 2, 1).remove(0);
    let real_owner = start_shard();
    let real_backup = start_shard();
    // The owner hangs up 200 ms into a repeated compile, well after the
    // 50 ms hedge fired; the backup answers everything after 1.5 s, so
    // the owner's leg (and its one retry) fails before the backup wins.
    let owner = start_scripted_shard(
        real_owner.local_addr(),
        RELAY_AT_ONCE,
        Step::HangUp(Duration::from_millis(200)),
    );
    let slow = Step::Relay(Duration::from_millis(1500));
    let backup = start_scripted_shard(real_backup.local_addr(), slow, slow);
    let router = Router::start(hedging_config(vec![owner.to_string(), backup.to_string()]))
        .expect("router starts");
    let mut control = connect(router.local_addr());

    let reply = exchange_json(&mut control, &request);
    assert_eq!(response_type(&reply), "result", "reply: {reply:?}");
    let reply = exchange_json(&mut control, &request);
    assert_eq!(response_type(&reply), "result", "reply: {reply:?}");

    let stats = router_stats(&mut control);
    assert_eq!(counter(&stats, "hedges_fired"), 1, "stats: {stats:?}");
    assert_eq!(counter(&stats, "hedges_won"), 1, "stats: {stats:?}");
    assert_eq!(forwarded_counts(&mut control), [1, 1]);
    assert!(!shard_healthy(&stats, 0), "owner not charged: {stats:?}");
    assert!(shard_healthy(&stats, 1), "stats: {stats:?}");

    drop(control);
    router.shutdown();
    real_owner.shutdown();
    real_backup.shutdown();
}

#[test]
fn stale_pooled_connection_to_a_restarted_shard_is_retried_fresh() {
    let requests = compiles_owned_by(0, 2, 2);
    let (hit_class, first_seen) = (&requests[0], &requests[1]);
    let mut owner = start_shard();
    let backup = start_shard();
    let router = start_router(&[&owner, &backup]);
    let mut control = connect(router.local_addr());

    let reply = exchange_json(&mut control, hit_class);
    assert_eq!(response_type(&reply), "result", "reply: {reply:?}");

    // Each request below finds the router's pooled connection to the
    // owner stale: the owner restarted on the same port since the last
    // exchange, and a second restart precedes the first-seen request.
    for (round, request) in [hit_class, first_seen].into_iter().enumerate() {
        let addr = owner.local_addr().to_string();
        owner.shutdown();
        owner = start_shard_at(&addr);
        std::thread::sleep(Duration::from_millis(300));
        wait_healthy(&mut control, 0);
        let before = forwarded_counts(&mut control);
        let reply = exchange_json(&mut control, request);
        assert_eq!(response_type(&reply), "result", "round {round}: {reply:?}");
        let after = forwarded_counts(&mut control);
        assert_eq!(
            after,
            [before[0] + 1, before[1]],
            "round {round}: not served by the restarted owner"
        );
        let stats = router_stats(&mut control);
        assert_eq!(counter(&stats, "reroutes"), 0, "round {round}: {stats:?}");
        assert_eq!(counter(&stats, "forward_errors"), 0, "round {round}");
        assert!(shard_healthy(&stats, 0), "round {round}: owner charged");
    }

    drop(control);
    router.shutdown();
    owner.shutdown();
    backup.shutdown();
}

#[test]
fn backup_leg_that_tears_its_response_is_charged_to_the_backup() {
    let request = compiles_owned_by(0, 2, 1).remove(0);
    let real_owner = start_shard();
    // The owner answers a repeated compile after 500 ms, so the 50 ms
    // hedge fires; the backup tears every compile, its retry included.
    let owner = start_scripted_shard(
        real_owner.local_addr(),
        RELAY_AT_ONCE,
        Step::Relay(Duration::from_millis(500)),
    );
    let (backup, _backup_thread) = start_torn_frame_shard();
    let router = Router::start(hedging_config(vec![owner.to_string(), backup.to_string()]))
        .expect("router starts");
    let mut control = connect(router.local_addr());

    for _ in 0..2 {
        let reply = exchange_json(&mut control, &request);
        assert_eq!(response_type(&reply), "result", "reply: {reply:?}");
    }

    // The owner still served; the backup's failed leg is charged to the
    // backup just as a failed owner leg is charged to the owner.
    let stats = router_stats(&mut control);
    assert_eq!(counter(&stats, "hedges_fired"), 1, "stats: {stats:?}");
    assert_eq!(counter(&stats, "hedges_won"), 0, "stats: {stats:?}");
    assert_eq!(forwarded_counts(&mut control), [2, 0]);
    assert!(shard_healthy(&stats, 0), "stats: {stats:?}");
    assert!(!shard_healthy(&stats, 1), "backup not charged: {stats:?}");

    drop(control);
    router.shutdown();
    real_owner.shutdown();
}

/// One byte per 20 ms: a dribbled ghz result frame takes about 8 s to
/// arrive, yet every byte lands well inside the tests' `io_timeout`.
const DRIBBLE: Step = Step::Dribble(Duration::from_millis(20));

#[test]
fn owner_dribbling_its_response_is_cut_off_at_io_timeout_and_rerouted() {
    let request = compiles_owned_by(0, 2, 1).remove(0);
    let real_owner = start_shard();
    let backup = start_shard();
    let owner = start_scripted_shard(real_owner.local_addr(), DRIBBLE, DRIBBLE);
    let io_timeout = Duration::from_secs(1);
    let router = Router::start(RouterConfig {
        io_timeout,
        ..hedging_config(vec![owner.to_string(), backup.local_addr().to_string()])
    })
    .expect("router starts");
    let mut control = connect(router.local_addr());

    // A first-seen key: no hedge. The exchange ends at `io_timeout` with
    // the owner's response still arriving, and the backup serves.
    let started = Instant::now();
    let reply = exchange_json(&mut control, &request);
    let elapsed = started.elapsed();
    assert_eq!(response_type(&reply), "result", "reply: {reply:?}");
    assert!(
        elapsed >= io_timeout && elapsed < io_timeout * 3,
        "the exchange did not end at io_timeout: {elapsed:?}"
    );
    let stats = router_stats(&mut control);
    assert_eq!(counter(&stats, "reroutes"), 1, "stats: {stats:?}");
    assert_eq!(counter(&stats, "hedges_fired"), 0, "stats: {stats:?}");
    assert_eq!(counter(&stats, "forward_errors"), 0, "stats: {stats:?}");
    assert_eq!(forwarded_counts(&mut control), [0, 1]);
    assert!(!shard_healthy(&stats, 0), "owner not charged: {stats:?}");

    drop(control);
    router.shutdown();
    real_owner.shutdown();
    backup.shutdown();
}

#[test]
fn hedge_wins_while_the_owner_dribbles_its_response() {
    let request = compiles_owned_by(0, 2, 1).remove(0);
    let real_owner = start_shard();
    let backup = start_shard();
    // The owner answers a first-seen compile at once and dribbles a
    // repeat.
    let owner = start_scripted_shard(real_owner.local_addr(), RELAY_AT_ONCE, DRIBBLE);
    let io_timeout = Duration::from_secs(2);
    let router = Router::start(RouterConfig {
        io_timeout,
        ..hedging_config(vec![owner.to_string(), backup.local_addr().to_string()])
    })
    .expect("router starts");
    let mut control = connect(router.local_addr());

    let reply = exchange_json(&mut control, &request);
    assert_eq!(response_type(&reply), "result", "reply: {reply:?}");

    // Hit class now: the hedge fires at 50 ms, while the owner's leg
    // holds half a frame, and the backup's complete response wins.
    let started = Instant::now();
    let reply = exchange_json(&mut control, &request);
    let elapsed = started.elapsed();
    assert_eq!(response_type(&reply), "result", "reply: {reply:?}");
    assert!(
        elapsed < io_timeout / 2,
        "the result waited for the dribbling owner: {elapsed:?}"
    );
    let stats = router_stats(&mut control);
    assert_eq!(counter(&stats, "hedges_fired"), 1, "stats: {stats:?}");
    assert_eq!(counter(&stats, "hedges_won"), 1, "stats: {stats:?}");
    assert_eq!(counter(&stats, "reroutes"), 0, "stats: {stats:?}");
    assert_eq!(forwarded_counts(&mut control), [1, 1]);
    // Losing the race is no failure: the owner is not charged.
    assert!(shard_healthy(&stats, 0), "stats: {stats:?}");

    drop(control);
    router.shutdown();
    real_owner.shutdown();
    backup.shutdown();
}
