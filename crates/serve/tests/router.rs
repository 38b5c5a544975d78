//! Integration tests for the consistent-hash sharding router: three
//! in-process shard daemons behind one router, exercising routing
//! stability, cache locality, and rerouting around a dead shard.

use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use qcs_json::Json;
use qcs_serve::protocol::{read_frame, write_frame};
use qcs_serve::router::{Router, RouterConfig, RouterHandle};
use qcs_serve::server::{Server, ServerConfig, ServerHandle};

fn start_shard() -> ServerHandle {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
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
