//! Hostile request frames: a seeded fuzz of `Request::parse`, and deeply
//! nested frames sent to both daemons.
//!
//! Both event loops parse every frame inline, and a stack overflow is not
//! a panic that `catch_unwind` can contain: it aborts the process. So a
//! frame the parser recurses on without bound kills a shard or a router
//! outright. Every input here must come back as `Ok` or a
//! `RequestError`, and a daemon sent such a frame must answer it with an
//! `error` frame and keep serving.

use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use qcs_check::{check, Gen};
use qcs_json::Json;
use qcs_serve::protocol::{read_frame, write_frame, Request};
use qcs_serve::router::{Router, RouterConfig};
use qcs_serve::server::{Server, ServerConfig};

/// Well-formed requests the mutations start from.
const SEEDS: [&str; 6] = [
    r#"{"type":"compile","workload":"ghz:8","device":"surface17","placer":"sabre","router":"lookahead","deadline_ms":500,"request_id":"r-1","race":false}"#,
    r#"{"type":"compile","qasm":"OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n"}"#,
    r#"{"type":"compile_suite","count":4,"max_qubits":5,"max_gates":20,"seed":7,"device":"line:5"}"#,
    r#"{"type":"stats"}"#,
    r#"{"type":"ping"}"#,
    r#"{"type":"shutdown"}"#,
];

/// The largest input the fuzz builds.
const MAX_INPUT: usize = 4096;

/// A value of some JSON type, for swapping in where another is expected.
fn any_value(g: &mut Gen) -> Json {
    match g.usize_in(0..6) {
        0 => Json::Null,
        1 => Json::Bool(g.bool(0.5)),
        2 => Json::Number(g.f64_in(-1e9..1e9)),
        3 => Json::from("ghz:3"),
        4 => Json::Array(vec![Json::from(1usize), Json::from("x")]),
        _ => Json::object([("type", "compile")]),
    }
}

/// `depth` levels of arrays and objects around `inner`, closed or not.
fn nest(g: &mut Gen, depth: usize, inner: &str, closed: bool) -> String {
    let objects: Vec<bool> = (0..depth).map(|_| g.bool(0.5)).collect();
    let mut text: String = objects
        .iter()
        .map(|&object| if object { r#"{"k":"# } else { "[" })
        .collect();
    text.push_str(inner);
    if closed {
        text.extend(
            objects
                .iter()
                .rev()
                .map(|&object| if object { '}' } else { ']' }),
        );
    }
    text
}

/// One hostile input derived from a seed request.
fn hostile_input(g: &mut Gen) -> Vec<u8> {
    let seed = *g.choose(&SEEDS);
    match g.usize_in(0..4) {
        // Truncation at any byte, UTF-8 boundaries included.
        0 => seed.as_bytes()[..g.usize_in(0..seed.len() + 1)].to_vec(),
        // A handful of flipped bytes.
        1 => {
            let mut bytes = seed.as_bytes().to_vec();
            for _ in 0..g.usize_in(1..9) {
                let at = g.usize_in(0..bytes.len());
                bytes[at] ^= 1 << g.usize_in(0..8);
            }
            bytes
        }
        // A member (or the type tag) of the wrong JSON type.
        2 => {
            let mut value = qcs_json::parse(seed).expect("seed requests are JSON");
            let keys: Vec<String> = value
                .as_object()
                .expect("seed requests are objects")
                .iter()
                .map(|(key, _)| key.clone())
                .collect();
            let key = g.choose(&keys).clone();
            let wrong = any_value(g);
            value.set(&key, wrong);
            value.to_compact_string().into_bytes()
        }
        // Deep nesting, alone or as a member of a real request.
        _ => {
            let depth = g.usize_in(100..600);
            let closed = g.bool(0.5);
            let nested = nest(g, depth, "1", closed);
            let text = if g.bool(0.5) {
                nested
            } else {
                format!(r#"{{"type":"compile","workload":{nested}}}"#)
            };
            text.into_bytes()
        }
    }
}

#[test]
fn request_parse_answers_every_hostile_input_with_ok_or_an_error() {
    for seed in SEEDS {
        assert!(Request::parse(seed.as_bytes()).is_ok(), "seed {seed}");
    }
    check("request-parse-hostile", 2000, |g| {
        let input = hostile_input(g);
        assert!(input.len() <= MAX_INPUT, "input of {} bytes", input.len());
        // Returning at all is the property: a panic fails the case, a
        // stack overflow aborts the test binary.
        if let Err(e) = Request::parse(&input) {
            assert!(!e.0.is_empty(), "an error carries a message");
        }
    });
    // At the size limit, nothing but nesting.
    let deepest = "[".repeat(MAX_INPUT);
    let e = Request::parse(deepest.as_bytes()).expect_err("4 KB of '[' is no request");
    assert!(e.0.contains("128 levels"), "{e}");
}

fn exchange_json(stream: &mut TcpStream, payload: &[u8]) -> Json {
    write_frame(stream, payload).expect("frame written");
    let response = read_frame(stream)
        .expect("response read")
        .expect("daemon replied before closing");
    qcs_json::parse(std::str::from_utf8(&response).unwrap()).expect("response is JSON")
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("daemon accepts connections");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

#[test]
fn a_20_kb_frame_of_brackets_gets_an_error_from_shard_and_router() {
    let shard = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        event_loops: 1,
        max_connections: 8,
        cache_bytes: 1 << 20,
        frame_deadline: Duration::from_secs(5),
        persist_dir: None,
        semantic_cache: true,
        bucket_angles: false,
    })
    .expect("shard starts");
    let router = Router::start(RouterConfig {
        shards: vec![shard.local_addr().to_string()],
        ..RouterConfig::default()
    })
    .expect("router starts");

    let brackets = vec![b'['; 20_000];
    for (daemon, addr) in [
        ("shard", shard.local_addr()),
        ("router", router.local_addr()),
    ] {
        let reply = exchange_json(&mut connect(addr), &brackets);
        assert_eq!(
            reply.get("type").and_then(Json::as_str),
            Some("error"),
            "{daemon}: {reply:?}"
        );
        // The daemon outlives the frame: a new connection still gets a pong.
        let pong = exchange_json(&mut connect(addr), br#"{"type":"ping"}"#);
        assert_eq!(
            pong.get("type").and_then(Json::as_str),
            Some("pong"),
            "{daemon}: {pong:?}"
        );
    }

    router.shutdown();
    shard.shutdown();
}
