//! In-process serving fleets with pinned configurations: shards
//! (`qcs-serve`) and, optionally, a router (`qcs-router`) in front.
//!
//! Every knob is written out here rather than taken from a default that
//! depends on the host (the shard's default worker count follows the
//! CPU count), so a run means the same thing on any machine.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

use qcs_json::Json;
use qcs_serve::protocol::{read_frame, write_frame};
use qcs_serve::{Router, RouterConfig, RouterHandle, Server, ServerConfig, ServerHandle};

/// Compute workers per shard.
pub const SHARD_WORKERS: usize = 2;
/// Result-cache byte budget per shard.
pub const CACHE_BYTES: usize = 64 << 20;
/// Virtual nodes per shard on the router's hash ring.
pub const RING_REPLICAS: usize = 64;

/// The pinned shard configuration.
pub fn shard_config(persist_dir: Option<String>) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: SHARD_WORKERS,
        event_loops: 1,
        max_connections: 64,
        cache_bytes: CACHE_BYTES,
        frame_deadline: Duration::from_secs(5),
        persist_dir,
        semantic_cache: true,
        bucket_angles: false,
    }
}

/// The pinned router configuration over `shards`. Hedging is pinned far
/// above any latency the workloads produce: a hedge duplicates a request
/// onto a second shard, which would make per-shard cache counters depend
/// on timing.
pub fn router_config(shards: Vec<String>) -> RouterConfig {
    RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        shards,
        replicas: RING_REPLICAS,
        health_interval: Duration::from_millis(250),
        probe_backoff_max: Duration::from_secs(2),
        connect_timeout: Duration::from_secs(1),
        io_timeout: Duration::from_secs(120),
        breaker_threshold: 3,
        breaker_cooldown: Duration::from_millis(250),
        breaker_cooldown_max: Duration::from_secs(5),
        hedge_after: Some(Duration::from_secs(30)),
        hedge_min_observations: 32,
        max_in_flight: 32,
        jitter_seed: 0x9E37_79B9_7F4A_7C15,
    }
}

/// A running fleet. [`Fleet::stop`] joins every thread and removes the
/// persist directories.
pub struct Fleet {
    shards: Vec<ServerHandle>,
    router: Option<RouterHandle>,
    persist_dirs: Vec<PathBuf>,
}

impl Fleet {
    /// Starts `shards` shards (WAL-backed under `persist_root` when
    /// given) and, when `routed`, a router over them.
    pub fn start(shards: usize, routed: bool, persist_root: Option<&Path>) -> io::Result<Fleet> {
        let mut fleet = Fleet {
            shards: Vec::new(),
            router: None,
            persist_dirs: Vec::new(),
        };
        for i in 0..shards {
            let dir = persist_root.map(|root| root.join(format!("shard{i}")));
            if let Some(dir) = &dir {
                // A fresh fleet starts cold: no WAL from an earlier setup.
                let _ = std::fs::remove_dir_all(dir);
                fleet.persist_dirs.push(dir.clone());
            }
            let config = shard_config(dir.map(|d| d.to_string_lossy().into_owned()));
            match Server::start(config) {
                Ok(handle) => fleet.shards.push(handle),
                Err(e) => {
                    fleet.stop();
                    return Err(e);
                }
            }
        }
        if routed {
            fleet.add_router()?;
        }
        Ok(fleet)
    }

    /// Puts a router in front of the current shards (replacing none).
    pub fn add_router(&mut self) -> io::Result<()> {
        let addrs = self
            .shard_addrs()
            .iter()
            .map(SocketAddr::to_string)
            .collect();
        self.router = Some(Router::start(router_config(addrs))?);
        Ok(())
    }

    /// Where clients connect: the router when there is one, else shard 0.
    pub fn entry(&self) -> SocketAddr {
        match &self.router {
            Some(router) => router.local_addr(),
            None => self.shards[0].local_addr(),
        }
    }

    /// Shard addresses in ring-declaration order.
    pub fn shard_addrs(&self) -> Vec<SocketAddr> {
        self.shards.iter().map(ServerHandle::local_addr).collect()
    }

    /// Router `stats`, when routed.
    pub fn router_stats(&self) -> io::Result<Option<Json>> {
        self.router
            .as_ref()
            .map(|r| fetch_stats(r.local_addr()))
            .transpose()
    }

    /// Every shard's `stats`, in shard order.
    pub fn shard_stats(&self) -> io::Result<Vec<Json>> {
        self.shard_addrs().into_iter().map(fetch_stats).collect()
    }

    /// Stops the router and every shard, joins their threads, and
    /// deletes the persist directories.
    pub fn stop(mut self) {
        if let Some(router) = self.router.take() {
            router.shutdown();
        }
        for shard in self.shards.drain(..) {
            shard.shutdown();
        }
        for dir in &self.persist_dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// One `stats` round trip.
pub fn fetch_stats(addr: SocketAddr) -> io::Result<Json> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    write_frame(&mut stream, br#"{"type":"stats"}"#)?;
    let payload = read_frame(&mut stream)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "no stats response"))?;
    let text = String::from_utf8(payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    qcs_json::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Reads an unsigned counter at a `/`-separated path of object keys.
pub fn counter(stats: &Json, path: &str) -> u64 {
    path.split('/')
        .try_fold(stats, |value, key| value.get(key))
        .and_then(Json::as_usize)
        .unwrap_or(0) as u64
}
