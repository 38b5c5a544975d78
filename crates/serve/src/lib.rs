//! `qcs-serve` — a concurrent compilation service for the mapping stack.
//!
//! The paper frames compilation as a *full-stack* concern: algorithms
//! arrive at one end, pulse-level hardware sits at the other, and the
//! mapping passes in between are expensive enough to be worth sharing.
//! This crate wraps the whole `qcs-core` pipeline in a long-lived daemon
//! so that many clients (experiment drivers, CI, notebooks) can submit
//! circuits over TCP and share one warm, content-addressed result cache.
//!
//! The stack, bottom to top:
//!
//! * [`protocol`] — length-prefixed JSON frames and the request grammar.
//! * [`catalog`] — text specs (`surface17`, `ghz:8`, …) to devices and
//!   workload circuits.
//! * [`compile`] — request → [`compile::Job`] → canonical, byte-stable
//!   result payload, plus the [`compile::job_digest`] cache key.
//! * [`cache`] — the LRU byte-budget store for those payloads, with a
//!   full-key integrity guard against digest collisions.
//! * [`persist`] — the crash-safe on-disk form of the cache: checksummed
//!   write-ahead log plus atomic snapshot compaction, so a restarted
//!   daemon (even after `kill -9`) comes back warm and byte-identical.
//! * [`frame`] — the incremental frame decoder behind the daemon's
//!   non-blocking read path.
//! * [`histogram`] — constant-memory latency histograms for `stats`.
//! * `transport` — the transport core both daemons run: accept thread,
//!   event-loop pool (readiness multiplexing over `qcs-sys`'s `poll(2)`
//!   shim), compute workers, shutdown.
//! * [`server`] — the daemon: the shard's request handler (cache,
//!   canonical replay, compile) on the transport core.
//! * [`router`] — the sharding front-end: a forwarding handler on the
//!   same core, consistent-hashing requests across a fleet of daemon
//!   shards, with health checks and rerouting around dead shards.
//!
//! See DESIGN.md ("Compilation service") for the protocol reference and
//! the determinism argument, and `tests/e2e.rs` for the headline
//! guarantee exercised end to end: daemon responses are byte-identical
//! to in-process [`qcs_core::mapper::Mapper`] output, cached or not.
//!
//! The daemon also degrades gracefully: panicking compiles are isolated
//! to their connection (never the worker pool), over-capacity clients
//! are shed with a `retry_after_ms` hint, and `qcs-faults` failpoints
//! (`serve.connection`, `serve.worker.job`) let the chaos suite and
//! `ci_chaos.sh` inject those failures deterministically — see
//! `tests/chaos.rs` and DESIGN.md §6.

#![warn(missing_docs)]

pub mod cache;
pub mod catalog;
pub mod compile;
mod event;
mod fifo;
pub mod frame;
pub mod histogram;
pub mod persist;
pub mod protocol;
pub mod router;
pub mod server;
mod transport;

pub use cache::{CacheStats, ResultCache};
pub use compile::{job_digest, run_job, CompileOutput, Job};
pub use frame::{DecodeError, FrameDecoder};
pub use persist::{PersistStats, Store};
pub use protocol::{read_frame, write_frame, CompileRequest, Request, Source};
pub use router::{Router, RouterConfig, RouterHandle};
pub use server::{Server, ServerConfig, ServerHandle, ShutdownStats};
