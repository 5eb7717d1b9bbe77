//! dejavu-serve: the shared signature repository as an online service.
//!
//! DejaVu's repository is fleet infrastructure — one tuning cache that many
//! tenant controllers consult — and in a real deployment those controllers
//! are separate processes. This crate puts the in-process
//! [`SharedSignatureRepository`](dejavu_fleet::SharedSignatureRepository)
//! behind a small length-prefixed wire protocol so it can be hosted as a
//! daemon (TCP or Unix socket) and consumed by remote tenants:
//!
//! - [`protocol`] — the frame codec and typed [`WireError`]s: lookup,
//!   peek, publish, commit-batch, eviction sweeps, stats, and snapshot
//!   round trips, all bit-exact (`f64` travels as raw bits) — and
//!   [`protocol::Framed`], the one path every frame takes on either end:
//!   one `write` per frame out, buffered in-place reads in.
//! - [`server`] — the daemon: thread-per-connection sessions over the
//!   repository's wait-free read path, admission control
//!   ([`ServeConfig::max_sessions`]), and per-tenant usage accounting.
//! - [`client`] — [`RemoteRepository`], a
//!   [`RepositoryClient`](dejavu_fleet::RepositoryClient) speaking the
//!   protocol, so `FleetEngine::run_on_client` drives a served repository
//!   with the same scenario code as an in-process one. Remote runs
//!   bit-match local runs; `tests/wire.rs` pins report and eviction-count
//!   equality.
//!
//! The `dejavu-serve` binary hosts a repository from the command line
//! (`dejavu-serve --listen 127.0.0.1:7117`, optionally seeded with
//! `--snapshot-in`).

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;
#[cfg(test)]
mod testing;

pub use client::RemoteRepository;
pub use protocol::{Request, Response, WireError, MAX_FRAME_LEN, PROTOCOL_VERSION};
pub use server::{
    serve_tcp, serve_tcp_persistent, Endpoint, ServeConfig, ServePersistence, ServerHandle,
    UsageSnapshot,
};

#[cfg(unix)]
pub use server::{serve_unix, serve_unix_persistent};
