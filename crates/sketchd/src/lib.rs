#![warn(missing_docs)]
//! # sketchd — a batching sketch/SAP service over a hand-rolled wire protocol
//!
//! The paper's asymmetry — a fixed sparse `A` multiplied by an *implicit*
//! random `S` that is regenerated from a seed — rewards a resident
//! service: load `A` once, keep it hot, and serve sketch requests that
//! differ only in their seed. This crate is that service, std-only:
//!
//! * [`proto`] — the versioned, CRC-checked, length-prefixed binary frame
//!   protocol (`LoadMatrix`, `Sketch`, `SolveSap`, `Stats`, `Health`,
//!   `Shutdown`), with panic-free decoding.
//! * [`registry`] — named matrix handles under a byte budget with
//!   ref-counted LRU eviction (in-flight requests pin their operand).
//! * [`server`] — acceptor → bounded queue with admission control
//!   (overload rejection, per-request deadlines) → parkit workers whose
//!   batcher coalesces compatible `Sketch` requests into one
//!   [`sketchcore::try_sketch_alg3_multi`] traversal of `A`.
//! * [`client`] — blocking client + connection pool (the `sketchclient`
//!   side), used by `sketchctl`, the bench crate's `loadgen`, and the
//!   integration tests.
//!
//! Faults injected at the `svc/accept`, `svc/decode`, `svc/dispatch` and
//! `svc/reply` failpoints surface as typed error frames, never as a
//! poisoned queue or a dead worker — chaoscheck sweeps all four.

pub mod client;
pub mod proto;
pub mod registry;
pub mod server;

pub use client::{Client, ClientError};
pub use proto::{Frame, Op, Status};
pub use registry::{Registry, RegistryError};
pub use server::{Server, ServerConfig};
