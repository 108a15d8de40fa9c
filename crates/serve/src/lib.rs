//! ds-serve: a zero-dependency HTTP/1.1 serving front for frozen CamAL
//! plans with **cross-request micro-batching**.
//!
//! PR 7–8 made the single-request path fast (frozen + SIMD + int8,
//! streaming reuse); this crate serves it to a fleet. The server is plain
//! `std`: a `TcpListener` accept loop, one detached thread per live
//! connection (bounded), and a fixed pool of inference workers — no async
//! runtime, mirroring the hand-rolled ds-par worker-team style.
//!
//! ## The perf core: the micro-batch collector
//!
//! The frozen kernels were shaped for the [`ds_camal`] arena's
//! `WINDOW_CHUNK = 16` batch slots, and one batch call pays the worker
//! handoff and per-call overhead once for all its windows. Every
//! `detect`/`localize` request is therefore queued into a
//! [collector](batch) keyed by [`PlanKey`](registry::PlanKey) = (preset,
//! appliance, window length, precision). Dispatch is work-conserving: an
//! idle worker takes the oldest pending batch at once, however full it
//! is, so a lone request never waits on a timer. Batches form only under
//! load — windows that arrive while every worker is busy accumulate per
//! key (up to 16), and the next free worker runs them as one kernel call
//! — so fill rises with offered load instead of being bought with
//! latency. Batching cannot change results: windows in a batch are
//! computed independently (per-window z-norm, per-window CAM), and a
//! `PlanKey` fixes the window length, so batches are always homogeneous.
//! The loadtest oracle and `tests/serve_concurrency.rs` verify zero
//! decision flips against direct per-request calls.
//!
//! ## Plans, arenas, allocations
//!
//! Models register once into a [`registry::ModelRegistry`]; the first
//! request for a `PlanKey` freezes the plan exactly once (OnceLock), warms
//! its arena at the full chunk shape, and each inference worker clones the
//! warm template — one arena per worker, no locks on the hot path, and
//! zero steady-state heap allocations, asserted under load via the ds-obs
//! allocation counter.
//!
//! ## Backpressure
//!
//! Admission control is typed and bounded: the accept loop caps live
//! connections, the collector caps queued jobs (`queue_depth`), and every
//! rejection or model error maps to a JSON error body with a meaningful
//! status — validation 400, unknown plan 404, stream-order conflicts 409,
//! overload 503. ds-obs wiring: `serve.request_latency_s` histograms per
//! endpoint against the 50 ms p99 SLO budget, `serve.batch_fill`
//! fill-ratio histogram, and a queue-depth gauge.

use std::sync::atomic::{AtomicU64, Ordering};

mod api;
mod batch;
pub mod client;
pub mod http;
pub mod registry;
mod server;

pub use client::Client;
pub use registry::{ModelRegistry, PlanError, PlanKey};
pub use server::{Server, ServerHandle};

/// Tuning knobs for one [`Server`]. `Default` is sized for a small box:
/// worker count follows the ds-par thread resolution (`DS_PAR_THREADS`).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Inference worker threads (each owns a clone of every plan it
    /// serves). Defaults to `ds_par::threads()`.
    pub workers: usize,
    /// Most windows one dispatched batch carries; capped at the arena chunk
    /// ([`ds_camal::WINDOW_CHUNK`]) — larger values buy nothing. Batches
    /// dispatch as soon as a worker is free, so they reach this size only
    /// while every worker is busy.
    pub batch_windows: usize,
    /// Maximum queued jobs (windows + series) across all plans before the
    /// collector rejects with 503.
    pub queue_depth: usize,
    /// Maximum simultaneously live connections; excess accepts get an
    /// immediate 503 and a close.
    pub max_connections: usize,
    /// Request body size cap (bytes); larger bodies get 413.
    pub max_body_bytes: usize,
    /// Maximum live streaming push sessions (distinct meter × plan).
    pub max_sessions: usize,
    /// Ring capacity of each push session, in windows.
    pub stream_window_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: ds_par::threads(),
            batch_windows: ds_camal::WINDOW_CHUNK,
            queue_depth: 256,
            max_connections: 64,
            max_body_bytes: 8 * 1024 * 1024,
            max_sessions: 256,
            stream_window_capacity: 64,
        }
    }
}

/// Live counters a running server exposes on `/api/v1/stats` and that the
/// loadtest asserts against. All plain atomics so they work (and cost
/// nearly nothing) whether or not ds-obs recording is enabled.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// HTTP requests answered (any status).
    pub requests: AtomicU64,
    /// 503 responses (queue full, connection cap, session cap, shutdown).
    pub rejected: AtomicU64,
    /// 4xx responses other than 503 (validation, unknown plan, conflicts).
    pub client_errors: AtomicU64,
    /// Micro-batches dispatched to workers.
    pub batches: AtomicU64,
    /// Windows carried by those batches (mean fill = windows / (batches ×
    /// batch_windows)).
    pub batched_windows: AtomicU64,
    /// Batches dispatched because they filled all slots.
    pub full_batches: AtomicU64,
    /// Batches dispatched before every slot filled (an idle worker took
    /// them at once).
    pub deadline_batches: AtomicU64,
    /// Heap allocations observed *inside* batched kernel calls after plan
    /// warmup. The contract is zero; the loadtest asserts it.
    pub steady_allocs: AtomicU64,
}

impl ServerStats {
    /// Mean batch fill ratio in `[0, 1]` over the server's lifetime.
    pub fn mean_batch_fill(&self, batch_windows: usize) -> f64 {
        let batches = self.batches.load(Ordering::Relaxed);
        if batches == 0 || batch_windows == 0 {
            return 0.0;
        }
        let windows = self.batched_windows.load(Ordering::Relaxed);
        windows as f64 / (batches as f64 * batch_windows as f64)
    }
}
