//! The server proper: accept loop, bounded connection threads, and the
//! inference worker pool that drains the micro-batch collector.
//!
//! Threading model (all `std`, no async runtime):
//!
//! - **accept thread** — owns the listener; enforces `max_connections`
//!   (over the cap: immediate 503 + close, counted as a rejection).
//! - **connection threads** — one per live connection, detached; parse
//!   requests, submit jobs, block on the reply channel, write responses.
//!   A short socket read timeout doubles as the shutdown poll while idle.
//! - **inference workers** — fixed pool of `config.workers` threads; each
//!   owns *clones* of the frozen plans it has served (one arena per
//!   worker, no locks on the hot path) and processes one batch or series
//!   job at a time from the [`Collector`](crate::batch::Collector).

use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ds_camal::{FrozenCamal, StreamingCamal};

use crate::api;
use crate::batch::{Collector, JobError, JobKind, Work};
use crate::http::{self, HttpError, ReadOutcome};
use crate::registry::{ModelRegistry, PlanKey};
use crate::{ServeConfig, ServerStats};

/// Live streaming push sessions, keyed by (meter id, plan).
pub(crate) type SessionMap = BTreeMap<(String, PlanKey), Arc<Mutex<StreamingCamal>>>;

/// State shared by every thread of one server.
pub(crate) struct Shared {
    pub config: ServeConfig,
    pub registry: Arc<ModelRegistry>,
    pub collector: Collector,
    pub stats: Arc<ServerStats>,
    pub sessions: Mutex<SessionMap>,
    pub shutdown: AtomicBool,
    pub connections: AtomicUsize,
}

/// A running server. Dropping the handle does NOT stop the server; call
/// [`ServerHandle::shutdown`].
pub struct Server;

pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the worker pool and accept loop, and return.
    pub fn start(
        config: ServeConfig,
        registry: Arc<ModelRegistry>,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        ds_obs::declare_budget(
            "serve_request_latency",
            "serve.request_latency_s",
            ds_obs::Quantile::P99,
            0.050,
        );
        let collector = Collector::new(config.batch_windows, config.queue_depth);
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            config,
            registry,
            collector,
            stats: Arc::new(ServerStats::default()),
            sessions: Mutex::new(BTreeMap::new()),
            shutdown: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
        });
        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = shared.clone();
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("ds-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        let accept_shared = shared.clone();
        let accept = std::thread::Builder::new()
            .name("ds-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
            workers: worker_handles,
        })
    }
}

impl ServerHandle {
    /// The actually bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// Windows per micro-batch (for fill-ratio math in harnesses).
    pub fn batch_windows(&self) -> usize {
        self.shared.collector.batch_windows()
    }

    /// Jobs currently queued in the collector.
    pub fn queue_depth(&self) -> usize {
        self.shared.collector.queued()
    }

    /// Stop accepting, drain queued work, join the pool. In-flight
    /// connection threads notice the flag via their read timeout and exit
    /// on their own; we wait briefly for them.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.collector.shutdown();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.shared.connections.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        if shared.connections.load(Ordering::SeqCst) >= shared.config.max_connections {
            shared.stats.requests.fetch_add(1, Ordering::Relaxed);
            shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
            let mut stream = stream;
            let _ = http::write_response(
                &mut stream,
                503,
                &api::error_body("overload", "connection limit reached"),
                false,
            );
            continue;
        }
        shared.connections.fetch_add(1, Ordering::SeqCst);
        let shared = shared.clone();
        let _ = std::thread::Builder::new()
            .name("ds-serve-conn".to_string())
            .spawn(move || {
                handle_connection(&shared, stream);
                shared.connections.fetch_sub(1, Ordering::SeqCst);
            });
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        match http::read_request(&mut reader, shared.config.max_body_bytes) {
            Ok(ReadOutcome::Closed) => break,
            Ok(ReadOutcome::Idle) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Ok(ReadOutcome::Request(request)) => {
                let started = Instant::now();
                let (status, body) = api::handle(shared, &request);
                let stats = &shared.stats;
                stats.requests.fetch_add(1, Ordering::Relaxed);
                if status == 503 {
                    stats.rejected.fetch_add(1, Ordering::Relaxed);
                } else if (400..500).contains(&status) {
                    stats.client_errors.fetch_add(1, Ordering::Relaxed);
                }
                if ds_obs::enabled() {
                    let secs = started.elapsed().as_secs_f64();
                    ds_obs::observe(
                        "serve.request_latency_s",
                        secs,
                        ds_obs::Buckets::DurationSecs,
                    );
                    ds_obs::observe(
                        api::latency_metric(&request.path),
                        secs,
                        ds_obs::Buckets::DurationSecs,
                    );
                }
                let keep = request.keep_alive && !shared.shutdown.load(Ordering::SeqCst);
                if http::write_response(&mut writer, status, &body, keep).is_err() || !keep {
                    break;
                }
            }
            Err(HttpError::BodyTooLarge { limit }) => {
                let body = api::error_body(
                    "body_too_large",
                    &format!("request body exceeds the {limit}-byte limit"),
                );
                let _ = http::write_response(&mut writer, 413, &body, false);
                break;
            }
            Err(HttpError::Malformed(msg)) => {
                let _ = http::write_response(
                    &mut writer,
                    400,
                    &api::error_body("malformed", msg),
                    false,
                );
                break;
            }
            Err(HttpError::Io(_)) => break,
        }
    }
}

/// One inference worker: drain the collector until shutdown. Each worker
/// keeps its own plan clones — the arenas inside are written in place on
/// every batch, so sharing them would need a lock; cloning trades a
/// little memory (reported via `arena_bytes`) for a lock-free hot path.
fn worker_loop(shared: &Arc<Shared>) {
    let mut plans: BTreeMap<PlanKey, FrozenCamal> = BTreeMap::new();
    let mut states = Vec::new();
    while let Some(work) = shared.collector.next_work() {
        match work {
            Work::Batch { key, jobs } => {
                let stats = &shared.stats;
                stats.batches.fetch_add(1, Ordering::Relaxed);
                stats
                    .batched_windows
                    .fetch_add(jobs.len() as u64, Ordering::Relaxed);
                if jobs.len() >= shared.collector.batch_windows() {
                    stats.full_batches.fetch_add(1, Ordering::Relaxed);
                } else {
                    stats.deadline_batches.fetch_add(1, Ordering::Relaxed);
                }
                if ds_obs::enabled() {
                    let fill = jobs.len() as f64 / shared.collector.batch_windows() as f64;
                    ds_obs::observe("serve.batch_fill", fill, ds_obs::Buckets::Unit);
                }
                let Some(plan) = worker_plan(shared, &mut plans, &key, &jobs) else {
                    continue;
                };
                let refs: Vec<&[f32]> = jobs.iter().map(|j| j.window.as_slice()).collect();
                // The zero-steady-state-allocs contract is measured around
                // the kernel call alone: request framing and reply
                // building allocate by design; the inference must not.
                let before = ds_obs::alloc_count();
                let result = plan.try_localize_batch_into(&refs);
                let allocs = ds_obs::alloc_count() - before;
                stats.steady_allocs.fetch_add(allocs, Ordering::Relaxed);
                match result {
                    Ok(batch) => {
                        for (i, job) in jobs.iter().enumerate() {
                            let include_cam =
                                matches!(job.kind, JobKind::Localize { include_cam: true });
                            let with_status = matches!(job.kind, JobKind::Localize { .. });
                            let reply = crate::batch::WindowReply {
                                probability: batch.probability(i),
                                detected: batch.detected(i),
                                members: batch.member_probabilities(i).collect(),
                                status: if with_status {
                                    batch.status(i).to_vec()
                                } else {
                                    Vec::new()
                                },
                                cam: if include_cam {
                                    batch.cam(i).to_vec()
                                } else {
                                    Vec::new()
                                },
                            };
                            let _ = job.tx.send(Ok(reply));
                        }
                    }
                    Err(err) => {
                        for job in &jobs {
                            let _ = job.tx.send(Err(JobError::Camal(err.clone())));
                        }
                    }
                }
            }
            Work::Series(job) => {
                let Some(plan) = worker_plan_series(shared, &mut plans, &job) else {
                    continue;
                };
                plan.predict_status_into(&job.series, job.window, &mut states);
                let _ = job.tx.send(Ok(states.clone()));
            }
        }
    }
}

/// Resolve (or adopt) this worker's clone of the plan for `key`,
/// reporting a per-job error to every requester if the freeze fails.
fn worker_plan<'a>(
    shared: &Arc<Shared>,
    plans: &'a mut BTreeMap<PlanKey, FrozenCamal>,
    key: &PlanKey,
    jobs: &[crate::batch::WindowJob],
) -> Option<&'a mut FrozenCamal> {
    if !plans.contains_key(key) {
        match shared.registry.get_or_freeze(key) {
            Ok(template) => {
                plans.insert(key.clone(), (*template).clone());
            }
            Err(err) => {
                for job in jobs {
                    let _ = job.tx.send(Err(JobError::Plan(err)));
                }
                return None;
            }
        }
    }
    plans.get_mut(key)
}

fn worker_plan_series<'a>(
    shared: &Arc<Shared>,
    plans: &'a mut BTreeMap<PlanKey, FrozenCamal>,
    job: &crate::batch::SeriesJob,
) -> Option<&'a mut FrozenCamal> {
    if !plans.contains_key(&job.key) {
        match shared.registry.get_or_freeze(&job.key) {
            Ok(template) => {
                plans.insert(job.key.clone(), (*template).clone());
            }
            Err(err) => {
                let _ = job.tx.send(Err(JobError::Plan(err)));
                return None;
            }
        }
    }
    plans.get_mut(&job.key)
}
