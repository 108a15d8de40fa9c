//! The cross-request micro-batch collector.
//!
//! Dispatch is **work-conserving**: a worker that asks for work gets the
//! oldest pending unit at once, however full it is, so no request ever
//! waits on a timer. A unit is either a batch of detect/localize windows
//! for one [`PlanKey`], ordered by its first window's arrival, or one
//! status-series job. Batches form only under load: windows that arrive
//! while every worker is busy join their key's open batch (up to
//! `batch_windows` slots, sized to the arena chunk), and the next free
//! worker takes the whole batch in one kernel call. A full batch goes
//! ahead of older partial ones, since it is the best use of a call.
//!
//! Admission is bounded: `queue_depth` caps the total queued jobs across
//! all keys; past it, submissions are rejected immediately and the HTTP
//! layer answers 503. That makes overload visible to clients instead of
//! letting latency collapse silently.

use std::collections::VecDeque;
use std::sync::mpsc::SyncSender;
use std::sync::{Condvar, Mutex};

use ds_camal::CamalError;
use ds_timeseries::{Status, TimeSeries};

use crate::registry::{PlanError, PlanKey};

/// Everything a window job can come back with. Detect replies leave
/// `status`/`cam` empty; localize fills `status` and, on request, `cam`.
#[derive(Debug)]
pub(crate) struct WindowReply {
    pub probability: f32,
    pub detected: bool,
    /// (kernel size, member probability) per ensemble member.
    pub members: Vec<(usize, f32)>,
    pub status: Vec<u8>,
    pub cam: Vec<f32>,
}

/// What the worker should extract from the batch for this job.
#[derive(Debug, Clone, Copy)]
pub(crate) enum JobKind {
    Detect,
    Localize { include_cam: bool },
}

/// Why a queued job failed after admission.
#[derive(Debug, Clone)]
pub(crate) enum JobError {
    Camal(CamalError),
    Plan(PlanError),
}

pub(crate) type WindowResult = Result<WindowReply, JobError>;
pub(crate) type SeriesResult = Result<Vec<Status>, JobError>;

/// One queued detect/localize window.
pub(crate) struct WindowJob {
    pub key: PlanKey,
    pub window: Vec<f32>,
    pub kind: JobKind,
    pub tx: SyncSender<WindowResult>,
}

/// One queued status-series request (runs un-batched: its cost scales
/// with the series length, not one window).
pub(crate) struct SeriesJob {
    pub key: PlanKey,
    pub series: TimeSeries,
    pub window: usize,
    pub tx: SyncSender<SeriesResult>,
}

/// One unit a worker takes from the collector.
pub(crate) enum Work {
    /// Windows for one plan; at most `batch_windows` of them.
    Batch {
        key: PlanKey,
        jobs: Vec<WindowJob>,
    },
    Series(SeriesJob),
}

/// Typed admission rejection → 503.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SubmitError {
    /// `queue_depth` reached.
    QueueFull { depth: usize },
    /// Server is draining.
    ShuttingDown,
}

struct State {
    /// Pending units in order of their first job's arrival. A key's open
    /// (unfilled) batch is always its last one in the queue.
    units: VecDeque<Work>,
    /// Total queued jobs (windows + series) across all keys.
    queued: usize,
    shutdown: bool,
}

pub(crate) struct Collector {
    state: Mutex<State>,
    ready: Condvar,
    batch_windows: usize,
    queue_depth: usize,
}

impl Collector {
    pub fn new(batch_windows: usize, queue_depth: usize) -> Collector {
        Collector {
            state: Mutex::new(State {
                units: VecDeque::new(),
                queued: 0,
                shutdown: false,
            }),
            ready: Condvar::new(),
            batch_windows: batch_windows.clamp(1, ds_camal::WINDOW_CHUNK),
            queue_depth: queue_depth.max(1),
        }
    }

    /// Slots one micro-batch holds.
    pub fn batch_windows(&self) -> usize {
        self.batch_windows
    }

    /// Jobs currently queued (stats endpoint).
    pub fn queued(&self) -> usize {
        self.state.lock().unwrap().queued
    }

    pub fn submit_window(&self, job: WindowJob) -> Result<(), SubmitError> {
        self.submit(|units| {
            // Only a key's last batch can have a free slot.
            let last = units.iter_mut().rev().find_map(|unit| match unit {
                Work::Batch { key, jobs } if *key == job.key => Some(jobs),
                _ => None,
            });
            match last {
                Some(jobs) if jobs.len() < self.batch_windows => jobs.push(job),
                _ => {
                    let mut jobs = Vec::with_capacity(self.batch_windows);
                    let key = job.key.clone();
                    jobs.push(job);
                    units.push_back(Work::Batch { key, jobs });
                }
            }
        })
    }

    pub fn submit_series(&self, job: SeriesJob) -> Result<(), SubmitError> {
        self.submit(|units| units.push_back(Work::Series(job)))
    }

    /// Admit one job, queue it with `enqueue`, and wake an idle worker.
    fn submit(&self, enqueue: impl FnOnce(&mut VecDeque<Work>)) -> Result<(), SubmitError> {
        let mut state = self.state.lock().unwrap();
        if state.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if state.queued >= self.queue_depth {
            return Err(SubmitError::QueueFull {
                depth: self.queue_depth,
            });
        }
        enqueue(&mut state.units);
        state.queued += 1;
        ds_obs::gauge_set("serve.queue_depth", state.queued as f64);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Block until there is work (or shutdown drains the queue). Returns
    /// `None` exactly when shutting down with nothing left; workers exit.
    pub fn next_work(&self) -> Option<Work> {
        let mut state = self.state.lock().unwrap();
        loop {
            // A full batch is the best use of a kernel call, so it goes
            // first; otherwise this worker is idle and the oldest unit
            // goes now, however full.
            let full = state.units.iter().position(
                |unit| matches!(unit, Work::Batch { jobs, .. } if jobs.len() >= self.batch_windows),
            );
            if let Some(work) = state.units.remove(full.unwrap_or(0)) {
                state.queued -= match &work {
                    Work::Batch { jobs, .. } => jobs.len(),
                    Work::Series(_) => 1,
                };
                ds_obs::gauge_set("serve.queue_depth", state.queued as f64);
                return Some(work);
            }
            if state.shutdown {
                return None;
            }
            state = self.ready.wait(state).unwrap();
        }
    }

    /// Begin draining: further submissions are rejected, workers take
    /// what is queued, and exit once the queue is empty.
    pub fn shutdown(&self) {
        self.state.lock().unwrap().shutdown = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_camal::Precision;
    use std::sync::mpsc::sync_channel;
    use std::sync::Arc;
    use std::time::Duration;

    fn key(window: usize) -> PlanKey {
        PlanKey {
            preset: "TEST".into(),
            appliance: "kettle".into(),
            window,
            backbone: ds_camal::Backbone::ResNet,
            precision: Precision::F32,
        }
    }

    /// A detect job whose window's first sample tags it, so tests can
    /// tell which submission came back in which batch.
    fn tagged(window: usize, tag: f32) -> WindowJob {
        let (tx, _rx) = sync_channel(1);
        let mut samples = vec![0.0; window];
        samples[0] = tag;
        WindowJob {
            key: key(window),
            window: samples,
            kind: JobKind::Detect,
            tx,
        }
    }

    fn series(window: usize) -> SeriesJob {
        let (tx, _rx) = sync_channel(1);
        SeriesJob {
            key: key(window),
            series: TimeSeries::zeros(0, 60, window),
            window,
            tx,
        }
    }

    /// The next unit as `(window length, tags)` of a batch, or `None` for
    /// a series job.
    fn next(collector: &Collector) -> Option<(usize, Vec<f32>)> {
        match collector.next_work().expect("collector is not shut down") {
            Work::Batch { key, jobs } => {
                Some((key.window, jobs.iter().map(|j| j.window[0]).collect()))
            }
            Work::Series(_) => None,
        }
    }

    #[test]
    fn full_batch_dispatches_first() {
        let collector = Collector::new(4, 64);
        collector.submit_window(tagged(32, 0.0)).unwrap();
        for _ in 0..4 {
            collector.submit_window(tagged(16, 0.0)).unwrap();
        }
        assert_eq!(next(&collector), Some((16, vec![0.0; 4])));
        assert_eq!(next(&collector), Some((32, vec![0.0])));
        assert_eq!(collector.queued(), 0);
    }

    #[test]
    fn idle_worker_takes_a_lone_window_at_once() {
        let collector = Arc::new(Collector::new(16, 64));
        let (tx, rx) = sync_channel(1);
        let worker = {
            let collector = Arc::clone(&collector);
            std::thread::spawn(move || {
                let _ = tx.send(next(&collector));
            })
        };
        collector.submit_window(tagged(16, 7.0)).unwrap();
        // No further submit and no timer: the waiting worker must get the
        // one-window batch. A regression fails here instead of hanging.
        let got = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("an idle worker left a lone window queued");
        assert_eq!(got, Some((16, vec![7.0])));
        worker.join().unwrap();
        assert_eq!(collector.queued(), 0);
    }

    #[test]
    fn windows_queued_while_workers_are_busy_leave_as_one_batch() {
        let collector = Collector::new(4, 64);
        for tag in 0..6 {
            collector.submit_window(tagged(16, tag as f32)).unwrap();
        }
        // Capped at `batch_windows`; the remainder keeps arrival order.
        assert_eq!(next(&collector), Some((16, vec![0.0, 1.0, 2.0, 3.0])));
        assert_eq!(next(&collector), Some((16, vec![4.0, 5.0])));
        assert_eq!(collector.queued(), 0);
    }

    #[test]
    fn units_dispatch_oldest_first_across_keys() {
        let collector = Collector::new(16, 64);
        collector.submit_window(tagged(16, 0.0)).unwrap();
        collector.submit_series(series(16)).unwrap();
        collector.submit_window(tagged(32, 1.0)).unwrap();
        collector.submit_window(tagged(16, 2.0)).unwrap();
        // Key 16's batch is the oldest unit and takes its later window too.
        assert_eq!(next(&collector), Some((16, vec![0.0, 2.0])));
        // A steady stream on key 16 queues behind the older units.
        collector.submit_window(tagged(16, 3.0)).unwrap();
        assert_eq!(next(&collector), None);
        collector.submit_window(tagged(16, 4.0)).unwrap();
        assert_eq!(next(&collector), Some((32, vec![1.0])));
        assert_eq!(next(&collector), Some((16, vec![3.0, 4.0])));
        assert_eq!(collector.queued(), 0);
    }

    #[test]
    fn queue_bound_rejects_with_a_typed_error() {
        let collector = Collector::new(16, 2);
        collector.submit_window(tagged(16, 0.0)).unwrap();
        collector.submit_series(series(16)).unwrap();
        let err = collector.submit_window(tagged(16, 0.0)).unwrap_err();
        assert_eq!(err, SubmitError::QueueFull { depth: 2 });
    }

    #[test]
    fn distinct_keys_never_share_a_batch() {
        let collector = Collector::new(16, 64);
        collector.submit_window(tagged(16, 0.0)).unwrap();
        collector.submit_window(tagged(32, 0.0)).unwrap();
        assert_eq!(next(&collector), Some((16, vec![0.0])));
        assert_eq!(next(&collector), Some((32, vec![0.0])));
    }

    #[test]
    fn shutdown_drains_then_ends() {
        let collector = Collector::new(16, 64);
        collector.submit_window(tagged(16, 0.0)).unwrap();
        collector.shutdown();
        assert!(matches!(collector.next_work(), Some(Work::Batch { .. })));
        assert!(collector.next_work().is_none());
        let err = collector.submit_window(tagged(16, 0.0)).unwrap_err();
        assert_eq!(err, SubmitError::ShuttingDown);
    }
}
