//! Seeded request streams, one generator per workload.
//!
//! Each generator is an endless, deterministic sequence: the same seed
//! yields byte-identical requests in the same order, whatever the rates
//! the phases later run them at. Open-loop phases space requests evenly
//! at their rate, so a phase's offered load is exactly its rate.

use std::sync::Arc;

use ds_datasets::{ApplianceKind, Dataset};
use ds_timeseries::TimeSeries;

use crate::load::Req;
use crate::stats::Rng;
use crate::workload::{
    input_dataset, is_clean, push_body, series_body, window_body, Workload, FLEET_METERS,
    HISTORY_SAMPLES, PUSH_DELTA, SERIES_PER_HOUSE, STREAM_METERS, WINDOW,
};

/// Ring capacity of a push session under the default `ServeConfig`
/// (64 windows); a meter resets its session before overflowing it.
const SESSION_SAMPLES: usize = 64 * WINDOW;

/// What the reply to a request must match.
#[derive(Debug, Clone)]
pub enum Expect {
    /// `detect` (`localize == false`) or `localize` on one window.
    Window {
        appliance: usize,
        localize: bool,
        values: Vec<f32>,
    },
    /// `status-series` over history series `series`.
    Series { appliance: usize, series: usize },
    /// A `push` delta of `meter`.
    Push {
        meter: usize,
        reset: bool,
        values: Vec<f32>,
    },
}

impl Expect {
    pub fn is_push(&self) -> bool {
        matches!(self, Expect::Push { .. })
    }
}

/// One generated request: what to send, on which connection, and what
/// must come back.
#[derive(Debug, Clone)]
pub struct Planned {
    pub conn_key: usize,
    pub path: &'static str,
    pub body: Arc<str>,
    pub expect: Expect,
}

/// Schedule planned requests at `rate` req/s over `conns` connections
/// (rate 0: closed loop, due times unused).
pub fn to_reqs(planned: &[Planned], rate: f64, conns: usize) -> Vec<Req> {
    planned
        .iter()
        .enumerate()
        .map(|(k, p)| Req {
            conn: p.conn_key % conns,
            due: if rate > 0.0 { k as f64 / rate } else { 0.0 },
            path: p.path,
            body: p.body.clone(),
        })
        .collect()
}

/// The seeded source shared by every workload: the input houses.
pub struct Inputs {
    workload: Workload,
    pub houses: Vec<TimeSeries>,
    /// Prefix counts of dropouts per house, for O(1) cleanliness checks.
    nan_prefix: Vec<Vec<u32>>,
    rng: Rng,
    state: State,
    /// `history`: the dashboard's series pool, as (house, offset), in
    /// the seed-shuffled order the dashboard cycles through, and each
    /// series' request body.
    pub series: Vec<(usize, usize)>,
    series_bodies: Vec<Arc<str>>,
    /// Requests generated so far.
    issued: usize,
}

enum State {
    Fleet {
        pool: Vec<Vec<f32>>,
        /// Per meter: reporting period in 30 s ticks, pool cursor.
        meters: Vec<(usize, usize)>,
        tick: usize,
        meter: usize,
        /// Requests still owed for the current meter report, as
        /// (pool cursor, appliance, localize), popped from the end.
        pending: Vec<(usize, usize, bool)>,
    },
    History,
    Stream {
        /// Per meter: (house, start offset, samples pushed, session len).
        meters: Vec<(usize, usize, usize, usize)>,
        order: Vec<usize>,
        k: usize,
        read_owed: bool,
    },
}

/// Meter reporting period in 30 s ticks: half the fleet every 30 s, a
/// third every minute, the rest every 10 minutes.
fn meter_period(meter: usize) -> usize {
    match meter % 6 {
        0..=2 => 1,
        3 | 4 => 2,
        _ => 20,
    }
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64) -> Inputs {
        let dataset = Dataset::generate(input_dataset(workload, seed));
        let houses: Vec<TimeSeries> = dataset
            .houses()
            .iter()
            .map(|h| h.aggregate().clone())
            .collect();
        let nan_prefix = houses
            .iter()
            .map(|s| {
                let mut acc = vec![0u32; s.len() + 1];
                for (i, v) in s.values().iter().enumerate() {
                    acc[i + 1] = acc[i] + u32::from(!v.is_finite());
                }
                acc
            })
            .collect();
        let mut rng = Rng::new(seed);
        let mut inputs = Inputs {
            workload,
            houses,
            nan_prefix,
            rng: Rng::new(0),
            state: State::History,
            series: Vec::new(),
            series_bodies: Vec::new(),
            issued: 0,
        };
        inputs.state = match workload {
            Workload::Fleet => {
                // 512 gap-free windows at 10-minute strides, drawn by seed.
                let mut candidates = Vec::new();
                for (h, s) in inputs.houses.iter().enumerate() {
                    for lo in (0..s.len() - WINDOW).step_by(10) {
                        if inputs.clean(h, lo, lo + WINDOW) {
                            candidates.push((h, lo));
                        }
                    }
                }
                let pool = (0..512)
                    .map(|_| {
                        let (h, lo) = candidates[rng.below(candidates.len())];
                        inputs.houses[h].values()[lo..lo + WINDOW].to_vec()
                    })
                    .collect();
                let meters = (0..FLEET_METERS)
                    .map(|m| (meter_period(m), rng.below(512)))
                    .collect();
                State::Fleet {
                    pool,
                    meters,
                    tick: 0,
                    meter: 0,
                    pending: Vec::new(),
                }
            }
            Workload::History => {
                for h in 0..inputs.houses.len() {
                    let span = inputs.houses[h].len() - HISTORY_SAMPLES;
                    for _ in 0..SERIES_PER_HOUSE {
                        inputs.series.push((h, rng.below(span / 60 + 1) * 60));
                    }
                }
                for i in (1..inputs.series.len()).rev() {
                    inputs.series.swap(i, rng.below(i + 1));
                }
                inputs.series_bodies = (0..inputs.series.len())
                    .map(|i| {
                        inputs
                            .series_request(i, ApplianceKind::Kettle.slug())
                            .into()
                    })
                    .collect();
                State::History
            }
            Workload::Stream => {
                // Each meter starts where its last 6 h are gap-free, so a
                // read always finds a complete window to localize.
                let meters = (0..STREAM_METERS)
                    .map(|_| loop {
                        let h = rng.below(inputs.houses.len());
                        let start = WINDOW + rng.below(inputs.houses[h].len() / 2);
                        if inputs.clean(h, start - WINDOW, start) {
                            break (h, start, 0, 0);
                        }
                    })
                    .collect();
                let mut order: Vec<usize> = (0..STREAM_METERS).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.below(i + 1));
                }
                State::Stream {
                    meters,
                    order,
                    k: 0,
                    read_owed: false,
                }
            }
        };
        inputs.rng = rng;
        inputs
    }

    fn clean(&self, house: usize, lo: usize, hi: usize) -> bool {
        self.nan_prefix[house][hi] == self.nan_prefix[house][lo]
    }

    /// Values of history series `i`.
    pub fn series_values(&self, i: usize) -> &[f32] {
        let (h, lo) = self.series[i];
        &self.houses[h].values()[lo..lo + HISTORY_SAMPLES]
    }

    /// Body of history series `i` for `appliance`.
    pub fn series_request(&self, i: usize, appliance: &str) -> String {
        series_body(
            appliance,
            self.series[i].1 as i64 * 60,
            self.series_values(i),
        )
    }

    /// The first `n` gap-free windows of the input houses, at window
    /// strides.
    pub fn clean_windows(&self, n: usize) -> Vec<Vec<f32>> {
        let mut out = Vec::with_capacity(n);
        for (h, s) in self.houses.iter().enumerate() {
            for lo in (0..s.len() - WINDOW).step_by(WINDOW) {
                if out.len() < n && self.clean(h, lo, lo + WINDOW) {
                    out.push(s.values()[lo..lo + WINDOW].to_vec());
                }
            }
        }
        out
    }

    /// A day of readings that contains at least one dropout (for the
    /// gap-honesty check), as (start timestamp, values).
    pub fn gappy_day(&self) -> (i64, Vec<f32>) {
        for (h, s) in self.houses.iter().enumerate() {
            for lo in (0..s.len() - 1440).step_by(60) {
                if !self.clean(h, lo, lo + 1440) {
                    return (lo as i64 * 60, s.values()[lo..lo + 1440].to_vec());
                }
            }
        }
        panic!("the input houses have no dropout at all");
    }

    /// Requests in one pass of the dashboard over its whole pool
    /// (`history`), so passes of a run and of any two seeds ask for
    /// comparable work.
    pub fn pass_len(&self) -> usize {
        self.series.len()
    }

    /// The next `n` requests of the stream.
    pub fn take(&mut self, n: usize) -> Vec<Planned> {
        (0..n).map(|_| self.next_planned()).collect()
    }

    fn next_planned(&mut self) -> Planned {
        let (conn_key, path, body, expect): (usize, &'static str, Arc<str>, Expect) =
            match self.workload {
                Workload::Fleet => self.next_fleet(),
                // Round robin: any `series.len()` consecutive requests ask
                // for every series once (see `Inputs::pass_len`).
                Workload::History => {
                    let i = self.issued % self.series.len();
                    (
                        self.issued,
                        "/api/v1/status-series",
                        self.series_bodies[i].clone(),
                        Expect::Series {
                            appliance: 0,
                            series: i,
                        },
                    )
                }
                Workload::Stream => self.next_stream(),
            };
        self.issued += 1;
        Planned {
            conn_key,
            path,
            body,
            expect,
        }
    }

    fn next_fleet(&mut self) -> (usize, &'static str, Arc<str>, Expect) {
        let State::Fleet {
            pool,
            meters,
            tick,
            meter,
            pending,
        } = &mut self.state
        else {
            unreachable!()
        };
        while pending.is_empty() {
            let m = *meter;
            let (period, cursor) = meters[m];
            if *tick % period == m % period {
                // One report: the meter's latest window, for every
                // appliance of the preset (a third as `detect`).
                for a in (0..ApplianceKind::ALL.len()).rev() {
                    pending.push((cursor, a, self.rng.unit() >= 1.0 / 3.0));
                }
                meters[m].1 = (cursor + 1) % pool.len();
            }
            *meter += 1;
            if *meter == meters.len() {
                *meter = 0;
                *tick += 1;
            }
        }
        let (cursor, a, localize) = pending.pop().expect("refilled above");
        let values = pool[cursor].clone();
        let body = window_body(ApplianceKind::ALL[a].slug(), &values).into();
        let path = if localize {
            "/api/v1/localize"
        } else {
            "/api/v1/detect"
        };
        // Window requests are stateless: spread them over the connections.
        (
            self.issued,
            path,
            body,
            Expect::Window {
                appliance: a,
                localize,
                values,
            },
        )
    }

    fn next_stream(&mut self) -> (usize, &'static str, Arc<str>, Expect) {
        let State::Stream {
            meters,
            order,
            k,
            read_owed,
        } = &mut self.state
        else {
            unreachable!()
        };
        let appliances = ApplianceKind::ALL.len();
        if *read_owed {
            // A dashboard read of some meter's latest complete window, on
            // the meter's own plan key.
            *read_owed = false;
            let m = self.rng.below(meters.len());
            let (h, start, pos, _) = meters[m];
            let mut end = start + pos;
            while !self.clean(h, end - WINDOW, end) {
                end -= 1;
            }
            let values = self.houses[h].values()[end - WINDOW..end].to_vec();
            debug_assert!(is_clean(&values));
            let a = m % appliances;
            let body = window_body(ApplianceKind::ALL[a].slug(), &values).into();
            return (
                m,
                "/api/v1/localize",
                body,
                Expect::Window {
                    appliance: a,
                    localize: true,
                    values,
                },
            );
        }
        let m = order[*k % order.len()];
        *k += 1;
        *read_owed = self.rng.unit() < 1.0 / 3.0;
        let (h, start, pos, session) = &mut meters[m];
        if *start + *pos + PUSH_DELTA > self.houses[*h].len() {
            // Out of source data: the meter replays from its start.
            *pos = 0;
        }
        let lo = *start + *pos;
        let values = self.houses[*h].values()[lo..lo + PUSH_DELTA].to_vec();
        *pos += PUSH_DELTA;
        let reset = *session + PUSH_DELTA > SESSION_SAMPLES;
        if reset {
            *session = 0;
        }
        *session += PUSH_DELTA;
        let body = push_body(m, ApplianceKind::ALL[m % appliances].slug(), reset, &values).into();
        (
            m,
            "/api/v1/push",
            body,
            Expect::Push {
                meter: m,
                reset,
                values,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(workload: Workload, seed: u64) -> Vec<u8> {
        let mut inputs = Inputs::new(workload, seed);
        let planned = inputs.take(300);
        let mut bytes = Vec::new();
        for r in to_reqs(&planned, 100.0, 2) {
            bytes.extend_from_slice(format!("{} {} {} ", r.conn, r.due, r.path).as_bytes());
            bytes.extend_from_slice(r.body.as_bytes());
        }
        bytes
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in [Workload::Fleet, Workload::History, Workload::Stream] {
            let a = stream_bytes(w, 11);
            assert_eq!(a, stream_bytes(w, 11), "{w:?} is not reproducible");
            assert_ne!(a, stream_bytes(w, 12), "{w:?} ignores its seed");
        }
    }

    #[test]
    fn fleet_windows_are_finite_and_history_carries_nulls() {
        let mut fleet = Inputs::new(Workload::Fleet, 5);
        for p in fleet.take(200) {
            assert!(!p.body.contains("null") && !p.body.contains("NaN"));
        }
        let mut history = Inputs::new(Workload::History, 5);
        let bodies: Vec<Arc<str>> = history.take(50).into_iter().map(|p| p.body).collect();
        assert!(bodies.iter().any(|b| b.contains("null")));
        assert!(bodies.iter().all(|b| !b.contains("NaN")));
    }
}
