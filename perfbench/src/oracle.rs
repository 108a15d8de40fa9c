//! Every 200 reply is checked against the same computation done by direct
//! calls into ds-camal, off the clock:
//!
//! - `detect`/`localize`: a direct `FrozenCamal::localize_batch_into`
//!   call on the same window — detection flag and status mask identical,
//!   probability within `1e-6`;
//! - `status-series`: `FrozenCamal::predict_status_series` — identical
//!   per-timestep states;
//! - `push`: a `StreamingCamal` per meter fed the same deltas in the same
//!   order — identical stream length and window count, identical tail
//!   window decision.

use std::collections::HashMap;

use ds_camal::{Camal, FrozenCamal, StreamingCamal};
use ds_timeseries::{Status, TimeSeries};
use serde_json::Value;

use crate::inputs::{Expect, Inputs, Planned};
use crate::load::Done;
use crate::workload::WINDOW;

const PROB_TOLERANCE: f64 = 1e-6;

struct WindowTruth {
    probability: f32,
    detected: bool,
    status: String,
}

pub struct Oracle {
    plans: Vec<FrozenCamal>,
    windows: HashMap<(usize, Vec<u32>), WindowTruth>,
    series: HashMap<usize, String>,
    streams: HashMap<usize, StreamingCamal>,
}

/// The outcome of checking one request.
pub struct Verdict {
    pub ok: bool,
    /// Windows the server localized to answer it.
    pub windows: usize,
}

fn mask(status: &[u8]) -> String {
    status
        .iter()
        .map(|&s| if s == 1 { '1' } else { '0' })
        .collect()
}

fn states_mask(states: &[Status]) -> String {
    states
        .iter()
        .map(|s| match s {
            Status::Off => '0',
            Status::On => '1',
            Status::Unknown => '?',
        })
        .collect()
}

fn prob_matches(reply: &Value, key: &str, want: f32) -> bool {
    reply
        .get(key)
        .and_then(Value::as_f64)
        .is_some_and(|p| (p - f64::from(want)).abs() <= PROB_TOLERANCE)
}

impl Oracle {
    /// `models[a]` serves appliance index `a` of the workload.
    pub fn new(models: &[Camal]) -> Oracle {
        Oracle {
            plans: models.iter().map(Camal::freeze).collect(),
            windows: HashMap::new(),
            series: HashMap::new(),
            streams: HashMap::new(),
        }
    }

    /// Check requests in send order (one meter's pushes must be checked
    /// in the order they were sent).
    pub fn check(&mut self, inputs: &Inputs, planned: &Planned, done: &Done) -> Verdict {
        let reply = if done.status == 200 {
            serde_json::parse_value_complete(&done.reply).ok()
        } else {
            None
        };
        let windows_of = |ok: bool, windows: usize| Verdict { ok, windows };
        match &planned.expect {
            Expect::Window {
                appliance,
                localize,
                values,
            } => {
                let truth = self.window(*appliance, values);
                let ok = reply.is_some_and(|r| {
                    prob_matches(&r, "probability", truth.probability)
                        && r.get("detected").and_then(Value::as_bool) == Some(truth.detected)
                        && (!localize
                            || r.get("status").and_then(Value::as_str)
                                == Some(truth.status.as_str()))
                });
                windows_of(ok, 1)
            }
            Expect::Series { appliance, series } => {
                let plan = &mut self.plans[*appliance];
                let values = inputs.series_values(*series);
                let truth = self.series.entry(*series).or_insert_with(|| {
                    let ts = TimeSeries::from_values(0, 60, values.to_vec());
                    states_mask(plan.predict_status_series(&ts, WINDOW).states())
                });
                let ok = reply.is_some_and(|r| {
                    r.get("states").and_then(Value::as_str) == Some(truth.as_str())
                        && r.get("len").and_then(Value::as_u64) == Some(values.len() as u64)
                });
                windows_of(
                    ok,
                    values
                        .chunks(WINDOW)
                        .filter(|w| w.len() == WINDOW && crate::workload::is_clean(w))
                        .count(),
                )
            }
            Expect::Push {
                meter,
                reset,
                values,
            } => {
                let appliances = self.plans.len();
                let plan = &self.plans[*meter % appliances];
                let stream = self
                    .streams
                    .entry(*meter)
                    .or_insert_with(|| StreamingCamal::new(plan.clone(), WINDOW, 64));
                if *reset {
                    stream.reset();
                }
                let before = stream.windows_completed();
                let absorbed = match stream.push_values(values) {
                    Ok(n) => n,
                    Err(_) => return windows_of(false, 0),
                };
                let ok = reply.is_some_and(|r| {
                    let counts = r.get("absorbed_windows").and_then(Value::as_u64)
                        == Some(absorbed as u64)
                        && r.get("len").and_then(Value::as_u64) == Some(stream.len() as u64);
                    let tail = r.get("tail");
                    let tail_ok = if absorbed == 0 {
                        tail.is_some_and(Value::is_null)
                    } else {
                        let i = absorbed - 1;
                        tail.is_some_and(|t| {
                            t.get("index").and_then(Value::as_u64) == Some(i as u64)
                                && t.get("clean").and_then(Value::as_bool)
                                    == Some(stream.window_clean(i))
                                && t.get("detected").and_then(Value::as_bool)
                                    == Some(stream.window_detected(i))
                                && t.get("status").and_then(Value::as_str)
                                    == Some(mask(stream.window_status(i)).as_str())
                                && (!stream.window_clean(i)
                                    || prob_matches(t, "probability", stream.window_probability(i)))
                        })
                    };
                    counts && tail_ok
                });
                windows_of(ok, stream.windows_completed().saturating_sub(before))
            }
        }
    }

    /// Per-timestep states of `series` from a direct call, as the
    /// `status-series` reply encodes them.
    pub fn status_mask(&mut self, appliance: usize, series: &TimeSeries) -> String {
        states_mask(
            self.plans[appliance]
                .predict_status_series(series, WINDOW)
                .states(),
        )
    }

    fn window(&mut self, appliance: usize, values: &[f32]) -> &WindowTruth {
        let plan = &mut self.plans[appliance];
        let key = (appliance, values.iter().map(|v| v.to_bits()).collect());
        self.windows.entry(key).or_insert_with(|| {
            let batch = plan.localize_batch_into(&[values]);
            WindowTruth {
                probability: batch.probability(0),
                detected: batch.detected(0),
                status: mask(batch.status(0)),
            }
        })
    }
}
