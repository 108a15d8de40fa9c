//! What each workload serves and sends: the models the host trains, and
//! the seeded request streams the generator replays.
//!
//! Everything a request carries is derived from the run's `--seed`: the
//! simulated houses the meters read from, which windows and series they
//! send, and the detect/localize mix. The host process never sees the
//! seed; it receives only the requests.

use ds_camal::CamalConfig;
use ds_datasets::{ApplianceKind, DatasetConfig, DatasetPreset};
use ds_neural::train::TrainConfig;

use crate::stats::Rng;

/// Preset every model is trained on and every request names.
pub const PRESET: DatasetPreset = DatasetPreset::UkdaleLike;
/// Window length of every plan: 6 h at the common 1-min rate.
pub const WINDOW: usize = 360;
/// Samples a history request spans: 6 days of 1-min readings.
pub const HISTORY_SAMPLES: usize = 6 * 1440;
/// Samples a streaming meter appends per push (10 minutes of readings).
pub const PUSH_DELTA: usize = 10;
/// Live push sessions the stream workload keeps (below the default
/// 256-session cap).
pub const STREAM_METERS: usize = 128;
/// Simulated fleet meters (cadences 30 s / 1 min / 10 min).
pub const FLEET_METERS: usize = 600;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fleet,
    History,
    Stream,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "fleet" => Some(Workload::Fleet),
            "history" => Some(Workload::History),
            "stream" => Some(Workload::Stream),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet => "fleet",
            Workload::History => "history",
            Workload::Stream => "stream",
        }
    }

    /// Appliances with a registered model.
    pub fn appliances(self) -> &'static [ApplianceKind] {
        match self {
            Workload::Fleet | Workload::Stream => &ApplianceKind::ALL,
            Workload::History => &[ApplianceKind::Kettle],
        }
    }

    /// `fleet`/`stream`: the app-default model (`devicescope` without
    /// `--quality`). `history`: the paper-scale ensemble. Both train for
    /// few epochs — epochs change set-up time, not the served plan's
    /// shape.
    pub fn camal_config(self) -> CamalConfig {
        match self {
            Workload::Fleet | Workload::Stream => CamalConfig {
                kernel_sizes: vec![5, 9],
                channels: vec![8, 16],
                train: TrainConfig {
                    epochs: 4,
                    ..TrainConfig::default()
                },
                ..CamalConfig::default()
            },
            Workload::History => CamalConfig {
                train: TrainConfig {
                    epochs: 2,
                    ..TrainConfig::default()
                },
                ..CamalConfig::default()
            },
        }
    }

    /// The training corpus source (fixed; independent of the run seed).
    pub fn train_dataset(self) -> DatasetConfig {
        DatasetConfig::tiny(PRESET, 4, 4)
    }
}

/// Houses a `history` pool draws from, and series per house. Many
/// houses with few series each keep one house's dropouts and habits from
/// deciding a whole seed's cost.
pub const HISTORY_HOUSES: u32 = 16;
pub const SERIES_PER_HOUSE: usize = 2;

/// The houses request inputs are read from: same preset and noise model
/// as training (dropouts included), but a seed-derived population.
pub fn input_dataset(workload: Workload, seed: u64) -> DatasetConfig {
    let base = PRESET.config();
    let (num_houses, days) = match workload {
        Workload::History => (HISTORY_HOUSES, 8),
        Workload::Fleet | Workload::Stream => (6, 10),
    };
    DatasetConfig {
        num_houses,
        days,
        seed: base.seed ^ Rng::new(seed).next_u64(),
        ..base
    }
}

/// JSON number text for one sample: shortest round-trip form, and `null`
/// for a dropout (NaN is not JSON).
pub fn push_sample(out: &mut String, v: f32) {
    use std::fmt::Write;
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

pub fn push_values(out: &mut String, values: &[f32]) {
    out.push('[');
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_sample(out, v);
    }
    out.push(']');
}

/// `detect`/`localize` body.
pub fn window_body(appliance: &str, values: &[f32]) -> String {
    let mut s = String::with_capacity(values.len() * 6 + 64);
    s.push_str("{\"preset\":\"");
    s.push_str(PRESET.name());
    s.push_str("\",\"appliance\":\"");
    s.push_str(appliance);
    s.push_str("\",\"values\":");
    push_values(&mut s, values);
    s.push('}');
    s
}

/// `status-series` body.
pub fn series_body(appliance: &str, start: i64, values: &[f32]) -> String {
    let mut s = String::with_capacity(values.len() * 6 + 128);
    s.push_str("{\"preset\":\"");
    s.push_str(PRESET.name());
    s.push_str("\",\"appliance\":\"");
    s.push_str(appliance);
    s.push_str(&format!(
        "\",\"window\":{WINDOW},\"start\":{start},\"interval_secs\":60,\"values\":"
    ));
    push_values(&mut s, values);
    s.push('}');
    s
}

/// `push` body.
pub fn push_body(meter: usize, appliance: &str, reset: bool, values: &[f32]) -> String {
    let mut s = String::with_capacity(values.len() * 6 + 128);
    s.push_str(&format!(
        "{{\"meter\":\"m{meter}\",\"preset\":\"{}\",\"appliance\":\"{appliance}\",\"window\":{WINDOW},",
        PRESET.name()
    ));
    if reset {
        s.push_str("\"reset\":true,");
    }
    s.push_str("\"values\":");
    push_values(&mut s, values);
    s.push('}');
    s
}

/// True when `values` holds no dropout.
pub fn is_clean(values: &[f32]) -> bool {
    values.iter().all(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropouts_are_sent_as_null() {
        let body = series_body("kettle", 0, &[1.0, f32::NAN, 2.5]);
        assert!(body.ends_with("\"values\":[1,null,2.5]}"), "{body}");
        assert!(serde_json::parse_value_complete(&body).is_ok());
    }
}
