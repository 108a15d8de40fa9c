//! Per-layer timings: direct calls into each crate's public functions on
//! the workload's own models and inputs, each a span recorded in memory.
//!
//! Every figure is the median over several timed repetitions, each
//! repetition long enough (a few ms) that timer resolution is noise.

use std::hint::black_box;
use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;

use ds_camal::{z_normalize_into, Camal, StreamingCamal};
use ds_neural::Tensor;
use ds_serve::{ModelRegistry, PlanKey};
use ds_timeseries::TimeSeries;

use crate::stats::median;
use crate::workload::{PRESET, PUSH_DELTA, WINDOW};

/// One recorded span: a named direct call (or batch of calls) and its
/// duration.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Operations the span covers (its per-op cost is `dur / ops`).
    pub ops: usize,
}

/// The in-memory span log of a traced run.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Time `f` as one span covering `ops` operations; returns seconds
    /// per operation.
    pub fn span(&mut self, name: &'static str, ops: usize, f: impl FnOnce()) -> f64 {
        let t = Instant::now();
        f();
        let dur = t.elapsed();
        self.spans.push(Span {
            name,
            start_ns: t.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
            ops,
        });
        dur.as_secs_f64() / ops.max(1) as f64
    }

    /// Median per-op seconds over `reps` spans of `ops` operations each.
    pub fn median_of(
        &mut self,
        name: &'static str,
        reps: usize,
        ops: usize,
        mut f: impl FnMut(),
    ) -> f64 {
        let per_op: Vec<f64> = (0..reps)
            .map(|_| {
                self.span(name, ops, || {
                    for _ in 0..ops {
                        f();
                    }
                })
            })
            .collect();
        median(&per_op)
    }
}

/// Direct-call layer figures of one model.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub localize_us_b1: f64,
    pub localize_us_b16: f64,
    pub forward_us: f64,
    pub cam_us: f64,
    pub znorm_us: f64,
    pub status_series_ms: f64,
    pub push_us_append: f64,
    pub push_us_absorb: f64,
    pub plan_kb: f64,
    pub freeze_ms: f64,
    pub http_read_us: f64,
    pub http_write_us: f64,
    pub json_parse_us: f64,
}

const REPS: usize = 9;

/// Time the model layers on `windows` (clean, `WINDOW` long, at least
/// 16) and `series` (a multi-day series with its dropouts), and the serve
/// layers on recorded request bytes and reply bodies.
pub fn measure(
    tracer: &mut Tracer,
    model: &Camal,
    appliance: &str,
    windows: &[Vec<f32>],
    series: &[f32],
    requests: &[(&'static str, Arc<str>)],
    replies: &[String],
) -> Layers {
    let mut out = Layers::default();
    let mut plan = model.freeze();
    let chunk: Vec<&[f32]> = windows.iter().take(16).map(Vec::as_slice).collect();
    assert_eq!(chunk.len(), 16, "layer timing needs 16 windows");
    let _ = plan.localize_batch_into(&chunk);
    out.plan_kb = plan.arena_bytes() as f64 / 1024.0;

    let mut k = 0;
    out.localize_us_b1 = 1e6
        * tracer.median_of("camal.localize_batch_into.b1", REPS, 32, || {
            black_box(plan.localize_batch_into(black_box(&chunk[k % 16..k % 16 + 1])));
            k += 1;
        });

    // b16 and the bare forward pass alternate, so both see the same host
    // noise; the CAM/attention/status share is their per-rep difference.
    let mut ensemble = model.ensemble().freeze();
    let normalized: Vec<Vec<f32>> = chunk
        .iter()
        .map(|w| ds_camal::z_normalize_window(w))
        .collect();
    let x = Tensor::from_windows(&normalized);
    ensemble.predict_into(&x);
    let (mut b16, mut forward, mut cam) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let whole = tracer.span("camal.localize_batch_into.b16", 16 * 4, || {
            for _ in 0..4 {
                black_box(plan.localize_batch_into(black_box(&chunk)));
            }
        });
        let fwd = tracer.span("neural.frozen_ensemble.predict_into", 16 * 4, || {
            for _ in 0..4 {
                ensemble.predict_into(black_box(&x));
                black_box(ensemble.ensemble_probs());
            }
        });
        b16.push(whole);
        forward.push(fwd);
        cam.push(whole - fwd);
    }
    out.localize_us_b16 = 1e6 * median(&b16);
    out.forward_us = 1e6 * median(&forward);
    out.cam_us = 1e6 * median(&cam);

    let mut scratch = vec![0.0f32; WINDOW];
    out.znorm_us = 1e6
        * tracer.median_of("camal.z_normalize_into", REPS, 256, || {
            z_normalize_into(black_box(chunk[k % 16]), &mut scratch);
            black_box(&mut scratch);
            k += 1;
        });

    let ts = TimeSeries::from_values(0, 60, series.to_vec());
    black_box(plan.predict_status_series(&ts, WINDOW));
    out.status_series_ms = 1e3
        * tracer.median_of("camal.predict_status_series", REPS.min(5), 1, || {
            black_box(plan.predict_status_series(black_box(&ts), WINDOW));
        });

    // Streaming: 10-sample deltas from the windows, end to end; a push
    // that completes a window runs one localization.
    let samples: Vec<f32> = windows.iter().flatten().copied().collect();
    let mut stream = StreamingCamal::new(plan.clone(), WINDOW, 64);
    let (mut append, mut absorb) = (Vec::new(), Vec::new());
    let mut offset = 0;
    for _ in 0..(36 * 12) {
        if offset + PUSH_DELTA > samples.len() {
            offset = 0;
        }
        if stream.len() + PUSH_DELTA > stream.capacity() {
            stream.reset();
        }
        let before = stream.windows_completed();
        let delta = &samples[offset..offset + PUSH_DELTA];
        let secs = tracer.span("camal.streaming.push_values", 1, || {
            black_box(stream.push_values(black_box(delta))).ok();
        });
        if stream.windows_completed() > before {
            absorb.push(secs);
        } else {
            append.push(secs);
        }
        offset += PUSH_DELTA;
    }
    out.push_us_append = 1e6 * median(&append);
    out.push_us_absorb = 1e6 * median(&absorb);

    let key = PlanKey {
        preset: PRESET.name().to_string(),
        appliance: appliance.to_string(),
        window: WINDOW,
        backbone: model.config().lead_backbone(),
        precision: ds_camal::Precision::F32,
    };
    let freezes: Vec<f64> = (0..REPS.min(5))
        .map(|_| {
            let registry = ModelRegistry::new();
            registry.register(PRESET.name(), appliance, WINDOW, model.clone(), Vec::new());
            tracer.span("serve.registry.get_or_freeze", 1, || {
                let _ = registry.get_or_freeze(&key).expect("registered");
            })
        })
        .collect();
    out.freeze_ms = 1e3 * median(&freezes);

    // Serve framing on the workload's recorded bytes.
    let raw: Vec<Vec<u8>> = requests
        .iter()
        .map(|(path, body)| {
            format!(
                "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        })
        .collect();
    let n = raw.len();
    let mut i = 0;
    out.http_read_us = 1e6
        * tracer.median_of("serve.http.read_request", REPS, n, || {
            let mut reader = Cursor::new(raw[i % n].as_slice());
            black_box(ds_serve::http::read_request(&mut reader, 8 << 20)).ok();
            i += 1;
        });
    let mut sink = Vec::with_capacity(1 << 16);
    let m = replies.len();
    out.http_write_us = 1e6
        * tracer.median_of("serve.http.write_response", REPS, m, || {
            sink.clear();
            black_box(ds_serve::http::write_response(
                &mut sink,
                200,
                &replies[i % m],
                true,
            ))
            .ok();
            black_box(&mut sink);
            i += 1;
        });
    out.json_parse_us = 1e6
        * tracer.median_of("serve.json.parse_value_complete", REPS, n, || {
            black_box(serde_json::parse_value_complete(black_box(
                &requests[i % n].1,
            )))
            .ok();
            i += 1;
        });
    out
}
