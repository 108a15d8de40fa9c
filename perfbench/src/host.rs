//! The host process: trains the workload's models, registers them, and
//! serves them with ds-serve exactly as shipped (`ServeConfig::default()`).
//!
//! Protocol on stdout, one line each:
//!
//! - `SETUP <json>` — set-up timings of every repetition, plus the
//!   `ServeConfig` the server runs with;
//! - `MODEL <appliance> <checkpoint json>` — each served model, so the
//!   generator can check replies against direct calls;
//! - `READY <addr>` — the server of the last set-up is accepting.
//!
//! The host then serves until its stdin closes, shuts the server down and
//! exits.

use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use ds_camal::model_io;
use ds_camal::train::train_camal_with_reports;
use ds_datasets::labels::Corpus;
use ds_datasets::Dataset;
use ds_serve::{Client, ModelRegistry, ServeConfig, Server, ServerHandle};
use serde_json::Value;

use crate::workload::{window_body, Workload, PRESET, WINDOW};
use crate::{obj, Json};

/// Set-up repetitions per run; the reported `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// One set-up: simulate, build corpora, train, register, start, and wait
/// for the first 200.
struct Setup {
    server: ServerHandle,
    models: Vec<(&'static str, ds_camal::Camal)>,
    timings: Json,
}

fn setup(workload: Workload) -> std::io::Result<Setup> {
    let started = Instant::now();
    let t = Instant::now();
    let dataset = Dataset::generate(workload.train_dataset());
    let simulate_s = t.elapsed().as_secs_f64();
    let config = workload.camal_config();
    let (mut corpus_s, mut train_s, mut epochs) = (0.0, 0.0, 0usize);
    let registry = Arc::new(ModelRegistry::new());
    let mut models = Vec::new();
    let mut probe = None;
    for &kind in workload.appliances() {
        let t = Instant::now();
        let mut corpus = Corpus::build(&dataset, kind, WINDOW);
        corpus.balance_train(3);
        corpus_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (model, reports) = train_camal_with_reports(&corpus, &config);
        train_s += t.elapsed().as_secs_f64();
        epochs += reports
            .iter()
            .map(|r| r.epoch_losses.len())
            .max()
            .unwrap_or(0);
        if probe.is_none() {
            probe = Some(window_body(kind.slug(), &corpus.train[0].values));
        }
        registry.register(
            PRESET.name(),
            kind.slug(),
            WINDOW,
            model.clone(),
            Vec::new(),
        );
        models.push((kind.slug(), model));
    }
    let server = Server::start(ServeConfig::default(), registry)?;
    let mut client = Client::connect(&server.addr().to_string())?;
    let probe = probe.expect("every workload registers a model");
    loop {
        let (status, _) = client.post("/api/v1/localize", &probe)?;
        if status == 200 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let setup_s = started.elapsed().as_secs_f64();
    let timings = obj([
        ("setup_s", setup_s.into()),
        ("simulate_s", simulate_s.into()),
        ("corpus_s", corpus_s.into()),
        ("train_s", train_s.into()),
        ("train_epochs", epochs.into()),
    ]);
    Ok(Setup {
        server,
        models,
        timings,
    })
}

pub fn run(workload: Workload) -> std::io::Result<()> {
    let mut reps = Vec::new();
    let mut served: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = served.take() {
            prev.server.shutdown();
        }
        let done = setup(workload)?;
        reps.push(done.timings.clone());
        served = Some(done);
    }
    let setup = served.expect("at least one set-up");
    let mut out = std::io::stdout().lock();
    let line = obj([
        ("reps", Value::Array(reps)),
        (
            "serve_config",
            format!("{:?}", ServeConfig::default()).into(),
        ),
    ]);
    writeln!(out, "SETUP {line}")?;
    for (appliance, model) in &setup.models {
        writeln!(out, "MODEL {appliance} {}", model_io::to_json(model))?;
    }
    writeln!(out, "READY {}", setup.server.addr())?;
    out.flush()?;
    drop(out);
    // Serve until the generator closes our stdin.
    std::io::copy(&mut std::io::stdin(), &mut std::io::sink())?;
    setup.server.shutdown();
    Ok(())
}
