//! What `cargo test` holds the benchmark to: the tables and
//! `BENCHMARK.json` agree, every workload prints exactly the metrics the
//! manifest lists, seeds steer the simulation, and the trace file is a
//! tree. Runs every workload at 3 messages per generator.

use crate::json::Json;
use crate::metrics::{render, Better, Metric, END_TO_END, PER_LAYER};
use crate::workloads::{end_to_end, per_layer, WORKLOADS};
use crate::{DEFAULT_SECONDS, DEFAULT_SEED};
use std::collections::BTreeSet;
use std::path::PathBuf;

const MSGS: u32 = 3;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json is JSON")
}

fn scratch(file: &str) -> PathBuf {
    [env!("CARGO_MANIFEST_DIR"), "out", "test", file]
        .iter()
        .collect()
}

fn well_formed(name: &str, extra: &str, max: usize) -> bool {
    !name.is_empty()
        && name.len() <= max
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

#[test]
fn manifest_repeats_the_tables() {
    let manifest = manifest();
    let keys: Vec<&str> = manifest.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        manifest.get("paths").items(),
        [Json::Str("benchmark".into())]
    );
    assert_eq!(manifest.get("run_seconds").num(), DEFAULT_SECONDS as f64);
    let command: Vec<&str> = manifest
        .get("command")
        .items()
        .iter()
        .map(Json::str)
        .collect();
    assert!(command.contains(&"benchmark/Cargo.toml") && command.ends_with(&["run-one"]));

    let listed: Vec<(&str, &str)> = manifest
        .get("workloads")
        .items()
        .iter()
        .map(|w| (w.get("name").str(), w.get("why").str()))
        .collect();
    let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(listed, ours);
    for (name, why) in ours {
        assert!(well_formed(name, "_.-", 64), "{name}");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why is one short line"
        );
    }

    let mut seen = BTreeSet::new();
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = manifest.get(key).items();
        assert_eq!(listed.len(), table.len(), "{key}");
        for (entry, m) in listed.iter().zip(table) {
            assert_eq!(entry.get("name").str(), m.name);
            assert_eq!(entry.get("unit").str(), m.unit, "{}", m.name);
            let better = match m.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(entry.get("better").str(), better, "{}", m.name);
            match m.bound {
                Some(bound) => {
                    assert_eq!(entry.get("bound").num(), bound, "{}", m.name);
                    assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
                    assert_eq!(entry.members().len(), 4);
                }
                None => assert_eq!(entry.members().len(), 3, "{}", m.name),
            }
            assert!(well_formed(m.name, "_.-", 64), "{}", m.name);
            assert!(well_formed(m.unit, "_/%.-", 16), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} is listed twice", m.name);
        }
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
}

/// The metrics of a rendered result: names in order, taken from the
/// JSON line, after checking the line against the plain lines above it.
fn rendered_metrics(workload: &str, table: &[Metric], text: &str) -> Vec<String> {
    let lines: Vec<&str> = text.lines().collect();
    let (result, plain) = lines.split_last().expect("a result line");
    let result = Json::parse(result).expect("the last line is JSON");
    let keys: Vec<&str> = result.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(*result.get("correct"), Json::Bool(true));
    assert!(result.get("attempted").num() >= 1.0);
    assert_eq!(result.get("failed").num(), 0.0);
    let metrics = result.get("metrics").members();
    assert_eq!(metrics.len(), plain.len());
    for ((name, entry), line) in metrics.iter().zip(plain) {
        let m = table
            .iter()
            .find(|m| m.name == name)
            .expect("a listed metric");
        let value = entry.get("value").num();
        assert!(value.is_finite(), "{name}");
        assert_eq!(entry.get("unit").str(), m.unit);
        assert_eq!(*line, format!("{workload}/{name} {value} {}", m.unit));
    }
    metrics.iter().map(|(name, _)| name.clone()).collect()
}

fn names(table: &[Metric]) -> Vec<String> {
    table.iter().map(|m| m.name.to_owned()).collect()
}

#[test]
fn every_workload_prints_exactly_the_listed_metrics_and_a_span_tree() {
    for w in &WORKLOADS {
        let outcome = end_to_end(w, DEFAULT_SEED, 10, MSGS);
        assert_eq!(outcome.checks_failed, Vec::<String>::new());
        assert_eq!(outcome.failed, 0);
        assert!(
            outcome.values.values().all(|v| *v > 0.0),
            "end-to-end metrics are never 0"
        );
        let text = render(w.name, END_TO_END, &outcome);
        assert_eq!(
            rendered_metrics(w.name, END_TO_END, &text),
            names(END_TO_END)
        );

        let path = scratch(&format!("{}.trace.json", w.name));
        let outcome = per_layer(w, DEFAULT_SEED, MSGS, &path);
        assert_eq!(outcome.checks_failed, Vec::<String>::new());
        let text = render(w.name, PER_LAYER, &outcome);
        assert_eq!(rendered_metrics(w.name, PER_LAYER, &text), names(PER_LAYER));
        assert!(outcome.values["core.merge_render_s"] > 0.0);
        assert!(outcome.values["core.allocs_per_event"] > 0.0);

        let trace = Json::parse(&std::fs::read_to_string(&path).unwrap()).expect("trace is JSON");
        let events = trace.get("traceEvents").items();
        let ids: BTreeSet<u64> = events
            .iter()
            .map(|e| e.get("args").get("id").num() as u64)
            .collect();
        assert_eq!(ids.len(), events.len(), "span ids are unique");
        let mut roots = 0;
        for e in events {
            assert_eq!(e.get("ph").str(), "X");
            assert!(e.get("dur").num() >= 0.0);
            match e.get("args").get("parent") {
                Json::Null => roots += 1,
                parent => assert!(
                    ids.contains(&(parent.num() as u64)),
                    "{}",
                    e.get("name").str()
                ),
            }
        }
        assert_eq!(roots, 1, "one root, a parent for every other span");
        let named = |n: &str| events.iter().any(|e| e.get("name").str() == n);
        assert!(named("core.run") && named("core.merge_render") && named("layers.simcore"));
    }
}

#[test]
fn the_seed_steers_the_simulation_and_equal_seeds_repeat_it() {
    let w = &WORKLOADS[2];
    let sim = |seed: u64| {
        // Two reps: the second must repeat the first or the gate fails.
        let outcome = end_to_end(w, seed, 20, MSGS);
        assert_eq!(outcome.checks_failed, Vec::<String>::new());
        let v = outcome.values;
        (v["sim_rtt_mean_ms"], v["sim_delivered_ppm"])
    };
    let first = sim(1);
    assert_eq!(first, sim(1));
    assert_ne!(first.0, sim(2).0);
}
