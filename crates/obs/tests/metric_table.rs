//! Walks `etude_obs::metric::TABLE`: whatever a row declares must be
//! what every surface does with it, so a new row is covered the moment
//! it is added — and the README's `/stats` field table is checked
//! against the renderer instead of trusted.

use etude_obs::metric::{Kind, MetricDef, TABLE};
use etude_obs::{parse_stats_json, Metric, ReactorTelemetry, Recorder, Stage, StatsSnapshot};

/// A snapshot whose every scalar holds a distinct value (`base + 7·row`).
fn distinct(base: u64, pod: u32) -> StatsSnapshot {
    let mut snap = StatsSnapshot {
        pod: Some(pod),
        ..StatsSnapshot::default()
    };
    for (i, def) in TABLE.iter().enumerate() {
        snap.set(def.metric, base + 7 * i as u64);
    }
    snap
}

/// `etude_<stem>` plus the row's `level` label, if any.
fn series(def: &MetricDef) -> String {
    let labels = def
        .level
        .map(|level| format!("{{level=\"{level}\"}}"))
        .unwrap_or_default();
    format!("etude_{}{labels}", def.prom.stem)
}

fn prom_value(def: &MetricDef, value: u64) -> String {
    match def.kind {
        Kind::MilliGauge => format!("{:.3}", value as f64 / 1000.0),
        Kind::Counter | Kind::Gauge => value.to_string(),
    }
}

fn count_lines(text: &str, line: &str) -> usize {
    text.lines().filter(|l| *l == line).count()
}

#[test]
fn rows_are_keyed_by_position_and_name_nothing_twice() {
    assert_eq!(TABLE.len(), Metric::COUNT);
    for (i, def) in TABLE.iter().enumerate() {
        assert_eq!(def.metric as usize, i, "{} is out of place", def.json);
        assert_eq!(def.metric.def().json, def.json);
        for other in &TABLE[..i] {
            assert_ne!(other.json, def.json);
            assert_ne!(series(other), series(def));
        }
    }
}

#[test]
fn every_row_survives_stats_and_appears_once_on_metrics() {
    let snap = distinct(1_000, 4);
    let json = snap.render_json();
    let parsed = parse_stats_json(&json).expect("own rendering parses");
    assert_eq!(parsed, snap);
    assert_eq!(parsed.render_json(), json, "render → parse → render");
    let metrics = snap.render_prometheus();
    for def in &TABLE {
        let value = snap.get(def.metric);
        assert_eq!(parsed.get(def.metric), value, "{}", def.json);
        assert_eq!(
            count_lines(&json, &format!("  \"{}\": {value},", def.json)),
            1,
            "{} on /stats",
            def.json
        );
        let sample = format!("{} {}", series(def), prom_value(def, value));
        assert_eq!(count_lines(&metrics, &sample), 1, "{sample} on /metrics");
        let name = format!("etude_{}", def.prom.stem);
        let kind = def.kind.prom_type();
        assert_eq!(
            count_lines(&metrics, &format!("# TYPE {name} {kind}")),
            1,
            "{name} is declared a {kind} once"
        );
        assert_eq!(
            count_lines(&metrics, &format!("# HELP {name} {}", def.prom.help)),
            1
        );
    }
}

#[test]
fn the_recorder_carries_every_row() {
    let recorder = Recorder::new();
    let mut expected = [0u64; Metric::COUNT];
    for (i, def) in TABLE.iter().enumerate() {
        let value = 2 + i as u64;
        match def.metric {
            // Derived: requests are total spans, and nothing was lapped.
            Metric::Requests => (0..value).for_each(|id| recorder.record(id, Stage::Total, 1_000)),
            Metric::Dropped => continue,
            _ if def.kind == Kind::Counter => (0..value).for_each(|_| recorder.bump(def.metric)),
            _ => recorder.set(def.metric, value),
        }
        expected[i] = value;
    }
    let snap = recorder.snapshot();
    for (def, value) in TABLE.iter().zip(expected) {
        assert_eq!(snap.get(def.metric), value, "{}", def.json);
        assert_eq!(recorder.get(def.metric), value, "{}", def.json);
    }
}

/// The README documents every `/stats` field "in emission order"; hold
/// it to that against a document with every optional section present.
#[test]
fn readme_stats_field_table_lists_the_keys_in_emission_order() {
    let readme = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let readme = std::fs::read_to_string(readme).expect("README.md at the workspace root");
    let documented: Vec<&str> = readme
        .lines()
        .skip_while(|l| !l.starts_with("Every field in the `/stats` JSON document"))
        .skip_while(|l| !l.starts_with("|---"))
        .skip(1)
        .take_while(|l| l.starts_with('|'))
        .flat_map(|row| {
            // Backticked names in the first column: odd pieces of a
            // split on '`'.
            let first = row.trim_start_matches('|').split('|').next().unwrap();
            first.split('`').skip(1).step_by(2)
        })
        .collect();

    let full = StatsSnapshot {
        reactor: Some(ReactorTelemetry::default()),
        ..Recorder::with_pod(1).snapshot()
    };
    let json = full.render_json();
    let emitted: Vec<&str> = json
        .lines()
        .filter_map(|l| l.strip_prefix("  \"")?.split('"').next())
        .collect();
    assert_eq!(documented, emitted, "README `/stats` field table");
    for def in &TABLE {
        assert!(emitted.contains(&def.json), "{} is emitted", def.json);
    }
}
