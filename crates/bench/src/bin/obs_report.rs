//! Pretty-prints a pscp-obs metrics snapshot (`metrics.json` or a
//! wire-scraped `serve_metrics.json`) as tables: snapshot version,
//! serve gauges (when the snapshot came from a wire scrape), scalar
//! counters — including the `serve_*` telemetry family —
//! per-worker counters, TEP instruction mix, and histogram summaries.
//!
//! Usage: `obs_report [path-to-metrics.json]` (default:
//! `$PSCP_OBS_DIR/metrics.json`). Usually invoked through
//! `scripts/obs-report.sh`.

use pscp_core::report::Table;
use pscp_obs::json::{parse, JsonValue};
use std::path::PathBuf;

fn scalar_table(title: &str, obj: &JsonValue) -> Option<String> {
    let JsonValue::Object(map) = obj else { return None };
    if map.is_empty() {
        return None;
    }
    let mut t = Table::new(["Counter", "Value"]);
    for (name, v) in map {
        t.row([name.clone(), v.as_u64().map_or_else(|| "?".into(), |n| n.to_string())]);
    }
    Some(format!("{title}\n{t}"))
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| pscp_obs::obs_dir().join("metrics.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {} ({e})", path.display()));
    let doc = parse(&text).unwrap_or_else(|e| panic!("{} is not valid JSON: {e}", path.display()));

    let version =
        doc.get("version").and_then(JsonValue::as_u64).map_or(String::new(), |v| {
            format!(" (snapshot v{v})")
        });
    println!("pscp-obs metrics report — {}{version}\n", path.display());

    if let Some(gauges) = doc.get("gauges") {
        if let Some(table) = scalar_table("Serve gauges", gauges) {
            println!("{table}");
        }
    }

    if let Some(counters) = doc.get("counters") {
        if let Some(table) = scalar_table("Counters", counters) {
            println!("{table}");
        }
    }

    if let Some(JsonValue::Object(map)) = doc.get("per_worker") {
        if !map.is_empty() {
            let mut t = Table::new(["Counter", "Per-worker values", "Total"]);
            for (name, v) in map {
                let values: Vec<u64> = v
                    .as_array()
                    .map(|a| a.iter().filter_map(JsonValue::as_u64).collect())
                    .unwrap_or_default();
                let rendered = values
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(" ");
                t.row([name.clone(), rendered, values.iter().sum::<u64>().to_string()]);
            }
            println!("Per-worker\n{t}");
        }
    }

    if let Some(tep) = doc.get("tep_instr") {
        if let Some(table) = scalar_table("TEP instruction mix", tep) {
            println!("{table}");
        }
    }

    if let Some(JsonValue::Object(map)) = doc.get("histograms") {
        if !map.is_empty() {
            let mut t = Table::new(["Histogram", "Count", "Sum", "Mean", "Top bucket"]);
            for (name, h) in map {
                let count = h.get("count").and_then(JsonValue::as_u64).unwrap_or(0);
                let sum = h.get("sum").and_then(JsonValue::as_u64).unwrap_or(0);
                let mean = if count > 0 { sum as f64 / count as f64 } else { 0.0 };
                let top = h
                    .get("buckets")
                    .and_then(JsonValue::as_array)
                    .and_then(|buckets| {
                        buckets.iter().max_by_key(|b| {
                            b.get("n").and_then(JsonValue::as_u64).unwrap_or(0)
                        })
                    })
                    .map(|b| {
                        format!(
                            "[{}, {}] x{}",
                            b.get("lo").and_then(JsonValue::as_u64).unwrap_or(0),
                            b.get("hi").and_then(JsonValue::as_u64).unwrap_or(0),
                            b.get("n").and_then(JsonValue::as_u64).unwrap_or(0)
                        )
                    })
                    .unwrap_or_else(|| "-".into());
                t.row([name.clone(), count.to_string(), sum.to_string(), format!("{mean:.1}"), top]);
            }
            println!("Histograms\n{t}");
        }
    }
}
