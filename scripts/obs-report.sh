#!/usr/bin/env sh
# Pretty-prints a pscp-obs metrics snapshot — either the in-process
# metrics.json or a wire-scraped one (serve_metrics.json), which
# additionally carries a snapshot version and a "gauges" block with
# serve-level state (uptime, connections, queue depth, workers).
#
#   scripts/obs-report.sh [metrics.json]
#
# Default input: $PSCP_OBS_DIR/metrics.json (target/obs/metrics.json).
set -eu
cd "$(dirname "$0")/.."
cargo run -q --release -p pscp-bench --bin obs_report -- "$@"
