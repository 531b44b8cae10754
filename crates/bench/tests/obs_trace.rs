//! With `PSCP_OBS=trace` multi-worker runs must come back as valid
//! Chrome `trace_event` documents with one named lane per worker. Runs
//! the pickup-head example across a 4-worker [`SimPool`], then through
//! a 2-shard loopback server and a 2-worker exploration, and checks
//! each exported JSON with the crate's own parser.
//!
//! Single `#[test]`: the trace collector is process-global, and a
//! sibling test running concurrently would add lanes of its own.

use pscp_core::arch::PscpArch;
use pscp_core::explore::{self, ExploreOptions};
use pscp_core::machine::ScriptedEnvironment;
use pscp_core::pool::{BatchOptions, SimPool};
use pscp_core::serve::{self, ScenarioClient, ServeOptions};
use pscp_obs::json;
use std::sync::Arc;

fn scripts() -> Vec<Vec<Vec<String>>> {
    (0..8)
        .map(|i| {
            let mut script = vec![vec!["POWER".to_string()]];
            for _ in 0..=i {
                script.push(vec!["DATA_VALID".to_string()]);
                script.push(vec![]);
            }
            script
        })
        .collect()
}

const LIMITS: BatchOptions = BatchOptions { deadline: u64::MAX, max_steps: 64 };

/// Runs `work` with tracing on and returns (lane names, complete-span
/// names) from the Chrome trace exported right after it.
fn traced(work: impl FnOnce()) -> (Vec<String>, Vec<String>) {
    pscp_obs::set_flags(pscp_obs::TRACE);
    pscp_obs::trace::clear();

    work();

    let trace = pscp_obs::trace::export_chrome_trace();
    pscp_obs::set_flags(pscp_obs::env_flags());
    pscp_obs::trace::clear();

    let doc = json::parse(&trace).expect("trace JSON parses");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    let lanes = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
        .filter_map(|e| e.get("args").and_then(|a| a.get("name")).and_then(|n| n.as_str()))
        .map(str::to_string)
        .collect();
    let spans = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .map(str::to_string)
        .collect();
    (lanes, spans)
}

/// Runs one traced 4-worker batch.
fn traced_batch(pool: &SimPool) -> (Vec<String>, Vec<String>) {
    traced(|| {
        let system = pscp_bench::example_system(&PscpArch::md16_optimized());
        let envs = scripts().into_iter().map(ScriptedEnvironment::new).collect();
        let outcomes = pool.run_batch(&system, envs, &LIMITS);
        assert_eq!(outcomes.len(), 8);
    })
}

fn lanes_named(lanes: &[String], prefix: &str) -> usize {
    lanes.iter().filter(|l| l.starts_with(prefix)).count()
}

#[test]
fn batch_trace_exports_worker_lanes() {
    // A batch: one `scenario` span per scenario.
    let (lanes, spans) = traced_batch(&SimPool::with_threads(4));
    assert!(
        lanes_named(&lanes, "sim-worker") >= 2,
        "expected >= 2 sim-worker lanes under 4 workers, got {lanes:?}"
    );
    assert!(spans.len() >= 8, "expected >= 8 spans, got {}", spans.len());
    assert!(spans.iter().any(|s| s == "scenario"), "no `scenario` span in the batch trace");

    // A 2-shard loopback server, stopped before the export: the shard
    // workers' spans must be collected by the time `stop` has joined
    // them.
    let (lanes, _) = traced(|| {
        let system = Arc::new(pscp_bench::example_system(&PscpArch::md16_optimized()));
        let opts = ServeOptions { threads: 2, ..ServeOptions::default() };
        let server = serve::spawn(system, "127.0.0.1:0", opts).expect("bind loopback");
        let mut client = ScenarioClient::connect(server.addr()).expect("connect");
        let outcomes = client.run_batch(&scripts(), LIMITS).expect("served batch");
        assert_eq!(outcomes.len(), 8);
        drop(client);
        server.stop().expect("clean stop");
    });
    assert!(
        lanes_named(&lanes, "serve-worker") >= 1,
        "expected >= 1 serve-worker lane under 2 shards, got {lanes:?}"
    );

    // A 2-worker exploration of the pickup head: every layer wide
    // enough for two chunks streams through two pool workers.
    let (lanes, _) = traced(|| {
        let system = pscp_bench::example_system(&PscpArch::dual_md16(true));
        let report =
            explore::explore(&system, &ExploreOptions { threads: 2, ..ExploreOptions::default() });
        assert!(!report.truncated);
    });
    assert!(
        lanes_named(&lanes, "sim-worker") >= 2,
        "expected >= 2 sim-worker lanes under 2 explore workers, got {lanes:?}"
    );
}
