//! `gang_sparse`: the SLA-bound gang system (16 rotor regions, 560
//! transitions) under sparse seeded scripts — about 3% of rows carry
//! one region event and 0.2% a probe event that advances most regions.
//!
//! The SLA probe is most of the work and TEP execution nearly none, so
//! this is the workload for SLA and gang evaluator changes and for the
//! question of why gangs stall between 8 and 64 lanes.

use super::sim::{SimInputs, SimSetup};
use crate::record::Fnv;
use crate::rng::SplitMix64;
use crate::runner::RunConfig;
use crate::subject::Subject;
use crate::workloads::Scripts;
use pscp_bench::{GANG_PROBES, GANG_REGIONS};
use pscp_core::machine::ScriptedEnvironment;
use pscp_core::pool::BatchOptions;

/// Script rows per scenario.
const ROWS: usize = 256;
/// Scenarios per repetition: four batches.
const SCENARIOS: usize = 4 * BATCH;
/// Scenarios per `run_batch` call: 16 gangs of 64 lanes, so the two
/// workers balance over many gangs and one slowed CPU does not set the
/// batch's time.
const BATCH: usize = 1_024;

pub struct Sparse;

/// The `gang_sparse` workload.
pub type GangSparse = super::sim::Sim<Sparse>;

/// Scripts over `E0..E15` (one region each) and `P0..P7` (probes that
/// advance many regions at once). Each row independently carries a
/// region event with probability 1/37, else a probe with 1/499, so lanes
/// idle most cycles and fire out of phase. Rows with an event are drawn
/// by geometric gaps: one draw per event instead of one per row.
fn scripts(rng: &mut SplitMix64, scenarios: usize, rows: usize) -> Scripts {
    const REGION: f64 = 1.0 / 37.0;
    const PROBE: f64 = (1.0 - REGION) / 499.0;
    let events = (0..GANG_REGIONS)
        .map(|r| format!("E{r}"))
        .chain((0..GANG_PROBES).map(|p| format!("P{p}")));
    let mut out = Scripts::new(events.collect());
    let miss = (1.0 - REGION - PROBE).ln();
    for _ in 0..scenarios {
        let mut marks = Vec::new();
        let mut row = 0f64;
        loop {
            // Rows up to the next event: floor(ln U / ln(1 - p)).
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            row += ((1.0 - u).ln() / miss).floor();
            if row >= rows as f64 {
                break;
            }
            let mask = if rng.chance(REGION / (REGION + PROBE)) {
                1 << rng.below(GANG_REGIONS as u64)
            } else {
                1 << (GANG_REGIONS as u64 + rng.below(GANG_PROBES as u64))
            };
            marks.push((row as u32, mask));
            row += 1.0;
        }
        out.push(rows, marks);
    }
    out
}

impl SimInputs for Sparse {
    type Env = ScriptedEnvironment;

    fn build(cfg: &RunConfig) -> SimSetup<ScriptedEnvironment> {
        let mut rng = SplitMix64::derive(cfg.seed, "gang_sparse");
        let (n, rows) = if cfg.smoke {
            (16, 64)
        } else {
            (SCENARIOS, ROWS)
        };
        let scripts = scripts(&mut rng, n, rows);
        SimSetup {
            subject: Subject::gang(),
            scenarios: n,
            inputs_digest: scripts.digest(),
            env: Box::new(move |i| scripts.env(i)),
            batch: BATCH,
            limits: BatchOptions {
                deadline: u64::MAX,
                max_steps: rows as u64,
            },
            done: Box::new(|_, _, _| false),
            replay: 64,
        }
    }

    fn env_digest(env: &ScriptedEnvironment, h: Fnv) -> Fnv {
        h.u64(env.port_writes.len() as u64)
    }
}
