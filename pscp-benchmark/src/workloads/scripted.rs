//! `scripted_dense`: the pickup head under dense seeded event scripts.
//!
//! Every row independently carries `DATA_VALID`, `X_PULSE` and
//! `Y_PULSE`, plus rare others, so lanes fire often and out of phase:
//! the gang mechanism costs here instead of paying. A gang or
//! scalar-path change that helps `cosim_plant` must not hide a loss on
//! this workload.

use super::sim::{SimInputs, SimSetup};
use crate::record::Fnv;
use crate::rng::SplitMix64;
use crate::runner::RunConfig;
use crate::subject::Subject;
use crate::workloads::dense_scripts;
use pscp_core::arch::PscpArch;
use pscp_core::machine::ScriptedEnvironment;
use pscp_core::pool::BatchOptions;

/// Script rows per scenario (one per configuration cycle).
const ROWS: usize = 500;
/// Scenarios per repetition: one batch.
const SCENARIOS: usize = BATCH;
/// Scenarios per `run_batch` call: 8 gangs of 64 lanes, so the two
/// workers balance over several gangs.
const BATCH: usize = 512;

/// Per-row event probabilities.
pub const EVENTS: [(&str, f64); 11] = [
    ("DATA_VALID", 0.5),
    ("X_PULSE", 0.5),
    ("Y_PULSE", 0.5),
    ("PHI_PULSE", 0.05),
    ("X_STEPS", 0.01),
    ("Y_STEPS", 0.01),
    ("PHI_STEPS", 0.01),
    ("GRAB_RELEASE", 0.01),
    ("INIT", 0.05),
    ("ALLRESET", 0.01),
    ("ERROR", 0.005),
];

pub struct Dense;

/// The `scripted_dense` workload.
pub type ScriptedDense = super::sim::Sim<Dense>;

impl SimInputs for Dense {
    type Env = ScriptedEnvironment;

    fn build(cfg: &RunConfig) -> SimSetup<ScriptedEnvironment> {
        let mut rng = SplitMix64::derive(cfg.seed, "scripted_dense");
        let (n, rows) = if cfg.smoke {
            (8, 64)
        } else {
            (SCENARIOS, ROWS)
        };
        let scripts = dense_scripts(&mut rng, n, |_| rows, &EVENTS);
        SimSetup {
            subject: Subject::pickup_head(PscpArch::dual_md16(true)),
            scenarios: n,
            inputs_digest: scripts.digest(),
            env: Box::new(move |i| scripts.env(i)),
            batch: BATCH,
            limits: BatchOptions {
                deadline: u64::MAX,
                max_steps: rows as u64,
            },
            done: Box::new(|_, _, _| false),
            replay: 16,
        }
    }

    fn env_digest(env: &ScriptedEnvironment, h: Fnv) -> Fnv {
        env.port_writes
            .iter()
            .fold(h.u64(env.port_writes.len() as u64), |h, &(a, v, at)| {
                h.u64(u64::from(a)).u64(v as u64).u64(at)
            })
    }
}
