//! `cosim_plant`: the paper's Fig. 7 co-simulation — the pickup head
//! on the final dual-TEP architecture against the `SmdHead` plant.
//!
//! Each scenario streams one or two seeded moves and runs until the
//! plant has consumed every byte, every motor is idle and the
//! controller is back in `Idle1`. Almost every configuration cycle is
//! idle and the environment does much of the work, which is where the
//! gang's idle fast path pays. Moves are short (1–3 steps per axis,
//! 0–39 in φ): `SimPool` keeps every cycle's report (~120 bytes each),
//! a 3-step move already runs ~17k configuration cycles and a 120-step
//! one ~900k, so longer moves would cost hundreds of megabytes a batch.

use super::sim::{SimInputs, SimSetup};
use crate::record::Fnv;
use crate::rng::SplitMix64;
use crate::runner::RunConfig;
use crate::subject::Subject;
use pscp_core::arch::PscpArch;
use pscp_core::pool::{BatchOptions, BatchOutcome};
use pscp_motors::head::{Move, SmdHead};

/// Scenarios per repetition: two batches.
const SCENARIOS: usize = 2 * BATCH;
/// Scenarios per `run_batch_until` call: 2 workers × 32 lanes.
const BATCH: usize = 64;

pub struct Cosim;

/// The `cosim_plant` workload.
pub type CosimPlant = super::sim::Sim<Cosim>;

impl SimInputs for Cosim {
    type Env = SmdHead;

    fn build(cfg: &RunConfig) -> SimSetup<SmdHead> {
        let subject = Subject::pickup_head(PscpArch::dual_md16(true));
        let idle1 = subject
            .system
            .chart
            .state_by_name("Idle1")
            .expect("pickup head has Idle1");
        let mut rng = SplitMix64::derive(cfg.seed, "cosim_plant");
        let n = if cfg.smoke { 4 } else { SCENARIOS };
        let moves: Vec<Vec<Move>> = (0..n)
            .map(|_| {
                (0..rng.range(1, 3))
                    .map(|_| Move {
                        x: rng.range(1, 4) as u16,
                        y: rng.range(1, 4) as u16,
                        phi: rng.range(0, 40) as u16,
                    })
                    .collect()
            })
            .collect();
        let mut h = Fnv::default().u64(moves.len() as u64);
        for scenario in &moves {
            h = scenario.iter().fold(h.u64(scenario.len() as u64), |h, m| {
                h.u64(u64::from(m.x))
                    .u64(u64::from(m.y))
                    .u64(u64::from(m.phi))
            });
        }
        SimSetup {
            subject,
            scenarios: n,
            inputs_digest: h.hex(),
            env: Box::new(move |i| SmdHead::with_moves(&moves[i])),
            batch: BATCH,
            limits: BatchOptions {
                deadline: u64::MAX,
                max_steps: 2_000_000,
            },
            done: Box::new(move |m, head, _| {
                head.pending_bytes() == 0
                    && head.all_idle()
                    && m.executor().configuration().is_active(idle1)
            }),
            replay: 4,
        }
    }

    fn completed(o: &BatchOutcome<SmdHead>) -> bool {
        o.error.is_none()
            && o.env.pending_bytes() == 0
            && o.env.all_idle()
            && o.env.missed_pulses() == 0
    }

    fn env_digest(env: &SmdHead, h: Fnv) -> Fnv {
        let mut h = h
            .u64(env.missed_pulses() as u64)
            .u64(env.moves_done() as u64)
            .u64(env.stops);
        for &(v, at) in &env.status_writes {
            h = h.u64(v as u64).u64(at);
        }
        h
    }
}
