//! PSCP — the Parallel StateChart Processor codesign core.
//!
//! This crate is the paper's primary contribution: a scalable parallel
//! ASIP for reactive systems plus the codesign flow that sizes it.
//!
//! * [`arch`] — the PSCP architecture description: number of TEPs, TEP
//!   configuration, CR encoding style, mutual-exclusion classes.
//! * [`library`] — the component library with its space/time trade-offs
//!   ("a spectrum of space/time trade-off alternatives", abstract).
//! * [`compile`] — the end-to-end flow: textual chart + extended-C
//!   actions → encoded CR, synthesised SLA, transition-selection
//!   tables, compiled TEP program, transition bindings. The
//!   chart-derived parts are built once per chart and encoding and
//!   shared by every system compiled from them.
//! * [`machine`] — the full-system cycle-level simulator: scheduler,
//!   configuration register, condition caches, round-robin TEP dispatch
//!   (§3.1); every machine runs on its system's selection tables.
//! * [`timing`] — the heuristic static timing validation of §4:
//!   parallel-sibling upper bounds, event-cycle DFS, constraint checks
//!   (Tables 2 and 3).
//! * [`optimize`] — the iterative architecture/instruction improvement
//!   loop of §4, applied "in increasing order of difficulty" (Table 4),
//!   evaluating only the candidate that order applies next.
//! * [`pool`] — the batched multi-scenario co-simulation driver:
//!   [`SimPool`] runs independent scenarios of one compiled system
//!   across `PSCP_THREADS` workers, each on one scalar machine,
//!   byte-identical to the sequential run.
//! * [`serve`] — the sharded scenario server: streams scripted
//!   scenarios over a versioned binary TCP protocol with credit-based
//!   backpressure, byte-identical to an in-process
//!   [`SimPool`] run.
//! * [`explore`](mod@explore) — exhaustive state-space exploration:
//!   breadth-first reachability over (configuration × CR × storage)
//!   semantic states with canonical-key dedup, deadlock/unreachability
//!   reporting and bounded safety predicates with replayable minimal
//!   counterexamples; expansion rides the pool's worker loop on one
//!   scalar machine per worker and is byte-identical across worker
//!   counts.
//! * [`area`] — PSCP area accounting on the FPGA substrate, with a
//!   block breakdown for the floorplanner (Fig. 8).
//! * [`report`] — plain-text table rendering for the experiment
//!   harness.
//! * [`obs`] — re-export of `pscp-obs`: gated metrics, span tracing
//!   with Chrome `trace_event` export, and VCD waveform capture
//!   (`PSCP_OBS=metrics,trace,vcd`; everything off — and the hot path
//!   allocation-free — by default).

pub mod arch;
pub mod area;
pub mod compile;
pub mod diag;
pub mod explore;
pub mod library;
pub mod machine;
pub mod optimize;
pub mod pool;
pub mod report;
pub mod serve;
pub mod timing;

pub use pscp_obs as obs;

pub use arch::PscpArch;
pub use compile::{
    compile_system, compile_system_from_ir, compile_system_with, CompiledSystem, SystemArtifacts,
};
pub use explore::{explore, ExploreOptions, ExploreReport};
pub use machine::PscpMachine;
pub use pool::{BatchOptions, BatchOutcome, SimPool};
pub use serve::{ScenarioClient, ServeOptions, ServerHandle};
pub use timing::{
    validate_timing, validate_timing_full, EventCycle, TimingEval, TimingGraph,
    TimingReport,
};
