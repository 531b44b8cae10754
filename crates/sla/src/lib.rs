//! The Statechart Logic Array (SLA).
//!
//! "The basic implementation approach extracts the state and transition
//! information of a chart, and generates a statechart Logic Array (SLA),
//! which implements the semantics of the chart, and acts as a scheduler
//! for the transitions." (§2, after \[1\])
//!
//! Per configuration cycle the SLA reads the configuration register —
//! state fields, event bits, condition bits — and produces (Fig. 1):
//!
//! 1. the *fire* signals feeding the Transition Address Table,
//! 2. the reset of the event part of the CR (events live one cycle),
//! 3. the next values of the state fields, under the guard signals
//!    `G0..Gm` that serialise conflicting transitions.
//!
//! Modules:
//!
//! * [`net`] — a small multi-level logic network (AND/OR/NOT over CR
//!   bits) with evaluation, literal counts and depth — the synthesis
//!   target.
//! * [`synth`] — chart + CR layout → SLA logic (fire network with
//!   outer-first priority inhibition, next-state field equations,
//!   transition address table).
//! * [`compiled`] — flattens a synthesised network into an
//!   instruction list evaluated over a reusable scratch buffer (the
//!   hot-path evaluator; `net::LogicNet::eval` stays as the
//!   reference).
//! * [`sim`] — evaluates the synthesised SLA against a CR snapshot;
//!   cross-checked against the reference executor.
//! * [`gang`] — 64-wide bit-sliced evaluation: one `u64` word per net
//!   node, bit `l` = lane `l`, so one pass over the same instruction
//!   list evaluates the SLA for 64 CR snapshots (the software analogue
//!   of the SLA's hardware parallelism). Its one user is the any-fire
//!   probe the benchmark times against [`SlaSim`].
//! * [`blif`] — Berkeley Logic Interchange Format export ("generates a
//!   BLIF description of the SLA").
//! * [`vhdl`] — structural VHDL export ("converted to VHDL, and can be
//!   immediately synthesized").

pub mod blif;
pub mod compiled;
pub mod gang;
pub mod net;
pub mod sim;
pub mod synth;
pub mod vhdl;

pub use compiled::CompiledNet;
pub use gang::{GangNet, GangScratch, GangSim, GANG_WIDTH};
pub use net::{LogicNet, NodeId};
pub use sim::{SlaScratch, SlaSim};
pub use synth::{SlaSynthesis, TransitionAddressTable};
