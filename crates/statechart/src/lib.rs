//! Extended-statechart front end for the PSCP codesign flow.
//!
//! Statecharts (Harel, 1987) extend finite state machines with hierarchy
//! (OR-states), concurrency (AND-states) and broadcast events. The PSCP
//! flow (Pyttel/Sedlmeier/Veith, DATE'98) further extends them with
//! external *ports* for events, conditions and data, and with arrival-period
//! timing constraints on events — those extensions are what make a
//! hardware/software implementation possible.
//!
//! This crate provides:
//!
//! * [`model`] — the chart data model: states (basic / OR / AND),
//!   transitions with `trigger[guard]/actions` labels, event / condition /
//!   data-port declarations, and timing constraints.
//! * [`builder`] — a programmatic [`builder::ChartBuilder`] for constructing
//!   charts in Rust code.
//! * [`parse`] — the textual statechart language of the paper (Fig. 2a),
//!   extended with declaration syntax for events, conditions and ports.
//! * [`trigger`] — the boolean trigger/guard expression language
//!   (`INIT or ALLRESET`, `not (X_PULSE or Y_PULSE)`, …).
//! * [`hierarchy`] — structural queries: ancestors, least common ancestor,
//!   orthogonality, scopes.
//! * [`semantics`] — a reference step-semantics executor (configurations,
//!   enabled-transition computation, exit/entry sets, default completion).
//! * [`intern`] — name → id tables resolving environment-supplied event
//!   and condition names without per-lookup scans.
//! * [`encoding`] — exclusivity-set state encoding and the configuration
//!   register (CR) layout used by the SLA and the PSCP hardware.
//! * [`validate`] — static well-formedness checks and the lint pass.
//! * [`diag`] — the stable `SCxxx` diagnostic codes; every entry point
//!   reports through a [`pscp_diag::DiagnosticSink`].
//! * [`pretty`] — pretty-printer emitting the textual format back out.
//!
//! # Example
//!
//! ```
//! use pscp_statechart::parse::parse_chart;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = r#"
//!     event TICK period 100;
//!     orstate Root { contains Off, On; default Off; }
//!     basicstate Off {
//!         transition { target On; label "TICK"; }
//!     }
//!     basicstate On {
//!         transition { target Off; label "TICK"; }
//!     }
//! "#;
//! let chart = parse_chart(src)?;
//! assert_eq!(chart.states().count(), 3);
//! # Ok(())
//! # }
//! ```

pub mod builder;
pub mod diag;
pub mod encoding;
mod error;
pub mod hierarchy;
pub mod intern;
pub mod model;
pub mod parse;
pub mod pretty;
pub mod semantics;
pub mod trigger;
pub mod validate;

pub use builder::ChartBuilder;
pub use model::{
    Chart, ConditionDecl, ConditionId, DataPortDecl, EventDecl, EventId, PortDirection, State,
    StateId, StateKind, Transition, TransitionId,
};
pub use trigger::Expr;
