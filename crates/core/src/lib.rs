//! # mdbs — Execution of Extended Multidatabase SQL
//!
//! The primary contribution of Suardi, Rusinkiewicz & Litwin (ICDE 1993),
//! reproduced in Rust: a loosely coupled federated database system that
//! executes **extended MSQL** against autonomous, heterogeneous local
//! database systems.
//!
//! ## Architecture (paper Figure 1)
//!
//! ```text
//!            MSQL text
//!               │
//!        ┌──────▼──────┐   translate: substitution → disambiguation →
//!        │  TRANSLATOR │   decomposition → DOL plan generation
//!        └──────┬──────┘
//!               │ DOL program
//!        ┌──────▼──────┐
//!        │ DOL ENGINE  │   (crate `dol`)
//!        └┬─────┬─────┬┘
//!     ────▼─────▼─────▼────  simulated network (crate `netsim`)
//!      ┌────┐ ┌────┐ ┌────┐
//!      │LAM1│ │LAM2│ │LAM3│  Local Access Managers (this crate)
//!      └─┬──┘ └─┬──┘ └─┬──┘
//!      ┌─▼──┐ ┌─▼──┐ ┌─▼──┐
//!      │ora.│ │ing.│ │syb.│  local DBMS engines (crate `ldbs`)
//!      └────┘ └────┘ └────┘
//! ```
//!
//! ## What the crate implements
//!
//! * [`federation::Federation`] — the public facade: incorporate services,
//!   import schemas, run MSQL text, inspect outcomes;
//! * [`translate`] — the §4.3 pipeline: multiple-identifier substitution
//!   ([`translate::expand`]), disambiguation
//!   ([`translate::disambiguate`]), query-graph decomposition
//!   ([`translate::decompose`]) and DOL plan generation
//!   ([`translate::plangen`]) with the §3.2 VITAL semantics, §3.3
//!   compensation and §3.4 multitransactions;
//! * [`lam`] / [`lamclient`] — Local Access Managers: server threads wrapping
//!   an [`ldbs::Engine`] behind the simulated network, and the client side
//!   implementing [`dol::DolService`], checked out of each session's
//!   [`conns::ConnCache`];
//! * [`multitable`] — the multitable result type (a *set* of tables, one per
//!   database, as §2 defines) and its wire format;
//! * [`mtx`] — acceptable-termination-state evaluation for
//!   multitransactions;
//! * [`fixtures`] — the paper's appendix schemas (continental / delta /
//!   united / avis / national) with seed data, shared by tests, examples and
//!   benchmarks.
//!
//! ## Quickstart
//!
//! ```
//! use mdbs::fixtures;
//!
//! // Build the paper's five-database federation (3 airlines, 2 car rentals).
//! let mut fed = fixtures::paper_federation();
//!
//! // The §2 example: one multiple query spanning avis and national.
//! let outcome = fed
//!     .execute(
//!         "USE avis national
//!          LET car.type.status BE cars.cartype.carst vehicle.vty.vstat
//!          SELECT %code, type, ~rate FROM car WHERE status = 'available'",
//!     )
//!     .unwrap();
//! let mt = outcome.into_multitable().unwrap();
//! assert_eq!(mt.tables.len(), 2); // a multitable: one table per database
//! ```

pub mod codec;
pub mod conns;
pub mod error;
pub mod executor;
pub mod federation;
pub mod fixtures;
pub mod gtxn;
pub mod lam;
pub mod lamclient;
pub mod merge;
pub mod mtx;
pub mod multitable;
pub mod planner;
pub mod proto;
pub mod retcode;
pub mod retry;
pub mod scope;
pub mod translate;
pub mod wal;
pub mod wire;

pub use codec::WireFormat;
pub use error::MdbsError;
pub use executor::{DbOutcome, MsqlOutcome, MtxReport, UpdateReport};
pub use federation::{Federation, FederationCore, RecoveredMtx, RecoveryReport, Session};
pub use multitable::Multitable;
pub use planner::PlannerContext;
pub use retry::{ExecStats, RetryPolicy, TaskTelemetry};
pub use scope::SessionScope;
pub use wal::{CrashPlan, CrashWhen, Wal};
