//! Simulation substrate primitives shared by every crate in the workspace.
//!
//! The sgx-perf reproduction runs entirely on *virtual time*: no experiment
//! ever consults the host clock. This crate provides
//!
//! * [`Nanos`] / [`Cycles`] — strongly-typed time and cycle quantities,
//! * [`Clock`] — a shareable, monotonically advancing virtual clock,
//! * [`HwProfile`] / [`CostModel`] — the hardware cost tables (unpatched,
//!   Spectre-patched, fully patched incl. Foreshadow/L1TF) calibrated with
//!   the measurements reported in §2.3.1 and Table 2 of the paper,
//! * [`rng`] — seeded deterministic random number helpers,
//! * [`stats`] — the nearest-rank percentile every latency summary uses,
//! * [`fault`] — seeded, schedulable fault plans ([`FaultPlan`]) and the
//!   deterministic injector the stack's chaos hooks poll.
//!
//! # Examples
//!
//! ```
//! use sim_core::{Clock, Nanos, HwProfile};
//!
//! let clock = Clock::new();
//! clock.advance(Nanos::from_micros(3));
//! assert_eq!(clock.now(), Nanos::from_nanos(3_000));
//!
//! let cost = HwProfile::Unpatched.cost_model();
//! assert_eq!(cost.transition_roundtrip(), Nanos::from_nanos(2_130));
//! ```

pub mod campaign;
pub mod clock;
pub mod fault;
pub mod hw;
pub mod lifecycle;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod syncev;
pub mod time;

pub use campaign::{CampaignSpec, CellCoord, SpecError, SwitchlessAxis};
pub use clock::Clock;
pub use fault::{FaultAction, FaultEvent, FaultInjector, FaultObserver, FaultPlan};
pub use hw::{CostModel, HwProfile};
pub use lifecycle::{LifecycleEvent, LifecycleObserver, LifecycleStage};
pub use syncev::{Shared, SyncBus, SyncEvent, SyncObserver, SyncOp};
pub use time::{Cycles, Nanos};
