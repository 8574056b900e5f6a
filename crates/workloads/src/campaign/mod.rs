//! Campaign workloads: the registry of workloads a campaign spec can
//! name, and the [`matrix`] runner that executes a spec's cells.
//!
//! Every run in this repo is deterministic — the whole simulation lives on
//! one virtual clock and (since the coroutine engine) one OS thread — so a
//! campaign is embarrassingly parallel: each cell is a pure function of
//! its coordinates, its output path is a pure function of the same
//! coordinates, and the merged summary is ordered by cell index, making
//! the campaign's *entire* output byte-stable no matter how many workers
//! ran it or how they interleaved.

pub mod matrix;

use crate::stressors::{self, Stressor};

/// A campaign-runnable workload. Each produces serialised trace bytes
/// from (profile, fault plan, seed) alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Classic-path fixture (SISC, SNC, paging) via [`chaos`](crate::chaos).
    Antipatterns,
    /// Switchless request server via [`chaos`](crate::chaos).
    Switchless,
    /// Supervised server with mid-run enclave loss.
    Supervisor,
    /// Race fixture with the sync-event channel enabled.
    Racy,
    /// Fleet scenario at unit-test scale.
    Fleet,
    /// A dedicated single-axis stressor (see [`stressors`]).
    Stress(Stressor),
    /// A test-only fault fixture (see [`stressors::FaultFixture`]):
    /// resolvable by name for supervision tests, but excluded from
    /// [`Workload::ALL`] so default campaigns stay healthy.
    Fixture(stressors::FaultFixture),
}

impl Workload {
    /// Every campaign-runnable workload.
    pub const ALL: [Workload; 9] = [
        Workload::Antipatterns,
        Workload::Switchless,
        Workload::Supervisor,
        Workload::Racy,
        Workload::Fleet,
        Workload::Stress(Stressor::EpcThrash),
        Workload::Stress(Stressor::EcallStorm),
        Workload::Stress(Stressor::IoFsyncLoop),
        Workload::Stress(Stressor::CpuCompute),
    ];

    /// Filename-safe label.
    pub fn label(self) -> &'static str {
        match self {
            Workload::Antipatterns => "antipatterns",
            Workload::Switchless => "switchless",
            Workload::Supervisor => "supervisor",
            Workload::Racy => "racy",
            Workload::Fleet => "fleet",
            Workload::Stress(s) => s.label(),
            Workload::Fixture(f) => f.label(),
        }
    }

    /// Parses a workload name as written in campaign specs and CLI flags
    /// — the inverse of [`Workload::label`]. Fault fixtures resolve here
    /// too, even though they are not in [`Workload::ALL`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL
            .into_iter()
            .find(|w| w.label() == name)
            .or_else(|| stressors::FaultFixture::parse(name).map(Workload::Fixture))
    }
}
