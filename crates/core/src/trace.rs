//! The trace database produced by the logger and consumed by the analyzer.

use std::path::Path;

use eventdb::{DbError, Record, Store, Table};

use crate::events::{
    AexRow, EcallRow, EnclaveRow, FaultRow, FleetRow, LifecycleRow, OcallRow, PagingRow,
    SwitchlessRow, SymbolRow, SyncEvRow, SyncRow,
};

/// A complete sgx-perf trace: every table the logger records, serialisable
/// to a single file (the SQLite stand-in — §4).
///
/// # Examples
///
/// ```
/// use sgx_perf::TraceDb;
///
/// let trace = TraceDb::default();
/// let bytes = trace.to_bytes();
/// let back = TraceDb::from_bytes(&bytes)?;
/// assert_eq!(back.ecalls.len(), 0);
/// # Ok::<(), eventdb::DbError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceDb {
    /// Completed ecalls.
    pub ecalls: Table<EcallRow>,
    /// Completed ocalls.
    pub ocalls: Table<OcallRow>,
    /// Traced AEXs (only under [`AexMode::Trace`](crate::AexMode::Trace)).
    pub aex: Table<AexRow>,
    /// EPC paging events.
    pub paging: Table<PagingRow>,
    /// Sleep/wake classification of sync ocalls.
    pub sync: Table<SyncRow>,
    /// Observed enclaves.
    pub enclaves: Table<EnclaveRow>,
    /// Interface symbols.
    pub symbols: Table<SymbolRow>,
    /// Switchless-subsystem events (dispatches, fallbacks, worker state).
    pub switchless: Table<SwitchlessRow>,
    /// Injected faults and SDK recovery steps (the chaos harness).
    pub faults: Table<FaultRow>,
    /// Enclave losses and supervisor recovery steps.
    pub lifecycle: Table<LifecycleRow>,
    /// Synchronisation events (locks, condvars, threads, rings, shared
    /// cells) for the `sgxperf races` analyses.
    pub syncev: Table<SyncEvRow>,
    /// Per-slot fleet summaries (only fleet workloads write this).
    pub fleet: Table<FleetRow>,
}

/// Reads a table, treating its absence as empty — traces written before the
/// table existed stay loadable.
fn get_or_empty<R: Record>(store: &Store) -> Result<Table<R>, DbError> {
    match store.get() {
        Err(DbError::MissingTable(_)) => Ok(Table::default()),
        other => other,
    }
}

impl TraceDb {
    /// Serialises all tables into the container format.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_store().to_bytes()
    }

    /// Lowers the trace to the generic table container — the form both the
    /// monolithic writer ([`save`](TraceDb::save)) and the crash-consistent
    /// segmented writer ([`eventdb::SegmentedWriter`]) serialise.
    pub fn to_store(&self) -> Store {
        let mut store = Store::new();
        store.put(&self.ecalls);
        store.put(&self.ocalls);
        store.put(&self.aex);
        store.put(&self.paging);
        store.put(&self.sync);
        store.put(&self.enclaves);
        store.put(&self.symbols);
        store.put(&self.switchless);
        // Written only when non-empty: fault-free traces stay byte-for-byte
        // identical to those of versions without the chaos harness or the
        // enclave-lost supervisor.
        if !self.faults.is_empty() {
            store.put(&self.faults);
        }
        if !self.lifecycle.is_empty() {
            store.put(&self.lifecycle);
        }
        if !self.syncev.is_empty() {
            store.put(&self.syncev);
        }
        if !self.fleet.is_empty() {
            store.put(&self.fleet);
        }
        store
    }

    /// Parses a trace from container bytes.
    ///
    /// # Errors
    ///
    /// Corruption or missing tables.
    pub fn from_bytes(data: &[u8]) -> Result<TraceDb, DbError> {
        let store = Store::from_bytes(data)?;
        TraceDb::from_store(&store)
    }

    /// Parses a trace from a generic table container (e.g. one salvaged
    /// from a segmented recording).
    ///
    /// # Errors
    ///
    /// Corruption or missing tables.
    pub fn from_store(store: &Store) -> Result<TraceDb, DbError> {
        Ok(TraceDb {
            ecalls: store.get()?,
            ocalls: store.get()?,
            aex: store.get()?,
            paging: store.get()?,
            sync: store.get()?,
            enclaves: store.get()?,
            symbols: store.get()?,
            switchless: get_or_empty(store)?,
            faults: get_or_empty(store)?,
            lifecycle: get_or_empty(store)?,
            syncev: get_or_empty(store)?,
            fleet: get_or_empty(store)?,
        })
    }

    /// Writes the trace to a file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), DbError> {
        self.to_store().save(path)
    }

    /// Loads a trace from a file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors and corruption.
    pub fn load(path: impl AsRef<Path>) -> Result<TraceDb, DbError> {
        let store = Store::load(path)?;
        TraceDb::from_store(&store)
    }

    /// Total recorded call events (ecalls + ocalls).
    pub fn event_count(&self) -> usize {
        self.ecalls.len() + self.ocalls.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_with_rows() {
        let mut trace = TraceDb::default();
        trace.ecalls.insert(EcallRow {
            thread: 0,
            enclave: 1,
            call_index: 0,
            start_ns: 100,
            end_ns: 200,
            parent_ocall: None,
            aex_count: 0,
            failed: false,
        });
        trace.paging.insert(PagingRow {
            enclave: 1,
            out: true,
            vaddr: 0x1000,
            time_ns: 150,
        });
        let back = TraceDb::from_bytes(&trace.to_bytes()).unwrap();
        assert_eq!(back.ecalls.len(), 1);
        assert_eq!(back.paging.len(), 1);
        assert_eq!(back.event_count(), 1);
    }

    #[test]
    fn switchless_rows_roundtrip() {
        let mut trace = TraceDb::default();
        trace.switchless.insert(SwitchlessRow {
            thread: 1,
            enclave: 1,
            kind: 1,
            call_index: Some(0),
            worker: Some(0),
            spins: 3,
            time_ns: 42,
        });
        let back = TraceDb::from_bytes(&trace.to_bytes()).unwrap();
        assert_eq!(back.switchless.len(), 1);
    }

    #[test]
    fn traces_without_a_switchless_table_still_load() {
        // A store written before the switchless table existed.
        let mut store = Store::new();
        let t = TraceDb::default();
        store.put(&t.ecalls);
        store.put(&t.ocalls);
        store.put(&t.aex);
        store.put(&t.paging);
        store.put(&t.sync);
        store.put(&t.enclaves);
        store.put(&t.symbols);
        let back = TraceDb::from_bytes(&store.to_bytes()).unwrap();
        assert_eq!(back.switchless.len(), 0);
        assert_eq!(back.faults.len(), 0);
        assert_eq!(back.lifecycle.len(), 0);
    }

    #[test]
    fn fault_free_traces_serialise_without_a_fault_table() {
        // Byte-compatibility contract: a trace with no fault rows writes
        // the same store as a pre-chaos-harness version...
        let trace = TraceDb::default();
        let mut old_style = Store::new();
        old_style.put(&trace.ecalls);
        old_style.put(&trace.ocalls);
        old_style.put(&trace.aex);
        old_style.put(&trace.paging);
        old_style.put(&trace.sync);
        old_style.put(&trace.enclaves);
        old_style.put(&trace.symbols);
        old_style.put(&trace.switchless);
        assert_eq!(trace.to_bytes(), old_style.to_bytes());
        // ...while fault rows round-trip once present.
        let mut faulted = TraceDb::default();
        faulted.faults.insert(FaultRow {
            thread: 1,
            enclave: 1,
            fault: 0,
            action: 0,
            call_index: None,
            magnitude: 6,
            time_ns: 7,
        });
        let back = TraceDb::from_bytes(&faulted.to_bytes()).unwrap();
        assert_eq!(back.faults.len(), 1);
    }

    #[test]
    fn recovery_free_traces_serialise_without_a_lifecycle_table() {
        // Byte-compatibility contract: a run that never loses its enclave
        // writes the same store as a pre-supervisor version...
        let trace = TraceDb::default();
        let mut old_style = Store::new();
        old_style.put(&trace.ecalls);
        old_style.put(&trace.ocalls);
        old_style.put(&trace.aex);
        old_style.put(&trace.paging);
        old_style.put(&trace.sync);
        old_style.put(&trace.enclaves);
        old_style.put(&trace.symbols);
        old_style.put(&trace.switchless);
        assert_eq!(trace.to_bytes(), old_style.to_bytes());
        // ...while lifecycle rows round-trip once present.
        let mut recovered = TraceDb::default();
        recovered.lifecycle.insert(LifecycleRow {
            enclave: 1,
            stage: 0,
            thread: 2,
            attempt: 0,
            magnitude: 0,
            time_ns: 9,
        });
        let back = TraceDb::from_bytes(&recovered.to_bytes()).unwrap();
        assert_eq!(back.lifecycle.len(), 1);
    }

    #[test]
    fn sync_free_traces_serialise_without_a_syncev_table() {
        // Byte-compatibility contract: a run with sync-event tracking off
        // (the default) writes the same store as a pre-races version...
        let trace = TraceDb::default();
        let mut old_style = Store::new();
        old_style.put(&trace.ecalls);
        old_style.put(&trace.ocalls);
        old_style.put(&trace.aex);
        old_style.put(&trace.paging);
        old_style.put(&trace.sync);
        old_style.put(&trace.enclaves);
        old_style.put(&trace.symbols);
        old_style.put(&trace.switchless);
        assert_eq!(trace.to_bytes(), old_style.to_bytes());
        // ...while sync events round-trip once present.
        let mut synced = TraceDb::default();
        synced.syncev.insert(SyncEvRow {
            thread: 0,
            op: 0,
            object: Some(1),
            target: None,
            aux: 0,
            label: "m".into(),
            time_ns: 11,
        });
        let back = TraceDb::from_bytes(&synced.to_bytes()).unwrap();
        assert_eq!(back.syncev.len(), 1);
    }

    #[test]
    fn fleet_free_traces_serialise_without_a_fleet_table() {
        // Byte-compatibility contract: single-enclave workloads write the
        // same store as pre-fleet versions...
        let trace = TraceDb::default();
        let mut old_style = Store::new();
        old_style.put(&trace.ecalls);
        old_style.put(&trace.ocalls);
        old_style.put(&trace.aex);
        old_style.put(&trace.paging);
        old_style.put(&trace.sync);
        old_style.put(&trace.enclaves);
        old_style.put(&trace.symbols);
        old_style.put(&trace.switchless);
        assert_eq!(trace.to_bytes(), old_style.to_bytes());
        // ...while fleet rows round-trip once present.
        let mut fleet = TraceDb::default();
        fleet.fleet.insert(FleetRow {
            slot: 4,
            spin_ups: 1,
            restarts: 0,
            requests: 10,
            completed: 10,
            shed: 0,
            failed: 0,
            p50_ns: 100,
            p99_ns: 200,
            page_ins: 3,
            page_outs: 1,
        });
        let back = TraceDb::from_bytes(&fleet.to_bytes()).unwrap();
        assert_eq!(back.fleet.len(), 1);
        assert_eq!(back.fleet.iter().next().unwrap().slot, 4);
    }

    #[test]
    fn file_roundtrip() {
        let dir = eventdb::ScratchDir::new("sgx-perf-test");
        let path = dir.join("trace.evdb");
        let trace = TraceDb::default();
        trace.save(&path).unwrap();
        let back = TraceDb::load(&path).unwrap();
        assert_eq!(back.event_count(), 0);
    }
}
