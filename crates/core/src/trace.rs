//! The trace database produced by the logger and consumed by the analyzer.

use std::fs;
use std::path::Path;

use eventdb::{DbError, Record, Store, StoreEncoder, StoreView, Table, TableSink};

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
fn get_or_empty<R: Record>(view: &StoreView<'_>) -> Result<Table<R>, DbError> {
    match view.get() {
        Err(DbError::MissingTable(_)) => Ok(Table::default()),
        other => other,
    }
}

impl TraceDb {
    /// Hands every table to `sink`, in file order.
    fn put_tables(&self, sink: &mut impl TableSink) {
        sink.put(&self.ecalls);
        sink.put(&self.ocalls);
        sink.put(&self.aex);
        sink.put(&self.paging);
        sink.put(&self.sync);
        sink.put(&self.enclaves);
        sink.put(&self.symbols);
        sink.put(&self.switchless);
        // Written only when non-empty: fault-free traces stay byte-for-byte
        // identical to those of versions without the chaos harness or the
        // enclave-lost supervisor.
        if !self.faults.is_empty() {
            sink.put(&self.faults);
        }
        if !self.lifecycle.is_empty() {
            sink.put(&self.lifecycle);
        }
        if !self.syncev.is_empty() {
            sink.put(&self.syncev);
        }
        if !self.fleet.is_empty() {
            sink.put(&self.fleet);
        }
    }

    /// Serialises all tables into the container format, in one pass into
    /// one buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = StoreEncoder::new();
        self.put_tables(&mut out);
        out.into_bytes()
    }

    /// Lowers the trace to the generic table container — the form the
    /// crash-consistent segmented writer ([`eventdb::SegmentedWriter`])
    /// appends. Its bytes equal [`TraceDb::to_bytes`].
    pub fn to_store(&self) -> Store {
        let mut store = Store::new();
        self.put_tables(&mut store);
        store
    }

    /// Parses a trace from container bytes, decoding rows in place.
    ///
    /// # Errors
    ///
    /// Corruption or missing tables.
    pub fn from_bytes(data: &[u8]) -> Result<TraceDb, DbError> {
        TraceDb::from_view(&StoreView::from_bytes(data)?)
    }

    /// Parses a trace from a generic table container (e.g. one salvaged
    /// from a segmented recording).
    ///
    /// # Errors
    ///
    /// Corruption or missing tables.
    pub fn from_store(store: &Store) -> Result<TraceDb, DbError> {
        TraceDb::from_view(&store.view())
    }

    /// Decodes every table from a container parsed in place (see
    /// [`StoreView::read`]).
    ///
    /// # Errors
    ///
    /// Corruption or missing tables.
    pub fn from_view(view: &StoreView<'_>) -> Result<TraceDb, DbError> {
        Ok(TraceDb {
            ecalls: view.get()?,
            ocalls: view.get()?,
            aex: view.get()?,
            paging: view.get()?,
            sync: view.get()?,
            enclaves: view.get()?,
            symbols: view.get()?,
            switchless: get_or_empty(view)?,
            faults: get_or_empty(view)?,
            lifecycle: get_or_empty(view)?,
            syncev: get_or_empty(view)?,
            fleet: get_or_empty(view)?,
        })
    }

    /// Writes the trace to a file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), DbError> {
        fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Loads a trace from a file in either layout (see
    /// [`Store::load`]), decoding rows straight from the file buffer.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors and corruption.
    pub fn load(path: impl AsRef<Path>) -> Result<TraceDb, DbError> {
        let data = fs::read(path)?;
        TraceDb::from_view(&StoreView::read(&data)?)
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
