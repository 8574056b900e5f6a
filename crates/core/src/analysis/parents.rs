//! The flattened call-instance view with direct and indirect parents
//! (Figure 4).
//!
//! *Direct* parents are logged by the event logger: an ecall E is the
//! direct parent of an ocall O iff O was called during E's execution (and
//! vice versa for nested ecalls). *Indirect* parents are derived here: the
//! previous completed call **of the same kind** that belongs to the **same
//! direct parent** (or, for top-level calls, the previous top-level call of
//! the same kind on the same thread).
//!
//! The view is indexed once, when it is built: by source row (for parent
//! lookups) and by call (for per-call statistics and detectors), so no
//! lookup scans the instance list.

use std::collections::HashMap;

use sim_core::CostModel;

use crate::events::{CallKind, CallRef};
use crate::trace::TraceDb;

/// One call occurrence with resolved parent links.
#[derive(Debug, Clone)]
pub struct CallInstance {
    /// Which call this is an instance of.
    pub call: CallRef,
    /// Row id in the source table (`ecalls` or `ocalls` depending on kind).
    pub row: u64,
    /// Issuing thread.
    pub thread: u64,
    /// Start timestamp (ns).
    pub start_ns: u64,
    /// End timestamp (ns).
    pub end_ns: u64,
    /// Raw duration (ns).
    pub duration_ns: u64,
    /// Duration with the transition overhead subtracted for ecalls
    /// (§4.1.2); equals `duration_ns` for ocalls.
    pub adjusted_ns: u64,
    /// Direct parent, as (kind, row id).
    pub direct_parent: Option<(CallKind, u64)>,
    /// Index (into [`Instances::all`]) of the indirect parent.
    pub indirect_parent: Option<usize>,
    /// AEXs observed during this call (ecalls only).
    pub aex_count: u64,
}

/// The instance view over a whole trace.
#[derive(Debug, Default)]
pub struct Instances {
    /// All instances, ordered by start time.
    pub all: Vec<CallInstance>,
    /// Position in [`Instances::all`] of each ecall row, by row id.
    ecall_pos: Vec<usize>,
    /// Position in [`Instances::all`] of each ocall row, by row id.
    ocall_pos: Vec<usize>,
    /// Every distinct call, sorted, with the positions of its instances
    /// in start order.
    calls: Vec<(CallRef, Vec<usize>)>,
}

impl Instances {
    /// Builds the view: merges the ecall and ocall tables, sorts by start
    /// time, indexes it by row and by call and resolves indirect parents.
    pub fn build(trace: &TraceDb, cost: &CostModel) -> Instances {
        let transition = cost.sdk_ecall_overhead().as_nanos();
        let mut all: Vec<CallInstance> = Vec::with_capacity(trace.event_count());
        for (row, e) in trace.ecalls.iter_with_ids() {
            let duration = e.end_ns.saturating_sub(e.start_ns);
            all.push(CallInstance {
                call: CallRef {
                    enclave: e.enclave,
                    kind: CallKind::Ecall,
                    index: e.call_index,
                },
                row: row.0 as u64,
                thread: e.thread,
                start_ns: e.start_ns,
                end_ns: e.end_ns,
                duration_ns: duration,
                adjusted_ns: duration.saturating_sub(transition),
                direct_parent: e.parent_ocall.map(|r| (CallKind::Ocall, r)),
                indirect_parent: None,
                aex_count: e.aex_count,
            });
        }
        for (row, o) in trace.ocalls.iter_with_ids() {
            let duration = o.end_ns.saturating_sub(o.start_ns);
            all.push(CallInstance {
                call: CallRef {
                    enclave: o.enclave,
                    kind: CallKind::Ocall,
                    index: o.call_index,
                },
                row: row.0 as u64,
                thread: o.thread,
                start_ns: o.start_ns,
                end_ns: o.end_ns,
                duration_ns: duration,
                adjusted_ns: duration,
                direct_parent: o.parent_ecall.map(|r| (CallKind::Ecall, r)),
                indirect_parent: None,
                aex_count: 0,
            });
        }
        // Each table is usually already in start order, and the stable sort
        // merges such runs in linear time. (kind, row) is unique, so any
        // sort gives this order.
        all.sort_by_key(|i| (i.start_ns, i.call.kind, i.row));

        let mut ecall_pos = vec![0; trace.ecalls.len()];
        let mut ocall_pos = vec![0; trace.ocalls.len()];
        let mut ids = CallIds::default();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (pos, i) in all.iter().enumerate() {
            match i.call.kind {
                CallKind::Ecall => ecall_pos[i.row as usize] = pos,
                CallKind::Ocall => ocall_pos[i.row as usize] = pos,
            }
            let id = ids.id(i.call);
            if id == groups.len() {
                groups.push(Vec::new());
            }
            groups[id].push(pos);
        }
        let mut calls: Vec<(CallRef, Vec<usize>)> = ids.calls.into_iter().zip(groups).collect();
        calls.sort_unstable_by_key(|(call, _)| *call);

        let mut instances = Instances {
            all,
            ecall_pos,
            ocall_pos,
            calls,
        };
        instances.link_indirect_parents();
        instances
    }

    /// Indirect parents: within each (thread, direct-parent, kind) group,
    /// link each call to the previous one (Figure 4).
    ///
    /// Top-level calls go through a small map keyed by (thread, kind). A
    /// parent's children all have the kind opposite to it, so a slot per
    /// parent position holds the last child of the first thread seen under
    /// that parent. Children on another thread (a switchless worker need
    /// not run on its caller's thread) and children of a row missing from
    /// the trace go through a second map.
    fn link_indirect_parents(&mut self) {
        let mut slots: Vec<Option<(u64, usize)>> = vec![None; self.all.len()];
        let mut top_level: HashMap<(u64, CallKind), usize> = HashMap::new();
        let mut others: HashMap<(u64, CallKind, u64), usize> = HashMap::new();
        for idx in 0..self.all.len() {
            let inst = &self.all[idx];
            let prev = match inst.direct_parent {
                None => top_level.insert((inst.thread, inst.call.kind), idx),
                Some((kind, row)) => match self.position(kind, row).map(|p| &mut slots[p]) {
                    Some(slot @ None) => {
                        *slot = Some((inst.thread, idx));
                        None
                    }
                    Some(Some((thread, last))) if *thread == inst.thread => {
                        Some(std::mem::replace(last, idx))
                    }
                    _ => others.insert((inst.thread, kind, row), idx),
                },
            };
            self.all[idx].indirect_parent = prev;
        }
    }

    /// Position in [`Instances::all`] of a source (kind, row id), if the
    /// row exists.
    fn position(&self, kind: CallKind, row: u64) -> Option<usize> {
        let table = match kind {
            CallKind::Ecall => &self.ecall_pos,
            CallKind::Ocall => &self.ocall_pos,
        };
        usize::try_from(row)
            .ok()
            .and_then(|r| table.get(r))
            .copied()
    }

    /// Looks up an instance by its source (kind, row id).
    pub fn by_row(&self, kind: CallKind, row: u64) -> Option<&CallInstance> {
        self.position(kind, row).map(|p| &self.all[p])
    }

    /// All instances of one call, in start order.
    pub fn of_call(&self, call: CallRef) -> impl Iterator<Item = &CallInstance> {
        let positions = match self.calls.binary_search_by_key(&call, |(c, _)| *c) {
            Ok(i) => &self.calls[i].1[..],
            Err(_) => &[],
        };
        positions.iter().map(|&p| &self.all[p])
    }

    /// Every distinct call, sorted, with its instances in start order.
    pub fn per_call(
        &self,
    ) -> impl Iterator<Item = (CallRef, impl Iterator<Item = &CallInstance> + '_)> {
        self.calls
            .iter()
            .map(|(call, positions)| (*call, positions.iter().map(|&p| &self.all[p])))
    }

    /// Distinct calls present in the trace, sorted.
    pub fn distinct_calls(&self) -> Vec<CallRef> {
        self.calls.iter().map(|(call, _)| *call).collect()
    }
}

/// Dense ids for calls, in first-seen order. A run of rows of the same
/// call, common in loops, is looked up once.
#[derive(Debug, Default)]
pub(crate) struct CallIds {
    ids: HashMap<CallRef, usize>,
    /// The calls, by id.
    pub(crate) calls: Vec<CallRef>,
    last: Option<(CallRef, usize)>,
}

impl CallIds {
    /// The id of `call`, assigning the next one if it is new.
    pub(crate) fn id(&mut self, call: CallRef) -> usize {
        if let Some((last, id)) = self.last {
            if last == call {
                return id;
            }
        }
        let next = self.calls.len();
        let id = *self.ids.entry(call).or_insert(next);
        if id == next {
            self.calls.push(call);
        }
        self.last = Some((call, id));
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{EcallRow, OcallRow};
    use sim_core::HwProfile;

    fn ecall(thread: u64, idx: u32, start: u64, end: u64, parent: Option<u64>) -> EcallRow {
        EcallRow {
            thread,
            enclave: 1,
            call_index: idx,
            start_ns: start,
            end_ns: end,
            parent_ocall: parent,
            aex_count: 0,
            failed: false,
        }
    }

    fn ocall(thread: u64, idx: u32, start: u64, end: u64, parent: Option<u64>) -> OcallRow {
        OcallRow {
            thread,
            enclave: 1,
            call_index: idx,
            start_ns: start,
            end_ns: end,
            parent_ecall: parent,
            failed: false,
        }
    }

    fn build(trace: &TraceDb) -> Instances {
        Instances::build(trace, &HwProfile::Unpatched.cost_model())
    }

    /// Figure 4 case (1): successive top-level ecalls chain as indirect
    /// parents.
    #[test]
    fn fig4_case1_successive_ecalls() {
        let mut trace = TraceDb::default();
        trace.ecalls.insert(ecall(0, 0, 0, 10, None)); // E1
        trace.ecalls.insert(ecall(0, 0, 20, 30, None)); // E2
        trace.ecalls.insert(ecall(0, 0, 40, 50, None)); // E3
        let inst = build(&trace);
        assert_eq!(inst.all[0].indirect_parent, None);
        assert_eq!(inst.all[1].indirect_parent, Some(0));
        assert_eq!(inst.all[2].indirect_parent, Some(1));
    }

    /// Figure 4 case (2): two ocalls inside the same ecall — the second's
    /// indirect parent is the first.
    #[test]
    fn fig4_case2_sibling_ocalls() {
        let mut trace = TraceDb::default();
        trace.ecalls.insert(ecall(0, 0, 0, 100, None)); // E1, row 0
        trace.ocalls.insert(ocall(0, 0, 10, 20, Some(0))); // O2
        trace.ocalls.insert(ocall(0, 0, 30, 40, Some(0))); // O3
        let inst = build(&trace);
        let o2 = inst.by_row(CallKind::Ocall, 0).unwrap();
        let o3 = inst.by_row(CallKind::Ocall, 1).unwrap();
        assert_eq!(o2.indirect_parent, None);
        let o2_idx = inst
            .all
            .iter()
            .position(|i| i.call.kind == CallKind::Ocall && i.row == 0)
            .unwrap();
        assert_eq!(o3.indirect_parent, Some(o2_idx));
    }

    /// Figure 4 case (3): E1 → O2 → E3 (each nested in the previous): no
    /// indirect parents anywhere.
    #[test]
    fn fig4_case3_nested_chain() {
        let mut trace = TraceDb::default();
        trace.ecalls.insert(ecall(0, 0, 0, 100, None)); // E1, ecall row 0
        trace.ocalls.insert(ocall(0, 0, 10, 90, Some(0))); // O2, ocall row 0
        trace.ecalls.insert(ecall(0, 1, 20, 80, Some(0))); // E3 nested in O2
        let inst = build(&trace);
        for i in &inst.all {
            assert_eq!(i.indirect_parent, None, "{i:?}");
        }
    }

    /// Figure 4 case (4): E1, O2 (inside E1), E3 top-level: E3's indirect
    /// parent is E1, skipping the different-kind O2.
    #[test]
    fn fig4_case4_skips_different_kind() {
        let mut trace = TraceDb::default();
        trace.ecalls.insert(ecall(0, 0, 0, 50, None)); // E1
        trace.ocalls.insert(ocall(0, 0, 10, 20, Some(0))); // O2 inside E1
        trace.ecalls.insert(ecall(0, 0, 60, 90, None)); // E3
        let inst = build(&trace);
        let e3 = inst.by_row(CallKind::Ecall, 1).unwrap();
        let e1_idx = inst
            .all
            .iter()
            .position(|i| i.call.kind == CallKind::Ecall && i.row == 0)
            .unwrap();
        assert_eq!(e3.indirect_parent, Some(e1_idx));
    }

    /// Calls on different threads never link.
    #[test]
    fn threads_are_independent() {
        let mut trace = TraceDb::default();
        trace.ecalls.insert(ecall(0, 0, 0, 10, None));
        trace.ecalls.insert(ecall(1, 0, 20, 30, None));
        let inst = build(&trace);
        assert_eq!(inst.all[1].indirect_parent, None);
    }

    #[test]
    fn ecall_durations_are_transition_adjusted() {
        let mut trace = TraceDb::default();
        trace.ecalls.insert(ecall(0, 0, 0, 10_000, None));
        trace.ocalls.insert(ocall(0, 0, 0, 10_000, None));
        let inst = build(&trace);
        let e = inst.by_row(CallKind::Ecall, 0).unwrap();
        let o = inst.by_row(CallKind::Ocall, 0).unwrap();
        assert_eq!(e.duration_ns, 10_000);
        assert_eq!(e.adjusted_ns, 10_000 - 4_205);
        assert_eq!(o.adjusted_ns, 10_000);
    }

    #[test]
    fn distinct_calls_sorted_and_deduped() {
        let mut trace = TraceDb::default();
        trace.ecalls.insert(ecall(0, 1, 0, 1, None));
        trace.ecalls.insert(ecall(0, 0, 2, 3, None));
        trace.ecalls.insert(ecall(0, 1, 4, 5, None));
        let inst = build(&trace);
        let calls = inst.distinct_calls();
        assert_eq!(calls.len(), 2);
        assert!(calls[0].index < calls[1].index);
    }

    /// A parent row missing from the trace (or past any table's end) is
    /// not an instance: `by_row` gives `None`, and the children still
    /// chain as indirect parents of each other.
    #[test]
    fn dangling_parent_rows_resolve_to_none() {
        let mut trace = TraceDb::default();
        trace.ecalls.insert(ecall(0, 0, 0, 100, Some(5))); // ocall row 5: missing
        trace.ocalls.insert(ocall(0, 0, 10, 20, Some(9))); // ecall row 9: missing
        trace.ocalls.insert(ocall(0, 0, 30, 40, Some(9)));
        let inst = build(&trace);
        assert!(inst.by_row(CallKind::Ocall, 5).is_none());
        assert!(inst.by_row(CallKind::Ecall, 9).is_none());
        assert!(inst.by_row(CallKind::Ecall, u64::MAX).is_none());
        let o1 = inst.by_row(CallKind::Ocall, 1).unwrap();
        let o0_idx = inst
            .all
            .iter()
            .position(|i| i.call.kind == CallKind::Ocall && i.row == 0)
            .unwrap();
        assert_eq!(o1.indirect_parent, Some(o0_idx));
    }
}
