//! The layer ledger: each layer's public entry points timed in isolation,
//! one span per loop, so every per-layer rate comes from span durations
//! and unit counts. It runs in the traced run of every workload; the
//! `work` argument scales every loop (1.0 for the benchmark, small for
//! tests).

use std::sync::Arc;

use sgx_fleet::percentile;
use sgx_perf::{Logger, LoggerConfig};
use sgx_sdk::{CallData, OcallTable, OcallTableBuilder, Runtime, SwitchlessConfig, ThreadCtx};
use sgx_sim::{AccessKind, EnclaveConfig, EnclaveId, Machine, MachineParams, ThreadToken};
use sim_core::{Clock, HwProfile};
use sim_threads::{Engine, Simulation};
use workloads::campaign::matrix;
use workloads::talos::{self, TalosConfig};
use workloads::{fleet, switchless_loop, Harness};

use crate::measure::{median, Scratch};
use crate::pipeline;
use crate::spans::{totals, Span, Tracer};
use crate::workloads::campaign_plan;

const EDL: &str = "enclave {
    trusted {
        public void ecall_empty();
        public void ecall_ocall();
        public void ecall_ocalls(uint64_t n);
    };
    untrusted { void ocall_empty(); };
};";

/// Interleaved slices of the bare and logged call loops per round.
const SLICES: u64 = 4;

/// Ocalls per ecall in the switchless loop.
const SWITCHLESS_BURST: u64 = 8;

/// EPC pages of the paging machine; the swept heap is twice as large.
const SWAP_EPC_PAGES: usize = 256;

/// Rounds of every layer loop; each metric is the median over rounds, so
/// a slow stretch of the host spoils one round, not the metric.
const ROUNDS: usize = 5;

fn count(base: u64, work: f64) -> u64 {
    ((base as f64 * work) as u64).max(2)
}

/// An enclave with empty ecalls and one empty ocall, no logger unless the
/// caller attaches one.
struct Bench {
    rt: Arc<Runtime>,
    eid: EnclaveId,
    table: Arc<OcallTable>,
}

impl Bench {
    fn new() -> Bench {
        let machine = Arc::new(Machine::new(Clock::new(), HwProfile::Unpatched));
        let rt = Runtime::new(machine);
        let spec = sgx_edl::parse(EDL).expect("ledger EDL parses");
        let enclave = rt
            .create_enclave(&spec, &EnclaveConfig::default())
            .expect("ledger enclave");
        let ok = "register ledger call";
        enclave
            .register_ecall("ecall_empty", |_, _| Ok(()))
            .expect(ok);
        enclave
            .register_ecall("ecall_ocall", |ctx, _| {
                ctx.ocall("ocall_empty", &mut CallData::default())
            })
            .expect(ok);
        enclave
            .register_ecall("ecall_ocalls", |ctx, data| {
                for _ in 0..data.scalar {
                    ctx.ocall("ocall_empty", &mut CallData::default())?;
                }
                Ok(())
            })
            .expect(ok);
        let mut builder = OcallTableBuilder::new(enclave.spec());
        builder.register("ocall_empty", |_, _| Ok(())).expect(ok);
        Bench {
            eid: enclave.id(),
            rt,
            table: Arc::new(builder.build().expect("ledger ocall table")),
        }
    }

    fn calls(&self, tr: &Tracer, span: &'static str, name: &str, n: u64) {
        let tcx = ThreadCtx::main();
        tr.span(span, n, || {
            for _ in 0..n {
                self.rt
                    .ecall(&tcx, self.eid, name, &self.table, &mut CallData::default())
                    .expect("ledger ecall");
            }
        });
    }
}

/// Runs every layer loop under `tr` (which must be enabled).
pub fn run(tr: &Tracer, scratch: &Scratch, work: f64) {
    let dir = scratch.fresh("ledger-share");
    let round = work / ROUNDS as f64;
    for _ in 0..ROUNDS {
        sim_threads_loops(tr, round);
        sgx_sim_loops(tr, round);
        let edl_n = count(20_000, round);
        tr.span("ledger.sgx-edl.parse", edl_n, || {
            for _ in 0..edl_n {
                std::hint::black_box(sgx_edl::parse(fleet::EDL).expect("fleet EDL parses"));
            }
        });
        sdk_and_logger_loops(tr, round);
        logger_shares(tr, &dir, work);
    }
    campaign_loops(tr, scratch, work);
}

fn sim_threads_loops(tr: &Tracer, work: f64) {
    let n = count(200_000, work);
    let sim = Simulation::new(Clock::new());
    for name in ["ping", "pong"] {
        sim.spawn(name, move |ctx| {
            for _ in 0..n {
                ctx.yield_now();
            }
        });
    }
    tr.span("ledger.sim-threads.switch", 2 * n, || sim.run());

    let threads = 200;
    let sims = count(50, work);
    tr.span("ledger.sim-threads.spawn", threads * sims, || {
        for _ in 0..sims {
            let sim = Simulation::new(Clock::new());
            for _ in 0..threads {
                sim.spawn("empty", |_| {});
            }
            sim.run();
        }
    });
}

fn sgx_sim_loops(tr: &Tracer, work: f64) {
    let machine = Machine::new(Clock::new(), HwProfile::Unpatched);
    let config = fleet::enclave_config();
    let n = count(5_000, work);
    tr.span("ledger.sgx-sim.create_enclave", n, || {
        for _ in 0..n {
            let eid = machine.create_enclave(&config).expect("create enclave");
            machine.destroy_enclave(eid).expect("destroy enclave");
        }
    });

    let machine = Machine::with_params(
        Clock::new(),
        HwProfile::Unpatched,
        MachineParams {
            epc_pages: SWAP_EPC_PAGES,
            ..MachineParams::default()
        },
    );
    let eid = machine
        .create_enclave(&EnclaveConfig {
            heap_kib: SWAP_EPC_PAGES * 2 * 4,
            ..fleet::enclave_config()
        })
        .expect("create paging enclave");
    let heap = machine.heap_range(eid).expect("heap range");
    let sweeps = count(40, work);
    tr.span(
        "ledger.sgx-sim.epc_swap",
        sweeps * heap.len() as u64,
        || {
            for _ in 0..sweeps {
                let stats = machine
                    .touch(eid, ThreadToken::MAIN, heap.clone(), AccessKind::Write)
                    .expect("touch sweep");
                assert!(stats.page_faults > 0, "the sweep must page");
            }
        },
    );
}

/// Bare and logged call loops, interleaved in short slices so that each
/// logged slice is compared with a bare one run moments before it.
fn sdk_and_logger_loops(tr: &Tracer, work: f64) {
    let n = count(200_000, work);
    let slice = (n / SLICES).max(2);
    let bare = Bench::new();
    let logged = Bench::new();
    let logger = Logger::attach(&logged.rt, LoggerConfig::default());
    for _ in 0..SLICES {
        bare.calls(tr, "ledger.sgx-sdk.ecall", "ecall_empty", slice);
        logged.calls(tr, "ledger.logger.ecall", "ecall_empty", slice);
        bare.calls(tr, "ledger.sgx-sdk.ecall_ocall", "ecall_ocall", slice);
        logged.calls(tr, "ledger.logger.ecall_ocall", "ecall_ocall", slice);
    }
    tr.span("ledger.logger.finish", 3 * slice * SLICES, || {
        std::hint::black_box(logger.finish());
    });

    // Switchless ocalls need the workers of a running simulation.
    let sw = Bench::new();
    let ecalls = count(20_000, work);
    let ring = sw
        .rt
        .enable_switchless(
            sw.eid,
            SwitchlessConfig {
                force_ocalls: vec!["ocall_empty".to_string()],
                ..SwitchlessConfig::default()
            },
        )
        .expect("enable switchless");
    let sim = Simulation::new(sw.rt.machine().clock().clone());
    ring.spawn_workers(&sim);
    let (rt, eid, table) = (Arc::clone(&sw.rt), sw.eid, Arc::clone(&sw.table));
    sim.spawn("caller", move |ctx| {
        let tcx = ThreadCtx::from_sim(ctx);
        for _ in 0..ecalls {
            rt.ecall(
                &tcx,
                eid,
                "ecall_ocalls",
                &table,
                &mut CallData::new(SWITCHLESS_BURST),
            )
            .expect("switchless ecall");
        }
        ring.shutdown(ctx);
    });
    tr.span(
        "ledger.sgx-sdk.switchless_ocalls",
        ecalls * SWITCHLESS_BURST,
        || sim.run(),
    );
}

/// Records a workload with and without the logger: the logged side is
/// attach + run + finish + save, the bare side the run alone.
fn logger_shares(tr: &Tracer, dir: &std::path::Path, work: f64) {
    let talos_cfg = TalosConfig {
        requests: count(2_000, work),
        ..TalosConfig::default()
    };
    let requests = count(10_000, work);
    share_pair(tr, dir, ("ledger.talos.logged", "ledger.talos.bare"), |h| {
        talos::run(h, &talos_cfg).expect("talos run");
    });
    let spans = (
        "ledger.switchless_loop.logged",
        "ledger.switchless_loop.bare",
    );
    share_pair(tr, dir, spans, |h| {
        switchless_loop::run(h, requests, None).expect("switchless loop run");
    });
}

fn share_pair(
    tr: &Tracer,
    dir: &std::path::Path,
    (logged, bare): (&'static str, &'static str),
    f: impl Fn(&Harness),
) {
    tr.span(logged, 0, || {
        let harness = Harness::new(HwProfile::Unpatched);
        let logger = Logger::attach(harness.runtime(), LoggerConfig::default());
        f(&harness);
        let quiet = Tracer::new(false);
        pipeline::finish_and_save(&quiet, &logger, &dir.join("share.evdb"));
    });
    tr.span(bare, 0, || f(&Harness::new(HwProfile::Unpatched)));
}

fn campaign_loops(tr: &Tracer, scratch: &Scratch, work: f64) {
    let plan = campaign_plan(0, count(4, work));
    for cell in plan.cells() {
        tr.span("ledger.campaign.cell", 1, || {
            std::hint::black_box(plan.run_cell(&cell, 0));
        });
    }
    let cells = plan.cells().len() as u64;
    let jobs = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let engine = Engine::current();
    let in_memory = |span, jobs| {
        tr.span(span, cells, || {
            matrix::run(&plan, engine, jobs, None, false).expect("campaign run");
        });
    };
    in_memory("ledger.campaign.memory_serial", 1);
    in_memory("ledger.campaign.memory_parallel", jobs);
    let archive = scratch.fresh("ledger-campaign");
    tr.span("ledger.campaign.archived", cells, || {
        matrix::run(&plan, engine, jobs, Some(&archive), false).expect("campaign run");
    });
    tr.span("ledger.campaign.resume", cells, || {
        matrix::run(&plan, engine, jobs, Some(&archive), true).expect("campaign resume");
    });
}

/// The ledger's per-layer metrics, derived from its spans: (name, value,
/// unit).
#[must_use]
pub fn metrics(spans: &[Span]) -> Vec<(&'static str, f64, &'static str)> {
    let named = |name: &str| spans.iter().filter(|s| s.name == name).collect::<Vec<_>>();
    let durations =
        |name: &str| -> Vec<f64> { named(name).iter().map(|s| s.duration_ns() as f64).collect() };
    // Nanoseconds per unit of each span named `name`, in run order.
    let rates = |name: &str| -> Vec<f64> {
        named(name)
            .iter()
            .map(|s| s.duration_ns() as f64 / s.units.max(1) as f64)
            .collect()
    };
    let per_unit_ns = |name: &str| median(&rates(name));
    // Median over slices of a per-slice combination of the call loops.
    let paired = |f: fn(f64, f64, f64, f64) -> f64| {
        let (be, beo) = (
            rates("ledger.sgx-sdk.ecall"),
            rates("ledger.sgx-sdk.ecall_ocall"),
        );
        let (le, leo) = (
            rates("ledger.logger.ecall"),
            rates("ledger.logger.ecall_ocall"),
        );
        let v: Vec<f64> = (0..be.len())
            .map(|i| f(be[i], beo[i], le[i], leo[i]))
            .collect();
        median(&v)
    };
    let total_s = |name| totals(spans, name).total_s;
    let sdk_ecall = per_unit_ns("ledger.sgx-sdk.ecall");
    let sdk_ocall = paired(|be, beo, _, _| beo - be);
    let logger_ecall = paired(|be, _, le, _| le - be);
    let logger_ocall = paired(|be, beo, le, leo| (leo - le) - (beo - be));
    let switchless_ocall =
        per_unit_ns("ledger.sgx-sdk.switchless_ocalls") - sdk_ecall / SWITCHLESS_BURST as f64;
    let share = |logged: &str, bare: &str| {
        let (l, b) = (durations(logged), durations(bare));
        1.0 - median(&b) / median(&l)
    };
    let cells: Vec<u64> = named("ledger.campaign.cell")
        .iter()
        .map(|s| s.duration_ns())
        .collect();
    let jobs = std::thread::available_parallelism().map_or(1, std::num::NonZero::get) as f64;
    vec![
        (
            "sim-threads.switch_ns",
            per_unit_ns("ledger.sim-threads.switch"),
            "ns",
        ),
        (
            "sim-threads.spawn_us",
            per_unit_ns("ledger.sim-threads.spawn") / 1e3,
            "us",
        ),
        (
            "sgx-sim.create_enclave_us",
            per_unit_ns("ledger.sgx-sim.create_enclave") / 1e3,
            "us",
        ),
        (
            "sgx-sim.epc_swap_ns",
            per_unit_ns("ledger.sgx-sim.epc_swap"),
            "ns",
        ),
        (
            "sgx-edl.parse_us",
            per_unit_ns("ledger.sgx-edl.parse") / 1e3,
            "us",
        ),
        ("sgx-sdk.ecall_ns", sdk_ecall, "ns"),
        ("sgx-sdk.ocall_ns", sdk_ocall, "ns"),
        ("sgx-sdk.switchless_ocall_ns", switchless_ocall, "ns"),
        ("logger.ecall_ns", logger_ecall, "ns"),
        ("logger.ocall_ns", logger_ocall, "ns"),
        (
            "logger.finish_ms",
            median(&durations("ledger.logger.finish")) / 1e6,
            "ms",
        ),
        (
            "talos.logger_share",
            share("ledger.talos.logged", "ledger.talos.bare"),
            "ratio",
        ),
        (
            "switchless_loop.logger_share",
            share(
                "ledger.switchless_loop.logged",
                "ledger.switchless_loop.bare",
            ),
            "ratio",
        ),
        (
            "campaign.cell_ms_p50",
            percentile(&cells, 50) as f64 / 1e6,
            "ms",
        ),
        (
            "campaign.cell_ms_p99",
            percentile(&cells, 99) as f64 / 1e6,
            "ms",
        ),
        (
            "campaign.parallel_efficiency",
            total_s("ledger.campaign.memory_serial")
                / (total_s("ledger.campaign.memory_parallel") * jobs),
            "ratio",
        ),
        (
            "campaign.archive_s",
            total_s("ledger.campaign.archived") - total_s("ledger.campaign.memory_parallel"),
            "s",
        ),
        ("campaign.resume_s", total_s("ledger.campaign.resume"), "s"),
    ]
}
