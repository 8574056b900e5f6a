//! Campaign throughput bench: runs the stressor-sweep spec serially and
//! at full parallelism, asserts the summary is byte-stable across worker
//! counts, and emits `BENCH_campaign.json` — cells/sec, parallel
//! efficiency against `min(jobs, cores)`, and one headline metric per
//! dedicated stressor (row counts of the table each stressor exists to
//! fill, measured from its unpatched/no-fault baseline trace).
//!
//! ```text
//! cargo run --release --example campaign_bench -- \
//!     [BENCH_campaign.json] [specs/stressors.toml]
//! ```

use std::time::Instant;

use eventdb::ScratchDir;
use sgx_perf::{AexMode, Logger, LoggerConfig};
use sim_core::campaign::CampaignSpec;
use sim_core::HwProfile;
use sim_threads::Engine;
use workloads::campaign::matrix::{self, MatrixPlan};
use workloads::stressors::{self, Stressor, StressorConfig};
use workloads::Harness;

fn main() {
    let mut args = std::env::args().skip(1);
    let out = args.next().unwrap_or_else(|| "BENCH_campaign.json".into());
    let spec_path = args.next().unwrap_or_else(|| "specs/stressors.toml".into());

    let source = std::fs::read_to_string(&spec_path)
        .unwrap_or_else(|e| panic!("cannot read {spec_path}: {e}"));
    let spec = CampaignSpec::parse(&source).unwrap_or_else(|e| panic!("{spec_path}: {e}"));
    let plan = MatrixPlan::from_spec(spec).unwrap_or_else(|e| panic!("{spec_path}: {e}"));
    let cells = plan.spec.cell_count();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    println!("campaign bench: {spec_path} ({cells} cells, {cores} cores)");
    let started = Instant::now();
    let serial = matrix::run(&plan, Engine::Fast, 1, None, false).expect("serial campaign");
    let serial_wall = started.elapsed();
    let started = Instant::now();
    let parallel = matrix::run(&plan, Engine::Fast, cores, None, false).expect("parallel campaign");
    let parallel_wall = started.elapsed();
    assert_eq!(
        serial.render(),
        parallel.render(),
        "summary must be byte-stable across worker counts"
    );

    // Supervision overhead: how long a resume over a fully-archived run
    // spends revalidating (manifest + checksums, zero cells re-run), and
    // what a flaky cell's retry costs end to end (one failed attempt,
    // backoff, one clean attempt).
    let archive = ScratchDir::new("sgxperf-bench");
    matrix::run(&plan, Engine::Fast, cores, Some(archive.path()), false)
        .expect("archived campaign");
    let started = Instant::now();
    let resumed = matrix::run(&plan, Engine::Fast, cores, Some(archive.path()), true)
        .expect("resumed campaign");
    let resume_validate_wall = started.elapsed();
    assert_eq!(
        resumed.render(),
        parallel.render(),
        "resumed summary must be byte-identical"
    );
    drop(archive);

    let flaky_spec = CampaignSpec::parse(
        "[campaign]\nname = \"bench-flaky\"\nthreshold = 25\n\
         [matrix]\nworkloads = [\"flaky\"]\nprofiles = [\"unpatched\"]\nseeds = [1]\n\
         [robustness]\nretries = 2\n",
    )
    .expect("flaky bench spec");
    let flaky_plan = MatrixPlan::from_spec(flaky_spec).expect("flaky bench plan");
    let started = Instant::now();
    let flaky_run = matrix::run(&flaky_plan, Engine::Fast, 1, None, false).expect("flaky campaign");
    let retry_wall = started.elapsed();
    assert_eq!(flaky_run.flaky(), 1, "flaky fixture must recover on retry");
    assert_eq!(flaky_run.exit_code(), 0);

    let speedup = serial_wall.as_secs_f64() / parallel_wall.as_secs_f64();
    let efficiency = speedup / cores as f64;
    let cells_per_sec = cells as f64 / parallel_wall.as_secs_f64();
    println!(
        "  serial {} ms, {} jobs {} ms -> {:.2}x speedup, {:.0}% parallel efficiency, \
         {:.1} cells/sec, exit {}",
        serial_wall.as_millis(),
        cores,
        parallel_wall.as_millis(),
        speedup,
        efficiency * 100.0,
        cells_per_sec,
        parallel.exit_code(),
    );

    // Headline metric per stressor: the size of the trace signal each
    // axis exists to generate, from its quietest cell (unpatched, no
    // faults, switchless off, seed 0) — recorded with AEX counting on so
    // the compute axis is visible too.
    let mut headline = String::new();
    for (i, s) in Stressor::ALL.into_iter().enumerate() {
        let cfg = StressorConfig {
            seed: 0,
            switchless_workers: None,
            attempt: 0,
        };
        let harness = match s {
            Stressor::EpcThrash => {
                Harness::with_machine_params(HwProfile::Unpatched, stressors::epc_thrash_params())
            }
            _ => Harness::new(HwProfile::Unpatched),
        };
        let logger = Logger::attach(
            harness.runtime(),
            LoggerConfig {
                aex: AexMode::Count,
                ..LoggerConfig::default()
            },
        );
        let ops = stressors::default_ops(s);
        match s {
            Stressor::EpcThrash => stressors::epc_thrash(&harness, ops, &cfg),
            Stressor::EcallStorm => stressors::ecall_storm(&harness, ops, &cfg),
            Stressor::IoFsyncLoop => stressors::io_fsync_loop(&harness, ops, &cfg),
            Stressor::CpuCompute => stressors::cpu_compute(&harness, ops, &cfg),
        }
        .expect("stressor headline run");
        let trace = logger.finish();
        let (metric, rows) = match s {
            Stressor::EpcThrash => ("paging_rows", trace.paging.len() as u64),
            Stressor::EcallStorm => ("ecall_rows", trace.ecalls.len() as u64),
            Stressor::IoFsyncLoop => ("ocall_rows", trace.ocalls.len() as u64),
            Stressor::CpuCompute => (
                "aex_count",
                trace.ecalls.iter().map(|e| e.aex_count).sum::<u64>(),
            ),
        };
        let bytes = trace.to_bytes().len();
        println!(
            "  {:<14} {metric} = {rows} ({bytes} trace bytes)",
            s.label()
        );
        let comma = if i + 1 == Stressor::ALL.len() {
            ""
        } else {
            ","
        };
        headline.push_str(&format!(
            "    {{\"workload\": \"{}\", \"metric\": \"{metric}\", \"rows\": {rows}, \
             \"trace_bytes\": {bytes}}}{comma}\n",
            s.label(),
        ));
    }

    println!(
        "  resume validate {} ms (all {cells} cells salvaged), flaky retry {} ms",
        resume_validate_wall.as_millis(),
        retry_wall.as_millis(),
    );

    let json = format!(
        "{{\n  \"spec\": \"{spec_path}\",\n  \"campaign\": \"{}\",\n  \"cells\": {cells},\n  \
         \"cores\": {cores},\n  \"serial_ms\": {},\n  \"parallel_ms\": {},\n  \
         \"speedup\": {speedup:.3},\n  \"parallel_efficiency\": {efficiency:.3},\n  \
         \"cells_per_sec\": {cells_per_sec:.1},\n  \"regressed\": {},\n  \"exit_code\": {},\n  \
         \"resume_validate_ms\": {},\n  \"flaky_retry_ms\": {},\n  \
         \"stressors\": [\n{headline}  ]\n}}\n",
        plan.spec.name,
        serial_wall.as_millis(),
        parallel_wall.as_millis(),
        parallel.regressed(),
        parallel.exit_code(),
        resume_validate_wall.as_millis(),
        retry_wall.as_millis(),
    );
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("wrote {out}");
}
