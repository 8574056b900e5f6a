//! Engine throughput benchmark: measures scheduling events/sec on the
//! legacy OS-thread engine vs. the fast coroutine engine, a
//! workload-level wall-clock comparison, and the campaign runner's
//! core-scaling efficiency — emitting `BENCH_engine.json`.
//!
//! ```text
//! cargo run --release --example engine_bench -- <output-json> [--events N]
//! ```
//!
//! Gates (tunable via env, both checked at the end):
//! * `SGXPERF_ENGINE_SPEEDUP_FLOOR` (default 5): fast engine must beat
//!   legacy by at least this factor on the scheduler-bound ping-pong.
//! * `SGXPERF_SCALING_FLOOR` (default 0.7): campaign speedup running
//!   `jobs` workers must reach this fraction of the ideal
//!   `min(jobs, cores)`, in the median of 5 rounds over a 96-cell matrix.

use std::time::{Duration, Instant};

use sim_core::campaign::CampaignSpec;
use sim_core::{Clock, HwProfile};
use sim_threads::{with_engine, Engine, Simulation};
use workloads::campaign::matrix::{self, MatrixPlan};
use workloads::{chaos, switchless_loop};

/// Runs a two-thread yield ping-pong totalling ~`events` scheduling
/// points on `engine`; returns the wall time.
fn ping_pong(engine: Engine, events: u64) -> Duration {
    let per_thread = events / 2;
    let start = Instant::now();
    with_engine(engine, || {
        let sim = Simulation::new(Clock::new());
        for t in 0..2 {
            sim.spawn(&format!("pong{t}"), move |ctx| {
                for _ in 0..per_thread {
                    ctx.yield_now();
                }
            });
        }
        sim.run();
    });
    start.elapsed()
}

/// Runs the switchless closed loop on `engine`; returns the wall time.
fn workload_run(engine: Engine, requests: u64) -> Duration {
    let start = Instant::now();
    with_engine(engine, || {
        switchless_loop::closed_loop(HwProfile::Unpatched, requests).expect("closed loop");
    });
    start.elapsed()
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn events_per_sec(events: u64, wall: Duration) -> f64 {
    events as f64 / wall.as_secs_f64().max(1e-9)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let out = std::path::PathBuf::from(
        args.next()
            .unwrap_or_else(|| panic!("usage: engine_bench <output-json> [--events N]")),
    );
    let mut events: u64 = 200_000;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--events" => {
                events = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("--events needs a number"))
            }
            other => panic!("unknown flag `{other}`"),
        }
    }
    let speedup_floor = env_f64("SGXPERF_ENGINE_SPEEDUP_FLOOR", 5.0);
    let scaling_floor = env_f64("SGXPERF_SCALING_FLOOR", 0.7);

    // 1. Scheduler-bound ping-pong: pure context-switch throughput.
    // Warm both engines once (thread-pool and allocator warmup), then
    // measure.
    ping_pong(Engine::Legacy, events / 20);
    ping_pong(Engine::Fast, events / 20);
    let legacy_wall = ping_pong(Engine::Legacy, events);
    let fast_wall = ping_pong(Engine::Fast, events);
    let legacy_eps = events_per_sec(events, legacy_wall);
    let fast_eps = events_per_sec(events, fast_wall);
    let speedup = fast_eps / legacy_eps;
    println!(
        "ping-pong ({events} events): legacy {:.0} ev/s ({} ms), fast {:.0} ev/s ({} ms) — {:.1}x",
        legacy_eps,
        legacy_wall.as_millis(),
        fast_eps,
        fast_wall.as_millis(),
        speedup,
    );

    // 2. A real workload end to end: the switchless closed loop drives
    // client + worker logical threads through the whole SDK stack.
    let wl_requests = 2_000;
    let wl_legacy = workload_run(Engine::Legacy, wl_requests);
    let wl_fast = workload_run(Engine::Fast, wl_requests);
    let wl_speedup = wl_legacy.as_secs_f64() / wl_fast.as_secs_f64().max(1e-9);
    println!(
        "switchless_loop ({wl_requests} requests): legacy {} ms, fast {} ms — {:.1}x",
        wl_legacy.as_millis(),
        wl_fast.as_millis(),
        wl_speedup,
    );

    // 3. Campaign core-scaling: the same cell matrix serial vs. fanned
    // out, efficiency measured against the ideal min(jobs, cores). As for
    // perfbench's `campaign.parallel_efficiency`, the matrix is large
    // enough to amortise worker start-up and the gate reads the median of
    // several rounds, so one slow stretch of the host spoils a round, not
    // the gate. Seed 0 folds nothing into the chaos plan, so its cells run
    // it verbatim; the other seeds vary its jitter.
    const ROUNDS: usize = 5;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let spec = CampaignSpec::parse(&format!(
        "[campaign]\nname = \"scaling\"\n\
         [matrix]\nworkloads = [\"antipatterns\", \"switchless\"]\n\
         profiles = [\"unpatched\", \"spectre\", \"l1tf\"]\nseeds = [0, 1, 2, 3, 4, 5, 6, 7]\n\
         [faults]\nnone = \"\"\nchaos = \"{}\"\n",
        chaos::random_plan(1)
    ))
    .expect("scaling spec");
    let plan = MatrixPlan::from_spec(spec).expect("scaling plan");
    let cells = plan.spec.cell_count();
    let timed_run = |jobs| {
        let start = Instant::now();
        matrix::run(&plan, Engine::Fast, jobs, None, false).expect("scaling run");
        start.elapsed()
    };
    let ideal = cores as f64;
    let mut rounds: Vec<(f64, Duration, Duration)> = (0..ROUNDS)
        .map(|_| {
            let serial = timed_run(1);
            let parallel = timed_run(cores);
            let speedup = serial.as_secs_f64() / parallel.as_secs_f64().max(1e-9);
            (speedup, serial, parallel)
        })
        .collect();
    rounds.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (campaign_speedup, serial_wall, parallel_wall) = rounds[ROUNDS / 2];
    let efficiency = campaign_speedup / ideal;
    println!(
        "campaign ({cells} cells, median of {ROUNDS} rounds): serial {} ms, {cores} job(s) {} ms — {:.2}x of ideal {:.0}x ({:.0}% efficiency)",
        serial_wall.as_millis(),
        parallel_wall.as_millis(),
        campaign_speedup,
        ideal,
        efficiency * 100.0,
    );

    let json = format!(
        "{{\n  \"ping_pong\": {{\n    \"events\": {events},\n    \
         \"legacy_wall_ms\": {}, \"legacy_events_per_sec\": {:.0},\n    \
         \"fast_wall_ms\": {}, \"fast_events_per_sec\": {:.0},\n    \
         \"speedup\": {:.2}\n  }},\n  \
         \"workload\": {{\n    \"name\": \"switchless_loop\", \"requests\": {wl_requests},\n    \
         \"legacy_wall_ms\": {}, \"fast_wall_ms\": {}, \"speedup\": {:.2}\n  }},\n  \
         \"campaign\": {{\n    \"cells\": {}, \"cores\": {cores}, \"jobs\": {}, \"rounds\": {ROUNDS},\n    \
         \"serial_wall_ms\": {}, \"parallel_wall_ms\": {},\n    \
         \"ideal\": {:.0}, \"speedup\": {:.2}, \"efficiency\": {:.2}\n  }},\n  \
         \"floors\": {{\"speedup_min\": {speedup_floor}, \"efficiency_min\": {scaling_floor}}}\n}}\n",
        legacy_wall.as_millis(),
        legacy_eps,
        fast_wall.as_millis(),
        fast_eps,
        speedup,
        wl_legacy.as_millis(),
        wl_fast.as_millis(),
        wl_speedup,
        cells,
        cores,
        serial_wall.as_millis(),
        parallel_wall.as_millis(),
        ideal,
        campaign_speedup,
        efficiency,
    );
    std::fs::write(&out, &json).expect("write BENCH_engine.json");
    println!("wrote {}", out.display());

    assert!(
        speedup >= speedup_floor,
        "fast engine speedup {speedup:.1}x below the {speedup_floor}x floor"
    );
    assert!(
        efficiency >= scaling_floor,
        "campaign scaling efficiency {efficiency:.2} below the {scaling_floor} floor"
    );
    println!("engine bench gates passed ({speedup:.1}x >= {speedup_floor}x, {efficiency:.2} >= {scaling_floor})");
}
