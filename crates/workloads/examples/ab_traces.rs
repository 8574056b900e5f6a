//! Produces the A/B trace pairs the diff engine (and the CI perf gate)
//! consumes, written as `.evdb` files:
//!
//! * `switchless-before.evdb` / `switchless-after.evdb` — the closed
//!   loop's baseline and optimised runs (EXPERIMENTS Appendix B). The
//!   diff of this pair is an **improvement** (exit 0).
//! * `chaos-baseline.evdb` / `chaos-faulted.evdb` — the classic fixture
//!   fault-free and under the canned regression plan. The diff of this
//!   pair is a **regression** (exit 3) attributed to the injected
//!   faults.
//!
//! ```text
//! cargo run --example ab_traces -- <output-dir> [unpatched|spectre|l1tf] [requests]
//! ```
//!
//! Prints the two verdict summaries; `sgxperf diff` on the files
//! reproduces them exactly.

use sim_core::HwProfile;
use workloads::chaos;
use workloads::switchless_loop;

fn main() {
    let mut args = std::env::args().skip(1);
    let dir = std::path::PathBuf::from(args.next().unwrap_or_else(|| {
        panic!("usage: ab_traces <output-dir> [unpatched|spectre|l1tf] [requests]")
    }));
    let profile = args.next().map_or(HwProfile::Unpatched, |p| {
        HwProfile::parse(&p).unwrap_or_else(|| panic!("unknown profile `{p}`"))
    });
    let requests: u64 = args
        .next()
        .map(|r| r.parse().expect("requests must be a number"))
        .unwrap_or(1_000);
    std::fs::create_dir_all(&dir).expect("create output dir");

    let loop_ = switchless_loop::closed_loop(profile, requests).expect("closed loop");
    loop_
        .trace_before
        .save(dir.join("switchless-before.evdb"))
        .expect("save baseline");
    loop_
        .trace_after
        .save(dir.join("switchless-after.evdb"))
        .expect("save optimised");
    println!(
        "switchless: {} -> {} round-trips, {:.2}x, verdict {} (exit {})",
        loop_.transitions_before,
        loop_.transitions_after,
        loop_.speedup(),
        loop_.diff.verdict,
        loop_.diff.exit_code(),
    );

    let plan = chaos::regression_plan(5);
    let (baseline, faulted) = chaos::ab_pair(profile, &plan);
    baseline
        .save(dir.join("chaos-baseline.evdb"))
        .expect("save chaos baseline");
    faulted
        .save(dir.join("chaos-faulted.evdb"))
        .expect("save chaos candidate");
    let diff = chaos::ab_diff(profile, &plan);
    println!(
        "chaos:      {} injected fault(s), {} attributed, verdict {} (exit {})",
        diff.totals.faults_injected.b as u64,
        diff.attributed_faults(),
        diff.verdict,
        diff.exit_code(),
    );
    println!("wrote 4 traces to {}", dir.display());
}
