//! Supervision contracts of the campaign runner, cross-engine: a
//! poisoned cell must degrade (not kill) the campaign identically on
//! both simulation engines, the shipped `faulty` spec must complete with
//! the documented quarantine ledger and incomplete exit code, and a
//! resume over a partial archive must reproduce an uninterrupted run
//! byte for byte. These are the library-level halves of CI's campaign
//! job.

use eventdb::ScratchDir;
use sim_core::campaign::CampaignSpec;
use sim_threads::Engine;
use workloads::campaign::matrix::{
    self, CellOutcome, CellVerdict, MatrixPlan, INCOMPLETE_EXIT_CODE,
};

fn plan(source: &str) -> MatrixPlan {
    let spec = CampaignSpec::parse(source).expect("test spec");
    MatrixPlan::from_spec(spec).expect("test plan")
}

fn shipped(name: &str) -> MatrixPlan {
    let path = format!("{}/../specs/{name}.toml", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    MatrixPlan::from_spec(CampaignSpec::parse(&src).unwrap_or_else(|e| panic!("{path}: {e}")))
        .unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn poisoned_cells_leave_siblings_intact_on_both_engines() {
    let plan = plan(
        "[campaign]\nname = \"poison\"\nthreshold = 25\n\
         [matrix]\nworkloads = [\"ecall_storm\", \"panicking\", \"io_fsync_loop\"]\n\
         profiles = [\"unpatched\"]\nseeds = [1]\n\
         [robustness]\nretries = 0\n",
    );
    let fast = matrix::run(&plan, Engine::Fast, 2, None, false).unwrap();
    let legacy = matrix::run(&plan, Engine::Legacy, 2, None, false).unwrap();

    for run in [&fast, &legacy] {
        assert_eq!(run.cells.len(), 3);
        // The healthy siblings completed with real traces...
        for healthy in [&run.cells[0], &run.cells[2]] {
            assert_eq!(healthy.outcome, CellOutcome::Ok, "{}", healthy.file);
            assert_eq!(healthy.verdict, CellVerdict::Baseline);
            assert!(healthy.bytes > 0);
        }
        // ...while the poisoned cell is quarantined, not fatal.
        let poisoned = &run.cells[1];
        assert_eq!(poisoned.verdict, CellVerdict::Failed);
        assert!(
            matches!(poisoned.outcome, CellOutcome::Panicked(_)),
            "{:?}",
            poisoned.outcome
        );
        assert_eq!(run.exit_code(), INCOMPLETE_EXIT_CODE);
    }
    // Both engines agree on the entire summary, ledger included.
    assert_eq!(fast.render(), legacy.render());
    assert_eq!(fast.to_json(), legacy.to_json());
}

#[test]
fn shipped_faulty_spec_completes_with_ledger_and_exit_four_on_both_engines() {
    let plan = shipped("faulty");
    let fast = matrix::run(&plan, Engine::Fast, 0, None, false).unwrap();
    let legacy = matrix::run(&plan, Engine::Legacy, 0, None, false).unwrap();

    assert_eq!(fast.exit_code(), INCOMPLETE_EXIT_CODE, "{}", fast.render());
    assert_eq!(fast.broken(), 2, "{}", fast.render()); // panicking + hanging
    assert_eq!(fast.flaky(), 1, "{}", fast.render());
    let text = fast.render();
    assert!(text.contains("quarantine:"), "{text}");
    assert!(text.contains("passed on attempt 2"), "{text}");
    assert!(text.contains("timed-out"), "{text}");
    // The hanging cell dies to the deterministic event budget, never the
    // wall clock — that's what makes this summary engine-portable.
    let hanging = fast
        .cells
        .iter()
        .find(|c| plan.spec.workloads[c.coord.workload] == "hanging")
        .unwrap();
    assert!(
        hanging.outcome.detail().contains("event budget exhausted"),
        "{:?}",
        hanging.outcome
    );
    assert_eq!(fast.render(), legacy.render());
    assert_eq!(fast.to_json(), legacy.to_json());
}

#[test]
fn resume_after_partial_run_is_byte_identical_on_both_engines() {
    for (engine, tag) in [(Engine::Fast, "fast"), (Engine::Legacy, "legacy")] {
        let plan = shipped("smoke");
        let scratch = ScratchDir::new("sgxperf-supervision");
        let full_dir = scratch.join("full");
        let partial_dir = scratch.join("partial");
        let full = matrix::run(&plan, engine, 2, Some(&full_dir), false).unwrap();

        // Fabricate the interrupted run: the same archive with one trace
        // missing, one truncated, and a stray tmp file left behind.
        std::fs::create_dir_all(&partial_dir).unwrap();
        for entry in std::fs::read_dir(&full_dir).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), partial_dir.join(entry.file_name())).unwrap();
        }
        std::fs::remove_file(partial_dir.join(&full.cells[1].file)).unwrap();
        let truncated = std::fs::read(partial_dir.join(&full.cells[3].file)).unwrap();
        std::fs::write(
            partial_dir.join(&full.cells[3].file),
            &truncated[..truncated.len() / 2],
        )
        .unwrap();
        std::fs::write(partial_dir.join("summary.txt.tmp"), b"torn write").unwrap();

        let resumed = matrix::run(&plan, engine, 2, Some(&partial_dir), true).unwrap();
        assert_eq!(resumed.render(), full.render(), "{tag} summary");
        assert_eq!(resumed.to_json(), full.to_json(), "{tag} json");

        // Every artifact matches the uninterrupted archive, and the
        // stray tmp file is gone.
        let mut names: Vec<String> = std::fs::read_dir(&partial_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        let mut full_names: Vec<String> = std::fs::read_dir(&full_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        full_names.sort();
        assert_eq!(names, full_names, "{tag} archive listing");
        for name in &names {
            assert_eq!(
                std::fs::read(full_dir.join(name)).unwrap(),
                std::fs::read(partial_dir.join(name)).unwrap(),
                "{tag}: {name} differs after resume"
            );
        }
    }
}

#[test]
fn wall_clock_deadline_reaps_cells_hung_without_an_event_budget() {
    // No event budget: only the wall-clock watchdog can reap the hanging
    // cell, via cooperative budget cancellation at a scheduling point.
    let plan = plan(
        "[campaign]\nname = \"wall\"\nthreshold = 25\n\
         [matrix]\nworkloads = [\"hanging\"]\n\
         profiles = [\"unpatched\"]\nseeds = [1]\n\
         [robustness]\ncell_deadline = \"250ms\"\nretries = 0\n",
    );
    let run = matrix::run(&plan, Engine::Fast, 1, None, false).unwrap();
    let cell = &run.cells[0];
    assert!(
        matches!(cell.outcome, CellOutcome::TimedOut(_)),
        "{:?}",
        cell.outcome
    );
    assert_eq!(cell.verdict, CellVerdict::Failed);
    assert_eq!(run.exit_code(), INCOMPLETE_EXIT_CODE);
}
