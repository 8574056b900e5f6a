//! Property-based tests of the campaign-spec grammar: canonical-form
//! fixpoints, matrix-expansion algebra and error rendering over randomly
//! assembled (but well-formed) specs — the invariants `sgxperf campaign`
//! relies on for byte-stable, resumable runs.

use proptest::prelude::*;

use sim_core::campaign::{CampaignSpec, SwitchlessAxis};
use workloads::campaign::matrix::MatrixPlan;

const WORKLOAD_POOL: &[&str] = &[
    "epc_thrash",
    "ecall_storm",
    "io_fsync_loop",
    "cpu_compute",
    "antipatterns",
    "fleet",
];
const PROFILE_POOL: &[&str] = &["unpatched", "spectre", "l1tf"];
const SWITCHLESS_POOL: &[&str] = &["off", "on:1", "on:2", "on:7"];
const PLAN_POOL: &[&str] = &[
    "",
    "seed=7;aex-storm@call=3:count=6",
    "ocall-fail@call=2:times=1",
    "seed=1;ocall-timeout@call=4:delay=60us,times=2;evict-storm@t=1ms",
];
const DEADLINE_POOL: &[&str] = &["0ns", "500ns", "40us", "2ms", "1s", "30s"];

/// Picks a non-empty prefix-ish subset of `pool` from two random words,
/// preserving pool order so the selection is duplicate-free by
/// construction.
fn subset<'a>(pool: &[&'a str], mask: u64, len_hint: usize) -> Vec<&'a str> {
    let mut out: Vec<&str> = pool
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, s)| *s)
        .take(len_hint.max(1))
        .collect();
    if out.is_empty() {
        out.push(pool[(mask as usize) % pool.len()]);
    }
    out
}

/// Renders a random-but-valid spec source from raw integers. Every value
/// drawn from the pools above is grammatically valid, so parsing must
/// succeed — the properties then check what parsing *produces*.
#[allow(clippy::too_many_arguments)]
fn build_spec_source(
    jobs: u32,
    threshold: u32,
    wl_mask: u64,
    wl_len: usize,
    prof_mask: u64,
    sw_mask: u64,
    seeds: &[u64],
    plan_mask: u64,
    robustness: Option<(usize, u32, u64)>,
) -> String {
    let workloads = subset(WORKLOAD_POOL, wl_mask, wl_len);
    let profiles = subset(PROFILE_POOL, prof_mask, 3);
    let switchless = subset(SWITCHLESS_POOL, sw_mask, 4);
    let mut seeds: Vec<u64> = seeds.to_vec();
    seeds.sort_unstable();
    seeds.dedup();
    let plans: Vec<(String, &str)> = PLAN_POOL
        .iter()
        .enumerate()
        .filter(|(i, _)| plan_mask & (1 << i) != 0)
        .map(|(i, p)| (format!("plan{i}"), *p))
        .collect();

    let quote = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut src = format!(
        "# generated spec\n[campaign]\nname = \"prop\"\njobs = {jobs}\nthreshold = {threshold}\n\
         [matrix]\nworkloads = [{}]\nprofiles = [{}]\nswitchless = [{}]\nseeds = [{}]\n",
        quote(&workloads),
        quote(&profiles),
        quote(&switchless),
        seeds
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", "),
    );
    if !plans.is_empty() {
        src.push_str("[faults]\n");
        for (name, plan) in &plans {
            src.push_str(&format!("{name} = \"{plan}\"  # comment\n"));
        }
        src.push_str(&format!(
            "[baseline]\nfaults = \"{}\"\nseed = {}\n",
            plans[0].0, seeds[0],
        ));
    }
    if let Some((deadline_idx, retries, event_budget)) = robustness {
        src.push_str(&format!(
            "[robustness]\ncell_deadline = \"{}\"\nretries = {retries}\n\
             event_budget = {event_budget}\n",
            DEADLINE_POOL[deadline_idx % DEADLINE_POOL.len()],
        ));
    }
    src
}

proptest! {
    #[test]
    fn canonical_form_is_a_parse_display_fixpoint(
        jobs in 0u32..64,
        threshold in 1u32..100,
        wl_mask in 1u64..64,
        wl_len in 1usize..6,
        prof_mask in 1u64..8,
        sw_mask in 1u64..16,
        seeds in proptest::collection::vec(0u64..1_000_000, 1..5),
        plan_mask in 0u64..16,
        robustness in proptest::option::of((0usize..6, 0u32..5, 0u64..200_000)),
    ) {
        let src = build_spec_source(
            jobs, threshold, wl_mask, wl_len, prof_mask, sw_mask, &seeds, plan_mask, robustness,
        );
        let spec = CampaignSpec::parse(&src)
            .unwrap_or_else(|e| panic!("well-formed spec rejected: {e}\n{src}"));
        let canon = spec.to_string();
        let reparsed = CampaignSpec::parse(&canon)
            .unwrap_or_else(|e| panic!("canonical form rejected: {e}\n{canon}"));
        prop_assert_eq!(&spec, &reparsed, "parse(Display(spec)) == spec");
        prop_assert_eq!(canon, reparsed.to_string(), "Display is a fixpoint");
    }

    #[test]
    fn expansion_is_the_exact_axis_product(
        wl_mask in 1u64..64,
        wl_len in 1usize..6,
        prof_mask in 1u64..8,
        sw_mask in 1u64..16,
        seeds in proptest::collection::vec(0u64..100, 1..5),
        plan_mask in 0u64..16,
    ) {
        let src =
            build_spec_source(0, 10, wl_mask, wl_len, prof_mask, sw_mask, &seeds, plan_mask, None);
        let spec = CampaignSpec::parse(&src).unwrap();
        let cells = spec.expand();
        let product = spec.workloads.len()
            * spec.profiles.len()
            * spec.plans.len()
            * spec.switchless.len()
            * spec.seeds.len();
        prop_assert_eq!(cells.len(), product);
        prop_assert_eq!(cells.len(), spec.cell_count());

        // Indices are the positions; baselines stay inside the same
        // (workload, profile, switchless) group at the declared plan/seed
        // coordinates; baseline cells are fixpoints of the mapping.
        let mut baselines = 0;
        for (i, c) in cells.iter().enumerate() {
            prop_assert_eq!(c.index, i);
            prop_assert!(c.workload < spec.workloads.len());
            prop_assert!(c.plan < spec.plans.len());
            let b = &cells[c.baseline];
            prop_assert_eq!(b.workload, c.workload);
            prop_assert_eq!(b.profile, c.profile);
            prop_assert_eq!(b.switchless, c.switchless);
            prop_assert_eq!(&spec.plans[b.plan].0, &spec.baseline_plan);
            prop_assert_eq!(b.seed, spec.baseline_seed);
            prop_assert_eq!(b.baseline, b.index);
            if c.baseline == c.index {
                baselines += 1;
            }
        }
        prop_assert_eq!(
            baselines,
            spec.workloads.len() * spec.profiles.len() * spec.switchless.len(),
            "exactly one baseline per comparison group"
        );
    }

    #[test]
    fn unknown_keys_are_rejected_with_their_line_number(
        key_idx in 0usize..6,
        padding in 0usize..5,
    ) {
        // None of these are valid keys in any section.
        let bogus = ["frobnicate", "wrokloads", "sede", "threshhold", "x", "zz9"][key_idx];
        let blank = "\n".repeat(padding);
        for (src, expected_line) in [
            (
                format!("{blank}[campaign]\nname = \"x\"\n{bogus} = 1\n"),
                padding + 3,
            ),
            (
                format!(
                    "{blank}[matrix]\nworkloads = [\"a\"]\n{bogus} = [\"b\"]\n"
                ),
                padding + 3,
            ),
        ] {
            let e = CampaignSpec::parse(&src).unwrap_err();
            prop_assert_eq!(e.line, expected_line, "{}", e);
            let rendered = e.to_string();
            prop_assert!(
                rendered.contains(&format!("line {expected_line}")),
                "{rendered}"
            );
            prop_assert!(rendered.contains(bogus), "{rendered}");
        }
    }

    #[test]
    fn duplicate_axis_entries_are_rejected(seed in 0u64..1000) {
        let src = format!(
            "[campaign]\nname = \"x\"\n[matrix]\nworkloads = [\"a\"]\n\
             profiles = [\"unpatched\"]\nseeds = [{seed}, {seed}]\n"
        );
        let e = CampaignSpec::parse(&src).unwrap_err();
        prop_assert!(e.to_string().contains("duplicate"), "{}", e);
        prop_assert_eq!(e.line, 6, "{}", e);
    }

    #[test]
    fn robustness_keys_survive_the_canonical_round_trip(
        deadline_idx in 0usize..6,
        retries in 0u32..10,
        event_budget in 0u64..1_000_000,
    ) {
        let src = build_spec_source(
            0, 10, 3, 2, 1, 1, &[1], 0, Some((deadline_idx, retries, event_budget)),
        );
        let spec = CampaignSpec::parse(&src)
            .unwrap_or_else(|e| panic!("robustness spec rejected: {e}\n{src}"));
        prop_assert_eq!(spec.retries, retries);
        prop_assert_eq!(spec.event_budget, event_budget);
        let reparsed = CampaignSpec::parse(&spec.to_string()).unwrap();
        prop_assert_eq!(reparsed.cell_deadline, spec.cell_deadline);
        prop_assert_eq!(reparsed.retries, retries);
        prop_assert_eq!(reparsed.event_budget, event_budget);
        // Omitting the section entirely means defaults, not errors.
        let bare = build_spec_source(0, 10, 3, 2, 1, 1, &[1], 0, None);
        let spec = CampaignSpec::parse(&bare).unwrap();
        prop_assert_eq!(spec.cell_deadline.as_nanos(), 0);
        prop_assert_eq!(spec.retries, 1);
        prop_assert_eq!(spec.event_budget, 0);
    }

    #[test]
    fn switchless_labels_round_trip_through_display(workers in 1u32..10_000) {
        let axis = SwitchlessAxis::On { workers };
        prop_assert_eq!(SwitchlessAxis::parse(&axis.to_string()), Some(axis));
        prop_assert_eq!(axis.file_label(), format!("on{workers}"));
        prop_assert_eq!(SwitchlessAxis::parse(&format!("on:{workers} ")), None);
    }
}

/// The repo's shipped spec files stay loadable, canonicalisable and
/// resolvable against the workload registry, so `cargo test` alone
/// catches a drifted spec.
#[test]
fn shipped_specs_parse_and_canonicalise() {
    let dir = format!("{}/../specs", env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{dir}: {e}")) {
        let path = entry.expect("spec dir entry").path();
        if path.extension().is_none_or(|e| e != "toml") {
            continue;
        }
        let name = path.display().to_string();
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        let spec = CampaignSpec::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            CampaignSpec::parse(&spec.to_string()).unwrap(),
            spec,
            "{name}"
        );
        let count = spec.cell_count();
        assert!(count > 0, "{name}");
        let plan = MatrixPlan::from_spec(spec).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(plan.cells().len(), count, "{name}");
        checked += 1;
    }
    assert!(checked >= 6, "expected every shipped spec, found {checked}");
    // The acceptance matrix keeps its floor: 4 workloads x 3 profiles x
    // 2 plans x 2 switchless x 2 seeds.
    let src = std::fs::read_to_string(format!(
        "{}/../specs/stressors.toml",
        env!("CARGO_MANIFEST_DIR")
    ))
    .unwrap();
    let spec = CampaignSpec::parse(&src).unwrap();
    assert_eq!(spec.cell_count(), 96);
    assert!(spec.workloads.len() >= 4);
    assert!(spec.profiles.len() >= 3);
    assert!(spec.plans.len() >= 2);
    assert!(spec.seeds.len() >= 2);
}
