//! Corpus properties: random scenario specs build valid (clean) images
//! at any dial setting, every declared injection is caught by `kcheck`
//! with the right class — and the right address where the spec pins one
//! — and corrupted corpus images never panic the distillers or any of
//! the 21 figures.

use std::panic::{catch_unwind, AssertUnwindSafe};

use kgen::{check_ground_truth, scoped_probe, to_expected, FULL_PROBE};
use ksim::corpus::{self, InjectionSpec, ScenarioSpec};
use ksim::faults::ALL_FAULTS;
use ksim::workload::WorkloadConfig;
use proptest::prelude::*;
use visualinux::{figures, Session};

fn arb_workload() -> impl Strategy<Value = WorkloadConfig> {
    (
        1usize..10,
        0usize..3,
        1usize..4,
        1usize..6,
        1usize..8,
        0usize..5,
        any::<u64>(),
    )
        .prop_map(
            |(
                processes,
                extra_threads,
                files_per_process,
                pages_per_file,
                anon_vmas,
                kthreads,
                seed,
            )| {
                WorkloadConfig {
                    processes,
                    extra_threads,
                    files_per_process,
                    pages_per_file,
                    anon_vmas,
                    kthreads,
                    seed,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Any dial setting generates a *valid* image: the full `kcheck`
    // sweep over a random clean spec finds nothing.
    #[test]
    fn random_clean_specs_build_valid_images(workload in arb_workload()) {
        let spec = ScenarioSpec {
            name: "prop-clean".into(),
            workload,
            injections: vec![],
        };
        if let Err(e) = check_ground_truth(&spec) {
            prop_assert!(false, "{:?}: {e}", spec.workload);
        }
    }

    // Every spec — any dials, any injection — round-trips through JSON
    // losslessly, with a content-stable fingerprint.
    #[test]
    fn random_specs_round_trip_through_json(
        workload in arb_workload(),
        pick in 0..ALL_FAULTS.len(),
        seed in any::<u64>(),
    ) {
        let spec = ScenarioSpec {
            name: "prop-roundtrip".into(),
            workload,
            injections: vec![InjectionSpec::Fault { kind: ALL_FAULTS[pick], seed }],
        };
        let back = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.fingerprint(), spec.fingerprint());
    }

    // Every declared fault, at any victim-selection seed, is caught by
    // the sweep with the declared class (and exact address where the
    // spec pins one) — and nothing outside the declared classes fires.
    #[test]
    fn every_injected_fault_is_caught_with_the_right_ground_truth(
        pick in 0..ALL_FAULTS.len(),
        seed in 0u64..64,
    ) {
        let spec = ScenarioSpec {
            name: "prop-fault".into(),
            workload: WorkloadConfig::default(),
            injections: vec![InjectionSpec::Fault { kind: ALL_FAULTS[pick], seed }],
        };
        if let Err(e) = check_ground_truth(&spec) {
            prop_assert!(false, "{} seed {seed}: {e}", ALL_FAULTS[pick].name());
        }
    }

    // Distillers are corruption-tolerant: both evaluation probes run to
    // a verdict (graph or error) over any single-fault image — no panic,
    // no hang.
    #[test]
    fn probes_never_panic_on_corrupted_images(
        pick in 0..ALL_FAULTS.len(),
        seed in 0u64..32,
    ) {
        let spec = ScenarioSpec {
            name: "prop-tolerant".into(),
            workload: WorkloadConfig::default(),
            injections: vec![InjectionSpec::Fault { kind: ALL_FAULTS[pick], seed }],
        };
        let (builder, _) = Session::from_scenario(&spec);
        let s = builder.attach().unwrap();
        let _ = s.extract(scoped_probe());
        let _ = s.extract(FULL_PROBE);
    }
}

/// The whole shipped corpus honors its contract: base image clean,
/// injected sweep reports exactly the declared findings. This is the
/// ground-truth gate CI runs over all corpus members (the 10k rung's
/// sweep is covered by `e2e_performance_shape`, which builds it anyway).
#[test]
fn shipped_corpus_ground_truth_holds() {
    for spec in corpus::corpus() {
        if spec.name == "clean-10k" {
            continue;
        }
        check_ground_truth(&spec).unwrap();
    }
}

/// Every figure walks every corpus scenario but the 1k and 10k rungs to
/// a graph or an error, never a panic. A corrupted image hands the
/// helpers and member accesses any address at all (fig15-1 on
/// `xarray-corrupt` passes `pfn_of_page` a page below the vmemmap
/// base), and a debug build checks every sum they make.
#[test]
fn every_figure_walks_every_scenario_to_a_graph_or_an_error() {
    let mut panicked = Vec::new();
    for spec in corpus::corpus() {
        if matches!(spec.name.as_str(), "clean-1k" | "clean-10k") {
            continue;
        }
        let (builder, _) = Session::from_scenario(&spec);
        let session = builder.attach().unwrap();
        for fig in figures::all() {
            let walk = catch_unwind(AssertUnwindSafe(|| session.extract(fig.viewcl).map(drop)));
            if walk.is_err() {
                panicked.push(format!("{} on {}", fig.id, spec.name));
            }
        }
    }
    assert!(panicked.is_empty(), "walks panicked: {panicked:?}");
    // The corrupt slot's pfn shows the helper's error, not a wrapped
    // number.
    let xarray = corpus::by_name("xarray-corrupt").unwrap();
    let session = Session::from_scenario(&xarray).0.attach().unwrap();
    let fig = figures::by_id("fig15-1").unwrap();
    let (graph, _) = session.extract(fig.viewcl).unwrap();
    let shown = format!("{graph:?}");
    assert!(
        shown.contains("pfn_of_page: page 0x6 lies below the vmemmap base"),
        "{shown}"
    );
}

/// The CVE members re-express the hand-written case studies: StackRot
/// must be flagged as maple corruption, Dirty Pipe is structurally clean
/// (its empty expected-finding list *asserts* the sweep stays silent).
#[test]
fn cve_members_declare_the_case_study_ground_truth() {
    let sr = corpus::by_name("cve-2023-3269-stackrot").unwrap();
    let built = sr.build();
    assert_eq!(to_expected(&built.expected).len(), 1);
    assert_eq!(built.expected[0].class, "maple");

    let dp = corpus::by_name("cve-2022-0847-dirty-pipe").unwrap();
    assert!(dp.build().expected.is_empty());
}
