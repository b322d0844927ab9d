//! All four workloads at `--smoke` size, checked against the contract
//! in `BENCHMARK.json`.

use blinkbench::inputs::{self, Sizes, Workload};
use blinkbench::json::{self, Json};
use blinkbench::report::Report;
use blinkbench::workloads::RunArgs;
use blinkbench::{layers, workloads};
use std::path::{Path, PathBuf};

fn contract() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn smoke_args(workload: Workload, seed: u64) -> RunArgs {
    RunArgs {
        workload,
        seed,
        seconds: 30.0,
        smoke: true,
        out: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke"),
    }
}

/// Declared `(name, unit)` pairs of one section of the contract.
fn declared(contract: &Json, section: &str) -> Vec<(String, String)> {
    contract
        .get(section)
        .expect("section present")
        .as_arr()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_emits(report: &Report, result: &Json, declared: &[(String, String)], what: &str) {
    assert!(
        report.violations.is_empty(),
        "{what}: self-checks failed: {:?}",
        report.violations
    );
    assert_eq!(
        report.failed, 0,
        "{what}: operations failed: {:?}",
        report.notes
    );
    let emitted = result.get("metrics").expect("metrics object").members();
    let mut names: Vec<&str> = emitted.iter().map(|(n, _)| n.as_str()).collect();
    names.sort_unstable();
    let mut want: Vec<&str> = declared.iter().map(|(n, _)| n.as_str()).collect();
    want.sort_unstable();
    assert_eq!(
        names, want,
        "{what}: emitted metric names differ from BENCHMARK.json"
    );
    for (name, unit) in declared {
        assert!(
            name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "metric name `{name}` leaves [A-Za-z0-9_.-]"
        );
        let m = result.get("metrics").unwrap().get(name).unwrap();
        let value = m.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{what}: {name} is not a finite number: {value:?}"
        );
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{what}: unit of {name}"
        );
    }
}

#[test]
fn every_declared_metric_is_emitted_once_with_its_unit() {
    let contract = contract();
    let workloads: Vec<&str> = contract
        .get("workloads")
        .unwrap()
        .as_arr()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(
        workloads,
        Workload::ALL.map(Workload::name),
        "BENCHMARK.json names the four workloads in order"
    );
    let end_to_end = declared(&contract, "end_to_end");
    let per_layer = declared(&contract, "per_layer");
    assert_eq!((end_to_end.len(), per_layer.len()), (11, 62));
    for workload in Workload::ALL {
        let args = smoke_args(workload, 2013);
        let report = workloads::run(&args);
        let result = report.result_json(&blinkbench::report::END_TO_END);
        assert_emits(&report, &result, &end_to_end, workload.name());
        let (report, spans) = layers::run(&args);
        let result = report.result_json(&blinkbench::report::PER_LAYER);
        assert_emits(
            &report,
            &result,
            &per_layer,
            &format!("{} traced", workload.name()),
        );
        let recorded = spans.get("trace").and_then(|t| t.get("spans")).unwrap();
        assert!(recorded.as_arr().len() > 100, "traced run recorded spans");
    }
}

#[test]
fn same_seed_gives_the_same_inputs_and_the_same_counts() {
    for workload in [Workload::AdhocDirect, Workload::HeavyScan] {
        let sizes = Sizes::of(workload, true);
        let lists: Vec<Vec<String>> = (0..2)
            .map(|_| {
                let (db, _) = inputs::build_db(workload, &sizes, 7);
                inputs::queries(workload, &db, &sizes, 7)
                    .into_iter()
                    .map(|q| q.sql)
                    .collect()
            })
            .collect();
        assert_eq!(lists[0], lists[1], "query list is a function of the seed");
        assert_eq!(lists[0].len(), sizes.queries);

        let runs: Vec<Report> = (0..2)
            .map(|_| workloads::run(&smoke_args(workload, 7)))
            .collect();
        for name in [
            "success_frac",
            "bound_met_frac",
            "ci_coverage",
            "rel_err_capped_mean",
        ] {
            let value = |r: &Report| {
                r.metrics
                    .iter()
                    .find(|m| m.name == name)
                    .map(|m| m.value.to_bits())
            };
            assert_eq!(
                value(&runs[0]),
                value(&runs[1]),
                "{}: {name} must repeat bit-exactly for one seed",
                workload.name()
            );
        }
        assert_eq!(runs[0].attempted, runs[1].attempted);
    }
    assert_eq!(
        inputs::batches(&Sizes::of(Workload::IngestDurable, true), 7),
        inputs::batches(&Sizes::of(Workload::IngestDurable, true), 7)
    );
}
