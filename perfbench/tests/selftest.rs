//! Tiny-scale self-test of the benchmark program: both passes of every
//! workload emit exactly the declared metrics with their units, no
//! operation fails, a corrupted answer is counted as a failure, and
//! `BENCHMARK.json` lists known workloads and declares the same metrics.

use perfbench::inputs::Workload;
use perfbench::{run, Options, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.5,
        trace,
        tiny: true,
        corrupt: false,
        span_dir: None,
    }
}

#[test]
fn every_metric_is_emitted_with_its_unit_and_nothing_fails() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let report = run(&tiny(w, trace)).expect("the run completes");
            let declared = if trace { PER_LAYER } else { END_TO_END };
            let emitted: Vec<(&str, &str)> =
                report.metrics.iter().map(|m| (m.0, m.1)).collect();
            assert_eq!(emitted, declared.to_vec(), "{} trace={trace}", w.name());
            assert!(report.tally.attempted > 0, "{} checked nothing", w.name());
            assert_eq!(report.tally.failed, 0, "{} trace={trace} failed", w.name());
            let json = report.to_json();
            assert!(json.starts_with("{\"correct\": true, "), "{json}");
            for (name, unit) in declared {
                let entry = format!("\"{name}\": {{\"value\": ");
                assert!(json.contains(&entry), "{name} missing from {json}");
                assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{unit} missing");
            }
        }
    }
}

#[test]
fn a_corrupted_answer_counts_as_a_failure() {
    for trace in [false, true] {
        let opts = Options { corrupt: true, ..tiny(Workload::PointOsm, trace) };
        let report = run(&opts).expect("the run completes");
        assert_eq!(report.tally.failed, 1, "trace={trace}");
        assert!(report.to_json().starts_with("{\"correct\": false, "));
    }
}

#[test]
fn benchmark_json_lists_known_workloads_and_the_same_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let compact: String = text.split_whitespace().collect();
    // Every listed workload is one the benchmark runs (ingest-drift is
    // runnable but not listed; see README.md).
    let listed = compact.split("\"workloads\":[").nth(1).and_then(|r| r.split(']').next());
    let listed = listed.expect("a workloads list");
    let names: Vec<&str> =
        listed.split("\"name\":\"").skip(1).filter_map(|r| r.split('"').next()).collect();
    assert!(names.len() >= 2, "{names:?}");
    for name in names {
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(compact.contains(&entry), "{entry} not declared");
    }
    let declared = compact.matches("\"unit\":").count();
    assert_eq!(declared, END_TO_END.len() + PER_LAYER.len(), "undeclared extra metrics");
}

#[test]
fn the_command_line_is_parsed_and_checked() {
    let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
    let o = Options::parse(&args("--workload point-osm --seed 3 --seconds 20 --trace 1"))
        .expect("valid arguments");
    assert_eq!((o.workload, o.seed, o.seconds, o.trace), (Workload::PointOsm, 3, 20.0, true));
    for bad in [
        "--workload nope --seed 3 --seconds 20 --trace 0",
        "--workload point-osm --seed x --seconds 20 --trace 0",
        "--workload point-osm --seed 3 --seconds 0 --trace 0",
        "--workload point-osm --seed 3 --seconds 20 --trace 2",
        "--workload point-osm --seconds 20 --trace 0",
    ] {
        assert!(Options::parse(&args(bad)).is_err(), "{bad}");
    }
}
