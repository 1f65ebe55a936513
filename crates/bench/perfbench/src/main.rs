//! The repository benchmark: the simulation path and the serving path,
//! end to end and layer by layer. See `README.md` beside this package.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <base-runs> <new-runs> [BENCHMARK.json]
//! ```
//!
//! A run prints a metadata line and then, as its last line, one JSON
//! result: `correct`, `attempted`, `failed` and `metrics`. Untraced runs
//! report the end-to-end metrics, traced runs the per-layer ones.

mod campaign;
mod compare;
mod report;
mod serve;
mod stats;
mod sys;
mod trace;

use campaign::Kind;
use report::{meta_line, result_line, Metric, Outcome};
use std::path::Path;
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["campaign-moving", "campaign-dense", "serve-durable"];

/// End-to-end metrics and units, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("request_p50_ms", "ms"),
    ("request_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and units, in `BENCHMARK.json` order. A workload
/// that does not exercise a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 43] = [
    ("sim.compile_ms", "ms"),
    ("sim.cache_build_ms", "ms"),
    ("sim.trial_ms.p50", "ms"),
    ("sim.trial_ms.p99", "ms"),
    ("sim.cpu_util", "ratio"),
    ("sim.link_evals_per_trial", "count"),
    ("sim.link_memo_hit_ratio", "ratio"),
    ("sim.geometry_evals_per_trial", "count"),
    ("sim.geometry_hit_ratio", "ratio"),
    ("phys.link_report_ns", "ns"),
    ("phys.link_report_nomemo_ns", "ns"),
    ("gen2.rounds_per_trial", "count"),
    ("gen2.slots_per_round", "count"),
    ("gen2.success_ratio", "ratio"),
    ("gen2.collision_ratio", "ratio"),
    ("gen2.round_us", "us"),
    ("stats.fold_us", "us"),
    ("stats.state_bytes", "bytes"),
    ("readerapi.get_tags_us.p50", "us"),
    ("readerapi.get_tags_us.p99", "us"),
    ("readerapi.wire_bytes_per_record", "bytes"),
    ("readerapi.convert_ns", "ns"),
    ("site.ingest_records_us.p50", "us"),
    ("site.ingest_records_us.p99", "us"),
    ("site.location_of_us", "us"),
    ("site.location_at_us", "us"),
    ("site.zone_history_us", "us"),
    ("site.merge_holds", "count"),
    ("site.max_queue_depth", "count"),
    ("site.store_appends", "count"),
    ("site.store_errors", "count"),
    ("site.rejects", "count"),
    ("site.lock_overhead_share", "ratio"),
    ("track.stream.merge_ns", "ns"),
    ("track.stream.observe_ns", "ns"),
    ("track.stream.tracker_ns", "ns"),
    ("track.store.append_ns", "ns"),
    ("track.store.flush_us", "us"),
    ("track.store.location_at_us", "us"),
    ("track.store.segments", "count"),
    ("track.store.bytes", "bytes"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// Working space for stores and traces, inside the working directory.
const RUN_DIR: &str = ".perfbench_run";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Puts the reported metrics in list order, with 0 for the ones this
/// workload does not exercise.
fn in_list_order(
    measured: Vec<Metric>,
    list: &[(&'static str, &'static str)],
) -> Result<Vec<Metric>, String> {
    let mut out = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        match measured.iter().find(|m| m.name == name) {
            Some(m) if m.unit != unit => {
                return Err(format!("{name} reported in {} not {unit}", m.unit))
            }
            Some(m) => out.push(m.clone()),
            None => out.push(Metric::new(name, 0.0, unit, 0)),
        }
    }
    if let Some(extra) = measured
        .iter()
        .find(|m| !list.iter().any(|&(n, _)| n == m.name))
    {
        return Err(format!("{} is not a listed metric", extra.name));
    }
    Ok(out)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let run_dir = Path::new(RUN_DIR);
    std::fs::create_dir_all(run_dir).map_err(|e| format!("create {RUN_DIR}: {e}"))?;
    let mut outcome = Outcome::default();
    outcome.meta_str("workload", &args.workload);
    outcome.meta.push(("seed", args.seed.to_string()));
    outcome.meta_f64("seconds", args.seconds);
    outcome.meta_str("trace", if args.trace { "1" } else { "0" });
    outcome.meta_f64("nproc", sys::nproc() as f64);
    outcome.meta_str("commit", &sys::commit());
    let (seed, seconds, traced) = (args.seed, args.seconds, args.trace);
    let trace = match args.workload.as_str() {
        "serve-durable" => serve::run(run_dir, seed, seconds, traced, &mut outcome)?,
        "campaign-moving" => campaign::run(Kind::Moving, seed, seconds, traced, &mut outcome),
        _ => campaign::run(Kind::Dense, seed, seconds, traced, &mut outcome),
    };
    let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    outcome.metrics = in_list_order(std::mem::take(&mut outcome.metrics), list)?;
    if let Some(trace) = trace {
        let path = run_dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        trace
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        outcome.meta_str("trace_file", &path.display().to_string());
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
        let table = match (args.get(1), args.get(2)) {
            (Some(base), Some(new)) => read(base).and_then(|b| {
                let bench = read(args.get(3).map_or("BENCHMARK.json", String::as_str))?;
                compare::compare(&b, &read(new)?, &bench)
            }),
            _ => Err("usage: perfbench compare <base-runs> <new-runs> [BENCHMARK.json]".to_owned()),
        };
        return match table {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench compare: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!("{}", meta_line(&outcome));
            println!("{}", result_line(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_site_server::Json;

    /// The metric and workload lists here are the ones `BENCHMARK.json`
    /// declares, in the same order and units.
    #[test]
    fn lists_match_benchmark_json() {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../../BENCHMARK.json"
        ))
        .expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let field = |k| m.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
                        (field("name"), field("unit"))
                    })
                    .collect(),
                _ => panic!("{key} is not a list"),
            }
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn args_are_checked() {
        let ok = |s: &str| parse_args(&s.split(' ').map(str::to_owned).collect::<Vec<_>>());
        let a = ok("--workload serve-durable --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(ok("--workload nope --seed 7 --seconds 10 --trace 0").is_err());
        assert!(ok("--workload serve-durable --seed x --seconds 10 --trace 0").is_err());
        assert!(ok("--workload serve-durable --seed 1 --seconds 0 --trace 0").is_err());
        assert!(ok("--workload serve-durable --seed 1 --seconds 5 --trace 2").is_err());
        assert!(ok("--workload serve-durable --seed 1").is_err());
    }

    #[test]
    fn missing_layers_report_zero_in_list_order() {
        let measured = vec![Metric::new("trace.overhead_ratio", 1.02, "ratio", 2)];
        let out = in_list_order(measured, &PER_LAYER).expect("orders");
        assert_eq!(out.len(), PER_LAYER.len());
        assert_eq!(out[0].value, 0.0);
        assert_eq!(out.last().map(|m| m.value), Some(1.02));
        let wrong_unit = vec![Metric::new("setup_s", 1.0, "ms", 1)];
        assert!(in_list_order(wrong_unit, &END_TO_END).is_err());
    }
}
