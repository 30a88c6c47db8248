//! `e2e`: one real-pipeline benchmark through gateway → router → serve →
//! core → sqlengine → storage, with a per-layer budget. See `README.md`.

mod check;
mod client;
mod cpu;
mod load;
mod measure;
mod peel;
mod probe;
mod report;
mod stack;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;
use workload::{Sizes, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
                     [--smoke] [--trace-out PATH]\n       e2e --all [--seed N] [--seconds S] [--smoke]\n\
                     workloads: spider_cold bird_cold hot_repeat live_catalog";

struct Args {
    workload: Option<Workload>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    trace_out: Option<PathBuf>,
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        smoke: false,
        trace_out: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                let text = value()?;
                args.seed = parse_seed(text).ok_or_else(|| format!("bad seed {text}"))?;
            }
            "--seconds" => {
                let text = value()?;
                args.seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad seconds {text}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            "--all" => args.all = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.all == args.workload.is_some() {
        return Err("give exactly one of --workload NAME and --all".to_string());
    }
    Ok(args)
}

/// Where the run keeps its audit journal and, by default, its span file:
/// the build's target directory, which is inside the checkout and ignored
/// by git.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"))
}

/// Run one workload in this process.
fn run_workload(workload: Workload, args: &Args) -> Report {
    let sizes = if args.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    let scratch = target_dir().join(format!(
        "e2e-run-{}-{}",
        std::process::id(),
        workload.name()
    ));
    std::fs::create_dir_all(&scratch).expect("create the run's scratch directory");
    let awake = workload.spins_idle_cores().then(cpu::KeepAwake::start);
    let mut report = if args.trace {
        let spans = args
            .trace_out
            .clone()
            .unwrap_or_else(|| target_dir().join(format!("e2e-spans-{}.jsonl", workload.name())));
        peel::run(workload, args.seed, args.seconds, &sizes, &scratch, &spans)
    } else {
        measure::run(workload, args.seed, args.seconds, &sizes, &scratch)
    };
    if let Some(awake) = awake {
        report.note(match awake.spinning() {
            0 => "SCHED_IDLE was refused: the cores slept between requests".to_string(),
            n => format!("{n} idle-priority spinners kept the cores awake"),
        });
    }
    let _ = std::fs::remove_dir_all(&scratch);
    report
}

fn print_header(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "e2e seed={:#x} seconds={} nproc={nproc} commit={} rustc={}",
        args.seed,
        args.seconds,
        option_env!("E2E_COMMIT").unwrap_or("unknown"),
        option_env!("E2E_RUSTC").unwrap_or("unknown"),
    );
}

/// `--all`: each workload in a process of its own, measured then traced.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("this program has a path");
    let mut ok = true;
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let mut child = std::process::Command::new(&exe);
            child
                .args(["--workload", workload.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if args.smoke {
                child.arg("--smoke");
            }
            // The child inherits standard output; `status` waits for it.
            ok &= child.status().is_ok_and(|status| status.success());
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("e2e: {problem}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.all {
        return run_all(&args);
    }
    print_header(&args);
    let workload = args.workload.expect("checked by parse_args");
    let report = run_workload(workload, &args);
    for line in report.lines() {
        println!("{line}");
    }
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Json;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let parsed = args(&[
            "--workload",
            "bird_cold",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .expect("the driver's arguments parse");
        assert_eq!(parsed.workload, Some(Workload::BirdCold));
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 15.0, true));
        assert_eq!(
            args(&["--workload", "hot_repeat", "--seed", "0x5B1D"])
                .expect("hex")
                .seed,
            0x5B1D
        );
        assert!(args(&[]).is_err(), "a workload or --all is required");
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "hot_repeat", "--all"]).is_err());
        assert!(args(&["--workload", "hot_repeat", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "hot_repeat", "--seconds", "0"]).is_err());
    }

    fn declared(bench: &Json, section: &str) -> Vec<(String, String)> {
        let Some(Json::Arr(metrics)) = bench.get(section) else {
            panic!("BENCHMARK.json has {section}")
        };
        let mut names: Vec<(String, String)> = metrics
            .iter()
            .map(|m| {
                let field = |key: &str| {
                    m.get(key)
                        .and_then(Json::as_str)
                        .expect("a string")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect();
        names.sort();
        names
    }

    /// The file and the binary cannot drift: a smoke run of every workload
    /// in both modes is correct and prints exactly the metrics, with the
    /// units, that `BENCHMARK.json` declares.
    #[test]
    fn smoke_run_prints_exactly_the_metrics_of_benchmark_json() {
        let bench = serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let Some(Json::Arr(workloads)) = bench.get("workloads") else {
            panic!("workloads")
        };
        let declared_workloads: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(declared_workloads, Workload::ALL.map(Workload::name));
        for workload in Workload::ALL {
            for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let run = Args {
                    workload: Some(workload),
                    all: false,
                    seed: DEFAULT_SEED,
                    seconds: 0.4,
                    trace,
                    smoke: true,
                    trace_out: None,
                };
                let report = run_workload(workload, &run);
                assert!(
                    report.correct(),
                    "{} trace={trace}: {:#?}",
                    workload.name(),
                    report.lines()
                );
                let mut printed: Vec<(String, String)> = report
                    .metrics()
                    .iter()
                    .map(|m| (m.name.to_string(), m.unit.to_string()))
                    .collect();
                printed.sort();
                assert_eq!(
                    printed,
                    declared(&bench, section),
                    "{} {section}",
                    workload.name()
                );
                let parsed =
                    serde_json::from_str(&report.result_line()).expect("the result line is JSON");
                assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
            }
        }
    }
}
