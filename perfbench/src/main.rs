//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--records <n>]`
//!
//! Prints one line per metric (name, value, unit, sample count), the
//! settings and host facts, a JSON line of settings and sample counts,
//! and as the last line the result object (`correct`, `attempted`,
//! `failed`, `metrics`). Exits non-zero without a result line on any
//! correctness mismatch.

use polyframe_perfbench::common::RunConfig;
use polyframe_perfbench::metrics::{self, MetricSpec, Workload};
use polyframe_perfbench::report::Report;
use polyframe_perfbench::trace::Tracer;
use polyframe_perfbench::{paper_read, serve_mixed, trickle_write};
use std::path::PathBuf;
use std::process::ExitCode;

/// Resident rows per table: the harness's XS size.
const DEFAULT_RECORDS: usize = 20_000;

struct Args {
    workload: Workload,
    config: RunConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut records = DEFAULT_RECORDS;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("want an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("want a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("want 0 < seconds <= 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                })
            }
            "--records" => {
                records = value.parse::<usize>().map_err(|_| bad("want an integer"))?;
                if records < 100 {
                    return Err(bad("want at least 100"));
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        config: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            records,
            trace: trace.unwrap_or(false),
        },
    })
}

/// Host facts and build settings every result carries.
fn host_facts(report: &mut Report, args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.setting("nproc", nproc);
    report.setting("morsel_workers", polyframe_sqlengine::available_threads());
    report.setting(
        "POLYFRAME_THREADS",
        std::env::var("POLYFRAME_THREADS").unwrap_or_else(|_| "unset".to_string()),
    );
    report.setting(
        "build_profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    report.setting("workload", args.workload.name());
    report.setting("seed", args.config.seed);
    report.setting("seconds", args.config.seconds);
    report.setting("trace", args.config.trace);
}

/// Keep exactly the declared metrics of this kind of run. A per-layer
/// metric owned by another workload reads 0 with 0 samples.
fn select(report: &mut Report, workload: Workload, trace: bool) -> Result<(), String> {
    let specs: Vec<MetricSpec> = if trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    for s in &specs {
        if s.owner.is_some_and(|w| w != workload) {
            report.metric(s.name.clone(), 0.0, s.unit, 0);
        }
        if let Some(m) = report.metrics.get(&s.name) {
            if m.unit != s.unit {
                return Err(format!(
                    "{} measured in {}, declared in {}",
                    s.name, m.unit, s.unit
                ));
            }
        }
    }
    let names: Vec<String> = specs.into_iter().map(|s| s.name).collect();
    report.select(&names)
}

fn run(args: &Args) -> Result<Report, String> {
    let tracer = Tracer::new(args.config.trace);
    let mut report = match args.workload {
        Workload::PaperRead => paper_read::run(&args.config, &tracer)?,
        Workload::TrickleWrite => trickle_write::run(&args.config, &tracer)?,
        Workload::ServeMixed => serve_mixed::run(&args.config, &tracer)?,
    };
    host_facts(&mut report, args);
    if args.config.trace {
        let path = PathBuf::from(".bench_out").join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.config.seed
        ));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        report.setting("spans_file", path.display());
        for (name, ms) in tracer.self_time_ms() {
            report.setting(format!("self_ms.{name}"), format!("{ms:.3}"));
        }
    }
    select(&mut report, args.workload, args.config.trace)?;
    if report.attempted == 0 {
        return Err("no operation was attempted".to_string());
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            print!("{}", report.table());
            println!("{}", report.info_json());
            println!("{}", report.result_json(true));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
