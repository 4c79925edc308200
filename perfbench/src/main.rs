//! One measured iteration of a benchmark workload, in a fresh process.
//!
//! ```text
//! genealog-perfbench --workload <name> --seed <n> --trace <0|1>
//!                    --state-dir <dir> [--trace-out <file>] [--smoke]
//! ```
//!
//! Prints one JSON line of raw measurements; `perfbench/run.py` repeats
//! iterations for the requested time and reduces them to the reported
//! metrics. The durable workload writes its state under `--state-dir` and
//! removes it afterwards; a traced iteration writes its spans to
//! `--trace-out`.

mod sys;
mod trace;
mod traced;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;

use trace::quantile;
use traced::Tracer;
use workloads::{Outcome, Sizes, NAMES};

struct Args {
    workload: String,
    seed: u64,
    traced: bool,
    smoke: bool,
    state_dir: PathBuf,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut traced, mut smoke) = (None, None, false, false);
    let (mut state_dir, mut trace_out) = (None, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--trace" => traced = value()? == "1",
            "--state-dir" => state_dir = Some(PathBuf::from(value()?)),
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {NAMES:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        traced,
        smoke,
        state_dir: state_dir.ok_or("--state-dir is required")?,
        trace_out,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn render(args: &Args, sizes: &Sizes, o: &Outcome, layers: &str, failures: &[String]) -> String {
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":\"{}\",\"seed\":{},\"traced\":{},\"sizes\":{},\"source_tuples\":{},\"sink_tuples\":{},\
         \"expected\":{},\"missing\":{},\"spurious\":{},\"wrong_provenance\":{},\"failed\":{},\
         \"setup_s\":{},\"wall_s\":{},\"cpu_s\":{},\"ctx_switches\":{},\"peak_rss_mb\":{},\"avg_rss_mb\":{},\
         \"latency_samples\":{},\"latency_p50_ms\":{},\"latency_p99_ms\":{},\"layers\":{{{}}},\"selfcheck_failures\":[{}]}}",
        args.workload,
        args.seed,
        args.traced,
        sizes.to_json(),
        o.source_tuples,
        o.sink_tuples,
        o.check.expected,
        o.check.missing,
        o.check.spurious,
        o.check.wrong_provenance,
        o.check.failed(),
        json_number(o.setup_s),
        json_number(o.wall_s),
        json_number(o.usage.cpu_s),
        o.usage.ctx_switches,
        json_number(o.peak_rss_mb),
        json_number(o.sampled.avg_rss_mb),
        o.latencies_ns.len(),
        json_number(ms(quantile(&o.latencies_ns, 0.5))),
        json_number(ms(quantile(&o.latencies_ns, 0.99))),
        layers,
        failures
            .iter()
            .map(|f| format!("\"{}\"", f.replace('"', "'")))
            .collect::<Vec<_>>()
            .join(",")
    );
    out
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("genealog-perfbench: {message}");
            std::process::exit(2);
        }
    };
    let sizes = Sizes::new(args.seed, args.smoke);
    let state_dir = args
        .state_dir
        .join(format!("{}-{}", args.workload, std::process::id()));
    let tracer = args.traced.then(Tracer::new);
    let outcome = workloads::run(&args.workload, &sizes, &state_dir, tracer.as_ref());
    let _ = std::fs::remove_dir_all(&state_dir);

    let (mut layers, mut failures) = (String::new(), Vec::new());
    if let Some(tracer) = &tracer {
        let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (metrics, fails) =
            workloads::layer_metrics(&args.workload, &outcome, tracer, host_cpus);
        layers = metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        failures = fails;
        if let Some(path) = &args.trace_out {
            let calls = tracer.call_stats();
            std::fs::write(path, tracer.spans.to_json(&calls)).expect("write the trace file");
        }
    }
    println!("{}", render(&args, &sizes, &outcome, &layers, &failures));
}
