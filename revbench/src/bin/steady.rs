//! `steady` — runs one workload k times, each with its own seed, and
//! prints every metric's median, quartiles and spread (the distance
//! between the quartiles as a share of the median).
//!
//! ```text
//! steady --workload NAME [--runs K] [--seconds S] [--trace 0|1] [--first-seed N]
//! ```
//!
//! It runs the `revbench` executable built next to it, so build both
//! first (`cargo build --release` in this directory).

use rev_trace::Json;
use revbench::stats::quartiles;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

fn usage() -> ExitCode {
    eprintln!(
        "usage: steady --workload NAME [--runs K (default 10)] [--seconds S (default 20)] \
         [--trace 0|1] [--first-seed N (default 1)]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let (mut workload, mut runs, mut seconds, mut trace, mut first_seed) =
        (None, 10u64, "20".to_string(), "0".to_string(), 1u64);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { return usage() };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value);
                true
            }
            "--runs" => value.parse().map(|v| runs = v).is_ok() && runs > 0,
            "--seconds" => {
                seconds = value;
                true
            }
            "--trace" => {
                trace = value;
                true
            }
            "--first-seed" => value.parse().map(|v| first_seed = v).is_ok(),
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let Some(workload) = workload else { return usage() };
    let Ok(exe) = std::env::current_exe() else { return usage() };
    let runner = exe.with_file_name(format!("revbench{}", std::env::consts::EXE_SUFFIX));
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let mut host = String::new();
    let mut shares = Vec::new();
    let mut all_correct = true;
    for seed in first_seed..first_seed + runs {
        let out = match Command::new(&runner)
            .args(["--workload", &workload, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds, "--trace", &trace])
            .output()
        {
            Ok(out) if out.status.success() => out,
            Ok(out) => {
                eprintln!(
                    "seed {seed}: exit {}\n{}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                );
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("running {}: {e}", runner.display());
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        if host.is_empty() {
            host = stdout.lines().find(|l| l.starts_with("host:")).unwrap_or("").to_string();
        }
        let Some(result) = stdout.lines().last().and_then(|l| rev_trace::json::parse(l).ok())
        else {
            eprintln!("seed {seed}: no result line");
            return ExitCode::FAILURE;
        };
        let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
        all_correct &= correct;
        let attempted = result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        let failed = result.get("failed").and_then(Json::as_u64).unwrap_or(0);
        shares.push((failed, attempted));
        let mut line =
            format!("seed {seed}: correct={correct} attempted={attempted} failed={failed}");
        if let Some(Json::Obj(metrics)) = result.get("metrics") {
            for (name, m) in metrics {
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("").to_string();
                let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                line.push_str(&format!(" {name}={v:.4}"));
                values.entry(name.clone()).or_insert_with(|| (unit, Vec::new())).1.push(v);
            }
        }
        eprintln!("{line}");
    }
    println!("{host}");
    println!(
        "workload {workload}: {runs} runs of {seconds} s, seeds {first_seed}..{}, trace {trace}; \
         all correct: {all_correct}; failed/attempted per run: {shares:?}",
        first_seed + runs - 1
    );
    println!(
        "{:<30} {:>10} {:>14} {:>14} {:>14} {:>8}",
        "metric", "unit", "median", "q1", "q3", "spread"
    );
    for (name, (unit, v)) in &values {
        let (q1, q2, q3) = quartiles(v);
        let spread = if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2 };
        println!("{name:<30} {unit:>10} {q2:>14.4} {q1:>14.4} {q3:>14.4} {spread:>8.4}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
