//! `revbench` — one named workload of the REV reproduction, timed around
//! the public calls of the workspace crates.
//!
//! ```text
//! revbench --workload grid-quick|sim-full|serve-closed [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The run prints its host record and seed, checks the program's outputs,
//! and ends with one JSON line: `correct`, `attempted`, `failed` and the
//! metrics — the end-to-end ones untraced, the per-layer ones with
//! `--trace 1` (which also writes every span to `revbench/out/`).

mod grid;
mod machine;
mod serve;
mod simfull;
mod tally;
mod trace;

use rev_trace::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;
use trace::Trace;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// End-to-end metrics: every workload reports each of them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("unit_p50_ms", "ms"),
    ("unit_tail_ms", "ms"),
    ("minstr_per_s", "Minstr/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run. A workload that does no work in
/// a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("sigtable.build_ms", "ms"),
    ("sigtable.build_ns_per_entry", "ns/entry"),
    ("sigtable.entries", "count"),
    ("lint.audit_ms", "ms"),
    ("attacks.mount_ms", "ms"),
    ("pool.hits", "count"),
    ("pool.misses", "count"),
    ("core.warmup_ms", "ms"),
    ("core.fork_ms", "ms"),
    ("cpu.base_ns_per_instr", "ns/instr"),
    ("cpu.base_ns_per_cycle", "ns/cycle"),
    ("cpu.cycles", "count"),
    ("monitor.ns_per_instr", "ns/instr"),
    ("monitor.rev_over_base", "ratio"),
    ("monitor.bbcache_hit_ratio", "ratio"),
    ("ckpt.seal_ms", "ms"),
    ("ckpt.envelope_kib", "KiB"),
    ("serve.accept_ms", "ms"),
    ("serve.first_progress_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.slices", "count"),
    ("ckpt.taken", "count"),
];

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Seconds of measured work (whole units; the last one may overrun).
    pub seconds: f64,
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Every output check that did not hold.
    pub problems: Vec<String>,
    /// Metrics by name (end-to-end or per-layer, by trace mode).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Informative lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.problems.len() < 64 {
            self.problems.push(what());
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: revbench --workload grid-quick|sim-full|serve-closed \
         [--seed N (default {DEFAULT_SEED})] [--seconds S] [--trace 0|1]"
    );
    ExitCode::from(2)
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// `nproc`, CPU model, rustc version and commit: the host every figure
/// of this run belongs to.
fn host_record() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "host: nproc={nproc} cpu={cpu:?} rustc={:?} commit={}",
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "--short=12", "HEAD"]),
    )
}

/// How far the committed instruction mix of two runs of one program and
/// budget may differ: each run may overshoot its budget by less than one
/// commit group, at warmup's end and at the window's.
pub fn overshoot() -> u64 {
    2 * rev_core::CpuConfig::paper_default().width as u64
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut cfg = RunConfig { seed: DEFAULT_SEED, seconds: 10.0 };
    let mut traced = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { return usage() };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value);
                true
            }
            "--seed" => value.parse().map(|s| cfg.seed = s).is_ok(),
            "--seconds" => value.parse().map(|s| cfg.seconds = s).is_ok_and(|()| cfg.seconds > 0.0),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    traced = value == "1";
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let run: fn(&RunConfig, &mut Trace) -> Report = match workload.as_deref() {
        Some("grid-quick") => grid::run,
        Some("sim-full") => simfull::run,
        Some("serve-closed") => serve::run,
        _ => return usage(),
    };
    let name = workload.unwrap_or_default();
    println!("{}", host_record());
    println!(
        "workload: {name} seed={} seconds={} trace={}",
        cfg.seed,
        cfg.seconds,
        u8::from(traced)
    );
    let mut trace = Trace::new(traced);
    let mut report = run(&cfg, &mut trace);
    if traced {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{name}-seed{}.jsonl", cfg.seed));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, trace.to_jsonl()))
        {
            eprintln!("writing {}: {e}", path.display());
        }
    } else {
        report.metrics.insert("peak_rss_mib", peak_rss_mib());
        for (metric, _) in END_TO_END {
            let measured = report.metrics.get(metric).is_some_and(|v| *v > 0.0);
            report.check(measured, || format!("end-to-end metric {metric} was not measured"));
        }
    }
    for note in &report.notes {
        println!("{note}");
    }
    for problem in &report.problems {
        eprintln!("check failed: {problem}");
    }
    let wanted = if traced { PER_LAYER } else { END_TO_END };
    let metrics = wanted
        .iter()
        .map(|&(metric, unit)| {
            let value = report.metrics.get(metric).copied().unwrap_or(0.0);
            (
                metric,
                Json::obj(vec![("value", Json::Float(value)), ("unit", Json::Str(unit.into()))]),
            )
        })
        .collect();
    let result = Json::obj(vec![
        ("correct", Json::Bool(report.problems.is_empty())),
        ("attempted", Json::Int(i64::try_from(report.attempted).unwrap_or(i64::MAX))),
        ("failed", Json::Int(i64::try_from(report.failed).unwrap_or(i64::MAX))),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}
