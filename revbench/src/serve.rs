//! `serve-closed`: the rev-serve gateway as users run it — two workers,
//! the default slice and checkpoint cadence — driven by one client on one
//! connection that keeps two jobs outstanding and submits the next job
//! when a verdict arrives (a closed loop: callers wait for their verdict).
//!
//! The job mix is drawn from the seed: every profile once per round of
//! 18 jobs, with validation mode, SC size and instruction budget assigned
//! in seeded balanced permutations, and each round's order shuffled. The
//! rounds repeat the same 18 recipes.

use crate::machine::build_machine;
use crate::tally::{CoreTally, Layers};
use crate::trace::{Trace, NO_SPAN};
use crate::{Report, RunConfig};
use rev_core::{linked_tables, RevReport, RevSimulator, Session, SessionStatus, ValidationMode};
use rev_serve::proto::VerdictOutcome;
use rev_serve::{
    serve, verdict_snapshot, JobConfig, JobSpec, Request, Response, ServeOptions, PROTOCOL,
};
use rev_trace::Json;
use rev_workloads::{generate, SpecProfile, ALL_PROFILES};
use revbench::stats::{median, shuffle, splitmix, tail};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::time::Instant;

/// Gateway worker threads.
const WORKERS: usize = 2;
/// Jobs the client keeps in flight.
const OUTSTANDING: usize = 2;
/// Quick size: the static-footprint scale of `--quick`.
const SCALE: f64 = 0.05;
/// Warmup of every job.
const WARMUP: u64 = 50_000;
/// Measurement windows: a round's 18 jobs take evenly spaced windows
/// from the first to the second — a spread of job sizes with no gaps, so
/// the median job is never poised between two clusters.
const BUDGETS: (u64, u64) = (100_000, 300_000);
/// Validation modes, assigned in equal shares.
const MODES: [ValidationMode; 3] =
    [ValidationMode::Standard, ValidationMode::Aggressive, ValidationMode::CfiOnly];
/// Signature-cache sizes in KiB, assigned in equal shares.
const SC_KIB: [u64; 2] = [32, 64];

/// The 18 recipes of a seed: one per profile.
fn recipes(seed: u64) -> Vec<JobSpec> {
    let n = ALL_PROFILES.len();
    let spread = |k: usize, salt: u64| {
        let mut v: Vec<usize> = (0..n).map(|i| i % k).collect();
        shuffle(&mut v, splitmix(seed ^ salt));
        v
    };
    let (modes, scs, budgets) = (spread(MODES.len(), 1), spread(SC_KIB.len(), 2), spread(n, 3));
    let budget = |k: usize| {
        let step = (BUDGETS.1 - BUDGETS.0) / (n as u64 - 1);
        BUDGETS.0 + k as u64 * step / 1000 * 1000
    };
    ALL_PROFILES
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut spec = JobSpec::new(format!("r{i}"), p.name, budget(budgets[i]));
            spec.warmup = WARMUP;
            spec.scale = SCALE;
            spec.config =
                JobConfig { mode: MODES[modes[i]], sc_kib: SC_KIB[scs[i]], ..JobConfig::default() };
            spec
        })
        .collect()
}

/// The recipe the `job`-th submission runs.
fn recipe_of(job: usize, seed: u64) -> usize {
    let n = ALL_PROFILES.len();
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(&mut order, splitmix(seed ^ 0x5e5e ^ (job / n) as u64));
    order[job % n]
}

fn profile(spec: &JobSpec) -> SpecProfile {
    SpecProfile::by_name(&spec.profile).expect("built-in profile").scaled(spec.scale)
}

/// One job as the client saw it.
struct Job {
    recipe: usize,
    submitted: Instant,
    accepted: Option<Instant>,
    first_progress: Option<Instant>,
    verdict: Option<(Instant, VerdictOutcome, Json)>,
}

/// What the closed loop produced.
struct Loop {
    jobs: Vec<Job>,
    seconds: f64,
    counters: Json,
    failed: u64,
}

fn send(w: &mut impl Write, req: &Request) {
    writeln!(w, "{}", req.to_json().render()).expect("the gateway reads until shutdown");
}

/// Runs the closed loop against an in-process gateway on a pipe pair.
fn closed_loop(cfg: &RunConfig, recipes: &[JobSpec]) -> Loop {
    let (req_r, mut req_w) = std::io::pipe().expect("pipe");
    let (resp_r, resp_w) = std::io::pipe().expect("pipe");
    let opts = ServeOptions { workers: WORKERS, ..ServeOptions::default() };
    std::thread::scope(|scope| {
        let gateway = scope.spawn(move || serve(BufReader::new(req_r), resp_w, &opts));
        let mut lines = BufReader::new(resp_r).lines();
        let mut next = || -> Response {
            let line = lines.next().expect("the gateway answers").expect("readable");
            Response::from_json(&rev_trace::json::parse(&line).expect("json line"))
                .expect("response")
        };
        send(&mut req_w, &Request::Hello { proto: PROTOCOL.to_string() });
        assert!(matches!(next(), Response::Hello { .. }), "gateway greets first");
        let per_round = recipes.len();
        let mut jobs: Vec<Job> = Vec::new();
        let mut in_flight = 0;
        let mut failed = 0;
        let start = Instant::now();
        loop {
            while in_flight < OUTSTANDING
                && (start.elapsed().as_secs_f64() < cfg.seconds
                    || !jobs.len().is_multiple_of(per_round))
            {
                let recipe = recipe_of(jobs.len(), cfg.seed);
                let mut spec = recipes[recipe].clone();
                spec.id = format!("j{}", jobs.len());
                jobs.push(Job {
                    recipe,
                    submitted: Instant::now(),
                    accepted: None,
                    first_progress: None,
                    verdict: None,
                });
                send(&mut req_w, &Request::Submit(Box::new(spec)));
                in_flight += 1;
            }
            if in_flight == 0 {
                break;
            }
            let resp = next();
            let now = Instant::now();
            let job = |id: &str| id.strip_prefix('j').and_then(|n| n.parse::<usize>().ok());
            match resp {
                Response::Accepted { id, .. } => {
                    if let Some(j) = job(&id) {
                        jobs[j].accepted = Some(now);
                    }
                }
                Response::Progress { id, .. } => {
                    if let Some(j) = job(&id) {
                        jobs[j].first_progress.get_or_insert(now);
                    }
                }
                Response::Verdict { id, outcome, snapshot } => {
                    if let Some(j) = job(&id) {
                        jobs[j].verdict = Some((now, outcome, snapshot));
                    }
                    in_flight -= 1;
                }
                Response::Error { id: Some(_), .. } | Response::Cancelled { .. } => {
                    failed += 1;
                    in_flight -= 1;
                }
                _ => {}
            }
        }
        let seconds = start.elapsed().as_secs_f64();
        send(&mut req_w, &Request::Shutdown { suspend: false });
        drop(req_w);
        let mut counters = Json::Null;
        loop {
            match next() {
                Response::Metrics { metrics } => counters = metrics,
                Response::Bye => break,
                _ => {}
            }
        }
        gateway.join().expect("gateway thread");
        Loop { jobs, seconds, counters, failed }
    })
}

/// The reference verdict of a recipe, computed apart from the gateway:
/// `RevSimulator::new` → `warmup` → `run`.
fn reference(spec: &JobSpec) -> RevReport {
    let mut sim = RevSimulator::new(generate(&profile(spec)), spec.config.to_rev_config())
        .expect("workload builds");
    sim.warmup(spec.warmup);
    sim.run(spec.instructions)
}

/// The gateway's per-job work replayed through the public calls it
/// composes, every call inside a span; returns each recipe's replay time
/// and the per-layer values.
fn replay(
    recipes: &[JobSpec],
    used: &[usize],
    trace: &mut Trace,
) -> (BTreeMap<usize, f64>, Layers) {
    let slice = ServeOptions::default().slice;
    let mut replay_ms = BTreeMap::new();
    let mut tally = CoreTally::default();
    let (mut seals, mut envelopes) = (Vec::new(), Vec::new());
    let mut layers = Layers::new();
    for &r in used {
        let spec = &recipes[r];
        let id = r as u64;
        let root = trace.open("serve.replay", NO_SPAN, id);
        let t0 = Instant::now();
        let program = trace.time("prog.generate", root, id, || generate(&profile(spec)));
        let mut sim = trace.time("core.new", root, id, || {
            RevSimulator::new(program.clone(), spec.config.to_rev_config())
                .expect("workload builds")
        });
        let ((), warm_ns) = trace.time_ns("core.warmup", root, id, || sim.warmup(spec.warmup));
        let mut session = Session::new(sim, spec.instructions);
        let recipe = Request::Submit(Box::new(spec.clone())).to_json().render().into_bytes();
        let mut run_ns = 0.0;
        let report = loop {
            let (status, ns) = trace.time_ns("core.session_run", root, id, || session.run(slice));
            run_ns += ns;
            match status {
                SessionStatus::Yielded { .. } => {
                    let (env, ns) =
                        trace.time_ns("ckpt.seal", root, id, || session.checkpoint(&recipe));
                    seals.push(ns / 1e6);
                    envelopes.push(env.map_or(0.0, |e| e.len() as f64 / 1024.0));
                }
                SessionStatus::Done(report) => break *report,
            }
        };
        trace
            .time("serve.verdict_snapshot", root, id, || verdict_snapshot(spec, &report).to_json());
        trace.close(root);
        replay_ms.insert(r, t0.elapsed().as_secs_f64() * 1e3);
        let ((_, stats), ns) = trace.time_ns("sigtable.build", NO_SPAN, id, || {
            linked_tables(&program, &spec.config.to_rev_config()).expect("workload builds")
        });
        *layers.entry("sigtable.build_ms").or_default() += ns / 1e6;
        *layers.entry("sigtable.entries").or_default() +=
            stats.iter().map(|t| (t.primaries + t.spills) as f64).sum::<f64>();
        *layers.entry("core.warmup_ms").or_default() += warm_ns / 1e6;
        let sim = session.into_simulator();
        let (base, base_ns) = trace.time_ns("cpu.base", NO_SPAN, id, || {
            sim.run_baseline_with_warmup(spec.warmup, spec.instructions)
        });
        tally.add_base(base_ns, spec.warmup, &base);
        tally.add_rev(warm_ns + run_ns, spec.warmup, &report, base_ns);
    }
    tally.insert_into(&mut layers);
    let per_entry = layers["sigtable.build_ms"] * 1e6 / layers["sigtable.entries"].max(1.0);
    layers.insert("sigtable.build_ns_per_entry", per_entry);
    layers.insert("ckpt.seal_ms", median(&seals));
    layers.insert("ckpt.envelope_kib", median(&envelopes));
    (replay_ms, layers)
}

fn ms(later: Instant, earlier: Instant) -> f64 {
    later.saturating_duration_since(earlier).as_secs_f64() * 1e3
}

pub fn run(cfg: &RunConfig, trace: &mut Trace) -> Report {
    let mut report = Report::default();
    let recipes = recipes(cfg.seed);
    report.notes.push(format!(
        "inputs: seed {} draws 18 recipes, one per profile at scale {SCALE}, warmup {WARMUP}, \
         windows spaced evenly over {BUDGETS:?}, modes standard/aggressive/cfi-only, SC {SC_KIB:?} KiB; \
         rounds of 18 jobs repeat them; {WORKERS} workers, {OUTSTANDING} jobs outstanding",
        cfg.seed
    ));
    if !trace.enabled() {
        let mut off = Trace::new(false);
        let setup: f64 = recipes
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                build_machine(
                    &profile(spec),
                    &spec.config.to_rev_config(),
                    spec.warmup,
                    &mut off,
                    i as u64,
                )
                .seconds
            })
            .sum();
        report.metrics.insert("setup_s", setup);
    }
    let lp = closed_loop(cfg, &recipes);
    report.attempted = lp.jobs.len() as u64;
    report.failed = lp.failed;
    let mut used: Vec<usize> = lp.jobs.iter().map(|j| j.recipe).collect();
    used.sort_unstable();
    used.dedup();
    let references: BTreeMap<usize, RevReport> =
        used.iter().map(|&r| (r, reference(&recipes[r]))).collect();
    let mut ttv = Vec::new();
    let mut instrs = 0;
    for (n, job) in lp.jobs.iter().enumerate() {
        let Some((at, outcome, payload)) = &job.verdict else { continue };
        let spec = &recipes[job.recipe];
        report.check(matches!(outcome, VerdictOutcome::Budget), || {
            format!("job j{n} ({}) ended {}", spec.profile, outcome.as_str())
        });
        let mut named = spec.clone();
        named.id = format!("j{n}");
        let expect = verdict_snapshot(&named, &references[&job.recipe]).to_json();
        report.check(payload.render() == expect.render(), || {
            format!("job j{n} ({}): verdict payload differs from the reference run", spec.profile)
        });
        instrs += references[&job.recipe].cpu.committed_instrs;
        ttv.push(ms(*at, job.submitted));
    }
    report.notes.push(format!(
        "jobs: {} in {:.3} s ({} jobs/s); tail is p{} of time to verdict",
        lp.jobs.len(),
        lp.seconds,
        ttv.len() as f64 / lp.seconds,
        tail(&ttv).0
    ));
    if trace.enabled() {
        report.notes.push(format!("traced unit_p50_ms={}", median(&ttv)));
        for (n, job) in lp.jobs.iter().enumerate() {
            let id = n as u64;
            let Some((at, ..)) = job.verdict else { continue };
            let root = trace.record("serve.job", NO_SPAN, id, job.submitted, at);
            if let Some(t) = job.accepted {
                trace.record("serve.accept", root, id, job.submitted, t);
            }
            if let Some(t) = job.first_progress {
                trace.record("serve.first_progress", root, id, job.submitted, t);
            }
        }
        let (replay_ms, mut layers) = replay(&recipes, &used, trace);
        let since = |f: fn(&Job) -> Option<Instant>| {
            median(
                &lp.jobs
                    .iter()
                    .filter_map(|j| f(j).map(|t| ms(t, j.submitted)))
                    .collect::<Vec<_>>(),
            )
        };
        layers.insert("serve.accept_ms", since(|j| j.accepted));
        layers.insert("serve.first_progress_ms", since(|j| j.first_progress));
        let overhead: Vec<f64> = lp
            .jobs
            .iter()
            .filter_map(|j| {
                j.verdict.as_ref().map(|(at, ..)| ms(*at, j.submitted) - replay_ms[&j.recipe])
            })
            .collect();
        layers.insert("serve.overhead_ms", median(&overhead));
        let counter = |name| lp.counters.get(name).and_then(Json::as_u64).unwrap_or(0) as f64;
        layers.insert("serve.slices", counter("serve.slices"));
        layers.insert("ckpt.taken", counter("ckpt.taken"));
        report.metrics.extend(layers);
    } else {
        report.metrics.insert("unit_p50_ms", median(&ttv));
        report.metrics.insert("unit_tail_ms", tail(&ttv).1);
        report.metrics.insert("minstr_per_s", instrs as f64 / lp.seconds / 1e6);
    }
    report
}
