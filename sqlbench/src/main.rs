//! The strcalc SQL benchmark: three seeded workloads through the public
//! SQL surface, one closed-loop client on one thread.
//!
//! ```text
//! cargo run --release --offline --manifest-path sqlbench/Cargo.toml -- \
//!     --workload <adhoc_small|scan_large|prepared_rw> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path sqlbench/Cargo.toml -- --selftest
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs a
//! fixed number of operations, every other one traced, and reports the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Workloads,
//! sizes and the metric predictions are in `workloads.json`.

mod reference;
mod rng;
mod statements;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use strcalc_core::Strategy;
use trace::{quantile, Tracer};
use workload::{Env, Kind, Op, Run, Tr};

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// The outcome of one run.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// The first few failures, with their statements.
    failures: Vec<String>,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Tallies failures as operations are checked.
#[derive(Default)]
struct Failures {
    count: u64,
    shown: Vec<String>,
}

impl Failures {
    fn record(&mut self, run: &Run, op: &Op, why: impl std::fmt::Display) {
        self.count += 1;
        if self.shown.len() < 5 {
            self.shown.push(format!("{}: {why}", run.sql_of(op)));
        }
    }
}

/// When an untraced run stops.
enum Stop {
    /// At the first pass boundary after this many seconds of wall time,
    /// or at `cap` seconds wherever the run is.
    Seconds {
        wall: f64,
        cap: f64,
    },
    Ops(u64),
}

/// The end-to-end run: set-up repeated `setup_reps` times, then a closed
/// loop of operations with tracing off. `setup_s` is the best set-up.
///
/// The stream repeats passes of identical work (`Kind::pass_ops`), and
/// each position of a pass keeps its best time over the run's passes.
/// The host's speed drifts in phases of seconds to minutes; a
/// position's best time is its time in the run's fastest phase, which
/// takes out every phase shorter than the run.
fn measure(kind: Kind, seed: u64, stop: Stop, corrupt_at: Option<u64>) -> Outcome {
    let env = Arc::new(Env::new());
    let reps = kind.setup_reps();
    let mut setups = Vec::with_capacity(reps);
    let mut set_up = || {
        let t = Instant::now();
        let run = Run::setup(kind, seed, &env, None);
        setups.push(t.elapsed().as_secs_f64());
        run
    };
    let mut run = set_up();

    let pass = kind.pass_ops();
    // Best time of each position of the pass, and whether it is a read.
    let mut best_ns = vec![u128::MAX; pass as usize];
    let mut is_read = vec![false; pass as usize];
    let mut fails = Failures::default();
    let mut attempted = 0u64;
    let wall = Instant::now();
    let mut setups_done = 1;
    loop {
        let progress = match stop {
            Stop::Seconds { wall: secs, cap } => {
                let t = wall.elapsed().as_secs_f64();
                if t >= cap {
                    break;
                }
                // Only whole passes, so every position is timed equally often.
                if attempted.is_multiple_of(pass) {
                    t / secs
                } else {
                    (t / secs).min(0.99)
                }
            }
            Stop::Ops(n) => attempted as f64 / n as f64,
        };
        // The remaining set-ups are spread evenly over the run, outside
        // the timed work, so that like every position of the pass they
        // meet the run's fastest phase.
        while setups_done < reps && progress >= setups_done as f64 / reps as f64 {
            drop(set_up());
            setups_done += 1;
        }
        if progress >= 1.0 {
            break;
        }
        let op = run.next_op();
        if corrupt_at == Some(attempted) {
            run.corrupt_next = true;
        }
        let pos = (attempted % pass) as usize;
        attempted += 1;
        let t = Instant::now();
        if let Op::Write(name, dept) = &op {
            let res = run.write(name, dept, &mut None);
            best_ns[pos] = best_ns[pos].min(t.elapsed().as_nanos());
            match res {
                Ok(()) => run.mirror_write(name.clone(), dept.clone()),
                Err(e) => fails.record(&run, &op, e),
            }
        } else {
            let res = run.read(&op, &mut None);
            best_ns[pos] = best_ns[pos].min(t.elapsed().as_nanos());
            is_read[pos] = true;
            if let Err(why) = run.check(&op, &res) {
                fails.record(&run, &op, why);
            }
        }
    }

    let timed: Vec<(u128, bool)> = best_ns
        .into_iter()
        .zip(is_read)
        .filter(|&(ns, _)| ns != u128::MAX)
        .collect();
    let mut latencies_ms: Vec<f64> = timed
        .iter()
        .filter(|&&(_, read)| read)
        .map(|&(ns, _)| ns as f64 / 1e6)
        .collect();
    let pass_s: f64 = timed.iter().map(|&(ns, _)| ns as f64 / 1e9).sum();
    let metrics = vec![
        metric("latency_p50_ms", quantile(&mut latencies_ms, 0.5), "ms"),
        metric("latency_p90_ms", quantile(&mut latencies_ms, 0.9), "ms"),
        // One pass at every position's best time.
        metric("ops_per_s", timed.len() as f64 / pass_s, "1/s"),
        metric(
            "ok_ratio",
            (attempted - fails.count) as f64 / attempted as f64,
            "ratio",
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("setup_s", quantile(&mut setups, 0.0), "s"),
    ];
    Outcome {
        attempted,
        failed: fails.count,
        failures: fails.shown,
        metrics,
    }
}

/// The traced run: a fixed number of operations from one set-up,
/// alternately traced and untraced. Counts cover every operation;
/// timings come from the traced ones, and `trace.overhead` compares
/// the two halves' median read latency.
fn traced(kind: Kind, seed: u64, ops: u64, spans_out: Option<PathBuf>) -> Outcome {
    let env = Arc::new(Env::new());
    let mut tracer = Tracer::new();
    let mut run = Run::setup(kind, seed, &env, Some(&mut tracer));
    let stats0 = run.cache_stats();

    let mut fails = Failures::default();
    let (mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new());
    let mut routes: BTreeMap<&'static str, u64> = [
        Strategy::Automata,
        Strategy::ActiveDomainEnum,
        Strategy::BoundedSearch,
        Strategy::LikeLinearScan,
        Strategy::DenseDfaScan,
    ]
    .into_iter()
    .map(|s| (s.name(), 0))
    .collect();
    let (mut rows_out, mut states, mut degraded) = (0u64, 0u64, 0u64);
    let (mut scan_rows, mut scan_ns) = (0u64, 0u64);

    for i in 0..ops {
        let op = run.next_op();
        let on = kind.traces_op(i);
        let root = on.then(|| {
            let req = tracer.next_req();
            (req, tracer.open(req, "request", None))
        });
        let mut tr = root.map(|(req, root)| Tr {
            tracer: &mut tracer,
            req,
            root,
        });
        let t = Instant::now();
        if let Op::Write(name, dept) = &op {
            let res = run.write(name, dept, &mut tr);
            if let Some((_, root)) = root {
                tracer.close(root);
            }
            match res {
                Ok(()) => run.mirror_write(name.clone(), dept.clone()),
                Err(e) => fails.record(&run, &op, e),
            }
            continue;
        }
        let res = run.read(&op, &mut tr);
        let ns = t.elapsed().as_nanos() as f64;
        if let Some((req, root)) = root {
            traced_ms.push(tracer.close(root).dur_ns() as f64 / 1e6);
            // Scan throughput from this request's execute span.
            if let Some(s) = tracer.spans[root..]
                .iter()
                .find(|s| s.name == "exec.execute")
            {
                if matches!(s.strategy, Some("like-linear-scan" | "dense-dfa-scan")) {
                    scan_rows += run.faculty_rows() as u64;
                    scan_ns += s.dur_ns();
                }
            }
            if let Ok(r) = &res {
                run.reinvoke(&op, r, &mut tracer, req);
            }
        } else {
            plain_ms.push(ns / 1e6);
        }
        if let Ok(r) = &res {
            *routes.entry(r.report.strategy.name()).or_default() += 1;
            rows_out += r.out.len().unwrap_or(0) as u64;
            states += r.report.automaton_states as u64;
            degraded += u64::from(!r.report.degradations.is_empty());
        }
        if let Err(why) = run.check(&op, &res) {
            fails.record(&run, &op, why);
        }
    }
    let stats1 = run.cache_stats();

    if let Some(path) = spans_out {
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }

    // Self time per span name (and per strategy for executions).
    let own = tracer.self_ns();
    let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (s, &ns) in tracer.spans.iter().zip(&own) {
        let us = ns as f64 / 1e3;
        by_name.entry(s.name.to_string()).or_default().push(us);
        if s.name == "exec.execute" {
            let strategy = s.strategy.unwrap_or("failed");
            by_name
                .entry(format!("exec.{strategy}"))
                .or_default()
                .push(us);
            if strategy == "automata" {
                let key = if s.cache_hit == Some(true) {
                    "exec.hit"
                } else {
                    "exec.miss"
                };
                by_name.entry(key.to_string()).or_default().push(us);
            }
        }
    }
    let mut p50 = |name: &str| quantile(by_name.get_mut(name).map_or(&mut [][..], |v| v), 0.5);
    let plain_p50 = quantile(&mut plain_ms, 0.5);
    let traced_p50 = quantile(&mut traced_ms, 0.5);
    let analyze_us = p50("analyze.analyze");
    let first_plan_us = tracer
        .spans
        .iter()
        .zip(&own)
        .find(|(s, _)| s.name == "plan.plan")
        .map_or(0.0, |(_, &ns)| ns as f64 / 1e3);

    let mut metrics = vec![
        metric("sqlfront.parse_us", p50("sqlfront.parse"), "us"),
        metric("sqlfront.compile_us", p50("sqlfront.compile"), "us"),
        metric("core.infer_us", p50("core.infer"), "us"),
        metric("analyze.analyze_us", analyze_us, "us"),
        metric("analyze.share", analyze_us / (plain_p50 * 1e3), "ratio"),
        metric("plan.plan_us", p50("plan.plan"), "us"),
        metric("plan.plan_first_us", first_plan_us, "us"),
        metric("plan.verify_us", p50("plan.verify"), "us"),
    ];
    for (strategy, n) in &routes {
        metrics.push(metric(
            format!("plan.routes.{strategy}"),
            *n as f64,
            "count",
        ));
    }
    metrics.extend([
        metric(
            "exec.like-linear-scan_us",
            p50("exec.like-linear-scan"),
            "us",
        ),
        metric("exec.dense-dfa-scan_us", p50("exec.dense-dfa-scan"), "us"),
        metric("exec.automata_us", p50("exec.automata"), "us"),
        metric(
            "exec.scan_rows_per_s",
            scan_rows as f64 / (scan_ns as f64 / 1e9),
            "rows/s",
        ),
        metric("exec.rows_out", rows_out as f64, "count"),
        metric("exec.automaton_states", states as f64, "count"),
        metric("exec.degraded", degraded as f64, "count"),
        metric("exec.hit_us", p50("exec.hit"), "us"),
        metric("exec.miss_us", p50("exec.miss"), "us"),
        metric(
            "cache.hit_rate",
            {
                let (h, m) = (stats1[0] - stats0[0], stats1[1] - stats0[1]);
                if h + m == 0 {
                    0.0
                } else {
                    h as f64 / (h + m) as f64
                }
            },
            "ratio",
        ),
        metric("cache.misses", (stats1[1] - stats0[1]) as f64, "count"),
        metric("cache.evictions", (stats1[2] - stats0[2]) as f64, "count"),
        metric("cache.bytes", stats1[3] as f64 - stats0[3] as f64, "bytes"),
        metric("relational.insert_us", p50("relational.insert"), "us"),
        metric(
            "relational.fingerprint_us",
            p50("relational.fingerprint"),
            "us",
        ),
        metric("request.self_us", p50("request"), "us"),
        metric("trace.overhead", traced_p50 / plain_p50, "ratio"),
        metric("trace.requests", tracer.requests() as f64, "count"),
    ]);
    Outcome {
        attempted: ops,
        failed: fails.count,
        failures: fails.shown,
        metrics,
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Checks the checker and the determinism of the counts.
fn selftest() -> bool {
    let mut ok = true;
    for kind in Kind::ALL {
        let ops = match kind {
            Kind::ScanLarge => 4,
            Kind::PreparedRw => workload::EPISODE_OPS + 30,
            Kind::AdhocSmall => 60,
        };
        // The reference check passes an honest run and catches one
        // corrupted answer.
        let clean = measure(kind, 7, Stop::Ops(ops), None);
        let bad = measure(kind, 7, Stop::Ops(ops), Some(1));
        let ratio = bad.failed as f64 / bad.attempted as f64;
        let pass = clean.failed == 0 && bad.failed == 1 && ratio > 0.0;
        println!(
            "{}: clean failed={} corrupted failed={} (failed_ratio {ratio:.4}) {}",
            kind.name(),
            clean.failed,
            bad.failed,
            if pass { "ok" } else { "FAIL" }
        );
        for f in clean.failures.iter().chain(&bad.failures) {
            println!("  {f}");
        }
        ok &= pass;

        // Two traced runs of one seed give the same counts.
        let t_ops = kind
            .trace_ops(10)
            .min(if kind == Kind::ScanLarge { 16 } else { 400 });
        let a = traced(kind, 11, t_ops, None);
        let b = traced(kind, 11, t_ops, None);
        let counts = |o: &Outcome| -> Vec<(String, f64)> {
            o.metrics
                .iter()
                // Counts and byte totals must repeat exactly for a seed.
                .filter(|m| matches!(m.unit, "count" | "bytes"))
                .map(|m| (m.name.clone(), m.value))
                .collect()
        };
        let same = counts(&a) == counts(&b) && a.failed == 0 && b.failed == 0;
        println!(
            "{}: counts repeat over {t_ops} traced-run ops: {} {:?}",
            kind.name(),
            if same { "ok" } else { "FAIL" },
            counts(&a)
        );
        ok &= same;
    }
    ok
}

struct Args {
    workload: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--selftest") {
        return if selftest() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sqlbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!(
            "out/spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        traced(
            args.workload,
            args.seed,
            args.workload.trace_ops(args.seconds),
            Some(path),
        )
    } else {
        let secs = args.seconds as f64;
        measure(
            args.workload,
            args.seed,
            Stop::Seconds {
                wall: secs,
                cap: (2.0 * secs).min(secs + 60.0),
            },
            None,
        )
    };
    for f in &outcome.failures {
        eprintln!("failed: {f}");
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
