//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload: it builds the inputs from `--seed`,
//! times warm reps back to back for `--seconds`, checks every rep's
//! outputs, and prints each metric with its unit and spread. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed`, and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. A traced run also writes its spans
//! as Chrome trace-event JSON under `benchmark/out/`, and every run
//! appends a record with its provenance and spreads to
//! `benchmark/out/runs.jsonl`. See `benchmark/README.md`.

mod fleet;
mod native;
mod run;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use klotski_tensor::simd::{cpu_features, detected_backend};

use crate::run::{HostLog, Measured, Metric};

/// Which metrics a run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Untraced: the end-to-end metrics.
    EndToEnd,
    /// Traced: the per-layer metrics.
    Traced,
}

/// The seed of every simulated input: the fleets' request trace, fault
/// plan and per-group gating traces, and the native workloads' simulated
/// counterpart (the bench binaries' evaluation seed). It is fixed, not
/// taken from `--seed`: the fleets' TTFT percentiles are chaotic in their
/// inputs (over ten seeds the faults fleet's p50 and p99 spread 28% and
/// 29% between quartiles, and still 21% at p99 when only the gating
/// traces change), so only fixed inputs make the `sim_*` metrics exact
/// guards that read the same in every run. `--seed` draws the native
/// workloads' prompts.
pub const SIM_SEED: u64 = 2025;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "native_dense_b32",
    "native_q4_b4",
    "fleet_klotski_faults",
    "fleet_continuous",
];

/// End-to-end metrics (name, unit), as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 8] = [
    ("tokens_per_s", "tok/s"),
    ("sim_requests_per_s", "req/s"),
    ("sim_goodput_tok_s", "sim_tok/s"),
    ("sim_ttft_p50_s", "sim_s"),
    ("sim_ttft_p99_s", "sim_s"),
    ("completed_frac", "share"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (name, unit), as `BENCHMARK.json` lists them. A
/// layer a workload does not exercise reports 0.
const PER_LAYER: [(&str, &str); 37] = [
    ("store.build_ms", "ms"),
    ("store.fetch_ms", "ms"),
    ("store.fetch_count", "count"),
    ("store.fetch_mb", "MB"),
    ("pipeline.wall_ms", "ms"),
    ("pipeline.serial_ms", "ms"),
    ("pipeline.overlap_x", "x"),
    ("prefetch.hit_ratio", "share"),
    ("prefetch.misses", "count"),
    ("moe.attention_ms", "ms"),
    ("expert.compute_ms", "ms"),
    ("expert.tokens", "count"),
    ("expert.gflop_s", "GFLOP/s"),
    ("moe.gate_ms", "ms"),
    ("moe.combine_ms", "ms"),
    ("moe.embed_logits_ms", "ms"),
    ("engine.calls", "count"),
    ("engine.run_ms", "ms"),
    ("engine.schedule_ms", "ms"),
    ("engine.sim_bubble_frac", "share"),
    ("prefetcher.warmup_ms", "ms"),
    ("model.trace_gen_ms", "ms"),
    ("serve.loop_ms", "ms"),
    ("serve.groups", "count"),
    ("serve.group_fill", "share"),
    ("serve.queue_delay_p99_s", "sim_s"),
    ("cluster.replica_hours", "sim_h"),
    ("cluster.peak_replicas", "count"),
    ("faults.retried", "count"),
    ("faults.wasted_busy_s", "sim_s"),
    ("continuous.refills", "count"),
    ("continuous.preemptions", "count"),
    ("continuous.prefill_chunks", "count"),
    ("continuous.occupancy", "share"),
    ("metrics.summarize_ms", "ms"),
    ("traffic.generate_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

const USAGE: &str =
    "usage: klotski-benchmark --workload <name> --seed <n> --seconds <1..=60> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    mode: Mode,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut mode) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload {value:?}; one of {}",
                        WORKLOADS.join(", ")
                    ));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => {
                let s = number(&value)?;
                if !(1..=60).contains(&s) {
                    return Err(format!("--seconds must be 1..=60, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                mode = Some(match value.as_str() {
                    "0" => Mode::EndToEnd,
                    "1" => Mode::Traced,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        mode: mode.ok_or("--trace is required")?,
    })
}

/// The benchmark package's directory (inside the checkout it was built
/// from).
fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The checkout's git revision, read from `.git/HEAD` without running
/// git; "unknown" outside a git repository.
fn git_revision() -> String {
    let Some(root) = bench_dir().parent() else {
        return "unknown".into();
    };
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_owned()))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String");
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A metric value as a JSON number, with every digit Rust's shortest
/// round-trip formatting gives.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Puts the run's metrics in `BENCHMARK.json` order: fills layers the
/// workload does not exercise with 0 (traced runs), and fails a check if
/// an expected metric is missing, unexpected, or not finite.
fn complete(m: &mut Measured, mode: Mode) {
    let expected: &[(&str, &str)] = match mode {
        Mode::EndToEnd => &END_TO_END,
        Mode::Traced => &PER_LAYER,
    };
    let mut ordered = Vec::with_capacity(expected.len());
    for &(name, unit) in expected {
        match m.metrics.iter().position(|x| x.name == name) {
            Some(i) => {
                let metric = m.metrics.swap_remove(i);
                if metric.unit != unit || !metric.value.is_finite() {
                    m.check(format!("{name} is finite and in {unit}"), false);
                }
                ordered.push(metric);
            }
            None if mode == Mode::Traced => ordered.push(Metric::exact(
                name,
                unit,
                0.0,
                "layer not exercised by this workload",
            )),
            None => {
                m.check(format!("{name} was measured"), false);
                ordered.push(Metric::exact(name, unit, f64::NAN, "missing"));
            }
        }
    }
    for extra in std::mem::replace(&mut m.metrics, ordered) {
        m.check(format!("{} is a listed metric", extra.name), false);
    }
}

fn provenance(args: &Args, m: &Measured) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\":{},\"seed\":{},\"mode\":\"{}\",\"seconds\":{},\"reps\":{},\"nproc\":{},\
         \"compute_workers\":{},\"backend\":{},\"cpu_features\":{},\"git_rev\":{}}}",
        json_str(&args.workload),
        args.seed,
        match args.mode {
            Mode::EndToEnd => "end_to_end",
            Mode::Traced => "traced",
        },
        args.seconds,
        m.reps,
        nproc,
        m.compute_workers,
        json_str(detected_backend().name()),
        json_str(&cpu_features()),
        json_str(&git_revision()),
    )
}

fn metrics_json(metrics: &[Metric], with_spread: bool) -> String {
    let mut out = String::from("{");
    for (i, x) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}",
            json_str(x.name),
            json_num(x.value),
            json_str(x.unit)
        )
        .expect("writing to a String");
        if let (true, Some(s)) = (with_spread, x.spread) {
            let samples: Vec<String> = x.samples.iter().map(|&v| json_num(v)).collect();
            write!(
                out,
                ", \"n\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"samples\": [{}]",
                s.n,
                json_num(s.q1),
                json_num(s.median),
                json_num(s.q3),
                samples.join(", ")
            )
            .expect("writing to a String");
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// The host log as metrics of their own: printed and recorded with the
/// run, but not part of its result line.
fn host_metrics(host: &HostLog) -> Vec<Metric> {
    if host.wall_s.is_empty() {
        return Vec::new();
    }
    vec![
        Metric::median(
            "host.wall_s",
            "s",
            &host.wall_s,
            "plain wall time per timed rep, steal included",
        ),
        Metric::median(
            "host.stolen_s",
            "s",
            &host.stolen_s,
            "CPU time the hypervisor stole from the machine per timed rep",
        ),
        Metric::median(
            "host.cpu_s",
            "s",
            &host.cpu_s,
            "this process's CPU time per timed rep",
        ),
    ]
}

fn print_human(args: &Args, m: &Measured, host: &[Metric], provenance: &str) {
    println!(
        "klotski benchmark: {} seed {} ({} s, {})",
        args.workload,
        args.seed,
        args.seconds,
        match args.mode {
            Mode::EndToEnd => "end-to-end metrics",
            Mode::Traced => "traced: per-layer metrics",
        }
    );
    println!("provenance: {provenance}");
    for x in m.metrics.iter().chain(host) {
        let spread = match x.spread {
            Some(s) => format!(
                "{} of {} reps [q1 {:.6}, median {:.6}, q3 {:.6}; spread {:.1}%]",
                if x.value == s.median { "median" } else { "q1" },
                s.n,
                s.q1,
                s.median,
                s.q3,
                s.rel_iqr() * 100.0
            ),
            None => "exact".into(),
        };
        println!(
            "  {:<26} {:>16.6} {:<10} {spread} -- {}",
            x.name, x.value, x.unit, x.note
        );
    }
    for (what, ok) in &m.checks {
        println!("  check {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    for note in &m.notes {
        println!("  note: {note}");
    }
}

/// Writes `contents` to `benchmark/out/<name>` (appending if asked),
/// reporting instead of failing if the directory is not writable.
fn write_out(name: &str, contents: &str, append: bool) -> Option<PathBuf> {
    let dir = bench_dir().join("out");
    let path = dir.join(name);
    let result = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(append)
            .write(true)
            .truncate(!append)
            .open(&path)?;
        file.write_all(contents.as_bytes())?;
        file.flush()
    });
    match result {
        Ok(()) => Some(path),
        Err(e) => {
            println!("  note: could not write {}: {e}", path.display());
            None
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let mut m = match args.workload.as_str() {
        "native_dense_b32" => native::run(&native::DENSE_B32, args.seed, budget, args.mode),
        "native_q4_b4" => native::run(&native::Q4_B4, args.seed, budget, args.mode),
        "fleet_klotski_faults" => fleet::run(fleet::Fleet::KlotskiFaults, budget, args.mode),
        "fleet_continuous" => fleet::run(fleet::Fleet::Continuous, budget, args.mode),
        other => unreachable!("parse_args admits only listed workloads, got {other}"),
    };
    complete(&mut m, args.mode);
    let provenance = provenance(&args, &m);
    let host = host_metrics(&m.host);
    print_human(&args, &m, &host, &provenance);
    if let Some(chrome) = &m.chrome {
        let name = format!("trace-{}-seed{}.json", args.workload, args.seed);
        if let Some(path) = write_out(&name, chrome, false) {
            println!("  chrome trace: {}", path.display());
        }
    }
    let record = format!(
        "{{\"run\": {provenance}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"metrics\": {}, \"host\": {}}}\n",
        m.correct(),
        m.attempted,
        m.failed,
        metrics_json(&m.metrics, true),
        metrics_json(&host, true)
    );
    write_out("runs.jsonl", &record, true);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        m.correct(),
        m.attempted.max(1),
        m.failed,
        metrics_json(&m.metrics, false)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload fleet_continuous --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.mode), (7, 10, Mode::Traced));
        assert!(args("--workload nope --seed 1 --seconds 10 --trace 0").is_err());
        assert!(args("--workload fleet_continuous --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload fleet_continuous --seed 1 --seconds 10").is_err());
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = std::fs::read_to_string(bench_dir().join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert_eq!(json.matches(&entry).count(), 1, "{entry}");
        }
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
        assert_eq!(
            json.matches("\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
        );
    }
}
