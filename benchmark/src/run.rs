//! What one benchmark run produces, and the shared measuring helpers.

use std::time::{Duration, Instant};

use crate::stats::Spread;

/// One reported metric: its value (the median over reps for wall-clock
/// numbers) and, where it was measured per rep, its spread.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// Per-rep spread, when the value is a median over reps.
    pub spread: Option<Spread>,
    /// The per-rep samples behind `spread`, in the order measured.
    pub samples: Vec<f64>,
    /// How the value was derived (its base, sample count, ...).
    pub note: String,
}

impl Metric {
    /// A metric measured once (or exactly, so its reps cannot differ).
    pub fn exact(
        name: &'static str,
        unit: &'static str,
        value: f64,
        note: impl Into<String>,
    ) -> Self {
        Metric {
            name,
            unit,
            value,
            spread: None,
            samples: Vec::new(),
            note: note.into(),
        }
    }

    /// A metric reported as the median of its per-rep `values`.
    pub fn median(
        name: &'static str,
        unit: &'static str,
        values: &[f64],
        note: impl Into<String>,
    ) -> Self {
        let spread = Spread::of(values);
        Metric {
            name,
            unit,
            value: spread.median,
            spread: Some(spread),
            samples: values.to_vec(),
            note: note.into(),
        }
    }

    /// A throughput reported as the lower quartile of its per-rep
    /// `values`: the rate the program sustains in three reps of four.
    ///
    /// The host runs in a contended state most of the time, with bursts
    /// of about 30% more speed that last 10-30 s. A burst lifts the median
    /// of a 25 s run whenever it covers half of it, so run medians split
    /// between two levels (fleet_continuous: 25.6% spread over ten runs);
    /// a burst must cover three quarters of a run to lift the lower
    /// quartile (9.5% over the same runs). A regression slows every rep,
    /// so it moves the lower quartile as much as the median.
    pub fn lower_quartile(
        name: &'static str,
        unit: &'static str,
        values: &[f64],
        note: impl Into<String>,
    ) -> Self {
        Metric {
            value: Spread::of(values).q1,
            ..Metric::median(name, unit, values, note)
        }
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations attempted (sequences or requests, over all timed reps).
    pub attempted: u64,
    /// Attempted operations that failed or did not pass the output check.
    pub failed: u64,
    /// Timed reps.
    pub reps: usize,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Output and accounting checks; the run is correct iff all hold.
    pub checks: Vec<(String, bool)>,
    /// Extra lines for the human-readable part of the output.
    pub notes: Vec<String>,
    /// The compute-worker count the native pipeline resolved to (0 for
    /// the simulated workloads, which run on the calling thread).
    pub compute_workers: usize,
    /// Chrome trace-event JSON of a traced run.
    pub chrome: Option<String>,
    /// The host's behaviour during the timed reps.
    pub host: HostLog,
}

impl Measured {
    /// Records a check.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Adds `setup_s` (the median of the set-ups timed in `setup_s`) and
    /// `peak_rss_mb`, read now.
    pub fn push_setup_and_memory(&mut self, setup_s: &[f64], what: &str) {
        self.metrics.push(Metric::median(
            "setup_s",
            "s",
            setup_s,
            format!("{what}, median of repeated set-ups"),
        ));
        self.metrics.push(Metric::exact(
            "peak_rss_mb",
            "MB",
            peak_rss_mb().unwrap_or(f64::NAN),
            "VmHWM after the timed reps",
        ));
    }
}

/// Calls `rep` back to back until `budget` has elapsed and it has run at
/// least `min` times; returns how many times it ran.
pub fn repeat_for(budget: Duration, min: usize, mut rep: impl FnMut()) -> usize {
    let start = Instant::now();
    let mut n = 0;
    while n < min || start.elapsed() < budget {
        rep();
        n += 1;
    }
    n
}

/// Runs one set-up, records its wall seconds in `samples`, and returns
/// its product. Runs time a set-up before every timed rep, so the set-up
/// median samples the same stretch of host speed as the reps do: set-ups
/// timed back to back read up to 2× apart from run to run.
pub fn timed<T>(samples: &mut Vec<f64>, make: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let product = std::hint::black_box(make());
    samples.push(t.elapsed().as_secs_f64());
    product
}

/// The process's peak resident set (`VmHWM`) in MB (10^6 bytes), or
/// `None` where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Linux's `USER_HZ`: the tick rate of the CPU time counters in `/proc`.
const TICKS_PER_S: f64 = 100.0;

/// Cumulative CPU time counters, in ticks: the time the hypervisor stole
/// from all of the machine's CPUs (`/proc/stat`) and this process's user
/// plus system time (`/proc/self/stat`).
#[derive(Debug, Clone, Copy)]
struct CpuClock {
    stolen: u64,
    process: u64,
}

impl CpuClock {
    /// Reads the counters, or `None` where `/proc` is unavailable.
    fn now() -> Option<CpuClock> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        // "cpu  user nice system idle iowait irq softirq steal ..."
        let stolen = stat
            .lines()
            .next()?
            .strip_prefix("cpu ")?
            .split_whitespace()
            .nth(7)?
            .parse()
            .ok()?;
        // utime and stime are the 12th and 13th fields after the
        // parenthesized command name.
        let own = std::fs::read_to_string("/proc/self/stat").ok()?;
        let mut fields = own.rsplit_once(')')?.1.split_whitespace().skip(11);
        let mut next = || fields.next()?.parse::<u64>().ok();
        Some(CpuClock {
            stolen,
            process: next()? + next()?,
        })
    }
}

/// What the host did during each timed rep: its wall time, the CPU time
/// the hypervisor stole from the machine meanwhile, and this process's
/// CPU time. Recorded with every run so a slow run on a contended host
/// can be told from a regression.
#[derive(Debug, Default)]
pub struct HostLog {
    /// Wall seconds per rep.
    pub wall_s: Vec<f64>,
    /// CPU seconds stolen from the machine (all CPUs) per rep.
    pub stolen_s: Vec<f64>,
    /// This process's CPU seconds per rep.
    pub cpu_s: Vec<f64>,
}

impl HostLog {
    /// Runs `call` and returns its product and its steal-free wall
    /// seconds: the wall time minus the CPU time the hypervisor stole from
    /// the machine meanwhile, floored at a tenth of the wall time.
    ///
    /// On a shared VM host, steal comes in episodes that last minutes and
    /// take 10–30% of the machine's CPU time, slowing every rep in a run
    /// alike; run medians of plain wall time then swing up to 2.5×. The
    /// stolen time is not the program's, so throughputs divide by the
    /// steal-free time, while the plain wall time stays in the run
    /// record. The counters are read outside the timed interval.
    pub fn time<T>(&mut self, call: impl FnOnce() -> T) -> (T, f64) {
        let before = CpuClock::now();
        let t = Instant::now();
        let out = call();
        let wall = t.elapsed().as_secs_f64();
        let after = CpuClock::now();
        let (stolen, cpu) = match (before, after) {
            (Some(b), Some(a)) => (
                a.stolen.saturating_sub(b.stolen) as f64 / TICKS_PER_S,
                a.process.saturating_sub(b.process) as f64 / TICKS_PER_S,
            ),
            _ => (0.0, 0.0),
        };
        self.wall_s.push(wall);
        self.stolen_s.push(stolen);
        self.cpu_s.push(cpu);
        (out, (wall - stolen).max(wall / 10.0))
    }
}

/// Milliseconds of a nanosecond count.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}
