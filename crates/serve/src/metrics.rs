//! Request-level SLO metrics: latency percentiles, goodput, throughput.
//!
//! The offline [`InferenceReport`](klotski_core::report::InferenceReport)
//! measures one batch group; a server is judged on *request* latency
//! distributions under an SLO. This module folds a
//! [`ServeReport`] into the numbers serving
//! papers quote: TTFT / TPOT / end-to-end at p50/p95/p99, goodput (tokens
//! per second from requests that met the SLO), and sustained throughput.
//! Multi-replica reports summarize identically (the outcomes are merged),
//! and [`summarize_replica`] breaks the same numbers out per replica.

use klotski_sim::time::SimDuration;

use crate::server::{RequestOutcome, RetryOutcome, ServeReport};

/// A per-request service-level objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloSpec {
    /// Maximum acceptable time to first token.
    pub ttft: SimDuration,
    /// Maximum acceptable time per output token (after the first).
    pub tpot: SimDuration,
}

impl SloSpec {
    /// A loose interactive-serving SLO scaled to simulated offloading
    /// speeds (TTFT 20 s, TPOT 1 s).
    pub fn relaxed() -> Self {
        SloSpec {
            ttft: SimDuration::from_secs(20),
            tpot: SimDuration::from_secs(1),
        }
    }
}

/// p50/p95/p99 of one latency population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Percentiles {
    /// Median.
    pub p50: SimDuration,
    /// 95th percentile.
    pub p95: SimDuration,
    /// 99th percentile.
    pub p99: SimDuration,
}

impl Percentiles {
    /// Nearest-rank percentiles of `values` (need not be sorted; empty
    /// populations report zero).
    ///
    /// A nearest-rank percentile is an order statistic, so the three are
    /// found by selection, not a full sort: p50 over the whole copy, p95
    /// among the values above it, p99 among those above p95.
    pub fn of(values: &[SimDuration]) -> Self {
        if values.is_empty() {
            return Percentiles {
                p50: SimDuration::ZERO,
                p95: SimDuration::ZERO,
                p99: SimDuration::ZERO,
            };
        }
        let mut v = values.to_vec();
        let rank = |p: f64| -> usize {
            let idx = (p / 100.0 * v.len() as f64).ceil() as usize;
            idx.clamp(1, v.len()) - 1
        };
        let (i50, i95, i99) = (rank(50.0), rank(95.0), rank(99.0));
        let p50 = *v.select_nth_unstable(i50).1;
        let p95 = select_above(&mut v, i50, i95);
        let p99 = select_above(&mut v, i95, i99);
        Percentiles { p50, p95, p99 }
    }
}

/// The order statistic at index `k ≥ below` of `v`, where `v[below]` is
/// already in its sorted place with every larger index holding values no
/// smaller: only `v[below + 1..]` is searched.
fn select_above(v: &mut [SimDuration], below: usize, k: usize) -> SimDuration {
    if k == below {
        v[k]
    } else {
        *v[below + 1..].select_nth_unstable(k - below - 1).1
    }
}

/// One serving run, summarized against an SLO.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSummary {
    /// Requests observed (failed ones included).
    pub requests: usize,
    /// Requests that completed *and* met both SLO components.
    pub slo_met: usize,
    /// Time-to-first-token percentiles.
    pub ttft: Percentiles,
    /// Time-per-output-token percentiles.
    pub tpot: Percentiles,
    /// End-to-end latency percentiles.
    pub e2e: Percentiles,
    /// Mean queueing delay.
    pub mean_queue_delay: SimDuration,
    /// Generated tokens of SLO-meeting requests per second of makespan.
    pub goodput_tps: f64,
    /// Generated tokens of all completed requests per second of makespan.
    pub throughput_tps: f64,
    /// Requests that needed at least one crash-driven redispatch before
    /// completing (zero on every fault-free path).
    pub retried: usize,
    /// Requests rejected at admission by the degradation policy.
    pub shed: usize,
    /// Requests lost to crashes with their retry budget exhausted.
    pub dropped: usize,
    /// Tokens re-generated by retries: the gen_len of every retried
    /// request counted once per extra dispatch — work the fleet paid for
    /// more than once.
    pub retry_tokens: u64,
}

/// Summarizes a serving run against `slo`.
pub fn summarize(report: &ServeReport, slo: &SloSpec) -> SloSummary {
    summarize_outcomes(&report.outcomes.iter().collect::<Vec<_>>(), report, slo)
}

/// Summarizes only the requests served by `replica`, against `slo`.
///
/// Throughput and goodput keep the whole run's makespan as denominator,
/// so per-replica rates sum to the merged report's rates.
pub fn summarize_replica(report: &ServeReport, slo: &SloSpec, replica: u32) -> SloSummary {
    let mine: Vec<&RequestOutcome> = report
        .outcomes
        .iter()
        .filter(|o| o.replica == replica)
        .collect();
    summarize_outcomes(&mine, report, slo)
}

/// Summarizes only the outcomes selected by `keep` — e.g. one priority
/// class of a continuous-batching run — against `slo`.
///
/// Like [`summarize_replica`], rates keep the whole run's makespan as
/// denominator, so class summaries compose additively with each other.
pub fn summarize_where(
    report: &ServeReport,
    slo: &SloSpec,
    keep: &dyn Fn(&RequestOutcome) -> bool,
) -> SloSummary {
    let kept: Vec<&RequestOutcome> = report.outcomes.iter().filter(|o| keep(o)).collect();
    summarize_outcomes(&kept, report, slo)
}

fn summarize_outcomes(
    outcomes: &[&RequestOutcome],
    report: &ServeReport,
    slo: &SloSpec,
) -> SloSummary {
    let completed: Vec<_> = outcomes.iter().filter(|o| !o.failed).collect();
    let ttfts: Vec<SimDuration> = completed.iter().map(|o| o.ttft()).collect();
    let tpots: Vec<SimDuration> = completed.iter().map(|o| o.tpot()).collect();
    let e2es: Vec<SimDuration> = completed.iter().map(|o| o.e2e()).collect();

    let good: Vec<_> = completed
        .iter()
        .filter(|o| o.ttft() <= slo.ttft && o.tpot() <= slo.tpot)
        .collect();
    let good_tokens: u64 = good.iter().map(|o| o.gen_len as u64).sum();
    let goodput_tps = if report.makespan.is_zero() {
        0.0
    } else {
        good_tokens as f64 / report.makespan.as_secs_f64()
    };
    let mean_queue_delay = if completed.is_empty() {
        SimDuration::ZERO
    } else {
        completed
            .iter()
            .map(|o| o.queue_delay())
            .sum::<SimDuration>()
            / completed.len() as u64
    };

    let completed_tokens: u64 = completed.iter().map(|o| o.gen_len as u64).sum();
    let throughput_tps = if report.makespan.is_zero() {
        0.0
    } else {
        completed_tokens as f64 / report.makespan.as_secs_f64()
    };

    let mut retried = 0usize;
    let mut shed = 0usize;
    let mut dropped = 0usize;
    let mut retry_tokens = 0u64;
    for o in outcomes {
        match o.retry {
            RetryOutcome::FirstTry => {}
            RetryOutcome::Retried(n) => {
                retried += 1;
                retry_tokens += u64::from(n) * u64::from(o.gen_len);
            }
            RetryOutcome::Shed => shed += 1,
            RetryOutcome::Dropped => dropped += 1,
        }
    }

    SloSummary {
        requests: outcomes.len(),
        slo_met: good.len(),
        ttft: Percentiles::of(&ttfts),
        tpot: Percentiles::of(&tpots),
        e2e: Percentiles::of(&e2es),
        mean_queue_delay,
        goodput_tps,
        throughput_tps,
        retried,
        shed,
        dropped,
        retry_tokens,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::RequestOutcome;
    use klotski_sim::time::SimTime;
    use proptest::prelude::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    /// The definition by full sort that [`Percentiles::of`] selects
    /// instead, kept as its reference.
    fn sorted_percentiles(values: &[SimDuration]) -> Percentiles {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let rank = |p: f64| -> SimDuration {
            let n = sorted.len() as f64;
            let idx = (p / 100.0 * n).ceil() as usize;
            sorted[idx.clamp(1, sorted.len()) - 1]
        };
        Percentiles {
            p50: rank(50.0),
            p95: rank(95.0),
            p99: rank(99.0),
        }
    }

    proptest! {
        /// Selection reads the same three order statistics as the sort:
        /// with duplicates (values drawn from a few milliseconds), and at
        /// one to three values, where p95 and p99 are the largest value
        /// and, at one value, p50 is too.
        #[test]
        fn selected_percentiles_match_the_sorted_reference(
            tiny in proptest::collection::vec(0u64..3, 1..=3),
            many in proptest::collection::vec(0u64..40, 1..400),
        ) {
            for raw in [tiny, many] {
                let vals: Vec<SimDuration> = raw.into_iter().map(ms).collect();
                prop_assert_eq!(Percentiles::of(&vals), sorted_percentiles(&vals));
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let vals: Vec<SimDuration> = (1..=100).map(ms).collect();
        let p = Percentiles::of(&vals);
        assert_eq!(p.p50, ms(50));
        assert_eq!(p.p95, ms(95));
        assert_eq!(p.p99, ms(99));
        // Tiny populations: nearest rank, not interpolation.
        let p = Percentiles::of(&[ms(10), ms(20), ms(30)]);
        assert_eq!(p.p50, ms(20));
        assert_eq!(p.p99, ms(30));
        assert_eq!(Percentiles::of(&[]).p99, SimDuration::ZERO);
    }

    fn outcome(id: u64, wait_ms: u64, gen: u32, failed: bool) -> RequestOutcome {
        let arrival = SimTime::ZERO + ms(id * 10);
        let dispatched = arrival + ms(wait_ms);
        let first_token = dispatched + ms(100);
        RequestOutcome {
            id,
            arrival,
            dispatched,
            first_token,
            finished: first_token + ms(50) * gen.saturating_sub(1) as u64,
            prompt_len: 64,
            gen_len: gen,
            group: 0,
            replica: 0,
            failed,
            retry: RetryOutcome::FirstTry,
        }
    }

    fn report(outcomes: Vec<RequestOutcome>) -> ServeReport {
        let makespan = outcomes
            .iter()
            .map(|o| o.finished)
            .max()
            .unwrap()
            .saturating_since(SimTime::ZERO);
        ServeReport {
            engine: "Stub".into(),
            outcomes,
            groups: Vec::new(),
            replicas: Vec::new(),
            makespan,
        }
    }

    #[test]
    fn goodput_counts_only_slo_met_requests() {
        // Two fast requests, one slow (10 s wait), one failed.
        let r = report(vec![
            outcome(0, 10, 4, false),
            outcome(1, 10, 4, false),
            outcome(2, 10_000, 4, false),
            outcome(3, 10, 4, true),
        ]);
        let slo = SloSpec {
            ttft: SimDuration::from_secs(1),
            tpot: SimDuration::from_secs(1),
        };
        let s = summarize(&r, &slo);
        assert_eq!(s.requests, 4);
        assert_eq!(s.slo_met, 2);
        assert!(s.goodput_tps < s.throughput_tps);
        let expected = 8.0 / r.makespan.as_secs_f64();
        assert!((s.goodput_tps - expected).abs() < 1e-9);
    }

    #[test]
    fn tighter_slo_never_increases_goodput() {
        let r = report((0..20).map(|i| outcome(i, i * 40, 4, false)).collect());
        let loose = summarize(
            &r,
            &SloSpec {
                ttft: SimDuration::from_secs(5),
                tpot: SimDuration::from_secs(5),
            },
        );
        let tight = summarize(
            &r,
            &SloSpec {
                ttft: ms(300),
                tpot: ms(40),
            },
        );
        assert!(tight.slo_met <= loose.slo_met);
        assert!(tight.goodput_tps <= loose.goodput_tps);
    }

    #[test]
    fn mean_queue_delay_averages_completed() {
        let r = report(vec![outcome(0, 100, 2, false), outcome(1, 300, 2, false)]);
        let s = summarize(&r, &SloSpec::relaxed());
        assert_eq!(s.mean_queue_delay, ms(200));
    }

    #[test]
    fn filtered_summaries_partition_like_replica_summaries() {
        let r = report((0..10).map(|i| outcome(i, i * 30, 4, false)).collect());
        let slo = SloSpec::relaxed();
        let total = summarize(&r, &slo);
        let even = summarize_where(&r, &slo, &|o| o.id % 2 == 0);
        let odd = summarize_where(&r, &slo, &|o| o.id % 2 == 1);
        assert_eq!(even.requests + odd.requests, total.requests);
        assert_eq!(even.slo_met + odd.slo_met, total.slo_met);
        assert!((even.goodput_tps + odd.goodput_tps - total.goodput_tps).abs() < 1e-9);
        // A predicate matching everything reproduces the plain summary.
        assert_eq!(summarize_where(&r, &slo, &|_| true), total);
    }

    #[test]
    fn replica_summaries_partition_the_merged_report() {
        let mut outcomes: Vec<RequestOutcome> =
            (0..10).map(|i| outcome(i, i * 30, 4, false)).collect();
        for o in outcomes.iter_mut() {
            o.replica = (o.id % 2) as u32;
        }
        let r = report(outcomes);
        let slo = SloSpec::relaxed();
        let total = summarize(&r, &slo);
        let r0 = summarize_replica(&r, &slo, 0);
        let r1 = summarize_replica(&r, &slo, 1);
        assert_eq!(r0.requests + r1.requests, total.requests);
        assert_eq!(r0.slo_met + r1.slo_met, total.slo_met);
        // Same makespan denominator, so rates compose additively.
        assert!((r0.throughput_tps + r1.throughput_tps - total.throughput_tps).abs() < 1e-9);
        assert!((r0.goodput_tps + r1.goodput_tps - total.goodput_tps).abs() < 1e-9);
        // A replica that served nothing reports an empty summary.
        let empty = summarize_replica(&r, &slo, 7);
        assert_eq!(empty.requests, 0);
        assert_eq!(empty.throughput_tps, 0.0);
    }
}
