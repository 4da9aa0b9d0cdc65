//! Request traffic: arrival processes and length distributions.
//!
//! The offline harness fixes one [`Workload`](klotski_model::workload::Workload)
//! shape up front; a server sees a *stream* of requests instead. This module
//! turns a seeded PRNG into that stream: open-loop arrivals (Poisson or
//! uniformly paced — load independent of service times) are pre-generated
//! here, while closed-loop traffic (each client waits for its previous
//! request) is driven by the serving loop as completions happen.
//!
//! Real production load is not stationary: request rates cycle with the
//! day and spike under flash crowds. [`RateProfile`]s compose a
//! time-varying rate multiplier over any base process
//! ([`generate_with_profile`] warps the base stream so its instantaneous
//! rate tracks the profile), and recorded
//! [`RequestTrace`]s replay verbatim
//! through [`replay`] — the cluster simulator's three load regimes.

use klotski_model::trace::RequestTrace;
use klotski_sim::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One user request as the front-end sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Stable id, assigned in issue order.
    pub id: u64,
    /// When the request entered the system.
    pub arrival: SimTime,
    /// Prompt length in tokens.
    pub prompt_len: u32,
    /// Tokens the request wants generated.
    pub gen_len: u32,
}

/// A token-length distribution, sampled deterministically under a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LengthDist {
    /// Every request has exactly this length.
    Fixed(u32),
    /// Uniform over `[lo, hi]` (inclusive).
    Uniform {
        /// Smallest length (≥ 1).
        lo: u32,
        /// Largest length.
        hi: u32,
    },
    /// Mostly light with a heavy tail: with probability `heavy_pct`% the
    /// length is exactly `heavy`, otherwise uniform over `[lo, hi]`. The
    /// serving-paper shape where per-request cost variance makes blind
    /// request-count balancing diverge from work balancing.
    HeavyTail {
        /// Smallest light length (≥ 1).
        lo: u32,
        /// Largest light length.
        hi: u32,
        /// The heavy length (typically ≫ `hi`).
        heavy: u32,
        /// Percentage of requests drawing the heavy length (0–100).
        heavy_pct: u32,
    },
}

impl LengthDist {
    /// Draws one length.
    ///
    /// # Panics
    ///
    /// Panics if the distribution can produce 0 or has `lo > hi` — every
    /// request must carry at least one prompt token and generate at least
    /// one token.
    pub fn sample(&self, rng: &mut StdRng) -> u32 {
        match *self {
            LengthDist::Fixed(v) => {
                assert!(v > 0, "lengths must be positive");
                v
            }
            LengthDist::Uniform { lo, hi } => {
                assert!(lo > 0 && lo <= hi, "need 1 <= lo <= hi");
                rng.gen_range(lo..=hi)
            }
            LengthDist::HeavyTail {
                lo,
                hi,
                heavy,
                heavy_pct,
            } => {
                assert!(lo > 0 && lo <= hi, "need 1 <= lo <= hi");
                assert!(heavy > 0, "lengths must be positive");
                assert!(heavy_pct <= 100, "heavy_pct is a percentage");
                if rng.gen_range(0..100u32) < heavy_pct {
                    heavy
                } else {
                    rng.gen_range(lo..=hi)
                }
            }
        }
    }

    /// The largest length the distribution can produce.
    pub fn max(&self) -> u32 {
        match *self {
            LengthDist::Fixed(v) => v,
            LengthDist::Uniform { hi, .. } => hi,
            LengthDist::HeavyTail { hi, heavy, .. } => hi.max(heavy),
        }
    }
}

/// Open-loop arrival processes (arrivals do not react to service times).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Poisson process: exponential inter-arrival gaps at `rate` req/s.
    Poisson {
        /// Mean arrival rate in requests per second (> 0).
        rate: f64,
    },
    /// Uniformly paced: one request every `1/rate` seconds exactly.
    Paced {
        /// Arrival rate in requests per second (> 0).
        rate: f64,
    },
    /// Bursty: `burst` requests land at the same instant, bursts arriving
    /// as a Poisson process at `rate / burst` so the long-run request rate
    /// is still `rate`. The serving-paper regime where dispatch policy —
    /// not average load — decides SLO attainment.
    Bursty {
        /// Mean arrival rate in requests per second (> 0).
        rate: f64,
        /// Requests per burst (> 0; `1` degenerates to Poisson).
        burst: u32,
    },
}

/// Shape of a request stream: how many requests, their lengths, the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficConfig {
    /// Total number of requests to issue.
    pub num_requests: u32,
    /// Prompt-length distribution.
    pub prompt: LengthDist,
    /// Output-length distribution.
    pub gen: LengthDist,
    /// PRNG seed; same seed ⇒ byte-identical stream.
    pub seed: u64,
}

impl TrafficConfig {
    /// A fixed-shape stream (every request identical) — the shape offline
    /// experiments use, so serve results can be cross-checked against
    /// [`Workload`](klotski_model::workload::Workload) totals.
    pub fn fixed(num_requests: u32, prompt_len: u32, gen_len: u32, seed: u64) -> Self {
        TrafficConfig {
            num_requests,
            prompt: LengthDist::Fixed(prompt_len),
            gen: LengthDist::Fixed(gen_len),
            seed,
        }
    }
}

/// Pre-generates an open-loop request stream, sorted by arrival time.
///
/// # Panics
///
/// Panics if the arrival rate is not positive.
pub fn generate(arrivals: Arrivals, cfg: &TrafficConfig) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut t = SimTime::ZERO;
    let mut out = Vec::with_capacity(cfg.num_requests as usize);
    for id in 0..cfg.num_requests as u64 {
        let gap = match arrivals {
            Arrivals::Poisson { rate } => {
                assert!(rate > 0.0, "arrival rate must be positive");
                // Inverse-CDF exponential; u ∈ [0, 1) keeps ln(1−u) finite.
                let u: f64 = rng.gen();
                SimDuration::from_secs_f64(-(1.0 - u).ln() / rate)
            }
            Arrivals::Paced { rate } => {
                assert!(rate > 0.0, "arrival rate must be positive");
                SimDuration::from_secs_f64(1.0 / rate)
            }
            Arrivals::Bursty { rate, burst } => {
                assert!(rate > 0.0, "arrival rate must be positive");
                assert!(burst > 0, "burst size must be positive");
                if id % burst as u64 == 0 {
                    // Exponential gap between bursts (mean burst/rate).
                    let u: f64 = rng.gen();
                    SimDuration::from_secs_f64(-(1.0 - u).ln() * burst as f64 / rate)
                } else {
                    SimDuration::ZERO
                }
            }
        };
        // The first request arrives at t = 0 so every run starts loaded.
        if id > 0 {
            t += gap;
        }
        out.push(Request {
            id,
            arrival: t,
            prompt_len: cfg.prompt.sample(&mut rng),
            gen_len: cfg.gen.sample(&mut rng),
        });
    }
    out
}

/// A time-varying multiplier on a base arrival process's instantaneous
/// rate. Profiles compose multiplicatively (pass several to
/// [`generate_with_profile`]), so a flash crowd can ride on a diurnal
/// cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateProfile {
    /// A day-like cycle: the rate multiplier swings sinusoidally between
    /// `trough` (at `t = 0`) and `peak` (half a period later) with the
    /// given period.
    Diurnal {
        /// Cycle length (> 0).
        period: SimDuration,
        /// Rate multiplier at the cycle's low point (> 0).
        trough: f64,
        /// Rate multiplier at the cycle's high point (≥ `trough`).
        peak: f64,
    },
    /// A flash crowd: the rate jumps to `magnitude ×` base inside
    /// `[at, at + width)` and is unchanged elsewhere.
    FlashCrowd {
        /// When the crowd hits.
        at: SimTime,
        /// How long it lasts (> 0).
        width: SimDuration,
        /// Rate multiplier during the spike (> 0).
        magnitude: f64,
    },
}

impl RateProfile {
    /// The rate multiplier at instant `t`.
    ///
    /// # Panics
    ///
    /// Panics on non-positive parameters (`period`, `trough`, `width`,
    /// `magnitude`) or `peak < trough`.
    pub fn multiplier(&self, t: SimTime) -> f64 {
        match *self {
            RateProfile::Diurnal {
                period,
                trough,
                peak,
            } => {
                assert!(!period.is_zero(), "diurnal period must be positive");
                assert!(trough > 0.0 && peak >= trough, "need 0 < trough <= peak");
                let phase = t.saturating_since(SimTime::ZERO).as_secs_f64() / period.as_secs_f64();
                trough + (peak - trough) * 0.5 * (1.0 - (2.0 * std::f64::consts::PI * phase).cos())
            }
            RateProfile::FlashCrowd {
                at,
                width,
                magnitude,
            } => {
                assert!(!width.is_zero(), "flash-crowd width must be positive");
                assert!(magnitude > 0.0, "flash-crowd magnitude must be positive");
                if t >= at && t < at + width {
                    magnitude
                } else {
                    1.0
                }
            }
        }
    }

    /// Short stable name for tables and JSON output.
    pub fn label(&self) -> &'static str {
        match self {
            RateProfile::Diurnal { .. } => "diurnal",
            RateProfile::FlashCrowd { .. } => "flash_crowd",
        }
    }

    /// The finest time scale the profile varies on — the warp's
    /// integration step divides it so piecewise-constant integration
    /// tracks the profile closely.
    fn scale(&self) -> SimDuration {
        match *self {
            RateProfile::Diurnal { period, .. } => period / 512,
            RateProfile::FlashCrowd { width, .. } => width / 64,
        }
    }
}

/// Pre-generates an open-loop stream whose instantaneous rate is the base
/// process's rate times the product of the `profiles`' multipliers.
///
/// The base stream from [`generate`] is warped by deterministic
/// area-consumption: arrival `i` lands at the instant `t` where
/// `∫₀ᵗ m(s) ds` equals its base arrival time, with `m` integrated
/// piecewise-constant at a step well below every profile's time scale.
/// High-multiplier intervals therefore compress inter-arrival gaps
/// (higher rate) and low-multiplier intervals stretch them, while request
/// ids, lengths, ordering, and same-instant bursts are all preserved. An
/// empty profile list returns the base stream unchanged.
///
/// # Panics
///
/// Panics on invalid profile parameters or a non-positive base rate.
pub fn generate_with_profile(
    arrivals: Arrivals,
    cfg: &TrafficConfig,
    profiles: &[RateProfile],
) -> Vec<Request> {
    let mut reqs = generate(arrivals, cfg);
    if profiles.is_empty() {
        return reqs;
    }
    let step = profiles
        .iter()
        .map(|p| p.scale())
        .min()
        .expect("non-empty profiles")
        .max(SimDuration::from_nanos(1_000))
        .as_secs_f64();
    let multiplier = |t: f64| -> f64 {
        profiles
            .iter()
            .map(|p| p.multiplier(SimTime::ZERO + SimDuration::from_secs_f64(t)))
            .product()
    };
    // Walk the warped timeline slot by slot, consuming base-time "area";
    // the walk state persists across requests, so equal base arrivals map
    // to equal warped arrivals and ordering is preserved.
    let mut slot_start = 0.0_f64;
    let mut area = 0.0_f64;
    let mut m_slot = multiplier(0.0);
    for r in reqs.iter_mut() {
        let target = r.arrival.saturating_since(SimTime::ZERO).as_secs_f64();
        while area + m_slot * step < target {
            area += m_slot * step;
            slot_start += step;
            m_slot = multiplier(slot_start);
        }
        let t = slot_start + (target - area) / m_slot;
        r.arrival = SimTime::ZERO + SimDuration::from_secs_f64(t);
    }
    reqs
}

/// Records an open-loop stream as a replayable
/// [`RequestTrace`].
///
/// # Panics
///
/// Panics if `requests` is not in arrival order (see
/// [`RequestTrace::record`]).
pub fn to_trace(requests: &[Request]) -> RequestTrace {
    RequestTrace::record(
        requests
            .iter()
            .map(|r| (r.arrival, r.prompt_len, r.gen_len)),
    )
}

/// Replays a recorded trace as an open-loop stream: one request per row,
/// ids assigned in row order — [`to_trace`] then [`replay`] reproduces the
/// original stream exactly.
pub fn replay(trace: &RequestTrace) -> Vec<Request> {
    trace
        .rows
        .iter()
        .enumerate()
        .map(|(id, row)| Request {
            id: id as u64,
            arrival: row.at,
            prompt_len: row.prompt_len,
            gen_len: row.gen_len,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let cfg = TrafficConfig {
            num_requests: 50,
            prompt: LengthDist::Uniform { lo: 32, hi: 512 },
            gen: LengthDist::Uniform { lo: 4, hi: 32 },
            seed: 9,
        };
        let a = generate(Arrivals::Poisson { rate: 2.0 }, &cfg);
        let b = generate(Arrivals::Poisson { rate: 2.0 }, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn arrivals_are_sorted_and_start_at_zero() {
        let cfg = TrafficConfig::fixed(40, 128, 8, 3);
        let reqs = generate(Arrivals::Poisson { rate: 1.0 }, &cfg);
        assert_eq!(reqs.len(), 40);
        assert_eq!(reqs[0].arrival, SimTime::ZERO);
        for w in reqs.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
            assert_eq!(w[0].id + 1, w[1].id);
        }
    }

    #[test]
    fn poisson_rate_scales_the_span() {
        let cfg = TrafficConfig::fixed(200, 128, 8, 7);
        let slow = generate(Arrivals::Poisson { rate: 1.0 }, &cfg);
        let fast = generate(Arrivals::Poisson { rate: 8.0 }, &cfg);
        let span = |v: &[Request]| v.last().unwrap().arrival.as_secs_f64();
        // 200 arrivals at 8 req/s land ~8× sooner than at 1 req/s.
        let ratio = span(&slow) / span(&fast);
        assert!((4.0..16.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn paced_arrivals_are_evenly_spaced() {
        let cfg = TrafficConfig::fixed(5, 128, 8, 1);
        let reqs = generate(Arrivals::Paced { rate: 4.0 }, &cfg);
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.arrival.as_nanos(), i as u64 * 250_000_000);
        }
    }

    #[test]
    fn uniform_lengths_stay_in_bounds() {
        let cfg = TrafficConfig {
            num_requests: 300,
            prompt: LengthDist::Uniform { lo: 10, hi: 20 },
            gen: LengthDist::Uniform { lo: 2, hi: 4 },
            seed: 5,
        };
        let reqs = generate(Arrivals::Paced { rate: 1.0 }, &cfg);
        assert!(reqs.iter().all(|r| (10..=20).contains(&r.prompt_len)));
        assert!(reqs.iter().all(|r| (2..=4).contains(&r.gen_len)));
        // Both endpoints are actually hit.
        assert!(reqs.iter().any(|r| r.prompt_len == 10));
        assert!(reqs.iter().any(|r| r.prompt_len == 20));
    }

    #[test]
    fn heavy_tail_mixes_two_populations() {
        let dist = LengthDist::HeavyTail {
            lo: 16,
            hi: 32,
            heavy: 1024,
            heavy_pct: 20,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<u32> = (0..400).map(|_| dist.sample(&mut rng)).collect();
        let heavies = samples.iter().filter(|&&v| v == 1024).count();
        assert!(samples.iter().all(|&v| v == 1024 || (16..=32).contains(&v)));
        // ~20% ± sampling noise.
        assert!((40..=160).contains(&heavies), "heavies = {heavies}");
        assert_eq!(dist.max(), 1024);
    }

    #[test]
    fn bursty_arrivals_land_together() {
        let cfg = TrafficConfig::fixed(40, 128, 8, 9);
        let reqs = generate(
            Arrivals::Bursty {
                rate: 2.0,
                burst: 8,
            },
            &cfg,
        );
        // Requests within one burst share an arrival instant…
        for chunk in reqs.chunks(8) {
            assert!(chunk.iter().all(|r| r.arrival == chunk[0].arrival));
        }
        // …and distinct bursts are separated (an exponential gap is
        // almost surely nonzero).
        let mut instants: Vec<_> = reqs.iter().map(|r| r.arrival).collect();
        instants.dedup();
        assert_eq!(instants.len(), 5, "five bursts of eight");
        // Long-run rate matches the Poisson process of the same rate to
        // within sampling noise: 40 requests at 2 req/s span ~20 s.
        let span = reqs.last().unwrap().arrival.as_secs_f64();
        assert!((5.0..80.0).contains(&span), "span = {span}");
    }

    #[test]
    fn burst_of_one_is_poisson() {
        let cfg = TrafficConfig::fixed(30, 128, 8, 4);
        let a = generate(
            Arrivals::Bursty {
                rate: 3.0,
                burst: 1,
            },
            &cfg,
        );
        let b = generate(Arrivals::Poisson { rate: 3.0 }, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let cfg = TrafficConfig::fixed(1, 128, 8, 0);
        let _ = generate(Arrivals::Poisson { rate: 0.0 }, &cfg);
    }

    #[test]
    fn empty_profile_list_is_identity() {
        let cfg = TrafficConfig::fixed(20, 64, 4, 3);
        let base = generate(Arrivals::Poisson { rate: 2.0 }, &cfg);
        let warped = generate_with_profile(Arrivals::Poisson { rate: 2.0 }, &cfg, &[]);
        assert_eq!(base, warped);
    }

    #[test]
    fn unit_profile_is_near_identity() {
        let cfg = TrafficConfig::fixed(30, 64, 4, 3);
        let base = generate(Arrivals::Poisson { rate: 2.0 }, &cfg);
        let warped = generate_with_profile(
            Arrivals::Poisson { rate: 2.0 },
            &cfg,
            &[RateProfile::Diurnal {
                period: SimDuration::from_secs(60),
                trough: 1.0,
                peak: 1.0,
            }],
        );
        // A constant multiplier of 1 only accumulates float slack from the
        // slot walk — well under a microsecond over this span.
        for (b, w) in base.iter().zip(&warped) {
            let diff = w
                .arrival
                .saturating_since(b.arrival)
                .max(b.arrival.saturating_since(w.arrival));
            assert!(diff < SimDuration::from_nanos(1_000), "drift {diff}");
        }
    }

    #[test]
    fn warp_preserves_shape_order_and_bursts() {
        let cfg = TrafficConfig {
            num_requests: 48,
            prompt: LengthDist::Uniform { lo: 16, hi: 64 },
            gen: LengthDist::Uniform { lo: 2, hi: 8 },
            seed: 11,
        };
        let arrivals = Arrivals::Bursty {
            rate: 2.0,
            burst: 8,
        };
        let base = generate(arrivals, &cfg);
        let warped = generate_with_profile(
            arrivals,
            &cfg,
            &[RateProfile::Diurnal {
                period: SimDuration::from_secs(30),
                trough: 0.2,
                peak: 4.0,
            }],
        );
        assert_eq!(warped.len(), base.len());
        for (b, w) in base.iter().zip(&warped) {
            assert_eq!(
                (b.id, b.prompt_len, b.gen_len),
                (w.id, w.prompt_len, w.gen_len)
            );
        }
        for w in warped.windows(2) {
            assert!(w[0].arrival <= w[1].arrival, "warp must preserve order");
        }
        // Bursts stay simultaneous through the warp.
        for chunk in warped.chunks(8) {
            assert!(chunk.iter().all(|r| r.arrival == chunk[0].arrival));
        }
    }

    #[test]
    fn flash_crowd_compresses_the_window() {
        // A paced stream at 1 req/s, spiked 10× over [10 s, 20 s) of the
        // *warped* timeline: base arrivals that land in the window get
        // 100 ms gaps instead of 1 s gaps.
        let cfg = TrafficConfig::fixed(60, 64, 4, 1);
        let warped = generate_with_profile(
            Arrivals::Paced { rate: 1.0 },
            &cfg,
            &[RateProfile::FlashCrowd {
                at: SimTime::from_nanos(10_000_000_000),
                width: SimDuration::from_secs(10),
                magnitude: 10.0,
            }],
        );
        let in_window = warped
            .iter()
            .filter(|r| {
                r.arrival >= SimTime::from_nanos(10_000_000_000)
                    && r.arrival < SimTime::from_nanos(20_000_000_000)
            })
            .count();
        // 10 warped seconds at 10× a 1 req/s base ≈ 100 arrivals; the
        // stream only has 60, so most of it lands inside the window.
        assert!(in_window > 40, "only {in_window} arrivals in the spike");
    }

    #[test]
    fn diurnal_peak_attracts_arrivals() {
        let cfg = TrafficConfig::fixed(400, 64, 4, 5);
        let period = SimDuration::from_secs(100);
        let warped = generate_with_profile(
            Arrivals::Poisson { rate: 4.0 },
            &cfg,
            &[RateProfile::Diurnal {
                period,
                trough: 0.2,
                peak: 3.0,
            }],
        );
        // Within the first full cycle, the peak half-period [P/4, 3P/4)
        // must hold clearly more arrivals than the trough half.
        let (mut peak_half, mut trough_half) = (0, 0);
        for r in &warped {
            let t = r.arrival.saturating_since(SimTime::ZERO).as_secs_f64();
            if t >= 100.0 {
                continue;
            }
            if (25.0..75.0).contains(&t) {
                peak_half += 1;
            } else {
                trough_half += 1;
            }
        }
        assert!(
            peak_half > 2 * trough_half.max(1),
            "peak {peak_half} vs trough {trough_half}"
        );
    }

    #[test]
    fn trace_record_replay_round_trip() {
        let cfg = TrafficConfig {
            num_requests: 25,
            prompt: LengthDist::Uniform { lo: 16, hi: 64 },
            gen: LengthDist::Uniform { lo: 2, hi: 8 },
            seed: 7,
        };
        let stream = generate_with_profile(
            Arrivals::Poisson { rate: 3.0 },
            &cfg,
            &[RateProfile::Diurnal {
                period: SimDuration::from_secs(20),
                trough: 0.5,
                peak: 2.0,
            }],
        );
        let trace = to_trace(&stream);
        // Through the text format and back: still the exact stream.
        let parsed = klotski_model::trace::RequestTrace::parse(&trace.to_text()).expect("parse");
        assert_eq!(replay(&parsed), stream);
    }

    #[test]
    #[should_panic(expected = "trough")]
    fn invalid_diurnal_rejected() {
        let p = RateProfile::Diurnal {
            period: SimDuration::from_secs(10),
            trough: 2.0,
            peak: 1.0,
        };
        let _ = p.multiplier(SimTime::ZERO);
    }
}
