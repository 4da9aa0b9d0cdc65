//! # klotski-serve — the online serving front-end
//!
//! The paper's multi-batch pipeline assumes a batch group of `n` batches
//! already exists; a server must *form* those groups from a live request
//! stream. This crate adds the request level on top of any
//! [`Engine`](klotski_core::scenario::Engine):
//!
//! * [`traffic`] — seeded open-loop (Poisson / paced) and closed-loop
//!   arrival processes with configurable prompt/output-length
//!   distributions;
//! * [`admission`] — the queue policies that cut batch groups online:
//!   fixed-`n`, deadline-triggered partial groups, and a cost-model-informed
//!   policy that sizes groups under a latency budget using
//!   [`CostModel`](klotski_model::cost::CostModel);
//! * [`server`] — single-engine serving: drives an engine group-by-group
//!   over simulated time, carrying per-request queueing delay into the
//!   results; also the request, outcome and report types every entry
//!   point shares;
//! * [`dispatcher`] — multi-replica serving: shards one request stream
//!   over `R` engine replicas (each with its own admission queue) under a
//!   dispatch-policy axis — round-robin, join-shortest-queue, or
//!   cost-model-informed placement;
//! * [`metrics`] — request-level SLO metrics: TTFT / TPOT / end-to-end
//!   percentiles, goodput under an SLO, sustained throughput, per-replica
//!   breakdowns;
//! * [`cluster`] — cluster-scale serving: a dynamic fleet under a
//!   pluggable autoscaling policy, with cold starts derived from the
//!   cost model's weight-transfer times, drain-then-retire scale-down,
//!   replica-hour accounting, and deterministic fault injection — and
//!   the fleet event loop;
//! * [`continuous`] — continuous batching: step-level slot refill,
//!   chunked preemptible prefill, and chat/batch priority classes; with
//!   refill disabled it is [`serve`](server::serve), byte for byte.
//!
//! Two event loops share one tie rule. Every group-serving entry point
//! runs the fleet loop: [`serve`](server::serve) and
//! [`serve_scaled`](dispatcher::serve_scaled) as a fixed fleet with no
//! autoscaler (so it never ticks) and no faults; the [`cluster`] entry
//! points add an autoscaler and a fault plan. The loop holds one state
//! struct whose next event is the earliest pending `(time, event)`; the
//! declaration order of the event kinds — warm-up, fault, tick, arrival,
//! retry, formation — breaks ties at one instant. Refill mode runs the
//! slot machine's own loop, which picks its next event under the same
//! order.
//!
//! Both loops cut their report in one place,
//! [`ServeReport`](server::ServeReport)'s assembly: each replica's
//! groups, requests and tokens are folds over the report's outcomes and
//! group records, and the replica supplies only its birth, retirement and
//! busy time. The [`metrics`] summaries fold the same outcomes.
//!
//! Everything is deterministic under a seed: the same traffic, policy, and
//! engine produce byte-identical reports (the `serve_sweep` and
//! `serve_scale` bench binaries assert this), and one replica behind any
//! dispatch policy reproduces the single-engine run byte for byte.
//!
//! ```
//! use klotski_core::engine::{KlotskiConfig, KlotskiEngine};
//! use klotski_model::{hardware::HardwareSpec, spec::ModelSpec};
//! use klotski_serve::admission::AdmissionPolicy;
//! use klotski_serve::server::{serve, ServeConfig, Traffic};
//! use klotski_serve::traffic::{generate, Arrivals, TrafficConfig};
//! use klotski_sim::time::SimDuration;
//!
//! let stream = generate(
//!     Arrivals::Poisson { rate: 1.0 },
//!     &TrafficConfig::fixed(8, 64, 4, 7),
//! );
//! let report = serve(
//!     &KlotskiEngine::new(KlotskiConfig::full()),
//!     &ModelSpec::mixtral_8x7b(),
//!     &HardwareSpec::env1_rtx3090(),
//!     &Traffic::Open(stream),
//!     &ServeConfig {
//!         batch_size: 4,
//!         policy: AdmissionPolicy::CostAware {
//!             max_n: 4,
//!             slo_e2e: SimDuration::from_secs(120),
//!         },
//!         seed: 7,
//!     },
//! )
//! .unwrap();
//! assert_eq!(report.outcomes.len(), 8);
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod cluster;
pub mod continuous;
pub mod dispatcher;
pub mod metrics;
pub mod server;
pub mod traffic;

#[cfg(test)]
mod proptests {
    use crate::admission::AdmissionPolicy;
    use crate::continuous::{serve_continuous, ClassAssign, ContinuousConfig};
    use crate::dispatcher::{serve_scaled, DispatchPolicy, ScaleConfig};
    use crate::server::{serve, ServeConfig, Traffic};
    use crate::traffic::{generate, Arrivals, LengthDist, TrafficConfig};
    use klotski_core::engine::{KlotskiConfig, KlotskiEngine};
    use klotski_model::hardware::HardwareSpec;
    use klotski_model::spec::ModelSpec;
    use klotski_model::workload::Workload;
    use klotski_sim::time::SimDuration;
    use proptest::prelude::*;

    fn policy_for(selector: u8, n: u32) -> AdmissionPolicy {
        match selector % 3 {
            0 => AdmissionPolicy::FixedN { n },
            1 => AdmissionPolicy::Deadline {
                n,
                deadline: SimDuration::from_secs(2),
            },
            _ => AdmissionPolicy::CostAware {
                max_n: n,
                slo_e2e: SimDuration::from_secs(120),
            },
        }
    }

    fn dispatch_for(selector: u8) -> DispatchPolicy {
        DispatchPolicy::ALL[selector as usize % DispatchPolicy::ALL.len()]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        /// Admission never drops or duplicates a request, and every formed
        /// group respects the policy's batch bounds.
        #[test]
        fn admission_conserves_requests_and_bounds_groups(
            num in 1u32..40,
            bs in 1u32..6,
            n in 1u32..5,
            rate in 1u64..40,
            selector in 0u8..3,
            seed in 0u64..30,
        ) {
            let stream = generate(
                Arrivals::Poisson { rate: rate as f64 / 4.0 },
                &TrafficConfig {
                    num_requests: num,
                    prompt: LengthDist::Uniform { lo: 16, hi: 64 },
                    gen: LengthDist::Uniform { lo: 2, hi: 5 },
                    seed,
                },
            );
            let policy = policy_for(selector, n);
            let report = serve(
                &KlotskiEngine::new(KlotskiConfig::full()),
                &ModelSpec::mixtral_8x7b(),
                &HardwareSpec::env1_rtx3090(),
                &Traffic::Open(stream),
                &ServeConfig { batch_size: bs, policy, seed },
            ).expect("serve");

            // No drop, no duplicate: outcomes are exactly ids 0..num.
            let ids: Vec<u64> = report.outcomes.iter().map(|o| o.id).collect();
            prop_assert_eq!(ids, (0..num as u64).collect::<Vec<_>>());

            // Group shape bounds.
            for g in &report.groups {
                prop_assert!(g.workload.num_batches <= policy.max_batches());
                prop_assert!(g.workload.batch_size <= bs);
                prop_assert_eq!(g.n_requests as u64, g.workload.total_seqs());
            }
            // A request belongs to exactly one group.
            let grouped: u32 = report.groups.iter().map(|g| g.n_requests).sum();
            prop_assert_eq!(grouped, num);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// With a fixed-shape stream, the serving loop's per-request token
        /// counts add up to exactly the offline Workload totals for the
        /// same request set.
        #[test]
        fn token_counts_match_offline_workload(
            k in 1u32..5,
            bs in 1u32..5,
            n in 1u32..4,
            selector in 0u8..3,
            seed in 0u64..30,
        ) {
            let num = k * bs; // a whole number of batches
            let stream = generate(
                Arrivals::Poisson { rate: 2.0 },
                &TrafficConfig::fixed(num, 32, 3, seed),
            );
            let report = serve(
                &KlotskiEngine::new(KlotskiConfig::full()),
                &ModelSpec::mixtral_8x7b(),
                &HardwareSpec::env1_rtx3090(),
                &Traffic::Open(stream),
                &ServeConfig { batch_size: bs, policy: policy_for(selector, n), seed },
            ).expect("serve");

            let offline = Workload::new(bs, k, 32, 3);
            let served: u64 = report.outcomes.iter().map(|o| o.gen_len as u64).sum();
            prop_assert_eq!(served, offline.total_generated());
            // Fixed shapes make padding a no-op: the groups' padded totals
            // also add up exactly.
            let padded: u64 = report.groups.iter()
                .map(|g| g.workload.total_generated())
                .sum();
            prop_assert_eq!(padded, offline.total_generated());
            prop_assert!(report.outcomes.iter().all(|o| !o.failed));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// The dispatcher never drops or duplicates a request across
        /// replicas, every replica's groups respect the admission bounds,
        /// and no replica's groups overlap in time.
        #[test]
        fn dispatcher_conserves_requests_across_replicas(
            num in 1u32..30,
            bs in 1u32..5,
            n in 1u32..4,
            replicas in 1u32..4,
            dsel in 0u8..3,
            asel in 0u8..3,
            seed in 0u64..20,
        ) {
            let stream = generate(
                Arrivals::Poisson { rate: 4.0 },
                &TrafficConfig {
                    num_requests: num,
                    prompt: LengthDist::Uniform { lo: 16, hi: 64 },
                    gen: LengthDist::Uniform { lo: 2, hi: 5 },
                    seed,
                },
            );
            let policy = policy_for(asel, n);
            let report = serve_scaled(
                &KlotskiEngine::new(KlotskiConfig::full()),
                &ModelSpec::mixtral_8x7b(),
                &HardwareSpec::env1_rtx3090(),
                &Traffic::Open(stream),
                &ScaleConfig {
                    serve: ServeConfig { batch_size: bs, policy, seed },
                    replicas,
                    dispatch: dispatch_for(dsel),
                },
            ).expect("serve_scaled");

            // No drop, no duplicate: outcomes are exactly ids 0..num.
            let ids: Vec<u64> = report.outcomes.iter().map(|o| o.id).collect();
            prop_assert_eq!(ids, (0..num as u64).collect::<Vec<_>>());

            // Per-replica group bounds and non-overlap.
            prop_assert_eq!(report.replicas.len(), replicas as usize);
            for rid in 0..replicas {
                let mine: Vec<_> = report.groups.iter()
                    .filter(|g| g.replica == rid)
                    .collect();
                for g in &mine {
                    prop_assert!(g.workload.num_batches <= policy.max_batches());
                    prop_assert!(g.workload.batch_size <= bs);
                    prop_assert_eq!(g.n_requests as u64, g.workload.total_seqs());
                }
                for w in mine.windows(2) {
                    prop_assert!(
                        w[1].dispatched >= w[0].dispatched + w[0].service_time,
                        "replica {} groups overlap", rid
                    );
                }
                prop_assert_eq!(
                    report.replicas[rid as usize].groups as usize,
                    mine.len()
                );
            }
            // A request belongs to exactly one group on one replica.
            let grouped: u32 = report.groups.iter().map(|g| g.n_requests).sum();
            prop_assert_eq!(grouped, num);
            let served: u32 = report.replicas.iter().map(|r| r.requests).sum();
            prop_assert_eq!(served, num);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// One replica behind any dispatch policy reproduces the
        /// single-engine serving loop byte for byte.
        #[test]
        fn single_replica_dispatch_matches_serve(
            num in 1u32..25,
            bs in 1u32..5,
            n in 1u32..4,
            dsel in 0u8..3,
            asel in 0u8..3,
            seed in 0u64..20,
        ) {
            let stream = generate(
                Arrivals::Poisson { rate: 2.0 },
                &TrafficConfig {
                    num_requests: num,
                    prompt: LengthDist::Uniform { lo: 16, hi: 64 },
                    gen: LengthDist::Uniform { lo: 2, hi: 5 },
                    seed,
                },
            );
            let engine = KlotskiEngine::new(KlotskiConfig::full());
            let spec = ModelSpec::mixtral_8x7b();
            let hw = HardwareSpec::env1_rtx3090();
            let cfg = ServeConfig { batch_size: bs, policy: policy_for(asel, n), seed };
            let single = serve(&engine, &spec, &hw, &Traffic::Open(stream.clone()), &cfg)
                .expect("serve");
            let scaled = serve_scaled(
                &engine, &spec, &hw, &Traffic::Open(stream),
                &ScaleConfig { serve: cfg, replicas: 1, dispatch: dispatch_for(dsel) },
            ).expect("serve_scaled");
            prop_assert_eq!(&single.outcomes, &scaled.outcomes);
            prop_assert_eq!(&single.groups, &scaled.groups);
            prop_assert_eq!(&single.replicas, &scaled.replicas);
            prop_assert_eq!(single.makespan, scaled.makespan);
            // Merged token totals therefore match trivially — assert the
            // stronger fact anyway, since it is the acceptance contract.
            let tokens = |r: &crate::server::ServeReport| -> u64 {
                r.outcomes.iter().map(|o| o.gen_len as u64).sum()
            };
            prop_assert_eq!(tokens(&single), tokens(&scaled));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// Continuous mode with refill disabled is the run-to-completion
        /// loop byte for byte — the same degenerate-case contract as the
        /// R=1 dispatcher and static-fleet cluster pins. `prefill_chunk`
        /// and the class split must be inert in this mode.
        #[test]
        fn continuous_without_refill_matches_serve(
            num in 1u32..25,
            bs in 1u32..5,
            n in 1u32..4,
            asel in 0u8..3,
            chunk in 0u32..48,
            chat_pct in 0u32..101,
            seed in 0u64..20,
        ) {
            let stream = generate(
                Arrivals::Poisson { rate: 2.0 },
                &TrafficConfig {
                    num_requests: num,
                    prompt: LengthDist::Uniform { lo: 16, hi: 64 },
                    gen: LengthDist::Uniform { lo: 2, hi: 5 },
                    seed,
                },
            );
            let engine = KlotskiEngine::new(KlotskiConfig::full());
            let spec = ModelSpec::mixtral_8x7b();
            let hw = HardwareSpec::env1_rtx3090();
            let cfg = ServeConfig { batch_size: bs, policy: policy_for(asel, n), seed };
            let single = serve(&engine, &spec, &hw, &Traffic::Open(stream.clone()), &cfg)
                .expect("serve");
            let cont = serve_continuous(
                &engine, &spec, &hw, &Traffic::Open(stream),
                &ContinuousConfig {
                    serve: cfg,
                    refill: false,
                    prefill_chunk: chunk,
                    classes: ClassAssign::ChatShare { chat_pct },
                },
            ).expect("serve_continuous");
            prop_assert_eq!(&single.outcomes, &cont.serve.outcomes);
            prop_assert_eq!(&single.groups, &cont.serve.groups);
            prop_assert_eq!(&single.replicas, &cont.serve.replicas);
            prop_assert_eq!(single.makespan, cont.serve.makespan);
            prop_assert_eq!(cont.preemptions, 0);
            prop_assert_eq!(cont.refills, 0);
            prop_assert_eq!(cont.prefill_chunks, 0);
        }
    }
}
