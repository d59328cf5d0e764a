//! `serving`: multi-tenant, open-loop serving straight through faas.
//!
//! A Poisson victim tenant, a noisy tenant with a 10× burst window and
//! four periodic cron tenants, all under per-tenant quotas, bounded
//! admission queues and hybrid keep-alive. Arrivals follow the seeded
//! schedule whatever the completions do: `invoke_in` never blocks, so each
//! request is submitted at its due time, and the generator's largest lag
//! is recorded. Core and the store are bypassed entirely, so this is the
//! no-change control for work on them; faas is used the opposite way from
//! `spawn` (a warm pool rather than an all-cold burst).
//!
//! Quotas and queue depths are sized so the burst queues but nothing is
//! shed or throttled: every request is admitted and must succeed.

use std::sync::Arc;
use std::time::Duration;

use rustwren_core::{CosOpStats, SimCloud};
use rustwren_faas::{InvokeError, KeepAlivePolicy, PlatformConfig, TenantConfig, TenantStats};
use rustwren_workloads::serving::{
    self, Arrival, BurstWindow, ExecMix, TenantTraffic, TraceConfig, SERVE_FN,
};

use crate::host::Stopwatch;
use crate::measure::{self, Rep, SimMetrics, Workload};
use crate::trace::{self, Tracer};

/// The serving workload for one seed and horizon.
#[derive(Debug, Clone)]
pub struct Serving {
    seed: u64,
    horizon: Duration,
    /// Traffic per tenant, with its concurrency quota and queue depth.
    tenants: Vec<(TenantTraffic, usize, usize)>,
}

/// A fresh cloud and the generated arrival trace.
#[derive(Debug)]
pub struct Prepared {
    cloud: SimCloud,
    trace: Vec<Arrival>,
}

impl Serving {
    /// Six tenants over `horizon` virtual seconds for `seed`.
    pub fn new(seed: u64, horizon: Duration) -> Serving {
        let victim = TenantTraffic::poisson("victim", 4.0).with_exec(ExecMix {
            min: Duration::from_millis(200),
            alpha: 1.8,
            cap: Duration::from_secs(2),
        });
        let noisy = TenantTraffic::poisson("noisy", 4.0)
            .with_exec(ExecMix {
                min: Duration::from_millis(300),
                alpha: 1.6,
                cap: Duration::from_secs(3),
            })
            .with_burst(BurstWindow {
                start: horizon / 4,
                len: horizon / 24,
                multiplier: 10.0,
            });
        let mut tenants = vec![(victim, 8, 256), (noisy, 40, 4096)];
        for (i, period) in [28u64, 33, 38, 43].into_iter().enumerate() {
            let cron = TenantTraffic::periodic(format!("cron-{i}"), Duration::from_secs(period))
                .with_exec(ExecMix {
                    min: Duration::from_millis(120),
                    alpha: 2.0,
                    cap: Duration::from_secs(1),
                });
            tenants.push((cron, 2, 16));
        }
        Serving {
            seed,
            horizon,
            tenants,
        }
    }

    fn platform(&self) -> PlatformConfig {
        let quota: usize = self.tenants.iter().map(|t| t.1).sum();
        PlatformConfig {
            concurrency_limit: quota,
            cluster_containers: quota + 16,
            keep_alive: Some(KeepAlivePolicy::hybrid(Duration::from_secs(20))),
            tenants: self
                .tenants
                .iter()
                .map(|(t, quota, depth)| {
                    TenantConfig::new(&t.namespace, *quota).queue_depth(*depth)
                })
                .collect(),
            ..PlatformConfig::default()
        }
    }

    fn namespaces(&self) -> impl Iterator<Item = &str> {
        self.tenants.iter().map(|t| t.0.namespace.as_str())
    }
}

/// What the generator saw for one tenant: admitted, shed and throttled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sent {
    /// Requests accepted (admitted at once or queued).
    pub admitted: u64,
    /// Requests refused because the tenant's queue was full.
    pub shed: u64,
    /// Requests refused by a rate limit.
    pub throttled: u64,
}

/// The generator's per-tenant counts agree with the platform's, and every
/// admitted activation succeeded.
pub fn check(sent: &[(String, Sent)], stats: &[TenantStats], failed: u64) -> Result<(), String> {
    if failed > 0 {
        return Err(format!("serving: {failed} admitted activations failed"));
    }
    for ((ns, s), st) in sent.iter().zip(stats) {
        if (st.submitted, st.shed, st.throttled) != (s.admitted, s.shed, s.throttled) {
            return Err(format!(
                "serving: tenant {ns} sent {s:?} but the platform counted submitted={} shed={} throttled={}",
                st.submitted, st.shed, st.throttled
            ));
        }
    }
    Ok(())
}

impl Workload for Serving {
    type Prepared = Prepared;

    fn setup(&self, tracer: Option<&Tracer>, parent: u64) -> Result<Prepared, String> {
        let cloud = trace::scope(tracer, "setup.cloud", parent, 0, || {
            SimCloud::builder()
                .seed(self.seed)
                .platform(self.platform())
                .try_build()
        })
        .map_err(|e| format!("serving platform: {e}"))?;
        trace::scope(tracer, "setup.register", parent, 0, || {
            serving::register(cloud.functions())
        })
        .map_err(|e| format!("registering {SERVE_FN}: {e}"))?;
        let traffic: Vec<TenantTraffic> = self.tenants.iter().map(|t| t.0.clone()).collect();
        let trace = trace::scope(tracer, "setup.trace", parent, 0, || {
            serving::generate(
                &traffic,
                &TraceConfig {
                    horizon: self.horizon,
                    seed: self.seed,
                },
            )
        });
        Ok(Prepared { cloud, trace })
    }

    fn run(&self, p: Prepared, tracer: Option<&Arc<Tracer>>, parent: u64) -> Result<Rep, String> {
        let Prepared { cloud, trace } = p;
        let tr = tracer.map(|t| &**t);
        let faas = cloud.functions();
        let namespaces: Vec<&str> = self.namespaces().collect();
        let watch = Stopwatch::start();
        let out = cloud.run(|| {
            let origin = rustwren_sim::now();
            let mut sent = vec![Sent::default(); namespaces.len()];
            let mut admitted = Vec::with_capacity(trace.len());
            let mut max_lag = Duration::ZERO;
            for a in &trace {
                let due = origin + a.at;
                let now = rustwren_sim::now();
                if due > now {
                    rustwren_sim::sleep(due.duration_since(now));
                }
                max_lag = max_lag.max(rustwren_sim::now().duration_since(due));
                let ns = namespaces[a.tenant];
                let payload = serving::payload(a.exec);
                let res = match tr {
                    Some(t) => {
                        let mut open = t.open("faas.invoke_in", parent, 0);
                        let res = faas.invoke_in(ns, SERVE_FN, payload);
                        if let Ok(id) = &res {
                            open.set_req(id.0);
                        }
                        t.close(open, 0, 0);
                        res
                    }
                    None => faas.invoke_in(ns, SERVE_FN, payload),
                };
                match res {
                    Ok(id) => {
                        sent[a.tenant].admitted += 1;
                        admitted.push((id, due));
                    }
                    Err(InvokeError::ShedLoad { .. }) => sent[a.tenant].shed += 1,
                    Err(InvokeError::Throttled { .. }) => sent[a.tenant].throttled += 1,
                    Err(e) => return Err(format!("serving: invoke_in({ns}): {e}")),
                }
            }
            // Latency runs from each request's due time to its completion.
            let mut latencies = Vec::with_capacity(admitted.len());
            let (mut failed, mut last_end) = (0u64, origin);
            for (id, due) in admitted {
                let record = faas.wait(id);
                let end = record
                    .ended
                    .ok_or("a waited-for activation has no end time")?;
                failed += u64::from(!record.is_success());
                latencies.push(measure::vsecs(due, end) * 1e3);
                last_end = last_end.max(end);
            }
            let host = watch.stop();
            let stats: Vec<TenantStats> = namespaces
                .iter()
                .map(|ns| faas.tenant_stats(ns).unwrap_or_default())
                .collect();
            Ok::<_, String>((
                origin,
                last_end,
                host,
                sent,
                latencies,
                failed,
                max_lag,
                stats,
                cloud.kernel().stats(),
            ))
        })?;
        let (origin, last_end, host, sent, latencies, failed_acts, max_lag, tstats, kernel) = out;
        let named: Vec<(String, Sent)> = namespaces
            .iter()
            .map(|ns| (*ns).to_owned())
            .zip(sent.iter().copied())
            .collect();
        check(&named, &tstats, failed_acts)?;

        let records = faas.records();
        let stats = faas.stats();
        let mut sim = SimMetrics::new();
        sim.insert("virtual_s", measure::vsecs(origin, last_end));
        let samples = measure::latency(&mut sim, latencies);
        let attempted = trace.len() as u64;
        let failed = failed_acts + sent.iter().map(|s| s.shed + s.throttled).sum::<u64>();
        measure::fractions(&mut sim, attempted, failed);
        sim.insert("gen_lag_ms", max_lag.as_secs_f64() * 1e3);
        measure::sim_layer(&mut sim, &kernel);
        let ops = CosOpStats {
            agent: faas.agent_op_counts(),
            ..CosOpStats::default()
        };
        measure::store_layer(&mut sim, &ops);
        let warm_pool_s = tstats.iter().map(|t| t.warm_pool_seconds).sum();
        measure::faas_layer(&mut sim, &cloud, &stats, &records, warm_pool_s);
        measure::absent(
            &mut sim,
            &[
                "core.invocation_phase_s",
                "core.discovery_lag_s",
                "core.recovery_actions",
                "core.agent_overhead_p50_ms",
            ],
        );
        Ok(Rep {
            host,
            sim,
            traced: SimMetrics::new(),
            attempted,
            failed,
            latency_samples: samples,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_miscounted_tenant_or_failed_activation_trips_the_gate() {
        let sent = vec![(
            "victim".to_owned(),
            Sent {
                admitted: 5,
                shed: 1,
                throttled: 0,
            },
        )];
        let stats = TenantStats {
            submitted: 5,
            shed: 1,
            ..TenantStats::default()
        };
        check(&sent, &[stats], 0).expect("matching counts pass");
        assert!(check(&sent, &[stats], 1).is_err());
        let lost = TenantStats {
            submitted: 4,
            ..stats
        };
        assert!(check(&sent, &[lost], 0).is_err());
    }
}
