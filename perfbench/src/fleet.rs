//! The chaos-campaign fleet simulation (`at-core::{fleet,runtime,guard,
//! chaos}`): 8 replicas × 6 tenants, power-of-two-choices routing, a rail
//! brownout storm and a crash / gray / partition campaign — the campaign
//! phase of the repository's `fleet_chaos` bench. It is a single-threaded
//! discrete-event loop with no real kernels. The roster is that bench's,
//! written out here so that edits to the bench binaries cannot change this
//! workload.

use crate::trace::Tracer;
use crate::Outcome;
use at_core::chaos::ChaosPlan;
use at_core::config::Config;
use at_core::fleet::{
    fleet_arrivals, run_fleet, FleetParams, FleetReport, RouterPolicy, TenantSpec,
};
use at_core::guard::{GuardParams, MiscalibratedExecutor};
use at_core::pareto::{TradeoffCurve, TradeoffPoint};
use at_core::serve::{RequestExecutor, ServeParams, TrafficPattern};
use at_hw::{DisturbedDevice, Scenario};
use at_models::BenchmarkId;
use std::time::Instant;

const REPLICAS: usize = 8;
/// The brownout and the fault campaign are a fixed, named scenario: where a
/// crash lands moves the tail latency more than anything else, so a seeded
/// campaign would make `sim_p99_ms` a property of the seed. The seed draws
/// the traffic: every tenant's arrival trace, routing and canary sampling.
const SCENARIO_SEED: u64 = 7;
/// Summed mean arrival rate of the six tenants, requests per simulated
/// second; sets the horizon that yields the requested arrival count.
const TOTAL_RATE_RPS: f64 = 216.0;
const MODELS: [BenchmarkId; 6] = [
    BenchmarkId::LeNet,
    BenchmarkId::AlexNetCifar10,
    BenchmarkId::AlexNet2,
    BenchmarkId::ResNet18,
    LIAR,
    BenchmarkId::MobileNet,
];
/// This tenant's curve over-promises by `LIE_MARGIN` and its executor
/// under-delivers a further 1.5 points, so the guards must convict it.
const LIAR: BenchmarkId = BenchmarkId::Vgg16Cifar10;
const LIE_MARGIN: f64 = 2.5;

/// The honest QoS each rung of a tenant's synthetic curve delivers.
fn honest_qos(id: BenchmarkId) -> Vec<f64> {
    let acc = id.paper_baseline_accuracy();
    let rungs = 4 + id.paper_layers() % 4;
    (0..rungs).map(|i| acc - (0.4 + 0.5 * i as f64)).collect()
}

fn tenant(i: usize, id: BenchmarkId, horizon_s: f64, seed: u64) -> TenantSpec {
    let pattern = match i {
        0 => TrafficPattern::Steady { rate_rps: 60.0 },
        1 => TrafficPattern::Bursty {
            base_rps: 30.0,
            burst_rps: 90.0,
            period_s: horizon_s / 10.0,
            duty: 0.25,
        },
        2 => TrafficPattern::Diurnal {
            min_rps: 10.0,
            max_rps: 50.0,
            period_s: horizon_s / 4.0,
        },
        3 => TrafficPattern::Steady { rate_rps: 25.0 },
        4 => TrafficPattern::Bursty {
            base_rps: 20.0,
            burst_rps: 60.0,
            period_s: horizon_s / 8.0,
            duty: 0.3,
        },
        _ => TrafficPattern::Spike {
            base_rps: 20.0,
            spike_rps: 200.0,
            at_s: 0.3 * horizon_s,
            len_s: 0.02 * horizon_s,
        },
    };
    let lie = if id == LIAR { LIE_MARGIN } else { 0.0 };
    let curve = TradeoffCurve::from_points(
        honest_qos(id)
            .into_iter()
            .enumerate()
            .map(|(r, qos)| TradeoffPoint {
                qos: qos + lie,
                perf: 1.2 + 0.22 * r as f64,
                config: Config::from_knobs(vec![]),
            })
            .collect(),
    );
    TenantSpec {
        name: id.name().to_string(),
        curve,
        baseline_time_s: id.nominal_service_time_s(),
        baseline_qos: id.paper_baseline_accuracy(),
        pattern,
        arrival_seed: seed ^ ((i as u64 + 1) << 32),
        guard: GuardParams {
            qos_floor: id.paper_baseline_accuracy() - 4.0,
            canary_fraction: 0.1,
            ..GuardParams::default()
        },
    }
}

/// The fleet, its tenants, the disturbance timeline and the campaign.
pub struct Inputs {
    tenants: Vec<TenantSpec>,
    execs: Vec<MiscalibratedExecutor>,
    device: DisturbedDevice,
    params: FleetParams,
    /// Seconds `fleet_arrivals` took to generate the merged arrival stream
    /// (which `run_fleet` generates again on every call).
    pub arrivals_s: f64,
}

/// Builds the fleet for about `requests` arrivals, and times generating its
/// merged arrival stream.
pub fn setup(requests: usize, seed: u64) -> Inputs {
    let horizon_s = requests as f64 / TOTAL_RATE_RPS;
    let tenants: Vec<TenantSpec> = MODELS
        .iter()
        .enumerate()
        .map(|(i, &id)| tenant(i, id, horizon_s, seed))
        .collect();
    let execs = MODELS
        .iter()
        .enumerate()
        .map(|(i, &id)| MiscalibratedExecutor {
            honest_qos: honest_qos(id)
                .into_iter()
                .map(|q| if id == LIAR { q - 1.5 } else { q })
                .collect(),
            jitter: 0.3,
            seed: 0xF1EE7 ^ (i as u64),
        })
        .collect();
    let per_replica = requests / REPLICAS;
    let device = DisturbedDevice::tx2(
        Scenario::brownout_storm(
            usize::MAX / 2,
            per_replica * 2 / 5,
            per_replica / 10,
            0.6,
            SCENARIO_SEED ^ 0xB10,
        )
        .with_invocations(usize::MAX / 2),
    );
    let chaos = ChaosPlan::campaign(
        SCENARIO_SEED ^ 0xC4A05,
        horizon_s,
        REPLICAS,
        REPLICAS / 2,
        REPLICAS / 4,
        REPLICAS / 4,
    );
    let params = FleetParams {
        replicas: REPLICAS,
        policy: RouterPolicy::PowerOfTwoChoices,
        serve: ServeParams {
            deadline_s: 0.25,
            queue_cap: 16,
            drain_fraction: 0.2,
            seed,
            ..ServeParams::default()
        },
        horizon_s,
        steal: true,
        route_seed: seed ^ 0xF1EE,
        chaos,
        ..FleetParams::default()
    };
    let started = Instant::now();
    std::hint::black_box(fleet_arrivals(&tenants, horizon_s));
    let arrivals_s = started.elapsed().as_secs_f64();
    Inputs {
        tenants,
        execs,
        device,
        params,
        arrivals_s,
    }
}

/// Accounting checks on one report; returns the failures.
fn check_report(report: &FleetReport, out: &mut Outcome) -> bool {
    let unaccounted_ok = report.requests_unaccounted == 0;
    out.check(
        "fleet accounts for every arrival",
        unaccounted_ok,
        format!("{} unaccounted", report.requests_unaccounted),
    );
    let by_reason: usize = report
        .tenants
        .iter()
        .map(|t| t.shed_queue_full + t.shed_deadline + t.shed_breaker + t.shed_replica_lost)
        .sum();
    let sheds_ok = by_reason == report.shed;
    out.check(
        "shed reasons sum to total sheds",
        sheds_ok,
        format!("{by_reason} by reason vs {} shed", report.shed),
    );
    unaccounted_ok && sheds_ok
}

/// The fleet phase: one simulation of the same inputs per step.
pub struct Phase<'a> {
    inp: &'a Inputs,
    wall_s: Vec<f64>,
    /// The first report, and its JSON for comparison with later ones.
    first: Option<(FleetReport, String)>,
    out: Outcome,
}

impl<'a> Phase<'a> {
    /// A phase over `inp` that has run nothing yet.
    pub fn new(inp: &'a Inputs) -> Phase<'a> {
        Phase {
            inp,
            wall_s: Vec::new(),
            first: None,
            out: Outcome::default(),
        }
    }
}

impl crate::Phase for Phase<'_> {
    fn step(&mut self, tracer: &Tracer) -> f64 {
        let inp = self.inp;
        let execs: Vec<&dyn RequestExecutor> = inp
            .execs
            .iter()
            .map(|e| e as &dyn RequestExecutor)
            .collect();
        self.out.attempted += 1;
        let started = Instant::now();
        let report = tracer.span("fleet.run", || {
            run_fleet(&inp.tenants, &execs, &inp.device, &inp.params)
        });
        let wall_s = started.elapsed().as_secs_f64();
        self.wall_s.push(wall_s);
        let mut ok = check_report(&report, &mut self.out);
        let json = report.to_json();
        match &self.first {
            None => self.first = Some((report, json)),
            Some((_, j)) => {
                let same = *j == json;
                let check = "repeated simulations are bit-identical";
                self.out.check(check, same, String::new());
                ok &= same;
            }
        }
        if !ok {
            self.out.failed += 1;
        }
        wall_s
    }

    fn finish(self: Box<Self>, tracer: &Tracer) -> Outcome {
        let Phase {
            wall_s,
            first,
            mut out,
            ..
        } = *self;
        report(&wall_s, first, &mut out, tracer);
        out
    }
}

/// Reports the simulations' metrics.
fn report(
    wall_s: &[f64],
    first: Option<(FleetReport, String)>,
    out: &mut Outcome,
    tracer: &Tracer,
) {
    let Some((r, _)) = first else { return };
    // Every simulation replays the same arrivals, so the rate over all of
    // them is total arrivals over total wall time. The host alternates
    // between two speeds for seconds at a time; a median of simulation
    // times jumps between them as their mix shifts, the mean moves with it.
    let run_s = wall_s.iter().sum::<f64>() / wall_s.len() as f64;
    out.e2e("sim_rps", r.arrivals as f64 / run_s, "1/s");
    out.e2e("sim_on_time_pct", 100.0 * r.on_time_rate(), "%");
    out.e2e("sim_p99_ms", r.p99_latency_s * 1e3, "ms");
    out.detail(
        "fleet",
        serde_json::json!({
            "run_wall_s": wall_s,
            "arrivals": r.arrivals,
            "admitted": r.admitted,
            "served_on_time": r.served_on_time,
            "served_late": r.served_late,
            "shed": r.shed,
            "faulted": r.faulted,
            "stalled": r.stalled,
        }),
    );
    if tracer.enabled() {
        out.layer("fleet.run_s", run_s, "s");
        out.layer(
            "fleet.ns_per_request",
            run_s * 1e9 / r.arrivals as f64,
            "ns",
        );
        out.layer("fleet.steals", r.steal_events as f64, "count");
        out.layer("fleet.breaker_trips", r.breaker_trips as f64, "count");
        out.layer("fleet.crashes", r.crashes as f64, "count");
        out.layer("fleet.gray_ejections", r.gray_ejections as f64, "count");
        out.layer("fleet.partitions", r.partitions as f64, "count");
        let quarantined: usize = r.tenants.iter().map(|t| t.quarantined_points).sum();
        out.layer("fleet.quarantined_points", quarantined as f64, "count");
    }
}
