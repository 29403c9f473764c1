//! The development-time and install pipeline: profile collection,
//! calibration, search and validation (`at-core::{profile,tuner}`), then
//! the `atune install` path (`ShippedArtifact` round trip and
//! `refine_software_only` on the TX2 model, `at-core::install`).

use crate::stats::{kendall_tau_b, median, splitmix64};
use crate::trace::Tracer;
use crate::Outcome;
use at_core::install::{refine_software_only, EdgeDevice, InstallObjective};
use at_core::knobs::{KnobRegistry, KnobSet};
use at_core::pareto::TradeoffPoint;
use at_core::perf::PerfModel;
use at_core::profile::measure_config;
use at_core::qos::{QosMetric, QosReference};
use at_core::tuner::{PredictiveTuner, TunerParams, TuningResult};
use at_core::{Config, ShippedArtifact};
use at_hw::{DeviceSpec, TimingModel};
use at_ir::{execute, execute_with_trace, ExecOptions};
use at_models::data::{build_dataset, Dataset};
use at_models::Benchmark;
use at_tensor::instrument::count_muls;
use std::time::Instant;

const BATCH: usize = 16;
/// The calibration set and the pool of held-out batches are fixed, like the
/// dataset that ships with a model, so every seed tunes the same program on
/// the same data and does the same work. The seed draws which pool batches
/// form the held-out set.
const DATA_SEED: u64 = 0xDA7A;
const POOL_BATCHES: usize = 24;
/// Held-out batches per run: 256 samples, so one flipped prediction moves
/// the held-out accuracy by 0.4 pp.
const TEST_BATCHES: usize = 16;
/// The QoS target: at most this many accuracy points below the measured
/// calibration baseline.
const QOS_DROP_PP: f64 = 3.0;
/// Repetitions per configuration when timing shipped points on the host.
const TIMING_REPS: usize = 5;

/// Everything the pipeline consumes, built during set-up.
pub struct Inputs {
    bench: Benchmark,
    cal: Dataset,
    test: Dataset,
    registry: KnobRegistry,
}

/// Builds the calibration set (`cal_batches` batches) and the seeded
/// held-out set for `bench`.
pub fn setup(bench: Benchmark, cal_batches: usize, seed: u64) -> Inputs {
    let mut all = build_dataset(
        &bench,
        (cal_batches + POOL_BATCHES) * BATCH,
        BATCH,
        DATA_SEED,
    );
    let mut pick: Vec<usize> = (0..POOL_BATCHES).collect();
    pick.sort_by_key(|&i| splitmix64(seed ^ i as u64));
    pick.truncate(TEST_BATCHES);
    let test = Dataset {
        batches: pick
            .iter()
            .map(|&i| all.batches[cal_batches + i].clone())
            .collect(),
        labels: pick
            .iter()
            .map(|&i| all.labels[cal_batches + i].clone())
            .collect(),
        classes: all.classes,
    };
    all.batches.truncate(cal_batches);
    all.labels.truncate(cal_batches);
    Inputs {
        bench,
        cal: all,
        test,
        registry: KnobRegistry::new(),
    }
}

/// One pipeline's result.
struct Run {
    tune_s: f64,
    collect_s: f64,
    qos_min: f64,
    pairs: usize,
    profile_muls: u64,
    result: TuningResult,
    shipped: Vec<TradeoffPoint>,
    install: Install,
}

fn pipeline(inp: &Inputs, tracer: &Tracer) -> Result<Run, String> {
    let graph = &inp.bench.graph;
    let reference = QosReference::Labels(inp.cal.labels.clone());
    let shape = inp.cal.batches[0].shape();
    let tuner = PredictiveTuner {
        graph,
        registry: &inp.registry,
        inputs: &inp.cal.batches,
        metric: QosMetric::Accuracy,
        reference: &reference,
        input_shape: shape,
        promise_seed: 0,
    };
    let started = Instant::now();
    let base = tracer
        .span("profile.baseline", || {
            measure_config(
                graph,
                &inp.registry,
                &Config::baseline(graph),
                &inp.cal.batches,
                QosMetric::Accuracy,
                &reference,
                0,
            )
        })
        .map_err(|e| format!("baseline: {e}"))?;
    let params = TunerParams {
        qos_min: base - QOS_DROP_PP,
        max_iters: 400,
        convergence_window: 200,
        knob_set: KnobSet::HardwareIndependent,
        ..TunerParams::default()
    };
    let collect_started = Instant::now();
    // The multiply counter is one relaxed atomic add per kernel call, so
    // reading it around collection costs nothing measurable.
    let (profiles, profile_muls) =
        tracer.span("profile.collect", || count_muls(|| tuner.collect(&params)));
    let profiles = profiles.map_err(|e| format!("collect: {e}"))?;
    let collect_s = collect_started.elapsed().as_secs_f64();
    let result = tracer
        .span("tuner.tune", || tuner.tune(&profiles, &params))
        .map_err(|e| format!("tune: {e}"))?;
    let tune_s = started.elapsed().as_secs_f64();

    // A run that ships nothing has nothing to install; the shipped-points
    // check reports it.
    let installed = if result.curve.points().is_empty() {
        None
    } else {
        Some(install(inp, &result, params.qos_min, tracer)?)
    };
    Ok(Run {
        tune_s,
        collect_s,
        qos_min: params.qos_min,
        pairs: profiles.pairs.len(),
        profile_muls,
        shipped: result.curve.points().to_vec(),
        install: installed.unwrap_or_default(),
        result,
    })
}

/// One install of a tuned curve.
#[derive(Default)]
struct Install {
    install_s: f64,
    refine_s: f64,
    loaded: Vec<TradeoffPoint>,
    installed: Vec<TradeoffPoint>,
}

/// Ships `result`'s curve as an artifact, loads it back as the device
/// would, and refines it with measured QoS on the TX2 model.
fn install(
    inp: &Inputs,
    result: &TuningResult,
    qos_min: f64,
    tracer: &Tracer,
) -> Result<Install, String> {
    let graph = &inp.bench.graph;
    let started = Instant::now();
    let json = ShippedArtifact::new(
        graph,
        QosMetric::Accuracy,
        qos_min,
        Some(result.curve.clone()),
        None,
    )
    .to_json();
    let curve = tracer
        .span("install.load", || ShippedArtifact::load(&json, graph, true))
        .map_err(|e| format!("artifact load: {e}"))?;
    let refine_started = Instant::now();
    let refined = tracer
        .span("install.refine", || {
            refine_software_only(
                graph,
                &inp.registry,
                &EdgeDevice::tx2(),
                InstallObjective::Speedup,
                &curve,
                &inp.cal.batches,
                QosMetric::Accuracy,
                &QosReference::Labels(inp.cal.labels.clone()),
                qos_min,
                inp.cal.batches[0].shape(),
                0,
            )
        })
        .map_err(|e| format!("refine: {e}"))?;
    Ok(Install {
        refine_s: refine_started.elapsed().as_secs_f64(),
        install_s: started.elapsed().as_secs_f64(),
        loaded: curve.points().to_vec(),
        installed: refined.points().to_vec(),
    })
}

/// Held-out accuracy of `config` in percent.
fn test_accuracy(inp: &Inputs, config: &Config) -> Result<f64, String> {
    measure_config(
        &inp.bench.graph,
        &inp.registry,
        config,
        &inp.test.batches,
        QosMetric::Accuracy,
        &QosReference::Labels(inp.test.labels.clone()),
        0,
    )
    .map_err(|e| format!("test accuracy: {e}"))
}

fn opts(inp: &Inputs, config: &Config) -> ExecOptions {
    ExecOptions {
        config: config.decode(&inp.registry, &inp.bench.graph),
        promise_seed: 0,
    }
}

/// Median host wall time of one forward pass of the first calibration
/// batch under `config`, in seconds.
fn host_time_s(inp: &Inputs, config: &Config) -> Result<f64, String> {
    let o = opts(inp, config);
    let x = &inp.cal.batches[0];
    let mut t = Vec::with_capacity(TIMING_REPS);
    for _ in 0..TIMING_REPS {
        let started = Instant::now();
        std::hint::black_box(execute(&inp.bench.graph, x, &o).map_err(|e| e.to_string())?);
        t.push(started.elapsed().as_secs_f64());
    }
    Ok(median(&t))
}

/// Median per-pass self time, in ms, of every node of op kind `op` under
/// `config`, from `execute_with_trace`.
fn op_self_ms(inp: &Inputs, config: &Config, op: &str) -> Result<f64, String> {
    let o = opts(inp, config);
    let g = &inp.bench.graph;
    let mut per_pass = Vec::with_capacity(TIMING_REPS);
    for _ in 0..TIMING_REPS {
        let (_, times) =
            execute_with_trace(g, &inp.cal.batches[0], &o).map_err(|e| e.to_string())?;
        per_pass.push(
            g.nodes()
                .iter()
                .zip(&times)
                .filter(|(n, _)| n.op.name() == op)
                .map(|(_, t)| t * 1e3)
                .sum::<f64>(),
        );
    }
    Ok(median(&per_pass))
}

/// The tune phase: one cold pipeline per step.
pub struct Phase<'a> {
    inp: &'a Inputs,
    runs: Vec<Run>,
    out: Outcome,
}

impl<'a> Phase<'a> {
    /// A phase over `inp` that has run nothing yet.
    pub fn new(inp: &'a Inputs) -> Phase<'a> {
        Phase {
            inp,
            runs: Vec::new(),
            out: Outcome::default(),
        }
    }
}

impl crate::Phase for Phase<'_> {
    fn step(&mut self, tracer: &Tracer) -> f64 {
        let started = Instant::now();
        self.out.attempted += 1;
        match tracer.span("tune.pipeline", || pipeline(self.inp, tracer)) {
            Ok(r) => self.runs.push(r),
            Err(e) => {
                self.out.failed += 1;
                self.out.check("pipeline runs", false, e);
            }
        }
        started.elapsed().as_secs_f64()
    }

    fn finish(self: Box<Self>, tracer: &Tracer) -> Outcome {
        let Phase { inp, runs, out } = *self;
        report(inp, &runs, out, tracer)
    }
}

/// Checks the pipelines' results and reports their medians.
fn report(inp: &Inputs, runs: &[Run], mut out: Outcome, tracer: &Tracer) -> Outcome {
    let Some(first) = runs.first() else {
        return out;
    };
    let graph = &inp.bench.graph;
    let shipped = first.shipped.len();
    out.check(
        "tuner ships at least one point",
        shipped > 0,
        format!("{shipped} shipped"),
    );
    let below: Vec<f64> = first
        .shipped
        .iter()
        .map(|p| p.qos)
        .filter(|q| !(q.is_finite() && *q > first.qos_min))
        .collect();
    out.check(
        "every shipped point's validated QoS exceeds qos_min",
        below.is_empty(),
        format!("qos_min {:.3}, violators {below:?}", first.qos_min),
    );
    let round_trip = first.install.loaded == first.shipped;
    out.check(
        "artifact round-trips through ShippedArtifact::load",
        round_trip,
        format!("{} of {} points", first.install.loaded.len(), shipped),
    );
    let repeatable = runs
        .iter()
        .all(|r| r.shipped == first.shipped && r.install.installed == first.install.installed);
    out.check(
        "repeated pipelines give identical curves",
        repeatable,
        format!("{} pipelines", runs.len()),
    );
    if shipped == 0 || !round_trip || !repeatable || !below.is_empty() {
        out.failed += 1;
    }

    // The best installed point: the highest TX2-model speedup.
    let best = first
        .install
        .installed
        .iter()
        .max_by(|a, b| a.perf.total_cmp(&b.perf))
        .cloned();
    let (speedup, test_acc, drop_pp) = match &best {
        Some(p) => {
            let accs = test_accuracy(inp, &Config::baseline(graph))
                .and_then(|base| Ok((base, test_accuracy(inp, &p.config)?)));
            match accs {
                Ok((base, acc)) => (p.perf, acc, base - acc),
                Err(e) => {
                    out.failed += 1;
                    out.check("held-out evaluation runs", false, e);
                    (f64::NAN, f64::NAN, f64::NAN)
                }
            }
        }
        None => {
            out.failed += 1;
            out.check("install keeps at least one point", false, String::new());
            (f64::NAN, f64::NAN, f64::NAN)
        }
    };

    let med = |f: fn(&Run) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    out.e2e("tune_s", med(|r| r.tune_s), "s");
    out.e2e("install_s", med(|r| r.install.install_s), "s");
    out.e2e("tune_speedup_modelled", speedup, "x");
    out.e2e("tune_test_acc_pct", test_acc, "%");

    if tracer.enabled() {
        let collect_s = med(|r| r.collect_s);
        let res = &first.result;
        out.layer("profile.collect_s", collect_s, "s");
        out.layer("profile.pairs", first.pairs as f64, "count");
        out.layer("profile.pairs_per_s", first.pairs as f64 / collect_s, "1/s");
        out.layer("tuner.search_s", med(|r| r.result.search_time_s), "s");
        out.layer("tuner.validate_s", med(|r| r.result.validation_time_s), "s");
        out.layer("tuner.iterations", res.iterations as f64, "count");
        let lookups = (res.cache.hits + res.cache.misses + res.cache.dedup).max(1);
        out.layer(
            "tuner.cache_hit_rate",
            (res.cache.hits + res.cache.dedup) as f64 / lookups as f64,
            "ratio",
        );
        out.layer("tuner.shipped_points", shipped as f64, "count");
        out.layer("tuner.test_drop_pp", drop_pp, "pp");
        out.layer("install.refine_s", med(|r| r.install.refine_s), "s");
        let kept = first.install.installed.len();
        out.layer("install.points_kept", kept as f64, "count");
        traced_extras(inp, first, best.as_ref(), &mut out);
    }
    out
}

/// Traced-run extras: modelled against measured speedup of every shipped
/// point, the rank agreement between them, per-op self times of the
/// activation and pooling ops, and the multiplies profile collection runs.
fn traced_extras(inp: &Inputs, first: &Run, best: Option<&TradeoffPoint>, out: &mut Outcome) {
    let graph = &inp.bench.graph;
    let baseline = Config::baseline(graph);
    let perf = PerfModel::new(graph, &inp.registry, inp.cal.batches[0].shape());
    let measured = (|| -> Result<serde_json::Value, String> {
        let perf = perf.map_err(|e| e.to_string())?;
        let tx2 = EdgeDevice::tx2();
        let cpu = TimingModel::new(DeviceSpec::tx2_cpu());
        let exact_s = host_time_s(inp, &baseline)?;
        let mut rows = Vec::new();
        let (mut modelled, mut host) = (Vec::new(), Vec::new());
        for p in &first.shipped {
            let m = perf.device_speedup(&p.config, &tx2.timing, &tx2.promise);
            let c = perf.device_speedup(&p.config, &cpu, &tx2.promise);
            let h = exact_s / host_time_s(inp, &p.config)?;
            modelled.push(m);
            host.push(h);
            rows.push(serde_json::json!({
                "qos": p.qos,
                "tuner_predicted_speedup": serde_json::json!({"value": p.perf, "kind": "modelled"}),
                "tx2_gpu_speedup": serde_json::json!({"value": m, "kind": "modelled"}),
                "tx2_cpu_speedup": serde_json::json!({"value": c, "kind": "modelled"}),
                "host_speedup": serde_json::json!({"value": h, "kind": "measured"}),
            }));
        }
        let tau = kendall_tau_b(&modelled, &host);
        let best_host = best
            .map(|b| host_time_s(inp, &b.config).map(|t| exact_s / t))
            .transpose()?
            .unwrap_or(f64::NAN);
        out.layer("tuner.rank_tau", tau, "tau");
        out.layer("tuner.best_speedup_measured", best_host, "x");
        Ok(serde_json::json!({
            "host_exact_ms": exact_s * 1e3,
            "rank_tau_tx2_vs_host": serde_json::json!({"value": tau, "kind": "measured vs modelled"}),
            "points": rows,
        }))
    })();
    match measured {
        Ok(v) => out.detail("modelled_vs_measured", v),
        Err(e) => {
            out.failed += 1;
            out.check("modelled vs measured timing runs", false, e);
        }
    }
    let best_config = best.map_or_else(|| baseline.clone(), |b| b.config.clone());
    for op in ["tanh", "max_pool2d"] {
        for (tag, config) in [("exact", &baseline), ("best", &best_config)] {
            let v = op_self_ms(inp, config, op).unwrap_or(f64::NAN);
            out.layer(&format!("ir.self_ms.{op}.{tag}"), v, "ms");
        }
    }
    out.layer("tensor.muls.profile", first.profile_muls as f64, "count");
}
