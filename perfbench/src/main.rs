//! The repository's benchmark: three workloads over the tuning pipeline,
//! closed-loop inference and the fleet simulator, timed from outside by
//! calls into the public functions of each layer.
//!
//! ```text
//! perfbench --workload <tune-alexnet2|infer-resnet18|fleet-chaos>
//!           --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Every run executes all three phases, so every end-to-end metric exists
//! on every workload. The workload names the *focus* phase: it repeats for
//! the measured window, while the other two run a fixed, small number of
//! repetitions as probes (see README.md). The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).

mod fleet;
mod infer;
mod stats;
mod trace;
mod tune;

use at_models::{build, BenchmarkId, ModelScale};
use stats::{median, peak_rss_mb};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Calibration batches of 16 for the tuned model, as `atune tune` uses.
const CAL_BATCHES: usize = 2;
/// Repetitions of each phase when it is a probe (a phase the workload does
/// not focus on), in lifecycle order: tune pipelines, inference rounds,
/// fleet simulations.
const PROBE_REPS: [usize; 3] = [3, 12, 5];
/// Arrivals per fleet simulation, on every workload.
const FLEET_REQUESTS: usize = 500_000;
/// Upper bound on rayon threads, so runs on larger hosts stay comparable.
const MAX_THREADS: usize = 2;

/// End-to-end metrics, in report order (`--trace 0`).
const E2E: [&str; 14] = [
    "setup_s",
    "tune_s",
    "install_s",
    "tune_speedup_modelled",
    "tune_test_acc_pct",
    "infer_exact_ms_p50",
    "infer_exact_ms_p90",
    "infer_approx_ms_p50",
    "infer_approx_ms_p90",
    "measured_speedup",
    "sim_rps",
    "sim_on_time_pct",
    "sim_p99_ms",
    "peak_rss_mb",
];

/// One phase of the lifecycle, run a repetition at a time.
pub trait Phase {
    /// Runs one repetition and returns its wall time in seconds.
    fn step(&mut self, tracer: &Tracer) -> f64;
    /// Checks the repetitions' results and reports their metrics.
    fn finish(self: Box<Self>, tracer: &Tracer) -> Outcome;
}

/// One named measurement.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What a phase measured and checked.
#[derive(Default)]
pub struct Outcome {
    e2e: Vec<Metric>,
    layer: Vec<Metric>,
    /// Operations attempted: pipelines, forward passes, simulations.
    pub attempted: u64,
    /// Operations that errored or failed a correctness check.
    pub failed: u64,
    checks: Vec<(String, bool, String)>,
    detail: Vec<(String, serde_json::Value)>,
}

impl Outcome {
    fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layer.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a named check; a repeated name keeps its first failure.
    fn check(&mut self, name: &str, ok: bool, detail: String) {
        match self.checks.iter_mut().find(|c| c.0 == name) {
            Some(c) if c.1 && !ok => *c = (name.into(), ok, detail),
            Some(_) => {}
            None => self.checks.push((name.into(), ok, detail)),
        }
    }

    fn detail(&mut self, key: &str, value: serde_json::Value) {
        self.detail.push((key.into(), value));
    }

    fn merge(&mut self, other: Outcome) {
        self.e2e.extend(other.e2e);
        self.layer.extend(other.layer);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (name, ok, detail) in other.checks {
            self.check(&name, ok, detail);
        }
        self.detail.extend(other.detail);
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    TuneAlexnet2,
    InferResnet18,
    FleetChaos,
}

impl Workload {
    const ALL: [(Workload, &'static str); 3] = [
        (Workload::TuneAlexnet2, "tune-alexnet2"),
        (Workload::InferResnet18, "infer-resnet18"),
        (Workload::FleetChaos, "fleet-chaos"),
    ];

    fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(w, _)| *w == self)
            .map_or("", |(_, n)| n)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<Option<String>, String> {
        match argv.iter().position(|a| a == flag) {
            Some(i) => argv
                .get(i + 1)
                .cloned()
                .map(Some)
                .ok_or(format!("{flag} needs a value")),
            None => Ok(None),
        }
    };
    let workload = get("--workload")?.ok_or("--workload is required")?;
    let workload = Workload::ALL
        .iter()
        .find(|(_, n)| *n == workload)
        .map(|(w, _)| *w)
        .ok_or(format!("unknown workload {workload}"))?;
    let num = |v: Option<String>, flag: &str, default: f64| -> Result<f64, String> {
        v.map_or(Ok(default), |s| {
            s.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .ok_or(format!("{flag} needs a non-negative number"))
        })
    };
    let seed = num(get("--seed")?, "--seed", 1.0)? as u64;
    let seconds = num(get("--seconds")?, "--seconds", 20.0)?;
    let trace = match get("--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let out = get("--out")?.map(Into::into);
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out,
    })
}

/// Every phase's inputs.
struct Setup {
    tune: tune::Inputs,
    infer: infer::Inputs,
    fleet: fleet::Inputs,
}

/// Builds every phase's inputs; returns them with the time model
/// construction took.
fn setup(w: Workload, seed: u64) -> (Setup, f64) {
    let started = Instant::now();
    let tune_model = match w {
        Workload::TuneAlexnet2 => BenchmarkId::AlexNet2,
        _ => BenchmarkId::LeNet,
    };
    let tune_bench = build(tune_model, ModelScale::Tiny);
    let infer_bench = build(BenchmarkId::ResNet18, ModelScale::Tiny);
    let build_s = started.elapsed().as_secs_f64();
    let s = Setup {
        tune: tune::setup(tune_bench, CAL_BATCHES, seed),
        infer: infer::setup(infer_bench, seed),
        fleet: fleet::setup(FLEET_REQUESTS, seed),
    };
    (s, build_s)
}

/// The host stamp written with every result.
fn host_stamp() -> serde_json::Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_default()
    };
    let flags = field("flags");
    let has = serde_json::Value::Object(
        ["avx2", "avx512f", "f16c", "fma"]
            .iter()
            .map(|f| {
                (
                    f.to_string(),
                    serde_json::json!(flags.split(' ').any(|x| x == *f)),
                )
            })
            .collect(),
    );
    serde_json::json!({
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "rayon_threads": rayon::current_num_threads(),
        "cpu_model": field("model name"),
        "cpu_flags": has,
        "rustc": env!("PERFBENCH_RUSTC_VERSION"),
        "rustflags": env!("PERFBENCH_RUSTFLAGS"),
        "git_revision": std::env::var("PERFBENCH_GIT_REV").unwrap_or_else(|_| "unknown".into()),
    })
}

fn json_text(v: &serde_json::Value, pretty: bool) -> String {
    let text = if pretty {
        serde_json::to_string_pretty(v)
    } else {
        serde_json::to_string(v)
    };
    text.unwrap_or_else(|e| format!("{{\"error\": \"{e}\"}}"))
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut arrivals_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let (s, b) = setup(w, args.seed);
        setup_s.push(started.elapsed().as_secs_f64());
        build_s.push(b);
        arrivals_s.push(s.fleet.arrivals_s);
        inputs = Some(s);
    }
    let inputs = inputs.ok_or("no set-up ran")?;

    let tracer = Tracer::new(args.trace);
    let mut out = Outcome::default();
    out.e2e("setup_s", median(&setup_s), "s");
    out.detail("setup_s_reps", serde_json::json!(setup_s));
    out.layer("models.build_s", median(&build_s), "s");
    out.layer("fleet.arrivals_s", median(&arrivals_s), "s");

    let mut phases: Vec<Box<dyn Phase + '_>> = vec![
        Box::new(tune::Phase::new(&inputs.tune)),
        Box::new(infer::Phase::new(&inputs.infer)),
        Box::new(fleet::Phase::new(&inputs.fleet)),
    ];
    let focus = Workload::ALL
        .iter()
        .position(|(f, _)| *f == w)
        .ok_or("workload has no phase")?;
    // Probe repetitions are interleaved, the next going to the probe with
    // the smallest share of its repetitions done, and half of them run
    // before the focus and half after. The host's speed changes by tens of
    // percent for seconds at a time; spread out like this, a probe's median
    // does not hang on where one such change lands.
    let mut done = [0usize; 3];
    let mut probes = |up_to: f64, phases: &mut Vec<Box<dyn Phase + '_>>| loop {
        let share = |d: &[usize; 3], i: usize| d[i] as f64 / PROBE_REPS[i] as f64;
        let next = (0..phases.len())
            .filter(|&i| i != focus && share(&done, i) < up_to)
            .min_by(|&a, &b| share(&done, a).total_cmp(&share(&done, b)));
        let Some(i) = next else { break };
        phases[i].step(&tracer);
        done[i] += 1;
    };
    probes(0.5, &mut phases);
    // The focus: repetitions back to back while another is expected to end
    // inside the window, at least one.
    let started = Instant::now();
    let mut last_s = phases[focus].step(&tracer);
    while started.elapsed().as_secs_f64() + last_s <= args.seconds {
        last_s = phases[focus].step(&tracer);
    }
    probes(1.0, &mut phases);
    for phase in phases {
        out.merge(phase.finish(&tracer));
    }
    out.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    out.layer(
        "failed_pct",
        100.0 * out.failed as f64 / out.attempted.max(1) as f64,
        "%",
    );

    let correct = out.failed == 0 && out.checks.iter().all(|c| c.1);
    for m in out.e2e.iter().chain(&out.layer) {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for (name, ok, detail) in &out.checks {
        println!(
            "check {:<4} {name} ({detail})",
            if *ok { "ok" } else { "FAIL" }
        );
    }

    let as_json = |ms: &[Metric]| -> Vec<(String, serde_json::Value)> {
        ms.iter()
            .map(|m| {
                (
                    m.name.clone(),
                    serde_json::json!({"value": m.value, "unit": m.unit}),
                )
            })
            .collect()
    };
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let stem = format!(
            "{}-seed{}-trace{}",
            w.name(),
            args.seed,
            u8::from(args.trace)
        );
        let result = serde_json::json!({
            "host": host_stamp(),
            "workload": w.name(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "correct": correct,
            "attempted": out.attempted,
            "failed": out.failed,
            "end_to_end": serde_json::Value::Object(as_json(&out.e2e)),
            "per_layer": serde_json::Value::Object(as_json(&out.layer)),
            "checks": out
                .checks
                .iter()
                .map(|(n, ok, d)| serde_json::json!({"name": n, "ok": ok, "detail": d}))
                .collect::<Vec<_>>(),
            "span_self_s": tracer.self_times(),
            "detail": serde_json::Value::Object(out.detail),
        });
        let path = dir.join(format!("{stem}.json"));
        std::fs::write(&path, json_text(&result, true))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        if args.trace {
            let path = dir.join(format!("{stem}.trace.json"));
            std::fs::write(&path, json_text(&tracer.to_chrome_json(), false))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }

    let metrics = if args.trace {
        as_json(&out.layer)
    } else {
        let all = as_json(&out.e2e);
        E2E.iter()
            .map(|n| {
                let m = all.iter().find(|(k, _)| k == n).map(|(_, v)| v.clone());
                (n.to_string(), m.unwrap_or(serde_json::Value::Null))
            })
            .collect()
    };
    let line = serde_json::json!({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": serde_json::Value::Object(metrics),
    });
    println!("{}", json_text(&line, false));
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <tune-alexnet2|infer-resnet18|fleet-chaos> \
                 --seed <n> --seconds <s> --trace <0|1> [--out <dir>]"
            );
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_THREADS);
    let pool = match rayon::ThreadPoolBuilder::new().num_threads(threads).build() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: thread pool: {e:?}");
            return ExitCode::FAILURE;
        }
    };
    match pool.install(|| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
