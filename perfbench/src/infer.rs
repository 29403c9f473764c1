//! Closed-loop inference with one client: batch-16 forward passes of Tiny
//! Resnet18 through `at_ir::execute` under four fixed configurations. The
//! configurations are built directly as `ApproxChoice` values, so edits to
//! the knob registry cannot change this workload.

use crate::stats::{fnv1a, geomean, median, quantile, top1};
use crate::trace::Tracer;
use crate::Outcome;
use at_ir::exec::choice_is_valid;
use at_ir::{execute, execute_with_trace, ApproxChoice, ExecOptions, OpKind};
use at_models::data::{build_dataset, synthetic_inputs, Dataset};
use at_models::Benchmark;
use at_tensor::instrument::count_muls;
use at_tensor::{ConvApprox, PerforationDim, Precision, ReduceApprox, Tensor};
use std::time::Instant;

/// Configuration names, in the order every round runs them.
pub const CONFIGS: [&str; 4] = ["exact", "fp16", "perf50", "samp50"];
/// Op kinds of Resnet18 whose self time is reported per configuration.
pub const OPS: [&str; 6] = ["conv2d", "relu", "add", "avg_pool2d", "dense", "softmax"];
const BATCH: usize = 16;
/// Seeded inputs the loop cycles through.
const LOOP_BATCHES: usize = 2;
/// The canary set is fixed, not seeded, so its results can be pinned.
const CANARY_SEED: u64 = 0xCA_7A21;
const CANARY_SAMPLES: usize = 32;
/// FNV-1a of the exact FP32 output bits on the canary set.
const PINNED_EXACT_FNV: u64 = 0x6f62_2176_ee8f_590a;
/// Top-1 correct predictions on the canary set, per configuration.
const PINNED_CORRECT: [usize; 4] = [31, 31, 15, 29];

/// The model, its configurations and the loop's inputs.
pub struct Inputs {
    bench: Benchmark,
    configs: Vec<ExecOptions>,
    batches: Vec<Tensor>,
    canary: Dataset,
}

/// Builds the configurations, the seeded loop inputs and the canary set.
pub fn setup(bench: Benchmark, seed: u64) -> Inputs {
    let (batches, _) = synthetic_inputs(
        bench.input_shape,
        bench.classes,
        LOOP_BATCHES * BATCH,
        BATCH,
        seed,
    );
    let canary = build_dataset(&bench, CANARY_SAMPLES, BATCH, CANARY_SEED);
    let g = &bench.graph;
    // Applies `choice` to every node that accepts it; the rest stay exact.
    let uniform = |choice: &dyn Fn(&OpKind) -> Option<ApproxChoice>| ExecOptions {
        config: g
            .nodes()
            .iter()
            .map(|n| {
                choice(&n.op)
                    .filter(|c| choice_is_valid(g, n.id, *c))
                    .unwrap_or(ApproxChoice::BASELINE)
            })
            .collect(),
        promise_seed: 0,
    };
    let every_conv = |conv: ConvApprox| {
        move |op: &OpKind| {
            matches!(op, OpKind::Conv2d { .. })
                .then(|| ApproxChoice::digital(conv, ReduceApprox::Exact, Precision::Fp32))
        }
    };
    let configs = vec![
        ExecOptions::baseline(),
        uniform(&|_| Some(ApproxChoice::FP16)),
        uniform(&every_conv(ConvApprox::Perforation {
            dim: PerforationDim::Row,
            k: 2,
            offset: 0,
        })),
        uniform(&every_conv(ConvApprox::FilterSampling { k: 2, offset: 0 })),
    ];
    Inputs {
        bench,
        configs,
        batches,
        canary,
    }
}

/// Pinned-output checks on the canary set: the exact output's checksum and
/// every configuration's top-1 correct count.
fn canary_checks(inp: &Inputs, out: &mut Outcome) {
    let g = &inp.bench.graph;
    let mut exact_hash = 0u64;
    let mut correct = [0usize; 4];
    for (ci, o) in inp.configs.iter().enumerate() {
        for (x, labels) in inp.canary.batches.iter().zip(&inp.canary.labels) {
            out.attempted += 1;
            match execute(g, x, o) {
                Ok(y) => {
                    if ci == 0 {
                        exact_hash = exact_hash.rotate_left(1) ^ fnv1a(y.data());
                    }
                    let preds = top1(y.data(), inp.canary.classes);
                    correct[ci] += preds.iter().zip(labels).filter(|(p, l)| p == l).count();
                }
                Err(e) => {
                    out.failed += 1;
                    out.check("canary forward pass runs", false, e.to_string());
                }
            }
        }
    }
    let hash_ok = exact_hash == PINNED_EXACT_FNV;
    out.check(
        "exact Resnet18 canary output matches the pinned checksum",
        hash_ok,
        format!("{exact_hash:#018x}"),
    );
    let acc_ok = correct == PINNED_CORRECT;
    out.check(
        "canary top-1 correct counts match the pinned values",
        acc_ok,
        format!("{correct:?} of {CANARY_SAMPLES} (exact, fp16, perf50, samp50)"),
    );
    if !hash_ok || !acc_ok {
        out.failed += 1;
    }
}

/// The inference phase: one round, a forward pass per configuration on
/// the next seeded batch, per step.
pub struct Phase<'a> {
    inp: &'a Inputs,
    rounds: usize,
    /// The first output hash of each (configuration, batch); every later
    /// pass must reproduce it bit for bit.
    reference: Vec<Vec<Option<u64>>>,
    wall_ms: Vec<Vec<f64>>,
    /// Traced runs only: per pass, each op's summed node time, and the
    /// wall time no node accounts for.
    op_ms: Vec<Vec<Vec<f64>>>,
    unattributed_ms: Vec<Vec<f64>>,
    spans: Vec<String>,
    out: Outcome,
}

impl<'a> Phase<'a> {
    /// Runs the canary checks and returns a phase that has timed nothing.
    pub fn new(inp: &'a Inputs) -> Phase<'a> {
        let mut out = Outcome::default();
        canary_checks(inp, &mut out);
        Phase {
            inp,
            rounds: 0,
            reference: vec![vec![None; inp.batches.len()]; CONFIGS.len()],
            wall_ms: vec![Vec::new(); CONFIGS.len()],
            op_ms: vec![vec![Vec::new(); OPS.len()]; CONFIGS.len()],
            unattributed_ms: vec![Vec::new(); CONFIGS.len()],
            spans: CONFIGS.iter().map(|c| format!("ir.forward.{c}")).collect(),
            out,
        }
    }
}

impl crate::Phase for Phase<'_> {
    fn step(&mut self, tracer: &Tracer) -> f64 {
        let started = Instant::now();
        let g = &self.inp.bench.graph;
        let b = self.rounds % self.inp.batches.len();
        self.rounds += 1;
        let x = &self.inp.batches[b];
        for (ci, o) in self.inp.configs.iter().enumerate() {
            self.out.attempted += 1;
            let t0 = Instant::now();
            let result = if tracer.enabled() {
                tracer.span(&self.spans[ci], || execute_with_trace(g, x, o))
            } else {
                execute(g, x, o).map(|y| (y, Vec::new()))
            };
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let (y, times) = match result {
                Ok(r) => r,
                Err(e) => {
                    self.out.failed += 1;
                    self.out.check("forward pass runs", false, e.to_string());
                    continue;
                }
            };
            let hash = fnv1a(y.data());
            if *self.reference[ci][b].get_or_insert(hash) != hash {
                self.out.failed += 1;
                self.out.check(
                    "forward passes reproduce their first output",
                    false,
                    format!("{} on batch {b}", CONFIGS[ci]),
                );
                continue;
            }
            self.wall_ms[ci].push(ms);
            if tracer.enabled() {
                for (k, op) in OPS.iter().enumerate() {
                    self.op_ms[ci][k].push(
                        g.nodes()
                            .iter()
                            .zip(&times)
                            .filter(|(n, _)| n.op.name() == *op)
                            .map(|(_, t)| t * 1e3)
                            .sum(),
                    );
                }
                self.unattributed_ms[ci].push(ms - times.iter().sum::<f64>() * 1e3);
                tracer.children_of_last(
                    &self.spans[ci],
                    g.nodes()
                        .iter()
                        .zip(&times)
                        .map(|(n, t)| (format!("ir.{}", n.op.name()), *t)),
                );
            }
        }
        started.elapsed().as_secs_f64()
    }

    fn finish(self: Box<Self>, tracer: &Tracer) -> Outcome {
        let Phase {
            inp,
            wall_ms,
            op_ms,
            unattributed_ms,
            mut out,
            ..
        } = *self;
        let p50: Vec<f64> = wall_ms.iter().map(|v| median(v)).collect();
        let p90: Vec<f64> = wall_ms.iter().map(|v| quantile(v, 0.9)).collect();
        out.e2e("infer_exact_ms_p50", p50[0], "ms");
        out.e2e("infer_exact_ms_p90", p90[0], "ms");
        out.e2e("infer_approx_ms_p50", geomean(&p50[1..]), "ms");
        out.e2e("infer_approx_ms_p90", geomean(&p90[1..]), "ms");
        let speedups: Vec<f64> = p50[1..].iter().map(|a| p50[0] / a).collect();
        out.e2e("measured_speedup", geomean(&speedups), "x");
        out.detail(
            "infer",
            serde_json::json!({
                "samples_per_config": wall_ms.iter().map(Vec::len).collect::<Vec<_>>(),
                "configs": CONFIGS,
                "p50_ms": p50,
                "p90_ms": p90,
                "speedup_vs_exact": speedups,
            }),
        );
        if tracer.enabled() {
            let g = &inp.bench.graph;
            for (ci, name) in CONFIGS.iter().enumerate() {
                for (k, op) in OPS.iter().enumerate() {
                    let v = median(&op_ms[ci][k]);
                    out.layer(&format!("ir.self_ms.{op}.{name}"), v, "ms");
                }
                let v = median(&unattributed_ms[ci]);
                out.layer(&format!("ir.unattributed_ms.{name}"), v, "ms");
                out.layer(&format!("ir.forward_ms.{name}"), p50[ci], "ms");
                let (_, muls) = count_muls(|| execute(g, &inp.batches[0], &inp.configs[ci]));
                out.layer(&format!("tensor.muls.{name}"), muls as f64, "count");
            }
        }
        out
    }
}
