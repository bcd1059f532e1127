//! Op replay: one local training session of a model, re-run layer by
//! layer through the public `nn` layers with a timer around every
//! call, then the forward pass alone at evaluation batch size.
//!
//! The replay graph mirrors the model's blueprint (the same walk
//! `models::Network` does), so its shapes and call sequence match a
//! real session. Comparing its summed op time with a timed
//! `LocalTrainer::train_with_scratch` session on the same model and
//! data gives the replay's coverage: near 1 means the op split
//! explains `client_train`.

use std::time::Instant;

use crate::median;

use adaptivefl_core::trainer::LocalTrainer;
use adaptivefl_data::{FederatedDataset, InMemoryDataset, Partition, SynthSpec};
use adaptivefl_models::cost::cost_of;
use adaptivefl_models::{Block, ModelConfig};
use adaptivefl_nn::layer::{Layer, ParamVisitor, ParamVisitorMut};
use adaptivefl_nn::layers::{
    BatchNorm2d, Conv2d, DepthwiseConv2d, Flatten, GlobalAvgPool, Linear, MaxPool2d, Relu,
};
use adaptivefl_nn::loss::softmax_cross_entropy;
use adaptivefl_nn::optim::Sgd;
use adaptivefl_tensor::{rng, Scratch, Tensor};

/// Op kinds of the replay, in report order.
pub const KINDS: [&str; 10] = [
    "conv_fwd",
    "conv_bwd",
    "depthwise_fwd",
    "depthwise_bwd",
    "bn",
    "relu",
    "pool",
    "linear",
    "loss",
    "sgd",
];

const CONV_FWD: usize = 0;
const CONV_BWD: usize = 1;
const DW_FWD: usize = 2;
const DW_BWD: usize = 3;
const BN: usize = 4;
const RELU: usize = 5;
const POOL: usize = 6;
const LINEAR: usize = 7;
const LOSS: usize = 8;
const SGD: usize = 9;

/// Nanoseconds per op kind (indexed like [`KINDS`]).
type OpNs = [u64; KINDS.len()];

fn timed<T>(slot: &mut u64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed().as_nanos() as u64;
    out
}

enum Op {
    Conv(Conv2d),
    Depthwise(DepthwiseConv2d),
    Bn(BatchNorm2d),
    Relu(Relu),
    MaxPool(MaxPool2d),
    Gap(GlobalAvgPool),
    Flatten(Flatten),
    Linear(Linear),
    Residual {
        main: Vec<Op>,
        shortcut: Option<Vec<Op>>,
        relu: Relu,
    },
    LinearResidual {
        main: Vec<Op>,
    },
}

fn build(blocks: &[Block], r: &mut impl rand::Rng) -> Vec<Op> {
    let mut ops = Vec::new();
    for b in blocks {
        match b {
            Block::Conv(c) => {
                ops.push(if c.depthwise {
                    Op::Depthwise(DepthwiseConv2d::new(c.out_c, c.k, c.stride, c.pad, r))
                } else {
                    Op::Conv(Conv2d::new(c.in_c, c.out_c, c.k, c.stride, c.pad, r))
                });
                if c.bn {
                    ops.push(Op::Bn(BatchNorm2d::new(c.out_c)));
                }
                if c.relu {
                    ops.push(Op::Relu(Relu::new()));
                }
            }
            Block::Linear(l) => {
                ops.push(Op::Linear(Linear::new(l.in_f, l.out_f, r)));
                if l.relu {
                    ops.push(Op::Relu(Relu::new()));
                }
            }
            Block::MaxPool(w) => ops.push(Op::MaxPool(MaxPool2d::new(*w))),
            Block::GlobalAvgPool => ops.push(Op::Gap(GlobalAvgPool::new())),
            Block::Flatten => ops.push(Op::Flatten(Flatten::new())),
            Block::Residual { main, shortcut } => ops.push(Op::Residual {
                main: build(main, r),
                shortcut: shortcut.as_ref().map(|s| build(s, r)),
                relu: Relu::new(),
            }),
            Block::LinearResidual { main } => ops.push(Op::LinearResidual {
                main: build(main, r),
            }),
        }
    }
    ops
}

fn forward(ops: &mut [Op], x: Tensor, ns: &mut OpNs) -> Tensor {
    let mut h = x;
    for op in ops {
        h = match op {
            Op::Conv(l) => timed(&mut ns[CONV_FWD], || l.forward(h, true)),
            Op::Depthwise(l) => timed(&mut ns[DW_FWD], || l.forward(h, true)),
            Op::Bn(l) => timed(&mut ns[BN], || l.forward(h, true)),
            Op::Relu(l) => timed(&mut ns[RELU], || l.forward(h, true)),
            Op::MaxPool(l) => timed(&mut ns[POOL], || l.forward(h, true)),
            Op::Gap(l) => timed(&mut ns[POOL], || l.forward(h, true)),
            Op::Flatten(l) => l.forward(h, true),
            Op::Linear(l) => timed(&mut ns[LINEAR], || l.forward(h, true)),
            Op::Residual {
                main,
                shortcut,
                relu,
            } => {
                let skip = match shortcut {
                    Some(sc) => forward(sc, h.clone(), ns),
                    None => h.clone(),
                };
                let mut y = forward(main, h, ns);
                y.add_assign(&skip);
                timed(&mut ns[RELU], || relu.forward(y, true))
            }
            Op::LinearResidual { main } => {
                let mut y = forward(main, h.clone(), ns);
                y.add_assign(&h);
                y
            }
        };
    }
    h
}

fn backward(ops: &mut [Op], dy: Tensor, ns: &mut OpNs) -> Tensor {
    let mut g = dy;
    for op in ops.iter_mut().rev() {
        g = match op {
            Op::Conv(l) => timed(&mut ns[CONV_BWD], || l.backward(g)),
            Op::Depthwise(l) => timed(&mut ns[DW_BWD], || l.backward(g)),
            Op::Bn(l) => timed(&mut ns[BN], || l.backward(g)),
            Op::Relu(l) => timed(&mut ns[RELU], || l.backward(g)),
            Op::MaxPool(l) => timed(&mut ns[POOL], || l.backward(g)),
            Op::Gap(l) => timed(&mut ns[POOL], || l.backward(g)),
            Op::Flatten(l) => l.backward(g),
            Op::Linear(l) => timed(&mut ns[LINEAR], || l.backward(g)),
            Op::Residual {
                main,
                shortcut,
                relu,
            } => {
                let g = timed(&mut ns[RELU], || relu.backward(g));
                let mut dx = backward(main, g.clone(), ns);
                let dskip = match shortcut {
                    Some(sc) => backward(sc, g, ns),
                    None => g,
                };
                dx.add_assign(&dskip);
                dx
            }
            Op::LinearResidual { main } => {
                let mut dx = backward(main, g.clone(), ns);
                dx.add_assign(&g);
                dx
            }
        };
    }
    g
}

fn layer(op: &Op) -> Option<&dyn Layer> {
    Some(match op {
        Op::Conv(l) => l,
        Op::Depthwise(l) => l,
        Op::Bn(l) => l,
        Op::Linear(l) => l,
        _ => return None,
    })
}

fn layer_mut(op: &mut Op) -> Option<&mut dyn Layer> {
    Some(match op {
        Op::Conv(l) => l,
        Op::Depthwise(l) => l,
        Op::Bn(l) => l,
        Op::Linear(l) => l,
        _ => return None,
    })
}

/// The replay graph as a [`Layer`], so `Sgd::step` updates it exactly
/// as it updates a `Network` (parameter names are tree paths).
struct Graph(Vec<Op>);

fn visit(ops: &[Op], prefix: &str, v: &mut dyn ParamVisitor) {
    for (i, op) in ops.iter().enumerate() {
        let name = format!("{prefix}{i}");
        if let Some(l) = layer(op) {
            l.visit_params(&name, v);
        }
        match op {
            Op::Residual { main, shortcut, .. } => {
                visit(main, &format!("{name}.0."), v);
                if let Some(sc) = shortcut {
                    visit(sc, &format!("{name}.1."), v);
                }
            }
            Op::LinearResidual { main } => visit(main, &format!("{name}.0."), v),
            _ => {}
        }
    }
}

fn visit_mut(ops: &mut [Op], prefix: &str, v: &mut dyn ParamVisitorMut) {
    for (i, op) in ops.iter_mut().enumerate() {
        let name = format!("{prefix}{i}");
        if let Some(l) = layer_mut(op) {
            l.visit_params_mut(&name, v);
        }
        match op {
            Op::Residual { main, shortcut, .. } => {
                visit_mut(main, &format!("{name}.0."), v);
                if let Some(sc) = shortcut {
                    visit_mut(sc, &format!("{name}.1."), v);
                }
            }
            Op::LinearResidual { main } => visit_mut(main, &format!("{name}.0."), v),
            _ => {}
        }
    }
}

fn zero(ops: &mut [Op]) {
    for op in ops {
        if let Some(l) = layer_mut(op) {
            l.zero_grads();
        }
        match op {
            Op::Residual { main, shortcut, .. } => {
                zero(main);
                if let Some(sc) = shortcut {
                    zero(sc);
                }
            }
            Op::LinearResidual { main } => zero(main),
            _ => {}
        }
    }
}

impl Layer for Graph {
    fn forward(&mut self, x: Tensor, _train: bool) -> Tensor {
        forward(&mut self.0, x, &mut [0; KINDS.len()])
    }

    fn backward(&mut self, dy: Tensor) -> Tensor {
        backward(&mut self.0, dy, &mut [0; KINDS.len()])
    }

    fn visit_params(&self, prefix: &str, v: &mut dyn ParamVisitor) {
        visit(&self.0, prefix, v);
    }

    fn visit_params_mut(&mut self, prefix: &str, v: &mut dyn ParamVisitorMut) {
        visit_mut(&mut self.0, prefix, v);
    }

    fn zero_grads(&mut self) {
        zero(&mut self.0);
    }
}

/// One model's replay result (medians over repetitions).
#[derive(Debug, Clone)]
pub struct ModelReplay {
    /// Short model label used in metric names (`vgg16`, …).
    pub label: &'static str,
    /// Median milliseconds per op kind of one training session.
    pub op_ms: Vec<(&'static str, f64)>,
    /// Median milliseconds of the forward-only pass over the test set.
    pub eval_fwd_ms: f64,
    /// Forward multiply-accumulates of one session.
    pub macs: u64,
    /// Median over repetitions of the summed session op time ÷ a timed
    /// `train_with_scratch` session run beside it.
    pub coverage: f64,
    /// Median milliseconds of the timed reference session.
    pub session_ms: f64,
}

/// What to replay: a model with the data shape and training settings
/// of the workload that trains it.
pub struct ReplaySpec {
    pub label: &'static str,
    pub model: ModelConfig,
    pub spec: SynthSpec,
    pub local: LocalTrainer,
    pub samples: usize,
    pub test_samples: usize,
    pub eval_batch: usize,
}

/// The full model's blocks in execution order: the trunk, then the
/// final exit head.
fn model_blocks(model: &ModelConfig) -> Vec<Block> {
    let bp = model.full_blueprint(&model.full_plan());
    let last = *bp.active_exits.iter().max().expect("blueprint has an exit");
    let mut blocks = bp.segments.concat();
    blocks.extend(bp.exits[last].iter().cloned());
    blocks
}

fn session(s: &ReplaySpec, data: &InMemoryDataset, seed: u64, scratch: &Scratch) -> OpNs {
    let mut r = rng::derived(seed, "replay-graph");
    let mut graph = Graph(build(&model_blocks(&s.model), &mut r));
    let mut opt = Sgd::new(s.local.lr, s.local.momentum).with_scratch(scratch.clone());
    let mut ns = [0u64; KINDS.len()];
    for _ in 0..s.local.epochs {
        for batch in data.shuffled_batches(s.local.batch_size, &mut r) {
            graph.zero_grads();
            let logits = forward(&mut graph.0, batch.x, &mut ns);
            let out = timed(&mut ns[LOSS], || softmax_cross_entropy(&logits, &batch.y));
            backward(&mut graph.0, out.dlogits, &mut ns);
            timed(&mut ns[SGD], || opt.step(&mut graph));
        }
    }
    ns
}

fn eval_forward(s: &ReplaySpec, test: &InMemoryDataset, seed: u64) -> u64 {
    let mut ops = build(
        &model_blocks(&s.model),
        &mut rng::derived(seed, "replay-eval"),
    );
    let mut ns = [0u64; KINDS.len()];
    let idx: Vec<usize> = (0..test.len()).collect();
    for chunk in idx.chunks(s.eval_batch.max(1)) {
        let b = test.batch(chunk);
        std::hint::black_box(forward(&mut ops, b.x, &mut ns));
    }
    ns.iter().sum()
}

fn has_depthwise(blocks: &[Block]) -> bool {
    blocks.iter().any(|b| match b {
        Block::Conv(c) => c.depthwise,
        Block::Residual { main, shortcut } => {
            has_depthwise(main) || shortcut.as_deref().is_some_and(has_depthwise)
        }
        Block::LinearResidual { main } => has_depthwise(main),
        _ => false,
    })
}

/// Replays `s` `reps` times on data synthesised from `seed`.
pub fn replay(s: &ReplaySpec, seed: u64, reps: usize) -> ModelReplay {
    let fed =
        FederatedDataset::synthesize(&s.spec, 1, s.samples, s.test_samples, Partition::Iid, seed);
    let data = fed.client(0);
    let scratch = Scratch::new();
    let mut per_kind: Vec<Vec<f64>> = vec![Vec::new(); KINDS.len()];
    let (mut ratios, mut refs, mut evals) = (Vec::new(), Vec::new(), Vec::new());
    // Repetition 0 warms the arena and caches and is not counted; the
    // reference session and the replay swap order every repetition, and
    // coverage is the median of per-repetition ratios, so a slow spell
    // of the machine hits both sides of a ratio alike.
    for rep in 0..=reps {
        let rep_seed = seed.wrapping_add(rep as u64);
        let reference = || {
            let mut net = s
                .model
                .build(&s.model.full_plan(), &mut rng::derived(rep_seed, "ref-net"));
            let t0 = Instant::now();
            std::hint::black_box(s.local.train_with_scratch(
                &mut net,
                data,
                &mut rng::derived(rep_seed, "ref-train"),
                &scratch,
            ));
            t0.elapsed().as_nanos() as f64
        };
        let (ns, ref_ns) = if rep % 2 == 0 {
            let r = reference();
            (session(s, data, rep_seed, &scratch), r)
        } else {
            let ns = session(s, data, rep_seed, &scratch);
            (ns, reference())
        };
        let eval_ns = eval_forward(s, fed.test(), rep_seed) as f64;
        if rep == 0 {
            continue;
        }
        for (k, v) in ns.iter().enumerate() {
            per_kind[k].push(*v as f64);
        }
        ratios.push(ns.iter().sum::<u64>() as f64 / ref_ns);
        refs.push(ref_ns);
        evals.push(eval_ns);
    }
    let bp = s.model.full_blueprint(&s.model.full_plan());
    let macs = cost_of(&bp, s.model.input).macs * (data.len() * s.local.epochs) as u64;
    let session_ns = median(refs);
    let depthwise = has_depthwise(&model_blocks(&s.model));
    ModelReplay {
        label: s.label,
        op_ms: KINDS
            .iter()
            .zip(per_kind)
            .filter(|(k, _)| depthwise || !k.starts_with("depthwise"))
            .map(|(k, v)| (*k, median(v) * 1e-6))
            .collect(),
        eval_fwd_ms: median(evals) * 1e-6,
        macs,
        coverage: median(ratios),
        session_ms: session_ns * 1e-6,
    }
}
