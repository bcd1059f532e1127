//! Executable networks built from [`Blueprint`]s.

use std::collections::BTreeMap;

use adaptivefl_nn::layer::{Layer, ParamVisitor, ParamVisitorMut};
use adaptivefl_nn::layers::{
    BatchNorm2d, Conv2d, DepthwiseConv2d, Flatten, GlobalAvgPool, Linear, MaxPool2d, Relu,
};
use adaptivefl_tensor::Tensor;
use rand::Rng;

use crate::block::{Block, Blueprint};

/// Dense or depthwise convolution kernel behind one `Node::Conv`.
enum ConvImpl {
    Dense(Conv2d),
    Depthwise(DepthwiseConv2d),
}

impl ConvImpl {
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        match self {
            ConvImpl::Dense(c) => c.forward(x, train),
            ConvImpl::Depthwise(c) => c.forward(x, train),
        }
    }

    fn backward(&mut self, dy: Tensor) -> Tensor {
        match self {
            ConvImpl::Dense(c) => c.backward(dy),
            ConvImpl::Depthwise(c) => c.backward(dy),
        }
    }

    fn visit_params(&self, prefix: &str, v: &mut dyn ParamVisitor) {
        match self {
            ConvImpl::Dense(c) => c.visit_params(prefix, v),
            ConvImpl::Depthwise(c) => c.visit_params(prefix, v),
        }
    }

    fn visit_params_mut(&mut self, prefix: &str, v: &mut dyn ParamVisitorMut) {
        match self {
            ConvImpl::Dense(c) => c.visit_params_mut(prefix, v),
            ConvImpl::Depthwise(c) => c.visit_params_mut(prefix, v),
        }
    }

    fn zero_grads(&mut self) {
        match self {
            ConvImpl::Dense(c) => c.zero_grads(),
            ConvImpl::Depthwise(c) => c.zero_grads(),
        }
    }
}

/// How a forward pass treats the layers.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// Training mode: batch statistics, caches for the backward.
    Train,
    /// Evaluation mode: running statistics, no caches.
    Eval,
    /// sBN inference: batch statistics, no caches, running statistics
    /// untouched.
    Infer,
}

impl Pass {
    fn of(train: bool) -> Self {
        if train {
            Pass::Train
        } else {
            Pass::Eval
        }
    }

    /// The `train` flag of every layer but BatchNorm.
    fn train(self) -> bool {
        self == Pass::Train
    }
}

/// One runtime node, mirroring a [`Block`].
#[allow(clippy::large_enum_variant)] // nodes are built once per model, not stored in bulk
enum Node {
    Conv {
        name: String,
        conv: ConvImpl,
        bn: Option<BatchNorm2d>,
        relu: Option<Relu>,
    },
    Linear {
        name: String,
        fc: Linear,
        relu: Option<Relu>,
    },
    MaxPool(MaxPool2d),
    Gap(GlobalAvgPool),
    Flatten(Flatten),
    Residual {
        main: Seq,
        shortcut: Option<Seq>,
        relu: Relu,
    },
    LinearResidual {
        main: Seq,
    },
}

/// A sequence of nodes.
struct Seq {
    nodes: Vec<Node>,
}

impl Seq {
    fn build(blocks: &[Block], rng: &mut impl Rng) -> Self {
        Seq {
            nodes: blocks.iter().map(|b| Node::build(b, rng)).collect(),
        }
    }

    fn forward(&mut self, x: Tensor, pass: Pass) -> Tensor {
        let mut h = x;
        for n in &mut self.nodes {
            h = n.forward(h, pass);
        }
        h
    }

    fn backward(&mut self, dy: Tensor) -> Tensor {
        let mut g = dy;
        for n in self.nodes.iter_mut().rev() {
            g = n.backward(g);
        }
        g
    }

    fn visit(&self, v: &mut dyn ParamVisitor) {
        for n in &self.nodes {
            n.visit(v);
        }
    }

    fn visit_mut(&mut self, v: &mut dyn ParamVisitorMut) {
        for n in &mut self.nodes {
            n.visit_mut(v);
        }
    }

    fn zero_grads(&mut self) {
        for n in &mut self.nodes {
            n.zero_grads();
        }
    }
}

impl Node {
    fn build(block: &Block, rng: &mut impl Rng) -> Self {
        match block {
            Block::Conv(c) => Node::Conv {
                name: c.name.clone(),
                conv: if c.depthwise {
                    assert_eq!(
                        c.in_c, c.out_c,
                        "depthwise conv {} needs in_c == out_c",
                        c.name
                    );
                    ConvImpl::Depthwise(DepthwiseConv2d::new(c.out_c, c.k, c.stride, c.pad, rng))
                } else {
                    ConvImpl::Dense(Conv2d::new(c.in_c, c.out_c, c.k, c.stride, c.pad, rng))
                },
                bn: c.bn.then(|| BatchNorm2d::new(c.out_c)),
                relu: c.relu.then(Relu::new),
            },
            Block::Linear(l) => Node::Linear {
                name: l.name.clone(),
                fc: Linear::new(l.in_f, l.out_f, rng),
                relu: l.relu.then(Relu::new),
            },
            Block::MaxPool(w) => Node::MaxPool(MaxPool2d::new(*w)),
            Block::GlobalAvgPool => Node::Gap(GlobalAvgPool::new()),
            Block::Flatten => Node::Flatten(Flatten::new()),
            Block::Residual { main, shortcut } => Node::Residual {
                main: Seq::build(main, rng),
                shortcut: shortcut.as_ref().map(|sc| Seq::build(sc, rng)),
                relu: Relu::new(),
            },
            Block::LinearResidual { main } => Node::LinearResidual {
                main: Seq::build(main, rng),
            },
        }
    }

    fn forward(&mut self, x: Tensor, pass: Pass) -> Tensor {
        let train = pass.train();
        match self {
            Node::Conv { conv, bn, relu, .. } => {
                let mut h = conv.forward(x, train);
                if let Some(bn) = bn {
                    h = match pass {
                        Pass::Infer => bn.infer(h),
                        _ => bn.forward(h, train),
                    };
                }
                if let Some(relu) = relu {
                    h = relu.forward(h, train);
                }
                h
            }
            Node::Linear { fc, relu, .. } => {
                let mut h = fc.forward(x, train);
                if let Some(relu) = relu {
                    h = relu.forward(h, train);
                }
                h
            }
            Node::MaxPool(p) => p.forward(x, train),
            Node::Gap(g) => g.forward(x, train),
            Node::Flatten(f) => f.forward(x, train),
            Node::Residual {
                main,
                shortcut,
                relu,
            } => {
                let skip = match shortcut {
                    Some(sc) => sc.forward(x.clone(), pass),
                    None => x.clone(),
                };
                let mut h = main.forward(x, pass);
                h.add_assign(&skip);
                relu.forward(h, train)
            }
            Node::LinearResidual { main } => {
                let mut h = main.forward(x.clone(), pass);
                h.add_assign(&x);
                h
            }
        }
    }

    fn backward(&mut self, dy: Tensor) -> Tensor {
        match self {
            Node::Conv { conv, bn, relu, .. } => {
                let mut g = dy;
                if let Some(relu) = relu {
                    g = relu.backward(g);
                }
                if let Some(bn) = bn {
                    g = bn.backward(g);
                }
                conv.backward(g)
            }
            Node::Linear { fc, relu, .. } => {
                let mut g = dy;
                if let Some(relu) = relu {
                    g = relu.backward(g);
                }
                fc.backward(g)
            }
            Node::MaxPool(p) => p.backward(dy),
            Node::Gap(g) => g.backward(dy),
            Node::Flatten(f) => f.backward(dy),
            Node::Residual {
                main,
                shortcut,
                relu,
            } => {
                let g = relu.backward(dy);
                let mut dx = main.backward(g.clone());
                let dskip = match shortcut {
                    Some(sc) => sc.backward(g),
                    None => g,
                };
                dx.add_assign(&dskip);
                dx
            }
            Node::LinearResidual { main } => {
                let mut dx = main.backward(dy.clone());
                dx.add_assign(&dy);
                dx
            }
        }
    }

    fn visit(&self, v: &mut dyn ParamVisitor) {
        match self {
            Node::Conv { name, conv, bn, .. } => {
                conv.visit_params(name, v);
                if let Some(bn) = bn {
                    bn.visit_params(&format!("{name}.bn"), v);
                }
            }
            Node::Linear { name, fc, .. } => fc.visit_params(name, v),
            Node::Residual { main, shortcut, .. } => {
                main.visit(v);
                if let Some(sc) = shortcut {
                    sc.visit(v);
                }
            }
            Node::LinearResidual { main } => main.visit(v),
            _ => {}
        }
    }

    fn visit_mut(&mut self, v: &mut dyn ParamVisitorMut) {
        match self {
            Node::Conv { name, conv, bn, .. } => {
                conv.visit_params_mut(name, v);
                if let Some(bn) = bn {
                    bn.visit_params_mut(&format!("{name}.bn"), v);
                }
            }
            Node::Linear { name, fc, .. } => fc.visit_params_mut(name, v),
            Node::Residual { main, shortcut, .. } => {
                main.visit_mut(v);
                if let Some(sc) = shortcut {
                    sc.visit_mut(v);
                }
            }
            Node::LinearResidual { main } => main.visit_mut(v),
            _ => {}
        }
    }

    fn zero_grads(&mut self) {
        match self {
            Node::Conv { conv, bn, .. } => {
                conv.zero_grads();
                if let Some(bn) = bn {
                    bn.zero_grads();
                }
            }
            Node::Linear { fc, .. } => fc.zero_grads(),
            Node::Residual { main, shortcut, .. } => {
                main.zero_grads();
                if let Some(sc) = shortcut {
                    sc.zero_grads();
                }
            }
            Node::LinearResidual { main } => main.zero_grads(),
            _ => {}
        }
    }
}

/// An executable network with trunk segments and one or more exit
/// heads, built from a [`Blueprint`].
///
/// As a plain [`Layer`], `forward`/`backward` use only the final exit;
/// ScaleFL-style multi-exit training uses
/// [`Network::forward_multi`] / [`Network::backward_multi`].
pub struct Network {
    segments: Vec<Seq>,
    /// `(segment index, head)` for each active exit, ascending.
    exits: Vec<(usize, Seq)>,
}

impl Network {
    /// Instantiates a blueprint with freshly initialised weights.
    ///
    /// # Panics
    ///
    /// Panics if the blueprint is structurally invalid.
    pub fn build(bp: &Blueprint, rng: &mut impl Rng) -> Self {
        bp.validate();
        let segments = bp.segments.iter().map(|s| Seq::build(s, rng)).collect();
        let mut active = bp.active_exits.clone();
        active.sort_unstable();
        let exits = active
            .into_iter()
            .map(|e| (e, Seq::build(&bp.exits[e], rng)))
            .collect();
        Network { segments, exits }
    }

    /// Segment indices of the active exits, ascending.
    pub fn exit_points(&self) -> Vec<usize> {
        self.exits.iter().map(|(e, _)| *e).collect()
    }

    /// Runs the trunk, evaluating every active exit; returns
    /// `(segment index, logits)` per exit in ascending order.
    pub fn forward_multi(&mut self, x: Tensor, train: bool) -> Vec<(usize, Tensor)> {
        let pass = Pass::of(train);
        let mut out = Vec::with_capacity(self.exits.len());
        let mut h = x;
        for (i, seg) in self.segments.iter_mut().enumerate() {
            h = seg.forward(h, pass);
            if let Some((_, head)) = self.exits.iter_mut().find(|(e, _)| *e == i) {
                out.push((i, head.forward(h.clone(), pass)));
            }
        }
        out
    }

    /// Inference at the final exit with BatchNorm on *batch* statistics
    /// (the sBN evaluation of DESIGN.md §7): the final logits of
    /// `forward(x, true)`, bit for bit, but no layer caches anything
    /// for a backward, the running statistics stay as they are, and
    /// earlier exit heads are skipped.
    pub fn infer(&mut self, x: Tensor) -> Tensor {
        let (last, head) = self.exits.last_mut().expect("network has a final exit");
        let mut h = x;
        for seg in &mut self.segments[..=*last] {
            h = seg.forward(h, Pass::Infer);
        }
        head.forward(h, Pass::Infer)
    }

    /// Back-propagates per-exit logit gradients through the heads and
    /// the trunk; returns the gradient w.r.t. the network input.
    ///
    /// # Panics
    ///
    /// Panics if `exit_grads` names an inactive exit or misses the
    /// final exit, or if called without a training-mode forward.
    pub fn backward_multi(&mut self, exit_grads: Vec<(usize, Tensor)>) -> Tensor {
        let mut grads: BTreeMap<usize, Tensor> = exit_grads.into_iter().collect();
        let last = self.segments.len() - 1;
        assert!(grads.contains_key(&last), "final exit gradient is required");
        let mut g: Option<Tensor> = None;
        for i in (0..self.segments.len()).rev() {
            if let Some(dl) = grads.remove(&i) {
                let (_, head) = self
                    .exits
                    .iter_mut()
                    .find(|(e, _)| *e == i)
                    .unwrap_or_else(|| panic!("exit {i} is not active"));
                let ge = head.backward(dl);
                g = Some(match g {
                    Some(mut t) => {
                        t.add_assign(&ge);
                        t
                    }
                    None => ge,
                });
            }
            let cur = g.take().expect("gradient must flow from the last segment");
            g = Some(self.segments[i].backward(cur));
        }
        assert!(grads.is_empty(), "gradients left for unknown exits");
        g.expect("network has segments")
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Network({} segments, exits at {:?})",
            self.segments.len(),
            self.exit_points()
        )
    }
}

impl Layer for Network {
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        let mut outs = self.forward_multi(x, train);
        outs.pop().expect("network has a final exit").1
    }

    fn backward(&mut self, dy: Tensor) -> Tensor {
        assert_eq!(
            self.exits.len(),
            1,
            "use backward_multi for multi-exit networks"
        );
        let last = self.segments.len() - 1;
        self.backward_multi(vec![(last, dy)])
    }

    fn visit_params(&self, _prefix: &str, v: &mut dyn ParamVisitor) {
        for seg in &self.segments {
            seg.visit(v);
        }
        for (_, head) in &self.exits {
            head.visit(v);
        }
    }

    fn visit_params_mut(&mut self, _prefix: &str, v: &mut dyn ParamVisitorMut) {
        for seg in &mut self.segments {
            seg.visit_mut(v);
        }
        for (_, head) in &mut self.exits {
            head.visit_mut(v);
        }
    }

    fn zero_grads(&mut self) {
        for seg in &mut self.segments {
            seg.zero_grads();
        }
        for (_, head) in &mut self.exits {
            head.zero_grads();
        }
    }
}
