//! Executable networks built from [`Blueprint`]s.

use std::collections::BTreeMap;

use adaptivefl_nn::layer::{Layer, ParamVisitor, ParamVisitorMut};
use adaptivefl_nn::layers::{
    BatchNorm2d, Conv2d, DepthwiseConv2d, Flatten, GlobalAvgPool, Linear, MaxPool2d, Relu,
};
use adaptivefl_tensor::{init, Tensor};
use rand::Rng;

use crate::block::{Block, Blueprint};

/// One runtime node: a layer, or a residual join of two sequences.
enum Node {
    /// A layer and the name prefix of its parameters.
    Leaf(String, Box<dyn Layer>),
    /// `main(x) + shortcut(x)`; the shortcut is the identity when
    /// `None`.
    Residual { main: Seq, shortcut: Option<Seq> },
}

impl Node {
    fn leaf(prefix: &str, layer: impl Layer + 'static) -> Self {
        Node::Leaf(prefix.to_string(), Box::new(layer))
    }

    /// Appends the nodes of `block` to `seq`, taking each weight from
    /// `init` in block order.
    fn build(block: &Block, init: &mut impl FnMut(&[usize], usize) -> Tensor, seq: &mut Vec<Node>) {
        match block {
            Block::Conv(c) => {
                seq.push(if c.depthwise {
                    assert_eq!(
                        c.in_c, c.out_c,
                        "depthwise conv {} needs in_c == out_c",
                        c.name
                    );
                    let weight = init(&[c.out_c, 1, c.k, c.k], c.k * c.k);
                    Node::leaf(
                        &c.name,
                        DepthwiseConv2d::from_weight(weight, c.stride, c.pad),
                    )
                } else {
                    let weight = init(&[c.out_c, c.in_c, c.k, c.k], c.in_c * c.k * c.k);
                    Node::leaf(&c.name, Conv2d::from_weight(weight, c.stride, c.pad))
                });
                if c.bn {
                    seq.push(Node::leaf(
                        &format!("{}.bn", c.name),
                        BatchNorm2d::new(c.out_c),
                    ));
                }
                if c.relu {
                    seq.push(Node::leaf("", Relu::new()));
                }
            }
            Block::Linear(l) => {
                let weight = init(&[l.out_f, l.in_f], l.in_f);
                seq.push(Node::leaf(&l.name, Linear::from_weight(weight)));
                if l.relu {
                    seq.push(Node::leaf("", Relu::new()));
                }
            }
            Block::MaxPool(w) => seq.push(Node::leaf("", MaxPool2d::new(*w))),
            Block::GlobalAvgPool => seq.push(Node::leaf("", GlobalAvgPool::new())),
            Block::Flatten => seq.push(Node::leaf("", Flatten::new())),
            Block::Residual { main, shortcut } => {
                seq.push(Node::Residual {
                    main: Seq::build(main, init),
                    shortcut: shortcut.as_ref().map(|sc| Seq::build(sc, init)),
                });
                seq.push(Node::leaf("", Relu::new()));
            }
            Block::LinearResidual { main } => seq.push(Node::Residual {
                main: Seq::build(main, init),
                shortcut: None,
            }),
        }
    }

    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        match self {
            Node::Leaf(_, layer) => layer.forward(x, train),
            Node::Residual { main, shortcut } => {
                let skip = match shortcut {
                    Some(sc) => sc.forward(x.clone(), train),
                    None => x.clone(),
                };
                let mut h = main.forward(x, train);
                h.add_assign(&skip);
                h
            }
        }
    }

    fn backward(&mut self, dy: Tensor) -> Tensor {
        match self {
            Node::Leaf(_, layer) => layer.backward(dy),
            Node::Residual { main, shortcut } => {
                let mut dx = main.backward(dy.clone());
                let dskip = match shortcut {
                    Some(sc) => sc.backward(dy),
                    None => dy,
                };
                dx.add_assign(&dskip);
                dx
            }
        }
    }
}

/// A sequence of nodes.
struct Seq {
    nodes: Vec<Node>,
}

impl Seq {
    fn build(blocks: &[Block], init: &mut impl FnMut(&[usize], usize) -> Tensor) -> Self {
        let mut nodes = Vec::new();
        for b in blocks {
            Node::build(b, init, &mut nodes);
        }
        Seq { nodes }
    }

    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        self.nodes.iter_mut().fold(x, |h, n| n.forward(h, train))
    }

    fn backward(&mut self, dy: Tensor) -> Tensor {
        self.nodes.iter_mut().rev().fold(dy, |g, n| n.backward(g))
    }

    /// Calls `f` on every leaf with its prefix, in parameter order
    /// (`main` before `shortcut`).
    fn leaves(&self, f: &mut dyn FnMut(&str, &dyn Layer)) {
        for n in &self.nodes {
            match n {
                Node::Leaf(prefix, layer) => f(prefix, layer.as_ref()),
                Node::Residual { main, shortcut } => {
                    for s in std::iter::once(main).chain(shortcut) {
                        s.leaves(f);
                    }
                }
            }
        }
    }

    /// [`Seq::leaves`], mutably.
    fn leaves_mut(&mut self, f: &mut dyn FnMut(&str, &mut dyn Layer)) {
        for n in &mut self.nodes {
            match n {
                Node::Leaf(prefix, layer) => f(prefix, layer.as_mut()),
                Node::Residual { main, shortcut } => {
                    for s in std::iter::once(main).chain(shortcut) {
                        s.leaves_mut(f);
                    }
                }
            }
        }
    }
}

/// An executable network with trunk segments and one or more exit
/// heads, built from a [`Blueprint`].
///
/// As a plain [`Layer`], `forward`/`backward` use only the final exit
/// and skip the earlier exit heads; multi-exit training uses
/// [`Network::forward_multi`] / [`Network::backward_multi`].
pub struct Network {
    segments: Vec<Seq>,
    /// `(segment index, head)` for each active exit, ascending.
    exits: Vec<(usize, Seq)>,
}

impl Network {
    /// Instantiates a blueprint with Kaiming-uniform weights drawn
    /// from `rng` in parameter order, and zero biases.
    ///
    /// # Panics
    ///
    /// Panics if the blueprint is structurally invalid.
    pub fn build(bp: &Blueprint, rng: &mut impl Rng) -> Self {
        Self::build_with(bp, |shape, fan_in| {
            init::kaiming_uniform(shape, fan_in, rng)
        })
    }

    /// Instantiates a blueprint with each conv and linear weight taken
    /// from `init(shape, fan_in)`, which must return a tensor of that
    /// shape, in parameter order; biases are zero.
    ///
    /// # Panics
    ///
    /// Panics if the blueprint is structurally invalid.
    pub fn build_with(bp: &Blueprint, mut init: impl FnMut(&[usize], usize) -> Tensor) -> Self {
        bp.validate();
        let segments = bp
            .segments
            .iter()
            .map(|s| Seq::build(s, &mut init))
            .collect();
        let mut active = bp.active_exits.clone();
        active.sort_unstable();
        let exits = active
            .into_iter()
            .map(|e| (e, Seq::build(&bp.exits[e], &mut init)))
            .collect();
        Network { segments, exits }
    }

    /// Segment indices of the active exits, ascending.
    pub fn exit_points(&self) -> Vec<usize> {
        self.exits.iter().map(|(e, _)| *e).collect()
    }

    /// The trunk segments, then the exit heads: parameter order.
    fn seqs(&self) -> impl Iterator<Item = &Seq> {
        self.segments
            .iter()
            .chain(self.exits.iter().map(|(_, h)| h))
    }

    /// [`Network::seqs`], mutably.
    fn seqs_mut(&mut self) -> impl Iterator<Item = &mut Seq> {
        self.segments
            .iter_mut()
            .chain(self.exits.iter_mut().map(|(_, h)| h))
    }

    /// Runs a training pass of the trunk and every active exit;
    /// returns `(segment index, logits)` per exit in ascending order.
    pub fn forward_multi(&mut self, x: Tensor) -> Vec<(usize, Tensor)> {
        let mut out = Vec::with_capacity(self.exits.len());
        let mut h = x;
        for (i, seg) in self.segments.iter_mut().enumerate() {
            h = seg.forward(h, true);
            if let Some((_, head)) = self.exits.iter_mut().find(|(e, _)| *e == i) {
                out.push((i, head.forward(h.clone(), true)));
            }
        }
        out
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
    /// The final exit's logits. With `train` false this is the sBN
    /// evaluation of DESIGN.md §7: the final logits of a training pass,
    /// bit for bit, but no layer caches anything for a backward and the
    /// running statistics stay as they are.
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        let h = self
            .segments
            .iter_mut()
            .fold(x, |h, seg| seg.forward(h, train));
        let (_, head) = self.exits.last_mut().expect("network has a final exit");
        head.forward(h, train)
    }

    fn backward(&mut self, dy: Tensor) -> Tensor {
        let last = self.segments.len() - 1;
        self.backward_multi(vec![(last, dy)])
    }

    fn visit_params(&self, _prefix: &str, v: &mut dyn ParamVisitor) {
        for seq in self.seqs() {
            seq.leaves(&mut |prefix, layer| layer.visit_params(prefix, v));
        }
    }

    fn visit_params_mut(&mut self, _prefix: &str, v: &mut dyn ParamVisitorMut) {
        for seq in self.seqs_mut() {
            seq.leaves_mut(&mut |prefix, layer| layer.visit_params_mut(prefix, v));
        }
    }

    fn zero_grads(&mut self) {
        for seq in self.seqs_mut() {
            seq.leaves_mut(&mut |_, layer| layer.zero_grads());
        }
    }
}
