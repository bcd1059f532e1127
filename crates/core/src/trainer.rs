//! Local training (Step 4 of the paper's workflow) and model
//! evaluation.

use std::ops::Range;

use adaptivefl_data::InMemoryDataset;
use adaptivefl_models::Network;
use adaptivefl_nn::layer::Layer;
use adaptivefl_nn::loss::{distillation_loss, softmax_cross_entropy};
use adaptivefl_nn::metrics::{accuracy, RunningMean};
use adaptivefl_nn::optim::Sgd;
use adaptivefl_tensor::Scratch;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Local SGD hyper-parameters — paper §4: lr 0.01, momentum 0.5, batch
/// size 50, 5 local epochs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalTrainer {
    /// Learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Local epochs per round.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
}

impl LocalTrainer {
    /// The paper's hyper-parameters (lr 0.01, momentum 0.5, batch 50,
    /// 5 epochs).
    pub fn paper() -> Self {
        LocalTrainer {
            lr: 0.01,
            momentum: 0.5,
            epochs: 5,
            batch_size: 50,
        }
    }

    /// Faster settings for reduced-scale experiments.
    pub fn fast() -> Self {
        LocalTrainer {
            lr: 0.03,
            momentum: 0.5,
            epochs: 2,
            batch_size: 16,
        }
    }

    /// [`LocalTrainer::train`] with plain cross-entropy at every exit.
    pub fn train_with_scratch(
        &self,
        net: &mut Network,
        data: &InMemoryDataset,
        rng: &mut impl Rng,
        scratch: &Scratch,
    ) -> f32 {
        self.train(net, data, None, rng, scratch)
    }

    /// Trains the network on a client shard: cross-entropy at every
    /// active exit and, with `distill = Some((weight, temperature))`,
    /// ScaleFL's self-distillation (temperature-scaled KL) from the
    /// final exit into each earlier one. Returns the mean combined
    /// loss.
    ///
    /// A single-exit net trains on plain cross-entropy either way: its
    /// loss `0.0 + ce` is `ce` bit for bit, since a cross-entropy chain
    /// starts at `+0.0` and never yields `-0.0`.
    ///
    /// The optimizer's momentum buffers come from `scratch`, so
    /// repeated training sessions reuse them instead of reallocating
    /// per parameter per session; a fresh [`Scratch`] gives the same
    /// bits.
    pub fn train(
        &self,
        net: &mut Network,
        data: &InMemoryDataset,
        distill: Option<(f32, f32)>,
        rng: &mut impl Rng,
        scratch: &Scratch,
    ) -> f32 {
        let mut opt = Sgd::new(self.lr, self.momentum).with_scratch(scratch.clone());
        let mut loss = RunningMean::new();
        for _ in 0..self.epochs {
            for batch in data.shuffled_batches(self.batch_size, rng) {
                net.zero_grads();
                let outs = net.forward_multi(batch.x);
                let (last_exit, final_logits) = outs.last().expect("final exit");
                let mut total = 0.0f32;
                let mut grads = Vec::with_capacity(outs.len());
                for (e, logits) in &outs {
                    let ce = softmax_cross_entropy(logits, &batch.y);
                    total += ce.loss;
                    let mut g = ce.dlogits;
                    let teacher = distill.filter(|&(w, _)| e != last_exit && w > 0.0);
                    if let Some((weight, temperature)) = teacher {
                        let kd = distillation_loss(logits, final_logits, temperature);
                        total += weight * kd.loss;
                        g.axpy(weight, &kd.dlogits);
                    }
                    grads.push((*e, g));
                }
                let _ = net.backward_multi(grads);
                opt.step(net);
                loss.add(total, batch.y.len() as f32);
            }
        }
        loss.mean()
    }
}

/// The index ranges of the evaluation batches over `n` samples: runs of
/// `batch_size` in order, the last one possibly shorter. A batch's
/// members fix its statistics, so every evaluation splits the same way.
pub fn eval_batches(n: usize, batch_size: usize) -> impl Iterator<Item = Range<usize>> {
    (0..n)
        .step_by(batch_size)
        .map(move |start| start..(start + batch_size).min(n))
}

/// Top-1 accuracy of `net` on the samples `batch` of `data`, with the
/// batch's size as its weight in a [`RunningMean`].
///
/// Evaluation normalises batch-norm with *batch statistics* — the
/// static-BN (sBN) convention of HeteroFL-style systems. Aggregating
/// running statistics across submodels of different widths poisons them
/// (each width sees different activation distributions), which
/// otherwise cripples deep BN models; every method is evaluated the
/// same way. It runs `forward(x, false)`, which gives the logits of a
/// training-mode forward bit for bit without caching activations or
/// touching the running statistics.
pub fn batch_accuracy(
    net: &mut Network,
    data: &InMemoryDataset,
    batch: Range<usize>,
) -> (f32, f32) {
    let idx: Vec<usize> = batch.collect();
    let b = data.batch(&idx);
    let logits = net.forward(b.x, false);
    (accuracy(&logits, &b.y), b.y.len() as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptivefl_data::{FederatedDataset, Partition, SynthSpec};
    use adaptivefl_models::ModelConfig;
    use adaptivefl_nn::layer::LayerExt;
    use adaptivefl_tensor::rng;

    /// Folds [`batch_accuracy`] over [`eval_batches`] into one
    /// [`RunningMean`], as `methods::evaluate_levels` does per model.
    fn test_accuracy(net: &mut Network, data: &InMemoryDataset, batch_size: usize) -> f32 {
        let mut acc = RunningMean::new();
        for batch in eval_batches(data.len(), batch_size) {
            let (a, n) = batch_accuracy(net, data, batch);
            acc.add(a, n);
        }
        acc.mean()
    }

    #[test]
    fn training_reduces_loss_and_lifts_accuracy() {
        let fed =
            FederatedDataset::synthesize(&SynthSpec::test_spec(4), 1, 60, 60, Partition::Iid, 70);
        let cfg = ModelConfig {
            kind: adaptivefl_models::ModelKind::TinyCnn,
            input: (3, 8, 8),
            classes: 4,
            width_mult: 1.0,
        };
        let mut r = rng::seeded(71);
        let mut net = cfg.build(&cfg.full_plan(), &mut r);
        let trainer = LocalTrainer {
            lr: 0.05,
            momentum: 0.9,
            epochs: 8,
            batch_size: 16,
        };
        let before = test_accuracy(&mut net, fed.test(), 32);
        let scratch = Scratch::new();
        let loss1 = trainer.train_with_scratch(&mut net, fed.client(0), &mut r, &scratch);
        let loss2 = trainer.train_with_scratch(&mut net, fed.client(0), &mut r, &scratch);
        let after = test_accuracy(&mut net, fed.test(), 32);
        assert!(loss2 < loss1, "loss did not decrease: {loss1} → {loss2}");
        assert!(after > before + 0.15, "accuracy {before} → {after}");
    }

    #[test]
    fn multi_exit_training_improves_all_exits() {
        let fed =
            FederatedDataset::synthesize(&SynthSpec::test_spec(4), 1, 60, 60, Partition::Iid, 72);
        let cfg = ModelConfig {
            kind: adaptivefl_models::ModelKind::TinyCnn,
            input: (3, 8, 8),
            classes: 4,
            width_mult: 1.0,
        };
        let bp = cfg.blueprint(&cfg.full_plan(), 3, true);
        let mut r = rng::seeded(73);
        let mut net = adaptivefl_models::Network::build(&bp, &mut r);
        // Three exits triple the trunk gradient, so use a gentler lr
        // than the single-exit test.
        let trainer = LocalTrainer {
            lr: 0.02,
            momentum: 0.5,
            epochs: 12,
            batch_size: 16,
        };
        let loss = trainer.train(
            &mut net,
            fed.client(0),
            Some((0.5, 2.0)),
            &mut r,
            &Scratch::new(),
        );
        assert!(loss.is_finite());
        // Final-exit accuracy should be clearly above chance (0.25).
        let b = fed.test().full_batch();
        let acc = accuracy(&net.forward(b.x, false), &b.y);
        assert!(acc > 0.5, "final exit accuracy {acc}");
    }

    /// Distillation needs an earlier exit: on a single-exit net,
    /// `Some(..)` trains exactly as `None` does, loss and every
    /// parameter bit for bit.
    #[test]
    fn distillation_is_a_no_op_on_a_single_exit_net() {
        let fed =
            FederatedDataset::synthesize(&SynthSpec::test_spec(4), 1, 40, 8, Partition::Iid, 76);
        let cfg = ModelConfig {
            input: (3, 8, 8),
            ..ModelConfig::tiny(4)
        };
        let trainer = LocalTrainer {
            epochs: 2,
            ..LocalTrainer::fast()
        };
        let run = |distill| {
            let mut net = cfg.build(&cfg.full_plan(), &mut rng::seeded(77));
            let loss = trainer.train(
                &mut net,
                fed.client(0),
                distill,
                &mut rng::seeded(78),
                &Scratch::new(),
            );
            let params: Vec<(String, Vec<u32>)> = net
                .param_map()
                .iter()
                .map(|(n, t)| {
                    (
                        n.to_string(),
                        t.as_slice().iter().map(|v| v.to_bits()).collect(),
                    )
                })
                .collect();
            (loss.to_bits(), params)
        };
        assert_eq!(run(Some((0.5, 2.0))), run(None));
    }

    #[test]
    fn evaluate_batches_match_full_batch() {
        let fed =
            FederatedDataset::synthesize(&SynthSpec::test_spec(3), 1, 10, 25, Partition::Iid, 74);
        let cfg = ModelConfig {
            kind: adaptivefl_models::ModelKind::TinyCnn,
            input: (3, 8, 8),
            classes: 3,
            width_mult: 1.0,
        };
        let mut r = rng::seeded(75);
        let mut net = cfg.build(&cfg.full_plan(), &mut r);
        let a = test_accuracy(&mut net, fed.test(), 7);
        let b = test_accuracy(&mut net, fed.test(), 25);
        assert!((a - b).abs() < 1e-6);
    }
}
