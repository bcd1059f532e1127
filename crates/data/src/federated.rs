//! [`FederatedDataset`]: per-client training shards plus a global test
//! set, assembled from a synthetic task and a partition strategy.

use rand::Rng;

use crate::dataset::InMemoryDataset;
use crate::partition::{dirichlet_partition, iid_partition, Partition};
use crate::synth::{SynthSpec, SynthTask};

/// Per-client training shards and a shared held-out test set.
#[derive(Debug, Clone)]
pub struct FederatedDataset {
    clients: Vec<InMemoryDataset>,
    test: InMemoryDataset,
}

impl FederatedDataset {
    /// Assembles a federation from explicit pieces.
    ///
    /// # Panics
    ///
    /// Panics if there are no clients.
    pub fn new(clients: Vec<InMemoryDataset>, test: InMemoryDataset) -> Self {
        assert!(!clients.is_empty(), "need at least one client");
        FederatedDataset { clients, test }
    }

    /// Synthesises a federation:
    ///
    /// * For [`Partition::Iid`] / [`Partition::Dirichlet`], one global
    ///   pool of `clients · samples_per_client` samples is generated
    ///   (group 0) and split by the partitioner — matching how the
    ///   paper splits CIFAR.
    /// * For [`Partition::ByGroup`], each client is its own group with
    ///   its own transform and a client-specific class preference —
    ///   matching FEMNIST's writer split / Widar's device split.
    pub fn synthesize(
        spec: &SynthSpec,
        clients: usize,
        samples_per_client: usize,
        test_samples: usize,
        partition: Partition,
        seed: u64,
    ) -> Self {
        let mut rng = adaptivefl_tensor::rng::derived(seed, "federated-data");
        let groups = match partition {
            Partition::ByGroup => clients,
            _ => 1,
        };
        let task = SynthTask::new(*spec, groups, &mut rng);

        let client_sets = match partition {
            Partition::Iid | Partition::Dirichlet(_) => {
                let n = clients * samples_per_client;
                let pool = task.dataset_uniform(n, &mut rng);
                let shards = match partition {
                    Partition::Iid => iid_partition(n, clients, &mut rng),
                    Partition::Dirichlet(a) => {
                        dirichlet_partition(pool.labels(), spec.classes, clients, a, &mut rng)
                    }
                    Partition::ByGroup => unreachable!(),
                };
                shards.iter().map(|s| pool.subset(s)).collect()
            }
            Partition::ByGroup => (0..clients)
                .map(|c| {
                    // Each group/writer covers a random subset of
                    // classes (half of them), like a writer who only
                    // produces some symbols.
                    let mut classes: Vec<usize> = (0..spec.classes).collect();
                    for i in (1..classes.len()).rev() {
                        classes.swap(i, rng.gen_range(0..=i));
                    }
                    classes.truncate((spec.classes / 2).max(1));
                    let labels: Vec<usize> = (0..samples_per_client)
                        .map(|_| classes[rng.gen_range(0..classes.len())])
                        .collect();
                    task.dataset_with_labels(&labels, c, &mut rng)
                })
                .collect(),
        };

        // Test data: group 0 for pooled partitions; mixed groups for
        // the group split (so the global model is tested across all
        // environments).
        let test = match partition {
            Partition::ByGroup => {
                let per = spec.input.0 * spec.input.1 * spec.input.2;
                let mut data = Vec::with_capacity(test_samples * per);
                let mut labels = Vec::with_capacity(test_samples);
                for i in 0..test_samples {
                    let y = rng.gen_range(0..spec.classes);
                    let g = i % clients;
                    data.extend(task.sample(y, g, &mut rng));
                    labels.push(y);
                }
                InMemoryDataset::new(spec.input, spec.classes, data, labels)
            }
            _ => task.dataset_uniform(test_samples, &mut rng),
        };

        FederatedDataset::new(client_sets, test)
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// The training shard of client `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn client(&self, c: usize) -> &InMemoryDataset {
        &self.clients[c]
    }

    /// The shared test set.
    pub fn test(&self) -> &InMemoryDataset {
        &self.test
    }

    /// Input shape of the task.
    pub fn input_shape(&self) -> (usize, usize, usize) {
        self.test.input_shape()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.test.classes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::shard_histogram;

    #[test]
    fn iid_federation_shapes() {
        let fed =
            FederatedDataset::synthesize(&SynthSpec::test_spec(4), 8, 10, 40, Partition::Iid, 1);
        assert_eq!(fed.num_clients(), 8);
        assert!((0..8).all(|c| fed.client(c).len() == 10));
        assert_eq!(fed.test().len(), 40);
        assert_eq!(fed.classes(), 4);
    }

    #[test]
    fn dirichlet_federation_is_skewed() {
        let fed = FederatedDataset::synthesize(
            &SynthSpec::test_spec(10),
            10,
            40,
            50,
            Partition::Dirichlet(0.1),
            2,
        );
        // At α=0.1 at least one client must be strongly class-skewed.
        let any_skewed = (0..fed.num_clients()).any(|c| {
            let ds = fed.client(c);
            if ds.is_empty() {
                return false;
            }
            let h = ds.class_histogram();
            *h.iter().max().expect("classes") as f32 > 0.6 * ds.len() as f32
        });
        assert!(any_skewed);
    }

    #[test]
    fn by_group_clients_have_partial_class_coverage() {
        let fed = FederatedDataset::synthesize(
            &SynthSpec::femnist_like(),
            6,
            30,
            60,
            Partition::ByGroup,
            3,
        );
        for c in 0..6 {
            let h = fed.client(c).class_histogram();
            let covered = h.iter().filter(|&&n| n > 0).count();
            assert!(covered <= 31, "client {c} covers {covered} classes");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            FederatedDataset::synthesize(
                &SynthSpec::test_spec(3),
                4,
                5,
                10,
                Partition::Dirichlet(0.6),
                7,
            )
        };
        let a = mk();
        let b = mk();
        for c in 0..4 {
            assert_eq!(a.client(c), b.client(c));
        }
        assert_eq!(a.test(), b.test());
    }

    #[test]
    fn histograms_line_up_with_labels() {
        let fed =
            FederatedDataset::synthesize(&SynthSpec::test_spec(5), 3, 20, 10, Partition::Iid, 9);
        let ds = fed.client(1);
        let idx: Vec<usize> = (0..ds.len()).collect();
        assert_eq!(ds.class_histogram(), shard_histogram(&idx, ds.labels(), 5));
    }
}
