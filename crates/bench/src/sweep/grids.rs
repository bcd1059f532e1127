//! Every experiment's run grid as data.
//!
//! Each function lists one table or figure of the paper cell for cell:
//! models, datasets, partitions, configuration overrides and slugs.
//! The sweep engine runs these cells at any seed, and a cell's slug
//! names its records under `results/sweep/`. Table 1 is purely
//! analytic (no simulation, no randomness) and has no grid; the
//! `table1` binary prints it.

use adaptivefl_core::methods::MethodKind;
use adaptivefl_core::select::SelectionStrategy;
use adaptivefl_core::sim::SimConfig;
use adaptivefl_data::{Partition, SynthSpec};
use adaptivefl_models::ModelConfig;

use super::cell::{Cell, CellRun};
use crate::{experiment_cfg_for, paper_models, syn_cifar10, syn_cifar100, syn_femnist, syn_widar};

/// Names of every sweepable experiment, in run order.
pub const EXPERIMENTS: [&str; 9] = [
    "table2", "table3", "table4", "fig2", "fig3", "fig4", "fig5", "fig6", "ablation",
];

/// The grid of one experiment by name (`None` for unknown names).
pub fn experiment(name: &str, full: bool, seed: u64) -> Option<Vec<Cell>> {
    match name {
        "table2" => Some(table2(full, seed)),
        "table3" => Some(table3(full, seed)),
        "table4" => Some(table4(full, seed)),
        "fig2" => Some(fig2(full, seed)),
        "fig3" => Some(fig3(full, seed)),
        "fig4" => Some(fig4(full, seed)),
        "fig5" => Some(fig5(full, seed)),
        "fig6" => Some(fig6(full, seed)),
        "ablation" => Some(ablation(full, seed)),
        _ => None,
    }
}

/// Every experiment's grid, concatenated in [`EXPERIMENTS`] order.
pub fn all(full: bool, seed: u64) -> Vec<Cell> {
    EXPERIMENTS
        .iter()
        .flat_map(|name| experiment(name, full, seed).expect("known experiment"))
        .collect()
}

type DatasetPanel = (&'static str, SynthSpec, Vec<(&'static str, Partition)>);

fn accuracy_datasets() -> Vec<DatasetPanel> {
    vec![
        (
            "SynCIFAR-10",
            syn_cifar10(),
            vec![
                ("IID", Partition::Iid),
                ("a=0.6", Partition::Dirichlet(0.6)),
                ("a=0.3", Partition::Dirichlet(0.3)),
            ],
        ),
        (
            "SynCIFAR-100",
            syn_cifar100(),
            vec![
                ("IID", Partition::Iid),
                ("a=0.6", Partition::Dirichlet(0.6)),
                ("a=0.3", Partition::Dirichlet(0.3)),
            ],
        ),
        (
            "SynFEMNIST",
            syn_femnist(),
            vec![("writer", Partition::ByGroup)],
        ),
    ]
}

/// Table 2: five methods × two models × seven dataset/partition
/// columns.
pub fn table2(full: bool, seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (ds_name, spec, partitions) in accuracy_datasets() {
        for (model_name, model) in paper_models(spec.classes, spec.input) {
            for (part_name, partition) in &partitions {
                let hard = ds_name != "SynCIFAR-10";
                let mut cfg = experiment_cfg_for(model, full, seed, hard);
                if ds_name == "SynFEMNIST" {
                    cfg.num_clients = 180; // paper: 180 FEMNIST clients
                    cfg.clients_per_round = 18;
                    cfg.rounds = if full { 80 } else { 32 };
                    cfg.eval_every = cfg.rounds / 4;
                }
                for kind in MethodKind::table2_lineup() {
                    cells.push(
                        Cell::new(
                            "table2",
                            &format!("table2-{model_name}-{ds_name}-{part_name}-{kind}"),
                            spec,
                            *partition,
                            cfg,
                            CellRun::Kind(kind),
                        )
                        .group(format!("{model_name}/{ds_name}/{part_name}"))
                        .model(model_name)
                        .dataset(ds_name)
                        .partition_label(*part_name),
                    );
                }
            }
        }
    }
    cells
}

/// Table 3: four methods × four weak:medium:strong proportions.
pub fn table3(full: bool, seed: u64) -> Vec<Cell> {
    let spec = syn_cifar10();
    let [(_, vgg), _] = paper_models(spec.classes, spec.input);
    let proportions: [(&str, (usize, usize, usize)); 4] = [
        ("4:3:3", (4, 3, 3)),
        ("8:1:1", (8, 1, 1)),
        ("1:8:1", (1, 8, 1)),
        ("1:1:8", (1, 1, 8)),
    ];
    let methods = [
        MethodKind::AllLarge,
        MethodKind::HeteroFl,
        MethodKind::ScaleFl,
        MethodKind::AdaptiveFl,
    ];
    let mut cells = Vec::new();
    for (pname, prop) in proportions {
        let mut cfg = experiment_cfg_for(vgg, full, seed, false);
        cfg.proportions = prop;
        for kind in methods {
            cells.push(
                Cell::new(
                    "table3",
                    &format!("table3-{pname}-{kind}"),
                    spec,
                    Partition::Iid,
                    cfg,
                    CellRun::Kind(kind),
                )
                .group(pname)
                .variant(pname)
                .model("VGG16")
                .dataset("SynCIFAR-10"),
            );
        }
    }
    cells
}

/// Table 4: AdaptiveFL fine (p = 3) vs coarse (p = 1) pruning.
pub fn table4(full: bool, seed: u64) -> Vec<Cell> {
    let partitions = [
        ("IID", Partition::Iid),
        ("a=0.6", Partition::Dirichlet(0.6)),
        ("a=0.3", Partition::Dirichlet(0.3)),
    ];
    let mut cells = Vec::new();
    for (ds_name, spec) in [
        ("SynCIFAR-10", syn_cifar10()),
        ("SynCIFAR-100", syn_cifar100()),
    ] {
        for (model_name, model) in paper_models(spec.classes, spec.input) {
            for (part_name, partition) in partitions {
                for (grained, p) in [("coarse", 1usize), ("fine", 3usize)] {
                    let hard = ds_name != "SynCIFAR-10";
                    let mut cfg = experiment_cfg_for(model, full, seed, hard);
                    cfg.p = p;
                    cells.push(
                        Cell::new(
                            "table4",
                            &format!("table4-{model_name}-{ds_name}-{part_name}-{grained}"),
                            spec,
                            partition,
                            cfg,
                            CellRun::Kind(MethodKind::AdaptiveFl),
                        )
                        .group(format!("{model_name}/{ds_name}/{part_name}"))
                        .variant(grained)
                        .model(model_name)
                        .dataset(ds_name)
                        .partition_label(part_name),
                    );
                }
            }
        }
    }
    cells
}

/// Figure 2: learning-curve panels (two in fast mode, all four of the
/// paper's with `full`).
pub fn fig2(full: bool, seed: u64) -> Vec<Cell> {
    let mut panels = vec![
        ("cifar10_iid", syn_cifar10(), Partition::Iid),
        ("cifar100_a03", syn_cifar100(), Partition::Dirichlet(0.3)),
    ];
    if full {
        panels.push(("cifar10_a03", syn_cifar10(), Partition::Dirichlet(0.3)));
        panels.push(("cifar100_iid", syn_cifar100(), Partition::Iid));
    }
    let mut cells = Vec::new();
    for (panel, spec, partition) in panels {
        let [(_, vgg), _] = paper_models(spec.classes, spec.input);
        let hard = panel.starts_with("cifar100");
        let mut cfg = experiment_cfg_for(vgg, full, seed, hard);
        cfg.eval_every = (cfg.rounds / 8).max(1); // denser curves
        let dataset = if hard { "SynCIFAR-100" } else { "SynCIFAR-10" };
        for kind in MethodKind::table2_lineup() {
            cells.push(
                Cell::new(
                    "fig2",
                    &format!("fig2-{panel}-{kind}"),
                    spec,
                    partition,
                    cfg,
                    CellRun::Kind(kind),
                )
                .group(panel)
                .variant(panel)
                .model("VGG16")
                .dataset(dataset),
            );
        }
    }
    cells
}

/// Figure 3: per-level submodel accuracy of the heterogeneous methods.
pub fn fig3(full: bool, seed: u64) -> Vec<Cell> {
    let spec = syn_cifar10();
    let [(_, vgg), _] = paper_models(spec.classes, spec.input);
    let cfg = experiment_cfg_for(vgg, full, seed, false);
    [
        MethodKind::Decoupled,
        MethodKind::HeteroFl,
        MethodKind::ScaleFl,
        MethodKind::AdaptiveFl,
    ]
    .into_iter()
    .map(|kind| {
        Cell::new(
            "fig3",
            &format!("fig3-{kind}"),
            spec,
            Partition::Iid,
            cfg,
            CellRun::Kind(kind),
        )
        .group("fig3")
        .model("VGG16")
        .dataset("SynCIFAR-10")
    })
    .collect()
}

/// Figure 4: scalability over the number of clients.
pub fn fig4(full: bool, seed: u64) -> Vec<Cell> {
    let spec = syn_cifar10();
    let [_, (_, resnet)] = paper_models(spec.classes, spec.input);
    let client_counts: &[usize] = if full {
        &[50, 100, 200, 500]
    } else {
        &[25, 50, 100]
    };
    let methods = [
        MethodKind::Decoupled,
        MethodKind::HeteroFl,
        MethodKind::ScaleFl,
        MethodKind::AdaptiveFl,
    ];
    let mut cells = Vec::new();
    for &n in client_counts {
        let mut cfg = experiment_cfg_for(resnet, full, seed, false);
        cfg.num_clients = n;
        cfg.clients_per_round = (n / 10).max(2);
        // Keep the global data volume roughly constant so runs stay
        // comparable (the paper fixes the dataset and splits it).
        cfg.samples_per_client = (2500 / n).max(8);
        for kind in methods {
            cells.push(
                Cell::new(
                    "fig4",
                    &format!("fig4-n{n}-{kind}"),
                    spec,
                    Partition::Dirichlet(0.6),
                    cfg,
                    CellRun::Kind(kind),
                )
                .group(format!("n{n}"))
                .variant(format!("{n} clients"))
                .model("ResNet18")
                .dataset("SynCIFAR-10"),
            );
        }
    }
    cells
}

/// Figure 5: RL client-selection ablation variants.
pub fn fig5(full: bool, seed: u64) -> Vec<Cell> {
    let spec = syn_cifar100();
    let [_, (_, resnet)] = paper_models(spec.classes, spec.input);
    let cfg = experiment_cfg_for(resnet, full, seed, true);
    [
        MethodKind::AdaptiveFlGreedy,
        MethodKind::AdaptiveFlVariant(SelectionStrategy::Random),
        MethodKind::AdaptiveFlVariant(SelectionStrategy::CuriosityOnly),
        MethodKind::AdaptiveFlVariant(SelectionStrategy::ResourceOnly),
        MethodKind::AdaptiveFl, // +CS
    ]
    .into_iter()
    .map(|kind| {
        Cell::new(
            "fig5",
            &format!("fig5-{kind}"),
            spec,
            Partition::Iid,
            cfg,
            CellRun::Kind(kind),
        )
        .group("fig5")
        .variant(kind.to_string())
        .model("ResNet18")
        .dataset("SynCIFAR-100")
    })
    .collect()
}

/// Figure 6: the 17-device test-bed (MobileNetV2 on SynWidar).
pub fn fig6(full: bool, seed: u64) -> Vec<Cell> {
    let spec = syn_widar();
    let model = ModelConfig {
        classes: spec.classes,
        input: spec.input,
        width_mult: 0.5,
        ..ModelConfig::mobilenet_v2_fast(spec.classes)
    };
    let mut cfg = SimConfig::fast(model, seed);
    cfg.num_clients = 17; // Table 5
    cfg.clients_per_round = 10; // paper: 10 devices per round
    cfg.rounds = if full { 80 } else { 30 };
    cfg.eval_every = cfg.rounds / 6;
    cfg.samples_per_client = 40;
    cfg.test_samples = 300;
    [
        MethodKind::AllLarge,
        MethodKind::HeteroFl,
        MethodKind::ScaleFl,
        MethodKind::AdaptiveFl,
    ]
    .into_iter()
    .map(|kind| {
        Cell::new(
            "fig6",
            &format!("fig6-{kind}"),
            spec,
            Partition::ByGroup,
            cfg,
            CellRun::Kind(kind),
        )
        .group("fig6")
        .model("MobileNetV2")
        .dataset("SynWidar")
        .testbed()
    })
    .collect()
}

/// Design-choice ablations: pool granularity, reward cap, width
/// ratios.
pub fn ablation(full: bool, seed: u64) -> Vec<Cell> {
    let spec = syn_cifar10();
    let [_, (_, resnet)] = paper_models(spec.classes, spec.input);
    let mut cells = Vec::new();

    // (a) pool granularity sweep.
    for p in [1usize, 2, 3, 4] {
        let mut cfg = experiment_cfg_for(resnet, full, seed, false);
        cfg.p = p;
        cells.push(
            Cell::new(
                "ablation",
                &format!("ablation-p{p}"),
                spec,
                Partition::Dirichlet(0.6),
                cfg,
                CellRun::Kind(MethodKind::AdaptiveFl),
            )
            .group("p-sweep")
            .variant(format!("p={p}"))
            .model("ResNet18")
            .dataset("SynCIFAR-10"),
        );
    }

    // (b) reward cap on/off.
    for (label, cap) in [("cap=0.5 (paper)", 0.5f64), ("cap=1.0 (off)", 1.0)] {
        let cfg = experiment_cfg_for(resnet, full, seed, false);
        cells.push(
            Cell::new(
                "ablation",
                &format!("ablation-cap{cap}"),
                spec,
                Partition::Dirichlet(0.6),
                cfg,
                CellRun::AdaptiveCap(cap),
            )
            .group("reward-cap")
            .variant(label)
            .model("ResNet18")
            .dataset("SynCIFAR-10"),
        );
    }

    // (c) level width-ratio pairs around the paper's (0.40, 0.66).
    for ratios in [(0.30f32, 0.55f32), (0.40, 0.66), (0.50, 0.75)] {
        let mut cfg = experiment_cfg_for(resnet, full, seed, false);
        cfg.ratios = ratios;
        let label = format!("S={},M={}", ratios.0, ratios.1);
        cells.push(
            Cell::new(
                "ablation",
                &format!("ablation-ratios-{label}"),
                spec,
                Partition::Dirichlet(0.6),
                cfg,
                CellRun::Kind(MethodKind::AdaptiveFl),
            )
            .group("ratios")
            .variant(label)
            .model("ResNet18")
            .dataset("SynCIFAR-10"),
        );
    }
    cells
}

/// A tiny shrunk grid for smoke tests and CI: a few representative
/// cells (two Table 3 proportion/method pairs, the Figure 3
/// HeteroFL/AdaptiveFL pair, the reward-cap ablation pair) run at
/// miniature scale. Exercises every layer — grids, scheduler, stores,
/// stats, verdicts — in seconds.
pub fn tiny(seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    cells.extend(
        table3(false, seed)
            .into_iter()
            .filter(|c| {
                (c.group == "4:3:3" || c.group == "1:1:8")
                    && (c.method() == "AdaptiveFL" || c.method() == "HeteroFL")
            })
            .map(Cell::shrink),
    );
    cells.extend(
        fig3(false, seed)
            .into_iter()
            .filter(|c| c.method() == "AdaptiveFL" || c.method() == "HeteroFL")
            .map(Cell::shrink),
    );
    cells.extend(
        ablation(false, seed)
            .into_iter()
            .filter(|c| c.group == "reward-cap")
            .map(Cell::shrink),
    );
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn grid_sizes_match_the_paper() {
        // table2: 7 dataset/partition columns × 2 models × 5 methods.
        assert_eq!(table2(false, 1).len(), 70);
        assert_eq!(table3(false, 1).len(), 16);
        // table4: 2 datasets × 2 models × 3 partitions × 2 granularities.
        assert_eq!(table4(false, 1).len(), 24);
        assert_eq!(fig2(false, 1).len(), 10);
        assert_eq!(fig2(true, 1).len(), 20);
        assert_eq!(fig3(false, 1).len(), 4);
        assert_eq!(fig4(false, 1).len(), 12);
        assert_eq!(fig4(true, 1).len(), 16);
        assert_eq!(fig5(false, 1).len(), 5);
        assert_eq!(fig6(false, 1).len(), 4);
        assert_eq!(ablation(false, 1).len(), 9);
    }

    #[test]
    fn slugs_are_unique_across_the_whole_grid() {
        let cells = all(false, 2024);
        let slugs: BTreeSet<&str> = cells.iter().map(|c| c.slug.as_str()).collect();
        assert_eq!(slugs.len(), cells.len());
    }

    #[test]
    fn known_slugs_survive_sanitisation() {
        let t3 = table3(false, 1);
        assert!(t3.iter().any(|c| c.slug == "table3-4-3-3-adaptivefl"));
        let ab = ablation(false, 1);
        assert!(ab.iter().any(|c| c.slug == "ablation-cap0-5"));
        assert!(ab.iter().any(|c| c.slug == "ablation-ratios-s-0-4-m-0-66"));
    }

    #[test]
    fn seed_threads_into_every_cell() {
        for cell in all(false, 77) {
            assert_eq!(cell.cfg.seed, 77, "{}", cell.slug);
        }
    }

    #[test]
    fn experiment_lookup_covers_exactly_the_known_names() {
        for name in EXPERIMENTS {
            assert!(experiment(name, false, 1).is_some(), "{name}");
        }
        assert!(experiment("table1", false, 1).is_none());
    }

    #[test]
    fn tiny_grid_is_small_and_shrunk() {
        let cells = tiny(1);
        assert_eq!(cells.len(), 8);
        for c in &cells {
            assert!(c.cfg.rounds <= 3, "{}", c.slug);
            assert!(c.cfg.num_clients <= 17, "{}", c.slug);
        }
    }
}
