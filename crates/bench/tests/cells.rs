//! Experiment cells end to end: every grid cell's name agrees with the
//! method it instantiates, and the checkpointed (`--resume`) job path
//! reproduces the plain run, fresh and resumed.

use adaptivefl_bench::sweep::{grids, Cell, CellRun, JobOpts};
use adaptivefl_bench::{syn_cifar10, CHECKPOINT_EVERY};
use adaptivefl_core::methods::MethodKind;
use adaptivefl_core::sim::SimConfig;
use adaptivefl_core::trace::TraceEvent;
use adaptivefl_data::Partition;
use adaptivefl_store::SnapshotStore;
use adaptivefl_trace::{read_trace, TraceLine};

/// The records' `method` field is the run's method name;
/// `Cell::method` must agree with it for every cell, fast and full. A
/// method's name depends only on its kind, so each cell runs zero
/// rounds in its shrunk environment.
#[test]
fn cell_method_names_match_the_instantiated_methods() {
    for full in [false, true] {
        for cell in grids::all(full, 3) {
            let mut small = cell.clone().shrink();
            small.cfg.rounds = 0;
            let result = small.prepare(3).run(cell.run.kind());
            assert_eq!(cell.method(), result.method, "{} (full: {full})", cell.slug);
        }
    }
}

/// A 7-round quick-test cell.
fn quick_cell(run: CellRun) -> Cell {
    let spec = syn_cifar10();
    let mut cfg = SimConfig::quick_test(9);
    cfg.model.input = spec.input;
    cfg.model.classes = spec.classes;
    cfg.rounds = 7;
    Cell::new("ablation", "resume-cell", spec, Partition::Iid, cfg, run)
}

/// The `--resume` path of a job: a first checkpointed call runs from
/// scratch and snapshots at round 5; a second call resumes from that
/// snapshot. Both reproduce the plain run.
#[test]
fn checkpointed_execute_resumes_to_the_plain_result() {
    let root = std::env::temp_dir().join(format!("afl-cell-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let runs = [
        CellRun::Kind(MethodKind::AdaptiveFl),
        CellRun::AdaptiveCap(1.0),
    ];
    for (i, run) in runs.into_iter().enumerate() {
        let cell = quick_cell(run);
        let plain = cell.execute(21, &JobOpts::default());
        let ckpt = root.join(format!("ckpt{i}"));
        let opts = JobOpts {
            resume: Some(ckpt.clone()),
            trace: Some(root.clone()),
        };
        let start_round = || {
            let trace = read_trace(root.join("resume-cell-s21.jsonl")).expect("job trace");
            trace.iter().find_map(|line| match line {
                TraceLine::Event(TraceEvent::RunStart { start_round, .. }) => Some(*start_round),
                _ => None,
            })
        };

        assert_eq!(cell.execute(21, &opts), plain, "{run:?}: first call");
        assert_eq!(start_round(), Some(0), "{run:?}");
        let store = SnapshotStore::open(ckpt.join("resume-cell-s21")).expect("job store");
        let (_, snap) = store.latest_valid().unwrap().expect("snapshot saved");
        assert_eq!(snap.completed_rounds, CHECKPOINT_EVERY, "{run:?}");
        assert_eq!(snap.kind, run.kind(), "{run:?}");

        assert_eq!(cell.execute(21, &opts), plain, "{run:?}: resumed call");
        assert_eq!(start_round(), Some(CHECKPOINT_EVERY), "{run:?}");
    }
    std::fs::remove_dir_all(&root).unwrap();
}
