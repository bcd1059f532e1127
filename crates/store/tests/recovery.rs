//! End-to-end crash/recovery: for every method kind, under both the
//! lossless sequential transport and a faulty parallel one, a run
//! checkpointed to disk mid-way and resumed in a fresh process-like
//! simulation reproduces the uninterrupted run bit-for-bit — same
//! accuracies, same simulated times, same [`CommStats`]. Plus the
//! corruption story: a damaged newest snapshot falls back to the
//! previous valid one, and resume still converges to the same result.

use std::fs;
use std::path::PathBuf;

use adaptivefl_comm::{FaultPlan, SimTransport};
use adaptivefl_core::methods::MethodKind;
use adaptivefl_core::select::SelectionStrategy;
use adaptivefl_core::sim::{RunHooks, SimConfig, Simulation};
use adaptivefl_core::transport::{PerfectTransport, Transport};
use adaptivefl_data::{Partition, SynthSpec};
use adaptivefl_store::{run_or_resume, SnapshotStore};

fn spec() -> SynthSpec {
    let mut s = SynthSpec::test_spec(4);
    s.input = (3, 8, 8);
    s
}

fn prepare(seed: u64) -> Simulation {
    let mut cfg = SimConfig::quick_test(seed);
    cfg.rounds = 5;
    Simulation::prepare(&cfg, &spec(), Partition::Dirichlet(0.5))
}

fn faulty_transport() -> SimTransport {
    SimTransport::new()
        .with_threads(2)
        .with_faults(FaultPlan {
            upload_drop: 0.2,
            straggler_prob: 0.2,
            crash_prob: 0.1,
            ..Default::default()
        })
        .with_deadline(400.0)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("afl-recovery-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn all_kinds() -> [MethodKind; 8] {
    [
        MethodKind::AdaptiveFl,
        MethodKind::AdaptiveFlGreedy,
        MethodKind::AdaptiveFlVariant(SelectionStrategy::Random),
        MethodKind::AllLarge,
        MethodKind::Decoupled,
        MethodKind::HeteroFl,
        MethodKind::ScaleFl,
        MethodKind::adaptive_fl_capped(1.0),
    ]
}

/// Checkpoint at round 2 via the disk store, then resume from the file
/// in a fresh simulation; the result must equal the uninterrupted run.
fn assert_recovers(kind: MethodKind, make_transport: &dyn Fn() -> Box<dyn Transport>, tag: &str) {
    let control = prepare(700).run_with_transport(kind, &mut *make_transport());

    let dir = temp_dir(&format!("{tag}-{kind}"));
    let mut store = SnapshotStore::open(&dir).unwrap();
    let mut sim = prepare(700);
    sim.run_with_hooks(
        kind,
        &mut *make_transport(),
        adaptivefl_core::sim::RunHooks {
            checkpoint_every: 0,
            sink: &mut store,
            halt_after: Some(2),
        },
    )
    .unwrap();

    // Everything in-memory is gone; only the snapshot file survives.
    let (_, snap) = store
        .latest_valid()
        .unwrap()
        .expect("halt wrote a snapshot");
    assert_eq!(snap.completed_rounds, 2, "{kind}");
    let resumed = prepare(700)
        .resume_with_transport(&snap, &mut *make_transport())
        .unwrap();
    assert_eq!(control, resumed, "{kind} over {tag} diverged after resume");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_kind_recovers_over_perfect_transport() {
    for kind in all_kinds() {
        assert_recovers(kind, &|| Box::new(PerfectTransport), "perfect");
    }
}

#[test]
fn every_kind_recovers_over_faulty_parallel_transport() {
    for kind in all_kinds() {
        assert_recovers(kind, &|| Box::new(faulty_transport()), "faulty");
    }
}

#[test]
fn faulty_transport_resume_is_thread_count_invariant() {
    // Checkpoint under a 2-thread transport, resume under 1 and 3
    // threads: all identical (the executor derives client RNG and
    // faults from (seed, round, client), not from scheduling).
    let kind = MethodKind::AdaptiveFl;
    let control = prepare(701).run_with_transport(kind, &mut faulty_transport());

    let dir = temp_dir("threads");
    let mut store = SnapshotStore::open(&dir).unwrap();
    prepare(701)
        .run_with_hooks(
            kind,
            &mut faulty_transport(),
            adaptivefl_core::sim::RunHooks {
                checkpoint_every: 0,
                sink: &mut store,
                halt_after: Some(3),
            },
        )
        .unwrap();
    let (_, snap) = store.latest_valid().unwrap().expect("snapshot saved");
    for threads in [1usize, 3] {
        let mut transport = faulty_transport().with_threads(threads);
        let resumed = prepare(701)
            .resume_with_transport(&snap, &mut transport)
            .unwrap();
        assert_eq!(control, resumed, "{threads}-thread resume diverged");
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn run_or_resume_restarts_and_finishes_after_a_crash() {
    let kind = MethodKind::AdaptiveFl;
    let control = prepare(702).run_with_transport(kind, &mut PerfectTransport);

    let dir = temp_dir("run-or-resume");
    // "Process 1" crashes after 3 rounds (checkpointing every round).
    {
        let mut store = SnapshotStore::open(&dir).unwrap();
        let halted = prepare(702)
            .run_with_hooks(
                kind,
                &mut PerfectTransport,
                adaptivefl_core::sim::RunHooks {
                    checkpoint_every: 1,
                    sink: &mut store,
                    halt_after: Some(3),
                },
            )
            .unwrap();
        assert!(halted.is_none());
    }
    // "Process 2" picks up from disk and completes.
    let mut store = SnapshotStore::open(&dir).unwrap();
    let mut sim = prepare(702);
    let resumed = run_or_resume(&mut sim, kind, &mut PerfectTransport, &mut store, 1).unwrap();
    assert_eq!(control, resumed);

    // A third call resumes from the last pre-final checkpoint and
    // reproduces the same completed result again.
    let mut sim = prepare(702);
    let again = run_or_resume(&mut sim, kind, &mut PerfectTransport, &mut store, 1).unwrap();
    assert_eq!(control, again);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_newest_snapshot_falls_back_and_still_matches() {
    let kind = MethodKind::HeteroFl;
    let control = prepare(703).run_with_transport(kind, &mut PerfectTransport);

    let dir = temp_dir("corrupt-fallback");
    let mut store = SnapshotStore::open(&dir).unwrap();
    let mut sim = prepare(703);
    // Full run, checkpointing every round (snapshots after rounds 1-4).
    let hooks = RunHooks {
        checkpoint_every: 1,
        sink: &mut store,
        halt_after: None,
    };
    sim.run_with_hooks(kind, &mut PerfectTransport, hooks)
        .unwrap();
    let paths = store.snapshots().unwrap();
    assert_eq!(paths.len(), 3, "retention keeps the last 3");

    // Bit-rot the newest snapshot on disk.
    let newest = paths.last().unwrap();
    let mut bytes = fs::read(newest).unwrap();
    let mid = bytes.len() / 3;
    bytes[mid] ^= 0x10;
    fs::write(newest, &bytes).unwrap();

    // The store skips it and resumes from the older valid snapshot —
    // re-running one extra round, landing on the identical result.
    let (path, snap) = store.latest_valid().unwrap().expect("fallback found");
    assert_ne!(&path, newest, "corrupt newest must be skipped");
    let resumed = prepare(703)
        .resume_with_transport(&snap, &mut PerfectTransport)
        .unwrap();
    assert_eq!(control, resumed);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_rejects_snapshot_from_other_run() {
    let dir = temp_dir("mismatch");
    let mut store = SnapshotStore::open(&dir).unwrap();
    let hooks = RunHooks {
        checkpoint_every: 2,
        sink: &mut store,
        halt_after: None,
    };
    prepare(704)
        .run_with_hooks(MethodKind::AdaptiveFl, &mut PerfectTransport, hooks)
        .unwrap();
    let (_, snap) = store.latest_valid().unwrap().expect("snapshot saved");

    // Same config, different method.
    assert!(prepare(704)
        .resume_with_transport(&snap, &mut PerfectTransport)
        .is_ok());
    let mut wrong = snap.clone();
    wrong.kind = MethodKind::ScaleFl;
    assert!(prepare(704)
        .resume_with_transport(&wrong, &mut PerfectTransport)
        .is_err());

    // Different configuration entirely.
    assert!(prepare(705)
        .resume_with_transport(&snap, &mut PerfectTransport)
        .is_err());

    // A store of one kind never resumes another, even one that shares
    // its method name.
    let capped = MethodKind::adaptive_fl_capped(1.0);
    assert!(run_or_resume(
        &mut prepare(704),
        capped,
        &mut PerfectTransport,
        &mut store,
        2
    )
    .is_err());
    fs::remove_dir_all(&dir).unwrap();
}
