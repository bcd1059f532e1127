//! The repository's benchmark: three paper workloads timed end to end,
//! and a traced run that splits their time by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig3-vgg16 --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Flags: `--workload <name>` (required), `--seed <n>` (input seed,
//! default 2024), `--seconds <n>` (measuring time, default 15),
//! `--trace <0|1>`, `--smoke` (shrunk cells, for the benchmark's own
//! tests), `--references <file>` (reference fingerprints, default
//! `perfbench/references.json`) and `--record` (print fresh references
//! instead of checking them). The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod probes;
mod replay;
mod spans;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use adaptivefl_bench::sweep::CellRecord;
use adaptivefl_core::trace::Phase;
use serde_json::Value;

use crate::replay::{ModelReplay, ReplaySpec};
use crate::spans::{since, Recorded, SpanLog};
use crate::workload::{digest, Rep, Workload, NAMES, SIM_SEED};

/// Set-up repetitions whose median is `setup_s`.
const MIN_SETUPS: usize = 9;
/// Repetitions of the replay and the probes (medians are reported).
const TRACE_REPS: usize = 5;
/// No repetition starts once this much time has gone, so a run ends
/// well inside three minutes.
const TIME_CAP: Duration = Duration::from_secs(120);

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// This process's scratch directory for snapshot stores.
fn work_dir() -> PathBuf {
    manifest_dir().join(format!("out/work-{}", std::process::id()))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    references: PathBuf,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 2024,
        seconds: 15,
        trace: false,
        smoke: false,
        references: manifest_dir().join("references.json"),
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|_| format!("bad number {v:?}"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = number(value()?)?,
            "--seconds" => a.seconds = number(value()?)?,
            "--trace" => a.trace = number(value()?)? != 0,
            "--references" => a.references = PathBuf::from(value()?),
            "--smoke" => a.smoke = true,
            "--record" => a.record = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.workload.is_empty() {
        return Err(format!(
            "--workload is required (one of {})",
            NAMES.join(", ")
        ));
    }
    Ok(a)
}

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile (`p` in `(0, 1]`).
fn percentile(mut v: Vec<f64>, p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn host_facts() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let simd = simd_path();
    let kernels = if adaptivefl_tensor::ops::naive_kernels_forced() {
        "naive (TENSOR_NAIVE set: a different program)"
    } else {
        "blocked"
    };
    format!("nproc={nproc} cpu=\"{cpu}\" simd={simd} kernels={kernels}")
}

fn simd_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "portable"
}

/// CPU seconds (user + system) this process has used so far.
fn cpu_secs() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let after = s.rsplit_once(')')?.1;
            let f: Vec<&str> = after.split_whitespace().collect();
            Some((f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?) / 100.0)
        })
        .unwrap_or(0.0)
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reference fingerprints and sample-pass counts, recorded from the
/// seed commit (`references.json`), plus the committed fig3 sweep
/// records.
struct References {
    root: Value,
    repo: PathBuf,
}

impl References {
    fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let root =
            serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
        Ok(References {
            root,
            repo: manifest_dir().join(".."),
        })
    }

    fn entry(&self, wl: &Workload, smoke: bool) -> Option<&Value> {
        self.root
            .get(if smoke { "smoke" } else { "full" })?
            .get(wl.name)
    }

    /// fig3-vgg16 (full size) reproduces the committed sweep records;
    /// everything else has its reference in `references.json`.
    fn digest(&self, wl: &Workload, smoke: bool, slug: &str) -> Result<u64, String> {
        if wl.name == NAMES[0] && !smoke {
            let path = self
                .repo
                .join(format!("results/sweep/{slug}/{SIM_SEED}.json"));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading committed record {}: {e}", path.display()))?;
            let rec: CellRecord = serde_json::from_str(&text)
                .map_err(|e| format!("parsing committed record {}: {e}", path.display()))?;
            return Ok(rec.fingerprint_fnv);
        }
        self.entry(wl, smoke)
            .and_then(|e| e.get("cells")?.get(slug)?.as_u64())
            .ok_or_else(|| format!("no reference fingerprint for {slug}"))
    }

    fn sample_passes(&self, wl: &Workload, smoke: bool) -> Result<u64, String> {
        self.entry(wl, smoke)
            .and_then(|e| e.get("sample_passes")?.as_u64())
            .ok_or_else(|| format!("no reference sample count for {}", wl.name))
    }
}

/// Operations attempted and failed; the reason of every failure is
/// printed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            println!("FAILED {what}: {e}");
        }
    }

    /// Checks every cell of a repetition against its reference.
    fn check_rep(&mut self, wl: &Workload, refs: &References, smoke: bool, rep: &Rep) {
        for c in &rep.cells {
            let outcome = match &c.result {
                Ok(r) => refs.digest(wl, smoke, &c.slug).and_then(|want| {
                    let got = digest(r);
                    (got == want)
                        .then_some(())
                        .ok_or(format!("fingerprint {got} differs from reference {want}"))
                }),
                Err(e) => Err(e.clone()),
            };
            self.check(&c.slug, outcome);
        }
    }
}

struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

fn main_result<'a>(rep: &'a Rep, wl: &Workload) -> Option<&'a adaptivefl_core::metrics::RunResult> {
    let slug = &wl.main_cell().slug;
    rep.cells
        .iter()
        .find(|c| &c.slug == slug)
        .and_then(|c| c.result.as_ref().ok())
}

/// Tracing off: repeat set-up and run until `seconds` have been
/// measured; report medians.
fn untraced(args: &Args, wl: &Workload, refs: &References, tally: &mut Tally) -> Vec<Metric> {
    let work = work_dir();
    let begin = Instant::now();
    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    let rep = loop {
        let t0 = Instant::now();
        let sims = wl.prepare();
        setups.push(secs(t0));
        let cpu0 = cpu_secs();
        let rep = wl.run(sims, &work, Instant::now(), false);
        println!(
            "rep {}: wall {:.3} s, cpu {:.2} s",
            walls.len() + 1,
            rep.wall_s(),
            cpu_secs() - cpu0
        );
        walls.push(rep.wall_s());
        tally.check_rep(wl, refs, args.smoke, &rep);
        let elapsed = begin.elapsed();
        let next = Duration::from_secs_f64(rep.wall_s());
        if elapsed >= Duration::from_secs(args.seconds) || elapsed + next > TIME_CAP {
            break rep;
        }
    };
    while setups.len() < MIN_SETUPS {
        let t0 = Instant::now();
        let sims = wl.prepare();
        setups.push(secs(t0));
        drop(sims);
    }
    let wall = median(walls.clone());
    let passes = refs.sample_passes(wl, args.smoke).unwrap_or_else(|e| {
        tally.check("sample count", Err(e));
        0
    });
    let main = main_result(&rep, wl);
    println!(
        "{} reps, wall median {wall:.3} s, set-up median {:.4} s",
        walls.len(),
        median(setups.clone())
    );
    vec![
        metric("wall_s", "s", wall),
        metric("setup_s", "s", median(setups)),
        metric("samples_per_s", "1/s", passes as f64 / wall),
        metric("peak_rss_mb", "MB", peak_rss_mb()),
        metric(
            "final_acc",
            "fraction",
            main.map_or(0.0, |r| f64::from(r.final_full_accuracy())),
        ),
        metric(
            "comm_waste_rate",
            "fraction",
            main.map_or(0.0, |r| r.comm_waste_rate()),
        ),
    ]
}

/// Per-phase totals over every traced run of a repetition.
#[derive(Default)]
struct PhaseTotals {
    ns: Vec<(Phase, Vec<f64>)>,
}

impl PhaseTotals {
    fn add(&mut self, r: &Recorded) {
        for p in &r.phases {
            let d = (p.end - p.start) as f64;
            match self.ns.iter_mut().find(|(ph, _)| *ph == p.phase) {
                Some((_, v)) => v.push(d),
                None => self.ns.push((p.phase, vec![d])),
            }
        }
    }

    fn of(&self, phase: Phase) -> Vec<f64> {
        self.ns
            .iter()
            .find(|(p, _)| *p == phase)
            .map_or_else(Vec::new, |(_, v)| v.clone())
    }

    fn sum_s(&self, phase: Phase) -> f64 {
        self.of(phase).iter().sum::<f64>() * 1e-9
    }
}

fn replay_specs(smoke: bool) -> Vec<ReplaySpec> {
    let models = [
        ("vgg16", "fig3-vgg16"),
        ("resnet18", "resnet18-curve"),
        ("mobilenetv2", "testbed-faulty"),
    ];
    models
        .into_iter()
        .map(|(label, name)| {
            // The real model always; a smoke run only shrinks its data.
            let full = Workload::new(name, false, 0).expect("known workload");
            let sized = Workload::new(name, smoke, 0).expect("known workload");
            let (c, s) = (full.main_cell(), sized.main_cell());
            ReplaySpec {
                label,
                model: c.cfg.model,
                spec: c.spec,
                local: c.cfg.local,
                samples: s.cfg.samples_per_client,
                test_samples: s.cfg.test_samples,
                eval_batch: c.cfg.eval_batch,
            }
        })
        .collect()
}

fn print_op_table(replays: &[ModelReplay]) {
    println!("\n== op replay: one local session (ms), eval forward (ms) ==");
    for r in replays {
        let ops: Vec<String> = r
            .op_ms
            .iter()
            .filter(|(_, v)| *v > 0.0)
            .map(|(k, v)| format!("{k} {v:.2}"))
            .collect();
        println!(
            "{:<12} session {:.2} | {} | eval_fwd {:.2} | coverage {:.3}",
            r.label,
            r.session_ms,
            ops.join(", "),
            r.eval_fwd_ms,
            r.coverage
        );
        if !(0.9..=1.1).contains(&r.coverage) {
            println!(
                "WARNING: {} replay covers {:.0} % of a timed session, outside [90 %, 110 %]; \
                 the op split does not fully explain client_train",
                r.label,
                100.0 * r.coverage
            );
        }
    }
}

/// Tracing on: a traced repetition between two untraced ones (for the
/// overhead and traced ≡ untraced), then the probes and the op replay,
/// all as spans under the workload.
fn traced(args: &Args, wl: &Workload, refs: &References, tally: &mut Tally) -> Vec<Metric> {
    let work = work_dir();
    let untraced_rep = wl.run(wl.prepare(), &work, Instant::now(), false);
    tally.check_rep(wl, refs, args.smoke, &untraced_rep);

    let epoch = Instant::now();
    let mut log = SpanLog::default();
    let root = log.push(format!("workload:{}", wl.name), 0, 0, None);
    let t0 = since(epoch);
    let sims = wl.prepare();
    log.push("setup", t0, since(epoch), Some(root));
    let rep = wl.run(sims, &work, epoch, true);
    tally.check_rep(wl, refs, args.smoke, &rep);
    // A second untraced repetition after the traced one, so the
    // overhead compares against both sides of it.
    let untraced_after = wl.run(wl.prepare(), &work, Instant::now(), false);
    tally.check_rep(wl, refs, args.smoke, &untraced_after);

    let mut phases = PhaseTotals::default();
    let mut trained = Vec::new();
    let (mut passes, mut collected, mut delivered, mut failed_sessions) = (0, 0, 0, 0);
    let (mut bytes_up, mut bytes_down) = (0u64, 0u64);
    let mut exchange_ns = 0.0;
    let mut cell_ns = 0.0;
    for (c, u) in rep.cells.iter().zip(&untraced_rep.cells) {
        let same = match (&c.result, &u.result) {
            (Ok(a), Ok(b)) => (a == b)
                .then_some(())
                .ok_or("traced run differs from untraced run".into()),
            _ => Err("a run failed".to_string()),
        };
        tally.check(&format!("{} traced = untraced", c.slug), same);
        if let Ok(r) = &c.result {
            let comm = r.total_comm();
            bytes_up += comm.bytes_up;
            bytes_down += comm.bytes_down;
        }
        cell_ns += (c.end - c.start) as f64;
        let cell = log.push(format!("cell:{}", c.slug), c.start, c.end, Some(root));
        for p in &c.parts {
            let run = log.push(format!("{}:{}", p.name, c.slug), p.start, p.end, Some(cell));
            let Some(r) = &p.recorded else { continue };
            log.add_phases(run, &r.phases);
            let mut own = PhaseTotals::default();
            own.add(r);
            exchange_ns += [Phase::Dispatch, Phase::Collect, Phase::Aggregate]
                .iter()
                .fold(own.sum_s(Phase::Round), |acc, ph| acc - own.sum_s(*ph));
            phases.add(r);
            trained.extend(r.trained_ns.iter().map(|&ns| ns as f64 * 1e-6));
            passes += r.sample_passes;
            collected += r.collected;
            delivered += r.delivered;
            failed_sessions += r.training_failed;
        }
    }
    let want = refs.sample_passes(wl, args.smoke);
    tally.check(
        "sample passes",
        want.and_then(|w| {
            (w == passes)
                .then_some(())
                .ok_or(format!("{passes} sample passes, reference {w}"))
        }),
    );

    let t0 = since(epoch);
    let probe = probes::run(
        &wl.cells,
        wl.main_cell(),
        &work.join("probe-store"),
        TRACE_REPS,
    );
    log.push("probes", t0, since(epoch), Some(root));
    for m in &probe.mismatches {
        tally.check("probe round trip", Err(m.clone()));
    }

    let mut replays = Vec::new();
    for spec in replay_specs(args.smoke) {
        let t0 = since(epoch);
        replays.push(replay::replay(
            &spec,
            args.seed,
            if args.smoke { 1 } else { TRACE_REPS },
        ));
        log.push(
            format!("replay:{}", spec.label),
            t0,
            since(epoch),
            Some(root),
        );
    }
    log.spans[root].end = since(epoch);

    let out = manifest_dir().join("out");
    let path = out.join(format!("spans-{}-s{}.jsonl", wl.name, args.seed));
    let written = std::fs::create_dir_all(&out).and_then(|()| {
        std::fs::write(
            &path,
            format!("{{\"host\":{:?}}}\n{}", host_facts(), log.to_jsonl()),
        )
    });
    tally.check("writing spans", written.map_err(|e| e.to_string()));

    println!("\n== self time by layer (s) ==");
    let self_times = log.self_by_name();
    for (name, s) in &self_times {
        println!("{name:<14} {s:>9.3}");
    }
    print_op_table(&replays);

    let wall_u = 0.5 * (untraced_rep.wall_s() + untraced_after.wall_s());
    let wall_t = rep.wall_s();
    let ms = |phase| phases.sum_s(phase) * 1e3;
    let p50_ms = |phase| median(phases.of(phase)) * 1e-6;
    let threads = wl.link.threads() as f64;
    let mut m = vec![
        metric("data.synth_ms", "ms", probe.data_synth_ms),
        metric("pool.split_ms", "ms", probe.pool_split_ms),
        metric("trainer.busy_s", "s", phases.sum_s(Phase::ClientTrain)),
        metric(
            "trainer.sessions",
            "count",
            phases.of(Phase::ClientTrain).len() as f64,
        ),
        metric("trainer.failed_sessions", "count", failed_sessions as f64),
        metric("trainer.sample_passes", "count", passes as f64),
        metric(
            "trainer.session_ms_p50",
            "ms",
            percentile(trained.clone(), 0.5),
        ),
        metric("trainer.session_ms_p90", "ms", percentile(trained, 0.9)),
        metric("eval.busy_s", "s", phases.sum_s(Phase::Eval)),
        metric("eval.calls", "count", phases.of(Phase::Eval).len() as f64),
        metric("eval.ms_p50", "ms", p50_ms(Phase::Eval)),
        metric("aggregate.busy_s", "s", phases.sum_s(Phase::Aggregate)),
        metric("aggregate.ms_p50", "ms", p50_ms(Phase::Aggregate)),
        metric("dispatch.busy_ms", "ms", ms(Phase::Dispatch)),
        metric("collect.busy_ms", "ms", ms(Phase::Collect)),
        metric(
            "round.self_s",
            "s",
            self_times.get("round").copied().unwrap_or(0.0),
        ),
        metric("prune.extract_ms", "ms", probe.prune_extract_ms),
        metric("models.build_ms", "ms", probe.models_build_ms),
        metric("models.cost_us", "us", probe.models_cost_us),
    ];
    for r in &replays {
        for (k, v) in &r.op_ms {
            m.push(metric(format!("op.{}.{k}_ms", r.label), "ms", *v));
        }
        m.push(metric(
            format!("op.{}.eval_fwd_ms", r.label),
            "ms",
            r.eval_fwd_ms,
        ));
        m.push(metric(
            format!("op.{}.macs", r.label),
            "count",
            r.macs as f64,
        ));
        m.push(metric(
            format!("op.{}.replay_coverage", r.label),
            "ratio",
            r.coverage,
        ));
    }
    m.extend([
        metric(
            "executor.idle_share",
            "fraction",
            1.0 - phases.sum_s(Phase::ClientTrain) / (threads * exchange_ns),
        ),
        metric("wire.encode_ms", "ms", probe.wire_encode_ms),
        metric("wire.decode_ms", "ms", probe.wire_decode_ms),
        metric("wire.bytes_up", "bytes", bytes_up as f64),
        metric("wire.bytes_down", "bytes", bytes_down as f64),
        metric(
            "comm.delivered_ratio",
            "ratio",
            delivered as f64 / collected.max(1) as f64,
        ),
        metric("store.save_ms", "ms", probe.store_save_ms),
        metric("store.load_ms", "ms", probe.store_load_ms),
        metric("store.snapshot_bytes", "bytes", probe.snapshot_bytes as f64),
        metric(
            "scheduler.idle_share",
            "fraction",
            1.0 - cell_ns * 1e-9 / (wl.jobs as f64 * wall_t),
        ),
        metric("trace.overhead_pct", "%", 100.0 * (wall_t / wall_u - 1.0)),
    ]);
    m
}

/// `--record`: runs the workload once, traced and uninterrupted, and
/// prints its reference entry for `references.json`.
fn record(wl: &mut Workload) {
    wl.halt_after = None;
    let rep = wl.run(wl.prepare(), &work_dir(), Instant::now(), true);
    let mut cells = Vec::new();
    let mut passes = 0;
    for c in &rep.cells {
        match &c.result {
            Ok(r) => {
                let comm = r.total_comm();
                println!(
                    "{}: final {:.4} waste {:.4} comm {comm:?}",
                    c.slug,
                    r.final_full_accuracy(),
                    r.comm_waste_rate()
                );
                cells.push(format!("\"{}\": {}", c.slug, digest(r)));
            }
            Err(e) => println!("{}: FAILED {e}", c.slug),
        }
        passes += c
            .parts
            .iter()
            .filter_map(|p| p.recorded.as_ref())
            .map(|r| r.sample_passes)
            .sum::<u64>();
    }
    println!(
        "\"{}\": {{\"cells\": {{{}}}, \"sample_passes\": {passes}}}",
        wl.name,
        cells.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(mut wl) = Workload::new(&args.workload, args.smoke, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {})",
            args.workload,
            NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    println!(
        "perfbench {} seed {} (simulation seed {}){}: {}",
        wl.name,
        args.seed,
        SIM_SEED,
        if args.smoke { " smoke" } else { "" },
        host_facts()
    );
    if args.record {
        record(&mut wl);
        let _ = std::fs::remove_dir_all(work_dir());
        return ExitCode::SUCCESS;
    }
    let refs = match References::load(&args.references) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let metrics = if args.trace {
        traced(&args, &wl, &refs, &mut tally)
    } else {
        untraced(&args, &wl, &refs, &mut tally)
    };
    let _ = std::fs::remove_dir_all(work_dir());
    println!("{}", result_line(&tally, &metrics));
    ExitCode::SUCCESS
}
