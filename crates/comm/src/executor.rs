//! Client jobs on the core executor.
//!
//! Each client trains against an RNG derived from `(seed, round,
//! client)` — not a shared stream — and results are sorted by client id
//! before they are returned, so both the RNG draws and the f32
//! summation order of the subsequent aggregation are identical at any
//! thread count. Jobs are handed out largest download first, so the
//! biggest submodels do not start last and leave a worker idle at the
//! end of the round.

use std::cmp::Reverse;

use adaptivefl_core::executor::map_ordered;
use adaptivefl_core::sim::Env;
use adaptivefl_core::transport::{ClientJob, LocalOutcome};

/// One executed job: the dispatch metadata plus what the client
/// produced.
pub struct JobResult {
    /// Client id.
    pub client: usize,
    /// Dispatch tag from the [`ClientJob`].
    pub tag: usize,
    /// Parameter elements dispatched down the link.
    pub down_params: u64,
    /// What the client's local computation produced.
    pub outcome: LocalOutcome,
}

/// Runs every job on up to `threads` workers and returns the results
/// sorted by client id.
///
/// # Panics
///
/// Panics if a client job panics.
pub fn run_jobs(
    env: &Env,
    round: usize,
    mut jobs: Vec<ClientJob<'_>>,
    threads: usize,
) -> Vec<JobResult> {
    jobs.sort_by_key(|j| Reverse(j.down_params));
    let mut results = map_ordered(jobs, threads, |_, job| {
        let ClientJob {
            client,
            tag,
            down_params,
            run,
        } = job;
        let mut rng = adaptivefl_tensor::rng::derived(
            env.cfg.seed,
            &format!("sim-client-r{round}-c{client}"),
        );
        JobResult {
            client,
            tag,
            down_params,
            outcome: run(&mut rng),
        }
    });
    results.sort_by_key(|r| r.client);
    results
}
#[cfg(test)]
mod tests {
    use super::*;
    use adaptivefl_core::sim::{SimConfig, Simulation};
    use adaptivefl_core::transport::JobFn;
    use adaptivefl_data::{Partition, SynthSpec};
    use rand::Rng;

    fn env() -> Simulation {
        let cfg = SimConfig::quick_test(5);
        let mut spec = SynthSpec::test_spec(4);
        spec.input = (3, 8, 8);
        Simulation::prepare(&cfg, &spec, Partition::Iid)
    }

    fn probe_jobs<'a>(clients: &[usize]) -> Vec<ClientJob<'a>> {
        clients
            .iter()
            .map(|&c| {
                let run: JobFn<'a> = Box::new(move |rng| {
                    // Report the first RNG draw through `up_params` so
                    // the test can fingerprint the per-client stream.
                    let draw = rng.gen_range(0..1_000_000u64);
                    LocalOutcome {
                        up_params: draw,
                        tag: c,
                        ..LocalOutcome::failure()
                    }
                });
                ClientJob {
                    client: c,
                    tag: c,
                    down_params: 10,
                    run,
                }
            })
            .collect()
    }

    #[test]
    fn results_sorted_and_streams_thread_invariant() {
        let sim = env();
        let clients = [7, 2, 9, 0, 4, 1, 8, 3];
        let base: Vec<(usize, u64)> = run_jobs(sim.env(), 2, probe_jobs(&clients), 1)
            .into_iter()
            .map(|r| (r.client, r.outcome.up_params))
            .collect();
        let sorted: Vec<usize> = base.iter().map(|&(c, _)| c).collect();
        let mut expect = clients.to_vec();
        expect.sort_unstable();
        assert_eq!(sorted, expect);
        for threads in [2, 3, 8, 32] {
            let got: Vec<(usize, u64)> = run_jobs(sim.env(), 2, probe_jobs(&clients), threads)
                .into_iter()
                .map(|r| (r.client, r.outcome.up_params))
                .collect();
            assert_eq!(got, base, "threads={threads}");
        }
    }

    #[test]
    fn per_round_streams_differ() {
        let sim = env();
        let a = run_jobs(sim.env(), 0, probe_jobs(&[1, 2, 3]), 1);
        let b = run_jobs(sim.env(), 1, probe_jobs(&[1, 2, 3]), 1);
        let differs = a
            .iter()
            .zip(&b)
            .any(|(x, y)| x.outcome.up_params != y.outcome.up_params);
        assert!(differs, "round index must salt the client streams");
    }

    #[test]
    fn empty_job_list_is_fine() {
        let sim = env();
        assert!(run_jobs(sim.env(), 0, Vec::new(), 4).is_empty());
    }
}
