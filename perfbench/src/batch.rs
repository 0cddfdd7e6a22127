//! The batch workload: bound sweeps through `BatchDriver::run_instances`,
//! the driver behind `solve batch`, from the instance list to its
//! `BatchReport`.
//!
//! A pool of homogeneous chains of mixed length (around the paper's 15) on
//! the paper platform is generated from the seed, and each chain is solved
//! under a grid of period/latency slacks including the unbounded corner, as
//! Figures 6–11 sweep them. The exact feasibility of every (chain, bounds)
//! pair comes from `rpo_algorithms::exact::ProfileSet`, computed once per
//! chain before anything is timed.
//!
//! A *sweep job* is what one `solve batch` invocation does: build an
//! engine, run a list of instances with 2 workers and `bucketed: true`,
//! and return the report. A job sweeps the latency slacks of one period
//! slack over two chains, interleaved, so its shape bucket mixes chain
//! lengths. A batch user submits the next sweep when the last report is
//! in, so jobs run closed loop: `light` is one submitter, `heavy` two at
//! once, and a job's latency runs from its submission to its report.
//! Capacity is the jobs per second the two submitters complete, and
//! throughput the instances per second of passes over the whole pool; the
//! processor time of those passes per instance is their cost.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::Rng;
use rpo_algorithms::exact::ProfileSet;
use rpo_algorithms::LANES;
use rpo_model::{Platform, TaskChain};
use rpo_portfolio::{BatchConfig, BatchDriver, BatchReport, PortfolioEngine, ProblemInstance};
use rpo_workload::{ChainSpec, HomogeneousPlatformSpec};

use crate::check::{self, Answer};
use crate::cpu;
use crate::env::vm_hwm_mb;
use crate::layers::{layer_timings, set_backend, set_overhead, split_metrics};
use crate::report::{Outcome, BACKENDS};
use crate::schedule;
use crate::stats;
use crate::trace::Tracer;
use crate::Args;

/// Period slacks (× the largest task's work over the speed).
const PERIOD_SLACKS: [f64; 4] = [1.0, 1.5, 3.0, f64::INFINITY];
/// Latency slacks (× the chain's total work over the speed). The sweep
/// stops at 1.1: within 5% of the latency floor the engine misses some
/// feasible instances (see [`TIGHT_LATENCY_SLACKS`]).
const LATENCY_SLACKS: [f64; 4] = [1.1, 1.2, 1.5, f64::INFINITY];
/// Latency slacks within 5% of the floor, probed (untimed) against the
/// exact reference for `rpo-portfolio.engine.missed_feasible_share`: the
/// engine answers "infeasible" for a few percent of these feasible
/// instances when the period is bounded too.
const TIGHT_LATENCY_SLACKS: [f64; 2] = [1.02, 1.05];
const GRID: usize = PERIOD_SLACKS.len() * LATENCY_SLACKS.len();
/// Chains in the pool, and their lengths: the paper's 15 and a little
/// longer, each length for a quarter of the pool.
const POOL: usize = 32;
const LENGTHS: std::ops::RangeInclusive<usize> = 15..=18;
/// Chains per sweep job.
const JOB_CHAINS: usize = 2;
/// Worker threads of every batch run.
const WORKERS: usize = 2;
/// `solve batch` processes spawned to measure set-up, spread over the rounds.
const SETUP_REPS: usize = 24;
/// Jobs timed with and without the metrics registry.
const REGISTRY_SAMPLE: usize = 64;
/// Light/heavy rounds of a run.
const ROUNDS: usize = 8;

/// Phase lengths as shares of `--seconds`. The throughput passes give the
/// end-to-end figures and get most of the run; the job rounds give the
/// per-layer latencies and capacity.
const WARMUP_SHARE: f64 = 0.05;
const LIGHT_SHARE: f64 = 0.12;
const HEAVY_SHARE: f64 = 0.12;
const SATURATION_SHARE: f64 = 0.6;

const POOL_STREAM: u64 = 1 << 21;
const SETUP_STREAM: u64 = 1 << 22;
const WARMUP: u64 = 1;
const LIGHT: u64 = 0x100;
const HEAVY: u64 = 0x200;

/// One pool chain with its exact reference.
struct PoolChain {
    chain: TaskChain,
    platform: Platform,
    /// Optimal reliability under each grid point (`None`: infeasible).
    optimum: [Option<f64>; GRID],
    /// Whether each (period slack, tight latency slack) pair is feasible.
    tight: Vec<(f64, f64, bool)>,
}

fn bounds(chain: &TaskChain, platform: &Platform, point: usize) -> (f64, f64) {
    let speed = platform.max_speed();
    let period = PERIOD_SLACKS[point / LATENCY_SLACKS.len()] * chain.max_task_work() / speed;
    let latency = LATENCY_SLACKS[point % LATENCY_SLACKS.len()] * chain.total_work() / speed;
    (period, latency)
}

fn pool(seed: u64) -> Vec<PoolChain> {
    (0..POOL as u64)
        .map(|index| {
            let mut rng = schedule::rng(seed, POOL_STREAM + index);
            // Every length equally often: the pool's mix of lengths, which
            // sets most of a sweep's cost, is the same for every seed.
            let length = LENGTHS.start() + index as usize % LENGTHS.clone().count();
            let chain = ChainSpec::paper_with_tasks(length).generate(&mut rng);
            let platform = HomogeneousPlatformSpec::paper().build();
            let profiles = ProfileSet::build(&chain, &platform).expect("the pool is homogeneous");
            let optimum = std::array::from_fn(|point| {
                let (period, latency) = bounds(&chain, &platform, point);
                profiles.best_reliability_under(period, latency)
            });
            let speed = platform.max_speed();
            let tight = PERIOD_SLACKS
                .iter()
                .flat_map(|p| TIGHT_LATENCY_SLACKS.iter().map(move |l| (p, l)))
                .map(|(p, l)| {
                    let period = p * chain.max_task_work() / speed;
                    let latency = l * chain.total_work() / speed;
                    (
                        period,
                        latency,
                        profiles.best_reliability_under(period, latency).is_some(),
                    )
                })
                .collect();
            PoolChain {
                chain,
                platform,
                optimum,
                tight,
            }
        })
        .collect()
}

/// A sweep job: every latency slack of period slack `period` over
/// `chains`, alternating chains.
fn job(chains: &[usize], period: usize) -> Vec<(usize, usize)> {
    let points = period * LATENCY_SLACKS.len()..(period + 1) * LATENCY_SLACKS.len();
    points
        .flat_map(|point| chains.iter().map(move |&chain| (chain, point)))
        .collect()
}

fn instances(pool: &[PoolChain], job: &[(usize, usize)]) -> Vec<ProblemInstance> {
    job.iter()
        .map(|&(chain, point)| {
            let entry = &pool[chain];
            let (period_bound, latency_bound) = bounds(&entry.chain, &entry.platform, point);
            ProblemInstance {
                chain: entry.chain.clone(),
                platform: entry.platform.clone(),
                period_bound,
                latency_bound,
            }
        })
        .collect()
}

fn expected_feasible(pool: &[PoolChain], job: &[(usize, usize)]) -> usize {
    job.iter()
        .filter(|&&(chain, point)| pool[chain].optimum[point].is_some())
        .count()
}

fn config(workers: usize) -> BatchConfig {
    BatchConfig {
        workers,
        bucketed: true,
        ..BatchConfig::default()
    }
}

/// What one `solve batch` invocation does: a fresh engine, the instances,
/// the report.
fn run_job(instances: Vec<ProblemInstance>) -> BatchReport {
    let engine = PortfolioEngine::default().with_threads(1);
    BatchDriver::new(config(WORKERS)).run_instances(&engine, instances)
}

/// Draws one job: distinct chains and a period slack.
fn draw(rng: &mut impl Rng) -> Vec<(usize, usize)> {
    let mut chains: Vec<usize> = Vec::with_capacity(JOB_CHAINS);
    while chains.len() < JOB_CHAINS {
        let chain = rng.gen_range(0..POOL);
        if !chains.contains(&chain) {
            chains.push(chain);
        }
    }
    job(&chains, rng.gen_range(0..PERIOD_SLACKS.len()))
}

/// The sweep jobs of one stretch of a run.
#[derive(Default)]
struct JobPhase {
    jobs: usize,
    instances: usize,
    /// Instances of jobs whose feasible count was wrong.
    failed: usize,
    /// Each job's time to report, in completion order, in ms.
    latencies_ms: Vec<f64>,
    /// Wall time of the stretch.
    elapsed: Duration,
}

/// `streams` submitters, each running sweep jobs back to back for
/// `length` (a closed loop: a batch user submits the next sweep when the
/// last report is in), every job drawn from the seed. With two streams the
/// jobs contend for the host's two cores.
fn job_streams(
    pool: &[PoolChain],
    seed: u64,
    phase: u64,
    streams: u64,
    length: Duration,
    problems: &Mutex<Vec<String>>,
) -> JobPhase {
    let started = Instant::now();
    let results: Vec<JobPhase> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..streams)
            .map(|stream| {
                scope.spawn(move || {
                    let mut rng = schedule::rng(seed, (phase << 8) | stream);
                    let mut result = JobPhase::default();
                    while started.elapsed() < length {
                        let job = draw(&mut rng);
                        let batch = instances(pool, &job);
                        let submitted = Instant::now();
                        let report = run_job(batch);
                        result.latencies_ms.push(ms(submitted.elapsed()));
                        result.jobs += 1;
                        result.instances += job.len();
                        let expected = expected_feasible(pool, &job);
                        if report.instances != job.len() || report.feasible_instances != expected {
                            result.failed += job.len();
                            problems.lock().expect("problem list poisoned").push(format!(
                                "a job reported {}/{} feasible, the exact reference says {expected}/{}",
                                report.feasible_instances,
                                report.instances,
                                job.len()
                            ));
                        }
                    }
                    result
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("job stream panicked"))
            .collect()
    });
    let mut merged = JobPhase {
        elapsed: started.elapsed(),
        ..JobPhase::default()
    };
    for result in results {
        merged.jobs += result.jobs;
        merged.instances += result.instances;
        merged.failed += result.failed;
        merged.latencies_ms.extend(result.latencies_ms);
    }
    merged
}

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Every pool chain under every grid point, as jobs over neighbouring
/// chains.
fn pass() -> Vec<Vec<(usize, usize)>> {
    (0..POOL)
        .step_by(JOB_CHAINS)
        .flat_map(|first| {
            let chains: Vec<usize> = (first..first + JOB_CHAINS).collect();
            (0..PERIOD_SLACKS.len()).map(move |period| job(&chains, period))
        })
        .collect()
}

/// Set-up: what a `solve batch` user waits for before the first answer, in
/// seconds from spawning the process to its exit after one instance (engine
/// construction, worker start-up and that instance). Timed in process the
/// same stretch is a fraction of a millisecond that swings with how fast
/// the host wakes an idle core.
fn set_up(solve: &std::path::Path, seed: u64) -> Result<f64, String> {
    let started = Instant::now();
    let status = std::process::Command::new(solve)
        .args([
            "batch",
            "1",
            "--seed",
            &seed.to_string(),
            "--bucketed",
            "--workers",
        ])
        .arg(WORKERS.to_string())
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot run {}: {e}", solve.display()))?;
    let elapsed = started.elapsed().as_secs_f64();
    if status.success() {
        Ok(elapsed)
    } else {
        Err(format!("solve batch exited with {status}"))
    }
}

/// Runs the batch workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let seconds = args.seconds;
    let length = |share: f64| Duration::from_secs_f64(seconds * share);
    let mut outcome = Outcome::default();
    let pool = pool(args.seed);
    let jobs = pass();
    let whole: Vec<(usize, usize)> = jobs.iter().flatten().copied().collect();
    let reference = expected_feasible(&pool, &whole);
    println!(
        "pool: {POOL} chains, {} instances, {reference} feasible",
        whole.len()
    );
    outcome.check(reference > 0, || {
        "the sweep has no feasible instance".into()
    });

    // Every `run_instances` call spawns fresh worker threads, and the
    // metrics registry keeps a slot per thread and metric that it never
    // frees; each call snapshots the registry, so in one long-lived process
    // each call costs more than the last, even with recording off. A
    // `solve batch` process pays this once; thousands of sweep jobs in one
    // process would measure mostly the registry's growth. So the sweep jobs
    // and the throughput passes run first, with recording off (no slots are
    // made), and the registry's cost per job is measured on its own at the
    // end.
    rpo_obs::set_enabled(false);

    // Light: one submitter; heavy: two at once. Each in rounds spread over
    // the run, and each figure is the median round's, as for serve. Batch
    // jobs are not paced by an arrival rate, so their capacity is the jobs
    // per second the two submitters complete.
    let problems = Mutex::new(Vec::new());
    let warm = job_streams(&pool, args.seed, WARMUP, 1, length(WARMUP_SHARE), &problems);
    let mut lights = Vec::new();
    let mut heavies = Vec::new();
    let mut setups = Vec::new();
    for round in 0..ROUNDS as u64 {
        let part = |share: f64| length(share / ROUNDS as f64);
        lights.push(job_streams(
            &pool,
            args.seed,
            LIGHT | round,
            1,
            part(LIGHT_SHARE),
            &problems,
        ));
        heavies.push(job_streams(
            &pool,
            args.seed,
            HEAVY | round,
            2,
            part(HEAVY_SHARE),
            &problems,
        ));
        // Set-up spawns, spread over the rounds so that one slow stretch
        // of the host does not hold them all; the median is reported.
        for rep in 0..SETUP_REPS / ROUNDS {
            let seed = schedule::derive(args.seed, SETUP_STREAM + (round << 8) + rep as u64);
            setups.push(set_up(&args.solve, seed)?);
        }
    }
    outcome.set("setup_s", stats::median(&setups));
    for (name, rounds) in [("light", &lights), ("heavy", &heavies)] {
        let latencies: Vec<&[f64]> = rounds.iter().map(|p| p.latencies_ms.as_slice()).collect();
        outcome.set_latency(name, &latencies);
    }
    let jobs_per_second: Vec<f64> = heavies
        .iter()
        .map(|p| p.jobs as f64 / p.elapsed.as_secs_f64())
        .collect();
    outcome.set("loadgen.capacity_rps", stats::median(&jobs_per_second));
    let problems = problems.into_inner().expect("problem list poisoned");
    let total = problems.len();
    outcome.problems.extend(problems.into_iter().take(5));
    outcome.check(total <= 5, || {
        format!("sweep jobs: {} more failed checks", total - 5)
    });

    // Throughput: back-to-back passes over the whole pool, each one
    // `solve batch` invocation, with recording off like the sweep jobs; the
    // median pass is reported. The process's processor time over the passes
    // (the workers', the submitting thread waits) per instance is the cost.
    let window = length(SATURATION_SHARE);
    let cpu_before = cpu::own();
    let started = Instant::now();
    let mut rates = Vec::new();
    let mut solved = 0;
    while started.elapsed() < window || rates.len() < 3 {
        let batch = instances(&pool, &whole);
        let pass_started = Instant::now();
        let report = run_job(batch);
        rates.push(report.instances as f64 / pass_started.elapsed().as_secs_f64());
        solved += report.instances;
        outcome.check(report.feasible_instances == reference, || {
            format!(
                "a pass reported {} feasible, the exact reference says {reference}",
                report.feasible_instances
            )
        });
    }
    let cpu = cpu::own() - cpu_before;
    outcome.set("loadgen.throughput_ips", stats::median(&rates));
    outcome.set(
        "cpu_us_per_request",
        cpu.as_secs_f64() * 1e6 / solved.max(1) as f64,
    );
    rpo_obs::set_enabled(true);

    outcome.set(
        "rss_peak_mb",
        vm_hwm_mb("/proc/self/status").unwrap_or(f64::NAN),
    );

    // The registry's cost per small job: the same jobs with recording on
    // and off.
    let sample: Vec<Vec<(usize, usize)>> = jobs.iter().take(REGISTRY_SAMPLE).cloned().collect();
    let job_ms = |sample: &[Vec<(usize, usize)>]| {
        let started = Instant::now();
        for job in sample {
            run_job(instances(&pool, job));
        }
        started.elapsed().as_secs_f64() * 1e3 / sample.len() as f64
    };
    let with_registry = job_ms(&sample);
    rpo_obs::set_enabled(false);
    let without_registry = job_ms(&sample);
    rpo_obs::set_enabled(true);
    outcome.set(
        "rpo-portfolio.batch.registry_ms_per_run",
        with_registry - without_registry,
    );

    let measured: Vec<&JobPhase> = std::iter::once(&warm)
        .chain(&lights)
        .chain(&heavies)
        .collect();
    let instances_run: usize = measured.iter().map(|p| p.instances).sum();
    let failed: usize = measured.iter().map(|p| p.failed).sum();
    outcome.attempted = (instances_run + solved) as u64;
    outcome.failed = failed as u64;
    outcome.set(
        "loadgen.error_rate",
        stats::share(failed as f64, instances_run as f64),
    );
    verify(&pool, &jobs, &mut outcome);
    probe_tight(&pool, &mut outcome);

    if args.trace {
        let all = instances(&pool, &whole);
        let refs: Vec<&ProblemInstance> = all.iter().collect();
        layer_timings(&refs, &mut outcome);
        // Untraced, traced, traced, untraced; the last traced pass is
        // reported.
        let mut untraced = replay(&all, false).0;
        let mut traced = replay(&all, true).0;
        let (wall, tracer, report) = replay(&all, true);
        traced += wall;
        untraced += replay(&all, false).0;
        report_layers(&report, &mut outcome);
        split_metrics(&tracer, wall.as_nanos() as f64, &mut outcome);
        set_overhead(untraced, traced, &mut outcome);
        let path = args
            .out_dir
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "trace: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    Ok(outcome)
}

/// Untimed probe of the sweep's excluded corner: every pool chain under
/// latency bounds within 5% of the floor, through the same driver. Reports
/// the share of feasible instances the engine calls infeasible; an answer
/// the exact reference calls infeasible fails the run.
fn probe_tight(pool: &[PoolChain], outcome: &mut Outcome) {
    let mut feasible = 0usize;
    let mut missed = 0usize;
    for entry in pool {
        let batch: Vec<ProblemInstance> = entry
            .tight
            .iter()
            .map(|&(period_bound, latency_bound, _)| ProblemInstance {
                chain: entry.chain.clone(),
                platform: entry.platform.clone(),
                period_bound,
                latency_bound,
            })
            .collect();
        let engine = PortfolioEngine::default().with_threads(1);
        BatchDriver::new(config(WORKERS)).run_instances(&engine, batch.clone());
        for (instance, &(_, _, exact)) in batch.iter().zip(&entry.tight) {
            let found = !engine.solve(instance).front.is_empty();
            feasible += usize::from(exact);
            missed += usize::from(exact && !found);
            outcome.check(exact || !found, || {
                "a tight-bound answer is feasible where the exact reference finds nothing".into()
            });
        }
    }
    outcome.set(
        "rpo-portfolio.engine.missed_feasible_share",
        stats::share(missed as f64, feasible as f64),
    );
    println!("tight probe: {missed} of {feasible} feasible instances answered infeasible");
}

/// Untimed answer check: every job of a pass is run, then each instance's
/// front is read back from the engine's cache. Feasibility must match the
/// exact reference, the best mapping must re-score to its reported figures
/// and keep its bounds, and no reliability may beat the exact optimum. The
/// nines of the best answers are the workload's reliability metric.
fn verify(pool: &[PoolChain], jobs: &[Vec<(usize, usize)>], outcome: &mut Outcome) {
    let mut nines = 0.0;
    let mut count = 0usize;
    let mut problems = Vec::new();
    for job in jobs {
        let batch = instances(pool, job);
        let engine = PortfolioEngine::default().with_threads(1);
        BatchDriver::new(config(WORKERS)).run_instances(&engine, batch.clone());
        for (instance, &(chain, point)) in batch.iter().zip(job) {
            count += 1;
            let answer = engine.solve(instance);
            if !answer.from_cache {
                problems.push(format!(
                    "chain {chain} point {point}: the batch's answer was not cached"
                ));
            }
            let optimum = pool[chain].optimum[point];
            match (answer.front.best_reliability(), optimum) {
                (None, None) => {}
                (Some(best), Some(optimum)) => {
                    let reported = Answer {
                        mapping: &best.mapping,
                        reliability: best.evaluation.reliability,
                        period: best.evaluation.worst_case_period,
                        latency: best.evaluation.worst_case_latency,
                    };
                    match check::rescore(instance, &reported) {
                        Ok(reliability) if reliability <= optimum * (1.0 + check::TOLERANCE) => {
                            nines += check::nines(reliability);
                        }
                        Ok(reliability) => problems.push(format!(
                            "chain {chain} point {point}: reliability {reliability} beats the exact optimum {optimum}"
                        )),
                        Err(error) => problems.push(format!("chain {chain} point {point}: {error}")),
                    }
                }
                (found, _) => problems.push(format!(
                    "chain {chain} point {point}: feasible {} but the exact reference says {}",
                    found.is_some(),
                    optimum.is_some()
                )),
            }
        }
    }
    outcome.set("reliability_nines_mean", nines / count.max(1) as f64);
    let total = problems.len();
    outcome.problems.extend(problems.into_iter().take(5));
    outcome.check(total <= 5, || {
        format!("verification: {} more failed checks", total - 5)
    });
}

/// One pass over the pool with one worker, so the traced self times
/// partition the wall time. The engine's time inside the driver and each
/// backend's time come from the report, as spans laid end to end inside
/// the `run_instances` span.
fn replay(all: &[ProblemInstance], traced: bool) -> (Duration, Tracer, BatchReport) {
    let mut tracer = Tracer::new(traced);
    let batch = all.to_vec();
    let started = Instant::now();
    let root = tracer.begin("perfbench", "pass", 0);
    let span = tracer.begin("rpo-portfolio.engine", "new", 0);
    let engine = PortfolioEngine::default().with_threads(1);
    tracer.end(span);
    let span = tracer.begin("rpo-portfolio.batch", "run_instances", 0);
    let report = BatchDriver::new(config(1)).run_instances(&engine, batch);
    let solve_ns = report
        .metrics
        .histogram("batch.solve")
        .map_or(0, |h| h.sum_nanos);
    let start = tracer.start_of(span);
    let solve = tracer.record(span, "rpo-portfolio.engine", "solve", start, solve_ns);
    let mut cursor = start;
    for stats in &report.backend_stats {
        let name = BACKENDS
            .iter()
            .find(|b| **b == stats.backend)
            .copied()
            .unwrap_or("other");
        tracer.record(
            solve,
            "rpo-portfolio.backend",
            name,
            cursor,
            stats.total_micros * 1000,
        );
        cursor += stats.total_micros * 1000;
    }
    tracer.end(span);
    tracer.end(root);
    (started.elapsed(), tracer, report)
}

/// Batch, cache, engine and backend metrics of the traced pass.
fn report_layers(report: &BatchReport, outcome: &mut Outcome) {
    let instances = report.instances as f64;
    let bucketed = report.bucketed_instances as f64;
    outcome.set(
        "rpo-portfolio.batch.bucketed_share",
        stats::share(bucketed, instances),
    );
    outcome.set(
        "rpo-portfolio.batch.lane_fill",
        stats::share(bucketed, (report.buckets_dispatched * LANES) as f64),
    );
    outcome.set(
        "rpo-portfolio.batch.padded_lane_share",
        stats::share(report.padded_lanes as f64, bucketed),
    );
    let hit_share =
        |c: &rpo_portfolio::CacheStats| stats::share(c.hits as f64, (c.hits + c.misses) as f64);
    outcome.set(
        "rpo-portfolio.cache.instance_hit_share",
        hit_share(&report.cache),
    );
    outcome.set(
        "rpo-portfolio.cache.oracle_hit_share",
        hit_share(&report.oracle_cache),
    );

    let solves = instances - report.cache_answered as f64;
    if let Some(histogram) = report.metrics.histogram("batch.solve") {
        outcome.set(
            "rpo-portfolio.engine.solve_p50_us",
            histogram.p50_nanos / 1e3,
        );
        outcome.set(
            "rpo-portfolio.engine.solve_p99_us",
            histogram.p99_nanos / 1e3,
        );
        let backend_us: f64 = report
            .backend_stats
            .iter()
            .map(|s| s.total_micros as f64)
            .sum();
        outcome.set(
            "rpo-portfolio.engine.overhead_us",
            stats::share(histogram.sum_nanos as f64 / 1e3 - backend_us, solves),
        );
    }
    let runs: f64 = report.backend_stats.iter().map(|s| s.runs as f64).sum();
    outcome.set(
        "rpo-portfolio.engine.backends_per_solve",
        stats::share(runs, solves),
    );
    // The report keeps per-backend totals, not per-solve winners: a
    // winner's time is estimated at its backend's mean run time.
    let total_us: f64 = report
        .backend_stats
        .iter()
        .map(|s| s.total_micros as f64)
        .sum();
    let winner_us: f64 = report
        .backend_stats
        .iter()
        .map(|s| s.wins as f64 * stats::share(s.total_micros as f64, s.runs as f64))
        .sum();
    outcome.set(
        "rpo-portfolio.engine.loser_time_share",
        stats::share(total_us - winner_us, total_us),
    );
    for backend in BACKENDS {
        let stats = report.backend_stats.iter().find(|s| s.backend == backend);
        let (micros, runs, wins) = stats.map_or((0.0, 0.0, 0.0), |s| {
            (s.total_micros as f64, s.runs as f64, s.wins as f64)
        });
        set_backend(outcome, backend, micros, runs, wins, solves);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_interleave_their_chains_and_passes_cover_the_grid() {
        let pool = pool(3);
        let job = job(&[4, 9], 1);
        assert_eq!(job.len(), LATENCY_SLACKS.len() * 2);
        assert_eq!(&job[..4], &[(4, 4), (9, 4), (4, 5), (9, 5)]);
        let whole: Vec<(usize, usize)> = pass().into_iter().flatten().collect();
        assert_eq!(whole.len(), POOL * GRID);
        // The grid includes the unbounded corner.
        let (period, latency) = bounds(&pool[4].chain, &pool[4].platform, GRID - 1);
        assert!(period.is_infinite() && latency.is_infinite());
        assert!(
            pool[4].optimum[GRID - 1].is_some(),
            "the unbounded corner is always feasible"
        );
    }

    #[test]
    fn the_pool_is_deterministic_in_the_seed() {
        let a = pool(5);
        let b = pool(5);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.chain == y.chain && x.optimum == y.optimum));
        assert!(a.iter().all(|c| LENGTHS.contains(&c.chain.len())));
        let c = pool(6);
        assert!(a.iter().zip(&c).any(|(x, y)| x.chain != y.chain));
    }
}
