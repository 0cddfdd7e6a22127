//! Adapters exposing every `rpo-algorithms` solver as a [`SolverBackend`].
//!
//! | backend | wraps | applicability | certifies when |
//! |---|---|---|---|
//! | `Algo-1` | [`SolveCtx::reliability_dp`](rpo_algorithms::SolveCtx::reliability_dp) without a bound | homogeneous | exact for no period bound; certified when its optimum meets the latency bound |
//! | `Algo-2` | [`SolveCtx::reliability_dp`](rpo_algorithms::SolveCtx::reliability_dp) under the period bound | homogeneous, finite period bound | exact; certified when its optimum meets the latency bound |
//! | `Period-Opt` | [`SolveCtx::minimize_period`](rpo_algorithms::SolveCtx::minimize_period) | homogeneous | never |
//! | `Heur-L` | Heur-L partitions + Algo-Alloc / Section 7.2 allocation | always | never |
//! | `Heur-P` | Heur-P partitions + Algo-Alloc / Section 7.2 allocation | always | never |
//! | `Het-Dp` | [`SolveCtx::algo_het`](rpo_algorithms::SolveCtx::algo_het) (exact class-level DP) | heterogeneous, few classes | exact for no latency bound; certified when its optimum is feasible |
//! | `Het-Dp-Lat` | [`SolveCtx::algo_het_lat`](rpo_algorithms::SolveCtx::algo_het_lat) (latency-aware label DP + Lagrangian fallback) | heterogeneous, few classes, finite latency bound | exact; certified when the label DP completes |
//! | `Het-Sweep` | Section 7.2 allocation swept over tightened period targets | heterogeneous | never |
//! | `ILP` | [`SolveCtx::optimal_by_ilp`](rpo_algorithms::SolveCtx::optimal_by_ilp) | homogeneous, small instances | never (raced) |
//! | `Exhaustive` | [`SolveCtx::optimal_homogeneous`](rpo_algorithms::SolveCtx::optimal_homogeneous) | homogeneous, bounded size | never (raced) |
//!
//! "Exact" is [`SolverBackend::is_exact_for`]: the backend the serving
//! entry point ([`PortfolioEngine::solve_until`](crate::PortfolioEngine::solve_until))
//! runs alone first. "Certified" is [`SolveContext::certified`] plus the
//! engine's bound check on the most reliable re-scored candidate; a
//! certified answer skips the race, any other escalates to it.
//!
//! Every adapter runs against the one algorithms context the engine lends
//! per backend run ([`SolveContext::algo`]): all of them read their interval
//! metrics from the one [`IntervalOracle`](rpo_model::IntervalOracle) the
//! engine builds per instance, so racing ten backends costs a single metrics
//! precomputation, and the DP-based adapters run on the engine's pooled
//! [`DpScratch`](rpo_algorithms::DpScratch) arenas. The sweep adapters also
//! consult the live streaming front to abandon already-dominated profiles
//! mid-solve.

use crate::backend::{
    Applicability, Budget, CandidateMapping, ProblemInstance, SolveContext, SolverBackend,
};
use rpo_algorithms::alloc_het::AllocationConstraints;
use rpo_algorithms::exact;
use rpo_algorithms::{
    het_dp_applicable, het_dp_applicable_platform, heur_l_partition, heur_p_partition,
};
use rpo_model::{IntervalPartition, TaskChain};

const SKIP_HETEROGENEOUS: &str = "requires a homogeneous platform";
const SKIP_HOMOGENEOUS: &str = "requires a heterogeneous platform";
const SKIP_TOO_LARGE: &str = "instance exceeds the exact-solver size cap";
const SKIP_NO_PERIOD_BOUND: &str = "needs a finite period bound";
const SKIP_NO_LATENCY_BOUND: &str = "needs a finite latency bound";
const SKIP_TOO_MANY_CLASSES: &str = "class count exceeds the heterogeneous DP cap";

/// The full default portfolio: all ten backends.
pub fn default_backends() -> Vec<Box<dyn SolverBackend>> {
    vec![
        Box::new(Algo1Backend),
        Box::new(Algo2Backend),
        Box::new(PeriodOptBackend),
        Box::new(HeuristicBackend::heur_l()),
        Box::new(HeuristicBackend::heur_p()),
        Box::new(HetDpBackend),
        Box::new(HetDpLatBackend),
        Box::new(HetSweepBackend),
        Box::new(IlpBackend),
        Box::new(ExhaustiveBackend),
    ]
}

/// Algorithm 1: unconstrained reliability optimization (homogeneous DP).
pub struct Algo1Backend;

impl SolverBackend for Algo1Backend {
    fn name(&self) -> &'static str {
        "Algo-1"
    }

    fn applicability(&self, instance: &ProblemInstance, _budget: &Budget) -> Applicability {
        if instance.platform.is_homogeneous() {
            Applicability::Applicable
        } else {
            Applicability::Skip(SKIP_HETEROGENEOUS)
        }
    }

    /// Algorithm 1 is optimal on a homogeneous platform without a period
    /// bound (the paper's Theorem); a latency bound is dropped, and checked
    /// by the engine.
    fn is_exact_for(&self, instance: &ProblemInstance) -> bool {
        !instance.period_bound.is_finite()
    }

    fn solve(
        &self,
        _instance: &ProblemInstance,
        _budget: &Budget,
        ctx: &mut SolveContext<'_>,
    ) -> Vec<CandidateMapping> {
        ctx.certified = true;
        ctx.algo
            .reliability_dp(None)
            .map(|solution| vec![ctx.candidate(self.name(), solution.mapping)])
            .unwrap_or_default()
    }
}

/// Algorithm 2: reliability optimization under the period bound.
pub struct Algo2Backend;

impl SolverBackend for Algo2Backend {
    fn name(&self) -> &'static str {
        "Algo-2"
    }

    fn applicability(&self, instance: &ProblemInstance, _budget: &Budget) -> Applicability {
        if !instance.platform.is_homogeneous() {
            Applicability::Skip(SKIP_HETEROGENEOUS)
        } else if !instance.period_bound.is_finite() {
            Applicability::Skip(SKIP_NO_PERIOD_BOUND)
        } else {
            Applicability::Applicable
        }
    }

    /// Algorithm 2 is optimal on a homogeneous platform under a period
    /// bound (the paper's Theorem); a latency bound is dropped, and checked
    /// by the engine.
    fn is_exact_for(&self, _instance: &ProblemInstance) -> bool {
        true
    }

    fn solve(
        &self,
        instance: &ProblemInstance,
        _budget: &Budget,
        ctx: &mut SolveContext<'_>,
    ) -> Vec<CandidateMapping> {
        ctx.certified = true;
        ctx.algo
            .reliability_dp(Some(instance.period_bound))
            .map(|solution| vec![ctx.candidate(self.name(), solution.mapping)])
            .unwrap_or_default()
    }
}

/// The Section 5.2 converse problem: the minimal-period mapping (with an
/// essentially unconstrained reliability bound), a natural Pareto extreme.
pub struct PeriodOptBackend;

impl SolverBackend for PeriodOptBackend {
    fn name(&self) -> &'static str {
        "Period-Opt"
    }

    fn applicability(&self, instance: &ProblemInstance, _budget: &Budget) -> Applicability {
        if instance.platform.is_homogeneous() {
            Applicability::Applicable
        } else {
            Applicability::Skip(SKIP_HETEROGENEOUS)
        }
    }

    fn solve(
        &self,
        _instance: &ProblemInstance,
        _budget: &Budget,
        ctx: &mut SolveContext<'_>,
    ) -> Vec<CandidateMapping> {
        ctx.algo
            .minimize_period(f64::MIN_POSITIVE)
            .map(|solution| vec![ctx.candidate(self.name(), solution.mapping)])
            .unwrap_or_default()
    }
}

/// The Section 7 two-step heuristics, returning one candidate per interval
/// count instead of only the best-reliability one (richer Pareto fronts).
pub struct HeuristicBackend {
    name: &'static str,
    partition: fn(&TaskChain, usize) -> IntervalPartition,
}

impl HeuristicBackend {
    /// Heur-L (Algorithm 3): cut at the smallest communication costs.
    pub fn heur_l() -> Self {
        HeuristicBackend {
            name: "Heur-L",
            partition: heur_l_partition,
        }
    }

    /// Heur-P (Algorithm 4): balance the interval works.
    pub fn heur_p() -> Self {
        HeuristicBackend {
            name: "Heur-P",
            partition: heur_p_partition,
        }
    }
}

impl SolverBackend for HeuristicBackend {
    fn name(&self) -> &'static str {
        self.name
    }

    fn applicability(&self, _instance: &ProblemInstance, _budget: &Budget) -> Applicability {
        Applicability::Applicable
    }

    fn solve(
        &self,
        instance: &ProblemInstance,
        _budget: &Budget,
        ctx: &mut SolveContext<'_>,
    ) -> Vec<CandidateMapping> {
        let chain = &instance.chain;
        let platform = &instance.platform;
        let homogeneous = ctx.algo.oracle().is_homogeneous();
        let constraints = AllocationConstraints::none();
        let period_bound = instance.finite_period_bound();

        let mut candidates = Vec::new();
        for num_intervals in 1..=chain.len().min(platform.num_processors()) {
            let partition = (self.partition)(chain, num_intervals);
            let mapping = if homogeneous {
                ctx.algo.algo_alloc(&partition)
            } else {
                ctx.algo
                    .algo_alloc_heterogeneous(&partition, period_bound, &constraints)
            };
            if let Ok(mapping) = mapping {
                candidates.push(ctx.candidate(self.name, mapping));
            }
        }
        candidates
    }
}

/// The exact class-level heterogeneous DP (`algo_het`): optimal reliability
/// under the instance's period bound whenever the platform has few distinct
/// processor classes. The first *exact* heterogeneous optimizer of the
/// portfolio — on class-structured platforms its candidate certifiably
/// dominates every greedy candidate's reliability.
pub struct HetDpBackend;

impl SolverBackend for HetDpBackend {
    fn name(&self) -> &'static str {
        "Het-Dp"
    }

    fn applicability(&self, instance: &ProblemInstance, _budget: &Budget) -> Applicability {
        if instance.platform.is_homogeneous() {
            Applicability::Skip(SKIP_HOMOGENEOUS)
        } else if !het_dp_applicable_platform(&instance.platform) {
            Applicability::Skip(SKIP_TOO_MANY_CLASSES)
        } else {
            Applicability::Applicable
        }
    }

    /// The class DP is exact within the class caps when no latency bound
    /// applies; a latency bound is Het-Dp-Lat's.
    fn is_exact_for(&self, instance: &ProblemInstance) -> bool {
        !instance.latency_bound.is_finite()
    }

    fn solve(
        &self,
        instance: &ProblemInstance,
        _budget: &Budget,
        ctx: &mut SolveContext<'_>,
    ) -> Vec<CandidateMapping> {
        ctx.certified = het_dp_applicable(ctx.algo.oracle());
        debug_assert!(ctx.certified);
        let period_bound = instance
            .period_bound
            .is_finite()
            .then_some(instance.period_bound);
        ctx.algo
            .algo_het(period_bound)
            .map(|solution| vec![ctx.candidate(self.name(), solution.mapping)])
            .unwrap_or_default()
    }
}

/// The latency-aware exact heterogeneous solver (`algo_het_lat`): optimal
/// reliability under the instance's period **and latency** bounds whenever
/// the platform has few distinct processor classes — the paper's full
/// tri-criteria problem, the one case the period-only `Het-Dp` cannot
/// certify. Runs the `(boundary, budgets, latency-so-far)` label DP with a
/// Lagrangian penalty sweep as overflow fallback; its candidate is probed
/// against the live streaming front and dropped when already strictly
/// dominated (sound: dominance only tightens as the front grows).
pub struct HetDpLatBackend;

impl SolverBackend for HetDpLatBackend {
    fn name(&self) -> &'static str {
        "Het-Dp-Lat"
    }

    fn applicability(&self, instance: &ProblemInstance, _budget: &Budget) -> Applicability {
        if instance.platform.is_homogeneous() {
            Applicability::Skip(SKIP_HOMOGENEOUS)
        } else if !instance.latency_bound.is_finite() {
            Applicability::Skip(SKIP_NO_LATENCY_BOUND)
        } else if !het_dp_applicable_platform(&instance.platform) {
            Applicability::Skip(SKIP_TOO_MANY_CLASSES)
        } else {
            Applicability::Applicable
        }
    }

    /// The label DP is exact within the class caps under a latency bound —
    /// when it completes, which the backend reports per solve.
    fn is_exact_for(&self, _instance: &ProblemInstance) -> bool {
        true
    }

    fn solve(
        &self,
        instance: &ProblemInstance,
        _budget: &Budget,
        ctx: &mut SolveContext<'_>,
    ) -> Vec<CandidateMapping> {
        debug_assert!(het_dp_applicable(ctx.algo.oracle()));
        let period_bound = instance
            .period_bound
            .is_finite()
            .then_some(instance.period_bound);
        ctx.algo
            .algo_het_lat(period_bound, instance.latency_bound)
            .map(|solution| {
                ctx.certified = solution.label_dp_completed;
                // Surface which strategy produced the mapping (label DP,
                // Lagrangian fallback, or greedy) in the trace — the
                // once-silent fallback this backend is probed for.
                let method = solution.method;
                let _span = rpo_obs::recorder().span_fields("het_lat.result", || {
                    vec![("method".to_string(), format!("{method:?}").into())]
                });
                // Feed the *whole* merged latency–reliability front into the
                // streaming front, not just the max-reliability optimum: the
                // label DP discovers every non-dominated trade-off anyway, and
                // the faster-but-less-reliable points enrich the portfolio's
                // Pareto front for free. Points the live front already strictly
                // dominates are dropped (sound: dominance only tightens).
                let candidates: Vec<CandidateMapping> = solution
                    .front
                    .into_iter()
                    .map(|point| ctx.candidate(self.name(), point.mapping))
                    .filter(|candidate| {
                        let dominated = ctx.is_dominated(candidate);
                        if dominated {
                            rpo_obs::counter!("backend.dominated_aborts").inc();
                        }
                        !dominated
                    })
                    .collect();
                candidates
            })
            .unwrap_or_default()
    }
}

/// Heterogeneous-only strategy: sweeps the Section 7.2 allocator over a
/// geometric ladder of *tightened* period targets. Tighter targets force the
/// allocator towards faster processors, trading reliability for period and
/// populating the Pareto front between the heuristics' extremes.
///
/// Each profile's candidate is probed against the live streaming front
/// ([`SolveContext::is_dominated`]): profiles that are already strictly
/// dominated mid-solve are abandoned instead of carried to the end — sound
/// because dominance only tightens as the front grows.
pub struct HetSweepBackend;

/// Number of period targets swept by [`HetSweepBackend`].
const SWEEP_STEPS: usize = 4;

impl SolverBackend for HetSweepBackend {
    fn name(&self) -> &'static str {
        "Het-Sweep"
    }

    fn applicability(&self, instance: &ProblemInstance, _budget: &Budget) -> Applicability {
        if instance.platform.is_homogeneous() {
            Applicability::Skip(SKIP_HOMOGENEOUS)
        } else {
            Applicability::Applicable
        }
    }

    fn solve(
        &self,
        instance: &ProblemInstance,
        _budget: &Budget,
        ctx: &mut SolveContext<'_>,
    ) -> Vec<CandidateMapping> {
        let chain = &instance.chain;
        let platform = &instance.platform;
        let constraints = AllocationConstraints::none();

        // Sweep from the tightest conceivable period (largest task on the
        // fastest processor) up to the instance bound (or its finite
        // surrogate).
        let lower = chain.max_task_work() / platform.max_speed();
        let upper = instance.finite_period_bound();
        if lower <= 0.0 || upper < lower {
            return Vec::new();
        }
        // A degenerate sweep (bound exactly at the critical-path floor)
        // still tries that single target.
        let steps = if upper > lower { SWEEP_STEPS } else { 0 };
        let ratio = if steps > 0 {
            (upper / lower).powf(1.0 / steps as f64)
        } else {
            1.0
        };

        let mut candidates = Vec::new();
        for step in 0..=steps {
            let target = lower * ratio.powi(step as i32);
            for num_intervals in 1..=chain.len().min(platform.num_processors()) {
                for partition_fn in [heur_l_partition, heur_p_partition] {
                    let partition = partition_fn(chain, num_intervals);
                    if let Ok(mapping) =
                        ctx.algo
                            .algo_alloc_heterogeneous(&partition, target, &constraints)
                    {
                        let candidate = ctx.candidate(self.name(), mapping);
                        // Abandon profiles the live front already strictly
                        // dominates: they can never enter the final front.
                        if !ctx.is_dominated(&candidate) {
                            candidates.push(candidate);
                        } else {
                            rpo_obs::counter!("backend.dominated_aborts").inc();
                        }
                    }
                }
            }
        }
        candidates
    }
}

/// The Section 5.4 integer linear program, solved by `rpo-lp`.
pub struct IlpBackend;

impl SolverBackend for IlpBackend {
    fn name(&self) -> &'static str {
        "ILP"
    }

    fn applicability(&self, instance: &ProblemInstance, budget: &Budget) -> Applicability {
        if !instance.platform.is_homogeneous() {
            Applicability::Skip(SKIP_HETEROGENEOUS)
        } else if instance.chain.len() > budget.max_ilp_tasks {
            Applicability::Skip(SKIP_TOO_LARGE)
        } else {
            Applicability::Applicable
        }
    }

    fn solve(
        &self,
        instance: &ProblemInstance,
        _budget: &Budget,
        ctx: &mut SolveContext<'_>,
    ) -> Vec<CandidateMapping> {
        ctx.algo
            .optimal_by_ilp(instance.period_bound, instance.latency_bound)
            .map(|solution| vec![ctx.candidate(self.name(), solution.mapping)])
            .unwrap_or_default()
    }
}

/// The certified-optimal exhaustive partition enumeration + Algo-Alloc.
pub struct ExhaustiveBackend;

impl SolverBackend for ExhaustiveBackend {
    fn name(&self) -> &'static str {
        "Exhaustive"
    }

    fn applicability(&self, instance: &ProblemInstance, budget: &Budget) -> Applicability {
        let cap = budget
            .max_exhaustive_tasks
            .min(exact::exhaustive::MAX_EXHAUSTIVE_TASKS);
        if !instance.platform.is_homogeneous() {
            Applicability::Skip(SKIP_HETEROGENEOUS)
        } else if instance.chain.len() > cap {
            Applicability::Skip(SKIP_TOO_LARGE)
        } else {
            Applicability::Applicable
        }
    }

    fn solve(
        &self,
        instance: &ProblemInstance,
        _budget: &Budget,
        ctx: &mut SolveContext<'_>,
    ) -> Vec<CandidateMapping> {
        ctx.algo
            .optimal_homogeneous(instance.period_bound, instance.latency_bound)
            .map(|solution| vec![ctx.candidate(self.name(), solution.mapping)])
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpo_algorithms::{DpScratch, SolveCtx};
    use rpo_model::{IntervalOracle, Platform, PlatformBuilder};

    /// Runs a backend with a fresh scratch and no streaming front, the way
    /// unit tests exercise a single adapter.
    fn solve_alone(
        backend: &dyn SolverBackend,
        instance: &ProblemInstance,
        oracle: &IntervalOracle,
        budget: &Budget,
    ) -> Vec<CandidateMapping> {
        let mut scratch = DpScratch::new();
        let mut ctx = SolveContext::new(
            SolveCtx::new(&instance.chain, &instance.platform, oracle, &mut scratch),
            None,
        );
        backend.solve(instance, budget, &mut ctx)
    }

    fn hom_instance() -> ProblemInstance {
        let chain =
            TaskChain::from_pairs(&[(30.0, 2.0), (10.0, 8.0), (25.0, 1.0), (40.0, 3.0)]).unwrap();
        let platform = Platform::homogeneous(5, 1.0, 1e-3, 1.0, 1e-4, 2).unwrap();
        ProblemInstance::new(chain, platform, 70.0, 130.0).unwrap()
    }

    fn het_instance() -> ProblemInstance {
        let chain =
            TaskChain::from_pairs(&[(30.0, 2.0), (10.0, 8.0), (25.0, 1.0), (40.0, 3.0)]).unwrap();
        let platform = PlatformBuilder::new()
            .processor(4.0, 1e-3)
            .processor(2.0, 1e-3)
            .processor(1.0, 1e-3)
            .processor(3.0, 1e-3)
            .bandwidth(1.0)
            .link_failure_rate(1e-4)
            .max_replication(2)
            .build()
            .unwrap();
        ProblemInstance::new(chain, platform, 50.0, 150.0).unwrap()
    }

    #[test]
    fn applicability_separates_platform_classes() {
        let budget = Budget::default();
        let hom = hom_instance();
        let het = het_instance();
        for backend in default_backends() {
            match backend.name() {
                "Heur-L" | "Heur-P" => {
                    assert!(backend.applicability(&hom, &budget).is_applicable());
                    assert!(backend.applicability(&het, &budget).is_applicable());
                }
                "Het-Sweep" | "Het-Dp" | "Het-Dp-Lat" => {
                    assert!(!backend.applicability(&hom, &budget).is_applicable());
                    assert!(backend.applicability(&het, &budget).is_applicable());
                }
                _ => {
                    assert!(backend.applicability(&hom, &budget).is_applicable());
                    assert!(!backend.applicability(&het, &budget).is_applicable());
                }
            }
        }
    }

    #[test]
    fn size_caps_gate_the_exact_solvers() {
        let chain = TaskChain::from_pairs(&vec![(10.0, 1.0); 16]).unwrap();
        let platform = Platform::homogeneous(4, 1.0, 1e-3, 1.0, 1e-4, 2).unwrap();
        let instance = ProblemInstance::unbounded(chain, platform);
        let budget = Budget::default();
        assert!(!IlpBackend.applicability(&instance, &budget).is_applicable());
        assert!(!ExhaustiveBackend
            .applicability(&instance, &budget)
            .is_applicable());
        assert!(Algo1Backend
            .applicability(&instance, &budget)
            .is_applicable());
    }

    #[test]
    fn heuristic_backends_return_multiple_candidates() {
        let instance = hom_instance();
        let oracle = instance.build_oracle();
        let budget = Budget::default();
        let candidates = solve_alone(&HeuristicBackend::heur_p(), &instance, &oracle, &budget);
        assert!(
            candidates.len() > 1,
            "expected one candidate per interval count"
        );
        for candidate in &candidates {
            assert_eq!(candidate.backend, "Heur-P");
        }
    }

    #[test]
    fn exact_backends_agree_on_the_reliability_optimum() {
        let instance = hom_instance();
        let oracle = instance.build_oracle();
        let budget = Budget::default();
        let exhaustive = solve_alone(&ExhaustiveBackend, &instance, &oracle, &budget);
        let ilp = solve_alone(&IlpBackend, &instance, &oracle, &budget);
        assert_eq!(exhaustive.len(), 1);
        assert_eq!(ilp.len(), 1);
        assert!(
            (exhaustive[0].evaluation.reliability - ilp[0].evaluation.reliability).abs() < 1e-9
        );
    }

    #[test]
    fn het_sweep_produces_period_diverse_candidates() {
        let instance = het_instance();
        let oracle = instance.build_oracle();
        let candidates = solve_alone(&HetSweepBackend, &instance, &oracle, &Budget::default());
        assert!(!candidates.is_empty());
        let min = candidates
            .iter()
            .map(|c| c.evaluation.worst_case_period)
            .fold(f64::INFINITY, f64::min);
        let max = candidates
            .iter()
            .map(|c| c.evaluation.worst_case_period)
            .fold(0.0f64, f64::max);
        assert!(max > min, "sweep should explore different period regimes");
    }

    #[test]
    fn het_dp_dominates_every_period_feasible_sweep_candidate() {
        let instance = het_instance();
        let oracle = instance.build_oracle();
        let budget = Budget::default();
        let dp = solve_alone(&HetDpBackend, &instance, &oracle, &budget);
        assert_eq!(dp.len(), 1, "the class DP returns one exact candidate");
        assert!(dp[0].evaluation.worst_case_period <= instance.period_bound);
        for backend in [
            Box::new(HetSweepBackend) as Box<dyn SolverBackend>,
            Box::new(HeuristicBackend::heur_l()),
            Box::new(HeuristicBackend::heur_p()),
        ] {
            for candidate in solve_alone(backend.as_ref(), &instance, &oracle, &budget) {
                if candidate.evaluation.worst_case_period <= instance.period_bound {
                    assert!(
                        dp[0].evaluation.reliability >= candidate.evaluation.reliability,
                        "{} produced a period-feasible candidate more reliable than the DP",
                        backend.name()
                    );
                }
            }
        }
    }

    #[test]
    fn het_dp_lat_needs_a_finite_latency_bound() {
        let budget = Budget::default();
        let bounded = het_instance();
        assert!(HetDpLatBackend
            .applicability(&bounded, &budget)
            .is_applicable());
        let mut unbounded = bounded.clone();
        unbounded.latency_bound = f64::INFINITY;
        assert_eq!(
            HetDpLatBackend.applicability(&unbounded, &budget),
            Applicability::Skip(SKIP_NO_LATENCY_BOUND)
        );
    }

    #[test]
    fn het_dp_lat_dominates_every_fully_feasible_candidate() {
        let instance = het_instance();
        let oracle = instance.build_oracle();
        let budget = Budget::default();
        let dp = solve_alone(&HetDpLatBackend, &instance, &oracle, &budget);
        assert_eq!(dp.len(), 1, "the latency DP returns one exact candidate");
        assert!(dp[0].evaluation.worst_case_period <= instance.period_bound);
        assert!(dp[0].evaluation.worst_case_latency <= instance.latency_bound);
        for backend in [
            Box::new(HetSweepBackend) as Box<dyn SolverBackend>,
            Box::new(HeuristicBackend::heur_l()),
            Box::new(HeuristicBackend::heur_p()),
            Box::new(HetDpBackend),
        ] {
            for candidate in solve_alone(backend.as_ref(), &instance, &oracle, &budget) {
                if instance.admits(&candidate.evaluation) {
                    assert!(
                        dp[0].evaluation.reliability >= candidate.evaluation.reliability,
                        "{} produced a fully-feasible candidate more reliable than the \
                         latency DP",
                        backend.name()
                    );
                }
            }
        }
    }

    #[test]
    fn oracle_backed_candidates_match_direct_evaluation() {
        let instance = hom_instance();
        let oracle = instance.build_oracle();
        for candidate in solve_alone(
            &HeuristicBackend::heur_l(),
            &instance,
            &oracle,
            &Budget::default(),
        ) {
            let direct = rpo_model::MappingEvaluation::evaluate(
                &instance.chain,
                &instance.platform,
                &candidate.mapping,
            );
            assert_eq!(candidate.evaluation, direct);
        }
    }
}
