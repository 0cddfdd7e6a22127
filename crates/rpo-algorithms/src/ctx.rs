//! The solve context every algorithm of this crate runs against.

use rpo_model::{IntervalOracle, Platform, TaskChain};

use crate::algo1::DpScratch;

/// One solve's inputs and working memory: the instance `(chain, platform)`,
/// its prebuilt [`IntervalOracle`], and the [`DpScratch`] arenas the dynamic
/// programs run in.
///
/// Every algorithm of the crate has exactly one entry point, a method of
/// this type (`ctx.reliability_dp(bound)`, `ctx.algo_het(bound)`,
/// `ctx.run_heuristic(&config)`, …). The plain `(chain, platform, bounds…)`
/// functions are one-line shims that solve against a fresh context built by
/// [`SolveCtx::fresh`]. Callers that solve repeatedly keep what the shims
/// rebuild per call: the portfolio engine hands every backend one cached
/// oracle and a pooled scratch, the period minimizer reuses one scratch
/// across its probes, and the repair ladder keeps the scratch's DP grid warm
/// across platform deltas.
pub struct SolveCtx<'a> {
    chain: &'a TaskChain,
    platform: &'a Platform,
    oracle: &'a IntervalOracle,
    pub(crate) scratch: &'a mut DpScratch,
}

impl<'a> SolveCtx<'a> {
    /// A context over `oracle`, which must have been built for
    /// `(chain, platform)`, solving in `scratch`. Between instances, call
    /// [`DpScratch::reset`] so only allocations carry over.
    ///
    /// # Panics
    ///
    /// Panics if the oracle's task count, processor count or replication
    /// bound differs from the instance's: a mismatched oracle would silently
    /// produce wrong metrics rather than fail.
    pub fn new(
        chain: &'a TaskChain,
        platform: &'a Platform,
        oracle: &'a IntervalOracle,
        scratch: &'a mut DpScratch,
    ) -> Self {
        assert!(
            oracle.len() == chain.len()
                && oracle.num_processors() == platform.num_processors()
                && oracle.max_replication() == platform.max_replication(),
            "IntervalOracle was built for a different (chain, platform) instance"
        );
        SolveCtx {
            chain,
            platform,
            oracle,
            scratch,
        }
    }

    /// Runs `solve` against a fresh context: a newly built oracle and an
    /// empty scratch. This is what the plain-argument entry points do.
    pub fn fresh<R>(
        chain: &TaskChain,
        platform: &Platform,
        solve: impl FnOnce(&mut SolveCtx<'_>) -> R,
    ) -> R {
        let oracle = IntervalOracle::new(chain, platform);
        let mut scratch = DpScratch::new();
        solve(&mut SolveCtx::new(chain, platform, &oracle, &mut scratch))
    }

    /// The task chain being solved.
    pub fn chain(&self) -> &'a TaskChain {
        self.chain
    }

    /// The target platform.
    pub fn platform(&self) -> &'a Platform {
        self.platform
    }

    /// The instance's interval-metrics oracle.
    pub fn oracle(&self) -> &'a IntervalOracle {
        self.oracle
    }
}
