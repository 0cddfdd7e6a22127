//! Output checks that do not trust the program: every `ok` answer is
//! re-scored through `rpo_model`'s evaluator (not the solver's oracle) on
//! the chain and platform the benchmark sent.

use rpo_model::{Mapping, MappingEvaluation};
use rpo_portfolio::ProblemInstance;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Largest relative difference tolerated between a reported and a
/// re-scored criterion.
pub const TOLERANCE: f64 = 1e-12;

fn close(reported: f64, rescored: f64) -> bool {
    (reported - rescored).abs() <= TOLERANCE * reported.abs().max(rescored.abs()).max(1.0)
}

/// The reported figures of one `ok` answer.
pub struct Answer<'a> {
    /// The mapping the program returned.
    pub mapping: &'a Mapping,
    /// Its reported reliability.
    pub reliability: f64,
    /// Its reported worst-case period.
    pub period: f64,
    /// Its reported worst-case latency.
    pub latency: f64,
}

/// Re-scores an answer on `instance`; returns the re-scored reliability,
/// or what is wrong with the answer.
pub fn rescore(instance: &ProblemInstance, answer: &Answer) -> Result<f64, String> {
    let evaluation = catch_unwind(AssertUnwindSafe(|| {
        MappingEvaluation::evaluate(&instance.chain, &instance.platform, answer.mapping)
    }))
    .map_err(|_| "the returned mapping does not fit the instance".to_string())?;
    let pairs = [
        ("reliability", answer.reliability, evaluation.reliability),
        ("period", answer.period, evaluation.worst_case_period),
        ("latency", answer.latency, evaluation.worst_case_latency),
    ];
    for (what, reported, rescored) in pairs {
        if !close(reported, rescored) {
            return Err(format!(
                "reported {what} {reported} but it re-scores to {rescored}"
            ));
        }
    }
    let slack = 1.0 + TOLERANCE;
    if evaluation.worst_case_period > instance.period_bound * slack {
        return Err(format!(
            "period {} breaks the bound {}",
            evaluation.worst_case_period, instance.period_bound
        ));
    }
    if evaluation.worst_case_latency > instance.latency_bound * slack {
        return Err(format!(
            "latency {} breaks the bound {}",
            evaluation.worst_case_latency, instance.latency_bound
        ));
    }
    Ok(evaluation.reliability)
}

/// `−log10(1 − R)`: the reliability's number of nines (capped where `1 − R`
/// underflows the f64 resolution).
pub fn nines(reliability: f64) -> f64 {
    let failure = (1.0 - reliability).max(f64::EPSILON);
    -failure.log10()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpo_model::{Platform, TaskChain};

    fn instance(latency_bound: f64) -> ProblemInstance {
        let chain = TaskChain::from_pairs(&[(30.0, 2.0), (10.0, 8.0)]).unwrap();
        let platform = Platform::homogeneous(3, 1.0, 1e-3, 1.0, 1e-4, 2).unwrap();
        ProblemInstance::new(chain, platform, f64::INFINITY, latency_bound).unwrap()
    }

    #[test]
    fn honest_answers_pass_and_forged_ones_fail() {
        let engine = rpo_portfolio::PortfolioEngine::default().with_threads(1);
        let problem = instance(1e6);
        let outcome = engine.solve(&problem);
        let best = outcome.front.best_reliability().expect("feasible");
        let honest = Answer {
            mapping: &best.mapping,
            reliability: best.evaluation.reliability,
            period: best.evaluation.worst_case_period,
            latency: best.evaluation.worst_case_latency,
        };
        assert!(rescore(&problem, &honest).is_ok());
        let forged = Answer {
            reliability: honest.reliability + 1e-9,
            ..honest
        };
        assert!(rescore(&problem, &forged).is_err());
        let too_tight = instance(best.evaluation.worst_case_latency * 0.5);
        let honest = Answer {
            reliability: best.evaluation.reliability,
            ..forged
        };
        assert!(rescore(&too_tight, &honest).unwrap_err().contains("bound"));
    }

    #[test]
    fn nines_count_leading_nines() {
        assert!((nines(0.999) - 3.0).abs() < 1e-9);
        assert!(nines(1.0).is_finite());
    }
}
