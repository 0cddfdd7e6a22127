//! Tasks and linear task chains (Section 2.1 of the paper).

use serde::{Deserialize, Serialize, Value};

use crate::{ModelError, Result};

/// A single task `τ_i` of the pipeline, described by the pair `(w_i, o_i)`.
///
/// * `work` is the amount of computation `w_i`; executing the task on a
///   processor of speed `s` takes `w_i / s` time units.
/// * `output_size` is the size `o_i` of the data set produced by the task;
///   transmitting it on a link of bandwidth `b` takes `o_i / b` time units.
///
/// By convention the last task of a chain emits its result directly to the
/// environment, so its output size is treated as zero by the evaluation
/// functions regardless of the stored value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// Amount of work `w_i` (strictly positive).
    pub work: f64,
    /// Output data size `o_i` (non-negative).
    pub output_size: f64,
}

impl Task {
    /// Creates a new task from its work and output data size.
    pub fn new(work: f64, output_size: f64) -> Self {
        Task { work, output_size }
    }
}

/// A linear chain of tasks `τ_1 → τ_2 → … → τ_n`.
///
/// Task indices are 0-based throughout the code base (the paper uses 1-based
/// indices). The chain stores a prefix-sum array of the works so that the
/// total work of any interval of consecutive tasks is obtained in `O(1)`.
///
/// The JSON form is `{"tasks": [...]}` only. Deserializing goes through
/// [`TaskChain::new`], so an invalid chain is rejected and the prefix sums
/// are always recomputed: a `work_prefix` field is ignored if present.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskChain {
    tasks: Vec<Task>,
    /// `work_prefix[i]` is the total work of tasks `0..i` (so `work_prefix[0] = 0`).
    work_prefix: Vec<f64>,
}

impl Serialize for TaskChain {
    fn to_value(&self) -> Value {
        Value::Object(vec![("tasks".to_string(), self.tasks.to_value())])
    }
}

impl Deserialize for TaskChain {
    fn from_value(value: &Value) -> std::result::Result<Self, serde::Error> {
        let entries = value
            .as_object()
            .ok_or_else(|| serde::Error::expected("object", "TaskChain"))?;
        let tasks = serde::__find(entries, "tasks")
            .ok_or_else(|| serde::Error::missing_field("tasks", "TaskChain"))?;
        TaskChain::new(Vec::from_value(tasks)?)
            .map_err(|error| serde::Error::custom(format!("invalid TaskChain: {error}")))
    }
}

impl TaskChain {
    /// Builds a validated task chain.
    ///
    /// # Errors
    ///
    /// Returns an error if the chain is empty, if any task has non-positive
    /// work, a negative output size, or non-finite values.
    pub fn new(tasks: Vec<Task>) -> Result<Self> {
        if tasks.is_empty() {
            return Err(ModelError::EmptyChain);
        }
        for (i, t) in tasks.iter().enumerate() {
            if !t.work.is_finite() || !t.output_size.is_finite() {
                return Err(ModelError::NotFinite("task work/output size"));
            }
            if t.work <= 0.0 {
                return Err(ModelError::NonPositiveWork(i));
            }
            if t.output_size < 0.0 {
                return Err(ModelError::NegativeOutput(i));
            }
        }
        let mut work_prefix = Vec::with_capacity(tasks.len() + 1);
        work_prefix.push(0.0);
        let mut acc = 0.0;
        for t in &tasks {
            acc += t.work;
            work_prefix.push(acc);
        }
        Ok(TaskChain { tasks, work_prefix })
    }

    /// Builds a chain from `(work, output_size)` pairs.
    pub fn from_pairs(pairs: &[(f64, f64)]) -> Result<Self> {
        Self::new(pairs.iter().map(|&(w, o)| Task::new(w, o)).collect())
    }

    /// Number of tasks `n` in the chain.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the chain is empty (never true for a validated chain).
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The tasks of the chain, in pipeline order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The `i`-th task (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn task(&self, i: usize) -> Task {
        self.tasks[i]
    }

    /// Work `w_i` of the `i`-th task.
    pub fn work(&self, i: usize) -> f64 {
        self.tasks[i].work
    }

    /// Output data size of the `i`-th task, as the *evaluation* sees it:
    /// the last task outputs directly to the environment, so its output size
    /// is 0 regardless of the stored value (the paper's convention `o_n = 0`).
    pub fn output_size(&self, i: usize) -> f64 {
        if i + 1 == self.tasks.len() {
            0.0
        } else {
            self.tasks[i].output_size
        }
    }

    /// Raw stored output size of task `i`, without the `o_n = 0` convention.
    pub fn raw_output_size(&self, i: usize) -> f64 {
        self.tasks[i].output_size
    }

    /// The prefix-sum array of the works: `work_prefix()[i]` is the total
    /// work of tasks `0..i` (length `n + 1`, first entry 0). Shared with the
    /// interval oracle so interval works never need recomputing.
    pub fn work_prefix(&self) -> &[f64] {
        &self.work_prefix
    }

    /// Total work `Σ w_i` of the whole chain.
    pub fn total_work(&self) -> f64 {
        *self.work_prefix.last().expect("non-empty chain")
    }

    /// Total work of the interval of tasks `first..=last` (0-based, inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `first > last` or `last` is out of bounds.
    pub fn interval_work(&self, first: usize, last: usize) -> f64 {
        assert!(
            first <= last && last < self.tasks.len(),
            "invalid interval [{first}, {last}]"
        );
        self.work_prefix[last + 1] - self.work_prefix[first]
    }

    /// Largest single-task work of the chain (a lower bound on any interval work).
    pub fn max_task_work(&self) -> f64 {
        self.tasks.iter().map(|t| t.work).fold(f64::MIN, f64::max)
    }

    /// Largest output size among tasks `τ_1 .. τ_{n-1}` (the communications that
    /// can appear at an interval boundary). Returns 0 for a single-task chain.
    pub fn max_boundary_output(&self) -> f64 {
        if self.tasks.len() <= 1 {
            return 0.0;
        }
        self.tasks[..self.tasks.len() - 1]
            .iter()
            .map(|t| t.output_size)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> TaskChain {
        TaskChain::from_pairs(&[(10.0, 2.0), (20.0, 3.0), (30.0, 4.0), (40.0, 5.0)]).unwrap()
    }

    #[test]
    fn rejects_empty_chain() {
        assert_eq!(TaskChain::new(vec![]).unwrap_err(), ModelError::EmptyChain);
    }

    #[test]
    fn rejects_non_positive_work() {
        let err = TaskChain::from_pairs(&[(1.0, 1.0), (0.0, 1.0)]).unwrap_err();
        assert_eq!(err, ModelError::NonPositiveWork(1));
        let err = TaskChain::from_pairs(&[(-3.0, 1.0)]).unwrap_err();
        assert_eq!(err, ModelError::NonPositiveWork(0));
    }

    #[test]
    fn rejects_negative_output() {
        let err = TaskChain::from_pairs(&[(1.0, -1.0)]).unwrap_err();
        assert_eq!(err, ModelError::NegativeOutput(0));
    }

    #[test]
    fn rejects_non_finite_values() {
        let err = TaskChain::from_pairs(&[(f64::NAN, 1.0)]).unwrap_err();
        assert_eq!(err, ModelError::NotFinite("task work/output size"));
        let err = TaskChain::from_pairs(&[(1.0, f64::INFINITY)]).unwrap_err();
        assert_eq!(err, ModelError::NotFinite("task work/output size"));
    }

    #[test]
    fn interval_work_matches_manual_sum() {
        let c = chain();
        assert_eq!(c.interval_work(0, 0), 10.0);
        assert_eq!(c.interval_work(0, 3), 100.0);
        assert_eq!(c.interval_work(1, 2), 50.0);
        assert_eq!(c.total_work(), 100.0);
    }

    #[test]
    fn last_task_output_is_zero_by_convention() {
        let c = chain();
        assert_eq!(c.output_size(3), 0.0);
        assert_eq!(c.raw_output_size(3), 5.0);
        assert_eq!(c.output_size(2), 4.0);
    }

    #[test]
    fn max_helpers() {
        let c = chain();
        assert_eq!(c.max_task_work(), 40.0);
        assert_eq!(c.max_boundary_output(), 4.0);
        let single = TaskChain::from_pairs(&[(5.0, 7.0)]).unwrap();
        assert_eq!(single.max_boundary_output(), 0.0);
    }

    #[test]
    fn json_carries_only_the_tasks_and_recomputes_the_prefix() {
        let json = serde_json::to_string(&chain()).unwrap();
        assert!(!json.contains("work_prefix"));
        assert_eq!(serde_json::from_str::<TaskChain>(&json).unwrap(), chain());
        let forged = json.replace("]}", "],\"work_prefix\":[0.0,1.0,2.0,3.0,4.0]}");
        assert!(forged.contains("work_prefix"));
        let parsed: TaskChain = serde_json::from_str(&forged).unwrap();
        assert_eq!(parsed.work_prefix(), chain().work_prefix());
    }

    #[test]
    fn json_goes_through_the_constructor() {
        let negative = r#"{"tasks": [{"work": -3.0, "output_size": 1.0}]}"#;
        let error = serde_json::from_str::<TaskChain>(negative).unwrap_err();
        assert!(error.to_string().contains("invalid TaskChain"), "{error}");
        assert!(serde_json::from_str::<TaskChain>(r#"{"tasks": []}"#).is_err());
        assert!(serde_json::from_str::<TaskChain>(r#"{"work_prefix": [0.0]}"#).is_err());
    }

    #[test]
    #[should_panic(expected = "invalid interval")]
    fn interval_work_panics_on_reversed_bounds() {
        chain().interval_work(2, 1);
    }
}
