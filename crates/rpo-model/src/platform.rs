//! Distributed platform model (Section 2.2 of the paper).

use serde::{Deserialize, Serialize, Value};

use crate::{ModelError, Result};

/// Index of a processor within a [`Platform`] (0-based).
pub type ProcessorId = usize;

/// A processor `P_u`, characterized by its speed `s_u` and its failure rate
/// per time unit `λ_u` (Poisson transient-failure model of Shatz and Wang).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Processor {
    /// Speed `s_u`: amount of work processed per time unit (strictly positive).
    pub speed: f64,
    /// Failure rate `λ_u` per time unit (non-negative).
    pub failure_rate: f64,
}

impl Processor {
    /// Creates a new processor description.
    pub fn new(speed: f64, failure_rate: f64) -> Self {
        Processor {
            speed,
            failure_rate,
        }
    }
}

/// The target distributed platform: `p` processors connected by homogeneous
/// point-to-point links, with the bounded multi-port constraint `K`.
///
/// Deserializing goes through [`Platform::new`], so an invalid platform is
/// rejected on the wire.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Platform {
    processors: Vec<Processor>,
    /// Bandwidth `b` of every point-to-point link.
    bandwidth: f64,
    /// Failure rate `λ_ℓ` per time unit of every link.
    link_failure_rate: f64,
    /// Bounded multi-port constraint `K`: the maximum number of simultaneous
    /// outgoing connections of a processor, and hence also the maximum number
    /// of replicas per interval.
    max_replication: usize,
}

impl Deserialize for Platform {
    fn from_value(value: &Value) -> std::result::Result<Self, serde::Error> {
        let entries = value
            .as_object()
            .ok_or_else(|| serde::Error::expected("object", "Platform"))?;
        let field = |name: &str| {
            serde::__find(entries, name)
                .ok_or_else(|| serde::Error::missing_field(name, "Platform"))
        };
        Platform::new(
            Vec::from_value(field("processors")?)?,
            f64::from_value(field("bandwidth")?)?,
            f64::from_value(field("link_failure_rate")?)?,
            usize::from_value(field("max_replication")?)?,
        )
        .map_err(|error| serde::Error::custom(format!("invalid Platform: {error}")))
    }
}

impl Platform {
    /// Builds a validated platform.
    ///
    /// # Errors
    ///
    /// Returns an error if there is no processor, if any speed is
    /// non-positive, any failure rate negative, the bandwidth non-positive or
    /// the replication bound zero.
    pub fn new(
        processors: Vec<Processor>,
        bandwidth: f64,
        link_failure_rate: f64,
        max_replication: usize,
    ) -> Result<Self> {
        if processors.is_empty() {
            return Err(ModelError::EmptyPlatform);
        }
        for (u, p) in processors.iter().enumerate() {
            if !p.speed.is_finite() || !p.failure_rate.is_finite() {
                return Err(ModelError::NotFinite("processor speed/failure rate"));
            }
            if p.speed <= 0.0 {
                return Err(ModelError::NonPositiveSpeed(u));
            }
            if p.failure_rate < 0.0 {
                return Err(ModelError::NegativeFailureRate(format!("processor {u}")));
            }
        }
        if !bandwidth.is_finite() || !link_failure_rate.is_finite() {
            return Err(ModelError::NotFinite("bandwidth/link failure rate"));
        }
        if bandwidth <= 0.0 {
            return Err(ModelError::NonPositiveBandwidth);
        }
        if link_failure_rate < 0.0 {
            return Err(ModelError::NegativeFailureRate(
                "communication link".to_string(),
            ));
        }
        if max_replication == 0 {
            return Err(ModelError::ZeroReplicationBound);
        }
        Ok(Platform {
            processors,
            bandwidth,
            link_failure_rate,
            max_replication,
        })
    }

    /// Builds a fully homogeneous platform of `p` identical processors.
    pub fn homogeneous(
        p: usize,
        speed: f64,
        failure_rate: f64,
        bandwidth: f64,
        link_failure_rate: f64,
        max_replication: usize,
    ) -> Result<Self> {
        Self::new(
            vec![Processor::new(speed, failure_rate); p],
            bandwidth,
            link_failure_rate,
            max_replication,
        )
    }

    /// Number of processors `p`.
    pub fn num_processors(&self) -> usize {
        self.processors.len()
    }

    /// The processors, indexed by [`ProcessorId`].
    pub fn processors(&self) -> &[Processor] {
        &self.processors
    }

    /// The processor with index `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of bounds.
    pub fn processor(&self, u: ProcessorId) -> Processor {
        self.processors[u]
    }

    /// Speed `s_u` of processor `u`.
    pub fn speed(&self, u: ProcessorId) -> f64 {
        self.processors[u].speed
    }

    /// Failure rate `λ_u` of processor `u`.
    pub fn failure_rate(&self, u: ProcessorId) -> f64 {
        self.processors[u].failure_rate
    }

    /// Link bandwidth `b`.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Link failure rate `λ_ℓ`.
    pub fn link_failure_rate(&self) -> f64 {
        self.link_failure_rate
    }

    /// Replication bound `K` (bounded multi-port constraint).
    pub fn max_replication(&self) -> usize {
        self.max_replication
    }

    /// Whether all processors have the same speed and the same failure rate
    /// (the paper's definition of a *homogeneous* platform).
    pub fn is_homogeneous(&self) -> bool {
        let first = self.processors[0];
        self.processors
            .iter()
            .all(|p| p.speed == first.speed && p.failure_rate == first.failure_rate)
    }

    /// Smallest processor speed of the platform.
    pub fn min_speed(&self) -> f64 {
        self.processors
            .iter()
            .map(|p| p.speed)
            .fold(f64::INFINITY, f64::min)
    }

    /// Largest processor speed of the platform.
    pub fn max_speed(&self) -> f64 {
        self.processors.iter().map(|p| p.speed).fold(0.0, f64::max)
    }

    /// Time to transmit a data set of size `o` on one link: `o / b`.
    pub fn comm_time(&self, output_size: f64) -> f64 {
        output_size / self.bandwidth
    }

    /// Processor indices sorted by decreasing speed (ties broken by index),
    /// as required by the expected-cost formula (Eq. 3).
    pub fn processors_by_decreasing_speed(&self) -> Vec<ProcessorId> {
        let mut ids: Vec<ProcessorId> = (0..self.processors.len()).collect();
        ids.sort_by(|&a, &b| {
            self.processors[b]
                .speed
                .partial_cmp(&self.processors[a].speed)
                .expect("finite speeds")
                .then(a.cmp(&b))
        });
        ids
    }

    /// Processor indices sorted by increasing `λ_u / s_u` (most reliable per
    /// unit of work first), the order used by the heterogeneous allocation
    /// heuristic of Section 7.2.
    pub fn processors_by_reliability_ratio(&self) -> Vec<ProcessorId> {
        let mut ids: Vec<ProcessorId> = (0..self.processors.len()).collect();
        ids.sort_by(|&a, &b| {
            let ra = self.processors[a].failure_rate / self.processors[a].speed;
            let rb = self.processors[b].failure_rate / self.processors[b].speed;
            ra.partial_cmp(&rb).expect("finite ratios").then(a.cmp(&b))
        });
        ids
    }
}

/// Fluent builder for [`Platform`], convenient for examples and tests.
#[derive(Debug, Clone, Default)]
pub struct PlatformBuilder {
    processors: Vec<Processor>,
    bandwidth: f64,
    link_failure_rate: f64,
    max_replication: usize,
}

impl PlatformBuilder {
    /// Starts a new builder with bandwidth 1, no link failures and `K = 1`.
    pub fn new() -> Self {
        PlatformBuilder {
            processors: Vec::new(),
            bandwidth: 1.0,
            link_failure_rate: 0.0,
            max_replication: 1,
        }
    }

    /// Adds a single processor.
    pub fn processor(mut self, speed: f64, failure_rate: f64) -> Self {
        self.processors.push(Processor::new(speed, failure_rate));
        self
    }

    /// Adds `count` identical processors.
    pub fn identical_processors(mut self, count: usize, speed: f64, failure_rate: f64) -> Self {
        self.processors.extend(std::iter::repeat_n(
            Processor::new(speed, failure_rate),
            count,
        ));
        self
    }

    /// Sets the link bandwidth `b`.
    pub fn bandwidth(mut self, bandwidth: f64) -> Self {
        self.bandwidth = bandwidth;
        self
    }

    /// Sets the link failure rate `λ_ℓ`.
    pub fn link_failure_rate(mut self, rate: f64) -> Self {
        self.link_failure_rate = rate;
        self
    }

    /// Sets the replication bound `K`.
    pub fn max_replication(mut self, k: usize) -> Self {
        self.max_replication = k;
        self
    }

    /// Validates and builds the platform.
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`Platform::new`].
    pub fn build(self) -> Result<Platform> {
        Platform::new(
            self.processors,
            self.bandwidth,
            self.link_failure_rate,
            self.max_replication,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_goes_through_the_constructor() {
        let platform = Platform::homogeneous(3, 1.0, 1e-3, 1.0, 1e-4, 2).unwrap();
        let json = serde_json::to_string(&platform).unwrap();
        assert_eq!(serde_json::from_str::<Platform>(&json).unwrap(), platform);
        for bad in [
            json.replace("\"speed\":1.0", "\"speed\":-1.0"),
            json.replace("\"bandwidth\":1.0", "\"bandwidth\":0.0"),
            json.replace("\"max_replication\":2", "\"max_replication\":0"),
            json.replace("\"processors\":[", "\"processors\":[],\"x\":["),
        ] {
            assert_ne!(bad, json);
            let error = serde_json::from_str::<Platform>(&bad).unwrap_err();
            assert!(error.to_string().contains("invalid Platform"), "{error}");
        }
    }

    fn het_platform() -> Platform {
        PlatformBuilder::new()
            .processor(2.0, 1e-6)
            .processor(1.0, 1e-7)
            .processor(4.0, 1e-5)
            .bandwidth(10.0)
            .link_failure_rate(1e-5)
            .max_replication(2)
            .build()
            .unwrap()
    }

    #[test]
    fn homogeneous_constructor_and_predicate() {
        let p = Platform::homogeneous(4, 1.0, 1e-8, 1.0, 1e-5, 3).unwrap();
        assert_eq!(p.num_processors(), 4);
        assert!(p.is_homogeneous());
        assert_eq!(p.max_replication(), 3);
        assert_eq!(p.min_speed(), 1.0);
        assert_eq!(p.max_speed(), 1.0);
    }

    #[test]
    fn heterogeneous_predicate() {
        assert!(!het_platform().is_homogeneous());
        // Same speeds but different failure rates is still heterogeneous.
        let p = PlatformBuilder::new()
            .processor(1.0, 1e-6)
            .processor(1.0, 1e-7)
            .build()
            .unwrap();
        assert!(!p.is_homogeneous());
    }

    #[test]
    fn validation_errors() {
        assert_eq!(
            Platform::new(vec![], 1.0, 0.0, 1).unwrap_err(),
            ModelError::EmptyPlatform
        );
        assert_eq!(
            Platform::new(vec![Processor::new(0.0, 0.0)], 1.0, 0.0, 1).unwrap_err(),
            ModelError::NonPositiveSpeed(0)
        );
        assert_eq!(
            Platform::new(vec![Processor::new(1.0, -1.0)], 1.0, 0.0, 1).unwrap_err(),
            ModelError::NegativeFailureRate("processor 0".to_string())
        );
        assert_eq!(
            Platform::new(vec![Processor::new(1.0, 0.0)], 0.0, 0.0, 1).unwrap_err(),
            ModelError::NonPositiveBandwidth
        );
        assert_eq!(
            Platform::new(vec![Processor::new(1.0, 0.0)], 1.0, -1.0, 1).unwrap_err(),
            ModelError::NegativeFailureRate("communication link".to_string())
        );
        assert_eq!(
            Platform::new(vec![Processor::new(1.0, 0.0)], 1.0, 0.0, 0).unwrap_err(),
            ModelError::ZeroReplicationBound
        );
    }

    #[test]
    fn decreasing_speed_order() {
        let p = het_platform();
        assert_eq!(p.processors_by_decreasing_speed(), vec![2, 0, 1]);
    }

    #[test]
    fn reliability_ratio_order() {
        let p = het_platform();
        // ratios: P0 = 5e-7, P1 = 1e-7, P2 = 2.5e-6
        assert_eq!(p.processors_by_reliability_ratio(), vec![1, 0, 2]);
    }

    #[test]
    fn comm_time_uses_bandwidth() {
        let p = het_platform();
        assert!((p.comm_time(5.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn min_max_speed_heterogeneous() {
        let p = het_platform();
        assert_eq!(p.min_speed(), 1.0);
        assert_eq!(p.max_speed(), 4.0);
    }
}
