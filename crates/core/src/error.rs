//! Error type for model construction and evaluation.

use std::fmt;

/// Errors produced when constructing or evaluating the reliability model.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A mean time (MV, ML, MRV, MRL, MDL) was non-positive or NaN.
    InvalidMeanTime {
        /// Which parameter was invalid (e.g. "MV").
        parameter: &'static str,
        /// The offending value in hours.
        value: f64,
    },
    /// The correlation factor α was outside `(0, 1]`.
    InvalidCorrelation {
        /// The offending value.
        alpha: f64,
    },
    /// A replication factor of zero was requested.
    InvalidReplication {
        /// The offending replica count.
        replicas: usize,
    },
    /// A probability outside `[0, 1]` was supplied.
    InvalidProbability {
        /// Which quantity was invalid.
        parameter: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A dimensionless configuration quantity (a count, rate or size) was
    /// invalid. Used by configuration layers (e.g. fleet topology) whose
    /// parameters are not mean times, correlations or probabilities.
    InvalidQuantity {
        /// Which quantity was invalid (e.g. "sites", "repair bandwidth").
        parameter: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidMeanTime { parameter, value } => {
                write!(f, "mean time {parameter} must be positive, got {value} hours")
            }
            ModelError::InvalidCorrelation { alpha } => {
                write!(f, "correlation factor alpha must be in (0, 1], got {alpha}")
            }
            ModelError::InvalidReplication { replicas } => {
                write!(f, "replication factor must be at least 1, got {replicas}")
            }
            ModelError::InvalidProbability { parameter, value } => {
                write!(f, "probability {parameter} must be in [0, 1], got {value}")
            }
            ModelError::InvalidQuantity { parameter, value } => {
                write!(f, "invalid {parameter}: {value}")
            }
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_parameter() {
        let e = ModelError::InvalidMeanTime { parameter: "MV", value: -1.0 };
        assert!(e.to_string().contains("MV"));
        let e = ModelError::InvalidCorrelation { alpha: 2.0 };
        assert!(e.to_string().contains("alpha"));
        let e = ModelError::InvalidReplication { replicas: 0 };
        assert!(e.to_string().contains("at least 1"));
        let e = ModelError::InvalidProbability { parameter: "p", value: 1.5 };
        assert!(e.to_string().contains("[0, 1]"));
        let e = ModelError::InvalidQuantity { parameter: "sites", value: 0.0 };
        assert!(e.to_string().contains("sites"));
        assert!(!e.to_string().contains("hours"));
    }

    #[test]
    fn is_std_error() {
        fn assert_error<E: std::error::Error>(_: &E) {}
        assert_error(&ModelError::InvalidCorrelation { alpha: 0.0 });
    }
}
