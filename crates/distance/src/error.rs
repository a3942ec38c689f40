use std::error::Error;
use std::fmt;

use cc_clique::{Clique, CliqueError};
use cc_matmul::MatmulError;

/// Errors raised by the distance tools.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DistanceError {
    /// A matrix-multiplication subroutine failed.
    Matmul(MatmulError),
    /// A simulator primitive failed directly.
    Clique(CliqueError),
    /// A tool was invoked with parameters outside its domain.
    InvalidParameter {
        /// Description of the violated constraint.
        what: String,
    },
}

impl fmt::Display for DistanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistanceError::Matmul(e) => write!(f, "matrix multiplication failed: {e}"),
            DistanceError::Clique(e) => write!(f, "clique primitive failed: {e}"),
            DistanceError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl Error for DistanceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DistanceError::Matmul(e) => Some(e),
            DistanceError::Clique(e) => Some(e),
            DistanceError::InvalidParameter { .. } => None,
        }
    }
}

impl From<MatmulError> for DistanceError {
    fn from(e: MatmulError) -> Self {
        DistanceError::Matmul(e)
    }
}

impl From<CliqueError> for DistanceError {
    fn from(e: CliqueError) -> Self {
        DistanceError::Clique(e)
    }
}

pub(crate) fn invalid(what: impl Into<String>) -> DistanceError {
    DistanceError::InvalidParameter { what: what.into() }
}

/// The check every entry point of the workspace opens with: an input on
/// `nodes` nodes (a graph, a matrix) needs a clique of exactly that size.
///
/// # Errors
///
/// [`DistanceError::InvalidParameter`] if the sizes differ.
pub fn check_size(clique: &Clique, nodes: usize) -> Result<(), DistanceError> {
    if nodes != clique.n() {
        return Err(invalid(format!("input has {nodes} nodes but clique has {}", clique.n())));
    }
    Ok(())
}

/// The one check that admits an accuracy parameter `ε`: finite and `> 0`.
/// Every entry point that takes one runs it before any round or search.
///
/// # Errors
///
/// [`DistanceError::InvalidParameter`] for any other `epsilon`.
pub fn check_epsilon(epsilon: f64) -> Result<(), DistanceError> {
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(invalid(format!("epsilon must be finite and > 0, got {epsilon}")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_chains() {
        let e = DistanceError::from(MatmulError::DensityHintTooSmall { hint: 2 });
        assert!(e.to_string().contains("multiplication"));
        assert!(Error::source(&e).is_some());
        assert!(invalid("k must be positive").to_string().contains('k'));
        let e = check_size(&Clique::new(9), 8).unwrap_err();
        assert!(e.to_string().ends_with("input has 8 nodes but clique has 9"), "{e}");
        assert_eq!(check_size(&Clique::new(8), 8), Ok(()));
        for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let e = check_epsilon(bad).unwrap_err();
            assert!(e.to_string().ends_with(&format!("> 0, got {bad}")), "{e}");
        }
        assert_eq!(check_epsilon(f64::MIN_POSITIVE), Ok(()));
    }
}
