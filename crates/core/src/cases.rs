//! The paper's three representative experiment cases and their parameters
//! (Table 4).

use crate::paper_data;
use crate::problem::{AllocationProblem, Application, GoalWeights};
use crate::AllocError;

/// One of the paper's representative multi-FPGA implementation cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PaperCase {
    /// AlexNet 16-bit fixed point on 2 FPGAs (α = 1, β = 0.7).
    Alex16OnTwoFpgas,
    /// AlexNet 32-bit floating point on 4 FPGAs (α = 1, β = 6).
    Alex32OnFourFpgas,
    /// VGG 16-bit fixed point on 8 FPGAs (α = 1, β = 50).
    VggOnEightFpgas,
}

impl PaperCase {
    /// All three cases, in the paper's order.
    pub fn all() -> [PaperCase; 3] {
        [
            PaperCase::Alex16OnTwoFpgas,
            PaperCase::Alex32OnFourFpgas,
            PaperCase::VggOnEightFpgas,
        ]
    }

    /// Human-readable label as used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            PaperCase::Alex16OnTwoFpgas => "Alex-16 on 2 FPGAs",
            PaperCase::Alex32OnFourFpgas => "Alex-32 on 4 FPGAs",
            PaperCase::VggOnEightFpgas => "VGG on 8 FPGAs",
        }
    }

    /// The characterized application (from the embedded paper tables).
    pub fn application(self) -> Application {
        match self {
            PaperCase::Alex16OnTwoFpgas => paper_data::alexnet_16bit(),
            PaperCase::Alex32OnFourFpgas => paper_data::alexnet_32bit(),
            PaperCase::VggOnEightFpgas => paper_data::vgg_16bit(),
        }
    }

    /// Number of FPGAs of the case.
    pub fn num_fpgas(self) -> usize {
        match self {
            PaperCase::Alex16OnTwoFpgas => 2,
            PaperCase::Alex32OnFourFpgas => 4,
            PaperCase::VggOnEightFpgas => 8,
        }
    }

    /// The goal-function weights of Table 4.
    pub fn weights(self) -> GoalWeights {
        match self {
            PaperCase::Alex16OnTwoFpgas => GoalWeights::new(1.0, 0.7),
            PaperCase::Alex32OnFourFpgas => GoalWeights::new(1.0, 6.0),
            PaperCase::VggOnEightFpgas => GoalWeights::new(1.0, 50.0),
        }
    }

    /// The resource-constraint sweep range (fractions) used in the paper's
    /// figure for this case.
    pub fn constraint_range(self) -> (f64, f64) {
        match self {
            PaperCase::Alex16OnTwoFpgas => (0.55, 0.85),
            PaperCase::Alex32OnFourFpgas => (0.65, 0.75),
            PaperCase::VggOnEightFpgas => (0.55, 0.80),
        }
    }

    /// Builds the [`AllocationProblem`] for this case at a given resource
    /// constraint.
    ///
    /// # Errors
    ///
    /// Propagates problem-construction errors.
    pub fn problem(self, resource_constraint: f64) -> Result<AllocationProblem, AllocError> {
        AllocationProblem::from_application(
            self.application(),
            self.num_fpgas(),
            resource_constraint,
            self.weights(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_weights() {
        assert_eq!(PaperCase::Alex16OnTwoFpgas.weights().beta, 0.7);
        assert_eq!(PaperCase::Alex32OnFourFpgas.weights().beta, 6.0);
        assert_eq!(PaperCase::VggOnEightFpgas.weights().beta, 50.0);
        for case in PaperCase::all() {
            assert_eq!(case.weights().alpha, 1.0);
        }
    }

    #[test]
    fn cases_build_feasible_problems() {
        for case in PaperCase::all() {
            let (lo, hi) = case.constraint_range();
            assert!(lo < hi);
            let problem = case.problem(hi).unwrap();
            assert_eq!(problem.num_fpgas(), case.num_fpgas());
            problem.validate_feasibility().unwrap();
            assert!(!case.label().is_empty());
        }
    }

    #[test]
    fn applications_match_expected_sizes() {
        assert_eq!(PaperCase::Alex16OnTwoFpgas.application().num_kernels(), 8);
        assert_eq!(PaperCase::Alex32OnFourFpgas.application().num_kernels(), 8);
        assert_eq!(PaperCase::VggOnEightFpgas.application().num_kernels(), 17);
    }
}
