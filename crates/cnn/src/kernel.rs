//! Kernel characterization data consumed by the allocation algorithms.

use mfa_platform::ResourceVec;

/// Per-compute-unit characterization of one pipeline kernel: exactly the
/// constants the paper's optimization model needs (`WCET_k`, `R_k`, `B_k`).
///
/// Resource and bandwidth figures are *fractions of one FPGA* (the paper's
/// percentage columns divided by 100).
///
/// # Example
///
/// ```
/// use mfa_cnn::KernelCharacterization;
/// use mfa_platform::ResourceVec;
///
/// let conv1 = KernelCharacterization::new(
///     "CONV1",
///     5.16,
///     ResourceVec::bram_dsp(0.1059, 0.0431),
///     0.018,
/// );
/// assert_eq!(conv1.name(), "CONV1");
/// assert!((conv1.wcet_ms() - 5.16).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KernelCharacterization {
    name: String,
    wcet_ms: f64,
    resources: ResourceVec,
    bandwidth: f64,
}

impl KernelCharacterization {
    /// Creates a characterization record.
    ///
    /// # Panics
    ///
    /// Panics if `wcet_ms` is not strictly positive, if any resource fraction
    /// is invalid, or if the bandwidth fraction is negative.
    pub fn new(
        name: impl Into<String>,
        wcet_ms: f64,
        resources: ResourceVec,
        bandwidth: f64,
    ) -> Self {
        assert!(
            wcet_ms.is_finite() && wcet_ms > 0.0,
            "kernel WCET must be positive"
        );
        assert!(resources.is_valid(), "kernel resources must be valid");
        assert!(
            bandwidth.is_finite() && bandwidth >= 0.0,
            "kernel bandwidth must be nonnegative"
        );
        KernelCharacterization {
            name: name.into(),
            wcet_ms,
            resources,
            bandwidth,
        }
    }

    /// Kernel name (e.g. `"CONV3"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Worst-case execution time of one CU in milliseconds (`WCET_k`).
    pub fn wcet_ms(&self) -> f64 {
        self.wcet_ms
    }

    /// FPGA resources used by one CU, as fractions of one FPGA (`R_k`).
    pub fn resources(&self) -> &ResourceVec {
        &self.resources
    }

    /// DRAM bandwidth used by one CU, as a fraction of one FPGA's bandwidth
    /// (`B_k`).
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }
}

/// A complete multi-kernel application: a named, ordered, linear pipeline of
/// characterized kernels (e.g. "AlexNet 16-bit" with its eight kernels).
#[derive(Debug, Clone, PartialEq)]
pub struct Application {
    name: String,
    kernels: Vec<KernelCharacterization>,
}

impl Application {
    /// Creates an application from its kernel pipeline (in pipeline order).
    ///
    /// # Panics
    ///
    /// Panics if `kernels` is empty.
    pub fn new(name: impl Into<String>, kernels: Vec<KernelCharacterization>) -> Self {
        assert!(
            !kernels.is_empty(),
            "an application needs at least one kernel"
        );
        Application {
            name: name.into(),
            kernels,
        }
    }

    /// Application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The kernels, in pipeline order.
    pub fn kernels(&self) -> &[KernelCharacterization] {
        &self.kernels
    }

    /// Number of kernels.
    pub fn num_kernels(&self) -> usize {
        self.kernels.len()
    }

    /// Sum of single-CU WCETs (the latency of a fully serialized pipeline with
    /// one CU per kernel), in milliseconds.
    pub fn total_wcet_ms(&self) -> f64 {
        self.kernels
            .iter()
            .map(KernelCharacterization::wcet_ms)
            .sum()
    }

    /// Sum of single-CU resource fractions across all kernels (the paper's
    /// "SUM" row).
    pub fn total_resources(&self) -> ResourceVec {
        self.kernels.iter().map(|k| *k.resources()).sum()
    }

    /// Sum of single-CU bandwidth fractions across all kernels.
    pub fn total_bandwidth(&self) -> f64 {
        self.kernels
            .iter()
            .map(KernelCharacterization::bandwidth)
            .sum()
    }

    /// The kernel with the largest single-CU WCET (the pipeline bottleneck
    /// before any replication).
    pub fn bottleneck(&self) -> &KernelCharacterization {
        self.kernels
            .iter()
            .max_by(|a, b| a.wcet_ms().total_cmp(&b.wcet_ms()))
            .expect("applications are never empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(name: &str, wcet: f64, dsp: f64) -> KernelCharacterization {
        KernelCharacterization::new(name, wcet, ResourceVec::bram_dsp(0.05, dsp), 0.02)
    }

    #[test]
    fn accessors_round_trip() {
        let k = kernel("CONV1", 13.0, 0.2124);
        assert_eq!(k.name(), "CONV1");
        assert_eq!(k.wcet_ms(), 13.0);
        assert_eq!(k.resources().dsp, 0.2124);
        assert_eq!(k.bandwidth(), 0.02);
    }

    #[test]
    #[should_panic(expected = "WCET")]
    fn zero_wcet_is_rejected() {
        let _ = kernel("bad", 0.0, 0.1);
    }

    #[test]
    fn application_aggregates() {
        let app = Application::new(
            "toy",
            vec![
                kernel("a", 3.0, 0.1),
                kernel("b", 7.0, 0.2),
                kernel("c", 5.0, 0.3),
            ],
        );
        assert_eq!(app.num_kernels(), 3);
        assert_eq!(app.total_wcet_ms(), 15.0);
        assert!((app.total_resources().dsp - 0.6).abs() < 1e-12);
        assert!((app.total_bandwidth() - 0.06).abs() < 1e-12);
        assert_eq!(app.bottleneck().name(), "b");
        assert_eq!(app.name(), "toy");
    }

    #[test]
    #[should_panic(expected = "at least one kernel")]
    fn empty_application_is_rejected() {
        let _ = Application::new("empty", vec![]);
    }
}
