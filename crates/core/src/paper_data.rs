//! The paper's measured kernel characterizations (Tables 2 and 3), embedded
//! verbatim.
//!
//! These are the inputs of every reproduced experiment: the per-CU constants
//! (`WCET_k`, BRAM %, DSP %, BW %) the authors measured on an AWS F1 FPGA,
//! so the optimizer sees exactly the numbers the paper's own optimizer saw.
//! Percentages are converted to fractions, and every row is built by
//! [`Kernel::new`], so it passes the same checks as any other kernel.

use mfa_platform::ResourceVec;

use crate::problem::{Application, Kernel};

fn kernel(name: &str, bram_pct: f64, dsp_pct: f64, bw_pct: f64, wcet_ms: f64) -> Kernel {
    Kernel::new(
        name,
        wcet_ms,
        ResourceVec::bram_dsp(bram_pct / 100.0, dsp_pct / 100.0),
        bw_pct / 100.0,
    )
    .expect("the paper's rows are valid kernels")
}

/// AlexNet, 32-bit floating point ("Alex-32", paper Table 2, left half).
pub fn alexnet_32bit() -> Application {
    Application::new(
        "Alex-32",
        vec![
            kernel("CONV1", 13.07, 21.24, 1.3, 13.0),
            kernel("POOL1", 2.84, 0.0, 7.03, 1.78),
            kernel("NORM1", 6.10, 2.11, 5.7, 0.839),
            kernel("CONV2", 8.73, 37.59, 2.4, 7.19),
            kernel("NORM2", 7.75, 2.11, 3.7, 0.807),
            kernel("CONV3", 5.22, 28.13, 5.0, 7.78),
            kernel("CONV4", 2.13, 37.50, 3.7, 9.08),
            kernel("CONV5", 8.73, 37.50, 4.2, 4.84),
        ],
    )
}

/// AlexNet, 16-bit fixed point ("Alex-16", paper Table 2, right half).
pub fn alexnet_16bit() -> Application {
    Application::new(
        "Alex-16",
        vec![
            kernel("CONV1", 10.59, 4.31, 1.8, 5.16),
            kernel("POOL1", 0.05, 0.0, 3.5, 1.78),
            kernel("NORM1", 2.53, 0.06, 3.1, 0.78),
            kernel("CONV2", 4.39, 7.63, 2.1, 4.11),
            kernel("NORM2", 6.66, 0.06, 2.2, 0.67),
            kernel("CONV3", 2.63, 5.66, 2.9, 6.7),
            kernel("CONV4", 1.91, 7.55, 3.2, 5.06),
            kernel("CONV5", 4.39, 7.55, 3.1, 3.29),
        ],
    )
}

/// VGG16, 16-bit fixed point ("VGG", paper Table 3).
///
/// Rows reported for a group of identical layers (CONV6,7 — CONV9,10 —
/// CONV11,12,13) are expanded into one kernel per layer, matching the 17
/// kernels shown in the paper's Fig. 6.
pub fn vgg_16bit() -> Application {
    let conv6 = |name: &str| kernel(name, 8.32, 15.05, 2.3, 32.9);
    let conv9 = |name: &str| kernel(name, 2.12, 15.02, 2.5, 37.7);
    let conv11 = |name: &str| kernel(name, 2.12, 14.99, 2.6, 20.3);
    Application::new(
        "VGG",
        vec![
            kernel("CONV1", 3.67, 2.95, 2.0, 28.8),
            kernel("CONV2", 9.97, 15.14, 2.1, 67.8),
            kernel("POOL2", 11.62, 0.03, 5.2, 13.3),
            kernel("CONV3", 9.97, 15.14, 2.3, 22.7),
            kernel("CONV4", 9.97, 15.14, 2.4, 32.1),
            kernel("POOL4", 2.94, 0.03, 5.1, 6.9),
            kernel("CONV5", 8.32, 15.07, 2.0, 22.8),
            conv6("CONV6"),
            conv6("CONV7"),
            kernel("POOL7", 1.50, 0.03, 5.0, 3.5),
            kernel("CONV8", 2.12, 15.02, 2.1, 24.5),
            conv9("CONV9"),
            conv9("CONV10"),
            kernel("POOL10", 0.05, 0.01, 4.0, 2.1),
            conv11("CONV11"),
            conv11("CONV12"),
            conv11("CONV13"),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::PaperCase;

    /// The "SUM" rows of Tables 2 and 3 act as checksums on the transcription.
    #[test]
    fn alex32_sums_match_table2() {
        let app = alexnet_32bit();
        assert_eq!(app.num_kernels(), 8);
        let totals = app.total_resources();
        assert!(
            (totals.bram - 0.5457).abs() < 1e-4,
            "BRAM sum {}",
            totals.bram
        );
        assert!((totals.dsp - 1.6618).abs() < 1e-4, "DSP sum {}", totals.dsp);
        assert!((app.total_bandwidth() - 0.331).abs() < 2e-3);
        assert!((app.total_wcet_ms() - 45.32).abs() < 0.01);
    }

    #[test]
    fn alex16_sums_match_table2() {
        let app = alexnet_16bit();
        assert_eq!(app.num_kernels(), 8);
        let totals = app.total_resources();
        assert!((totals.bram - 0.3315).abs() < 1e-4);
        assert!((totals.dsp - 0.3282).abs() < 1e-4);
        assert!((app.total_bandwidth() - 0.219).abs() < 1e-3);
        assert!((app.total_wcet_ms() - 27.55).abs() < 0.01);
    }

    #[test]
    fn vgg_sums_match_table3() {
        let app = vgg_16bit();
        assert_eq!(app.num_kernels(), 17);
        let totals = app.total_resources();
        // Table 3's SUM row counts each grouped row once; the expanded totals
        // are therefore larger. Check the per-row values via spot checks and
        // the grouped sum via reconstruction.
        let grouped_bram: f64 = [
            3.67, 9.97, 11.62, 9.97, 9.97, 2.94, 8.32, 8.32, 1.50, 2.12, 2.12, 0.05, 2.12,
        ]
        .iter()
        .sum();
        assert!((grouped_bram - 72.69).abs() < 0.01);
        assert!(totals.bram > grouped_bram / 100.0);
        // Bottleneck kernel is CONV2 at 67.8 ms.
        assert_eq!(app.bottleneck().name(), "CONV2");
        assert!((app.bottleneck().wcet_ms() - 67.8).abs() < 1e-9);
        // Total single-CU latency ≈ 0.4 s as reported (426.6 ms with grouped
        // rows expanded per layer).
        assert!((app.total_wcet_ms() - 426.6).abs() < 1.0);
    }

    #[test]
    fn grouped_vgg_rows_are_expanded_identically() {
        let app = vgg_16bit();
        let get = |name: &str| {
            app.kernels()
                .iter()
                .find(|k| k.name() == name)
                .unwrap_or_else(|| panic!("kernel {name} missing"))
        };
        assert_eq!(get("CONV6").resources(), get("CONV7").resources());
        assert_eq!(get("CONV9").wcet_ms(), get("CONV10").wcet_ms());
        assert_eq!(get("CONV11").bandwidth(), get("CONV13").bandwidth());
    }

    /// Every kernel must fit on one FPGA on its own (otherwise the model's
    /// "at least one CU per kernel" constraint could never be satisfied).
    #[test]
    fn every_kernel_fits_a_single_fpga() {
        for case in PaperCase::all() {
            for k in case.application().kernels() {
                assert!(
                    k.resources().max_component() < 1.0,
                    "{} too large",
                    k.name()
                );
                assert!(k.bandwidth() < 1.0);
            }
        }
    }
}
