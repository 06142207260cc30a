//! Multi-FPGA platform models: `F` identical FPGAs ([`MultiFpgaPlatform`])
//! and mixed-generation fleets of device groups ([`HeterogeneousPlatform`]).

use crate::{FpgaDevice, ResourceVec};

/// A host-orchestrated platform of `F` identical FPGA devices, as in the AWS
/// EC2 F1 family. All inter-kernel communication goes through each FPGA's
/// DRAM, coordinated by the host (the paper's execution model).
///
/// # Example
///
/// ```
/// use mfa_platform::MultiFpgaPlatform;
///
/// let f1 = MultiFpgaPlatform::aws_f1_16xlarge();
/// assert_eq!(f1.num_fpgas(), 8);
/// let pair = f1.with_num_fpgas(2);
/// assert_eq!(pair.num_fpgas(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MultiFpgaPlatform {
    name: String,
    device: FpgaDevice,
    num_fpgas: usize,
}

impl MultiFpgaPlatform {
    /// Creates a platform of `num_fpgas` identical `device`s.
    ///
    /// # Panics
    ///
    /// Panics if `num_fpgas` is zero.
    pub fn new(name: impl Into<String>, device: FpgaDevice, num_fpgas: usize) -> Self {
        assert!(num_fpgas > 0, "a platform needs at least one FPGA");
        MultiFpgaPlatform {
            name: name.into(),
            device,
            num_fpgas,
        }
    }

    /// AWS EC2 `f1.2xlarge`: one VU9P FPGA.
    pub fn aws_f1_2xlarge() -> Self {
        MultiFpgaPlatform::new("f1.2xlarge", FpgaDevice::vu9p(), 1)
    }

    /// AWS EC2 `f1.4xlarge`: two VU9P FPGAs.
    pub fn aws_f1_4xlarge() -> Self {
        MultiFpgaPlatform::new("f1.4xlarge", FpgaDevice::vu9p(), 2)
    }

    /// AWS EC2 `f1.16xlarge`: eight VU9P FPGAs (the platform used in the
    /// paper's experiments).
    pub fn aws_f1_16xlarge() -> Self {
        MultiFpgaPlatform::new("f1.16xlarge", FpgaDevice::vu9p(), 8)
    }

    /// Platform name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The per-FPGA device model.
    pub fn device(&self) -> &FpgaDevice {
        &self.device
    }

    /// Number of FPGAs.
    pub fn num_fpgas(&self) -> usize {
        self.num_fpgas
    }

    /// Returns a copy of this platform with a different FPGA count (used by
    /// the design-space exploration sweeps, which vary `F` from 2 to 8 on the
    /// same device).
    ///
    /// # Panics
    ///
    /// Panics if `num_fpgas` is zero.
    #[must_use]
    pub fn with_num_fpgas(&self, num_fpgas: usize) -> Self {
        MultiFpgaPlatform::new(
            format!("{}×{}", num_fpgas, self.device.name()),
            self.device.clone(),
            num_fpgas,
        )
    }
}

impl Default for MultiFpgaPlatform {
    fn default() -> Self {
        MultiFpgaPlatform::aws_f1_16xlarge()
    }
}

/// A run of identical FPGAs inside a [`HeterogeneousPlatform`].
///
/// Besides the device model and count, a group carries two per-group knobs
/// that churn workloads need (mixed device generations rarely clock alike,
/// and shared fleets rarely grant every group the same budget slice):
///
/// * [`wcet_scale`](Self::wcet_scale) — a slowdown factor `s_g ≥ 1` applied
///   to every kernel's WCET on this group's devices. The reference device
///   (group 0 by convention) is the fastest, so solver relaxations computed
///   at reference speed stay valid lower bounds.
/// * [`budget_scale`](Self::budget_scale) — a factor `b_g > 0` multiplying
///   the per-FPGA budget fractions (resources and bandwidth) on this group.
///
/// Both default to `1.0`, in which case every consumer is bit-identical to
/// the unscaled model.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceGroup {
    device: FpgaDevice,
    count: usize,
    wcet_scale: f64,
    budget_scale: f64,
}

impl DeviceGroup {
    /// Creates a group of `count` identical `device`s with neutral scales.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn new(device: FpgaDevice, count: usize) -> Self {
        assert!(count > 0, "a device group needs at least one FPGA");
        DeviceGroup {
            device,
            count,
            wcet_scale: 1.0,
            budget_scale: 1.0,
        }
    }

    /// Sets the per-group WCET slowdown factor `s_g`: a CU hosted on this
    /// group takes `s_g × WCET` per item. Must be ≥ 1 — the reference device
    /// is the fastest generation, which keeps reference-speed relaxations
    /// valid lower bounds on the scaled problem.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is non-finite or below 1.
    #[must_use]
    pub fn with_wcet_scale(mut self, scale: f64) -> Self {
        assert!(
            scale.is_finite() && scale >= 1.0,
            "WCET scale must be a finite slowdown factor ≥ 1, got {scale}"
        );
        self.wcet_scale = scale;
        self
    }

    /// Sets the per-group budget factor `b_g`: the per-FPGA budget fractions
    /// (every resource class and the bandwidth cap) are multiplied by `b_g`
    /// on this group's devices.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is non-finite or not strictly positive.
    #[must_use]
    pub fn with_budget_scale(mut self, scale: f64) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "budget scale must be a finite positive factor, got {scale}"
        );
        self.budget_scale = scale;
        self
    }

    /// The group's device model.
    pub fn device(&self) -> &FpgaDevice {
        &self.device
    }

    /// Number of FPGAs in the group.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Per-group WCET slowdown factor `s_g` (1.0 unless configured).
    pub fn wcet_scale(&self) -> f64 {
        self.wcet_scale
    }

    /// Per-group budget factor `b_g` (1.0 unless configured).
    pub fn budget_scale(&self) -> f64 {
        self.budget_scale
    }
}

/// A host-orchestrated platform whose FPGAs come in *device groups*: an
/// ordered list of `(device, count)` runs, as in a cloud fleet that mixes
/// device generations (e.g. VU9P cards next to older KU115 cards).
///
/// Kernel characterizations are expressed as fractions of the platform's
/// *reference device* — the device of the first group. The
/// [`scale_to_group`](HeterogeneousPlatform::scale_to_group) /
/// [`scale_bandwidth_to_group`](HeterogeneousPlatform::scale_bandwidth_to_group)
/// helpers convert such fractions into fractions of another group's device,
/// which is how the allocation crates account for a CU costing a larger share
/// of a smaller FPGA. A [`MultiFpgaPlatform`] converts into the one-group
/// special case via `From`.
///
/// FPGAs are enumerated group-major: group 0's devices come first, then
/// group 1's, and so on.
///
/// # Example
///
/// ```
/// use mfa_platform::{DeviceGroup, FpgaDevice, HeterogeneousPlatform};
///
/// let fleet = HeterogeneousPlatform::new(
///     "mixed",
///     vec![
///         DeviceGroup::new(FpgaDevice::vu9p(), 4),
///         DeviceGroup::new(FpgaDevice::ku115(), 4),
///     ],
/// );
/// assert_eq!(fleet.num_fpgas(), 8);
/// assert_eq!(fleet.num_groups(), 2);
/// assert_eq!(fleet.group_of_fpga(5), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HeterogeneousPlatform {
    name: String,
    groups: Vec<DeviceGroup>,
}

impl HeterogeneousPlatform {
    /// Creates a platform from an ordered list of device groups. The first
    /// group's device becomes the reference device for kernel fractions.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty.
    pub fn new(name: impl Into<String>, groups: Vec<DeviceGroup>) -> Self {
        assert!(
            !groups.is_empty(),
            "a platform needs at least one device group"
        );
        HeterogeneousPlatform {
            name: name.into(),
            groups,
        }
    }

    /// Platform name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The device groups, in order.
    pub fn groups(&self) -> &[DeviceGroup] {
        &self.groups
    }

    /// Number of device groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// One device group.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn group(&self, g: usize) -> &DeviceGroup {
        &self.groups[g]
    }

    /// Total number of FPGAs across all groups.
    pub fn num_fpgas(&self) -> usize {
        self.groups.iter().map(DeviceGroup::count).sum()
    }

    /// `true` when the platform has a single device group (the paper's
    /// `F` identical FPGAs).
    pub fn is_homogeneous(&self) -> bool {
        self.groups.len() == 1
    }

    /// The device kernel fractions are expressed against (the first group's).
    pub fn reference_device(&self) -> &FpgaDevice {
        &self.groups[0].device
    }

    /// Group index of FPGA `f` under group-major enumeration.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    pub fn group_of_fpga(&self, f: usize) -> usize {
        let mut remaining = f;
        for (g, group) in self.groups.iter().enumerate() {
            if remaining < group.count {
                return g;
            }
            remaining -= group.count;
        }
        panic!("FPGA index {f} out of range for {} FPGAs", self.num_fpgas());
    }

    /// Converts a resource fraction of the reference device into a fraction
    /// of group `g`'s device (component-wise `frac · C_ref / C_g`). A zero
    /// fraction stays zero; a positive fraction of a class the target device
    /// lacks entirely becomes infinite (the kernel cannot be hosted there).
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn scale_to_group(&self, g: usize, fraction: &ResourceVec) -> ResourceVec {
        let reference = self.reference_device().capacity();
        let target = self.groups[g].device.capacity();
        if reference == target {
            return *fraction;
        }
        fn scale(frac: f64, c_ref: f64, c_target: f64) -> f64 {
            if frac == 0.0 {
                0.0
            } else if c_target == 0.0 {
                f64::INFINITY
            } else {
                frac * c_ref / c_target
            }
        }
        ResourceVec {
            lut: scale(fraction.lut, reference.lut, target.lut),
            ff: scale(fraction.ff, reference.ff, target.ff),
            bram: scale(fraction.bram, reference.bram, target.bram),
            dsp: scale(fraction.dsp, reference.dsp, target.dsp),
        }
    }

    /// Converts a bandwidth fraction of the reference device into a fraction
    /// of group `g`'s device bandwidth (same convention as
    /// [`scale_to_group`](Self::scale_to_group)).
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn scale_bandwidth_to_group(&self, g: usize, fraction: f64) -> f64 {
        let reference = self.reference_device().dram_bandwidth_gbps();
        let target = self.groups[g].device.dram_bandwidth_gbps();
        if reference == target || fraction == 0.0 {
            fraction
        } else if target == 0.0 {
            f64::INFINITY
        } else {
            fraction * reference / target
        }
    }

    /// Returns a platform of `num_fpgas` copies of the reference device
    /// (used by design-space sweeps that vary the FPGA count of a case; a
    /// heterogeneous base collapses onto its reference device for this axis).
    ///
    /// # Panics
    ///
    /// Panics if `num_fpgas` is zero.
    #[must_use]
    pub fn with_num_fpgas(&self, num_fpgas: usize) -> Self {
        let device = self.reference_device().clone();
        HeterogeneousPlatform::new(
            format!("{}×{}", num_fpgas, device.name()),
            vec![DeviceGroup::new(device, num_fpgas)],
        )
    }
}

impl From<MultiFpgaPlatform> for HeterogeneousPlatform {
    fn from(platform: MultiFpgaPlatform) -> Self {
        HeterogeneousPlatform::new(
            platform.name.clone(),
            vec![DeviceGroup::new(platform.device, platform.num_fpgas)],
        )
    }
}

impl From<&MultiFpgaPlatform> for HeterogeneousPlatform {
    fn from(platform: &MultiFpgaPlatform) -> Self {
        HeterogeneousPlatform::from(platform.clone())
    }
}

impl Default for HeterogeneousPlatform {
    fn default() -> Self {
        HeterogeneousPlatform::from(MultiFpgaPlatform::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_sizes() {
        assert_eq!(MultiFpgaPlatform::aws_f1_2xlarge().num_fpgas(), 1);
        assert_eq!(MultiFpgaPlatform::aws_f1_4xlarge().num_fpgas(), 2);
        assert_eq!(MultiFpgaPlatform::aws_f1_16xlarge().num_fpgas(), 8);
        assert_eq!(MultiFpgaPlatform::default().name(), "f1.16xlarge");
    }

    #[test]
    fn with_num_fpgas_keeps_device() {
        let base = MultiFpgaPlatform::aws_f1_16xlarge();
        let four = base.with_num_fpgas(4);
        assert_eq!(four.num_fpgas(), 4);
        assert_eq!(four.device(), base.device());
        assert!(four.name().contains('4'));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_fpgas_is_rejected() {
        let _ = MultiFpgaPlatform::new("empty", FpgaDevice::vu9p(), 0);
    }

    fn mixed_fleet() -> HeterogeneousPlatform {
        HeterogeneousPlatform::new(
            "4×VU9P + 4×KU115",
            vec![
                DeviceGroup::new(FpgaDevice::vu9p(), 4),
                DeviceGroup::new(FpgaDevice::ku115(), 4),
            ],
        )
    }

    #[test]
    fn heterogeneous_platform_enumerates_group_major() {
        let fleet = mixed_fleet();
        assert_eq!(fleet.num_fpgas(), 8);
        assert_eq!(fleet.num_groups(), 2);
        assert!(!fleet.is_homogeneous());
        assert_eq!(fleet.group(1).count(), 4);
        for f in 0..4 {
            assert_eq!(fleet.group_of_fpga(f), 0);
        }
        for f in 4..8 {
            assert_eq!(fleet.group_of_fpga(f), 1);
        }
        assert_eq!(fleet.reference_device(), &FpgaDevice::vu9p());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn group_of_fpga_rejects_out_of_range() {
        let _ = mixed_fleet().group_of_fpga(8);
    }

    #[test]
    fn multi_fpga_platform_converts_to_one_group() {
        let hetero: HeterogeneousPlatform = MultiFpgaPlatform::aws_f1_4xlarge().into();
        assert!(hetero.is_homogeneous());
        assert_eq!(hetero.num_fpgas(), 2);
        assert_eq!(hetero.name(), "f1.4xlarge");
        assert_eq!(HeterogeneousPlatform::default().num_fpgas(), 8);
    }

    #[test]
    fn scaling_to_the_reference_group_is_the_identity() {
        let fleet = mixed_fleet();
        let frac = ResourceVec::bram_dsp(0.10, 0.21);
        assert_eq!(fleet.scale_to_group(0, &frac), frac);
        assert_eq!(fleet.scale_bandwidth_to_group(0, 0.3), 0.3);
    }

    #[test]
    fn scaling_to_a_smaller_device_inflates_fractions() {
        let fleet = mixed_fleet();
        let frac = ResourceVec::new(0.1, 0.1, 0.1, 0.1);
        let scaled = fleet.scale_to_group(1, &frac);
        // KU115 has fewer LUTs/FFs/DSPs than VU9P but the same BRAM count,
        // so those fractions grow while BRAM stays put.
        assert!(scaled.lut > 0.1 && scaled.ff > 0.1 && scaled.dsp > 0.1);
        assert!((scaled.bram - 0.1).abs() < 1e-12);
        // Exact ratio check on DSPs: 6840 / 5520.
        assert!((scaled.dsp - 0.1 * 6_840.0 / 5_520.0).abs() < 1e-12);
        // Bandwidth scales by the device ratio too.
        let bw = fleet.scale_bandwidth_to_group(1, 0.2);
        assert!((bw - 0.2 * 64.0 / 38.4).abs() < 1e-12);
        // Zero stays zero; a class the target lacks becomes infinite.
        assert_eq!(
            fleet.scale_to_group(1, &ResourceVec::zero()),
            ResourceVec::zero()
        );
        let odd = HeterogeneousPlatform::new(
            "odd",
            vec![
                DeviceGroup::new(FpgaDevice::vu9p(), 1),
                DeviceGroup::new(
                    FpgaDevice::new("no-dsp", ResourceVec::new(1.0, 1.0, 1.0, 0.0), 1.0),
                    1,
                ),
            ],
        );
        assert!(odd
            .scale_to_group(1, &ResourceVec::uniform(0.1))
            .dsp
            .is_infinite());
    }

    #[test]
    fn with_num_fpgas_collapses_onto_the_reference_device() {
        let scaled = mixed_fleet().with_num_fpgas(3);
        assert!(scaled.is_homogeneous());
        assert_eq!(scaled.num_fpgas(), 3);
        assert_eq!(scaled.reference_device(), &FpgaDevice::vu9p());
    }

    #[test]
    #[should_panic(expected = "at least one device group")]
    fn empty_group_list_is_rejected() {
        let _ = HeterogeneousPlatform::new("empty", vec![]);
    }

    #[test]
    #[should_panic(expected = "at least one FPGA")]
    fn zero_count_group_is_rejected() {
        let _ = DeviceGroup::new(FpgaDevice::vu9p(), 0);
    }

    #[test]
    fn group_scales_default_to_neutral() {
        let g = DeviceGroup::new(FpgaDevice::vu9p(), 2);
        assert_eq!(g.wcet_scale(), 1.0);
        assert_eq!(g.budget_scale(), 1.0);
        let g = g.with_wcet_scale(1.4).with_budget_scale(0.8);
        assert_eq!(g.wcet_scale(), 1.4);
        assert_eq!(g.budget_scale(), 0.8);
    }

    #[test]
    #[should_panic(expected = "WCET scale")]
    fn wcet_scale_below_one_is_rejected() {
        let _ = DeviceGroup::new(FpgaDevice::vu9p(), 1).with_wcet_scale(0.9);
    }

    #[test]
    #[should_panic(expected = "WCET scale")]
    fn non_finite_wcet_scale_is_rejected() {
        let _ = DeviceGroup::new(FpgaDevice::vu9p(), 1).with_wcet_scale(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "budget scale")]
    fn zero_budget_scale_is_rejected() {
        let _ = DeviceGroup::new(FpgaDevice::vu9p(), 1).with_budget_scale(0.0);
    }

    #[test]
    #[should_panic(expected = "budget scale")]
    fn non_finite_budget_scale_is_rejected() {
        let _ = DeviceGroup::new(FpgaDevice::vu9p(), 1).with_budget_scale(f64::INFINITY);
    }
}
