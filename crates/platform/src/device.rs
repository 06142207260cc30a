//! Single-FPGA device model.

use crate::ResourceVec;

/// One FPGA device: absolute resource capacities plus the DRAM bandwidth of
/// its attached memory banks.
///
/// # Example
///
/// ```
/// use mfa_platform::FpgaDevice;
///
/// let device = FpgaDevice::vu9p();
/// assert!(device.capacity().dsp > 6000.0);
/// assert!(device.dram_bandwidth_gbps() > 50.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaDevice {
    name: String,
    capacity: ResourceVec,
    dram_bandwidth_gbps: f64,
}

impl FpgaDevice {
    /// Creates a device model from its capacities and DRAM bandwidth (GB/s).
    ///
    /// # Panics
    ///
    /// Panics if any capacity component or the bandwidth is negative or
    /// non-finite.
    pub fn new(name: impl Into<String>, capacity: ResourceVec, dram_bandwidth_gbps: f64) -> Self {
        assert!(
            capacity.is_valid(),
            "device capacities must be finite and nonnegative"
        );
        assert!(
            dram_bandwidth_gbps.is_finite() && dram_bandwidth_gbps >= 0.0,
            "DRAM bandwidth must be finite and nonnegative"
        );
        FpgaDevice {
            name: name.into(),
            capacity,
            dram_bandwidth_gbps,
        }
    }

    /// The Xilinx Virtex UltraScale+ VU9P used on AWS F1 instances.
    ///
    /// Capacities follow the public device tables (1 182 240 LUTs,
    /// 2 364 480 FFs, 2 160 BRAM36 blocks, 6 840 DSP48 slices); the DRAM
    /// bandwidth is the aggregate of the four DDR4-2133 banks attached to each
    /// FPGA card (≈ 64 GB/s peak).
    pub fn vu9p() -> Self {
        FpgaDevice::new(
            "xcvu9p-flgb2104-2-i",
            ResourceVec::new(1_182_240.0, 2_364_480.0, 2_160.0, 6_840.0),
            64.0,
        )
    }

    /// The Xilinx Kintex UltraScale KU115 found on earlier-generation
    /// accelerator cards; a natural second device type for heterogeneous
    /// fleets next to the VU9P.
    ///
    /// Capacities follow the public device tables (663 360 LUTs, 1 326 720
    /// FFs, 2 160 BRAM36 blocks, 5 520 DSP48 slices); the DRAM bandwidth is
    /// the aggregate of the two DDR4-2400 x64 banks typically attached
    /// (≈ 38.4 GB/s peak).
    pub fn ku115() -> Self {
        FpgaDevice::new(
            "xcku115-flvb2104-2-e",
            ResourceVec::new(663_360.0, 1_326_720.0, 2_160.0, 5_520.0),
            38.4,
        )
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Absolute resource capacities.
    pub fn capacity(&self) -> &ResourceVec {
        &self.capacity
    }

    /// Peak DRAM bandwidth in GB/s for the banks attached to this FPGA.
    pub fn dram_bandwidth_gbps(&self) -> f64 {
        self.dram_bandwidth_gbps
    }

    /// Converts an absolute usage into a fraction of this device's capacity.
    pub fn utilization(&self, usage: &ResourceVec) -> ResourceVec {
        usage.fraction_of(&self.capacity)
    }
}

impl Default for FpgaDevice {
    fn default() -> Self {
        FpgaDevice::vu9p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vu9p_preset_matches_public_tables() {
        let d = FpgaDevice::vu9p();
        assert_eq!(d.capacity().dsp, 6_840.0);
        assert_eq!(d.capacity().bram, 2_160.0);
        assert!(d.name().contains("vu9p"));
        assert_eq!(FpgaDevice::default(), d);
    }

    #[test]
    fn ku115_preset_matches_public_tables() {
        let d = FpgaDevice::ku115();
        assert_eq!(d.capacity().dsp, 5_520.0);
        assert_eq!(d.capacity().lut, 663_360.0);
        assert!(d.name().contains("ku115"));
        // Strictly smaller than the VU9P in every class except BRAM.
        let vu9p = FpgaDevice::vu9p();
        assert!(d.capacity().dsp < vu9p.capacity().dsp);
        assert!(d.capacity().lut < vu9p.capacity().lut);
        assert_eq!(d.capacity().bram, vu9p.capacity().bram);
        assert!(d.dram_bandwidth_gbps() < vu9p.dram_bandwidth_gbps());
    }

    #[test]
    fn utilization_is_relative_to_capacity() {
        let d = FpgaDevice::vu9p();
        let usage = ResourceVec::bram_dsp(216.0, 684.0);
        let u = d.utilization(&usage);
        assert!((u.bram - 0.1).abs() < 1e-12);
        assert!((u.dsp - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn negative_bandwidth_is_rejected() {
        let _ = FpgaDevice::new("bad", ResourceVec::uniform(1.0), -1.0);
    }
}
