//! Analytic HLS characterization of CNN layers.
//!
//! The paper obtains per-CU cost and performance figures by synthesizing each
//! kernel with Xilinx SDAccel and running it on an AWS F1 FPGA. That flow is
//! not available here, so this module provides an analytic estimator in the
//! style of roofline/accelerator-template models (e.g. Zhang et al.,
//! FPGA 2015, which the paper's kernel code follows): given a layer, a
//! numeric precision and a CU micro-architecture configuration it estimates
//!
//! * compute latency from the operation count and the CU's MACs/cycle,
//! * memory time from the bytes moved and the DRAM bandwidth share,
//! * DSP use from the unroll factor and the per-MAC DSP cost,
//! * BRAM use from the tile/line buffers and weight buffers,
//! * DRAM bandwidth from bytes moved per unit of execution time.
//!
//! The estimator is used by the end-to-end examples and by the tables
//! report of `mfa_explore::figures` to show the full flow; the reproduced
//! experiments themselves use the paper's measured tables
//! ([`crate::paper_data`]) so that the optimization inputs are identical to
//! the original study.

use mfa_platform::{FpgaDevice, ResourceVec};

use crate::kernel::KernelCharacterization;
use crate::layer::{ConvLayer, Layer, NormLayer, PoolLayer, Precision};

/// Micro-architecture configuration of one compute unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CuConfig {
    /// Parallel multiply-accumulate lanes (loop unroll factor).
    pub unroll: usize,
    /// Output-channel tile size kept on chip.
    pub tile_output_channels: usize,
    /// Feature-map row tile size kept on chip.
    pub tile_rows: usize,
    /// Kernel clock in MHz.
    pub clock_mhz: f64,
    /// Fraction of the peak DRAM bandwidth a single CU's burst engine can
    /// sustain (AXI port width / outstanding transactions limit).
    pub port_bandwidth_fraction: f64,
}

impl Default for CuConfig {
    fn default() -> Self {
        CuConfig {
            unroll: 64,
            tile_output_channels: 16,
            tile_rows: 8,
            clock_mhz: 250.0,
            port_bandwidth_fraction: 0.05,
        }
    }
}

impl CuConfig {
    /// A smaller CU (fewer lanes, smaller tiles), useful to trade resources
    /// for more replication.
    pub fn compact() -> Self {
        CuConfig {
            unroll: 32,
            tile_output_channels: 8,
            tile_rows: 4,
            ..CuConfig::default()
        }
    }
}

/// Estimates the characterization of a named layer.
///
/// Returns `None` for fully connected layers (excluded from the pipeline by
/// the paper's methodology).
pub fn characterize_layer(
    name: &str,
    layer: &Layer,
    precision: Precision,
    config: &CuConfig,
    device: &FpgaDevice,
) -> Option<KernelCharacterization> {
    match layer {
        Layer::Conv(conv) => Some(characterize_conv(name, conv, precision, config, device)),
        Layer::Pool(pool) => Some(characterize_pool(name, pool, precision, config, device)),
        Layer::Norm(norm) => Some(characterize_norm(name, norm, precision, config, device)),
        Layer::Fc(_) => None,
    }
}

/// Characterizes every pipeline layer of a network, in order.
pub fn characterize_network(
    network: &crate::CnnNetwork,
    precision: Precision,
    config: &CuConfig,
    device: &FpgaDevice,
) -> Vec<KernelCharacterization> {
    network
        .layers()
        .iter()
        .filter_map(|(name, layer)| characterize_layer(name, layer, precision, config, device))
        .collect()
}

fn bram_blocks_for_bytes(bytes: f64) -> f64 {
    // One BRAM36 block holds 4 KiB; buffers are double-buffered for
    // ping-pong overlap of compute and transfer.
    2.0 * (bytes / 4096.0).ceil()
}

fn characterize_conv(
    name: &str,
    conv: &ConvLayer,
    precision: Precision,
    config: &CuConfig,
    device: &FpgaDevice,
) -> KernelCharacterization {
    let macs = conv.macs();
    let cycles_compute = macs / config.unroll as f64;
    let compute_ms = cycles_compute / (config.clock_mhz * 1e3);

    let bytes = conv.weight_bytes(precision) + conv.feature_map_bytes(precision);
    let port_gbps = device.dram_bandwidth_gbps() * config.port_bandwidth_fraction;
    let memory_ms = bytes / (port_gbps * 1e6);

    // Compute and transfer overlap; the slower one dominates, the other adds
    // a modest ramp-up contribution.
    let wcet_ms = compute_ms.max(memory_ms) + 0.15 * compute_ms.min(memory_ms);

    // DSP: MAC lanes times per-MAC DSP cost, plus a small fixed control cost.
    let dsp = config.unroll as f64 * precision.dsp_per_mac() + 8.0;

    // BRAM: weight tile + input line buffer + output tile, double buffered.
    let weight_tile_bytes =
        (conv.kernel_size * conv.kernel_size * conv.input_channels * config.tile_output_channels)
            as f64
            * precision.bytes();
    let line_buffer_bytes =
        (conv.input_size * conv.input_channels * (conv.kernel_size + config.tile_rows)) as f64
            * precision.bytes();
    let out_tile_bytes = (conv.output_size() * config.tile_rows * config.tile_output_channels)
        as f64
        * precision.bytes();
    let bram = bram_blocks_for_bytes(weight_tile_bytes)
        + bram_blocks_for_bytes(line_buffer_bytes)
        + bram_blocks_for_bytes(out_tile_bytes);

    let usage = ResourceVec {
        lut: config.unroll as f64 * 320.0,
        ff: config.unroll as f64 * 480.0,
        bram,
        dsp,
    };
    let bandwidth = (bytes / (wcet_ms * 1e6)) / device.dram_bandwidth_gbps();
    KernelCharacterization::new(name, wcet_ms, device.utilization(&usage), bandwidth)
}

fn characterize_pool(
    name: &str,
    pool: &PoolLayer,
    precision: Precision,
    config: &CuConfig,
    device: &FpgaDevice,
) -> KernelCharacterization {
    // Pooling is memory bound: one comparison per element, wide vectorization.
    let bytes = pool.bytes(precision);
    let port_gbps = device.dram_bandwidth_gbps() * config.port_bandwidth_fraction;
    let memory_ms = bytes / (port_gbps * 1e6);
    let compute_ms = pool.ops() / 16.0 / (config.clock_mhz * 1e3);
    let wcet_ms = memory_ms.max(compute_ms);

    let line_buffer_bytes =
        (pool.input_size * pool.channels * pool.window) as f64 * precision.bytes();
    let usage = ResourceVec {
        lut: 6_000.0,
        ff: 8_000.0,
        bram: bram_blocks_for_bytes(line_buffer_bytes),
        dsp: 0.0,
    };
    let bandwidth = (bytes / (wcet_ms * 1e6)) / device.dram_bandwidth_gbps();
    KernelCharacterization::new(name, wcet_ms, device.utilization(&usage), bandwidth)
}

fn characterize_norm(
    name: &str,
    norm: &NormLayer,
    precision: Precision,
    config: &CuConfig,
    device: &FpgaDevice,
) -> KernelCharacterization {
    let bytes = norm.bytes(precision);
    let port_gbps = device.dram_bandwidth_gbps() * config.port_bandwidth_fraction;
    let memory_ms = bytes / (port_gbps * 1e6);
    let compute_ms = norm.ops() / 8.0 / (config.clock_mhz * 1e3);
    let wcet_ms = memory_ms.max(compute_ms);

    // LRN needs a channel window of the feature map on chip plus a small
    // divider/exponent pipeline (a handful of DSPs for fp32, almost none for
    // fixed point).
    let buffer_bytes = (norm.input_size * norm.input_size * norm.window) as f64 * precision.bytes();
    let dsp = match precision {
        Precision::Float32 => 144.0,
        Precision::Fixed16 => 4.0,
    };
    let usage = ResourceVec {
        lut: 9_000.0,
        ff: 12_000.0,
        bram: bram_blocks_for_bytes(buffer_bytes),
        dsp,
    };
    let bandwidth = (bytes / (wcet_ms * 1e6)) / device.dram_bandwidth_gbps();
    KernelCharacterization::new(name, wcet_ms, device.utilization(&usage), bandwidth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::CnnNetwork;
    use crate::paper_data;

    #[test]
    fn characterizes_all_alexnet_pipeline_layers() {
        let net = CnnNetwork::alexnet();
        let device = FpgaDevice::vu9p();
        let kernels = characterize_network(&net, Precision::Fixed16, &CuConfig::default(), &device);
        assert_eq!(kernels.len(), 8);
        for k in &kernels {
            assert!(k.wcet_ms() > 0.0, "{}", k.name());
            assert!(k.resources().max_component() < 1.0, "{}", k.name());
            assert!(k.bandwidth() > 0.0 && k.bandwidth() < 1.0, "{}", k.name());
        }
    }

    #[test]
    fn fully_connected_layers_are_skipped() {
        let device = FpgaDevice::vu9p();
        let fc = Layer::Fc(crate::FcLayer {
            inputs: 4096,
            outputs: 4096,
        });
        assert!(
            characterize_layer("FC", &fc, Precision::Fixed16, &CuConfig::default(), &device)
                .is_none()
        );
    }

    #[test]
    fn float_costs_more_dsp_than_fixed() {
        let net = CnnNetwork::alexnet();
        let device = FpgaDevice::vu9p();
        let config = CuConfig::default();
        let fx = characterize_network(&net, Precision::Fixed16, &config, &device);
        let fp = characterize_network(&net, Precision::Float32, &config, &device);
        for (a, b) in fx.iter().zip(fp.iter()) {
            assert!(
                b.resources().dsp >= a.resources().dsp,
                "{}: fp32 {} < fx16 {}",
                a.name(),
                b.resources().dsp,
                a.resources().dsp
            );
        }
    }

    #[test]
    fn estimates_are_in_the_same_regime_as_the_paper() {
        // The estimator is not expected to match Table 2 exactly (different
        // HLS code, device calibration), but the bottleneck structure should
        // be similar: convolution kernels dominate latency, pooling uses no
        // DSPs, every kernel is a single-digit-to-tens-of-ms affair.
        let net = CnnNetwork::alexnet();
        let device = FpgaDevice::vu9p();
        let kernels = characterize_network(&net, Precision::Fixed16, &CuConfig::default(), &device);
        let conv1 = kernels.iter().find(|k| k.name() == "CONV1").unwrap();
        let pool1 = kernels.iter().find(|k| k.name() == "POOL1").unwrap();
        assert!(conv1.wcet_ms() > pool1.wcet_ms());
        assert!((0.1..100.0).contains(&conv1.wcet_ms()));
        assert_eq!(pool1.resources().dsp, 0.0);
        // The paper's measured bottleneck for Alex-16 is CONV3/CONV1-class
        // kernels; ours must also be a convolution.
        let bottleneck = kernels
            .iter()
            .max_by(|a, b| a.wcet_ms().total_cmp(&b.wcet_ms()))
            .unwrap();
        assert!(bottleneck.name().starts_with("CONV"));
    }

    #[test]
    fn smaller_cu_uses_fewer_resources() {
        let net = CnnNetwork::vgg16();
        let device = FpgaDevice::vu9p();
        let big = characterize_network(&net, Precision::Fixed16, &CuConfig::default(), &device);
        let small = characterize_network(&net, Precision::Fixed16, &CuConfig::compact(), &device);
        let big_dsp: f64 = big.iter().map(|k| k.resources().dsp).sum();
        let small_dsp: f64 = small.iter().map(|k| k.resources().dsp).sum();
        assert!(small_dsp < big_dsp);
        // And is correspondingly slower on the compute-bound kernels.
        let big_conv2 = big.iter().find(|k| k.name() == "CONV2").unwrap();
        let small_conv2 = small.iter().find(|k| k.name() == "CONV2").unwrap();
        assert!(small_conv2.wcet_ms() >= big_conv2.wcet_ms());
    }

    #[test]
    fn estimator_and_paper_tables_describe_the_same_kernels() {
        // Kernel naming lines up with the embedded paper tables so either
        // source can feed the allocator interchangeably.
        let net = CnnNetwork::alexnet();
        let device = FpgaDevice::vu9p();
        let estimated =
            characterize_network(&net, Precision::Fixed16, &CuConfig::default(), &device);
        let measured = paper_data::alexnet_16bit();
        let estimated_names: Vec<&str> = estimated.iter().map(|k| k.name()).collect();
        let measured_names: Vec<&str> = measured.kernels().iter().map(|k| k.name()).collect();
        assert_eq!(estimated_names, measured_names);
    }
}
