//! CNN network descriptions, kernel characterization and the paper's measured
//! datasets.
//!
//! The reproduced paper drives its allocation experiments with two
//! convolutional neural networks — AlexNet (32-bit float and 16-bit fixed
//! point) and VGG16 (16-bit fixed point) — whose layers were implemented as
//! HLS kernels and characterized on an AWS F1 FPGA: per compute unit (CU),
//! the worst-case execution time `WCET`, BRAM and DSP utilization, and DRAM
//! bandwidth (paper Tables 2 and 3).
//!
//! We cannot run Xilinx SDAccel on AWS F1 here, so this crate substitutes
//! that flow with three pieces (see the workspace README):
//!
//! * [`network`] — layer-accurate descriptions of AlexNet and VGG16,
//! * [`characterize`] — an analytic HLS cost/latency estimator that turns a
//!   layer plus a CU configuration into a [`KernelCharacterization`]
//!   (the same *kind* of numbers the paper measured),
//! * [`paper_data`] — the paper's own measured Tables 2–3, embedded verbatim,
//!   which are the primary inputs to every reproduced experiment so that the
//!   optimization stage sees exactly the constants the authors used.
//!
//! # Example
//!
//! ```
//! use mfa_cnn::paper_data;
//!
//! let alex16 = paper_data::alexnet_16bit();
//! assert_eq!(alex16.kernels().len(), 8);
//! let total_dsp: f64 = alex16.kernels().iter().map(|k| k.resources().dsp).sum();
//! // Table 2 reports 32.82 % total DSP for Alex-16.
//! assert!((total_dsp - 0.3282).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod characterize;
mod kernel;
mod layer;
pub mod network;
pub mod paper_data;

pub use kernel::{Application, KernelCharacterization};
pub use layer::{ConvLayer, FcLayer, Layer, NormLayer, PoolLayer, Precision};
pub use network::CnnNetwork;
