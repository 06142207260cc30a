//! CNN layer descriptors.

/// Numeric precision of a kernel implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// IEEE-754 single precision (the paper's "Alex-32").
    Float32,
    /// 16-bit fixed point (the paper's "Alex-16" and VGG).
    Fixed16,
}

impl Precision {
    /// Bytes per element.
    pub fn bytes(self) -> f64 {
        match self {
            Precision::Float32 => 4.0,
            Precision::Fixed16 => 2.0,
        }
    }

    /// DSP slices needed for one multiply-accumulate at this precision on an
    /// UltraScale+ device (a float MAC consumes several DSP48E2 slices, a
    /// 16-bit fixed MAC fits in one).
    pub fn dsp_per_mac(self) -> f64 {
        match self {
            Precision::Float32 => 5.0,
            Precision::Fixed16 => 1.0,
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Precision::Float32 => write!(f, "fp32"),
            Precision::Fixed16 => write!(f, "fx16"),
        }
    }
}

/// A convolutional layer (optionally with a max-pooling stage merged into it,
/// as the paper does when that improves memory access).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvLayer {
    /// Input feature-map height (= width; square maps assumed).
    pub input_size: usize,
    /// Input channels.
    pub input_channels: usize,
    /// Output channels (number of filters).
    pub output_channels: usize,
    /// Square kernel size.
    pub kernel_size: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding on each border.
    pub padding: usize,
    /// Pooling window merged into this kernel (1 = no pooling).
    pub merged_pool: usize,
}

impl ConvLayer {
    /// Output feature-map size before any merged pooling.
    pub fn output_size(&self) -> usize {
        (self.input_size + 2 * self.padding - self.kernel_size) / self.stride + 1
    }

    /// Output feature-map size after the merged pooling stage.
    pub fn pooled_output_size(&self) -> usize {
        self.output_size() / self.merged_pool.max(1)
    }

    /// Multiply-accumulate operations for one inference.
    pub fn macs(&self) -> f64 {
        let out = self.output_size() as f64;
        out * out
            * self.output_channels as f64
            * self.input_channels as f64
            * (self.kernel_size * self.kernel_size) as f64
    }

    /// Bytes of weights at the given precision.
    pub fn weight_bytes(&self, precision: Precision) -> f64 {
        (self.kernel_size * self.kernel_size * self.input_channels * self.output_channels) as f64
            * precision.bytes()
    }

    /// Bytes of input plus output feature maps moved through DRAM for one
    /// inference at the given precision.
    pub fn feature_map_bytes(&self, precision: Precision) -> f64 {
        let input = (self.input_size * self.input_size * self.input_channels) as f64;
        let out_size = self.pooled_output_size();
        let output = (out_size * out_size * self.output_channels) as f64;
        (input + output) * precision.bytes()
    }
}

/// A (max- or average-) pooling layer kept as its own kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolLayer {
    /// Input feature-map height (= width).
    pub input_size: usize,
    /// Channels.
    pub channels: usize,
    /// Pooling window size.
    pub window: usize,
    /// Stride.
    pub stride: usize,
}

impl PoolLayer {
    /// Output feature-map size.
    pub fn output_size(&self) -> usize {
        (self.input_size - self.window) / self.stride + 1
    }

    /// Comparison/accumulation operations for one inference.
    pub fn ops(&self) -> f64 {
        let out = self.output_size() as f64;
        out * out * self.channels as f64 * (self.window * self.window) as f64
    }

    /// Bytes moved through DRAM for one inference.
    pub fn bytes(&self, precision: Precision) -> f64 {
        let input = (self.input_size * self.input_size * self.channels) as f64;
        let out = self.output_size() as f64;
        let output = out * out * self.channels as f64;
        (input + output) * precision.bytes()
    }
}

/// A local-response-normalization layer (AlexNet's LRN).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormLayer {
    /// Feature-map height (= width); LRN preserves dimensions.
    pub input_size: usize,
    /// Channels.
    pub channels: usize,
    /// Normalization window across channels.
    pub window: usize,
}

impl NormLayer {
    /// Arithmetic operations for one inference (squares, sums, scaling).
    pub fn ops(&self) -> f64 {
        (self.input_size * self.input_size * self.channels) as f64 * (self.window as f64 + 3.0)
    }

    /// Bytes moved through DRAM for one inference.
    pub fn bytes(&self, precision: Precision) -> f64 {
        2.0 * (self.input_size * self.input_size * self.channels) as f64 * precision.bytes()
    }
}

/// A fully connected layer. The paper excludes these from its pipelines but
/// the descriptor is provided for completeness of the network models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FcLayer {
    /// Input features.
    pub inputs: usize,
    /// Output features.
    pub outputs: usize,
}

impl FcLayer {
    /// Multiply-accumulate operations for one inference.
    pub fn macs(&self) -> f64 {
        (self.inputs * self.outputs) as f64
    }
}

/// Any layer of a CNN.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Layer {
    /// Convolution (optionally with merged pooling).
    Conv(ConvLayer),
    /// Stand-alone pooling.
    Pool(PoolLayer),
    /// Local response normalization.
    Norm(NormLayer),
    /// Fully connected.
    Fc(FcLayer),
}

impl Layer {
    /// Returns `true` for layers the paper maps to pipeline kernels
    /// (everything except fully connected layers).
    pub fn is_pipeline_kernel(&self) -> bool {
        !matches!(self, Layer::Fc(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alexnet_conv1() -> ConvLayer {
        ConvLayer {
            input_size: 227,
            input_channels: 3,
            output_channels: 96,
            kernel_size: 11,
            stride: 4,
            padding: 0,
            merged_pool: 1,
        }
    }

    #[test]
    fn conv_geometry_matches_alexnet() {
        let conv1 = alexnet_conv1();
        assert_eq!(conv1.output_size(), 55);
        // ~105 MMACs for AlexNet conv1.
        assert!((conv1.macs() - 105_415_200.0).abs() < 1.0);
        assert_eq!(conv1.pooled_output_size(), 55);
    }

    #[test]
    fn conv_bytes_scale_with_precision() {
        let conv1 = alexnet_conv1();
        let w32 = conv1.weight_bytes(Precision::Float32);
        let w16 = conv1.weight_bytes(Precision::Fixed16);
        assert!((w32 / w16 - 2.0).abs() < 1e-12);
        assert!(conv1.feature_map_bytes(Precision::Fixed16) > 0.0);
    }

    #[test]
    fn pool_and_norm_metrics() {
        let pool = PoolLayer {
            input_size: 55,
            channels: 96,
            window: 3,
            stride: 2,
        };
        assert_eq!(pool.output_size(), 27);
        assert!(pool.ops() > 0.0);
        assert!(pool.bytes(Precision::Float32) > pool.bytes(Precision::Fixed16));

        let norm = NormLayer {
            input_size: 27,
            channels: 96,
            window: 5,
        };
        assert!(norm.ops() > 0.0);
        assert!(norm.bytes(Precision::Fixed16) > 0.0);
    }

    #[test]
    fn precision_properties() {
        assert_eq!(Precision::Float32.bytes(), 4.0);
        assert_eq!(Precision::Fixed16.bytes(), 2.0);
        assert!(Precision::Float32.dsp_per_mac() > Precision::Fixed16.dsp_per_mac());
        assert_eq!(Precision::Float32.to_string(), "fp32");
        assert_eq!(Precision::Fixed16.to_string(), "fx16");
    }

    #[test]
    fn pipeline_kernel_classification() {
        assert!(Layer::Conv(alexnet_conv1()).is_pipeline_kernel());
        assert!(!Layer::Fc(FcLayer {
            inputs: 9216,
            outputs: 4096
        })
        .is_pipeline_kernel());
    }
}
