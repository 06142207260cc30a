//! Layer-accurate CNN network descriptions.

use crate::layer::{ConvLayer, FcLayer, Layer, NormLayer, PoolLayer};

/// A named CNN: an ordered list of layers.
///
/// # Example
///
/// ```
/// use mfa_cnn::CnnNetwork;
///
/// let vgg = CnnNetwork::vgg16();
/// assert_eq!(vgg.name(), "VGG16");
/// assert!(vgg.num_pipeline_kernels() >= 17);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CnnNetwork {
    name: String,
    layers: Vec<(String, Layer)>,
}

impl CnnNetwork {
    /// Creates a network from named layers, in execution order.
    pub fn new(name: impl Into<String>, layers: Vec<(String, Layer)>) -> Self {
        CnnNetwork {
            name: name.into(),
            layers,
        }
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All layers with their names, in execution order.
    pub fn layers(&self) -> &[(String, Layer)] {
        &self.layers
    }

    /// Layers that become pipeline kernels (everything except the fully
    /// connected classifier head, which the paper excludes).
    pub fn pipeline_layers(&self) -> impl Iterator<Item = &(String, Layer)> {
        self.layers.iter().filter(|(_, l)| l.is_pipeline_kernel())
    }

    /// Number of pipeline kernels.
    pub fn num_pipeline_kernels(&self) -> usize {
        self.pipeline_layers().count()
    }

    /// Total multiply-accumulate count of the convolutional part.
    pub fn conv_macs(&self) -> f64 {
        self.layers
            .iter()
            .map(|(_, l)| match l {
                Layer::Conv(c) => c.macs(),
                _ => 0.0,
            })
            .sum()
    }

    /// AlexNet (Krizhevsky et al., 2012) with the paper's kernel granularity:
    /// the pooling layers after CONV2 and CONV5 are merged into their
    /// preceding convolution (`merged_pool = 2` … actually window 3 stride 2,
    /// modeled as a stride-2 decimation), while POOL1 stays a separate kernel,
    /// matching the eight kernels of Table 2 (fully connected layers are kept
    /// in the description but excluded from the pipeline).
    pub fn alexnet() -> Self {
        let conv = |input_size,
                    input_channels,
                    output_channels,
                    kernel_size,
                    stride,
                    padding,
                    merged_pool| {
            Layer::Conv(ConvLayer {
                input_size,
                input_channels,
                output_channels,
                kernel_size,
                stride,
                padding,
                merged_pool,
            })
        };
        CnnNetwork::new(
            "AlexNet",
            vec![
                ("CONV1".into(), conv(227, 3, 96, 11, 4, 0, 1)),
                (
                    "POOL1".into(),
                    Layer::Pool(PoolLayer {
                        input_size: 55,
                        channels: 96,
                        window: 3,
                        stride: 2,
                    }),
                ),
                (
                    "NORM1".into(),
                    Layer::Norm(NormLayer {
                        input_size: 27,
                        channels: 96,
                        window: 5,
                    }),
                ),
                // CONV2's trailing max-pool is merged into the kernel.
                ("CONV2".into(), conv(27, 96, 256, 5, 1, 2, 2)),
                (
                    "NORM2".into(),
                    Layer::Norm(NormLayer {
                        input_size: 13,
                        channels: 256,
                        window: 5,
                    }),
                ),
                ("CONV3".into(), conv(13, 256, 384, 3, 1, 1, 1)),
                ("CONV4".into(), conv(13, 384, 384, 3, 1, 1, 1)),
                // CONV5's trailing max-pool is merged into the kernel.
                ("CONV5".into(), conv(13, 384, 256, 3, 1, 1, 2)),
                (
                    "FC6".into(),
                    Layer::Fc(FcLayer {
                        inputs: 9216,
                        outputs: 4096,
                    }),
                ),
                (
                    "FC7".into(),
                    Layer::Fc(FcLayer {
                        inputs: 4096,
                        outputs: 4096,
                    }),
                ),
                (
                    "FC8".into(),
                    Layer::Fc(FcLayer {
                        inputs: 4096,
                        outputs: 1000,
                    }),
                ),
            ],
        )
    }

    /// VGG16 (Simonyan & Zisserman, 2014) with the paper's kernel granularity:
    /// the max-pool after the last block (CONV13) is merged into the preceding
    /// convolution, leaving the 17 pipeline kernels of Table 3 / Fig. 6
    /// (POOL2, POOL4, POOL7 and POOL10 stay separate).
    pub fn vgg16() -> Self {
        let conv = |input_size, input_channels, output_channels, merged_pool| {
            Layer::Conv(ConvLayer {
                input_size,
                input_channels,
                output_channels,
                kernel_size: 3,
                stride: 1,
                padding: 1,
                merged_pool,
            })
        };
        let pool = |input_size, channels| {
            Layer::Pool(PoolLayer {
                input_size,
                channels,
                window: 2,
                stride: 2,
            })
        };
        CnnNetwork::new(
            "VGG16",
            vec![
                ("CONV1".into(), conv(224, 3, 64, 1)),
                ("CONV2".into(), conv(224, 64, 64, 1)),
                ("POOL2".into(), pool(224, 64)),
                ("CONV3".into(), conv(112, 64, 128, 1)),
                ("CONV4".into(), conv(112, 128, 128, 1)),
                ("POOL4".into(), pool(112, 128)),
                ("CONV5".into(), conv(56, 128, 256, 1)),
                ("CONV6".into(), conv(56, 256, 256, 1)),
                ("CONV7".into(), conv(56, 256, 256, 1)),
                ("POOL7".into(), pool(56, 256)),
                ("CONV8".into(), conv(28, 256, 512, 1)),
                ("CONV9".into(), conv(28, 512, 512, 1)),
                ("CONV10".into(), conv(28, 512, 512, 1)),
                ("POOL10".into(), pool(28, 512)),
                ("CONV11".into(), conv(14, 512, 512, 1)),
                ("CONV12".into(), conv(14, 512, 512, 1)),
                // Block 5's trailing max-pool is merged into CONV13 (the paper
                // lists no POOL13 kernel).
                ("CONV13".into(), conv(14, 512, 512, 2)),
                (
                    "FC14".into(),
                    Layer::Fc(FcLayer {
                        inputs: 25088,
                        outputs: 4096,
                    }),
                ),
                (
                    "FC15".into(),
                    Layer::Fc(FcLayer {
                        inputs: 4096,
                        outputs: 4096,
                    }),
                ),
                (
                    "FC16".into(),
                    Layer::Fc(FcLayer {
                        inputs: 4096,
                        outputs: 1000,
                    }),
                ),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alexnet_structure() {
        let net = CnnNetwork::alexnet();
        assert_eq!(net.name(), "AlexNet");
        // Eight pipeline kernels as in Table 2, plus three FC layers.
        assert_eq!(net.num_pipeline_kernels(), 8);
        assert_eq!(net.layers().len(), 11);
        // AlexNet's convolutional MAC count is ≈ 1.08 GMACs when the original
        // two-group convolutions are modeled as dense (single-group) layers.
        let gmacs = net.conv_macs() / 1e9;
        assert!((1.0..1.2).contains(&gmacs), "GMACs = {gmacs}");
    }

    #[test]
    fn vgg16_structure() {
        let net = CnnNetwork::vgg16();
        assert_eq!(net.num_pipeline_kernels(), 17);
        // VGG16's convolutional MAC count is ≈ 15.3 GMACs; merging one pool
        // into CONV7 does not change MACs.
        let gmacs = net.conv_macs() / 1e9;
        assert!((14.0..16.5).contains(&gmacs), "GMACs = {gmacs}");
    }

    #[test]
    fn pipeline_layers_exclude_fc() {
        let net = CnnNetwork::vgg16();
        assert!(net
            .pipeline_layers()
            .all(|(name, _)| !name.starts_with("FC")));
    }
}
