//! The Table I model zoo: every benchmark the paper runs, with its task,
//! input resolution, pre-/post-processing chain and framework/dtype
//! support matrix.

use aitax_tensor::DType;

use crate::archs;
use crate::graph::Graph;

/// Identifier for a zoo model (one row of Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ModelId {
    MobileNetV1,
    NasNetMobile,
    SqueezeNet,
    EfficientNetLite0,
    AlexNet,
    InceptionV4,
    InceptionV3,
    DeeplabV3MobileNetV2,
    SsdMobileNetV2,
    PoseNet,
    MobileBert,
}

impl ModelId {
    /// All models in Table I row order.
    pub const ALL: [ModelId; 11] = [
        ModelId::MobileNetV1,
        ModelId::NasNetMobile,
        ModelId::SqueezeNet,
        ModelId::EfficientNetLite0,
        ModelId::AlexNet,
        ModelId::InceptionV4,
        ModelId::InceptionV3,
        ModelId::DeeplabV3MobileNetV2,
        ModelId::SsdMobileNetV2,
        ModelId::PoseNet,
        ModelId::MobileBert,
    ];
}

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(Zoo::entry(*self).display_name)
    }
}

/// The ML task a model performs (Table I column 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MlTask {
    Classification,
    FaceRecognition,
    Segmentation,
    ObjectDetection,
    PoseEstimation,
    LanguageProcessing,
}

impl std::fmt::Display for MlTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MlTask::Classification => "Classification",
            MlTask::FaceRecognition => "Face Recognition",
            MlTask::Segmentation => "Segmentation",
            MlTask::ObjectDetection => "Object Detection",
            MlTask::PoseEstimation => "Pose Estimation",
            MlTask::LanguageProcessing => "Language Processing",
        };
        f.write_str(s)
    }
}

/// Pre-processing tasks (Table I column 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PreTask {
    Scale,
    Crop,
    Normalize,
    Rotate,
    Tokenize,
}

impl std::fmt::Display for PreTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PreTask::Scale => "scale",
            PreTask::Crop => "crop",
            PreTask::Normalize => "normalize",
            PreTask::Rotate => "rotate",
            PreTask::Tokenize => "tokenization",
        };
        f.write_str(s)
    }
}

/// Post-processing tasks (Table I column 5). Tasks marked `*` in the
/// paper apply to quantized models only ([`PostTask::Dequantize`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PostTask {
    TopK,
    Dequantize,
    MaskFlattening,
    CalculateKeypoints,
    ComputeLogits,
}

impl std::fmt::Display for PostTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PostTask::TopK => "topK",
            PostTask::Dequantize => "dequantization*",
            PostTask::MaskFlattening => "mask flattening",
            PostTask::CalculateKeypoints => "calculate keypoints",
            PostTask::ComputeLogits => "compute logits",
        };
        f.write_str(s)
    }
}

/// Which framework/dtype combinations a model supports (Table I's last
/// four columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SupportMatrix {
    /// NNAPI with FP32 weights.
    pub nnapi_fp32: bool,
    /// NNAPI with INT8 weights.
    pub nnapi_int8: bool,
    /// CPU (TFLite kernels) with FP32.
    pub cpu_fp32: bool,
    /// CPU with INT8.
    pub cpu_int8: bool,
}

impl SupportMatrix {
    /// Whether the engine/dtype pair is available.
    pub fn supports(&self, nnapi: bool, dtype: DType) -> bool {
        match (nnapi, dtype.is_quantized()) {
            (true, false) => self.nnapi_fp32,
            (true, true) => self.nnapi_int8,
            (false, false) => self.cpu_fp32,
            (false, true) => self.cpu_int8,
        }
    }
}

/// One row of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct ZooEntry {
    /// Model identifier.
    pub id: ModelId,
    /// Task category.
    pub task: MlTask,
    /// Display name as printed in the paper.
    pub display_name: &'static str,
    /// Input resolution (`None` for text models).
    pub resolution: Option<(usize, usize)>,
    /// Pre-processing chain.
    pub preprocess: &'static [PreTask],
    /// Post-processing chain.
    pub postprocess: &'static [PostTask],
    /// Framework/dtype support.
    pub support: SupportMatrix,
}

impl ZooEntry {
    /// Builds the FP32 operator graph for this model.
    pub fn build_graph(&self) -> Graph {
        self.build_graph_with(DType::F32)
    }

    /// Builds the operator graph in a specific numeric format.
    ///
    /// EfficientNet-Lite0's quantized variant is marked per-channel
    /// quantized — the weight layout SD845-era NNAPI drivers cannot place
    /// on the DSP (the paper's Figure 5 pathology).
    pub fn build_graph_with(&self, dtype: DType) -> Graph {
        let per_channel = self.id == ModelId::EfficientNetLite0 && dtype.is_quantized();
        let g = match self.id {
            ModelId::MobileNetV1 => archs::mobilenet_v1(dtype),
            ModelId::NasNetMobile => archs::nasnet_mobile(dtype),
            ModelId::SqueezeNet => archs::squeezenet(dtype),
            ModelId::EfficientNetLite0 => archs::efficientnet_lite0(dtype),
            ModelId::AlexNet => archs::alexnet(dtype),
            ModelId::InceptionV4 => archs::inception_v4(dtype),
            ModelId::InceptionV3 => archs::inception_v3(dtype),
            ModelId::DeeplabV3MobileNetV2 => archs::deeplab_v3_mnv2(dtype),
            ModelId::SsdMobileNetV2 => archs::ssd_mobilenet_v2(dtype),
            ModelId::PoseNet => archs::posenet(dtype),
            ModelId::MobileBert => archs::mobile_bert(dtype),
        };
        g.with_per_channel_quant(per_channel)
    }
}

const CLASSIFY_PRE: &[PreTask] = &[PreTask::Scale, PreTask::Crop, PreTask::Normalize];
const CLASSIFY_POST: &[PostTask] = &[PostTask::TopK, PostTask::Dequantize];

/// The Table I registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Zoo;

impl Zoo {
    /// Metadata for one model.
    pub fn entry(id: ModelId) -> ZooEntry {
        let s = |nnapi_fp32, nnapi_int8, cpu_fp32, cpu_int8| SupportMatrix {
            nnapi_fp32,
            nnapi_int8,
            cpu_fp32,
            cpu_int8,
        };
        match id {
            ModelId::MobileNetV1 => ZooEntry {
                id,
                task: MlTask::Classification,
                display_name: "MobileNet 1.0 v1",
                resolution: Some((224, 224)),
                preprocess: CLASSIFY_PRE,
                postprocess: CLASSIFY_POST,
                support: s(true, true, true, true),
            },
            ModelId::NasNetMobile => ZooEntry {
                id,
                task: MlTask::Classification,
                display_name: "NasNet Mobile",
                resolution: Some((331, 331)),
                preprocess: CLASSIFY_PRE,
                postprocess: CLASSIFY_POST,
                support: s(true, false, true, false),
            },
            ModelId::SqueezeNet => ZooEntry {
                id,
                task: MlTask::Classification,
                display_name: "SqueezeNet",
                resolution: Some((227, 227)),
                preprocess: CLASSIFY_PRE,
                postprocess: CLASSIFY_POST,
                support: s(true, false, true, false),
            },
            ModelId::EfficientNetLite0 => ZooEntry {
                id,
                task: MlTask::Classification,
                display_name: "EfficientNet-Lite0",
                resolution: Some((224, 224)),
                preprocess: CLASSIFY_PRE,
                postprocess: CLASSIFY_POST,
                support: s(true, true, true, true),
            },
            ModelId::AlexNet => ZooEntry {
                id,
                task: MlTask::Classification,
                display_name: "AlexNet",
                resolution: Some((256, 256)),
                preprocess: CLASSIFY_PRE,
                postprocess: CLASSIFY_POST,
                support: s(false, false, true, true),
            },
            ModelId::InceptionV4 => ZooEntry {
                id,
                task: MlTask::FaceRecognition,
                display_name: "Inception v4",
                resolution: Some((299, 299)),
                preprocess: CLASSIFY_PRE,
                postprocess: CLASSIFY_POST,
                support: s(true, true, true, true),
            },
            ModelId::InceptionV3 => ZooEntry {
                id,
                task: MlTask::FaceRecognition,
                display_name: "Inception v3",
                resolution: Some((299, 299)),
                preprocess: CLASSIFY_PRE,
                postprocess: CLASSIFY_POST,
                support: s(true, true, true, true),
            },
            ModelId::DeeplabV3MobileNetV2 => ZooEntry {
                id,
                task: MlTask::Segmentation,
                display_name: "Deeplab-v3 Mobilenet-v2",
                resolution: Some((513, 513)),
                preprocess: &[PreTask::Scale, PreTask::Normalize],
                postprocess: &[PostTask::MaskFlattening],
                support: s(true, false, true, false),
            },
            ModelId::SsdMobileNetV2 => ZooEntry {
                id,
                task: MlTask::ObjectDetection,
                display_name: "SSD MobileNet v2",
                resolution: Some((300, 300)),
                preprocess: CLASSIFY_PRE,
                postprocess: CLASSIFY_POST,
                support: s(true, true, true, true),
            },
            ModelId::PoseNet => ZooEntry {
                id,
                task: MlTask::PoseEstimation,
                display_name: "PoseNet",
                resolution: Some((224, 224)),
                preprocess: &[
                    PreTask::Scale,
                    PreTask::Crop,
                    PreTask::Normalize,
                    PreTask::Rotate,
                ],
                postprocess: &[PostTask::CalculateKeypoints],
                support: s(true, false, true, false),
            },
            ModelId::MobileBert => ZooEntry {
                id,
                task: MlTask::LanguageProcessing,
                display_name: "Mobile BERT",
                resolution: None,
                preprocess: &[PreTask::Tokenize],
                postprocess: &[PostTask::TopK, PostTask::ComputeLogits],
                support: s(true, false, true, false),
            },
        }
    }

    /// Every entry, in Table I row order.
    pub fn all() -> Vec<ZooEntry> {
        ModelId::ALL.iter().map(|&id| Self::entry(id)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_rows_like_table1() {
        assert_eq!(Zoo::all().len(), 11);
        assert_eq!(ModelId::ALL.len(), 11);
    }

    #[test]
    fn support_matrix_matches_table1() {
        // Spot-check the paper's Y/N grid.
        let m = Zoo::entry(ModelId::MobileNetV1).support;
        assert!(m.nnapi_fp32 && m.nnapi_int8 && m.cpu_fp32 && m.cpu_int8);
        let n = Zoo::entry(ModelId::NasNetMobile).support;
        assert!(n.nnapi_fp32 && !n.nnapi_int8 && n.cpu_fp32 && !n.cpu_int8);
        let a = Zoo::entry(ModelId::AlexNet).support;
        assert!(!a.nnapi_fp32 && !a.nnapi_int8 && a.cpu_fp32 && a.cpu_int8);
        let d = Zoo::entry(ModelId::DeeplabV3MobileNetV2).support;
        assert!(d.nnapi_fp32 && !d.nnapi_int8);
    }

    #[test]
    fn supports_maps_engine_dtype() {
        let m = Zoo::entry(ModelId::AlexNet).support;
        assert!(!m.supports(true, DType::F32));
        assert!(m.supports(false, DType::F32));
        assert!(m.supports(false, DType::I8));
    }

    #[test]
    fn resolutions_match_table1() {
        let expect = [
            (ModelId::MobileNetV1, Some((224, 224))),
            (ModelId::NasNetMobile, Some((331, 331))),
            (ModelId::SqueezeNet, Some((227, 227))),
            (ModelId::EfficientNetLite0, Some((224, 224))),
            (ModelId::AlexNet, Some((256, 256))),
            (ModelId::InceptionV4, Some((299, 299))),
            (ModelId::InceptionV3, Some((299, 299))),
            (ModelId::DeeplabV3MobileNetV2, Some((513, 513))),
            (ModelId::SsdMobileNetV2, Some((300, 300))),
            (ModelId::PoseNet, Some((224, 224))),
            (ModelId::MobileBert, None),
        ];
        for (id, res) in expect {
            assert_eq!(Zoo::entry(id).resolution, res, "{id:?}");
        }
    }

    #[test]
    fn posenet_is_the_only_rotator() {
        for e in Zoo::all() {
            let rotates = e.preprocess.contains(&PreTask::Rotate);
            assert_eq!(rotates, e.id == ModelId::PoseNet, "{:?}", e.id);
        }
    }

    #[test]
    fn bert_tokenizes_instead_of_scaling() {
        let e = Zoo::entry(ModelId::MobileBert);
        assert_eq!(e.preprocess, &[PreTask::Tokenize]);
        assert!(e.resolution.is_none());
    }

    #[test]
    fn nnapi_int8_set_matches_fig_targets() {
        // Quantized NNAPI models (the Fig. 4 quantized series).
        let ids: Vec<ModelId> = Zoo::all()
            .iter()
            .filter(|e| e.support.supports(true, DType::I8))
            .map(|e| e.id)
            .collect();
        assert_eq!(
            ids,
            vec![
                ModelId::MobileNetV1,
                ModelId::EfficientNetLite0,
                ModelId::InceptionV4,
                ModelId::InceptionV3,
                ModelId::SsdMobileNetV2,
            ]
        );
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(ModelId::MobileNetV1.to_string(), "MobileNet 1.0 v1");
        assert_eq!(
            ModelId::DeeplabV3MobileNetV2.to_string(),
            "Deeplab-v3 Mobilenet-v2"
        );
    }

    #[test]
    fn graphs_build_for_all_entries() {
        for e in Zoo::all() {
            let g = e.build_graph();
            assert!(g.total_macs() > 0, "{:?}", e.id);
            if let Some((h, w)) = e.resolution {
                assert_eq!(g.input_elements(), (h * w * 3) as u64, "{:?}", e.id);
            }
        }
    }
}
