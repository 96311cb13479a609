"""Shape classification toolkit: raster codec, segmentation, invariant
features, three classifiers and decision-template fusion."""

from .errors import (BasisError, DataError, DegenerateBeliefError, DegenerateHistogramError,
                     DegeneratePopulationError, EmptyBackgroundError, EmptyForegroundError,
                     FinspectError, ImageTooSmallError, ParameterError, PnmDecodeError,
                     ShapeError, SolverError, TrainingDivergedError, ZeroMassError)
from .raster import (BinaryImage, GrayImage, GrayscaleCoefficients, RgbImage, decode_image,
                     encode_pgm, to_grayscale)
from .preprocess import (OtsuResult, Segmentation, ShapeCrop, binarize, build_pixel_graph,
                         derive_seeds, histogram256, median_filter, otsu_threshold,
                         random_walker_segment, segment_image)
from .features import (DEFAULT_CMI_BASIS, FeatureVector, MomentProductSpec, centroid,
                       cmi_features, complex_moment, elm_features, geometric_moment,
                       gfd_features, legendre_poly)
from .dataset import CLASS_CATALOG, LabeledSet, load_manifest, one_hot, save_manifest
from .ann import MlpModel, TrainConfig, backprop, cross_entropy, feedforward, sigmoid
from .ann import predict as ann_predict
from .ann import predict_proba as ann_predict_proba
from .ann import train as ann_train
from .gknn import (MahalanobisContext, build_context, chromosome_width, crossover, evolve,
                   gknn_classify, mahalanobis, mutate)
from .svm import (SvmModel, confidence, dual_objective, empirical_error, kernel_linear,
                  train_svm, two_point_line)
from .svm import predict as svm_predict
from .svm import predict_proba as svm_predict_proba
from .fusion import ClassSupport, DecisionTemplates, belief, compute_templates, fuse, proximity
from .synth import SHAPE_CLASS, SyntheticShapeSpec, generate_synthetic
from .pipeline import (Family, PipelineConfig, PipelineModels, classify_image,
                       classify_segments, load_models, run_pipeline, run_pipeline_from_manifest,
                       save_models, train_models)

__version__ = "0.1.0"
