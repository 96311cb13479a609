"""Shape classification toolkit: raster codec, segmentation, invariant
features, three classifiers and decision-template fusion.

``import finspect`` loads no submodule: each public name is imported from
its submodule on first use, so a name from ``preprocess``, ``features`` or
``pipeline`` brings in scipy and the others only numpy. A name is looked up
in its submodule on every access rather than cached here, so whatever the
submodule holds now (a patched or restored function) is what
``finspect.<name>`` returns.
"""

import importlib

_SUBMODULE_NAMES = {
    "errors": ("BasisError DataError DegenerateBeliefError DegenerateHistogramError "
               "DegeneratePopulationError EmptyBackgroundError EmptyForegroundError "
               "FinspectError ImageTooSmallError ParameterError PnmDecodeError ShapeError "
               "SolverError TrainingDivergedError ZeroMassError"),
    "raster": ("BinaryImage GrayImage GrayscaleCoefficients RgbImage decode_image encode_pgm "
               "to_grayscale"),
    "preprocess": ("OtsuResult Segmentation ShapeCrop binarize derive_seeds histogram256 "
                   "median_filter otsu_threshold random_walker_segment segment_image"),
    "features": ("DEFAULT_CMI_BASIS FeatureVector MomentProductSpec centroid cmi_features "
                 "complex_moment elm_features geometric_moment gfd_features legendre_poly"),
    "dataset": "CLASS_CATALOG LabeledSet load_manifest one_hot save_manifest",
    "ann": "MlpModel backprop cross_entropy feedforward sigmoid",
    "gknn": ("MahalanobisContext build_context chromosome_width crossover evolve "
             "gknn_classify mahalanobis mutate"),
    "svm": ("SvmModel confidence dual_objective empirical_error kernel_linear train_svm "
            "two_point_line"),
    "fusion": "ClassSupport DecisionTemplates belief compute_templates fuse proximity",
    "synth": "SHAPE_CLASS SyntheticShapeSpec generate_synthetic",
    "pipeline": ("Family PipelineConfig PipelineModels classify_image classify_segments "
                 "load_models run_pipeline run_pipeline_from_manifest save_models "
                 "train_models"),
}

# export name -> the submodule that defines it under that name
_EXPORTS = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names.split()}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULE_NAMES:  # ``finspect.pipeline`` after a bare ``import finspect``
        return importlib.import_module(f".{name}", __name__)
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULE_NAMES) | set(_EXPORTS))
