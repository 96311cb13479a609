"""End-to-end orchestration: manifests, training, fused classification, reports.

Each image is decoded, segmented and described once. Resubstitution eval
reuses the decision profiles and stage-1 supports that training computed for
the templates, so only the stage-2 fusion runs again. Entries are
sorted by (label, content digest, path) and failures by path, so manifest
order cannot influence any result; per-query random stages are seeded from
the global seed XOR the query image's digest for the same reason.
PipelineConfig and its parts check themselves when built; stages check the rest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import ann as ann_mod
from . import gknn as gknn_mod
from . import svm as svm_mod
from .dataset import CLASS_CATALOG, LabeledSet, load_manifest, one_hot
from .errors import DataError, ParameterError, ShapeError, is_integer
from .features import FeatureVector, MomentProductSpec, cmi_features, elm_features, gfd_features
from .fusion import ClassSupport, DecisionTemplates, compute_templates, fuse
from .preprocess import segment_image
from .raster import GrayImage, GrayscaleCoefficients, decode_image, to_grayscale

EXTRACTORS = ("cmi", "gfd", "elm")
CLASSIFIERS = ("ann", "gknn", "svm")

_STD_FLOOR = 1e-12


@dataclass(frozen=True)
class PipelineConfig:
    grayscale: GrayscaleCoefficients = field(default_factory=GrayscaleCoefficients)
    median_window: int = 3
    gfd_radial: int = 4
    gfd_angular: int = 9
    elm_max_order: int = 5
    cmi_basis: tuple | None = None
    ann_hidden: int = 16
    ann_beta: float = 0.5
    ann_epochs: int = 200
    gknn_k: int = 3
    svm_a: float = 1.0
    svm_tol: float = 1e-3
    svm_max_iter: int = 1000
    extractors: tuple[str, ...] = EXTRACTORS
    classifiers: tuple[str, ...] = CLASSIFIERS

    def __post_init__(self):
        for key, names, allowed in (("extractors", self.extractors, EXTRACTORS),
                                    ("classifiers", self.classifiers, CLASSIFIERS)):
            if (not names or any(n not in allowed for n in names)
                    or len(set(names)) != len(names)):
                raise ParameterError(f"{key} must be a nonempty subset of {allowed}, "
                                     f"each name once")

    @staticmethod
    def from_dict(doc: dict) -> "PipelineConfig":
        """Config from a to_dict-shaped document: absent keys keep their defaults,
        and an unknown key is a ParameterError, so a typo cannot train silently;
        so is a value of the wrong type, named by its key. Integer keys take only
        JSON integers and float keys only JSON numbers; booleans are neither."""
        if not isinstance(doc, dict):
            raise ParameterError("config must be a JSON object")
        merged = PipelineConfig().to_dict()
        for key, value in doc.items():
            if key not in merged:
                raise ParameterError(f"unknown config key {key!r}")
            if not isinstance(merged[key], dict):
                merged[key] = value
                continue
            if not isinstance(value, dict):
                raise ParameterError(f"config key {key!r} must be an object")
            for name in value:
                if name not in merged[key]:
                    raise ParameterError(f"unknown config key {key + '.' + name!r}")
            merged[key].update(value)

        def typed(kind, key):
            section, _, name = key.partition(".")
            value = merged[section][name] if name else merged[section]
            exact = {int: int, float: (int, float)}.get(kind, object)
            try:
                if isinstance(value, bool) or not isinstance(value, exact):
                    raise TypeError
                return kind(value)
            except (TypeError, ValueError, OverflowError):
                raise ParameterError(
                    f"config key {key!r} has a value of the wrong type: {value!r}") from None

        return PipelineConfig(
            grayscale=GrayscaleCoefficients(
                typed(float, "grayscale.alpha"), typed(float, "grayscale.beta"),
                typed(float, "grayscale.gamma")),
            median_window=typed(int, "median_window"),
            gfd_radial=typed(int, "gfd.radial"), gfd_angular=typed(int, "gfd.angular"),
            elm_max_order=typed(int, "elm.max_order"),
            cmi_basis=typed(_cmi_basis, "cmi.basis"),
            ann_hidden=typed(int, "ann.hidden"), ann_beta=typed(float, "ann.beta"),
            ann_epochs=typed(int, "ann.epochs"),
            gknn_k=typed(int, "gknn.k"),
            svm_a=typed(float, "svm.A"), svm_tol=typed(float, "svm.tol"),
            svm_max_iter=typed(int, "svm.max_iter"),
            extractors=typed(tuple, "extractors"), classifiers=typed(tuple, "classifiers"))

    def to_dict(self) -> dict:
        return {
            "grayscale": {"alpha": self.grayscale.alpha, "beta": self.grayscale.beta,
                          "gamma": self.grayscale.gamma},
            "median_window": self.median_window,
            "gfd": {"radial": self.gfd_radial, "angular": self.gfd_angular},
            "elm": {"max_order": self.elm_max_order},
            "cmi": {"basis": None if self.cmi_basis is None else
                    [[list(f) for f in spec.factors] for spec in self.cmi_basis]},
            "ann": {"hidden": self.ann_hidden, "beta": self.ann_beta, "epochs": self.ann_epochs},
            "gknn": {"k": self.gknn_k},
            "svm": {"A": self.svm_a, "tol": self.svm_tol, "max_iter": self.svm_max_iter},
            "extractors": list(self.extractors),
            "classifiers": list(self.classifiers),
        }


def load_config(path: str | Path | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    try:
        doc = json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParameterError(f"{path}: config is not valid JSON: {exc}") from None
    return PipelineConfig.from_dict(doc)


def _cmi_basis(doc) -> tuple | None:
    """A config's cmi.basis as moment products; None keeps the default."""
    if doc is None:
        return None
    return tuple(MomentProductSpec(tuple(tuple(f) for f in spec)) for spec in doc)


def content_digest(raw: bytes) -> int:
    return int.from_bytes(hashlib.sha256(raw).digest()[:8], "big")


def load_gray(raw: bytes, config: PipelineConfig) -> GrayImage:
    img = decode_image(raw)
    if isinstance(img, GrayImage):
        return img
    return to_grayscale(img, config.grayscale)


def largest_shape(img: GrayImage, config: PipelineConfig) -> GrayImage:
    """Segment and return the biggest foreground shape's masked crop."""
    seg = segment_image(img, median_side=config.median_window)
    return seg.crop(int(np.argmax(seg.pixel_counts[:-1]))).image


def extract_one(img: GrayImage, extractor: str, config: PipelineConfig) -> FeatureVector:
    if extractor == "cmi":
        return cmi_features(img.pixels, basis=config.cmi_basis)
    if extractor == "gfd":
        return gfd_features(img.pixels, radial_count=config.gfd_radial,
                            angular_count=config.gfd_angular)
    if extractor == "elm":
        return elm_features(img.pixels, max_order=config.elm_max_order)
    raise ParameterError(f"unknown extractor {extractor!r}")


@dataclass(frozen=True)
class Family:
    """One extractor's standardiser, classifiers and stage-1 templates.

    ``models`` maps each configured classifier, in config order, to an
    MlpModel (ann), an SvmModel (svm) or, for gknn, the standardised training
    set and its MahalanobisContext.
    """

    mean: np.ndarray
    std: np.ndarray
    models: dict
    templates: DecisionTemplates | None


@dataclass(frozen=True)
class PipelineModels:
    class_names: tuple[str, ...]
    config: PipelineConfig
    seed: int
    families: dict  # extractor -> Family, in config order
    stage2_templates: DecisionTemplates | None


def _standardize(rows: np.ndarray):
    mean = rows.mean(axis=0)
    std = rows.std(axis=0)
    std = np.where(std < _STD_FLOOR, 1.0, std)
    return (rows - mean) / std, mean, std


def _profiles(models: PipelineModels, features: dict, digest: int) -> list[np.ndarray]:
    """One profile per extractor (rows in config order): a support row per classifier
    on the extractor's standardised feature vector."""
    profiles = []
    for ext, fam in models.families.items():
        x = (features[ext] - fam.mean) / fam.std
        rows = []
        for clf, model in fam.models.items():
            if clf == "ann":
                rows.append(ann_mod.predict_proba(model, x)[0])
            elif clf == "gknn":
                data, context = model
                rows.append(gknn_mod.gknn_classify(x, data, models.config.gknn_k,
                                                   rng_seed=models.seed ^ digest,
                                                   context=context))
            else:
                rows.append(svm_mod.predict_proba(model, x))
        profiles.append(np.stack(rows))
    return profiles


def _stage1(models: PipelineModels, profiles: list[np.ndarray]) -> list[ClassSupport]:
    """Fuse each extractor's classifier rows against its stage-1 templates."""
    return [fuse(profile, models.families[ext].templates)
            for ext, profile in zip(models.config.extractors, profiles)]


def _decide(models: PipelineModels, profiles: list[np.ndarray], stage1: list[ClassSupport]):
    """Stage-2 fusion of one image's stage-1 supports: (final, stage1, per-pair argmax)."""
    per_pair = {}
    for ext, profile in zip(models.config.extractors, profiles):
        for row, clf in zip(profile, models.config.classifiers):
            per_pair[(ext, clf)] = int(np.argmax(row))
    final = fuse(np.stack([s.support for s in stage1]), models.stage2_templates)
    return final, stage1, per_pair


@dataclass
class _Entry:
    path: str
    label: str
    digest: int
    features: dict | None = None
    profiles: list | None = None
    stage1: list | None = None


def _prepare_entries(entries, config, base_dir, failures):
    prepared = []
    for item in entries:
        path = Path(base_dir) / item["path"] if base_dir else Path(item["path"])
        try:
            raw = path.read_bytes()
        except OSError as exc:
            failures.append({"path": item["path"], "stage": "read", "error": str(exc)})
            continue
        ent = _Entry(item["path"], item["label"], content_digest(raw))
        try:
            crop = largest_shape(load_gray(raw, config), config)
            ent.features = {ext: extract_one(crop, ext, config).values
                            for ext in config.extractors}
        except (DataError, ShapeError) as exc:
            failures.append({"path": item["path"], "stage": "preprocess", "error": str(exc)})
            continue
        prepared.append(ent)
    prepared.sort(key=lambda e: (e.label, e.digest, e.path))
    failures.sort(key=lambda f: f["path"])
    return prepared


def train_models(manifest_entries, config: PipelineConfig, seed: int = 0,
                 base_dir: str | Path | None = None):
    """Fit the configured classifiers on each feature family, then both template stages.

    Returns (PipelineModels, prepared entries, failures).
    """
    if not (is_integer(seed) and seed >= 0):
        raise ParameterError(f"seed must be an integer >= 0, got {seed!r}")
    failures: list[dict] = []
    prepared = _prepare_entries(manifest_entries, config, base_dir, failures)
    if not prepared:
        raise ParameterError("no manifest entry survived preprocessing")
    class_names = tuple(c for c in CLASS_CATALOG if any(e.label == c for e in prepared))
    for ent in prepared:
        if ent.label not in class_names:
            raise ParameterError(f"label {ent.label!r} not in catalog")
    if len(class_names) < 2:
        raise ParameterError("training needs at least 2 classes present")
    labels = np.array([class_names.index(e.label) for e in prepared])
    targets = one_hot(labels, len(class_names))

    families = {}
    for ext in config.extractors:
        scaled, mean, std = _standardize(np.stack([e.features[ext] for e in prepared]))
        data = LabeledSet(scaled, targets)
        fitted = {}
        for clf in config.classifiers:
            if clf == "ann":
                fitted[clf] = ann_mod.train(data, hidden=config.ann_hidden,
                                            learning_rate=config.ann_beta,
                                            epochs=config.ann_epochs, rng_seed=seed)
            elif clf == "gknn":
                fitted[clf] = (data, gknn_mod.build_context(data.inputs))
            else:
                fitted[clf] = svm_mod.train_svm(data, regularization=config.svm_a,
                                                tol=config.svm_tol, max_iter=config.svm_max_iter)
        families[ext] = Family(mean, std, fitted, None)
    models = PipelineModels(class_names, config, seed, families, None)

    # profiles and stage-1 supports of the standardised training rows feed
    # both template stages and eval
    for ent in prepared:
        ent.profiles = _profiles(models, ent.features, ent.digest)
    models = replace(models, families={
        ext: replace(fam, templates=compute_templates([e.profiles[j] for e in prepared],
                                                      labels, len(class_names)))
        for j, (ext, fam) in enumerate(families.items())})
    for ent in prepared:
        ent.stage1 = _stage1(models, ent.profiles)
    stage2_profiles = [np.stack([s.support for s in e.stage1]) for e in prepared]
    models = replace(models, stage2_templates=compute_templates(stage2_profiles, labels,
                                                                len(class_names)))
    return models, prepared, failures


def classify_image(models: PipelineModels, img: GrayImage, digest: int):
    """Two-stage fused decision for one already-cropped shape image.

    Returns (final ClassSupport, stage1 supports, per-pair argmax dict).
    """
    features = {ext: extract_one(img, ext, models.config).values
                for ext in models.config.extractors}
    profiles = _profiles(models, features, digest)
    return _decide(models, profiles, _stage1(models, profiles))


def classify_segments(models: PipelineModels, img: GrayImage, digest: int) -> list[dict]:
    """Classify every foreground shape of a composite image separately."""
    seg = segment_image(img, median_side=models.config.median_window)
    out = []
    # largest first; a stable sort keeps the lower label first on a tie
    for i in np.argsort(-seg.pixel_counts[:-1], kind="stable").tolist():
        crop = seg.crop(i)
        final, _, _ = classify_image(models, crop.image, digest ^ i)
        out.append({"shape": i, "bbox": list(crop.bbox),
                    "predicted": models.class_names[final.predicted],
                    "support": final.support.tolist()})
    return out


def run_pipeline(manifest_entries, config: PipelineConfig | None = None, seed: int = 0,
                 base_dir: str | Path | None = None):
    """Train on the manifest and evaluate by resubstitution.

    Returns (PipelineModels, report dict).
    """
    config = config or PipelineConfig()
    models, prepared, failures = train_models(manifest_entries, config, seed, base_dir)
    k = len(models.class_names)
    exts, clfs = config.extractors, config.classifiers

    pair_confusion = {ext: {clf: np.zeros((k, k), dtype=int) for clf in clfs} for ext in exts}
    stage1_hits = {ext: 0 for ext in exts}
    final_confusion = np.zeros((k, k), dtype=int)
    predictions = []
    for ent in prepared:
        truth = models.class_names.index(ent.label)
        final, stage1, per_pair = _decide(models, ent.profiles, ent.stage1)
        for (ext, clf), pred in per_pair.items():
            pair_confusion[ext][clf][truth, pred] += 1
        for ext, sup in zip(exts, stage1):
            stage1_hits[ext] += int(sup.predicted == truth)
        final_confusion[truth, final.predicted] += 1
        predictions.append({"path": ent.path, "label": ent.label,
                            "predicted": models.class_names[final.predicted],
                            "support": final.support.tolist()})

    n = len(prepared)
    per_class = {}
    for j, name in enumerate(models.class_names):
        count = int(final_confusion[j].sum())
        fn = count - int(final_confusion[j, j])
        fp = int(final_confusion[:, j].sum()) - int(final_confusion[j, j])
        per_class[name] = {
            "false_negative_rate": fn / count if count else 0.0,
            "false_positive_rate": fp / (n - count) if n - count else 0.0,
        }
    report = {
        "class_names": list(models.class_names),
        "n_images": n,
        "failures": failures,
        "per_pair_confusion": {ext: {clf: pair_confusion[ext][clf].tolist() for clf in clfs}
                               for ext in exts},
        "per_extractor_fused_accuracy": {ext: stage1_hits[ext] / n for ext in exts},
        "final_accuracy": float(np.trace(final_confusion)) / n,
        "final_confusion": final_confusion.tolist(),
        "per_class_rates": per_class,
        "svm_converged": {ext: fam.models["svm"].converged
                          for ext, fam in models.families.items() if "svm" in fam.models},
        "predictions": predictions,
        "seed": seed,
        "config": config.to_dict(),
    }
    return models, report


def run_pipeline_from_manifest(manifest_path: str | Path, config=None, seed: int = 0):
    entries = load_manifest(manifest_path)
    return run_pipeline(entries, config, seed, base_dir=Path(manifest_path).parent)


def _templates_to_dict(t: DecisionTemplates) -> dict:
    return {"matrices": t.matrices.tolist(), "counts": t.counts.tolist()}


def _model_to_dict(clf: str, model) -> dict:
    if clf == "ann":
        return {"layers": list(model.layers), "weights": [w.tolist() for w in model.weights],
                "biases": [b.tolist() for b in model.biases], "loss_trace": list(model.loss_trace)}
    if clf == "gknn":
        return {"inputs": model[0].inputs.tolist(), "targets": model[0].targets.tolist()}
    return {"weights": model.weights.tolist(), "converged": model.converged}


def save_models(models: PipelineModels, directory: str | Path) -> None:
    """Write the whole model to pipeline.json: config, class names, seed, stage-2
    templates, and per family its mean, std, stage-1 templates and classifiers."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "class_names": list(models.class_names),
        "seed": models.seed,
        "config": models.config.to_dict(),
        "families": {ext: {"mean": fam.mean.tolist(), "std": fam.std.tolist(),
                           "templates": _templates_to_dict(fam.templates),
                           "models": {clf: _model_to_dict(clf, model)
                                      for clf, model in fam.models.items()}}
                     for ext, fam in models.families.items()},
        "stage2_templates": _templates_to_dict(models.stage2_templates),
    }
    (directory / "pipeline.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _expect_shape(what: str, actual: tuple, expected: tuple) -> None:
    if tuple(actual) != tuple(expected):
        raise ShapeError(f"{what} has shape {tuple(actual)}, expected {tuple(expected)}")


def load_models(directory: str | Path) -> PipelineModels:
    """Read the pipeline.json that save_models wrote; a malformed one is a DataError.

    Only the configured classifiers' records are read. Each model's input
    dimension and class count must agree with its family's mean and the class
    names, so a mismatched record fails here, named, not at the first query.
    """
    path = Path(directory) / "pipeline.json"
    try:
        meta = json.loads(path.read_text())
        config = PipelineConfig.from_dict(meta["config"])
        class_names, exts = tuple(meta["class_names"]), config.extractors
        k = len(class_names)
        stage2 = DecisionTemplates(**meta["stage2_templates"])
        _expect_shape("stage2_templates", stage2.matrices.shape, (k, len(exts), k))
        seed = meta["seed"]
        if not (is_integer(seed) and seed >= 0):
            raise ParameterError(f"seed must be an integer >= 0, got {seed!r}")
        families = {}
        for ext in exts:
            doc = meta["families"][ext]
            mean = np.asarray(doc["mean"], dtype=np.float64)
            std = np.asarray(doc["std"], dtype=np.float64)
            dim = mean.size
            _expect_shape(f"families[{ext}].mean", mean.shape, (dim,))
            _expect_shape(f"families[{ext}].std", std.shape, (dim,))
            templates = DecisionTemplates(**doc["templates"])
            _expect_shape(f"families[{ext}].templates", templates.matrices.shape,
                          (k, len(config.classifiers), k))
            fitted = {}
            for clf in config.classifiers:
                record, what = doc["models"][clf], f"families[{ext}].models[{clf}]"
                if clf == "ann":
                    ann = fitted[clf] = ann_mod.MlpModel(
                        tuple(record["layers"]), tuple(record["weights"]),
                        tuple(record["biases"]), tuple(record["loss_trace"]))
                    _expect_shape(f"{what} layers (input, output)",
                                  (ann.layers[0], ann.layers[-1]), (dim, k))
                elif clf == "gknn":
                    data = LabeledSet(record["inputs"], record["targets"])
                    _expect_shape(f"{what}.inputs", data.inputs.shape, (data.n, dim))
                    _expect_shape(f"{what}.targets", data.targets.shape, (data.n, k))
                    fitted[clf] = (data, gknn_mod.build_context(data.inputs))
                else:
                    svm = fitted[clf] = svm_mod.SvmModel(record["weights"], record["converged"])
                    _expect_shape(f"{what}.weights", svm.weights.shape, (dim, k))
            families[ext] = Family(mean, std, fitted, templates)
    except OSError as exc:
        raise DataError(f"{path}: cannot read model file ({exc.strerror})") from exc
    except (AttributeError, KeyError, TypeError, ValueError, ParameterError, ShapeError) as exc:
        raise DataError(f"{path}: malformed model file ({type(exc).__name__}: {exc})") from exc
    return PipelineModels(class_names, config, seed, families, stage2)
