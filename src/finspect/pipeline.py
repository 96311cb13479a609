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
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ann as ann_mod
from . import gknn as gknn_mod
from . import svm as svm_mod
from .dataset import CLASS_CATALOG, LabeledSet, load_manifest, one_hot
from .errors import DataError, ParameterError, ShapeError, is_integer, readonly
from .features import FeatureVector, MomentProductSpec, cmi_features, elm_features, gfd_features
from .fusion import ClassSupport, DecisionTemplates, compute_templates, fuse
from .preprocess import segment_image
from .raster import GrayImage, GrayscaleCoefficients, decode_image, to_grayscale

EXTRACTORS = ("cmi", "gfd", "elm")


@dataclass(frozen=True)
class _Classifier:
    """One classifier's functions; each calls its module's by attribute, so patches apply."""

    fit: Callable        # (LabeledSet, PipelineConfig, seed) -> model
    score: Callable      # (model, standardised x, PipelineConfig, seed) -> support row
    to_dict: Callable    # model -> its record in pipeline.json
    from_dict: Callable  # record -> model
    sizes: Callable      # model -> (input dimension, class count)


_CLASSIFIERS = {
    "ann": _Classifier(
        fit=lambda data, config, seed: ann_mod.train(
            data, hidden=config.ann_hidden, learning_rate=config.ann_beta,
            epochs=config.ann_epochs, rng_seed=seed),
        score=lambda model, x, config, seed: ann_mod.predict_proba(model, x)[0],
        to_dict=lambda m: {"layers": list(m.layers), "weights": [w.tolist() for w in m.weights],
                           "biases": [b.tolist() for b in m.biases],
                           "loss_trace": list(m.loss_trace)},
        from_dict=lambda r: ann_mod.MlpModel(tuple(r["layers"]), tuple(r["weights"]),
                                             tuple(r["biases"]), tuple(r["loss_trace"])),
        sizes=lambda m: (m.layers[0], m.layers[-1])),
    "gknn": _Classifier(  # the standardised training set and its MahalanobisContext
        fit=lambda data, *_: (data, gknn_mod.build_context(data.inputs)),
        score=lambda model, x, config, seed: gknn_mod.gknn_classify(
            x, model[0], config.gknn_k, rng_seed=seed, context=model[1]),
        to_dict=lambda m: {"inputs": m[0].inputs.tolist(), "targets": m[0].targets.tolist()},
        from_dict=lambda r: _CLASSIFIERS["gknn"].fit(LabeledSet(r["inputs"], r["targets"])),
        sizes=lambda m: (m[0].inputs.shape[1], m[0].n_classes)),
    "svm": _Classifier(
        fit=lambda data, config, seed: svm_mod.train_svm(
            data, regularization=config.svm_a, tol=config.svm_tol, max_iter=config.svm_max_iter),
        score=lambda model, x, config, seed: svm_mod.predict_proba(model, x),
        to_dict=lambda m: {"weights": m.weights.tolist(), "converged": m.converged},
        from_dict=lambda r: svm_mod.SvmModel(r["weights"], r["converged"]),
        sizes=lambda m: m.weights.shape),
}
CLASSIFIERS = tuple(_CLASSIFIERS)

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
        """Config from a to_dict-shaped document; absent keys keep their defaults. Each
        key takes the JSON type of its default in to_dict: an integer a JSON integer, a
        float any JSON number, a list an array, an object an object read the same way,
        and cmi.basis (null) null or what _cmi_basis reads; no boolean passes. An unknown
        key or a wrong type is a ParameterError naming its key, so a typo cannot train."""
        c = _read_like(PipelineConfig().to_dict(), doc)
        return PipelineConfig(
            grayscale=GrayscaleCoefficients(**c["grayscale"]), median_window=c["median_window"],
            gfd_radial=c["gfd"]["radial"], gfd_angular=c["gfd"]["angular"],
            elm_max_order=c["elm"]["max_order"], cmi_basis=c["cmi"]["basis"], gknn_k=c["gknn"]["k"],
            ann_hidden=c["ann"]["hidden"], ann_beta=c["ann"]["beta"], ann_epochs=c["ann"]["epochs"],
            svm_a=c["svm"]["A"], svm_tol=c["svm"]["tol"], svm_max_iter=c["svm"]["max_iter"],
            extractors=tuple(c["extractors"]), classifiers=tuple(c["classifiers"]))

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


def _read_like(default, value, key: str = ""):
    """value read as the JSON type of default, by the rule from_dict states; key is
    its dotted name in the config, empty for the whole document."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ParameterError(f"config key {key!r} must be an object" if key
                                 else "config must be a JSON object")
        out = dict(default)
        for name, item in value.items():
            path = f"{key}.{name}" if key else name
            if name not in default:
                raise ParameterError(f"unknown config key {path!r}")
            out[name] = _read_like(default[name], item, path)
        return out
    kind = (int, float) if isinstance(default, float) else type(default)
    try:
        if isinstance(value, bool) or not (default is None or isinstance(value, kind)):
            raise TypeError
        return _cmi_basis(value) if default is None else type(default)(value)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(
            f"config key {key!r} has a value of the wrong type: {value!r}") from None


def _cmi_basis(doc) -> tuple | None:
    """A config's cmi.basis as moment products; None keeps the default. A factor that
    is not an array of three numbers is a TypeError; MomentProductSpec checks the rest."""
    if doc is None:
        return None
    for f in (f for spec in doc for f in spec):
        if not (isinstance(f, list) and len(f) == 3
                and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in f)):
            raise TypeError
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

    ``models`` maps each configured classifier, in config order, to the model that
    its ``_CLASSIFIERS`` record fits, scores, saves, loads and sizes. ``mean`` and
    ``std`` are read-only copies and must be finite, with every std positive.
    """

    mean: np.ndarray
    std: np.ndarray
    models: dict
    templates: DecisionTemplates

    def __post_init__(self):
        mean, std = readonly(self.mean, np.float64), readonly(self.std, np.float64)
        if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0).all()):
            raise DataError("mean and std must be finite, with every std > 0")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)


@dataclass(frozen=True)
class PipelineModels:
    class_names: tuple[str, ...]
    config: PipelineConfig
    seed: int
    families: dict  # extractor -> Family, in config order
    stage2_templates: DecisionTemplates


def _profile(fitted: dict, x: np.ndarray, config: PipelineConfig, seed: int) -> np.ndarray:
    """One extractor's profile: a support row per classifier, in config order, on
    the standardised feature vector x."""
    return np.stack([_CLASSIFIERS[clf].score(model, x, config, seed)
                     for clf, model in fitted.items()])


def _stage1(families: dict, profiles) -> list[ClassSupport]:
    """Fuse each extractor's classifier rows against its stage-1 templates."""
    return [fuse(profile, fam.templates) for fam, profile in zip(families.values(), profiles)]


def _decide(models: PipelineModels, profiles, stage1: list[ClassSupport]):
    """Stage-2 fusion of one image's stage-1 supports: (final, stage1, per-pair argmax)."""
    per_pair = {(ext, clf): int(np.argmax(row))
                for ext, profile in zip(models.config.extractors, profiles)
                for row, clf in zip(profile, models.config.classifiers)}
    return fuse(np.stack([s.support for s in stage1]), models.stage2_templates), stage1, per_pair


@dataclass(frozen=True)
class _Entry:
    path: str
    label: str
    digest: int
    features: dict  # extractor -> raw feature values


def _prepare_entries(entries, config, base_dir, failures):
    prepared = []
    for item in entries:
        path = Path(base_dir) / item["path"] if base_dir else Path(item["path"])
        try:
            raw = path.read_bytes()
        except OSError as exc:
            failures.append({"path": item["path"], "stage": "read", "error": str(exc)})
            continue
        try:
            crop = largest_shape(load_gray(raw, config), config)
            features = {ext: extract_one(crop, ext, config).values for ext in config.extractors}
        except (DataError, ShapeError) as exc:
            failures.append({"path": item["path"], "stage": "preprocess", "error": str(exc)})
            continue
        prepared.append(_Entry(item["path"], item["label"], content_digest(raw), features))
    prepared.sort(key=lambda e: (e.label, e.digest, e.path))
    failures.sort(key=lambda f: f["path"])
    return prepared


def train_models(manifest_entries, config: PipelineConfig, seed: int = 0,
                 base_dir: str | Path | None = None):
    """Fit the configured classifiers on each feature family, then both template stages.

    Each family scores its standardised training rows with classify_image's profile
    code; those profiles give its stage-1 templates, their fused supports stage 2's.
    Returns (PipelineModels, [(entry, profiles, stage-1 supports)], failures).
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
    k = len(class_names)
    labels = np.array([class_names.index(e.label) for e in prepared])
    targets = one_hot(labels, k)

    families, columns = {}, []
    for ext in config.extractors:
        rows = np.stack([e.features[ext] for e in prepared])
        mean, std = rows.mean(axis=0), rows.std(axis=0)
        std = np.where(std < _STD_FLOOR, 1.0, std)
        data = LabeledSet((rows - mean) / std, targets)
        fitted = {clf: _CLASSIFIERS[clf].fit(data, config, seed) for clf in config.classifiers}
        column = [_profile(fitted, x, config, seed ^ e.digest)
                  for x, e in zip(data.inputs, prepared)]
        families[ext] = Family(mean, std, fitted, compute_templates(column, labels, k))
        columns.append(column)
    profiles = list(zip(*columns))
    stage1 = [_stage1(families, p) for p in profiles]
    stage2 = compute_templates([np.stack([s.support for s in sup]) for sup in stage1], labels, k)
    models = PipelineModels(class_names, config, seed, families, stage2)
    return models, list(zip(prepared, profiles, stage1)), failures


def classify_image(models: PipelineModels, img: GrayImage, digest: int):
    """Two-stage fused decision for one already-cropped shape image.

    Returns (final ClassSupport, stage1 supports, per-pair argmax dict).
    """
    profiles = [_profile(fam.models, (extract_one(img, ext, models.config).values - fam.mean)
                         / fam.std, models.config, models.seed ^ digest)
                for ext, fam in models.families.items()]
    return _decide(models, profiles, _stage1(models.families, profiles))


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


def _confusion(truth: np.ndarray, predicted, k: int) -> np.ndarray:
    """(k, k) counts of images by true class (row) and predicted class (column)."""
    return np.bincount(truth * k + np.asarray(predicted), minlength=k * k).reshape(k, k)


def run_pipeline(manifest_entries, config: PipelineConfig | None = None, seed: int = 0,
                 base_dir: str | Path | None = None):
    """Train on the manifest and evaluate by resubstitution.

    Every count in the report comes from one list of per-image decisions.
    Returns (PipelineModels, report dict).
    """
    config = config or PipelineConfig()
    models, scored, failures = train_models(manifest_entries, config, seed, base_dir)
    names, k, n = models.class_names, len(models.class_names), len(scored)
    exts, clfs = config.extractors, config.classifiers
    truth = np.array([names.index(ent.label) for ent, _, _ in scored])
    decisions = [_decide(models, profiles, stage1) for _, profiles, stage1 in scored]

    final_confusion = _confusion(truth, [final.predicted for final, _, _ in decisions], k)
    stage1_confusion = [_confusion(truth, [s[j].predicted for _, s, _ in decisions], k)
                        for j in range(len(exts))]
    per_class = {}
    for j, name in enumerate(names):
        count, hit = int(final_confusion[j].sum()), int(final_confusion[j, j])
        false_pos = int(final_confusion[:, j].sum()) - hit
        per_class[name] = {"false_negative_rate": (count - hit) / count if count else 0.0,
                           "false_positive_rate": false_pos / (n - count) if n - count else 0.0}
    report = {
        "class_names": list(names),
        "n_images": n,
        "failures": failures,
        "per_pair_confusion": {
            ext: {clf: _confusion(truth, [p[(ext, clf)] for _, _, p in decisions], k).tolist()
                  for clf in clfs} for ext in exts},
        "per_extractor_fused_accuracy": {ext: int(np.trace(c)) / n
                                         for ext, c in zip(exts, stage1_confusion)},
        "final_accuracy": int(np.trace(final_confusion)) / n,
        "final_confusion": final_confusion.tolist(),
        "per_class_rates": per_class,
        "svm_converged": {ext: fam.models["svm"].converged
                          for ext, fam in models.families.items() if "svm" in fam.models},
        "predictions": [{"path": ent.path, "label": ent.label,
                         "predicted": names[final.predicted], "support": final.support.tolist()}
                        for (ent, _, _), (final, _, _) in zip(scored, decisions)],
        "seed": seed,
        "config": config.to_dict(),
    }
    return models, report


def run_pipeline_from_manifest(manifest_path: str | Path, config=None, seed: int = 0):
    entries = load_manifest(manifest_path)
    return run_pipeline(entries, config, seed, base_dir=Path(manifest_path).parent)


def _templates_to_dict(t: DecisionTemplates) -> dict:
    return {"matrices": t.matrices.tolist(), "counts": t.counts.tolist()}


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
                           "models": {clf: _CLASSIFIERS[clf].to_dict(model)
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

    Only the configured classifiers' records are read, each by its ``_CLASSIFIERS``
    entry, whose ``sizes`` must equal (the family's mean size, the class count); so
    a mismatched record fails here, named, not at the first query.
    """
    path = Path(directory) / "pipeline.json"
    try:
        meta = json.loads(path.read_text())
        config = PipelineConfig.from_dict(meta["config"])
        class_names, seed, exts = meta["class_names"], meta["seed"], config.extractors
        if not (isinstance(class_names, list) and len(class_names) >= 2
                and class_names == [c for c in CLASS_CATALOG if c in class_names]):
            raise DataError("class_names must be 2 or more distinct catalog names, in catalog "
                            f"order, got {class_names!r}")
        if not (is_integer(seed) and seed >= 0):
            raise ParameterError(f"seed must be an integer >= 0, got {seed!r}")
        k = len(class_names)
        stage2 = DecisionTemplates(**meta["stage2_templates"])
        _expect_shape("stage2_templates", stage2.matrices.shape, (k, len(exts), k))
        families = {}
        for ext in exts:
            doc = meta["families"][ext]
            mean, std = (np.asarray(doc[key], dtype=np.float64) for key in ("mean", "std"))
            dim = mean.size
            _expect_shape(f"families[{ext}].mean", mean.shape, (dim,))
            _expect_shape(f"families[{ext}].std", std.shape, (dim,))
            templates = DecisionTemplates(**doc["templates"])
            _expect_shape(f"families[{ext}].templates", templates.matrices.shape,
                          (k, len(config.classifiers), k))
            fitted = {}
            for clf in config.classifiers:
                fitted[clf] = model = _CLASSIFIERS[clf].from_dict(doc["models"][clf])
                _expect_shape(f"families[{ext}].models[{clf}] (input dimension, class count)",
                              _CLASSIFIERS[clf].sizes(model), (dim, k))
            families[ext] = Family(mean, std, fitted, templates)
    except OSError as exc:
        raise DataError(f"{path}: cannot read model file ({exc.strerror})") from exc
    except (AttributeError, KeyError, TypeError, ValueError, DataError, ParameterError,
            ShapeError) as exc:
        raise DataError(f"{path}: malformed model file ({type(exc).__name__}: {exc})") from exc
    return PipelineModels(tuple(class_names), config, seed, families, stage2)
