"""Model catalog surface — ``ModelCatalog`` / ``ModelProfile`` /
``ModelDownloadManager`` analogs (``deepdoctection/extern/model.py:44-370``)
plus the profile→stage wiring the registry alone doesn't give.

The reference keeps a catalog of pre-trained model profiles (name, artifact
sizes, HF hub coordinates, category maps, the wrapper class that can load
it) and a download manager that materializes weights into a cache dir. Here
the same bookkeeping drives Ray actor-pool stages: a profile's
``model_wrapper`` names a stage in ``functions.registry.stage_registry``,
and :func:`stage_for_profile` instantiates it with the profile's categories
— so swapping a rule-based stand-in for a real model is a catalog edit, not
a code change.

No network exists in this environment, so ``maybe_download_weights_and_
configs`` only verifies local artifacts (size check like the reference) and
raises a documented error when a download would be required — the honest
stub for the ``load_model_from_hf_hub`` path.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Mapping, Optional

from .functions.registry import stage_registry

__all__ = ["ModelProfile", "ModelCatalog", "ModelDownloadManager", "stage_for_profile"]


@dataclass(frozen=True)
class ModelProfile:
    """One catalog entry (``extern/model.py:44-72``)."""

    name: str
    description: str
    size: list[int] = field(default_factory=list)
    config: Optional[str] = None
    preprocessor_config: Optional[str] = None
    hf_repo_id: Optional[str] = None
    hf_model_name: Optional[str] = None
    urls: Optional[list[str]] = None
    categories: Optional[Mapping[int, str]] = None
    dl_library: Optional[str] = None
    model_wrapper: Optional[str] = None
    architecture: Optional[str] = None

    def as_dict(self) -> dict:
        return asdict(self)


class ModelCatalog:
    """Catalog of model profiles (``extern/model.py:74-368``). All methods
    are static over a class-level dict, like the reference."""

    CATALOG: dict[str, ModelProfile] = {}
    CACHE_DIR = os.environ.get("DDRAY_MODEL_CACHE", "/tmp/ddray_models")

    @staticmethod
    def register(name: str, profile: ModelProfile) -> None:
        if name in ModelCatalog.CATALOG:
            raise KeyError(f"model {name!r} already registered")
        ModelCatalog.CATALOG[name] = profile

    @staticmethod
    def is_registered(name: str) -> bool:
        return name in ModelCatalog.CATALOG

    @staticmethod
    def get_profile(name: str) -> ModelProfile:
        if name not in ModelCatalog.CATALOG:
            raise KeyError(
                f"Model Profile {name!r} does not exist. Please make sure the model is registered"
            )
        return ModelCatalog.CATALOG[name]

    @staticmethod
    def get_model_list() -> list[str]:
        return sorted(ModelCatalog.CATALOG)

    @staticmethod
    def get_full_path_weights(name: str) -> str:
        return os.path.join(ModelCatalog.CACHE_DIR, "weights", name)

    @staticmethod
    def get_full_path_configs(name: str) -> str:
        profile = ModelCatalog.get_profile(name)
        cfg = profile.config or name
        return os.path.join(ModelCatalog.CACHE_DIR, "configs", cfg)

    @staticmethod
    def save(path: str) -> None:
        """JSON round-trip of the catalog (the reference ships its catalog as
        a package resource; here it is user-persistable)."""
        with open(path, "w") as fh:
            json.dump({k: v.as_dict() for k, v in ModelCatalog.CATALOG.items()}, fh, indent=2)

    @staticmethod
    def load(path: str) -> None:
        with open(path) as fh:
            for name, d in json.load(fh).items():
                if not ModelCatalog.is_registered(name):
                    ModelCatalog.register(name, ModelProfile(**d))


class ModelDownloadManager:
    """``extern/model.py:370-520`` analog, network-free: verifies that local
    artifacts exist with the expected sizes; a profile that would need a hub
    download raises ``RuntimeError`` naming the missing artifact."""

    @staticmethod
    def maybe_download_weights_and_configs(name: str) -> str:
        path = ModelCatalog.get_full_path_weights(name)
        if not ModelCatalog.is_registered(name):
            return path
        profile = ModelCatalog.get_profile(name)
        if os.path.isfile(path):
            if profile.size:
                actual = os.path.getsize(path)
                if actual not in profile.size:
                    raise RuntimeError(
                        f"cached weights for {name!r} have size {actual}, expected "
                        f"one of {profile.size} — delete and re-fetch"
                    )
            return path
        if profile.hf_repo_id or profile.urls:
            raise RuntimeError(
                f"weights for {name!r} are not cached at {path} and this "
                "environment has no network access — place the artifact there "
                f"manually (source: {profile.hf_repo_id or profile.urls})"
            )
        return path


def stage_for_profile(name_or_profile: str | ModelProfile, **kwargs):
    """Profile → instantiated stage: resolves ``profile.model_wrapper``
    through the stage registry and passes the profile's category map along —
    the ``ServiceFactory`` wiring the reference builds per predictor
    (``extern/model.py`` + ``pipe/registry.py``)."""
    profile = (
        name_or_profile
        if isinstance(name_or_profile, ModelProfile)
        else ModelCatalog.get_profile(name_or_profile)
    )
    if not profile.model_wrapper:
        raise ValueError(f"profile {profile.name!r} names no model_wrapper stage")
    cls = stage_registry.get(profile.model_wrapper)
    import inspect

    sig = inspect.signature(cls.__init__)
    if profile.categories and "categories" in sig.parameters:
        kwargs.setdefault("categories", dict(profile.categories))
    return cls(**kwargs)


def _register_builtin_profiles() -> None:
    """Stand-in profiles for the stages this engine ships; real-model
    profiles (D2/DETR/Doctr/Tesseract, ``extern/model.py`` CATALOG) would
    register identically once their wrappers exist."""
    for name, wrapper, desc in [
        ("rules/turn_extractor", "turn_extractor", "payload-sniffing per-turn extractor"),
        ("rules/token_classifier", "token_classifier", "regex token classes (LMTokenClassifier stand-in)"),
        ("rules/sequence_classifier", "sequence_classifier", "structural doc type (LMSequenceClassifier stand-in)"),
        ("rules/language_id", "language_id", "stopword-scorer language detector"),
    ]:
        if not ModelCatalog.is_registered(name):
            ModelCatalog.register(
                name,
                ModelProfile(name=name, description=desc, size=[], model_wrapper=wrapper),
            )


_register_builtin_profiles()


class ReplayDetector:
    """Offline-inference replay adapter — the ``ObjectDetector`` interface
    (``extern/base.py:359``: ``predict``, ``clone``, ``get_category_names``,
    ``accepts_batch``) backed by a table of PRECOMPUTED detections keyed by
    image id, instead of live weights (none exist in this environment).

    This is the shape heavyweight detectors take at 100 TB anyway: model
    inference runs once as its own batch job, outputs land in a detections
    table, and the extraction pipeline JOINS them back in (see
    :func:`attach_detections`) rather than re-running the model per pass.
    ``DetectionResult`` rows are ``{category, x0, top, x1, bottom, score}`` —
    the detector-output shape every layout consumer here accepts."""

    accepts_batch = False

    def __init__(self, detections_by_id: dict, categories: list[str] | None = None) -> None:
        self._det = detections_by_id
        self._categories = list(categories) if categories else sorted(
            {d["category"] for ds in detections_by_id.values() for d in ds}
        )

    def predict(self, np_image=None, image_id=None) -> list[dict]:
        """Detections for ``image_id`` (the pixel argument is accepted for
        interface parity; replay keys on identity, not pixels)."""
        if image_id is None:
            raise ValueError("ReplayDetector.predict requires image_id")
        return [dict(d) for d in self._det.get(image_id, [])]

    def get_category_names(self) -> list[str]:
        return list(self._categories)

    def clone(self) -> "ReplayDetector":
        """Per-worker copy — the reference's ``clone() ≡ __init__`` actor
        contract (``extern/base.py:253``)."""
        return ReplayDetector(self._det, self._categories)


def attach_detections(
    ds,
    detections,
    id_column: str = "doc_id",
    payload_column: str = "payload",
    num_buckets: int = 8,
):
    """Join precomputed detector output onto payload rows at scale — the
    distributed form of ``ImageLayoutService.serve`` when the detector ran
    offline: detections (``(id, category, x0, top, x1, bottom, score)`` rows)
    pack per id as a JSON block list (Acero joins reject list<struct>
    payloads — packed as a string column), hash-join onto the corpus, and
    merge into each payload's ``blocks`` so the standard ``extract_layout``
    path consumes them like live detector output."""
    import json as _json

    import pyarrow as pa

    from .functions.bucketed import bucketed_map_groups
    from .functions.joins import hash_join

    def pack(g):
        import pandas as pd

        recs = (
            g.sort_values([id_column, "x0", "top"], kind="stable")
            .groupby(id_column, sort=False)
            .apply(
                lambda sub: _json.dumps(
                    sub[["category", "x0", "top", "x1", "bottom", "score"]].to_dict("records")
                ),
                include_groups=False,
            )
            .reset_index(name="__blocks_json")
        )
        return recs

    packed = bucketed_map_groups(detections, [id_column], pack, num_buckets, batch_format="pandas")
    joined = hash_join(ds, packed, id_column, {"__blocks_json": pa.string()}, how="left")

    def merge(batch: pa.Table) -> pa.Table:
        payloads = batch[payload_column].to_pylist()
        extra = batch["__blocks_json"].to_pylist()
        out = []
        for p, e in zip(payloads, extra):
            if not e:
                out.append(p)
                continue
            doc = _json.loads(p or "{}")
            doc["blocks"] = (doc.get("blocks") or []) + _json.loads(e)
            out.append(_json.dumps(doc))
        return batch.drop_columns(["__blocks_json", payload_column]).append_column(
            payload_column, pa.array(out, pa.string())
        )

    return joined.map_batches(merge, batch_format="pyarrow")
