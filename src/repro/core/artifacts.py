"""Versioned on-disk artifacts for trained models and tuners.

An artifact is a directory with two files:

* ``manifest.json`` — format/kind versions, the JSON-serialisable
  configuration needed to rebuild the object (architecture hyper-parameters,
  :class:`~repro.core.mga.ModalityConfig`, micro-architecture, configuration
  space, counter names, IR2Vec entity names), and the SHA-256 of the array
  payload for integrity checking;
* ``arrays.npz`` — every numpy array: the model ``state_dict`` (weights plus
  fitted-scaler extra state) and the feature extractor's seed-embedding
  matrices.

``save_artifact`` / ``load_artifact`` round-trip :class:`MGAModel`,
:class:`MGATuner` and :class:`DeviceMapper`; loading in a fresh process
reproduces bit-identical predictions because every fitted component (weights,
min-max and Gauss-rank scaler states, seed-embedding vectors) is persisted.

Higher layers reuse the same container for their own kinds through
:func:`write_artifact_dir` / :func:`read_artifact_dir`, and restore those
kinds themselves: campaign checkpoints in :mod:`repro.tuners.campaign`,
stage-cache entries in :mod:`repro.pipeline.cache` and drift baselines in
:mod:`repro.serve.registry`.  The format name predates this module's move
into :mod:`repro.core` and stays as it is, so existing artifacts load.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from typing import Any, Dict, Optional, Union

import numpy as np

import repro
from repro.core.features import StaticFeatureExtractor
from repro.core.mga import MGAModel, ModalityConfig
from repro.core.tuner import DeviceMapper, MGATuner
from repro.frontend.openmp import OMPConfig
from repro.simulator.microarch import MicroArch

FORMAT_NAME = "repro.serve.artifact"
FORMAT_VERSION = 1
MANIFEST_FILE = "manifest.json"
ARRAYS_FILE = "arrays.npz"

KIND_MODEL = "mga_model"
KIND_TUNER = "mga_tuner"
KIND_MAPPER = "device_mapper"


class ArtifactError(RuntimeError):
    """Raised for malformed, incompatible or corrupted artifacts."""


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _extractor_config(extractor: StaticFeatureExtractor) -> Dict[str, Any]:
    vocab = extractor.seed_vocab
    return {
        "vector_dim": extractor.vector_dim,
        "seed": extractor.seed,
        "train_seed_embeddings": extractor.train_seed_embeddings,
        "entities": list(vocab.entity_vectors),
        "relations": list(vocab.relation_vectors),
    }


def _extractor_arrays(extractor: StaticFeatureExtractor) -> Dict[str, np.ndarray]:
    vocab = extractor.seed_vocab
    return {
        "extractor.entities": np.stack(list(vocab.entity_vectors.values())),
        "extractor.relations": np.stack(list(vocab.relation_vectors.values())),
    }


def _rebuild_extractor(config: Dict[str, Any],
                       arrays: Dict[str, np.ndarray]) -> StaticFeatureExtractor:
    extractor = StaticFeatureExtractor(
        vector_dim=int(config["vector_dim"]),
        train_seed_embeddings=bool(config.get("train_seed_embeddings", False)),
        seed=int(config.get("seed", 0)),
    )
    vocab = extractor.seed_vocab
    entity_matrix = np.asarray(arrays["extractor.entities"])
    relation_matrix = np.asarray(arrays["extractor.relations"])
    vocab.entity_vectors = {name: entity_matrix[i].copy()
                            for i, name in enumerate(config["entities"])}
    vocab.relation_vectors = {name: relation_matrix[i].copy()
                              for i, name in enumerate(config["relations"])}
    return extractor


# ----------------------------------------------------------------------
# save
# ----------------------------------------------------------------------
def _model_payload(model: MGAModel):
    config = {"model": model.get_config()}
    arrays = {f"model.{k}": v for k, v in model.state_dict().items()}
    return config, arrays


def _tuner_payload(tuner: MGATuner):
    config = {
        "arch": dataclasses.asdict(tuner.arch),
        "configs": [c.to_dict() for c in tuner.configs],
        "counter_names": tuner.counter_names,
        "modalities": dataclasses.asdict(tuner.modalities),
        "seed": tuner.seed,
        "model_kwargs": tuner.model_kwargs,
        "extractor": _extractor_config(tuner.extractor),
        "model": tuner.model.get_config() if tuner.model is not None else None,
    }
    arrays = dict(_extractor_arrays(tuner.extractor))
    if tuner.model is not None:
        arrays.update({f"model.{k}": v
                       for k, v in tuner.model.state_dict().items()})
    return config, arrays


def _mapper_payload(mapper: DeviceMapper):
    config = {
        "modalities": dataclasses.asdict(mapper.modalities),
        "seed": mapper.seed,
        "model_kwargs": mapper.model_kwargs,
        "extractor": _extractor_config(mapper.extractor),
        "model": mapper.model.get_config() if mapper.model is not None else None,
    }
    arrays = dict(_extractor_arrays(mapper.extractor))
    if mapper.model is not None:
        arrays.update({f"model.{k}": v
                       for k, v in mapper.model.state_dict().items()})
    return config, arrays


def write_artifact_dir(path: Union[str, os.PathLike], kind: str,
                       config: Dict[str, Any], arrays: Dict[str, np.ndarray],
                       metadata: Optional[Dict[str, Any]] = None) -> str:
    """Low-level artifact writer: manifest + sha256-checked array payload.

    Writes straight into ``path`` (created if missing).  Callers that need
    crash consistency stage into a temp directory and rename — see
    :meth:`repro.tuners.campaign.TuningCampaign.checkpoint`.
    """
    path = os.fspath(path)
    os.makedirs(path, exist_ok=True)
    arrays_path = os.path.join(path, ARRAYS_FILE)
    np.savez(arrays_path, **arrays)
    manifest = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "repro_version": repro.__version__,
        "created_unix": time.time(),
        "config": config,
        "arrays_file": ARRAYS_FILE,
        "arrays_sha256": _sha256_file(arrays_path),
        "metadata": metadata or {},
    }
    with open(os.path.join(path, MANIFEST_FILE), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return path


def payload_for(obj) -> tuple:
    """``(kind, config, arrays)`` payload of a serialisable object.

    The building block shared by :func:`save_artifact` and the experiment
    pipeline's stage codec (which embeds model payloads inside cached stage
    outputs instead of standalone artifact directories).
    """
    if isinstance(obj, MGATuner):
        config, arrays = _tuner_payload(obj)
        return KIND_TUNER, config, arrays
    if isinstance(obj, DeviceMapper):
        config, arrays = _mapper_payload(obj)
        return KIND_MAPPER, config, arrays
    if isinstance(obj, MGAModel):
        config, arrays = _model_payload(obj)
        return KIND_MODEL, config, arrays
    raise TypeError(f"cannot serialise objects of type {type(obj).__name__}")


def save_artifact(path: Union[str, os.PathLike], obj,
                  metadata: Optional[Dict[str, Any]] = None) -> str:
    """Serialise a model/tuner/mapper into an artifact directory.

    Returns the artifact path.  ``metadata`` (JSON-serialisable) is stored
    verbatim in the manifest and surfaced by the registry listings.
    """
    kind, config, arrays = payload_for(obj)
    return write_artifact_dir(path, kind, config, arrays, metadata=metadata)


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------
def read_manifest(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    """Parse and validate an artifact's manifest (no array I/O)."""
    manifest_path = os.path.join(os.fspath(path), MANIFEST_FILE)
    if not os.path.exists(manifest_path):
        raise ArtifactError(f"no {MANIFEST_FILE} under {path!r}")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("format") != FORMAT_NAME:
        raise ArtifactError(f"not a {FORMAT_NAME} artifact: {path!r}")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise ArtifactError(
            f"unsupported artifact format version "
            f"{manifest.get('format_version')!r} (expected {FORMAT_VERSION})")
    return manifest


def _load_arrays(path: str, manifest: Dict[str, Any]) -> Dict[str, np.ndarray]:
    arrays_path = os.path.join(path, manifest.get("arrays_file", ARRAYS_FILE))
    if not os.path.exists(arrays_path):
        raise ArtifactError(f"missing array payload {arrays_path!r}")
    digest = _sha256_file(arrays_path)
    if digest != manifest.get("arrays_sha256"):
        raise ArtifactError(
            f"integrity check failed for {arrays_path!r}: "
            f"sha256 {digest} != manifest {manifest.get('arrays_sha256')}")
    with np.load(arrays_path, allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


def _restore_model(config: Optional[Dict[str, Any]],
                   arrays: Dict[str, np.ndarray]) -> Optional[MGAModel]:
    if config is None:
        return None
    model = MGAModel.from_config(config)
    state = {key[len("model."):]: value for key, value in arrays.items()
             if key.startswith("model.")}
    model.load_state_dict(state)
    # restored for inference: eval mode lets predict skip its mode walk
    return model.eval()


def read_artifact_dir(path: Union[str, os.PathLike],
                      kind: Optional[str] = None):
    """Low-level artifact reader: ``(manifest, arrays)``, integrity-checked.

    With ``kind``, an artifact of any other kind is an :class:`ArtifactError`
    (raised before the array payload is read).
    """
    path = os.fspath(path)
    manifest = read_manifest(path)
    if kind is not None and manifest.get("kind") != kind:
        raise ArtifactError(f"{path!r} holds a {manifest.get('kind')!r} "
                            f"artifact, not {kind!r}")
    return manifest, _load_arrays(path, manifest)


def load_artifact(path: Union[str, os.PathLike]):
    """Load an artifact directory back into its original object type."""
    manifest, arrays = read_artifact_dir(path)
    return restore_payload(manifest["kind"], manifest["config"], arrays)


def restore_payload(kind: str, config: Dict[str, Any],
                    arrays: Dict[str, np.ndarray]):
    """Inverse of :func:`payload_for`."""
    if kind == KIND_MODEL:
        return _restore_model(config["model"], arrays)
    if kind not in (KIND_TUNER, KIND_MAPPER):
        raise ArtifactError(f"unknown artifact kind {kind!r}")
    modalities = ModalityConfig(**config["modalities"])
    extractor = _rebuild_extractor(config["extractor"], arrays)
    if kind == KIND_TUNER:
        tuner = MGATuner(
            arch=MicroArch(**config["arch"]),
            configs=[OMPConfig.from_dict(c) for c in config["configs"]],
            extractor=extractor,
            modalities=modalities,
            counter_names=config["counter_names"],
            seed=int(config["seed"]),
            **config["model_kwargs"],
        )
        tuner.model = _restore_model(config["model"], arrays)
        return tuner
    mapper = DeviceMapper(
        extractor=extractor,
        modalities=modalities,
        seed=int(config["seed"]),
        **config["model_kwargs"],
    )
    mapper.model = _restore_model(config["model"], arrays)
    return mapper


def load_artifact_as(path: Union[str, os.PathLike], cls):
    """Load an artifact and check it deserialised into ``cls``."""
    obj = load_artifact(path)
    if not isinstance(obj, cls):
        raise TypeError(f"artifact at {path} is a {type(obj).__name__}, "
                        f"not {cls.__name__}")
    return obj
