"""Stage-output serialisation: arbitrary result pytrees ⇄ (JSON tree, arrays).

Stage outputs mix plain containers with numpy arrays, configuration objects
and whole datasets.  ``encode_value`` walks the structure and produces a
JSON-serialisable tree plus a flat ``{key: ndarray}`` payload (stored as the
``arrays.npz`` of a :mod:`repro.core.artifacts` artifact); ``decode_value``
inverts it bit-exactly:

* numpy arrays are stored verbatim (dtype and bytes preserved), and arrays
  shared between several samples — kernel graphs, feature vectors — are
  stored once and re-shared on load;
* numpy scalars are inlined (`float(np.float64(x))` is exact, as is the
  reverse), so per-sample counters do not explode into thousands of 0-d
  array entries;
* dict keys keep their types and order (JSON objects would force string
  keys), tuples stay tuples;
* :class:`OpenMPTuningDataset` / :class:`DevMapDataset` have first-class
  encodings, and trained models/tuners/mappers round-trip through the same
  ``payload_for``/``restore_payload`` pair of :mod:`repro.core.artifacts`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Tuple

import numpy as np

from repro.frontend.openmp import OMPConfig, OMPSchedule
from repro.graphs.hetero import HeteroGraphData
from repro.simulator.microarch import GPUDevice, MicroArch

_KIND = "__pipeline__"


class CodecError(TypeError):
    """Raised when a stage output contains an unsupported object."""


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
class _Encoder:
    def __init__(self) -> None:
        self.arrays: Dict[str, np.ndarray] = {}
        self._array_memo: Dict[int, str] = {}
        self._object_memo: Dict[int, int] = {}
        self._next_ref = 0

    # ------------------------------------------------------------------
    def _store_array(self, array: np.ndarray) -> str:
        key = self._array_memo.get(id(array))
        if key is None:
            key = f"a{len(self.arrays)}"
            self.arrays[key] = array
            self._array_memo[id(array)] = key
        return key

    def _new_ref(self, obj: Any) -> int:
        ref = self._next_ref
        self._next_ref += 1
        self._object_memo[id(obj)] = ref
        return ref

    # ------------------------------------------------------------------
    def encode(self, obj: Any) -> Any:
        # numpy scalars first: np.float64 subclasses float and would
        # otherwise decay to a plain float across the round trip
        if isinstance(obj, np.generic):
            return self._encode_np_scalar(obj)
        if obj is None or isinstance(obj, (bool, int, str)):
            if isinstance(obj, int) and not isinstance(obj, bool):
                return obj if abs(obj) < (1 << 62) else {
                    _KIND: "bigint", "v": str(obj)}
            return obj
        if isinstance(obj, float):
            return obj
        if id(obj) in self._object_memo:
            return {_KIND: "ref", "id": self._object_memo[id(obj)]}
        if isinstance(obj, np.ndarray):
            return {_KIND: "nd", "k": self._store_array(obj)}
        if isinstance(obj, dict):
            return {_KIND: "dict",
                    "items": [[self.encode(k), self.encode(v)]
                              for k, v in obj.items()]}
        if isinstance(obj, tuple):
            return {_KIND: "tuple", "items": [self.encode(v) for v in obj]}
        if isinstance(obj, list):
            return {_KIND: "list", "items": [self.encode(v) for v in obj]}
        if isinstance(obj, OMPConfig):
            return {_KIND: "ompconfig", "v": obj.to_dict()}
        if isinstance(obj, OMPSchedule):
            return {_KIND: "ompschedule", "v": obj.value}
        if isinstance(obj, MicroArch):
            return {_KIND: "microarch", "v": dataclasses.asdict(obj)}
        if isinstance(obj, GPUDevice):
            return {_KIND: "gpudevice", "v": dataclasses.asdict(obj)}
        if isinstance(obj, HeteroGraphData):
            return self._encode_graph(obj)
        encoded = self._encode_domain(obj)
        if encoded is not None:
            return encoded
        raise CodecError(f"cannot serialise stage output of type "
                         f"{type(obj).__name__}")

    # ------------------------------------------------------------------
    @staticmethod
    def _encode_np_scalar(obj: np.generic) -> Any:
        if isinstance(obj, np.bool_):
            return {_KIND: "npb", "v": bool(obj)}
        if isinstance(obj, np.integer):
            return {_KIND: "npi", "dtype": obj.dtype.str, "v": int(obj)}
        if isinstance(obj, np.floating):
            # float(np.float64) and np.float64(float) are both exact
            return {_KIND: "npf", "dtype": obj.dtype.str, "v": float(obj)}
        raise CodecError(f"unsupported numpy scalar dtype {obj.dtype}")

    def _encode_graph(self, graph: HeteroGraphData) -> Dict[str, Any]:
        return {
            _KIND: "graph",
            "id": self._new_ref(graph),
            "name": graph.name,
            "features": self._store_array(graph.node_features),
            "types": self._store_array(graph.node_types),
            "edges": [[rel, self._store_array(edges)]
                      for rel, edges in graph.edge_index.items()],
        }

    def _encode_domain(self, obj: Any) -> Any:
        from repro.datasets.devmap import DevMapDataset, DevMapSample
        from repro.datasets.openmp import OpenMPSample, OpenMPTuningDataset
        from repro.evaluation.experiments.common import ApproachResult

        if isinstance(obj, ApproachResult):
            return {_KIND: "approach_result", "name": obj.name,
                    "speedups": self.encode(obj.speedups)}
        if isinstance(obj, OpenMPTuningDataset):
            return {
                _KIND: "openmp_dataset",
                "id": self._new_ref(obj),
                "arch": dataclasses.asdict(obj.arch),
                "configs": [c.to_dict() for c in obj.configs],
                "counter_names": list(obj.counter_names),
                "samples": [self._encode_fields(s) for s in obj.samples],
            }
        if isinstance(obj, DevMapDataset):
            return {
                _KIND: "devmap_dataset",
                "id": self._new_ref(obj),
                "gpu_name": obj.gpu_name,
                "samples": [self._encode_fields(s) for s in obj.samples],
            }
        if isinstance(obj, (OpenMPSample, DevMapSample)):
            raise CodecError("samples must be serialised through their "
                             "dataset")
        # trained models / tuners / mappers reuse the artifact payload format
        from repro.core.mga import MGAModel
        from repro.core.tuner import DeviceMapper, MGATuner
        if not isinstance(obj, (MGAModel, MGATuner, DeviceMapper)):
            return None
        from repro.core.artifacts import payload_for
        kind, config, arrays = payload_for(obj)
        return {
            _KIND: "artifact",
            "id": self._new_ref(obj),
            "artifact_kind": kind,
            "config": config,
            "keys": [[name, self._store_array(array)]
                     for name, array in arrays.items()],
        }

    def _encode_fields(self, sample: Any) -> Dict[str, Any]:
        return {field.name: self.encode(getattr(sample, field.name))
                for field in dataclasses.fields(sample)}


def encode_value(obj: Any) -> Tuple[Any, Dict[str, np.ndarray]]:
    """Encode a stage output into a JSON tree plus an array payload."""
    encoder = _Encoder()
    tree = encoder.encode(obj)
    return tree, encoder.arrays


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------
class _Decoder:
    def __init__(self, arrays: Dict[str, np.ndarray]):
        self.arrays = arrays
        self._refs: Dict[int, Any] = {}

    def decode(self, tree: Any) -> Any:
        if not isinstance(tree, dict):
            if isinstance(tree, list):   # only produced inside marked nodes
                return [self.decode(v) for v in tree]
            return tree
        kind = tree.get(_KIND)
        if kind is None:
            raise CodecError(f"malformed codec node: {sorted(tree)[:4]}")
        method = getattr(self, f"_decode_{kind}", None)
        if method is None:
            raise CodecError(f"unknown codec node kind {kind!r}")
        return method(tree)

    # ------------------------------------------------------------------
    def _decode_ref(self, tree) -> Any:
        return self._refs[tree["id"]]

    def _decode_bigint(self, tree) -> int:
        return int(tree["v"])

    def _decode_nd(self, tree) -> np.ndarray:
        return self.arrays[tree["k"]]

    def _decode_npb(self, tree):
        return np.bool_(tree["v"])

    def _decode_npi(self, tree):
        return np.dtype(tree["dtype"]).type(int(tree["v"]))

    def _decode_npf(self, tree):
        return np.dtype(tree["dtype"]).type(float(tree["v"]))

    def _decode_dict(self, tree) -> dict:
        return {self.decode(k): self.decode(v) for k, v in tree["items"]}

    def _decode_tuple(self, tree) -> tuple:
        return tuple(self.decode(v) for v in tree["items"])

    def _decode_list(self, tree) -> list:
        return [self.decode(v) for v in tree["items"]]

    def _decode_ompconfig(self, tree) -> OMPConfig:
        return OMPConfig.from_dict(tree["v"])

    def _decode_ompschedule(self, tree) -> OMPSchedule:
        return OMPSchedule(tree["v"])

    def _decode_microarch(self, tree) -> MicroArch:
        return MicroArch(**tree["v"])

    def _decode_gpudevice(self, tree) -> GPUDevice:
        return GPUDevice(**tree["v"])

    def _decode_graph(self, tree) -> HeteroGraphData:
        graph = HeteroGraphData(
            name=tree["name"],
            node_features=self.arrays[tree["features"]],
            node_types=self.arrays[tree["types"]],
            edge_index={rel: self.arrays[key] for rel, key in tree["edges"]},
        )
        self._refs[tree["id"]] = graph
        return graph

    def _decode_approach_result(self, tree):
        from repro.evaluation.experiments.common import ApproachResult
        return ApproachResult(tree["name"], self.decode(tree["speedups"]))

    def _decode_openmp_dataset(self, tree):
        from repro.datasets.openmp import OpenMPSample, OpenMPTuningDataset
        samples = [OpenMPSample(**{k: self.decode(v) for k, v in s.items()})
                   for s in tree["samples"]]
        dataset = OpenMPTuningDataset(
            samples,
            [OMPConfig.from_dict(c) for c in tree["configs"]],
            MicroArch(**tree["arch"]),
            counter_names=list(tree["counter_names"]),
        )
        self._refs[tree["id"]] = dataset
        return dataset

    def _decode_devmap_dataset(self, tree):
        from repro.datasets.devmap import DevMapDataset, DevMapSample
        samples = [DevMapSample(**{k: self.decode(v) for k, v in s.items()})
                   for s in tree["samples"]]
        dataset = DevMapDataset(samples, gpu_name=tree["gpu_name"])
        self._refs[tree["id"]] = dataset
        return dataset

    def _decode_artifact(self, tree):
        from repro.core.artifacts import restore_payload
        arrays = {name: self.arrays[key] for name, key in tree["keys"]}
        obj = restore_payload(tree["artifact_kind"], tree["config"], arrays)
        self._refs[tree["id"]] = obj
        return obj


def decode_value(tree: Any, arrays: Dict[str, np.ndarray]) -> Any:
    """Invert :func:`encode_value`."""
    return _Decoder(dict(arrays)).decode(tree)


# ----------------------------------------------------------------------
# best-effort JSON rendering (CLI --json output, NOT a round-trip format)
# ----------------------------------------------------------------------
def to_jsonable(obj: Any) -> Any:
    """Lossy JSON view of a result: arrays become lists, datasets summaries."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, OMPConfig):
        return obj.to_dict()
    if isinstance(obj, OMPSchedule):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        try:
            from repro.evaluation.experiments.common import ApproachResult
        except ImportError:                      # pragma: no cover
            ApproachResult = ()
        if isinstance(obj, ApproachResult):
            return {"name": obj.name, "speedups": obj.speedups.tolist(),
                    "geomean": float(obj.geomean)}
    return f"<{type(obj).__name__}>"
