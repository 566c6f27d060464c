"""repro: full reproduction of the MGA tuner (HPDC 2023).

Multimodal Graph neural network and Autoencoder (MGA) tuner for parallel code
regions, together with every substrate it depends on: a miniature LLVM-like
IR, a loop-nest frontend, benchmark kernel library, ProGraML-style graph
construction, IR2Vec-style embeddings, a multicore/accelerator performance
simulator with PAPI-like counters, a numpy autograd deep-learning stack
(dense / GNN / DAE), classical ML models, baseline auto-tuners, dataset
builders and an evaluation harness regenerating every table and figure of the
paper.  The :mod:`repro.serve` subsystem puts trained tuners, saved as
versioned on-disk artifacts (:mod:`repro.core.artifacts`), behind a batched
inference service (model registry + ``python -m repro.serve`` CLI), and
:mod:`repro.pipeline` runs every figure/table as a declarative, stage-cached
experiment spec (``python -m repro run <experiment>``).

Typical entry points
--------------------
>>> from repro import kernels
>>> spec = kernels.polybench.gemm()
>>> from repro.core import MGATuner
>>> from repro.serve import ModelRegistry, TuningService
>>> from repro.pipeline import run_experiment
"""

__version__ = "1.0.0"

__all__ = [
    "ir",
    "frontend",
    "kernels",
    "graphs",
    "embeddings",
    "simulator",
    "profiling",
    "nn",
    "gnn",
    "dae",
    "ml",
    "core",
    "tuners",
    "datasets",
    "evaluation",
    "serve",
    "pipeline",
]
