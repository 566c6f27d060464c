"""Recorded outputs that ``train`` and ``paper_run`` must reproduce.

``reference.json`` holds, per input variant, the ``train`` loss history and
the SHA-256 of each ``paper_run`` experiment's ``result``.  Record it again
only on purpose (outputs are meant to stay bit-identical):

    python3 perfbench/reference.py --record
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Any, Dict, List, Sequence

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "reference.json")
#: the seed picks one of this many input variants, each with a reference
VARIANTS = 8


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def load() -> Dict[str, Any]:
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def floats(values: Sequence[float]) -> List[float]:
    return [float(v) for v in values]


def digest(document: Any) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record() -> Dict[str, Any]:
    from perfbench import common, paper, train

    workdir = common.make_workdir("record")
    env = common.clean_env(workdir)
    common.prepare_inprocess(workdir)
    out: Dict[str, Any] = {"train": {}, "paper_run": {}}
    try:
        for variant in range(VARIANTS):
            out["train"][str(variant)] = floats(
                train.fit(train.build_dataset(variant)))
        for variant in range(VARIANTS):
            digests = {}
            for experiment in paper.EXPERIMENTS:
                cache_dir = os.path.join(workdir, f"{experiment}-{variant}")
                done = common.run_program(
                    paper.run_args(experiment, variant, cache_dir),
                    workdir, env)
                if done.returncode != 0:
                    raise common.BenchError(done.stderr[-2000:])
                digests[experiment] = digest(json.loads(done.stdout)["result"])
            out["paper_run"][str(variant)] = digests
            print(f"variant {variant}: {digests}", file=sys.stderr)
    finally:
        common.remove_tree(workdir)
    return out


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.dirname(PATH)))
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
