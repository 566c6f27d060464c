"""Command line interface: ``python -m repro <command>``.

Commands
--------
``run <experiment>``   execute one figure/table spec through the pipeline
``list``               enumerate every registered experiment
``describe <name>``    show a spec's parameters, stages and quick profile

``run`` prints the paper-style report to stdout and a per-stage cache
summary to stderr; ``--json`` switches stdout to one machine-readable JSON
document (used by the CI smoke job to assert cache hits).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

DEFAULT_CACHE = os.path.join("~", ".cache", "repro", "stages")
CACHE_ENV = "REPRO_CACHE_DIR"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the paper's figure/table experiments through the "
                    "stage-cached pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment spec")
    run.add_argument("experiment", help="spec name (see `list`)")
    run.add_argument("--workers", type=int, default=1,
                     help="worker processes for tuning-stage fan-out")
    run.add_argument("--quick", action="store_true",
                     help="apply the spec's quick (smoke) parameter profile")
    run.add_argument("--cache", default=None, metavar="DIR",
                     help=f"stage cache directory (default: ${CACHE_ENV} "
                          f"or {DEFAULT_CACHE})")
    run.add_argument("--no-cache", action="store_true",
                     help="disable stage caching for this run")
    run.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="override a spec parameter (VALUE parsed as JSON, "
                          "falling back to a string); repeatable")
    run.add_argument("--json", action="store_true",
                     help="print a machine-readable JSON document instead "
                          "of the report text")

    lst = sub.add_parser("list", help="list registered experiments")
    lst.add_argument("--json", action="store_true")

    desc = sub.add_parser("describe", help="describe one experiment spec")
    desc.add_argument("experiment")
    desc.add_argument("--json", action="store_true")
    return parser


#: Python-style literals people type out of habit; mapping them beats
#: silently treating "False"/"None" as truthy strings
_PYTHON_LITERALS = {"True": True, "False": False, "None": None}


def _parse_overrides(pairs: List[str]) -> Dict[str, Any]:
    overrides: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--set expects KEY=VALUE, got {pair!r}")
        key, raw = pair.split("=", 1)
        if raw in _PYTHON_LITERALS:
            overrides[key] = _PYTHON_LITERALS[raw]
            continue
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    return overrides


def _cache_dir(args) -> Optional[str]:
    if args.no_cache:
        return None
    path = args.cache or os.environ.get(CACHE_ENV) or DEFAULT_CACHE
    return os.path.expanduser(path)


class UsageError(Exception):
    """A bad command line (unknown experiment/parameter, malformed --set)."""


def _check_override_types(spec, overrides: Dict[str, Any]) -> None:
    """Catch `--set` values whose shape cannot match the parameter.

    The JSON fallback-to-string is convenient for names and uids, but a
    bare string for a list/bool/numeric parameter is always a typo — fail
    up front instead of deep inside a stage (or, worse, silently: a
    non-empty string is truthy).
    """
    for key, value in overrides.items():
        default = spec.params.get(key)
        if value is None:
            continue
        if default is None:
            # every None-default parameter is an optional count/limit; a
            # bare string can only be a typo
            if isinstance(value, str):
                raise UsageError(f"parameter {key!r} expects a number or "
                                 f"null, got {value!r}")
            continue
        if isinstance(default, list) and not isinstance(value, list):
            raise UsageError(
                f"parameter {key!r} expects a list, got {value!r}; "
                f"quote it as JSON, e.g. --set '{key}=[...]'")
        if isinstance(default, bool) and not isinstance(value, bool):
            raise UsageError(f"parameter {key!r} expects true/false, "
                             f"got {value!r}")
        if (isinstance(default, (int, float)) and not isinstance(default, bool)
                and isinstance(value, str)):
            raise UsageError(f"parameter {key!r} expects a number, "
                             f"got {value!r}")


def _resolve_experiment(name: str):
    """Registry lookup with a usage error for unknown names.

    Failures while *importing* a known experiment module (a broken spec,
    a bad registration) are real bugs and propagate with their traceback.
    """
    from repro.pipeline.registry import EXPERIMENT_MODULES, get_experiment

    if name not in EXPERIMENT_MODULES:
        raise UsageError(f"unknown experiment {name!r}; "
                         f"known: {sorted(EXPERIMENT_MODULES)}")
    return get_experiment(name)


# ----------------------------------------------------------------------
def _cmd_run(args) -> int:
    from repro.pipeline.codec import to_jsonable
    from repro.pipeline.runner import (
        normalize_params,
        quick_requested,
        run_experiment,
    )

    quick = args.quick or quick_requested()
    spec = _resolve_experiment(args.experiment).spec
    # validate the command line before any computation; a failure past this
    # point is a real bug and must surface with its traceback
    try:
        overrides = _parse_overrides(args.overrides)
        _check_override_types(spec, overrides)
        spec.resolve(normalize_params(overrides), quick=quick)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc

    run = run_experiment(
        args.experiment,
        overrides=overrides,
        quick=quick,
        workers=args.workers,
        cache_dir=_cache_dir(args),
    )
    stage_rows = [
        {"name": s.name, "kind": s.kind, "impl": s.impl, "cache": s.cache,
         "key": s.key, "seconds": round(s.seconds, 4)}
        for s in run.stages
    ]
    for row in stage_rows:
        key = f" [{row['key'][:12]}]" if row["key"] else ""
        print(f"stage {row['name']:<16} {row['kind']:<16} "
              f"{row['cache']:<9} {row['seconds']:8.2f}s{key}",
              file=sys.stderr)
    if args.json:
        print(json.dumps({
            "experiment": run.name,
            "params": run.params,
            "stages": stage_rows,
            "cache_summary": run.cache_summary,
            "result": to_jsonable(run.result),
        }, indent=2))
    else:
        print(run.text)
    return 0


def _cmd_list(args) -> int:
    from repro.pipeline.registry import describe

    rows = describe()
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    print(f"{'experiment':<14}{'stages':>7}  title")
    for row in rows:
        print(f"{row['name']:<14}{len(row['stages']):>7}  {row['title']}")
    print("\nrun one with: python -m repro run <experiment> "
          "[--quick] [--workers N] [--cache DIR]")
    return 0


def _cmd_describe(args) -> int:
    from repro.pipeline.registry import describe

    _resolve_experiment(args.experiment)
    row = describe(args.experiment)[0]
    if args.json:
        print(json.dumps(row, indent=2))
        return 0
    print(f"{row['name']}: {row['title']}")
    if row["description"]:
        print(f"  {row['description']}")
    print("  parameters (override with --set KEY=VALUE):")
    for key, value in row["params"].items():
        quick = (f"   [quick: {json.dumps(row['quick'][key])}]"
                 if key in row["quick"] else "")
        print(f"    {key:<18} = {json.dumps(value)}{quick}")
    print("  stages:")
    for stage in row["stages"]:
        deps = f" <- {', '.join(stage['inputs'])}" if stage["inputs"] else ""
        cache = "cached" if stage["cacheable"] else "uncached"
        print(f"    {stage['name']:<16} {stage['kind']:<16} "
              f"({stage['impl']}, {cache}){deps}")
    return 0


_COMMANDS = {"run": _cmd_run, "list": _cmd_list, "describe": _cmd_describe}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        # usage errors only — anything raised during the run itself is a
        # bug and propagates with its full traceback
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
