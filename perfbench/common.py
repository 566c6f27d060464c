"""Shared plumbing of the benchmark: paths, clean environments, processes,
statistics and memory readings.

Nothing here imports the program under test; workloads import it lazily
after :func:`prepare_inprocess` has scrubbed the environment and put the
checkout's ``src`` on ``sys.path``.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: checkout root (the benchmark lives in ``<root>/perfbench``)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: scratch space for caches, registries and logs; ignored by git
WORK_ROOT = os.path.join(ROOT, ".bench_build", "perfbench")



class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, failed launch)."""


def check_checkout() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program sources under {SRC}")


def clean_env(workdir: str) -> Dict[str, str]:
    """The environment of every process the benchmark launches.

    Every ``REPRO_*`` variable is dropped, so that no number rests on
    sleep emulation (``REPRO_PROFILE_WALLTIME_SCALE``/``_CAP``), injected
    faults (``REPRO_FAULTS``, ``REPRO_FAULT_SEED``), quick profiles
    (``REPRO_EXP_QUICK``), a stray cache (``REPRO_CACHE_DIR``), a remote
    daemon (``REPRO_SERVE_SOCKET``) or another array backend
    (``REPRO_BACKEND``).
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = workdir
    env.pop("PYTHONSTARTUP", None)
    return env


def prepare_inprocess(workdir: str) -> None:
    """Scrub this process the same way, then make ``repro`` importable."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def make_workdir(tag: str) -> str:
    os.makedirs(WORK_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK_ROOT)


def remove_tree(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def machine() -> Dict[str, object]:
    import numpy
    # REPRO_BACKEND is scrubbed, so the program runs its default backend
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "backend": "numpy",
            "platform": platform.platform()}


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
class Finished:
    """Outcome of one short-lived program process."""

    def __init__(self, returncode: int, wall_s: float, maxrss_mb: float,
                 stdout: str, stderr: str):
        self.returncode = returncode
        self.wall_s = wall_s
        self.maxrss_mb = maxrss_mb
        self.stdout = stdout
        self.stderr = stderr


def run_program(args: Sequence[str], workdir: str, env: Dict[str, str],
                timeout: float = 170.0) -> Finished:
    """``python <args>``, timed from launch to exit, with its peak RSS.

    The peak comes from ``wait4``: the largest resident set of the process
    or of any descendant it waited for (pool workers included).
    """
    out_path = os.path.join(workdir, "stdout.log")
    err_path = os.path.join(workdir, "stderr.log")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env, stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL,
                                start_new_session=True)
        deadline = started + timeout
        status = rusage = None
        while status is None:
            pid, raw, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                status, rusage = raw, usage
                break
            if time.perf_counter() > deadline:
                _kill_group(proc.pid)
                _, status, rusage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Finished(proc.returncode, wall, rusage.ru_maxrss / 1024.0,
                    stdout, stderr)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Server:
    """A long-running program process that prints one JSON ready line."""

    def __init__(self, name: str, args: Sequence[str], workdir: str,
                 env: Dict[str, str]):
        self.name = name
        self._out = os.path.join(workdir, f"{name}.out")
        self._err = os.path.join(workdir, f"{name}.err")
        with open(self._out, "wb") as out, open(self._err, "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, *args], cwd=ROOT, env=env, stdout=out,
                stderr=err, stdin=subprocess.DEVNULL, start_new_session=True)

    def wait_ready(self, timeout: float = 60.0) -> dict:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            with open(self._out, encoding="utf-8") as fh:
                line = fh.readline()
            if line.endswith("\n"):
                return json.loads(line)
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise BenchError(f"{self.name} did not become ready: "
                         f"{self.stderr_tail()}")

    def stderr_tail(self) -> str:
        try:
            with open(self._err, encoding="utf-8", errors="replace") as fh:
                return fh.read()[-2000:]
        except OSError:
            return ""

    def peak_rss_mb(self) -> float:
        """Summed peak RSS of the process and its live descendants."""
        return sum(_vm_hwm_kb(pid) for pid in _process_tree(self.proc.pid)) \
            / 1024.0

    def cpu_s(self) -> float:
        """User + system CPU time of the process and its live descendants."""
        return sum(_cpu_s(pid) for pid in _process_tree(self.proc.pid))

    def stop(self, timeout: float = 20.0) -> None:
        """SIGTERM (the servers drain and exit), SIGKILL the group if stuck,
        then wait until no process of the group is left."""
        if self.proc.poll() is None:
            try:
                self.proc.send_signal(signal.SIGTERM)
            except ProcessLookupError:
                pass
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                _kill_group(self.proc.pid)
                self.proc.wait()
        # stragglers of the group (pool workers of a killed parent)
        _kill_group(self.proc.pid)
        deadline = time.perf_counter() + 5.0
        while time.perf_counter() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)


def _process_tree(pid: int) -> List[int]:
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        tree.append(current)
        task_dir = f"/proc/{current}/task"
        try:
            tids = os.listdir(task_dir)
        except OSError:
            continue
        for tid in tids:
            try:
                with open(f"{task_dir}/{tid}/children") as fh:
                    frontier.extend(int(c) for c in fh.read().split())
            except OSError:
                continue
    return tree


def _vm_hwm_kb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return 0.0


_TICK = os.sysconf("SC_CLK_TCK")


def _cpu_s(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK


def _cpu_ticks() -> List[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (user, nice, system,
    idle, iowait, irq, softirq, steal, ...), in clock ticks."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return []


class HostSteal:
    """Samples the CPU time the hypervisor stole from this machine.

    The ``steal`` column of ``/proc/stat`` counts ticks in which a virtual
    CPU was ready to run while the host ran something else.  On a shared
    host it comes in bursts that stall every process of the stack at once,
    and request latency follows it closely; sampling it every
    ``interval_s`` tells which requests were in flight during a burst.
    Where the column is missing, nothing is ever stolen.
    """

    def __init__(self, interval_s: float = 0.01):
        self.interval_s = interval_s
        #: sample instants (perf_counter) and the counters read there
        self.times: List[float] = []
        self.stolen: List[int] = []
        self.total: List[int] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop,
                                        name="perfbench-steal", daemon=True)

    def __enter__(self) -> "HostSteal":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()

    def _sample(self) -> None:
        ticks = _cpu_ticks()
        self.stolen.append(ticks[7] if len(ticks) > 7 else 0)
        self.total.append(sum(ticks))
        self.times.append(time.perf_counter())

    def between(self, start: float, end: float) -> Tuple[int, int]:
        """(stolen, all) CPU ticks from the last sample at or before
        ``start`` to the first at or after ``end``."""
        first = max(0, bisect.bisect_right(self.times, start) - 1)
        last = min(len(self.times) - 1, bisect.bisect_left(self.times, end))
        return (self.stolen[last] - self.stolen[first],
                self.total[last] - self.total[first])


def self_peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
#: candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0)


def quantile(values: Sequence[float], percent: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail(values: Sequence[float], count: Optional[int] = None):
    """(label, value): the highest percentile with >= 10 samples beyond it,
    or the maximum when the sample is too small for any.

    ``count`` fixes the sample size the percentile is chosen for, so that
    a sample whose size varies between runs keeps one percentile.
    """
    count = len(values) if count is None else count
    for percent in TAIL_PERCENTILES:
        if count * (100.0 - percent) / 100.0 >= 10:
            return f"p{percent:g}", quantile(values, percent)
    return "max", max(values)


median = statistics.median
