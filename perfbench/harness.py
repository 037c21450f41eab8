"""Run-time pieces shared by the workloads.

A pass runs a workload's task list once.  Each task is an *operation*: a
named block of calls into the package whose outputs are checked against an
oracle.  An operation fails when a call raises or a check does not hold.
In a traced pass every call into the package is wrapped in a span; spans
are kept in memory and written out when the run ends.
"""
from __future__ import annotations

import contextlib
import ctypes
import hashlib
import math
import mmap
import os
import platform
import resource
import statistics
import struct
import sys
import time
from collections import defaultdict

import numpy as np


class OracleFailure(Exception):
    """An output disagreed with its oracle."""


def expect(ok, message: str) -> None:
    if not ok:
        raise OracleFailure(message)


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Tracer:
    """In-memory spans of one pass.

    A span is (span id, parent span id, run id, name, start, end, cpu
    seconds or None); times are perf_counter seconds.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name: str, cpu: bool = False):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        cpu0 = _cpu_seconds() if cpu else None
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            used = _cpu_seconds() - cpu0 if cpu else None
            self._stack.pop()
            self.spans.append((span_id, parent, self.run_id, name, start, end, used))

    def totals(self) -> dict[str, float]:
        """Summed duration per span name, operation spans excluded."""
        out: dict[str, float] = defaultdict(float)
        for _, _, _, name, start, end, _ in self.spans:
            if not name.startswith("op."):
                out[name] += end - start
        return dict(out)

    def cpu_totals(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for _, _, _, name, _, _, used in self.spans:
            if used is not None:
                out[name] += used
        return dict(out)


# -- host-speed probe ----------------------------------------------------------------

_PROBE_RNG = np.random.default_rng(20250331)
_PROBE_BIG = _PROBE_RNG.standard_normal(1 << 19)        # 4 MiB, past L2
_PROBE_IDX = _PROBE_RNG.integers(0, _PROBE_BIG.size, 1 << 15)
_PROBE_SMALL = _PROBE_RNG.standard_normal((100, 8))
PROBE_PARTS = ("interpreter", "small_arrays", "gather", "page_faults")


def probe() -> tuple[float, ...]:
    """Seconds taken by each part of a fixed reference kernel outside the package.

    The parts are what the workloads spend their time on: interpreter work,
    numpy calls on small arrays, random gathers from an array past L2, and
    first touches of freshly mapped memory (the large temporaries of the
    tensor quadrature fault in every page).  The kernel never changes, so
    its time moves only with the speed the host gives this process.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(4000):
        acc += (i * 0.5) % 7.0
    t1 = time.perf_counter()
    s = _PROBE_SMALL
    for _ in range(80):
        s = np.tanh(s * 0.99 + 0.01)
    acc += float(s.sum())
    t2 = time.perf_counter()
    acc += float(_PROBE_BIG[_PROBE_IDX].sum()) + float(_PROBE_BIG[_PROBE_IDX[::-1]].sum())
    t3 = time.perf_counter()
    with mmap.mmap(-1, 1 << 22) as fresh:                 # 4 MiB, mapped on demand
        np.frombuffer(fresh, dtype=np.float64).fill(acc)
    t4 = time.perf_counter()
    return (t1 - t0, t2 - t1, t3 - t2, t4 - t3)


class Pass:
    """One execution of a workload's task list (or of its set-up)."""

    def __init__(self, label: str, workdir, tracer: Tracer | None = None,
                 probe_every_s: float | None = None):
        self.label = label
        self.workdir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.digests: dict[str, str] = {}
        self.particle_steps: dict[str, int] = {}
        self.op_walls: dict[str, float] = defaultdict(float)
        self.probes: list[tuple[float, ...]] = []     # one tuple of part times per probe
        self.probe_every_s = probe_every_s
        self._last_probe = -math.inf

    def maybe_probe(self, force: bool = False) -> None:
        """Time the probe between operations, at most once every `probe_every_s`."""
        if self.probe_every_s is None:
            return
        now = time.perf_counter()
        if force or now - self._last_probe >= self.probe_every_s:
            self.probes.append(probe())
            self._last_probe = time.perf_counter()

    @contextlib.contextmanager
    def op(self, name: str):
        """One operation: any exception or failed check inside marks it failed."""
        self.attempted += 1
        self.maybe_probe()
        scope = self.tracer.span("op." + name) if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with scope:
                yield
        except Exception as exc:  # a failing operation is reported, the run goes on
            self.failures.append(f"{self.label}: {name}: {type(exc).__name__}: {exc}")
        finally:
            self.op_walls[name] += time.perf_counter() - start

    def call(self, span_name: str, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        with self.tracer.span(span_name):
            return fn(*args, **kwargs)

    def simulate(self, tag: str, simulate_fn, config):
        """Time one simulate call; its span also records CPU seconds, children included."""
        self.particle_steps[tag] = config.n_steps * config.n_particles * config.replicas
        self.count("dynamics.simulate.particle_steps", self.particle_steps[tag])
        if self.tracer is None:
            return simulate_fn(config)
        with self.tracer.span(f"dynamics.simulate[{tag}]", cpu=True):
            return simulate_fn(config)

    def count(self, key: str, amount: int) -> None:
        self.counts[key] += int(amount)

    def digest(self, key: str, data) -> None:
        if isinstance(data, np.ndarray):
            data = np.ascontiguousarray(data).tobytes()
        self.digests[key] = hashlib.sha256(data).hexdigest()


def spectral_bytes(report) -> bytes:
    return struct.pack("<ddqd", report.epsilon, report.top_singular,
                       report.iterations, report.residual)


# -- environment -------------------------------------------------------------------

def blas_libraries() -> list[dict]:
    """OpenBLAS builds mapped into this process, with their thread counts.

    Reads /proc/self/maps; elsewhere the list is empty.
    """
    try:
        with open("/proc/self/maps") as fh:
            fields = (line.split() for line in fh)
            paths = sorted({f[-1] for f in fields if len(f) == 6
                            and "openblas" in os.path.basename(f[-1]).lower()
                            and ".so" in f[-1]})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        entry = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.argtypes, threads.restype = [], ctypes.c_int
                    entry["threads"] = int(threads())
                if config is not None and "config" not in entry:
                    config.argtypes, config.restype = [], ctypes.c_char_p
                    entry["config"] = config().decode(errors="replace").strip()
        found.append(entry)
    return found


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(nproc: int) -> dict:
    import scipy
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "nproc": nproc,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """Larger of this process's and its waited-for children's peak RSS (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def probe_summary(passes) -> dict:
    """Median time of the whole probe and of each part over every probe of a run."""
    probes = [p for ctx in passes for p in ctx.probes]
    summary = {"count": len(probes), "median_s": median([sum(p) for p in probes])}
    for i, part in enumerate(PROBE_PARTS):
        summary[part + "_s"] = median([p[i] for p in probes])
    return summary


def task_list_seconds(passes) -> float:
    """Time to solution for the task list: each operation's median over the
    passes, summed.  Host contention comes in bursts of a second or two; a
    per-operation median drops the passes a burst hit, where a whole-pass
    median would still carry a share of every burst."""
    names = {name for p in passes for name in p.op_walls}
    return sum(median([p.op_walls.get(name, 0.0) for p in passes]) for name in names)

