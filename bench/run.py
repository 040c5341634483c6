"""ctrlchan benchmark: seeded closed-loop workloads, checked op by op.

    python3 bench/run.py --workload switch-remix-d8 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all

One process, one client: each op starts when the previous one has returned.
With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs half its time untraced and half traced, and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable table.  The exit code is nonzero if any op failed.

The program is imported from ``src/`` of the checkout this file sits in,
never from anywhere else.
"""

from __future__ import annotations

import os

# One BLAS thread: a plain single-threaded baseline that uses at most one
# core, whatever the machine.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_OPS = 100            # p90 needs at least ten samples beyond it
HARD_STOP_S = 150.0      # keeps a slow program inside the 180 s run limit
SETUP_PROBES = 5
PROBE_EVERY_S = 0.1
KERNEL_REF_S = 0.004  # kernel time that defines a reference second (see README)
WORKLOAD_NAMES = ("switch-remix-d8", "dilation-d8", "holevo-grid-qubit")

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
LAYER_UNITS = {
    "calls_per_op": "calls/op",
    "eig_calls_per_op": "calls/op",
    "validations_per_op": "calls/op",
    "constructions_per_op": "calls/op",
    "self_ms_per_op": "ms/op",
    "self_share": "fraction",
    "eig_per_entropy": "eig/entropy",
    "overhead": "ratio",
}


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import ctrlchan from this checkout's ``src/`` and the workloads."""
    sys.path.insert(0, str(SRC))
    try:
        import ctrlchan
    except ImportError as exc:
        raise ProgramMissing(f"cannot import ctrlchan from {SRC}: {exc}") from exc
    if not Path(ctrlchan.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"ctrlchan was imported from {ctrlchan.__file__}, not {SRC}")
    import workloads
    return workloads


def tail_percentile(values, q: float) -> float:
    """Nearest-rank q-quantile, refused unless ten or more samples lie beyond it."""
    n = len(values)
    rank = math.ceil(q * n)
    if n - rank < 10:
        raise ValueError(f"{n} samples leave {n - rank} beyond the {q:.0%} point; need 10")
    return sorted(values)[rank - 1]


def setup_probe(workload: str, seed: int) -> float:
    """Seconds to import the program and draw the first block of inputs,
    scaled to the reference speed by kernel runs made right after."""
    t0 = time.perf_counter()
    wl = load_program().WORKLOADS[workload]
    next(wl.blocks(seed))
    seconds = time.perf_counter() - t0
    probe = SpeedProbe()
    return seconds * KERNEL_REF_S / statistics.median(probe.kernel() for _ in range(9))


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class SpeedProbe:
    """A fixed reference kernel, timed between ops, that follows machine speed.

    Shared machines change speed by tens of percent over seconds to minutes.
    Every reported time is scaled by KERNEL_REF_S over the time of this kernel
    next to it, so that drift cancels and what remains is the program's own
    speed.  The kernel mixes what the program spends its time on: small
    complex matrix products and 4x4 spectra called from Python, 64x64
    decompositions, and plain bytecode.  It never calls ctrlchan.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(20181023)
        g = rng.standard_normal((3, 64, 64)) + 1j * rng.standard_normal((3, 64, 64))
        self.small = g[0, :8, :8] / 8.0
        self.h4 = g[1, :4, :4] + g[1, :4, :4].conj().T
        self.h64 = g[2] + g[2].conj().T

    def kernel(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        x = self.small
        for _ in range(300):
            x = self.small @ x
        for _ in range(100):
            np.linalg.eigvalsh(self.h4)
        for _ in range(2):
            np.linalg.eigh(self.h64)
        acc = 0
        for i in range(3000):
            acc += i * i % 7
        return time.perf_counter() - t0


@dataclass
class Phase:
    """Ops of one stretch of a run, with the kernel times taken between them."""

    op_start: list[float] = field(default_factory=list)
    op_seconds: list[float] = field(default_factory=list)
    op_ok: list[bool] = field(default_factory=list)
    kernel_at: list[float] = field(default_factory=list)
    kernel_seconds: list[float] = field(default_factory=list)

    def slowdowns(self) -> list[float]:
        """Per op: mean time of the five kernel runs nearest to it (two before,
        three after), relative to the reference machine."""
        out = []
        for t0 in self.op_start:
            i = bisect.bisect_right(self.kernel_at, t0)
            near = self.kernel_seconds[max(i - 2, 0):i + 3]
            out.append(statistics.fmean(near) / KERNEL_REF_S)
        return out

    def scaled(self) -> list[float]:
        """Op times in reference seconds."""
        return [t / s for t, s in zip(self.op_seconds, self.slowdowns())]

    def ops_per_s(self) -> float:
        return sum(self.op_ok) / sum(self.scaled())

    def latencies_ms(self) -> list[float]:
        return [t * 1e3 for t, ok in zip(self.scaled(), self.op_ok) if ok]


class Loop:
    """Closed-loop runner over one workload's input stream."""

    def __init__(self, wl, seed: int):
        self.wl = wl
        self.blocks = wl.blocks(seed)
        self.probe = SpeedProbe()
        self.pending: list = []
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    def _next_input(self):
        if not self.pending:
            self.pending = list(next(self.blocks, []))
            self.pending.reverse()
        return self.pending.pop() if self.pending else None

    def run(self, seconds: float, min_ops: int = 1, max_ops: int | None = None, tracer=None) -> Phase:
        """Run ops until ``seconds`` have passed and ``min_ops`` were attempted,
        or until ``max_ops`` or the inputs run out."""
        phase = Phase()
        t_end = time.perf_counter() + seconds
        t_stop = time.perf_counter() + HARD_STOP_S
        t_probe = 0.0
        done = 0
        while max_ops is None or done < max_ops:
            now = time.perf_counter()
            if now >= t_stop or (now >= t_end and done >= min_ops):
                break
            if now >= t_probe:
                phase.kernel_at.append(now)
                phase.kernel_seconds.append(self.probe.kernel())
                t_probe = now + PROBE_EVERY_S
            inputs = self._next_input()
            if inputs is None:
                break
            phase.op_start.append(time.perf_counter())
            failures, elapsed = self._one(inputs, tracer)
            done += 1
            phase.op_seconds.append(elapsed)
            phase.op_ok.append(not failures)
            if failures:
                self.failed += 1
                if self.first_failure is None:
                    self.first_failure = f"op {self.attempted - 1}: " + "; ".join(failures)
        phase.kernel_at.append(time.perf_counter())
        phase.kernel_seconds.append(self.probe.kernel())
        return phase

    def _one(self, inputs, tracer) -> tuple[list[str], float]:
        op_id = self.attempted
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = self.wl.op(inputs)
            else:
                with tracer.op_span(op_id):
                    result = self.wl.op(inputs)
        except Exception:  # noqa: BLE001 - an op that raises is a counted failure
            return [traceback.format_exc(limit=-3).strip()], time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        return self.wl.check(inputs, result), elapsed


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def thread_count() -> int | None:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns its record, which is also written to ``bench/out``."""
    wl = load_program().WORKLOADS[name]
    setup_times = measure_setup(name, seed)
    loop = Loop(wl, seed)
    info = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            **environment()}
    if not trace:
        phase = loop.run(seconds, min_ops=MIN_OPS)
        ms = phase.latencies_ms()
        metrics = {
            "ops_per_s": phase.ops_per_s(),
            "op_ms_p50": tail_percentile(ms, 0.5),
            "op_ms_p90": tail_percentile(ms, 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup_times),
        }
        counts = {"ops_per_s": len(ms), "op_ms_p50": len(ms), "op_ms_p90": len(ms),
                  "peak_rss_mb": 1, "setup_s": len(setup_times)}
        units = END_TO_END_UNITS
        info["median_slowdown"] = statistics.median(phase.slowdowns())
        info["phase"] = asdict(phase)
        info["wall_ops_per_s"] = sum(phase.op_ok) / sum(phase.op_seconds)
    else:
        import spans

        half = wl.size // 2 if wl.size else None
        untraced = loop.run(seconds / 2, max_ops=half)
        tracer = spans.Tracer()
        tracer.install()
        before = loop.attempted
        try:
            traced = loop.run(seconds / 2, tracer=tracer)
        finally:
            tracer.uninstall()
        metrics = spans.layer_table(tracer)
        slowdown = statistics.fmean(traced.slowdowns())
        for layer in spans.LAYERS:
            metrics[f"{layer}.self_ms_per_op"] /= slowdown
        metrics["trace.overhead"] = untraced.ops_per_s() / traced.ops_per_s()
        counts = {k: loop.attempted - before for k in metrics}
        units = {k: LAYER_UNITS[k.split(".", 1)[1]] for k in metrics}
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{name}.npz")
        info["spans_file"] = str((OUT / f"spans-{name}.npz").relative_to(ROOT))
    info.update(attempted=loop.attempted, failed=loop.failed, first_failure=loop.first_failure,
                fail_frac=loop.failed / loop.attempted, threads=thread_count(),
                setup_samples_s=setup_times)
    info["metrics"] = {k: {"value": v, "unit": units[k], "samples": counts[k]}
                       for k, v in metrics.items()}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(info, fh, indent=2, sort_keys=True)
    return info


def print_report(record: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} seconds={record['seconds']} "
          f"trace={record['trace']}")
    for key in ("python", "numpy", "blas", "blas_threads", "nproc", "machine", "commit", "threads"):
        print(f"#   {key}: {record[key]}")
    print(f"#   attempted={record['attempted']} failed={record['failed']} "
          f"fail_frac={record['fail_frac']:.6g}")
    if record["first_failure"]:
        print(f"#   first failure: {record['first_failure']}")
    for key, m in record["metrics"].items():
        print(f"{record['workload']:>18}  {key:<34} {m['value']:>14.6g} {m['unit']:<12} n={m['samples']}")


def run_all(args) -> int:
    """Each workload in its own process, so set-up and peak RSS stay per workload."""
    attempted = failed = 0
    metrics = {}
    correct = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            return 2
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(repr(setup_probe(args.workload, args.seed)))
            return 0
        if args.workload == "all":
            return run_all(args)
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(record)
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in record["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
