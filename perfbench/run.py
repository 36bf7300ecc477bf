"""Benchmark of the generate -> report -> waste flow.

Run from the repository root::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 12 \\
        --trace 0 [--out results.jsonl]

``--trace 0`` times untraced passes and reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics named in BENCHMARK.json (see README.md). The last line of standard output is
the result object; the line before it is the full record (host
fingerprint, workload parameters, per-pass samples), which ``--out``
also appends to a JSON-lines file for ``compare.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import signal
import sqlite3
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import monotonic, perf_counter, sleep

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Timed passes per run at least, even past ``--seconds``.
MIN_PASSES = 2
#: Stop starting passes after this many seconds, whatever ``--seconds``.
PASS_DEADLINE_S = 120.0
#: Share of the commands' traced time that reported layer spans must
#: cover.
MIN_COVERAGE = 0.9
#: Seconds the host-speed kernel runs per calibration, and its mean
#: time on the reference host (2-core x86-64 Xeon) that set-up and pass
#: times are scaled to.
KERNEL_SECONDS = 0.3
REFERENCE_KERNEL_S = 0.027
#: ``prctl`` option that makes orphaned descendants this process's
#: children, and the seconds they get to end after SIGTERM.
PR_SET_CHILD_SUBREAPER = 36
TERM_GRACE_S = 2.0
HERE = Path(__file__).resolve().parent


def speed_kernel() -> float:
    """Fixed work shaped like the flow's, timed to gauge host speed.

    Object and string churn over a working set of a few MB, a sort, an
    in-memory sqlite insert and numpy arithmetic: the kinds of work the
    generator, the store and the analyses do.
    """
    import numpy

    rows = [(f"exec-{i}", i * 0.5, {"id": i, "name": str(i)})
            for i in range(10000)]
    index = {row[0]: row for row in rows}
    total = sum(index[f"exec-{i}"][1] for i in range(0, 10000, 3))
    rows.sort(key=lambda row: -row[1])
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE t (name TEXT, value REAL)")
    conn.executemany("INSERT INTO t VALUES (?, ?)",
                     ((row[0], row[1]) for row in rows))
    conn.close()
    array = numpy.sort(numpy.random.default_rng(0).random(70000))
    return total + float(array[0])


def kernel_time() -> float:
    """Mean time of :func:`speed_kernel` over :data:`KERNEL_SECONDS`.

    The mean, not the median: time the host takes away in slices
    shorter than one repetition slows the flow too.
    """
    # Collection would scan whatever heap the passes left behind.
    gc.disable()
    try:
        reps = 0
        started = perf_counter()
        while perf_counter() - started < KERNEL_SECONDS or reps < 3:
            speed_kernel()
            reps += 1
        return (perf_counter() - started) / reps
    finally:
        gc.enable()


class HostClock:
    """Turns measured seconds into reference-host seconds.

    The host's speed drifts by 2x and more within minutes (README: Host
    noise), in CPU time as much as in wall time. The kernel is timed
    before and after every set-up and pass; a measurement is scaled by
    the reference kernel time over the mean of the two kernel times
    around it.
    """

    def __init__(self) -> None:
        speed_kernel()   # imports and first-touch costs stay untimed
        self.kernels = [kernel_time()]

    def adjust(self, seconds: float) -> float:
        """Scale ``seconds`` measured since the last call (or creation)."""
        self.kernels.append(kernel_time())
        around = (self.kernels[-2] + self.kernels[-1]) / 2
        return seconds * REFERENCE_KERNEL_S / around


def git_sha(root: Path) -> str | None:
    """The checkout's commit, read from ``.git`` (None outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return None


def host_fingerprint(root: Path) -> dict:
    import numpy

    return {"cpu_cores": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_sha": git_sha(root)}


def peak_rss_mb() -> float:
    """Peak resident set of the process running the timed passes, in MB.

    Each run is a fresh process and set-up runs in a child, so
    ``ru_maxrss`` covers this run's passes (and imports) only.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(sample[key] for sample in samples)


def set_up(workload, workdir: Path) -> None:
    """Run the workload's set-up in a fresh interpreter, then load its result."""
    src = Path.cwd() / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join((str(HERE), str(src)))}
    code = ("import sys; from workloads import prepare; "
            "prepare(sys.argv[1], sys.argv[2])")
    child = subprocess.run(
        [sys.executable, "-c", code, workload.name, str(workdir)],
        env=env, stdout=sys.stderr, check=False)
    if child.returncode != 0:
        raise RuntimeError(f"set-up of {workload.name} exited with "
                           f"{child.returncode}")
    workload.load_setup()


def adopt_orphans() -> None:
    """Become the reaper of this process's orphaned descendants (Linux).

    A process that a child leaves behind is then re-parented here rather
    than to init, so :func:`stop_children` can end it.
    """
    with contextlib.suppress(AttributeError, OSError):
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def child_pids() -> list[int]:
    """Live processes whose parent is this one, read from ``/proc``."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        with contextlib.suppress(OSError, IndexError, ValueError):
            stat = Path(f"/proc/{entry}/stat").read_text()
            # Fields after the parenthesised command: state, ppid, ...
            fields = stat[stat.rindex(")") + 2:].split()
            if int(fields[1]) == me and fields[0] != "Z":
                pids.append(int(entry))
    return pids


def reap() -> None:
    """Collect every child that has already ended."""
    with contextlib.suppress(ChildProcessError):
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass


def stop_children() -> None:
    """End every child still running (SIGTERM, then SIGKILL) and reap it.

    Loops because ending a child can orphan its own children to this
    process (see :func:`adopt_orphans`).
    """
    reap()
    while pids := child_pids():
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGTERM)
        deadline = monotonic() + TERM_GRACE_S
        while child_pids() and monotonic() < deadline:
            reap()
            sleep(0.05)
        for pid in child_pids():
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        for pid in pids:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
        reap()


def measure(workload, workdir: Path, seconds: float,
            per_layer: dict[str, str] | None) -> dict:
    """Set up, then time passes until ``seconds`` have elapsed.

    ``per_layer`` (metric name -> unit) asks for a traced run.
    """
    from layers import Recorder, instrument
    from workloads import covered_spans, layer_metrics

    trace = per_layer is not None
    clock = HostClock()
    setups: list[dict] = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        started = perf_counter()
        set_up(workload, workdir)
        raw = perf_counter() - started
        setups.append({"setup_s": clock.adjust(raw), "raw_s": raw,
                       "kernel_s": clock.kernels[-1]})

    attempted = failed = 0
    untraced: list[dict] = []
    traced: list[dict] = []
    failures: list[str] = []
    started = perf_counter()
    passes = 0
    while True:
        with_trace = trace and passes % 2 == 1
        gc.collect()
        try:
            if with_trace:
                recorder = Recorder(*covered_spans(per_layer))
                with instrument(recorder):
                    outcome = workload.run(recorder)
            else:
                outcome = workload.run()
        except Exception:
            attempted += 1
            failed += 1
            failures.append(traceback.format_exc(limit=5))
            outcome = None
        passes += 1
        if outcome is not None:
            attempted += outcome.commands + len(outcome.checks)
            bad = [c for c in outcome.checks if not c[1]]
            failed += len(bad)
            failures.extend(f"{name}: {detail}" for name, _, detail in bad)
            sample = {"wall_s": clock.adjust(outcome.wall_s),
                      "raw_wall_s": outcome.wall_s,
                      "kernel_s": clock.kernels[-1]}
            if with_trace:
                sample.update(layer_metrics(recorder, outcome))
                traced.append(sample)
                attempted += 1
                if sample["trace.coverage"] < MIN_COVERAGE:
                    failed += 1
                    failures.append(f"trace_coverage: "
                                    f"{sample['trace.coverage']:.3f}")
            else:
                untraced.append(sample)
        elapsed = perf_counter() - started
        enough = (passes >= MIN_PASSES and untraced
                  and (traced or not trace))
        if elapsed >= PASS_DEADLINE_S or (elapsed >= seconds and enough):
            break
    if not untraced or (trace and not traced):
        raise RuntimeError("no pass completed:\n" + "\n".join(failures))

    if trace:
        values = {name: median_of(traced, name)
                  for name in per_layer if name in traced[0]}
        values["trace.overhead_frac"] = (median_of(traced, "wall_s")
                                         / median_of(untraced, "wall_s")
                                         - 1.0)
        values["host.raw_wall_s"] = median_of(untraced, "raw_wall_s")
        values["host.kernel_s"] = statistics.median(clock.kernels)
        missing = set(per_layer) - set(values)
        if missing:
            raise RuntimeError(f"per-layer metrics not measured: {missing}")
        metrics = {name: {"value": values[name], "unit": per_layer[name]}
                   for name in per_layer}
    else:
        metrics = {
            "setup_s": {"value": median_of(setups, "setup_s"), "unit": "s"},
            "wall_s": {"value": median_of(untraced, "wall_s"), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"}}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics,
            "samples": {"setup": setups, "untraced": untraced,
                        "traced": traced},
            "failures": failures}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ingest", "study", "fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="append the full record to this JSONL file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    per_layer = None
    if args.trace:
        benchmark = json.loads((root / "BENCHMARK.json").read_text())
        per_layer = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    sys.path.insert(0, str(src))
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    # Temporary files of the flow (and of its worker processes) stay
    # inside the checkout.
    os.environ["TMPDIR"] = str(workdir)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](workdir)
    adopt_orphans()
    try:
        # The flow's own prints must not displace the result line.
        with contextlib.redirect_stdout(sys.stderr):
            result = measure(workload, workdir, args.seconds, per_layer)
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host_fingerprint(root), "params": workload.params(),
              **result}
    for failure in result.pop("failures"):
        print(failure, file=sys.stderr)
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
