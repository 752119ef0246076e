"""Self-test of the benchmark itself, not of prgd.

    python3 perfbench/selftest.py

Checks that the seed twin is byte-for-byte the seed and imports no ``prgd``
module, and that tracing is invisible: traced runs give byte-identical trace
files and ``validate`` output, self times never exceed the traced wall time
(also with two worker threads), and a wrapped name that no longer exists is
recorded as absent instead of raising. Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (pins BLAS before numpy loads)
from spans import Span, Tracer, reduce_spans  # noqa: E402
from workloads import WORKERS_ENV, WORKLOADS  # noqa: E402

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def twin_is_the_seed() -> None:
    problems = run.twin_problems()
    check(not problems, "twin files match the recorded seed sha256 digests" + "".join(f"; {p}" for p in problems))
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import prgd_seed, prgd_seed.cli; "
             "print(sorted(m for m in sys.modules if m == 'prgd' or m.startswith('prgd.')))")
    done = subprocess.run([sys.executable, "-c", probe, str(run.TWIN_DIR)], capture_output=True, text=True)
    check(done.returncode == 0 and done.stdout.strip() == "[]",
          f"importing the twin loads no prgd module (got {done.stdout.strip() or done.stderr.strip()})")


def traced_and_untraced(cur, run_op):
    """Outputs and the reduced spans of run_op() without and with tracing."""
    tracer = Tracer(cur.__name__)
    plain = run_op()
    tracer.install()
    try:
        start = time.perf_counter()
        traced = run_op()
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return plain, traced, tracer.take(), wall


def tracing_is_invisible(cur, workdir: Path) -> None:
    for name, cls in sorted(WORKLOADS.items()):
        workload = cls(7, workdir)
        for i in range(workload.cycle):
            def run_op():
                prepared = workload.prepare(i, "current")
                return workload.collect(prepared, workload.execute(cur, prepared))

            plain, traced, spans, wall = traced_and_untraced(cur, run_op)
            stats = reduce_spans(spans)
            self_total = sum(stats.self_time.values())
            check(plain.fingerprint == traced.fingerprint, f"{name} op {i}: tracing leaves the output byte-identical")
            check(bool(spans) and self_total <= wall,
                  f"{name} op {i} at {workload.workers(i)} worker(s): self times {self_total:.4f}s "
                  f"<= traced wall {wall:.4f}s over {len(spans)} spans")

    argv = ["validate", "--suite", "surface", "--samples", str(2 * (1 << 18)), "--seed", "3"]
    os.environ[WORKERS_ENV] = "2"

    def validate():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cur.cli.main(argv)
        return code, out.getvalue()

    plain, traced, spans, wall = traced_and_untraced(cur, validate)
    check(plain == traced and plain[0] == 0, "validate --suite surface output is byte-identical with tracing, 2 workers")
    threads = {s.thread for s in spans if s.name.startswith("geometry.")}
    parented = all(s.parent is not None for s in spans if s.name.startswith("geometry."))
    check(len(threads) >= 2 and parented, "worker-thread sampler spans are recorded with a parent span")
    check(sum(reduce_spans(spans).self_time.values()) <= wall, "self times stay within the wall time with 2 workers")


def overlapping_threads_share_time() -> None:
    spans = [Span(1, "outer", 0.0, 10.0, None, 1, None),
             Span(2, "leaf", 1.0, 5.0, 1, 2, None),
             Span(3, "leaf", 3.0, 7.0, 1, 3, None)]
    stats = reduce_spans(spans)
    check(abs(stats.self_time["outer"] - 4.0) < 1e-12 and abs(stats.self_time["leaf"] - 6.0) < 1e-12,
          "overlapping spans of two threads share their common time (outer 4 s, leaves 6 s)")


def missing_names_are_absent(cur) -> None:
    targets = {"optimizer.prgd_run": None, "optimizer.no_such_function": None,
               "no_such_module.f": None, "optimizer.LossModel.no_such_method": None}
    tracer = Tracer(cur.__name__, targets)
    original = cur.optimizer.prgd_run
    try:
        tracer.install()
        wrapped = cur.optimizer.prgd_run is not original
    finally:
        tracer.uninstall()
    check(sorted(tracer.absent) == sorted(set(targets) - {"optimizer.prgd_run"}) and wrapped,
          f"missing names are recorded as absent: {tracer.absent}")
    check(cur.optimizer.prgd_run is original, "uninstall restores the original functions")


def main() -> int:
    cur = run.import_current()
    twin_is_the_seed()
    overlapping_threads_share_time()
    missing_names_are_absent(cur)
    scratch = run.ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        tracing_is_invisible(cur, Path(tmp))
    with contextlib.suppress(OSError):
        scratch.rmdir()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
