"""Paired-timing benchmark of prgd against its frozen seed twin.

Usage, from the repository root:

    python3 perfbench/run.py --workload accounting --seed 1 --seconds 20 --trace 0

``--trace 0`` times every operation back to back on the seed twin
(``perfbench/twin/prgd_seed``) and on the current ``src/prgd``, with the
side that runs first taken from the Thue-Morse sequence of the op index, and
reports the end-to-end metrics. ``--trace 1``
replays the operations on the current code alone, each once untraced and
once with spans, and reports the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The line before it, starting with ``detail``, holds the raw timings, the
environment and every failing input. See perfbench/README.md.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads here and inherited by every child
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TWIN_DIR = HERE / "twin"
TWIN_PACKAGE = "prgd_seed"
SETUP_PROBES = 5
# The twin's median set-up time on the reference machine (2 vCPUs, Python
# 3.11.7, numpy 2.4.6). setup_s is the current code's set-up time at that
# speed: this times the median of current ÷ twin set-up over paired probes.
SETUP_REFERENCE_S = 0.25
CHILD_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))
from spans import SpanStats, Tracer, reduce_spans  # noqa: E402
from workloads import WORKERS_ENV, WORKLOADS, Workload  # noqa: E402


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics named in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def import_current():
    """The ``prgd`` package under src/ of this checkout, never another copy."""
    if not (SRC / "prgd" / "__init__.py").is_file():
        raise BenchmarkError(f"no prgd sources at {SRC / 'prgd'}")
    sys.path.insert(0, str(SRC))
    import prgd
    import prgd.cli  # noqa: F401  the workloads call prgd.cli.main

    if Path(prgd.__file__).resolve().parent != (SRC / "prgd").resolve():
        raise BenchmarkError(f"imported prgd from {prgd.__file__}, not from {SRC}")
    return prgd


def twin_problems() -> list[str]:
    """Files of the twin whose sha256 differs from the recorded seed blobs."""
    problems = []
    recorded = (TWIN_DIR / f"{TWIN_PACKAGE}.sha256").read_text().splitlines()
    expected = {name: digest for digest, name in (line.split() for line in recorded if line.strip())}
    present = {p.name for p in (TWIN_DIR / TWIN_PACKAGE).glob("*.py")}
    for name in sorted(present | set(expected)):
        path = TWIN_DIR / TWIN_PACKAGE / name
        digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"
        if digest != expected.get(name):
            problems.append(f"twin file {name} does not match the seed blob")
    return problems


def import_twin():
    """The seed twin, and any prgd modules its import loaded (there must be none)."""
    before = {key for key in sys.modules if key == "prgd" or key.startswith("prgd.")}
    sys.path.insert(0, str(TWIN_DIR))
    import prgd_seed
    import prgd_seed.cli  # noqa: F401

    after = {key for key in sys.modules if key == "prgd" or key.startswith("prgd.")}
    return prgd_seed, sorted(after - before)


def environment(workload: Workload, ops: list[int]) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_PIN,
        WORKERS_ENV: sorted({workload.workers(i) for i in ops}),
    }


def first_of_pair(i: int) -> bool:
    """Whether op i runs its first-named side first: the Thue-Morse sequence,
    even parity of the 1-bits of i. Ops 2k and 2k+1 take opposite orders, and
    since every kind of op recurs with a period that is a power of two, the
    ops of each kind also take both orders, in turn pair by pair."""
    return bin(i).count("1") % 2 == 0


def run_once(workload: Workload, pkg, i: int, side: str):
    """Prepare, execute (timed) and return (seconds, prepared, raw)."""
    prepared = workload.prepare(i, side)
    start = time.perf_counter()
    raw = workload.execute(pkg, prepared)
    return time.perf_counter() - start, prepared, raw


# ---------------------------------------------------------------- children


def child(args, workdir: Path) -> None:
    """Set up the workload on the current code alone (on the twin alone with
    --child setup-twin); with --child rss also run the first operation of
    each kind at one worker and report peak RSS."""
    cur = import_twin()[0] if args.child == "setup-twin" else import_current()
    workload = WORKLOADS[args.workload](args.seed, workdir)
    ready = time.time()
    for i in workload.rss_ops if args.child == "rss" else ():
        prepared = workload.prepare(i, "current")
        os.environ[WORKERS_ENV] = "1"
        workload.collect(prepared, workload.execute(cur, prepared))
    maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"ready": ready, "peak_rss_mb": maxrss_kib / 1024.0}))


def probe(args, mode: str) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
            "--workload", args.workload, "--seed", str(args.seed)]
    started = time.time()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        raise BenchmarkError(f"{mode} probe failed: {done.stderr.strip()}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - started
    return report


# ---------------------------------------------------------------- windows


def paired_window(workload: Workload, cur, twin, seconds: float, chores=()):
    """Run each op on the twin and on the current code, in the order that
    ``first_of_pair`` picks, in whole blocks of ``workload.cycle`` ops, for
    ``seconds``. ``chores`` run between blocks, spread evenly over the
    window; their time does not count toward it."""
    for pkg in (twin, cur):  # warm-up: imports, caches and lazy set-up
        run_once(workload, pkg, 0, "twin" if pkg is twin else "current")
    gc.collect()
    pending = list(chores)
    times = {"twin": [], "current": []}
    outputs = {}
    start, chore_s, i = time.perf_counter(), 0.0, 0
    while True:
        if i % workload.cycle == 0:
            elapsed = time.perf_counter() - start - chore_s
            if pending and elapsed >= (len(chores) - len(pending)) * seconds / len(chores):
                began = time.perf_counter()
                pending.pop()()
                chore_s += time.perf_counter() - began
                continue
            if elapsed >= seconds:
                break
        for side in (("twin", "current") if first_of_pair(i) else ("current", "twin")):
            taken, prepared, raw = run_once(workload, twin if side == "twin" else cur, i, side)
            times[side].append(taken)
            if side == "current":
                outputs[i] = workload.collect(prepared, raw)
        i += 1
    for chore in pending:
        chore()
    return times, outputs


def block_speedups(times: dict[str, list[float]], cycle: int) -> list[float]:
    """Twin time over current time, summed within each block of ops."""
    return [sum(times["twin"][k:k + cycle]) / sum(times["current"][k:k + cycle])
            for k in range(0, len(times["current"]), cycle)]


def traced_window(workload: Workload, cur, seconds: float):
    """Run each operation untraced and traced on the current code, in the
    order that ``first_of_pair`` picks; return per-op records, outputs and
    problems."""
    tracer = Tracer(cur.__name__)
    run_once(workload, cur, 0, "current")
    gc.collect()
    records, outputs, problems = [], {}, []
    deadline = time.perf_counter() + seconds
    i = 0
    while i % workload.cycle or time.perf_counter() < deadline:
        timed = {}
        for traced in ((False, True) if first_of_pair(i) else (True, False)):
            if traced:
                tracer.install()
            try:
                elapsed, prepared, raw = run_once(workload, cur, i, "current")
            finally:
                tracer.uninstall()
            timed[traced] = (elapsed, workload.collect(prepared, raw))
        stats = reduce_spans(tracer.take())
        if timed[True][1].fingerprint != timed[False][1].fingerprint:
            problems.append(f"op {i}: tracing changed the output")
        if sum(stats.self_time.values()) > timed[True][0] + 1e-6:
            problems.append(f"op {i}: self times exceed the traced wall time")
        records.append({"i": i, "workers": workload.workers(i), "untraced_s": timed[False][0],
                        "traced_s": timed[True][0], "stats": stats})
        outputs[i] = timed[False][1]
        i += 1
    return records, outputs, problems, tracer.absent


def tail(values: list[float]) -> float:
    """The highest order statistic with at least ten values beyond it,
    never below the median."""
    ordered = sorted(values)
    return ordered[max(len(ordered) - 11, len(ordered) // 2)]


def layer_metrics(records: list[dict]) -> dict[str, float]:
    n = len(records)
    total, by_workers = SpanStats(), {1: SpanStats(), 2: SpanStats()}
    for r in records:
        total.add(r["stats"])
        by_workers.setdefault(r["workers"], SpanStats()).add(r["stats"])

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {
        "special.reg_inc_beta.calls": total.calls["special.reg_inc_beta"] / n,
        "special.reg_inc_beta.self_s": total.self_time["special.reg_inc_beta"] / n,
        "accountant.per_step_delta.evals_per_s": ratio(
            total.calls["accountant.per_step_delta"], total.inclusive["accountant.per_step_delta"]),
        "accountant.radius_for_target.delta_calls_per_solve": ratio(
            total.child_calls[("accountant.radius_for_target", "accountant.per_step_delta")],
            total.calls["accountant.radius_for_target"]),
        "geometry.sample_ball.rows_per_call": ratio(
            total.extra["geometry.sample_ball"]["rows"], total.calls["geometry.sample_ball"]),
        "geometry.sample_ball.self_s": total.self_time["geometry.sample_ball"] / n,
        "geometry.sample_sphere_surface.self_s": total.self_time["geometry.sample_sphere_surface"] / n,
        "optimizer.prgd_run.self_s": total.self_time["optimizer.prgd_run"] / n,
        "optimizer.LossModel.mean_loss.calls": total.calls["optimizer.LossModel.mean_loss"] / n,
        "optimizer.LossModel.mean_loss.self_s": total.self_time["optimizer.LossModel.mean_loss"] / n,
        "optimizer.estimate_sensitivity.self_s": total.self_time["optimizer.estimate_sensitivity"] / n,
        "optimizer.estimate_sensitivity.probes": total.extra["optimizer.estimate_sensitivity"]["probes"] / n,
        "optimizer.estimate_sensitivity.distinct_probe_ratio": ratio(
            total.extra["optimizer.estimate_sensitivity"]["distinct"],
            total.extra["optimizer.estimate_sensitivity"]["probes"]),
        "optimizer.RunTrace.serialize_lines.self_s": total.self_time["optimizer.RunTrace.serialize_lines"] / n,
        "optimizer.RunTrace.serialize_lines.bytes": total.extra["optimizer.RunTrace.serialize_lines"]["bytes"] / n,
        "cli.main.self_s": total.self_time["cli.main"] / n,
        "validation.wait_s": total.wait / n,
    }
    for oracle in ("mc_tv_distance", "surface_noise_distinguisher"):
        name = f"validation.{oracle}"
        for w in (1, 2):
            stats = by_workers[w]
            m[f"{name}.samples_per_s_{w}w"] = ratio(stats.extra[name]["samples"], stats.inclusive[name])
    # t(1 worker) / (2·t(2 workers)) over ops 2k, 2k+1 that ran the same work
    # at 1 and 2 workers
    times = {r["i"]: r["untraced_s"] for r in records}
    workers = {r["i"]: r["workers"] for r in records}
    one = [i for i in times if workers[i] == 1 and workers.get(i ^ 1) == 2]
    m["validation.parallel_efficiency"] = ratio(sum(times[i] for i in one),
                                                2.0 * sum(times[i ^ 1] for i in one))
    untraced = [r["untraced_s"] for r in records]
    m["op_p50_s"] = statistics.median(untraced)
    m["op_tail_s"] = tail(untraced)
    m["ops"] = float(n)
    m["trace_overhead"] = sum(r["traced_s"] for r in records) / sum(untraced)
    return m


# ---------------------------------------------------------------- main


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--child", choices=("setup", "setup-twin", "rss"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.child and (args.seconds is None or args.trace is None):
        parser.error("--seconds and --trace are required")
    return args


def benchmark(args, workdir: Path) -> tuple[dict, dict]:
    end_to_end, per_layer = declared_metrics()
    problems = twin_problems()
    cur = import_current()
    workload = WORKLOADS[args.workload](args.seed, workdir)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace}

    if args.trace == 0:
        peak_rss_mb = probe(args, "rss")["peak_rss_mb"]
        twin, leaked = import_twin()
        problems += [f"importing the twin loaded {name}" for name in leaked]
        # Set-up is an absolute time, and machine speed drifts by ±20 % over
        # minutes; each probe sets up the current code and the twin back to
        # back, in alternating order, so that the ratio cancels the drift.
        # Probes are spread across the window, so that one slow moment cannot
        # set the median.
        setups: list[dict[str, float]] = []

        def probe_setup() -> None:
            modes = ("setup", "setup-twin") if len(setups) % 2 == 0 else ("setup-twin", "setup")
            setups.append({mode: probe(args, mode)["setup_s"] for mode in modes})

        times, outputs = paired_window(workload, cur, twin, args.seconds, [probe_setup] * SETUP_PROBES)
        blocks = block_speedups(times, workload.cycle)
        values = {
            "speedup": statistics.median(blocks),
            "setup_s": SETUP_REFERENCE_S * statistics.median(p["setup"] / p["setup-twin"] for p in setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = end_to_end
        detail.update({
            "pairs": len(times["current"]),
            "current_s": sum(times["current"]),
            "twin_s": sum(times["twin"]),
            "current_ops_per_s": len(times["current"]) / sum(times["current"]),
            "twin_ops_per_s": len(times["twin"]) / sum(times["twin"]),
            "summed_speedup": sum(times["twin"]) / sum(times["current"]),
            "block_speedups": [round(r, 4) for r in blocks],
            "setup_probes_s": [p["setup"] for p in setups],
            "twin_setup_probes_s": [p["setup-twin"] for p in setups],
        })
    else:
        records, outputs, trace_problems, absent = traced_window(workload, cur, args.seconds)
        problems += trace_problems
        values, units = layer_metrics(records), per_layer
        detail["absent"] = absent

    def rerun(i: int):
        _, prepared, raw = run_once(workload, cur, i, "current")
        return workload.collect(prepared, raw)

    checked = workload.check(outputs, rerun, cur)
    problems += checked.problems
    if set(values) != set(units):
        raise BenchmarkError(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    detail.update({
        "environment": environment(workload, list(outputs)),
        "problems": problems,
        "failures": dict(checked.failures),
    })
    result = {
        "correct": not problems,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }
    return detail, result


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.child:
            child(args, workdir)
            return 0
        detail, result = benchmark(args, workdir)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    for description, count in sorted(detail["failures"].items()):
        print(f"FAIL x{count} {description}")
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
