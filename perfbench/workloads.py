"""The four benchmark workloads and the checks on their outputs.

Each workload turns the benchmark seed into an endless sequence of
operations; operation i is a pure function of (seed, i). An operation runs
in three steps:

* ``prepare(i, side)`` builds its arguments (untimed);
* ``execute(pkg, prepared)`` runs it on one package, the current ``prgd``
  or the frozen seed twin, and is the only step that is timed;
* ``collect(prepared, raw)`` reads its outputs back (untimed, current side).

``check`` then judges the collected outputs of a whole run. Per-operation
defects are counted in ``failed``; run-level invariants (rerun identity,
1 versus 2 worker identity, the saddle escape gate) go to ``problems``, which
make the run incorrect. The twin is a timing reference only and never an
oracle: later changes may legitimately change outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist
from typing import Any, Callable

import numpy as np

WORKERS_ENV = "PRGD_MC_WORKERS"


def derive_seed(seed: int, *keys: int) -> int:
    """A nonnegative 31-bit integer drawn from SeedSequence([seed, *keys])."""
    state = np.random.SeedSequence([seed, *keys]).generate_state(1)[0]
    return int(state) & 0x7FFFFFFF


@dataclass
class Output:
    """What one operation produced on the current code.

    ``fingerprint`` identifies the output bytes exactly; ``data`` is the
    parsed form the checks read.
    """

    fingerprint: str
    data: Any


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)

    def fail(self, description: str) -> None:
        self.failed += 1
        self.failures[description] += 1


class Workload:
    name = ""
    # ops per block: one turn through every kind of operation the workload mixes
    cycle = 1
    # op indices the memory probe runs: the first operation of every kind
    rss_ops: tuple[int, ...] = (0,)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def workers(self, i: int) -> int:
        return 1

    def prepare(self, i: int, side: str) -> Any:
        raise NotImplementedError

    def execute(self, pkg, prepared: Any) -> Any:
        raise NotImplementedError

    def collect(self, prepared: Any, raw: Any) -> Output:
        raise NotImplementedError

    def check(self, outputs: dict[int, Output], rerun: Callable[[int], Output], cur) -> CheckResult:
        """Judge the current side's outputs; ``rerun(i)`` runs op i again on
        the current package ``cur``, untimed."""
        raise NotImplementedError


# --------------------------------------------------------------------------
# accounting: scalar special-function and accountant code, no arrays


_ANCHOR_DIMS = (1, 10, 10**6, 10**7, 10**8)  # the d = 10^6..10^8 log-beta and d = 10 radius cases
_RANDOM_DIMS = 25
_GRID_POINTS = 8
_VARIANTS = 16
_POOL_SEED = 0  # the accounting pool does not depend on the benchmark seed
_TARGET_EXPONENTS = range(3, 16)  # radius targets 1e-3 .. 1e-15
_DELTA_RTOL = 1e-10
_REF_DIGITS = 50


def _reference_delta(d: int, s) -> float:
    """I_{s²}(1/2, (d+1)/2) at 50 digits, as an mpmath number."""
    import mpmath

    with mpmath.workdps(_REF_DIGITS):
        a = mpmath.mpf(1) / 2
        b = mpmath.mpf(d + 1) / 2
        z = mpmath.mpf(s) ** 2
        try:
            return mpmath.betainc(a, b, 0, z, regularized=True)
        except mpmath.libmp.NoConvergence:
            # the hypergeometric series stalls when b·z is large; integrate
            # 2(1-u²)^(b-1)/B(1/2, b) over [0, s] instead
            log_beta = mpmath.loggamma(a) + mpmath.loggamma(b) - mpmath.loggamma(a + b)
            u = mpmath.sqrt(z)
            width = 1 / mpmath.sqrt(b)
            cuts = [k * width for k in (1, 2, 4, 8, 16) if k * width < u]
            integrand = lambda t: mpmath.exp((b - 1) * mpmath.log1p(-t * t))
            return 2 * mpmath.quad(integrand, [0, *cuts, u]) / mpmath.exp(log_beta)


class Accounting(Workload):
    """One round: ``delta_curve`` per dimension over a stratified Δx grid,
    then ``radius_for_target`` at targets 1e-3 .. 1e-15.

    The pool of 16 variants is drawn once from ``_POOL_SEED`` and is the same
    for every benchmark seed; the benchmark seed sets the order in which a
    block of 16 rounds runs the variants. Every block therefore asks the same
    queries, and the share of them that fails is a property of the code, not
    of the draw or of how many blocks fit in the window. Δx grids are
    stratified so that δ spans (0, 1) in every dimension, using
    δ ≈ erf(s·sqrt(b)). Every δ value and every radius is one checked query.
    """

    name = "accounting"
    cycle = _VARIANTS

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        order = np.random.default_rng(np.random.SeedSequence([seed, 1])).permutation(_VARIANTS)
        self.order = [int(v) for v in order]
        rng = np.random.default_rng(np.random.SeedSequence([_POOL_SEED, 1]))
        random_dims = np.exp(rng.uniform(math.log(2.0), math.log(1e8), _RANDOM_DIMS))
        dims = [*_ANCHOR_DIMS, *(int(d) for d in random_dims)]
        normal = NormalDist()
        self.variants = []
        for v in range(_VARIANTS):
            curves = []
            for d in dims:
                u = (np.arange(_GRID_POINTS) + rng.random(_GRID_POINTS)) / _GRID_POINTS
                if d == 1:
                    s = u
                else:
                    s = np.array([normal.inv_cdf(0.5 + 0.5 * x) for x in u])
                    s = s / math.sqrt(2.0) / math.sqrt(0.5 * (d + 1))
                curves.append((d, [float(2.0 * min(x, 0.999)) for x in s]))
            solves = []
            for e in _TARGET_EXPONENTS:
                if v == 0 and e == 14:
                    solves.append((10, 1.0, 1e-14))  # the d = 10 radius case
                    continue
                d = dims[int(rng.integers(len(dims)))]
                dx = float(np.exp(rng.uniform(math.log(0.01), math.log(2.0))))
                solves.append((d, dx, 10.0**-e))
            self.variants.append((curves, solves))

    def prepare(self, i: int, side: str) -> int:
        return self.order[i % _VARIANTS]

    def execute(self, pkg, v: int):
        curves, solves = self.variants[v]
        rows = [pkg.accountant.delta_curve([d], grid) for d, grid in curves]
        radii = []
        for d, dx, target in solves:
            try:
                radii.append(pkg.accountant.radius_for_target(d, dx, target))
            except ArithmeticError:
                radii.append(None)
        return rows, radii

    def collect(self, v: int, raw) -> Output:
        rows, radii = raw
        deltas = [row[2] for block in rows for row in block]
        return Output(repr((deltas, radii)), (v, deltas, radii))

    def check(self, outputs, rerun, cur) -> CheckResult:
        result = CheckResult()
        delta_ref: dict[tuple[int, float], Any] = {}
        radius_ok: dict[tuple[int, float, float, float | None], tuple[bool, str]] = {}
        for out in outputs.values():
            v, deltas, radii = out.data
            curves, solves = self.variants[v]
            inputs = [(d, dx) for d, grid in curves for dx in grid]
            result.attempted += len(inputs) + len(solves)
            for (d, dx), got in zip(inputs, deltas):
                if (d, dx) not in delta_ref:
                    delta_ref[(d, dx)] = _reference_delta(d, dx / 2.0)
                ref = delta_ref[(d, dx)]
                rel = float(abs((got - ref) / ref))
                if not rel <= _DELTA_RTOL:
                    result.fail(f"delta d={d} delta_x={dx!r} got={got!r} ref={float(ref)!r} rel_err={rel:.3g}")
            for (d, dx, target), radius in zip(solves, radii):
                key = (d, dx, target, radius)
                if key not in radius_ok:
                    radius_ok[key] = self._check_radius(d, dx, target, radius)
                ok, description = radius_ok[key]
                if not ok:
                    result.fail(description)
        return result

    @staticmethod
    def _check_radius(d: int, dx: float, target: float, radius: float | None) -> tuple[bool, str]:
        where = f"radius d={d} delta_x={dx!r} target={target:.0e}"
        if radius is None:
            return False, f"{where} raised"
        import mpmath

        with mpmath.workdps(_REF_DIGITS):
            s = mpmath.mpf(dx) / (2 * mpmath.mpf(radius))
            achieved = _reference_delta(d, s) if s < 1 else mpmath.mpf(1)
            ratio = float(achieved / mpmath.mpf(target))
        return ratio <= 1.0, f"{where} radius={radius!r} delta/target-1={ratio - 1.0:.3g}"


# --------------------------------------------------------------------------
# the two workloads that drive `prgd run`


def _fields(stdout: str) -> dict[str, str]:
    pairs = (line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)
    return {key: value for key, value in pairs}


class RunWorkload(Workload):
    """``pkg.cli.main(["run", config, ...])`` with stdout and stderr captured;
    op i picks the run seed (and, for the saddle controls, the noise radius)
    through command-line overrides."""

    config: dict = {}

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        path = workdir / f"{self.name}.json"
        path.write_text(json.dumps(self.config))
        self.config_path = str(path)

    def radius(self, i: int) -> float:
        return float(self.config["run"]["noise_radius"])

    def prepare(self, i: int, side: str):
        trace = str(self.workdir / f"{side}.trace")
        argv = ["run", self.config_path, "--trace", trace, "--seed", str(derive_seed(self.seed, i))]
        if self.radius(i) != self.config["run"]["noise_radius"]:
            argv += ["--noise-radius", repr(self.radius(i))]
        return argv, trace, i

    def execute(self, pkg, prepared):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pkg.cli.main(prepared[0])
        return code, out.getvalue(), err.getvalue()

    def collect(self, prepared, raw) -> Output:
        _, trace, i = prepared
        code, stdout, stderr = raw
        text = Path(trace).read_text() if code == 0 else ""
        digest = hashlib.sha256((stdout + stderr + text).encode()).hexdigest()
        return Output(digest, {"i": i, "code": code, "fields": _fields(stdout), "trace": text, "stderr": stderr})

    def _check_common(self, out: Output, result: CheckResult, cur) -> bool:
        """Exit code and the printed δ against the accountant's recomputation."""
        data = out.data
        i = data["i"]
        if data["code"] != 0:
            result.fail(f"op {i} exit {data['code']}: {data['stderr'].strip()}")
            return False
        fields = data["fields"]
        sensitivity = float(fields["sensitivity"])
        n, steps = self.config["data"]["n"], self.config["run"]["steps"]
        dim = len(self.config["initial_w"])
        radius = self.radius(i)
        if radius > 0.0:
            report = cur.accountant.overall_delta(cur.accountant.PrivacySpec(dim, sensitivity, n, steps, radius))
            expected = (report.per_step_delta, report.amplified_delta, report.overall_delta)
        else:  # the no-noise limit: any positive gap is distinguishable
            per = 0.0 if sensitivity == 0.0 else 1.0
            expected = (per, per / n, min(1.0, per * steps / n))
        printed = tuple(float(fields[k]) for k in ("per_step_delta", "amplified_delta", "overall_delta"))
        if not all(math.isclose(p, e, rel_tol=1e-9, abs_tol=1e-300) for p, e in zip(printed, expected)):
            result.fail(f"op {i} printed delta {printed} != accountant {expected}")
            return False
        return True


class SaddleEscape(RunWorkload):
    """The README saddle config at T = 2000; one run in four is noiseless."""

    name = "saddle_escape"
    cycle = 4
    rss_ops = (0, 3)
    config = {
        "loss": "scalar_factorization",
        "data": {"n": 40, "feature_dim": 1, "label_noise": 0.0, "seed": 11},
        "run": {"step_size": 0.01, "steps": 2000, "noise_radius": 1.0, "seed": 3},
        "initial_w": [0.0, 0.0],
    }
    escape_gate = 0.9  # acceptance criterion 10: at least 90 of 100 runs escape
    escape_drop = 0.1  # ... by cutting the loss by at least 0.1

    def radius(self, i: int) -> float:
        return 0.0 if i % 4 == 3 else 1.0

    def check(self, outputs, rerun, cur) -> CheckResult:
        result = CheckResult(attempted=len(outputs))
        noisy = escaped = 0
        for i, out in outputs.items():
            if not self._check_common(out, result, cur):
                continue
            fields = out.data["fields"]
            if self.radius(i) == 0.0:
                if float(fields["displacement"]) != 0.0:
                    result.fail(f"op {i} noiseless control moved by {fields['displacement']}")
                continue
            noisy += 1
            first_loss = float(out.data["trace"].split("\n", 1)[0].split()[2])
            escaped += first_loss - float(fields["final_loss"]) >= self.escape_drop
        if noisy and escaped < self.escape_gate * noisy:
            result.problems.append(f"escape rate {escaped}/{noisy} below {self.escape_gate}")
        for i in (0, 3):
            if i in outputs and rerun(i).fingerprint != outputs[i].fingerprint:
                result.problems.append(f"op {i} rerun is not byte-identical")
        return result


class WideFit(RunWorkload):
    """Unclipped least squares at N = 2000, p = 16, T = 5: the N×N
    sensitivity scan over the T + 1 iterates is nearly all of the time."""

    name = "wide_fit"
    config = {
        "loss": "least_squares",
        "data": {"n": 2000, "feature_dim": 16, "label_noise": 0.1, "seed": 0},
        "run": {"step_size": 0.01, "steps": 5, "noise_radius": 1.0, "seed": 0},
        "initial_w": [0.0] * 16,
    }

    def __init__(self, seed: int, workdir: Path) -> None:
        self.config = json.loads(json.dumps(self.config))
        self.config["data"]["seed"] = derive_seed(seed, 0x5EED)
        super().__init__(seed, workdir)

    def check(self, outputs, rerun, cur) -> CheckResult:
        from scipy.spatial.distance import pdist

        data, run = self.config["data"], self.config["run"]
        dataset = cur.optimizer.synthesize_dataset(data["n"], data["feature_dim"], data["label_noise"], data["seed"])
        model = cur.optimizer.builtin_losses()[self.config["loss"]](data["feature_dim"])
        x, y = dataset.features, dataset.labels

        def diameter(w: np.ndarray) -> float:
            return float(pdist(-2.0 * (y - x @ w)[:, None] * x).max())

        def final_iterate(i: int, trace: str) -> np.ndarray | None:
            """w_T, which the trace file omits, from the same run through
            ``prgd_run``; None unless that run writes the same trace."""
            config = cur.optimizer.RunConfig(step_size=run["step_size"], steps=run["steps"],
                                             noise_radius=run["noise_radius"], seed=derive_seed(self.seed, i))
            again = cur.optimizer.prgd_run(dataset, model, config, self.config["initial_w"])
            same = "\n".join(again.serialize_lines()) + "\n" == trace
            return np.asarray(again.final_iterate, dtype=float) if same else None

        result = CheckResult(attempted=len(outputs))
        for i, out in outputs.items():
            if not self._check_common(out, result, cur):
                continue
            trace = out.data["trace"]
            final = final_iterate(i, trace)
            if final is None:
                result.fail(f"op {i} prgd_run does not reproduce the trace of prgd run")
                continue
            iterates = [np.array([float(v) for v in line.split()[5:]]) for line in trace.splitlines()]
            independent = max(diameter(w) for w in [*iterates, final])
            printed = float(out.data["fields"]["sensitivity"])
            if not math.isclose(printed, independent, rel_tol=1e-9):
                result.fail(f"op {i} sensitivity {printed!r} != pdist diameter {independent!r}")
        return result


# the cases of `prgd validate --suite tv` and `--suite surface`, with their pass rules
_TV_CASES = [(d, dx) for d in (1, 2, 3, 5, 11, 21) for dx in (0.2, 0.6, 1.0, 1.4, 1.8)]
_SURFACE_CASES = [(2, 0.5), (2, 1.0), (3, 0.5), (3, 1.0)]
_SURFACE_RATE_MIN = 0.9999
# The suites' own rule is 3 standard errors, made for one pass over 34 cases.
# A benchmark session repeats these tests about 10^4 times, and at 3 sigma
# about 0.3 % of correct ops fail by chance (10 of 1688 in one measurement),
# so ``failed`` would count luck. At 6 sigma the chance that any correct op of
# 10^5 fails is below 2e-4, while an error of 0.005 in δ at 2^19 samples
# (at most 0.0042 at 6 standard errors) still fails.
_SIGMAS = 6.0


class McOracle(Workload):
    """Single cases of the tv and surface validate suites at two 2^18-sample
    chunks each, called through ``prgd.validation``.

    A block of four ops runs one tv case and one surface case (its surface
    attack and its ball control), each at 1 and then 2 workers with the same
    seed, so ops 2k and 2k+1 must give identical estimates. Case-level ops
    last 0.05 to 0.3 s; whole ``validate`` calls last 1 to 4 s, too long for
    pairing to cancel drift on a small shared VM.
    """

    name = "mc_oracle"
    cycle = 4
    rss_ops = (0, 2)
    samples = 2 * (1 << 18)

    def workers(self, i: int) -> int:
        return 1 + i % 2

    def case(self, i: int) -> tuple[str, int, float]:
        block = i // 4
        if i % 4 < 2:
            return ("tv", *_TV_CASES[block % len(_TV_CASES)])
        return ("surface", *_SURFACE_CASES[block % len(_SURFACE_CASES)])

    def prepare(self, i: int, side: str):
        os.environ[WORKERS_ENV] = str(self.workers(i))
        return (*self.case(i), derive_seed(self.seed, i // 2), i)

    def execute(self, pkg, prepared):
        suite, d, dx, seed, _ = prepared
        if suite == "tv":
            return [pkg.validation.mc_tv_distance(d, dx, 1.0, self.samples, seed)]
        return [pkg.validation.surface_noise_distinguisher(d, dx, self.samples, seed, noise)
                for noise in ("surface", "ball")]

    def collect(self, prepared, raw) -> Output:
        estimates = [(e.value, e.standard_error, e.samples, e.seed) for e in raw]
        return Output(repr(estimates), (prepared, estimates))

    def check(self, outputs, rerun, cur) -> CheckResult:
        result = CheckResult(attempted=len(outputs))
        for i, out in outputs.items():
            (suite, d, dx, seed, _), estimates = out.data
            delta = cur.accountant.per_step_delta(cur.accountant.PrivacySpec(d, dx, 1, 1))
            if suite == "tv":
                value = estimates[0][0]
                se = math.sqrt(delta * (1.0 - delta) / self.samples)
                ok = abs(value - delta) <= _SIGMAS * se
            else:
                (rate, *_), (control, control_se, *_) = estimates
                expected = delta + 0.5 * (1.0 - delta)
                ok = rate >= _SURFACE_RATE_MIN and abs(control - expected) <= _SIGMAS * control_se
            if not ok:
                result.fail(f"op {i} {suite} d={d} delta_x={dx} seed={seed} workers={self.workers(i)}: "
                            f"delta={delta!r} estimates={estimates}")
        for k in sorted({i // 2 for i in outputs}):
            one, two = (outputs[i] if i in outputs else rerun(i) for i in (2 * k, 2 * k + 1))
            if one.fingerprint != two.fingerprint:
                result.problems.append(f"ops {2 * k} and {2 * k + 1} differ between 1 and 2 workers")
        return result


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Accounting, SaddleEscape, WideFit, McOracle)
}
