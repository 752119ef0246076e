"""Command-line front-end.

Subcommands: ``account`` (privacy accounting for one spec), ``curve``
(δ-versus-distance CSV for plotting), ``run`` (a perturbed-descent
experiment from a JSON config), and ``validate`` (the oracle suites).

Exit codes: 0 success, 1 validation or numerical failure, 2 usage or
configuration error. Every command is deterministic given its flags and
seeds; PRGD_MC_WORKERS optionally fans Monte Carlo work over that many
threads without changing any output.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import accountant, validation
from .accountant import PrivacySpec
from .optimizer import DivergenceError, RunConfig, builtin_losses, prgd_run, synthesize_dataset

_TV_DIMS = (1, 2, 3, 5, 11, 21)
_TV_DISTANCES = (0.2, 0.6, 1.0, 1.4, 1.8)
_OVERLAP_GRID_POINTS = 100
_SURFACE_CASES = ((2, 0.5), (2, 1.0), (3, 0.5), (3, 1.0))
_GRADCHECK_CASES = (("least_squares", 3), ("scalar_factorization", 1), ("rank1_factorization", 3))
_GRADCHECK_TOL = 1e-5
_SURFACE_RATE_MIN = 0.9999
_MAX_GRID_POINTS = 1_000_000  # curve grids past this are typos, not plots
_MAX_ARRAY_ELEMENTS = 100_000_000  # a run's trace or dataset past this needs gigabytes
_DATA_FIELDS = {"n": int, "feature_dim": int, "label_noise": float, "seed": int}
_RUN_FIELDS = {"step_size": float, "steps": int, "noise_radius": float, "seed": int}


class ConfigError(Exception):
    """A configuration file or derived value failed validation."""


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _print_report(report) -> None:
    print(f"per_step_delta = {_fmt(report.per_step_delta)}")
    print(f"amplified_delta = {_fmt(report.amplified_delta)}")
    print(f"overall_delta = {_fmt(report.overall_delta)}")
    print(f"saturated = {'true' if report.saturated else 'false'}")


def cmd_account(args: argparse.Namespace) -> int:
    if args.delta_x >= 2.0 * args.radius:
        print(
            f"error: delta-x {args.delta_x} >= 2*radius {2.0 * args.radius}: "
            "delta saturates at 1 and no nontrivial guarantee exists",
            file=sys.stderr,
        )
        return 2
    spec = PrivacySpec(args.d, args.delta_x, args.n, args.t, args.radius)
    _print_report(accountant.overall_delta(spec))
    return 0


def _parse_d_list(text: str) -> list[int]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ConfigError("d-list must name at least one dimension")
    try:
        return [int(part) for part in items]
    except ValueError as exc:
        raise ConfigError(f"d-list: {exc}") from None


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("delta-x-range must be start:stop:step")
    try:
        start, stop, step = (float(part) for part in parts)
    except ValueError as exc:
        raise ConfigError(f"delta-x-range: {exc}") from None
    if step <= 0.0 or stop < start:
        raise ConfigError("delta-x-range needs stop >= start and step > 0")
    points = (stop - start) / step + 1e-9
    if not points < _MAX_GRID_POINTS:  # also rejects inf and nan
        raise ConfigError(f"delta-x-range must give at most {_MAX_GRID_POINTS} points")
    count = int(points) + 1
    # clamp guards accumulated rounding from pushing the last point past stop
    return [min(start + k * step, stop) for k in range(count)]


def cmd_curve(args: argparse.Namespace) -> int:
    dims = _parse_d_list(args.d_list)
    grid = _parse_grid(args.delta_x_range)
    rows = accountant.delta_curve(dims, grid, args.radius)
    lines = ["d,delta_x,delta"]
    lines.extend(f"{d},{_fmt(dx)},{_fmt(delta)}" for d, dx, delta in rows)
    Path(args.output).write_text("\n".join(lines) + "\n")
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"missing field {where}.{key}" if where else f"missing field {key}")
    return mapping[key]


def _number(value, kind: type, where: str):
    """``value`` as ``kind`` (int or float) if it is a finite JSON number,
    integral when ``kind`` is int."""
    try:
        number = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:  # an integer too large for a float
        number = math.inf
    if not math.isfinite(number) or (kind is int and not number.is_integer()):
        expected = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{where} must be {expected}, got {value!r}")
    return int(value) if kind is int else number


def load_experiment_config(path: str) -> dict:
    """Parse and validate an experiment config file.

    Schema (JSON): ``loss`` (name from builtin_losses), ``data`` with
    n/feature_dim/label_noise/seed, ``run`` with
    step_size/steps/noise_radius/seed and optional clip_norm,
    ``initial_w`` (list of parameter_dim floats), optional ``sensitivity``
    (caller-asserted gradient-space bound overriding the measured one).
    Returns the config with every number converted to its field's type;
    a value of the wrong type raises ConfigError.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")

    losses = builtin_losses()
    loss = _require(raw, "loss", "")
    if not isinstance(loss, str) or loss not in losses:
        raise ConfigError(f"unknown loss {loss!r}; available: {', '.join(sorted(losses))}")
    config = {"loss": loss}
    for section, fields in (("data", _DATA_FIELDS), ("run", _RUN_FIELDS)):
        entries = _require(raw, section, "")
        if not isinstance(entries, dict):
            raise ConfigError(f"{section} must be an object")
        config[section] = {
            key: _number(_require(entries, key, section), kind, f"{section}.{key}")
            for key, kind in fields.items()
        }
    clip_norm = raw["run"].get("clip_norm")
    config["run"]["clip_norm"] = None if clip_norm is None else _number(clip_norm, float, "run.clip_norm")
    initial_w = _require(raw, "initial_w", "")
    if not isinstance(initial_w, list):
        raise ConfigError(f"initial_w must be a list of numbers, got {initial_w!r}")
    config["initial_w"] = [_number(c, float, f"initial_w[{k}]") for k, c in enumerate(initial_w)]
    if "sensitivity" in raw:
        config["sensitivity"] = _number(raw["sensitivity"], float, "sensitivity")
        if config["sensitivity"] < 0.0:
            raise ConfigError("sensitivity must be nonnegative")
    return config


def cmd_run(args: argparse.Namespace) -> int:
    config = load_experiment_config(args.config)
    data_spec, run_spec = config["data"], config["run"]
    for field in ("seed", "steps", "step_size", "noise_radius"):
        if getattr(args, field) is not None:
            run_spec[field] = getattr(args, field)

    model = builtin_losses()[config["loss"]](data_spec["feature_dim"])
    for what, elements in (
        ("data.n * data.feature_dim", data_spec["n"] * data_spec["feature_dim"]),
        ("(run.steps + 1) * parameter_dim", (run_spec["steps"] + 1) * model.parameter_dim),
    ):
        if elements > _MAX_ARRAY_ELEMENTS:
            raise ConfigError(f"{what} = {elements} exceeds the limit of {_MAX_ARRAY_ELEMENTS} elements")
    data = synthesize_dataset(**data_spec)
    try:
        run_config = RunConfig(**run_spec)
    except ValueError as exc:
        raise ConfigError(f"run: {exc}") from None
    initial_w = np.asarray(config["initial_w"], dtype=float)
    if initial_w.shape != (model.parameter_dim,):
        raise ConfigError(
            f"initial_w must have {model.parameter_dim} components for loss "
            f"{config['loss']!r}, got {initial_w.shape}"
        )

    trace = prgd_run(data, model, run_config, initial_w, config.get("sensitivity"))

    trace_path = args.trace if args.trace is not None else str(Path(args.config).with_suffix(".trace"))
    Path(trace_path).write_text("\n".join(trace.serialize_lines()) + "\n")

    displacement = float(np.linalg.norm(trace.final_iterate - trace.iterates[0]))
    print(f"trace = {trace_path}")
    print(f"final_loss = {_fmt(trace.final_loss)}")
    print(f"displacement = {_fmt(displacement)}")
    print(f"sensitivity = {_fmt(trace.sensitivity)}")
    print(f"sensitivity_provenance = {trace.report.sensitivity_provenance}")
    _print_report(trace.report)
    return 0


def _suite_tv(samples: int, seed: int):
    for case, (d, dx) in enumerate(itertools.product(_TV_DIMS, _TV_DISTANCES)):
        analytic = accountant.per_step_delta(PrivacySpec(d, dx, 1, 1))
        est = validation.mc_tv_distance(d, dx, 1.0, samples, seed + case)
        # binomial error at the analytic proportion: stays positive even
        # when the empirical count saturates and the plug-in error is 0
        se = math.sqrt(analytic * (1.0 - analytic) / samples)
        yield f"d={d} delta_x={dx}", analytic, est.value, se, abs(est.value - analytic) <= 3.0 * se


def _suite_overlap(samples: int, seed: int):
    del samples, seed  # deterministic suite
    for d in (1, 2, 3):
        for dx in np.linspace(0.0, 2.0, _OVERLAP_GRID_POINTS):
            analytic, closed = validation.closed_form_overlap_check(d, float(dx))
            rel = abs(analytic - closed) / max(abs(analytic), abs(closed), 1e-300)
            yield f"d={d} delta_x={dx:.6f}", analytic, closed, rel, rel <= 1e-10


def _suite_gradcheck(samples: int, seed: int):
    del samples
    rng = np.random.default_rng(seed)
    for name, feature_dim in _GRADCHECK_CASES:
        model = builtin_losses()[name](feature_dim)
        for k in range(5):
            w = rng.standard_normal(model.parameter_dim)
            x = rng.standard_normal(feature_dim)
            y = float(rng.standard_normal())
            deviation = validation.grad_check(model, w, (x, y), 1e-6)
            yield f"loss={name} case={k}", 0.0, deviation, deviation, deviation <= _GRADCHECK_TOL


def _suite_surface(samples: int, seed: int):
    for case, (d, dx) in enumerate(_SURFACE_CASES):
        est = validation.surface_noise_distinguisher(d, dx, samples, seed + case, "surface")
        yield (f"d={d} delta_x={dx} noise=surface", 1.0, est.value, est.standard_error,
               est.value >= _SURFACE_RATE_MIN)
        control = validation.surface_noise_distinguisher(d, dx, samples, seed + case, "ball")
        delta = accountant.per_step_delta(PrivacySpec(d, dx, 1, 1))
        expected = delta + 0.5 * (1.0 - delta)
        yield (f"d={d} delta_x={dx} noise=ball", expected, control.value, control.standard_error,
               abs(control.value - expected) <= 3.0 * control.standard_error)


# each suite yields (label, analytic, estimate, err, passed) per case
_SUITES = {
    "tv": _suite_tv,
    "overlap": _suite_overlap,
    "gradcheck": _suite_gradcheck,
    "surface": _suite_surface,
}


def cmd_validate(args: argparse.Namespace) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    all_pass = True
    for name in names:
        for label, analytic, estimate, err, passed in _SUITES[name](args.samples, args.seed):
            print(
                f"{name} {label} analytic={_fmt(analytic)} estimate={_fmt(estimate)} "
                f"err={_fmt(err)} {'PASS' if passed else 'FAIL'}"
            )
            all_pass &= passed
    print("result = " + ("PASS" if all_pass else "FAIL"))
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prgd",
        description=(
            "Perturbed gradient descent with uniform ball noise and its exact "
            "(0, delta) privacy accounting."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    account = sub.add_parser("account", help="privacy budget for one spec")
    account.add_argument("--d", type=int, required=True, help="gradient dimension")
    account.add_argument("--delta-x", type=float, required=True, dest="delta_x",
                         help="gradient-space sensitivity")
    account.add_argument("--n", type=int, required=True, help="dataset size")
    account.add_argument("--t", type=int, required=True, help="number of steps")
    account.add_argument("--radius", type=float, default=1.0, help="noise ball radius (default 1)")
    account.set_defaults(handler=cmd_account)

    curve = sub.add_parser("curve", help="delta versus distance CSV")
    curve.add_argument("--d-list", required=True, dest="d_list",
                       help="comma-separated dimensions, e.g. 1,3,7")
    curve.add_argument("--delta-x-range", required=True, dest="delta_x_range",
                       help="inclusive grid start:stop:step, e.g. 0:2:0.05")
    curve.add_argument("--radius", type=float, default=1.0, help="noise ball radius (default 1)")
    curve.add_argument("--output", required=True, help="CSV output path")
    curve.set_defaults(handler=cmd_curve)

    run = sub.add_parser("run", help="execute one experiment config")
    run.add_argument("config", help="JSON experiment config path")
    run.add_argument("--trace", help="trace output path (default: config path with .trace)")
    run.add_argument("--seed", type=int, help="override run.seed")
    run.add_argument("--steps", type=int, help="override run.steps")
    run.add_argument("--step-size", type=float, dest="step_size", help="override run.step_size")
    run.add_argument("--noise-radius", type=float, dest="noise_radius",
                     help="override run.noise_radius")
    run.set_defaults(handler=cmd_run)

    validate = sub.add_parser("validate", help="run oracle agreement suites")
    validate.add_argument("--suite", required=True, choices=[*_SUITES, "all"],
                          help="which suite to run")
    validate.add_argument("--samples", type=int, default=1_000_000,
                          help="Monte Carlo samples per case (default 1e6)")
    validate.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    validate.set_defaults(handler=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def cli_entry() -> None:
    sys.exit(main())
