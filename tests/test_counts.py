"""The library's one count rule.

Every dimension, size, step count, sample count, seed and stream index is
checked by special._check_count. A non-integer, nan, inf, a value below the
least count (1, or 0 for seeds and stream indices) or an integer past the
float range raises one ValueError line that names the field; an integral
float gives exactly the result of the int it equals.
"""

import math

import pytest

from prgd.accountant import PrivacySpec, delta_curve, overall_delta, radius_for_target
from prgd.geometry import BallSpec, sample_ball, sample_sphere_surface
from prgd.optimizer import (
    LossModel,
    RunConfig,
    least_squares,
    prgd_run,
    rank1_factorization,
    synthesize_dataset,
)
from prgd.rng import derive_rng
from prgd.special import reg_inc_beta_derivative, series_delta_odd_d
from prgd.validation import mc_tv_distance, surface_noise_distinguisher


def run_with(config: RunConfig):
    trace = prgd_run(synthesize_dataset(6, 2, 0.1, 1), least_squares(2), config, [0.0, 0.0])
    return trace.data_indices.tolist(), trace.iterates.tolist(), trace.report


def dataset(n, feature_dim):
    data = synthesize_dataset(n, feature_dim, 0.1, 0)
    return data.features.tolist(), data.labels.tolist()


# (call site, field named in the error, least count, integral value, call on the value);
# each call returns something whose repr shows every output and the type of every count in it
SITES = [
    ("BallSpec", "dimension", 1, 3,
     lambda v: (BallSpec(v), sample_ball(BallSpec(v), derive_rng(0), 4).tolist())),
    ("sample_ball", "size", 0, 2, lambda v: sample_ball(BallSpec(3), derive_rng(0), v).tolist()),
    ("sample_sphere_surface", "size", 0, 2,
     lambda v: sample_sphere_surface(BallSpec(3), derive_rng(0), v).tolist()),
    ("PrivacySpec.d", "dimension", 1, 3,
     lambda v: (PrivacySpec(v, 0.5, 10, 4), overall_delta(PrivacySpec(v, 0.5, 10, 4)))),
    ("PrivacySpec.dataset_size", "dataset_size", 1, 3,
     lambda v: (PrivacySpec(3, 0.5, v, 4), overall_delta(PrivacySpec(3, 0.5, v, 4)))),
    ("PrivacySpec.steps", "steps", 1, 3,
     lambda v: (PrivacySpec(3, 0.5, 10, v), overall_delta(PrivacySpec(3, 0.5, 10, v)))),
    ("radius_for_target", "dimension", 1, 3, lambda v: radius_for_target(v, 0.5, 0.1)),
    ("delta_curve", "dimension", 1, 3, lambda v: delta_curve([v], [0.5, 1.0])),
    ("RunConfig.steps", "steps", 1, 2, lambda v: (RunConfig(0.1, v), run_with(RunConfig(0.1, v)))),
    ("RunConfig.seed", "seed", 0, 3,
     lambda v: (RunConfig(0.1, 2, seed=v), run_with(RunConfig(0.1, 2, seed=v)))),
    ("least_squares", "feature_dim", 1, 3, lambda v: least_squares(v).parameter_dim),
    ("LossModel", "parameter_dim", 1, 2, lambda v: LossModel("fit", v, abs, abs).parameter_dim),
    ("rank1_factorization", "feature_dim", 1, 3, lambda v: rank1_factorization(v).parameter_dim),
    ("synthesize_dataset.n", "n", 1, 3, lambda v: dataset(v, 2)),
    ("synthesize_dataset.feature_dim", "feature_dim", 1, 3, lambda v: dataset(5, v)),
    ("series_delta_odd_d", "d", 1, 3, lambda v: series_delta_odd_d(1.0, v)),
    ("reg_inc_beta_derivative", "d", 1, 3, lambda v: reg_inc_beta_derivative(0.3, v)),
    ("mc_tv_distance", "samples", 1, 1000, lambda v: mc_tv_distance(3, 0.5, samples=v)),
    ("surface_noise_distinguisher", "samples", 1, 1000,
     lambda v: surface_noise_distinguisher(2, 0.5, samples=v)),
    ("mc_tv_distance.seed", "seed", 0, 3, lambda v: mc_tv_distance(3, 0.5, samples=1000, seed=v)),
    ("surface_noise_distinguisher.seed", "seed", 0, 3,
     lambda v: surface_noise_distinguisher(2, 0.5, samples=1000, seed=v, noise="ball")),
    ("derive_rng.seed", "seed", 0, 3, lambda v: derive_rng(v).random(3).tolist()),
    ("derive_rng.stream", "stream index", 0, 3, lambda v: derive_rng(0, v).random(3).tolist()),
]
BAD = [2.5, math.nan, math.inf, "below", 10**400]


@pytest.mark.parametrize("bad", BAD, ids=["2.5", "nan", "inf", "below", "past-float"])
@pytest.mark.parametrize("site,field,least,good,call", SITES, ids=[row[0] for row in SITES])
def test_a_malformed_count_is_one_line_naming_the_field(site, field, least, good, call, bad):
    value = least - 1 if bad == "below" else bad
    if value == 10**400:
        expected = f"^{field} is too large for a float$"
    else:
        kind = "positive" if least else "nonnegative"
        expected = f"^{field} must be a {kind} integer, got {value}$"
    with pytest.raises(ValueError, match=expected) as caught:
        call(value)
    assert "\n" not in str(caught.value)


@pytest.mark.parametrize("site,field,least,good,call", SITES, ids=[row[0] for row in SITES])
def test_an_integral_float_gives_the_ints_result(site, field, least, good, call):
    assert repr(call(float(good))) == repr(call(good))


def test_a_count_that_is_not_a_number_is_a_value_error():
    with pytest.raises(ValueError, match="^dimension must be a positive integer, got 3$"):
        BallSpec("3")
    with pytest.raises(ValueError, match="^seed must be a nonnegative integer, got None$"):
        derive_rng(None)

