"""Every public callable either returns or raises a `sinrmin.errors` class.

Each callable in `sinrmin.__all__` is called once with valid arguments,
then once for every argument replaced in turn by each of `_JUNK`. A
bare ValueError, TypeError or AttributeError from NumPy or Python means
an argument reached code that never checked it.
"""

import inspect
import math

import numpy as np
import pytest

import sinrmin
from sinrmin import errors

_JUNK = [None, "ab", True, -1, 0, 2.5, math.nan, math.inf, [], [[1, 2], [3]], object(),
         np.zeros((2, 2, 2, 2)), 10**30, 1j]

_H = sinrmin.sample_channel_set(3, 4, sinrmin.SeedSpec(5)).users
_SET = sinrmin.ChannelSet(_H)
_T = sinrmin.SinrTargets(10.0, 0.1)
_SOLVED = sinrmin.approx_min_power(_H[:2], _T)
_SOLVED_DL = sinrmin.downlink_dual_solution(_H[:2], _T)
_CONFIG = dict(K_s=2, gamma_db=10.0, sigma_sq=0.1, algorithms=("NUS", "RUS", "EXHAUSTIVE"),
               trials=6, master_seed=3, M=3, K=4, power_method="approx", sweep_axis="none",
               sweep_values=(), exhaustive_budget=100)
_ROW = sinrmin.ResultRow("none", None, "NUS", "approx", 10, 3, 1.0, 0.1, 1.05, 0, "")

# the valid keyword arguments of each callable, in its signature's order
_VALID = {
    "ChannelSet": dict(users=_H),
    "SeedSpec": dict(master_seed=3, stream_index=1),
    "sample_channel_set": dict(M=3, K=4, seed=sinrmin.SeedSpec(5)),
    "sin_sq_angle": dict(h=_H[0], basis=[_H[1]]),
    "squared_norm": dict(h=_H[0]),
    "DistributionSpec": dict(kind="norm_order_stat", M=3, r=2, K=4, i=0),
    "alpha": dict(M=3, K=4),
    "cdf": dict(spec=sinrmin.DistributionSpec.norm_order_stat(3, 2, 4), x=2.0),
    "pdf": dict(spec=sinrmin.DistributionSpec.norm_order_stat(3, 2, 4), x=2.0),
    "mean_inverse": dict(spec=sinrmin.DistributionSpec.norm_order_stat(3, 2, 4)),
    "avg_power_nus": dict(M=3, K=4, K_s=2, gamma=10.0, sigma_sq=0.1),
    "avg_power_sus": dict(M=3, K=4, K_s=2, gamma=10.0, sigma_sq=0.1),
    "avg_power_aus_two": dict(M=3, K=4, gamma=10.0, sigma_sq=0.1),
    "avg_power_rus": dict(M=3, K_s=2, gamma=10.0, sigma_sq=0.1),
    "avg_power_lower_bound_two": dict(M=3, K=4, gamma=10.0, sigma_sq=0.1),
    "SinrTargets": dict(gamma=10.0, sigma_sq=0.1),
    "PowerSolution": dict(per_user_power=_SOLVED.per_user_power,
                          total_power=_SOLVED.total_power,
                          achieved_sinr=_SOLVED.achieved_sinr, method_tag="approx",
                          beamformers=None),
    "exact_min_power": dict(channels=_H[:2], targets=_T),
    "approx_min_power": dict(channels=_H[:2], targets=_T),
    "downlink_dual_solution": dict(channels=_H[:2], targets=_T),
    "evaluate_sinr": dict(channels=_H[:2], beamformers=_SOLVED_DL.beamformers,
                          powers=[1.0, 2.0], targets=_T),
    "SelectionResult": dict(algorithm_tag="NUS", selection_order=(0, 1), encoding_order=(1, 0)),
    "select_nus": dict(channels=_SET, k_s=2),
    "select_sus": dict(channels=_SET, k_s=2),
    "select_aus": dict(channels=_SET, k_s=2),
    "select_rus": dict(channels=_SET, k_s=2, seed=sinrmin.SeedSpec(5)),
    "select_exhaustive": dict(channels=_SET, k_s=2, targets=_T, power_fn="approx", budget=100),
    "ExperimentConfig": _CONFIG,
    "ResultRow": dict(zip(sinrmin.ResultRow.__dataclass_fields__, vars(_ROW).values())),
    "ValidationRow": dict(sweep_axis="none", sweep_value=None, algorithm="NUS",
                          check="two_sided", mc_mean=1.0, mc_stderr=0.1, analytic_value=1.05,
                          passed=True),
    "run_point": dict(config=sinrmin.ExperimentConfig(**_CONFIG), sweep_value=None, workers=1),
    "run_sweep": dict(config=sinrmin.ExperimentConfig(**_CONFIG), workers=1),
    "validate_rows": dict(rows=[_ROW], rel_tol=0.02, z=3.0),
}


def _call(name, kwargs):
    out = getattr(sinrmin, name)(**kwargs)
    if name == "ExperimentConfig":  # the config's own check is its entry point
        out.validate()
    return out


def test_every_public_callable_is_covered():
    callables = {n for n in sinrmin.__all__ if callable(getattr(sinrmin, n))
                 and not (inspect.isclass(getattr(sinrmin, n))
                          and issubclass(getattr(sinrmin, n), Exception))}
    assert callables == set(_VALID)
    for name, kwargs in _VALID.items():
        params = inspect.signature(getattr(sinrmin, name)).parameters
        assert list(kwargs) == [p for p in params if not p.startswith("_")], name


@pytest.mark.parametrize("name", list(_VALID))
def test_valid_call_returns(name):
    _call(name, _VALID[name])


_PACKAGE_ERRORS = tuple(
    c for c in vars(errors).values() if inspect.isclass(c) and issubclass(c, Exception))


@pytest.mark.parametrize("name, arg", [(n, a) for n, kw in _VALID.items() for a in kw])
def test_junk_arguments_raise_package_errors(name, arg):
    wrong = []
    for junk in _JUNK:
        try:
            _call(name, dict(_VALID[name], **{arg: junk}))
        except _PACKAGE_ERRORS:
            pass
        except Exception as exc:  # noqa: BLE001 - collected, then reported together
            wrong.append(f"{arg}={junk!r}: {type(exc).__name__}: {exc}")
    assert not wrong, "\n".join(wrong)
