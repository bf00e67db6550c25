import math

import numpy as np
import pytest

from fbm_infoflow import sigma as sg
from fbm_infoflow.errors import DomainError


def test_sqrt1p_values_at_zero():
    s = sg.sqrt_one_plus_square()
    assert s.fn(0.0) == pytest.approx(1.0)
    assert s.d1(0.0) == pytest.approx(0.0)


def test_constant_second_derivative_zero():
    s = sg.constant(2.0)
    assert s.d2(5.0) == 0.0


def test_constant_curvature_reads_no_derivative():
    # (sigma^2)'' / 2 of a constant is 0: one zeros array of x's shape, with none of
    # sigma, sigma' and sigma'' evaluated.
    s = sg.constant(2.0)

    def unused(x):
        raise AssertionError("a constant's curvature evaluated sigma")
    for attr in ("fn", "d1", "d2"):
        object.__setattr__(s, attr, unused)
    assert np.array_equal(s.curvature(np.linspace(-3.0, 3.0, 7)), np.zeros(7))
    c = s.curvature(1.5)
    assert c == 0.0 and np.shape(c) == ()


def test_constant_eval_everywhere():
    s = sg.constant(3.5, domain=(-100, 100))
    xs = np.linspace(-100, 100, 17)
    assert np.all(s.fn(xs) == 3.5)


def test_identity_channel_is_unit():
    # The identity channel dX = dB^H is the constant 1; it has no model of its own.
    s = sg.constant(1.0)
    assert (s.kind, s.c) == ("constant", 1.0)
    assert s.fn(123.0) == 1.0
    assert s.d1(123.0) == 0.0
    assert not hasattr(sg, "identity_channel")


@pytest.mark.parametrize("model", [
    sg.constant(0.5), sg.constant(2.0), sg.constant(1.0),
    sg.sqrt_one_plus_square(),
])
def test_derivatives_match_finite_differences(model):
    rng = np.random.default_rng(7)
    xs = rng.uniform(-50.0, 50.0, 64)
    f = lambda x: np.asarray(model.fn(x))
    for order, h in ((1, 1e-6), (2, 1e-4)):
        hh = h * (1.0 + np.abs(xs))
        if order == 1:
            fd = (f(xs + hh) - f(xs - hh)) / (2 * hh)
        else:
            fd = (f(xs + hh) - 2 * f(xs) + f(xs - hh)) / hh ** 2
        analytic = (model.d1, model.d2)[order - 1](xs)
        assert np.all(np.abs(fd - analytic) <= 1e-6 * (1.0 + np.abs(analytic)))


def test_positivity_violation_rejected_at_construction():
    with pytest.raises(DomainError):
        sg.custom(
            fn=lambda x: np.asarray(x, float),      # hits zero at the origin
            d1=lambda x: np.ones_like(np.asarray(x, float)),
            d2=lambda x: np.zeros_like(np.asarray(x, float)),
            domain=(-5, 5),
        )


def test_custom_requires_analytic_derivatives():
    with pytest.raises(DomainError):
        sg.custom(fn=lambda x: 1.0 + 0 * np.asarray(x), d1=None, d2=None,
                  domain=(-1, 1))


def test_custom_wrong_derivative_rejected():
    with pytest.raises(DomainError):
        sg.custom(
            fn=lambda x: np.exp(np.asarray(x, float)),
            d1=lambda x: 2.0 * np.exp(np.asarray(x, float)),   # wrong factor
            d2=lambda x: np.exp(np.asarray(x, float)),
            domain=(-1, 1),
        )


def _unit(x):
    return np.ones_like(np.asarray(x, float))


def _zero(x):
    return np.zeros_like(np.asarray(x, float))


@pytest.mark.parametrize("build", [
    lambda: sg.constant(math.nan),
    lambda: sg.constant(math.inf),
    lambda: sg.custom(lambda x: np.where(np.asarray(x) > 0.5, np.nan, 1.0), _zero, _zero,
                      (-1.0, 1.0)),
    lambda: sg.custom(_unit, lambda x: np.where(np.asarray(x) > 0.5, np.nan, 0.0), _zero,
                      (-1.0, 1.0)),
    lambda: sg.custom(_unit, _zero, lambda x: np.where(np.asarray(x) > 0.5, np.nan, 0.0),
                      (-1.0, 1.0)),
    lambda: sg.sqrt_one_plus_square(domain=(-math.inf, math.inf)),
    lambda: sg.constant(1.0, domain=(0.0, math.inf)),
    lambda: sg.constant(1.0, domain=(math.nan, 1.0)),
], ids=["constant-nan", "constant-inf", "custom-nan-sigma", "custom-nan-d1",
        "custom-nan-d2", "sqrt1p-infinite-domain", "constant-half-infinite-domain",
        "nan-domain"])
def test_non_finite_sigma_or_domain_rejected(build):
    # A NaN compares false with the positivity floor and with the derivative
    # tolerance, so a constant NaN or infinity, or a custom sigma NaN on part of its
    # domain, passed both checks; an infinite domain raised numpy's ValueError.
    with pytest.raises(DomainError):
        build()


@pytest.mark.parametrize("width", [1e-5, 4e-4])
def test_domain_too_narrow_to_probe_rejected(width):
    # No probe point lies far enough inside a domain this narrow for the
    # derivative check's stencil, which raised numpy's ValueError on the empty set.
    with pytest.raises(DomainError, match=r"working domain \[0, .*\] is too narrow"):
        sg.constant(1.0, domain=(0.0, width))
    assert sg.constant(1.0, domain=(0.0, 1e-3)).domain == (0.0, 1e-3)
