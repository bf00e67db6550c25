"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all even
on success).
"""

import itertools
import json

import numpy as np
import pytest
from click.testing import CliRunner

from fbm_infoflow import channels as ch, fbm, identities as idn
from fbm_infoflow import infofunc as nf, sigma as sg
from fbm_infoflow.cli import main


def _verdict(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_constant_sigma_debruijn():
    worst = 0.0
    for c, h, t in itertools.product((0.5, 1.0, 2.0), (0.25, 0.5, 0.75),
                                     (0.5, 1.0, 2.0)):
        chan = ch.multiplicative(sg.constant(c), 0.0, h)
        rep = idn.debruijn_check(chan, t, tol=1e-6)
        assert rep.rhs == pytest.approx(h / t, abs=1e-10)
        worst = max(worst, rep.abs_discrepancy)
    _verdict("1 constant-sigma De Bruijn (both sides H/t)", worst <= 1e-6,
             f"max |lhs-rhs| = {worst:.3e} <= 1e-6")


def test_criterion_2_nonconstant_sigma_debruijn():
    s = sg.sqrt_one_plus_square()
    worst = 0.0
    for h in (0.3, 0.5, 0.75):
        chan = ch.multiplicative(s, 0.0, h)
        for t in (0.5, 1.0, 2.0):
            rep = idn.debruijn_check(chan, t, tol=1e-4)
            worst = max(worst, rep.abs_discrepancy)
    _verdict("2 sqrt(1+x^2) De Bruijn", worst <= 1e-4,
             f"max |lhs-rhs| = {worst:.3e} <= 1e-4")


def test_criterion_3_additive_gaussian_debruijn():
    worst = 0.0
    for v0, h, t in itertools.product((0.25, 1.0, 4.0), (0.3, 0.5, 0.75),
                                      (0.5, 1.0, 2.0)):
        chan = ch.additive(ch.gaussian_law(0.0, v0), h)
        rep = idn.debruijn_check(chan, t, tol=1e-6)
        assert rep.rhs == pytest.approx(
            h * t ** (2 * h - 1) / (v0 + t ** (2 * h)), abs=1e-12)
        worst = max(worst, rep.abs_discrepancy)
    spot = idn.debruijn_check(
        ch.additive(ch.gaussian_law(0.0, 1.0), 0.75), 1.0, tol=1e-6)
    assert spot.rhs == pytest.approx(0.375, abs=1e-12)
    _verdict("3 additive Gaussian De Bruijn", worst <= 1e-6,
             f"max |lhs-rhs| = {worst:.3e} <= 1e-6; rhs(0.75,1,1) = {spot.rhs}")


def test_criterion_4_kl_flow():
    s = sg.constant(1.0)
    worst = 0.0
    mono_ok = True
    for h in (0.3, 0.5, 0.75):
        x = ch.multiplicative(s, 0.0, h)
        y = ch.multiplicative(s, 1.0, h)
        for t in (0.5, 1.0, 2.0):
            rep = idn.kl_flow_check(x, y, t, tol=1e-5)
            assert rep.rhs == pytest.approx(-h * t ** (-2 * h - 1), abs=1e-10)
            worst = max(worst, rep.abs_discrepancy)
        kls = [nf.kl_divergence(ch.density_at(x, t), ch.density_at(y, t))
               for t in (0.5, 1.0, 2.0)]
        assert np.allclose(kls, [1 / (2 * t ** (2 * h)) for t in (0.5, 1.0, 2.0)],
                           atol=1e-12)
        mono_ok &= kls[0] > kls[1] > kls[2]
    _verdict("4 KL flow + monotonicity", worst <= 1e-5 and mono_ok,
             f"max |lhs-rhs| = {worst:.3e} <= 1e-5; KL strictly decreasing")


def test_criterion_5_fokker_planck():
    x_grid = np.linspace(-4.0, 4.0, 81)
    worst_const, worst_nl = 0.0, 0.0
    for h in (0.3, 0.5, 0.75):
        for c in (1.0, 2.0):
            res = idn.fokker_planck_residual(
                ch.multiplicative(sg.constant(c), 0.0, h), 1.0, x_grid)
            worst_const = max(worst_const, float(np.max(np.abs(res))))
        res = idn.fokker_planck_residual(
            ch.multiplicative(sg.sqrt_one_plus_square(), 0.0, h), 1.0, x_grid)
        worst_nl = max(worst_nl, float(np.max(np.abs(res))))
    ok = worst_const <= 1e-5 and worst_nl <= 1e-3
    _verdict("5 Fokker-Planck residual", ok,
             f"constant sigma {worst_const:.3e} <= 1e-5, "
             f"sqrt(1+x^2) {worst_nl:.3e} <= 1e-3")


def test_criterion_6_stein():
    rs = [
        (lambda y: y, lambda y: np.ones_like(y)),
        (lambda y: y ** 2, lambda y: 2 * y),
        (lambda y: y ** 3, lambda y: 3 * y ** 2),
        (np.sin, np.cos),
    ]
    worst = 0.0
    for mu, v in ((0.0, 1.0), (2.0, 0.5)):
        for r, rp in rs:
            rep = idn.stein_check(mu, v, r, rp, tol=1e-10)
            worst = max(worst, rep.abs_discrepancy)
    _verdict("6 Stein identity", worst <= 1e-10,
             f"max residual = {worst:.3e} <= 1e-10")


def test_criterion_7_entropy_power_regimes():
    t_grid = [0.5, 1.0, 2.0]
    ok = True
    worst_rel = 0.0
    for h, kind in [(0.6, "convex"), (0.75, "convex"), (0.9, "convex"),
                    (0.1, "concave"), (0.3, "concave")]:
        for t in t_grid:
            rep = idn.entropy_power_check(ch.additive(ch.gaussian_law(0.0, 1.0), h), t)
            ok &= rep.extras["classification"] == kind
            worst_rel = max(worst_rel, abs(rep.lhs - rep.rhs) / abs(rep.rhs))
    linear_ok = lin_vals = True
    for t in t_grid:
        rep = idn.entropy_power_check(ch.additive(ch.gaussian_law(0.0, 1.0), 0.5), t)
        ok &= rep.extras["classification"] == "concave"
        linear_ok &= abs(rep.lhs) <= 1e-6
        lin_vals &= abs(rep.extras["entropy_power"] - (1.0 + t)) <= 1e-12
    ok &= linear_ok and lin_vals and worst_rel <= 1e-4
    _verdict("7 entropy-power regimes", ok,
             f"sign law ok; H=0.5 linear (|d2N| <= 1e-6); "
             f"max rel err d2N vs 2Ng = {worst_rel:.3e} <= 1e-4")


def test_criterion_8_fbm_sampler_statistics():
    n, n_paths = 64, 100_000
    grid = np.arange(1, n + 1) / n
    ok = True
    details = []
    for h in (0.3, 0.7):
        exact = fbm.covariance(grid[:, None], grid[None, :], h)
        stats = {}
        for i, method in enumerate(("cholesky", "circulant")):
            vals, fallback = fbm.sample_paths(grid, h, method=method,
                                              seed=100 + i, n_paths=n_paths)
            assert not fallback
            # per-entry std error of the mean of products X_s X_t, via the
            # second moment of the products to avoid a paths x n x n array
            emp = vals.T @ vals / n_paths
            sq = vals ** 2
            second = sq.T @ sq / n_paths
            var = (second - emp ** 2) * n_paths / (n_paths - 1)
            se = np.sqrt(var / n_paths)
            stats[method] = (emp, se)
            z = float(np.max(np.abs(emp - exact) / se))
            ok &= z < 5.0
            details.append(f"H={h} {method} max|z|={z:.2f}")
            del vals
        cross = float(np.max(
            np.abs(stats["cholesky"][0] - stats["circulant"][0])
            / np.sqrt(stats["cholesky"][1] ** 2 + stats["circulant"][1] ** 2)))
        ok &= cross < 5.0
        details.append(f"H={h} cross max|z|={cross:.2f}")
    _verdict("8 fBm sampler statistics", ok, "; ".join(details))


def test_criterion_9_mc_vs_quadrature(canonical_pairs):
    assert len(canonical_pairs) == 12
    hits = 0
    misses = []
    for name, (mc_fn, quad_fn) in canonical_pairs.items():
        est = mc_fn(1_000_000, 777)
        qv = quad_fn()
        if abs(est.mean - qv) <= 4 * est.std_error:
            hits += 1
        else:
            misses.append(name)
    _verdict("9 MC vs quadrature oracle", hits >= 11,
             f"{hits}/12 within 4 std errors" +
             (f" (missed: {', '.join(misses)})" if misses else ""))


def test_criterion_10_determinism(tmp_path):
    cfg = {
        "suites": ["debruijn-mult", "kl-flow", "entropy-power", "fbm-stats"],
        "channel": {
            "variant": "multiplicative",
            "sigma": {"kind": "constant", "c": 1.0}, "x0": 0.0,
            "initial": {"kind": "gaussian", "mean": 0.0, "variance": 1.0},
        },
        "t_grid": [0.5, 1.0],
        "hurst_grid": [0.3, 0.7],
        "fbm_stats": {"n": 16, "n_paths": 2000, "seed": 5},
        "oracle": {"kind": "mc", "samples": 20000, "seed": 11},
        "output": str(tmp_path / "report"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    def bodies():
        result = CliRunner().invoke(main, ["run", "--config", str(cfg_path)])
        assert result.exit_code == 0, result.output
        csv_body = (tmp_path / "report.csv").read_text().split("\n", 1)[1]
        return (csv_body,
                (tmp_path / "report.json").read_text(),
                (tmp_path / "report_entropy_power.csv").read_text())

    first = bodies()
    second = bodies()
    _verdict("10 determinism", first == second,
             "byte-identical CSV body, JSON and entropy-power CSV across reruns")
