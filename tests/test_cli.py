import csv
import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from fbm_infoflow import channels as ch, cli, doss, fbm, identities as idn, infofunc
from fbm_infoflow.cli import main
from fbm_infoflow.errors import DomainError


def _base_config(tmp_path, **overrides):
    cfg = {
        "suites": ["debruijn-mult", "debruijn-additive", "kl-flow",
                   "fokker-planck", "stein", "entropy-power"],
        "channel": {
            "variant": "multiplicative",
            "sigma": {"kind": "constant", "c": 1.0},
            "x0": 0.0,
            "initial": {"kind": "gaussian", "mean": 0.0, "variance": 1.0},
        },
        "t_grid": [0.5, 1.0],
        "hurst_grid": [0.3, 0.75],
        "output": str(tmp_path / "report"),
    }
    cfg.update(overrides)
    return cfg


def _run(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return CliRunner().invoke(main, ["run", "--config", str(path)])


def test_all_identities_constant_sigma_pass(tmp_path):
    result = _run(tmp_path, _base_config(tmp_path))
    assert result.exit_code == 0, result.output
    with open(tmp_path / "report.csv") as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("#")
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == 6 * 2 * 2
    assert all(r["passed"] == "true" for r in rows)


def test_zero_tolerance_fails(tmp_path):
    cfg = _base_config(tmp_path, suites=["debruijn-mult"],
                       tolerances={"debruijn-mult": 0.0})
    result = _run(tmp_path, cfg)
    assert result.exit_code == 1


def test_unknown_suite_is_config_error(tmp_path):
    cfg = _base_config(tmp_path, suites=["foo"])
    result = _run(tmp_path, cfg)
    assert result.exit_code == 2
    assert "foo" in result.output


def test_missing_config_file(tmp_path):
    result = CliRunner().invoke(main, ["run", "--config", str(tmp_path / "nope.json")])
    assert result.exit_code == 2


def test_empty_grids_rejected(tmp_path):
    result = _run(tmp_path, _base_config(tmp_path, t_grid=[]))
    assert result.exit_code == 2
    result = _run(tmp_path, _base_config(tmp_path, t_grid=[-1.0]))
    assert result.exit_code == 2


def test_byte_identical_report_bodies(tmp_path):
    cfg = _base_config(tmp_path, suites=["debruijn-mult", "entropy-power"],
                       oracle={"kind": "mc", "samples": 20000, "seed": 7})
    _run(tmp_path, cfg)
    body1 = (tmp_path / "report.csv").read_text().split("\n", 1)[1]
    json1 = (tmp_path / "report.json").read_text()
    ep1 = (tmp_path / "report_entropy_power.csv").read_text()
    _run(tmp_path, cfg)
    body2 = (tmp_path / "report.csv").read_text().split("\n", 1)[1]
    assert body1 == body2
    assert json1 == (tmp_path / "report.json").read_text()
    assert ep1 == (tmp_path / "report_entropy_power.csv").read_text()


def test_min_t_exclusions(tmp_path):
    cfg = _base_config(tmp_path, suites=["debruijn-mult"],
                       t_grid=[0.01, 1.0], min_t=0.05)
    result = _run(tmp_path, cfg)
    assert result.exit_code == 0
    with open(tmp_path / "report.csv") as fh:
        rows = list(csv.DictReader(fh.read().splitlines()[1:]))
    assert len(rows) == 2   # one excluded t, two H values remain


def test_entropy_power_extra_columns(tmp_path):
    cfg = _base_config(tmp_path, suites=["entropy-power"])
    _run(tmp_path, cfg)
    with open(tmp_path / "report_entropy_power.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {"t", "hurst", "entropy_power", "g", "classification"} <= set(rows[0])
    assert len(rows) == 4


def test_entropy_power_table_from_report_rows(tmp_path):
    cfg = _base_config(tmp_path, suites=["entropy-power"],
                       t_grid=[2.0, 0.5], hurst_grid=[0.75, 0.3])
    assert _run(tmp_path, cfg).exit_code == 0
    with open(tmp_path / "report.csv") as fh:
        rows = {(r["t"], r["hurst"]): r for r in csv.DictReader(fh.read().splitlines()[1:])}
    with open(tmp_path / "report_entropy_power.csv") as fh:
        table = list(csv.DictReader(fh))
    keys = [(float(r["hurst"]), float(r["t"])) for r in table]
    assert keys == [(0.3, 0.5), (0.3, 2.0), (0.75, 0.5), (0.75, 2.0)]
    for rec in table:
        notes = rows[rec["t"], rec["hurst"]]["method_notes"]
        g, n = re.fullmatch(r"g=(\S+) -> \w+; N=(\S+); richardson fd_step=\S+", notes).groups()
        assert float(rec["g"]) == pytest.approx(float(g), rel=1e-8, abs=0)
        assert float(rec["entropy_power"]) == pytest.approx(float(n), rel=1e-8, abs=0)


@pytest.mark.parametrize("fd_step", [None, 2e-3])
def test_entropy_power_and_fokker_planck_rows_name_their_step(fd_step):
    # Both rows once noted only their result, not the time step their lhs took.
    cfg = {"suites": ["entropy-power", "fokker-planck"], "fd_step": fd_step,
           "channel": {"initial": {"kind": "grid", "n": 401}}}
    runner = cli._SuiteRunner(cfg)
    for t in (0.1, 0.5, 2.0):
        step = idn._default_step(t) if fd_step is None else fd_step
        for suite in ("entropy-power", "fokker-planck"):
            notes = runner.run_combo(suite, t, 0.75).method_notes
            assert notes.endswith(f"; richardson fd_step={step:g}"), (suite, t, notes)


def test_entropy_power_row_is_the_identity_check():
    cfg = {"suites": ["entropy-power"], "channel": {"initial": {"kind": "grid", "n": 401}}}
    runner = cli._SuiteRunner(cfg)
    for t, h in ((0.5, 0.3), (2.0, 0.75)):
        row = runner.run_combo("entropy-power", t, h)
        check = idn.entropy_power_check(ch.additive(runner.initial, h), t)
        assert dataclasses.asdict(row) == dataclasses.asdict(check)


def test_mc_oracle_columns(tmp_path):
    cfg = _base_config(tmp_path, suites=["debruijn-additive"],
                       t_grid=[1.0], hurst_grid=[0.75],
                       oracle={"kind": "mc", "samples": 50000, "seed": 3})
    result = _run(tmp_path, cfg)
    assert result.exit_code == 0
    with open(tmp_path / "report.csv") as fh:
        rows = list(csv.DictReader(fh.read().splitlines()[1:]))
    assert rows[0]["mc_ok"] == "true"
    assert float(rows[0]["mc_std_error"]) > 0


def test_verify_subcommand(tmp_path):
    out = str(tmp_path / "verify_report")
    result = CliRunner().invoke(main, [
        "verify", "debruijn-mult", "--hurst", "0.5", "--t", "1.0",
        "--sigma", "constant", "--c", "2.0", "--tol", "1e-6", "--out", out,
    ])
    assert result.exit_code == 0, result.output
    with open(out + ".csv") as fh:
        rows = list(csv.DictReader(fh.read().splitlines()[1:]))
    assert rows[0]["identity"] == "debruijn-mult"
    assert rows[0]["passed"] == "true"


@pytest.mark.parametrize("args, key", [
    (["stein", "--sigma", "sqrt1p", "--c", "5"], "'channel.sigma.c'"),
    (["stein", "--sigma", "bogus"], "'channel.sigma.kind'"),
    (["stein", "--oracle", "bogus"], "'oracle.kind'"),
    (["stein", "--samples", "5"], "'oracle.samples'"),
    (["debruijn-additive", "--samples", "1000", "--seed", "3"], None),
], ids=["sqrt1p-c", "sigma-bogus", "oracle-bogus", "samples-without-oracle",
        "samples-and-seed-turn-the-oracle-on"])
def test_verify_flags_are_checked_as_config_values(tmp_path, args, key):
    # --samples and --seed fill the oracle block with or without --oracle (they
    # were once dropped without it), so they are checked and turn the oracle on.
    result = CliRunner().invoke(main, ["verify", *args, "--out", str(tmp_path / "r")])
    if key is None:
        assert result.exit_code == 0, result.output
        with open(tmp_path / "r.csv") as fh:
            rows = list(csv.DictReader(fh.read().splitlines()[1:]))
        assert len(rows) == 9 and all(row["mc_value"] and row["mc_ok"] for row in rows)
        return
    assert result.exit_code == 2, result.output
    assert key in result.output and "config error" in result.output


def test_verify_kl_flow_of_far_apart_gaussians(tmp_path):
    # With c = 0.01, y0 = 1 lies 100 std from x0 = 0 at t = 1, and K = 5000 / t.  Read
    # through densities clamped at 1e-300, KL was about 694 and the row failed with
    # lhs -0.5 against rhs -5000.
    out = tmp_path / "r"
    result = CliRunner().invoke(main, [
        "verify", "kl-flow", "-h", "0.5", "--t", "1", "--sigma", "constant", "--c", "0.01",
        "--x0", "0", "--y0", "1", "--out", str(out)])
    assert result.exit_code == 0, result.output
    with open(tmp_path / "r.csv") as fh:
        (row,) = csv.DictReader(fh.read().splitlines()[1:])
    assert row["passed"] == "true", row
    assert float(row["lhs"]) == pytest.approx(-5000.0, rel=1e-9)
    assert float(row["rhs"]) == pytest.approx(-5000.0, rel=1e-12)


def test_verify_sqrt1p_without_c(tmp_path):
    result = CliRunner().invoke(main, [
        "verify", "debruijn-mult", "--sigma", "sqrt1p", "--hurst", "0.5", "--t", "1.0",
        "--out", str(tmp_path / "r")])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("suite", cli.SUITES)
def test_verify_and_run_share_defaults(monkeypatch, suite):
    handed = []

    def capture(cfg):
        handed.append(cfg)
        raise cli.ConfigError("captured")

    monkeypatch.setattr(cli, "_SuiteRunner", capture)
    CliRunner().invoke(main, ["verify", suite])
    values, given = cli._read(handed[0])
    assert set(given) == {"suites"}
    assert values == cli._read({"suites": [suite]})[0]


def test_fbm_sample_csv(tmp_path):
    out = tmp_path / "path.csv"
    result = CliRunner().invoke(main, [
        "fbm", "sample", "--h", "0.7", "--n", "64", "--dt", "0.015625",
        "--method", "circulant", "--seed", "9", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time", "value"]
    assert len(rows) == 65
    assert float(rows[1][0]) == pytest.approx(0.015625)
    values, _ = fbm.sample_paths(0.015625 * np.arange(1, 65), 0.7,
                                 method="circulant", seed=9)
    assert [r[1] for r in rows[1:]] == [f"{v:.17g}" for v in values[0]]


@pytest.mark.parametrize("method", ["cholesky", "circulant"])
@pytest.mark.parametrize("dt", ["nan", "inf", "0"])
def test_fbm_sample_rejects_a_step_that_gives_no_times(tmp_path, dt, method):
    # --dt nan or inf once wrote four rows of NaN with Cholesky and exited 0.
    out = tmp_path / "path.csv"
    result = CliRunner().invoke(main, [
        "fbm", "sample", "--h", "0.5", "--n", "4", "--dt", dt, "--method", method,
        "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "grid times must be finite and strictly positive" in result.output
    assert not out.exists()


def test_fbm_stats_cell_memory_is_bounded():
    # The standard errors once came from a (paths x n x n) product tensor:
    # 630 MiB per cell at 64 grid points and 10 000 paths.  Holding every path
    # at once took 49 MiB at 10 000 paths and 195 MiB at 40 000; sampled in
    # batches, the paths take the same memory whatever n_paths is.  A circulant
    # batch of 2^17 path values holds its normals, one H's paths and a 512 kB
    # transform block, and peaks at 3.8 MiB on one H and 4.2 MiB on three, whose
    # sampling shares each batch's normals; the bound leaves 1.8 MiB of margin.
    for hs in ([0.75], [0.3, 0.5, 0.75]):
        for n_paths in (10000, 40000):
            cfg = {"suites": ["fbm-stats"], "t_grid": [1.0], "hurst_grid": hs,
                   "fbm_stats": {"n": 64, "n_paths": n_paths, "seed": 1}}
            runner = cli._SuiteRunner(cfg)
            tracemalloc.start()
            try:
                rep = runner.run_combo("fbm-stats", 1.0, 0.75)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 6 * 2 ** 20, (hs, n_paths, peak)
            assert rep.passed, rep


_FBM_STATS = {"suites": ["fbm-stats"], "t_grid": [0.5, 1.0],
              "fbm_stats": {"n": 16, "n_paths": 9001, "seed": 4}}


def _fbm_rows(hs, first=None):
    """fbm-stats rows of a runner on hurst_grid hs, by H, the cell at H = first first."""
    runner = cli._SuiteRunner(dict(_FBM_STATS, hurst_grid=hs))
    order = sorted(hs, key=lambda h: h != first)
    return {h: runner.run_combo("fbm-stats", 1.0, h).row() for h in order}


@pytest.mark.parametrize("first", [0.3, 0.75])
def test_fbm_stats_shared_sampling_matches_each_h_alone(first):
    # One draw serves every H, and each row is the bits it would be with its H alone.
    rows = _fbm_rows([0.3, 0.5, 0.75], first)
    for h, row in rows.items():
        assert row == _fbm_rows([h])[h], h


def test_fbm_stats_circulant_fallback_keeps_its_own_draw(monkeypatch):
    # An H whose embedding is not nonnegative definite samples by Cholesky from a
    # fresh generator of the batch seed, as sample_paths does; the others keep theirs.
    scale = fbm._circulant_scale
    monkeypatch.setattr(fbm, "_circulant_scale",
                        lambda n, h: None if h.value == 0.5 else scale(n, h))
    rows = _fbm_rows([0.3, 0.5, 0.75])
    for h, row in rows.items():
        assert row == _fbm_rows([h])[h], h


def test_fbm_stats_draws_each_batch_once_per_method(monkeypatch):
    seeds, drawn = [], []
    default_rng = np.random.default_rng

    class Counting:
        def __init__(self, seed):
            self._rng = default_rng(seed)
            seeds.append(seed)

        def standard_normal(self, *args, **kwargs):
            out = self._rng.standard_normal(*args, **kwargs)
            drawn.append(out.size)
            return out

    monkeypatch.setattr(np.random, "default_rng", Counting)
    _fbm_rows([0.3, 0.5, 0.75])
    n, n_paths = 16, 9001
    batch = fbm._BATCH_ENTRIES // n
    rows = [(min(batch, n_paths - i) + 1) // 2 for i in range(0, n_paths, batch)]
    assert len(seeds) == len(set(seeds)) == 2 * len(rows)
    # Cholesky: one normal per path value; circulant: two per row of 2n entries.
    assert sum(drawn) == n_paths * n + sum(rows) * 4 * n


def test_fbm_stats_error_at_one_h_fails_only_its_rows(monkeypatch):
    clean = {(r.hurst, r.t): r.row() for r in cli.run_suite(
        dict(_FBM_STATS, hurst_grid=[0.3, 0.5, 0.75]))[1]}
    covariance = fbm.covariance

    def failing(s, t, h):
        if fbm.as_hurst(h).value == 0.5:
            raise DomainError("injected")
        return covariance(s, t, h)
    monkeypatch.setattr(fbm, "covariance", failing)
    code, rows, _ = cli.run_suite(dict(_FBM_STATS, hurst_grid=[0.3, 0.5, 0.75]))
    assert code == 3
    for r in rows:
        if r.hurst == 0.5:
            assert r.extras["error"] == f"fbm-stats t={r.t:g} H=0.5: DomainError: injected"
        else:
            assert r.row() == clean[(r.hurst, r.t)]


def test_kl_flow_oracle_allows_for_quadrature_error(monkeypatch):
    # On sqrt1p, sigma^2 (score_X - score_Y)^2 is constant, so the oracle's
    # standard error is ~1e-13 and the quadrature rhs's own error decides.
    cfg = {"suites": ["kl-flow"], "channel": {"sigma": {"kind": "sqrt1p"}, "x0": 0.0},
           "kl": {"y0": 1.0}, "t_grid": [1.0], "hurst_grid": [0.5],
           "oracle": {"kind": "mc", "samples": 100000, "seed": 7}}
    runner = cli._SuiteRunner(cfg)
    rep = runner.run_combo("kl-flow", 1.0, 0.5)
    assert rep.extras["mc_std_error"] < 1e-12
    assert rep.extras["mc_ok"], rep.extras
    off = dataclasses.replace(rep, rhs=rep.rhs + 1e-6 * abs(rep.rhs), extras={})
    monkeypatch.setattr(idn, "kl_flow_check", lambda *args, **kwargs: off)
    assert not runner.run_combo("kl-flow", 1.0, 0.5).extras["mc_ok"]


_SQRT1P = {"channel": {"sigma": {"kind": "sqrt1p"}, "x0": 0.0}, "kl": {"y0": 1.0}}


@pytest.mark.parametrize("t", [1e-4, 3e-4])
def test_kl_flow_cross_check_at_small_t_reads_only_qs_score(t):
    # The x-space cross-check reads q, a flow of the same table, through its
    # score_fn, which is closed form where q's density underflows inside p's
    # window (from about t = 6e-4 down at H = 1/2): no support check applies.
    code, rows, _ = cli.run_suite({"suites": ["kl-flow"], **_SQRT1P, "t_grid": [t],
                                   "hurst_grid": [0.5], "min_t": t})
    (row,) = rows
    assert code != 3 and "error" not in row.extras, row.extras
    assert "x-space gauss-kronrod" in row.method_notes
    assert "DISAGREES" not in row.method_notes, row.method_notes


# The widest sqrt1p cell of the 3 x 3 grid, t = 2 and H = 0.75, where x reaches
# +-3.5e5, is where the adaptive rule in x works hardest.
@pytest.mark.parametrize("suite, rhs, t, h", [
    ("debruijn-mult", "debruijn_rhs", 1.0, 0.5), ("kl-flow", "kl_flow_rhs", 1.0, 0.5),
    ("debruijn-mult", "debruijn_rhs", 2.0, 0.75), ("kl-flow", "kl_flow_rhs", 2.0, 0.75),
], ids=["debruijn-mult-debruijn_rhs", "kl-flow-kl_flow_rhs",
        "debruijn-mult-debruijn_rhs-widest", "kl-flow-kl_flow_rhs-widest"])
def test_x_space_cross_check_on_first_flow_cell(monkeypatch, suite, rhs, t, h):
    cfg = {"suites": [suite], "t_grid": [t], "hurst_grid": [h], **_SQRT1P}
    runner = cli._SuiteRunner(cfg)
    first, second = runner.run_combo(suite, t, h), runner.run_combo(suite, t, h)
    assert first.passed and "x-space gauss-kronrod rhs=" in first.method_notes
    assert "x-space" not in second.method_notes
    # The x route off by 1e-6 relative fails the row.
    exact = infofunc.expect_gauss_kronrod
    monkeypatch.setattr(infofunc, "expect_gauss_kronrod",
                        lambda field, g, q=None: exact(field, g, q) * (1.0 + 1e-6))
    # ... and the cross-check evaluates the definition the check built and integrated.
    definition, built = getattr(idn, rhs), []
    monkeypatch.setattr(idn, rhs, lambda *args: built.append(args) or definition(*args))
    shifted = cli._SuiteRunner(cfg).run_combo(suite, t, h)
    assert shifted.rhs == first.rhs
    assert not shifted.passed and "DISAGREES" in shifted.method_notes
    assert len(built) == 1      # for the check, which hands it to the cross-check


def test_oracle_rows_carry_the_definition_their_check_integrated():
    # A De Bruijn or KL row holds the Rhs its check integrated, for the runner's
    # second routes, and no part of the row reads it; every other row holds none.
    cfg = {"suites": list(cli.SUITES), **_SQRT1P, "t_grid": [1.0], "hurst_grid": [0.5],
           "fbm_stats": {"n": 8, "n_paths": 100}}
    code, rows, _ = cli.run_suite(cfg)
    assert code == 0 and [r.identity_name for r in rows] == list(cli.SUITES)
    for rep in rows:
        assert set(rep.row()) == set(cli.CSV_COLUMNS)
        if rep.identity_name in _ORACLE_SUITES:
            assert isinstance(rep.definition, idn.Rhs)
            assert rep.definition.value() == rep.rhs, rep.identity_name
            assert "definition" not in repr(rep)
            assert dataclasses.replace(rep, definition=None) == rep
        else:
            assert rep.definition is None, rep.identity_name


def test_fokker_planck_grid_follows_the_start(monkeypatch):
    # On a grid fixed at [-4, 4], a start at x0 = 100 read P = 0 and a residual of
    # 0.0, whatever the drift rate; on x0 +- 4 a rate off by 1 % fails the row.
    cfg = {"suites": ["fokker-planck"], "channel": {"sigma": {"kind": "constant"}, "x0": 100.0},
           "t_grid": [1.0], "hurst_grid": [0.5]}
    exact = cli._SuiteRunner(cfg).run_combo("fokker-planck", 1.0, 0.5)
    assert exact.passed and exact.method_notes.startswith(
        "max |residual| over x in [96,104], 81 pts; ")
    rate = idn._rate
    monkeypatch.setattr(idn, "_rate", lambda hv, t: 1.01 * rate(hv, t))
    off = cli._SuiteRunner(cfg).run_combo("fokker-planck", 1.0, 0.5)
    assert not off.passed and off.lhs == pytest.approx(1.99e-3, rel=1e-2)


@pytest.mark.parametrize("domain, cause", [
    ([3.0, 4.0], "x0 = 0 lies outside sigma's working domain [3, 4]"),
    ([-1.0, 1.0], "sigma's working domain [-1, 1] cuts 0.317 of the mass of X_t")])
def test_constant_sigma_reads_its_working_domain(domain, cause):
    # Both once passed with exit 0: the start outside the domain, and X_t with 0.317
    # of its mass outside it.
    code, rows, _ = cli.run_suite({
        "suites": ["debruijn-mult"], "t_grid": [1.0], "hurst_grid": [0.5],
        "channel": {"sigma": {"kind": "constant", "domain": domain}, "x0": 0.0}})
    (row,) = rows
    assert code == 3
    assert row.extras["error"].startswith(f"debruijn-mult t=1 H=0.5: FlowEscapeError: {cause}")


_GAUSSIAN = {"initial": {"kind": "gaussian"}}


@pytest.mark.parametrize("suite, channel, t, h", [
    ("debruijn-mult", _SQRT1P["channel"], 1e-200, 0.9),
    ("debruijn-additive", {"initial": {"kind": "grid"}}, 1e-200, 0.9),
    ("debruijn-additive", _GAUSSIAN, 1e-200, 0.9),
    ("entropy-power", _GAUSSIAN, 1e-160, 0.99),
    ("fokker-planck", _SQRT1P["channel"], 1e-160, 0.99)])
def test_time_whose_variance_underflows_is_an_error_row(suite, channel, t, h):
    # t^{2H} below the smallest normal float.  The first three aborted the run with a
    # ZeroDivisionError, Fokker-Planck wrote a NaN row with no error, and the Gaussian
    # De Bruijn row passed, reading X_t as X_0.
    code, rows, _ = cli.run_suite({"suites": [suite], "channel": channel, "t_grid": [t],
                                   "hurst_grid": [h], "min_t": t})
    (row,) = rows
    assert code == 3 and not row.passed
    assert row.extras["error"].startswith(f"{suite} t={t:g} H={h:g}: DegenerateTimeError: t = ")


def test_fbm_stats_samples_through_fbm(monkeypatch):
    # The first fbm-stats cell samples every H of the grid by fbm.path_moments, once
    # a method; the next cell reads its figures.
    calls, moments = [], fbm.path_moments
    monkeypatch.setattr(fbm, "path_moments",
                        lambda *args: calls.append(args) or moments(*args))
    runner = cli._SuiteRunner(dict(_FBM_STATS, hurst_grid=[0.3, 0.75]))
    runner.run_combo("fbm-stats", 0.5, 0.3)
    runner.run_combo("fbm-stats", 0.5, 0.75)
    assert [(sorted(samplers), {s.method for s in samplers.values()}, n_paths, seed)
            for samplers, n_paths, seed in calls] == [
        ([0.3, 0.75], {"cholesky"}, 9001, 4), ([0.3, 0.75], {"circulant"}, 9001, 5)]


def test_rhs_definition_feeds_check_cross_check_and_oracle(monkeypatch):
    # g scaled by 1.01 moves the quadrature rhs, the x-space cross-check and the
    # Monte Carlo oracle together: only lhs against rhs can catch it.
    exact = idn.debruijn_rhs

    def scaled(channel, t):
        rhs = exact(channel, t)
        return rhs._replace(g=lambda x: 1.01 * rhs.g(x))
    monkeypatch.setattr(idn, "debruijn_rhs", scaled)
    cfg = {"suites": ["debruijn-mult"], "t_grid": [1.0], "hurst_grid": [0.5], **_SQRT1P,
           "oracle": {"kind": "mc", "samples": 2000, "seed": 1}}
    rep = cli._SuiteRunner(cfg).run_combo("debruijn-mult", 1.0, 0.5)
    assert not rep.passed and rep.abs_discrepancy > rep.tolerance
    assert rep.extras["mc_ok"], rep.extras
    assert "x-space gauss-kronrod rhs=" in rep.method_notes
    assert "DISAGREES" not in rep.method_notes


def test_failing_cell_becomes_an_error_row(tmp_path):
    # At t = 4, H = 0.9, sigma's edge at z = 21.4 lies 6.1 std out, and the window
    # would drop 8e-10 of the mass (FlowEscapeError); the t = 1 cell computes on its own.
    out = tmp_path / "report"
    result = CliRunner().invoke(main, [
        "verify", "debruijn-mult", "--sigma", "sqrt1p", "--t", "4", "--t", "1", "-h", "0.9",
        "--out", str(out)])
    assert result.exit_code == 3, result.output
    assert "numerical error: debruijn-mult t=4 H=0.9: FlowEscapeError" in result.output
    with open(tmp_path / "report.csv") as fh:
        failed, passed = csv.DictReader(fh.read().splitlines()[1:])
    assert failed["passed"] == "false" and failed["rhs"] == "nan"
    assert failed["method_notes"].startswith(
        "error: debruijn-mult t=4 H=0.9: FlowEscapeError: ")
    assert passed["passed"] == "true" and "x-space gauss-kronrod rhs=" in passed["method_notes"]

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")
    rows = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)["rows"]
    assert [r["lhs"] for r in rows][0] is None and rows[1]["passed"]


def test_flow_tabulated_once_per_sigma(monkeypatch):
    # One Lamperti table serves every H, x0 and kl.y0 of a sigma: the 3 x 3 grid
    # builds it once, from sigma's midpoint 0, out to its reach of 64 in z.  Equal
    # sigmas share a table, so the one an earlier test built is dropped first.
    ch._lamperti.cache_clear()
    calls = []
    solve = doss.solve_phi
    monkeypatch.setattr(doss, "solve_phi", lambda *a: calls.append(a) or solve(*a))
    _, rows, runner = cli.run_suite({"suites": ["debruijn-mult", "kl-flow"], **_SQRT1P,
                                     "channel": {"sigma": {"kind": "sqrt1p"}, "x0": 0.5},
                                     "kl": {"y0": 1.0}})
    assert len(rows) == 18 and all(r.passed for r in rows)
    assert [(sigma, x0, z_domain) for sigma, x0, z_domain in calls] == [
        (runner.sigma, 0.0, (-64.0, 64.0))]


def test_flow_rows_do_not_depend_on_cell_order():
    # Every row is the same when t and H run backwards: each cell reads sigma's
    # one table, whichever cell builds it.
    cfg = {"suites": ["debruijn-mult", "kl-flow", "fokker-planck"], **_SQRT1P}
    rows = [cli.run_suite({**cfg, "t_grid": ts, "hurst_grid": hs})[1]
            for ts, hs in (([0.5, 1.0, 2.0], [0.3, 0.5, 0.75]),
                           ([2.0, 1.0, 0.5], [0.75, 0.5, 0.3]))]
    forward, backward = ({(r.identity_name, r.t, r.hurst): (r.lhs, r.rhs, r.passed)
                          for r in run} for run in rows)
    assert len(forward) == 27 and forward == backward


def test_flow_suites_pass_with_the_oracle():
    # The three flow suites on sqrt1p: every row passes, and the oracle meets the
    # quadrature rhs on every De Bruijn and KL row.
    code, rows, _ = cli.run_suite({"suites": ["debruijn-mult", "kl-flow", "fokker-planck"],
                                   "t_grid": [0.5, 2.0], "hurst_grid": [0.3, 0.75], **_SQRT1P,
                                   "oracle": {"kind": "mc", "samples": 2000, "seed": 1}})
    assert code == 0 and len(rows) == 12
    oracle = [r.extras["mc_ok"] for r in rows if "mc_ok" in r.extras]
    assert len(oracle) == 8 and all(oracle)


@pytest.mark.parametrize("initial", [
    {"kind": "grid"}, {"kind": "gaussian", "mean": 0.0, "variance": 1.0}],
    ids=["grid", "gaussian"])
def test_additive_sweep_passes_everywhere(initial):
    # Both additive suites over t from the default min_t to 4 and H from 0.1 to
    # 0.9, on the default uniform grid law and on N(0, 1): every row passes.
    code, rows, _ = cli.run_suite({
        "suites": ["debruijn-additive", "entropy-power"], "channel": {"initial": initial},
        "t_grid": [0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0],
        "hurst_grid": [0.1, 0.2, 0.3, 0.5, 0.75, 0.9]})
    assert len(rows) == 84
    assert code == 0, [(r.identity_name, r.t, r.hurst) for r in rows if not r.passed]


# The flow sweep: t from the default min_t to 4 and H from 0.1 to 0.9.
_SWEEP_TS, _SWEEP_HS = [0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0], [0.1, 0.2, 0.3, 0.5, 0.75, 0.9]


def test_flow_sweep_computes_every_cell_with_mass_in_the_window():
    # debruijn-mult and kl-flow on sqrt1p over the sweep.  Only t = 4, H = 0.9
    # raises: sigma's edge, z = 21.4, lies 6.1 std out, beyond which 8e-10 of the
    # mass lies, above ABS_TOL.  Every kl-flow rhs is the closed form
    # -H t^{2H-1} asinh(1)^2 / t^{4H}.
    _, rows, _ = cli.run_suite({"suites": ["debruijn-mult", "kl-flow"], **_SQRT1P,
                                "t_grid": _SWEEP_TS, "hurst_grid": _SWEEP_HS})
    assert len(rows) == 84
    for r in rows:
        if (r.t, r.hurst) == (4.0, 0.9):
            dropped = re.search(r"FlowEscapeError: .* drops (\S+) of the mass", r.method_notes)
            assert dropped and float(dropped[1]) > infofunc.ABS_TOL, r.method_notes
            continue
        if r.identity_name == "kl-flow":
            h, t = r.hurst, r.t
            exact = -h * t ** (2 * h - 1) * math.asinh(1.0) ** 2 / t ** (4 * h)
            assert abs(r.rhs - exact) <= 1e-12 * abs(exact), (r.t, r.hurst)
        assert r.passed, (r.identity_name, r.t, r.hurst, r.method_notes)


@pytest.mark.parametrize("suite", ["debruijn-mult", "kl-flow"])
def test_x_space_cross_check_agrees_over_the_flow_sweep(suite):
    # Each cell of the sweep run as the first of its suite, so that it takes the
    # x-space cross-check.  The x rule integrates over p's own window, as the z
    # rule does; over the common window of p and q it cut p's mass at small t,
    # and kl-flow read DISAGREES there.  t = 4, H = 0.9 raises (the sweep above).
    for t in _SWEEP_TS:
        for h in _SWEEP_HS:
            if (t, h) == (4.0, 0.9):
                continue
            runner = cli._SuiteRunner({"suites": [suite], "t_grid": [t], "hurst_grid": [h],
                                       **_SQRT1P})
            notes = runner.run_combo(suite, t, h).method_notes
            assert "x-space gauss-kronrod rhs=" in notes, (t, h, notes)
            assert "DISAGREES" not in notes, (t, h, notes)


# Small versions of the benchmark's three workload configs.
_ORACLE_SUITES = ("debruijn-mult", "debruijn-additive", "kl-flow")
_WORKLOADS = {
    "sqrt1p": {"suites": ["debruijn-mult", "fokker-planck"], **_SQRT1P},
    "grid": {"suites": ["debruijn-additive", "entropy-power"],
             "channel": {"variant": "additive",
                         "initial": {"kind": "grid", "domain": [-1.0, 1.0], "n": 401}}},
    "gauss": {"suites": ["debruijn-mult", "debruijn-additive", "kl-flow", "stein",
                         "entropy-power"],
              "channel": {"sigma": {"kind": "constant", "c": 1.0}, "x0": 0.0,
                          "initial": {"kind": "gaussian", "mean": 0.0, "variance": 1.0}}},
}


@pytest.mark.parametrize("workload", sorted(_WORKLOADS))
def test_quadpack_runs_only_in_the_flow_cross_check(monkeypatch, workload):
    # The adaptive rule in x, at the seam QUADPACK had, is the reference route: every
    # field the channels build is of a type the trapezoid rule takes, and only the
    # first flow cell's cross-check calls the adaptive rule.
    calls = []
    quad = infofunc.integrate.quad
    monkeypatch.setattr(infofunc.integrate, "quad",
                        lambda *args, **kwargs: calls.append(1) or quad(*args, **kwargs))
    runner = cli._SuiteRunner({**_WORKLOADS[workload], "t_grid": [0.5, 2.0],
                               "hurst_grid": [0.3, 0.75],
                               "oracle": {"kind": "mc", "samples": 2000, "seed": 1}})
    per_cell = []
    for suite in runner.suites:
        for h in runner.h_grid:
            for t in runner.t_grid:
                before = len(calls)
                rep = runner.run_combo(suite, t, h)
                assert rep.passed
                assert rep.extras.get("mc_ok", suite not in _ORACLE_SUITES), rep
                per_cell.append(len(calls) - before)
    assert per_cell[1:] == [0] * (len(per_cell) - 1)
    assert (per_cell[0] > 0) == (workload == "sqrt1p")


def test_entropy_power_skips_times_below_min_t(tmp_path):
    cfg = _base_config(tmp_path, suites=["entropy-power"],
                       t_grid=[0.0005, 1.0], hurst_grid=[0.75])
    result = _run(tmp_path, cfg)
    assert result.exit_code == 0, result.output
    assert "1 checks, 0 failed (1 excluded below min_t)" in result.output
    with open(tmp_path / "report_entropy_power.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 1


def test_time_steps_checked_only_for_selected_suites(tmp_path):
    # 5e-4 lies below a 1e-3 step, but stein takes no time step, and every suite
    # that does defaults to a step below its t.
    cfg = _base_config(tmp_path, suites=["stein"], t_grid=[5e-4, 1.0], min_t=1e-4)
    result = _run(tmp_path, cfg)
    assert result.exit_code == 0, result.output
    assert "4 checks, 0 failed (0 excluded below min_t)" in result.output


def test_fd_step_reaches_every_suite_with_a_time_derivative(tmp_path):
    # Each suite's time derivative is richardson_derivative at the configured step.
    suites = ["debruijn-mult", "kl-flow", "fokker-planck", "entropy-power"]
    rows = {}
    for fd_step in (None, 4e-3):
        cfg = _base_config(tmp_path, suites=suites, t_grid=[1.0], hurst_grid=[0.75],
                           channel={"sigma": {"kind": "sqrt1p"}})
        if fd_step:
            cfg["fd_step"] = fd_step
        _, got, _ = cli.run_suite(cfg)
        rows[fd_step] = {r.identity_name: r.lhs for r in got}
    assert all(rows[None][s] != rows[4e-3][s] for s in suites)
    chan = ch.additive(ch.gaussian_law(0.0, 1.0), 0.75)
    assert rows[4e-3]["entropy-power"] == idn.entropy_power_check(chan, 1.0, fd_step=4e-3).lhs


def test_grid_law_readme_keys(tmp_path):
    points = np.linspace(0.0, 1.0, 201)
    cfg = _base_config(tmp_path, suites=["debruijn-additive"],
                       t_grid=[1.0], hurst_grid=[0.75])
    cfg["channel"]["initial"] = {"kind": "grid", "points": points.tolist(),
                                 "density": np.ones_like(points).tolist()}
    law = cli._SuiteRunner(cfg).initial
    assert isinstance(law, ch.GridLaw) and law.grid[0] == 0.0 and law.grid[-1] == 1.0
    assert _run(tmp_path, cfg).exit_code == 0
    cfg["channel"]["initial"]["n"] = 201
    result = _run(tmp_path, cfg)
    assert result.exit_code == 2 and "points and density" in result.output


@pytest.mark.parametrize("edit, key", [
    (lambda c: c.update(tolerance={"stein": 0.0}), "'tolerance'"),
    (lambda c: c.update(tolerances={"stien": 0.0}), "'tolerances.stien'"),
    (lambda c: c["channel"]["sigma"].update(cc=2.0), "'channel.sigma.cc'"),
    (lambda c: c["channel"]["initial"].update(grid=[0.0, 1.0]),
     "'channel.initial.grid'"),
    (lambda c: c.update(oracle={"kind": "mc", "sample": 10}), "'oracle.sample'"),
    (lambda c: c.update(kl=1.0), "kl must be a JSON object"),
], ids=["tolerance", "tolerances.stien", "sigma.cc", "initial.grid", "oracle.sample",
        "kl-not-an-object"])
def test_unknown_config_keys_rejected(tmp_path, edit, key):
    cfg = _base_config(tmp_path, suites=["stein"], t_grid=[1.0], hurst_grid=[0.5])
    edit(cfg)
    result = _run(tmp_path, cfg)
    assert result.exit_code == 2
    assert key in result.output


@pytest.mark.parametrize("edit, key", [
    (lambda c: c["channel"].update(variant="bogus"), "'channel.variant'"),
    (lambda c: c.update(oracle={"kind": "bogus"}), "'oracle.kind'"),
    (lambda c: c["channel"]["sigma"].update(kind="bogus"), "'channel.sigma.kind'"),
    (lambda c: c["channel"]["initial"].update(points=[0.0, 1.0], density=[1.0, 1.0]),
     "'channel.initial.points'"),
    (lambda c: c["channel"]["initial"].update(n=11), "'channel.initial.n'"),
    (lambda c: c["channel"].update(initial={"kind": "grid", "variance": 2.0}),
     "'channel.initial.variance'"),
    (lambda c: c["channel"].update(initial={"kind": "grid", "shape": "uniform"}),
     "'channel.initial.shape'"),
    (lambda c: c["channel"].update(sigma={"kind": "sqrt1p", "c": 5}), "'channel.sigma.c'"),
    (lambda c: c["channel"].update(sigma={"kind": "identity", "c": 1}),
     "'channel.sigma.kind' must be one of constant, sqrt1p"),
], ids=["variant", "oracle.kind", "sigma.kind", "gaussian-points", "gaussian-n",
        "grid-variance", "grid-shape", "sqrt1p-c", "identity-c"])
def test_invalid_config_values_rejected(tmp_path, edit, key):
    cfg = _base_config(tmp_path, suites=["stein"], t_grid=[1.0], hurst_grid=[0.5])
    edit(cfg)
    result = _run(tmp_path, cfg)
    assert result.exit_code == 2, result.output
    assert key in result.output


_POINTS = np.linspace(0.0, 1.0, 11).tolist()


@pytest.mark.parametrize("edit, key", [
    (lambda c: c["channel"]["initial"].update(variance=-1), "'channel.initial'"),
    (lambda c: c["channel"]["sigma"].update(c=-2), "'channel.sigma'"),
    (lambda c: c["channel"]["sigma"].update(domain=[1.0, -1.0]), "'channel.sigma'"),
    (lambda c: c["channel"].update(initial={"kind": "grid", "points": _POINTS,
                                            "density": [0.5] * 11}), "'channel.initial'"),
    (lambda c: c["channel"].update(initial={"kind": "grid", "n": 4}), "'channel.initial'"),
    (lambda c: c["channel"].update(initial={"kind": "grid", "domain": [1.0, 1.0]}),
     "'channel.initial.domain'"),
], ids=["variance", "sigma.c", "sigma.domain", "grid-mass", "grid-n", "grid-domain"])
def test_invalid_constructor_values_are_config_errors(tmp_path, edit, key):
    cfg = _base_config(tmp_path, suites=["stein"], t_grid=[1.0], hurst_grid=[0.5])
    edit(cfg)
    result = _run(tmp_path, cfg)
    assert result.exit_code == 2, result.output
    assert key in result.output and "config error" in result.output


@pytest.mark.parametrize("edit, key", [
    (lambda c: c["channel"]["initial"].update(variance="abc"),
     "'channel.initial.variance'"),
    (lambda c: c.update(t_grid=["x"]), "'t_grid'"),
    (lambda c: c.update(hurst_grid=0.5), "'hurst_grid'"),
    (lambda c: c["channel"]["sigma"].update(domain=5), "'channel.sigma.domain'"),
    (lambda c: c["channel"]["sigma"].update(c="x"), "'channel.sigma.c'"),
    (lambda c: c["channel"].update(x0="x"), "'channel.x0'"),
    (lambda c: c["channel"].update(initial={"kind": "grid", "n": -1}),
     "'channel.initial.n'"),
    (lambda c: c.update(tolerances={"stein": "x"}), "'tolerances.stein'"),
    (lambda c: c.update(stein={"cases": [[1]]}), "'stein.cases'"),
    (lambda c: c.update(stein={"cases": [[0, -1]]}), "'stein.cases'"),
    (lambda c: c.update(oracle={"kind": "mc", "samples": "many"}), "'oracle.samples'"),
    (lambda c: c.update(oracle={"kind": "mc", "samples": 10}), "'oracle.samples'"),
    (lambda c: c.update(oracle={"kind": "mc", "seed": -1}), "'oracle.seed'"),
    (lambda c: c.update(fbm_stats={"n": 0}), "'fbm_stats.n'"),
    (lambda c: c.update(fbm_stats={"dt": -1}), "'fbm_stats.dt'"),
    (lambda c: c.update(fbm_stats={"n_paths": 1}), "'fbm_stats.n_paths'"),
    (lambda c: c.update(fd_step=1.0), "'fd_step'"),
    (lambda c: c.update(output=5), "'output'"),
    (lambda c: c.update(suites=["entropy-power"], t_grid=[0.0008, 1.0], min_t=1e-4,
                        fd_step=1e-3), "'fd_step'"),
    (lambda c: c.update(min_t=5), "'min_t'"),
    (lambda c: c.update(min_t=float("nan")), "'min_t'"),
    (lambda c: c["channel"].update(x0=float("nan")), "'channel.x0'"),
    (lambda c: c["channel"]["initial"].update(variance=float("inf")),
     "'channel.initial.variance'"),
    (lambda c: c.update(oracle={"kind": "mc", "samples": float("inf")}), "'oracle.samples'"),
    (lambda c: c.update(t_grid=["1.5", True]), "'t_grid'"),
    (lambda c: c.update(t_grid=[1.0, True]), "'t_grid'"),
    (lambda c: c.update(oracle={"kind": "mc", "samples": 2500.9}), "'oracle.samples'"),
    (lambda c: c["channel"].update(initial={"kind": "grid", "n": 101.7}),
     "'channel.initial.n'"),
    (lambda c: c.update(fbm_stats={"seed": True}), "'fbm_stats.seed'"),
], ids=["variance-text", "t_grid-text", "hurst_grid-number", "sigma.domain-number",
        "sigma.c-text", "x0-text", "grid-n-negative", "tolerance-text", "stein-short-case",
        "stein-variance", "oracle.samples-text", "oracle.samples-few", "oracle.seed",
        "fbm_stats.n", "fbm_stats.dt", "fbm_stats.n_paths", "fd_step-above-t", "output",
        "entropy-power-fd_step-above-t", "min_t-above-every-t",
        "min_t-nan", "x0-nan", "variance-infinite", "oracle.samples-infinite",
        "t_grid-numeric-text", "t_grid-bool", "oracle.samples-fraction", "grid-n-fraction",
        "fbm_stats.seed-bool"])
def test_config_values_checked_before_any_cell(tmp_path, edit, key):
    # Each value once raised inside a cell (exit 3, every row lost), crashed with
    # a traceback, went unread, or ran a check that checked nothing; every one is
    # now read when the run starts.
    cfg = _base_config(tmp_path, suites=["stein", "fbm-stats", "debruijn-mult"],
                       t_grid=[1.0], hurst_grid=[0.5])
    edit(cfg)
    result = _run(tmp_path, cfg)
    assert result.exit_code == 2, result.output
    assert key in result.output and "config error" in result.output
    assert not (tmp_path / "report.csv").exists()


def test_readme_documents_the_config_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### `fbm-infoflow run", 1)[1].split("\n### ", 1)[0]
    example = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    cli._SuiteRunner(example)
    documented = set(re.findall(r"`([a-z_][a-z_0-9]*(?:\.[a-z_0-9<>]+)*)`", section))
    accepted = {re.sub(r"^tolerances\..*", "tolerances.<suite>", path)
                for path in cli._KEYS}
    assert accepted <= documented
    assert {d for d in documented if "." in d} <= accepted
