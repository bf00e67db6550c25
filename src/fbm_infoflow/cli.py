"""Batch front door: load a config, run verification suites, write reports.

Config files are JSON; the schema is documented in README.md.  Exit codes:
0 all checks passed, 1 at least one check failed, 2 config error,
3 a cell raised a numerical error (its row reads NaN and names the error).
"""

import collections
import csv
import dataclasses
import datetime
import io
import json
import math
import os
import sys

import click
import numpy as np
# numpy loads these lazily; loading them with the package keeps that cost
# in set-up, not in the first cell that draws.
import numpy.random

from . import channels as ch
from . import fbm
from . import identities as idn
from . import infofunc as nf
from . import montecarlo as mc
from . import sigma as sg
from .errors import ConfigError, DomainError, FbmInfoflowError

DEFAULT_TOLERANCES = {
    "debruijn-mult": 1e-4,
    "debruijn-additive": 1e-6,
    "kl-flow": 1e-5,
    "fokker-planck": 1e-3,
    "stein": 1e-10,
    "entropy-power": 1e-4,
    "fbm-stats": 5.0,
}
SUITES = tuple(DEFAULT_TOLERANCES)

CSV_COLUMNS = ("identity", "t", "hurst", "lhs", "rhs", "abs_discrepancy",
               "tolerance", "passed", "method_notes")
MC_COLUMNS = ("mc_value", "mc_std_error", "mc_ok")

_RICHARDSON_SUITES = ("debruijn-mult", "debruijn-additive", "kl-flow", "fokker-planck")
# fbm-stats path values sampled at a time.  A circulant batch holds 32 bytes per
# value, 4 MiB in all: the complex buffer (16), one normal temporary (8) and the
# paths (8); a Cholesky batch holds the normals and the paths (16).
_FBM_BATCH_ENTRIES = 1 << 17


def _value(key, raw, convert, ok, need):
    """convert(raw) as the value of config key `key`.  A value that does not
    convert, or for which ok(value) is false, is a ConfigError naming the key."""
    try:
        value = convert(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config key {key!r} cannot take {raw!r}: {exc}") from exc
    if ok is not None and not ok(value):
        raise ConfigError(f"config key {key!r} must be {need}, not {raw!r}")
    return value


def _number(raw):
    if isinstance(raw, (str, bool)):
        raise TypeError("expected a number")
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("expected a finite number")
    return value


def _count(raw):
    value = _number(raw)
    if value != int(value):
        raise ValueError("expected a whole number")
    return int(value)


def _floats(raw):
    if not isinstance(raw, list):
        raise TypeError("expected a list of numbers")
    return [_number(v) for v in raw]


def _pair(raw):
    a, b = _floats(raw)
    return a, b


# A config key: its default (None: it has none), convert(raw) -> value, and
# ok(value), which must hold ("must be <need>").  A choice defaults to its first.
_Key = collections.namedtuple("_Key", "default convert ok need", defaults=(_number, None, ""))


def _choice(*choices):
    return _Key(choices[0], str, lambda v: v in choices, f"one of {', '.join(choices)}")


def _at_least(default, least):
    return _Key(default, _count, lambda v: v >= least, f">= {least}")


# Every config key, once, by its dotted path.  The JSON blocks are the paths'
# prefixes; any other key is a config error.
_KEYS = {
    "suites": _Key(None, lambda raw: raw,
                   lambda s: isinstance(s, list) and s and all(x in SUITES for x in s),
                   f"a non-empty list of suites from {', '.join(SUITES)}"),
    "t_grid": _Key([0.5, 1.0, 2.0], _floats, lambda ts: ts and all(t > 0 for t in ts),
                   "a non-empty list of times > 0"),
    "hurst_grid": _Key([0.3, 0.5, 0.75], _floats,
                       lambda hs: hs and all(0.0 < h < 1.0 for h in hs),
                       "a non-empty list of Hurst values in (0, 1)"),
    "min_t": _Key(0.05),
    "fd_step": _Key(None, lambda raw: None if raw is None else _number(raw)),
    "output": _Key("report", lambda raw: raw, lambda v: isinstance(v, str), "a path prefix"),
    "channel.variant": _choice("multiplicative", "additive"),
    "channel.x0": _Key(0.0),
    "channel.sigma.kind": _choice("constant", "sqrt1p"),
    "channel.sigma.c": _Key(1.0),
    "channel.sigma.domain": _Key([-1e9, 1e9], _pair),
    "channel.initial.kind": _choice("gaussian", "grid"),
    "channel.initial.mean": _Key(0.0),
    "channel.initial.variance": _Key(1.0),
    "channel.initial.points": _Key(None, _floats),
    "channel.initial.density": _Key(None, _floats),
    "channel.initial.domain": _Key([-1.0, 1.0], _pair, lambda d: d[0] < d[1],
                                   "[lo, hi] with lo < hi"),
    "channel.initial.n": _at_least(2001, 1),
    **{f"tolerances.{suite}": _Key(tol, _number, lambda v: v >= 0.0, ">= 0")
       for suite, tol in DEFAULT_TOLERANCES.items()},
    "oracle.kind": _choice("mc"),
    "oracle.samples": _at_least(100000, 100),
    "oracle.seed": _at_least(0, 0),
    "kl.y0": _Key(1.0),
    "stein.cases": _Key([[0.0, 1.0], [2.0, 0.5]], lambda raw: [_pair(case) for case in raw],
                        lambda cases: cases and all(v > 0.0 for _, v in cases),
                        "a non-empty list of [mu, variance] pairs with variance > 0"),
    "fbm_stats.n": _at_least(32, 1),
    "fbm_stats.dt": _Key(1.0 / 32, _number, lambda d: d > 0.0, "> 0"),
    "fbm_stats.n_paths": _at_least(4000, 2),
    "fbm_stats.seed": _at_least(1234, 0),
}
_BLOCKS = {key.rsplit(".", n)[0] for key in _KEYS for n in range(1, key.count(".") + 1)}


def _read(cfg):
    """(values, given): the value of every key of _KEYS that cfg gives or that
    has a default, read from cfg or from that default; and the keys cfg gives."""
    given = {}

    def flatten(block, where):
        if not isinstance(block, dict):
            raise ConfigError(f"{where or 'the config'} must be a JSON object")
        for key, raw in block.items():
            path = f"{where}.{key}" if where else key
            if path in _BLOCKS:
                flatten(raw, path)
            elif path in _KEYS:
                given[path] = raw
            else:
                raise ConfigError(f"unknown config key {path!r}")

    flatten(cfg, "")
    return {key: _value(key, given.get(key, spec.default), *spec[1:]) for key, spec
            in _KEYS.items() if key in given or spec.default is not None}, given.keys()


def _build(key, build, *args):
    """build(*args); a DomainError from the constructors is a config error naming key."""
    try:
        return build(*args)
    except DomainError as exc:
        raise ConfigError(f"invalid {key!r}: {exc}") from exc


def _build_initial(v, given):
    kind = v["channel.initial.kind"]
    other = (("points", "density", "domain", "n") if kind == "gaussian"
             else ("mean", "variance"))
    wrong = [k for k in other if f"channel.initial.{k}" in given]
    if wrong:
        raise ConfigError(f"config key 'channel.initial.{wrong[0]}' does not apply "
                          f"to a {kind} initial law")
    if kind == "gaussian":
        return ch.gaussian_law(v["channel.initial.mean"], v["channel.initial.variance"])
    tabulated = {"channel.initial.points", "channel.initial.density"} & given
    if tabulated:
        if len(tabulated) < 2 or {"channel.initial.domain", "channel.initial.n"} & given:
            raise ConfigError("a grid initial law takes either points and density, "
                              "or domain and n")
        return ch.grid_law(v["channel.initial.points"], v["channel.initial.density"])
    (lo, hi), n = v["channel.initial.domain"], v["channel.initial.n"]
    return ch.grid_law(np.linspace(lo, hi, n), np.full(n, 1.0 / (hi - lo)))


_SIGMAS = {"constant": sg.constant,
           "sqrt1p": lambda c, domain: sg.sqrt_one_plus_square(domain=domain)}


# The stein suite's test functions r and their derivatives r'.
_STEIN_RS = ((lambda y: y, np.ones_like), (lambda y: y ** 2, lambda y: 2 * y),
             (lambda y: y ** 3, lambda y: 3 * y ** 2), (np.sin, np.cos))


class _SuiteRunner:
    """Runs one (suite, t, H) cell at a time.  Each cell computes on its own; the
    only value kept across cells is an fbm-stats row's sampling, which depends
    on H alone."""

    def __init__(self, cfg):
        """Read and check every config value, so that no cell meets a bad one."""
        v, given = _read(cfg)
        if "suites" not in v:
            raise ConfigError("config key 'suites' is required")
        self.suites, self.t_grid, self.h_grid = v["suites"], v["t_grid"], v["hurst_grid"]
        self.output, self.x0, self.y0 = v["output"], v["channel.x0"], v["kl.y0"]
        if "channel.sigma.c" in given and v["channel.sigma.kind"] != "constant":
            raise ConfigError("config key 'channel.sigma.c' applies only to a constant sigma")
        self.sigma = _build("channel.sigma", _SIGMAS[v["channel.sigma.kind"]],
                            v["channel.sigma.c"], v["channel.sigma.domain"])
        self.initial = _build("channel.initial", _build_initial, v, given)
        self.min_t, self.fd_step = v["min_t"], v.get("fd_step")
        self._check_times()
        self.tolerances = {s: v[f"tolerances.{s}"] for s in SUITES}
        self.oracle = None      # or (samples, seed)
        if any(key.startswith("oracle.") for key in given):
            self.oracle = (v["oracle.samples"], v["oracle.seed"])
        self.stein_cases = v["stein.cases"]
        self.fbm_stats = tuple(v[f"fbm_stats.{k}"] for k in ("n", "dt", "n_paths", "seed"))
        self.excluded = []
        self._cross_checked = set()     # suites whose first cell has been cross-checked
        self._fbm_cache = {}

    def _check_times(self):
        """Every time the run checks must lie above each time step its suites take."""
        run_times = [t for t in self.t_grid if t >= self.min_t]
        if not run_times:
            raise ConfigError("config key 'min_t' must be at or below some time in "
                              f"t_grid, or the run checks nothing; not {self.min_t!r}")
        if self.fd_step is not None and not 0.0 < self.fd_step < min(run_times):
            raise ConfigError("config key 'fd_step' must be > 0 and below every time "
                              f"at or above min_t, not {self.fd_step!r}")
        richardson = not set(self.suites).isdisjoint(_RICHARDSON_SUITES)
        for t in run_times:
            step = max(self.fd_step or idn._default_step(t) if richardson else 0.0,
                       idn.ENTROPY_POWER_STEP if "entropy-power" in self.suites else 0.0)
            if t <= step:
                raise ConfigError(f"config key 't_grid' has time {t:g}, at or above min_t "
                                  f"but not above its suites' time step {step:g}")

    def _check_rhs(self, report, rhs, channel):
        """Check report.rhs, the quadrature of the definition rhs, two more ways.
        On the first cell of its suite that computes, if its fields are flow fields,
        rhs again by the adaptive Gauss-Kronrod rule in x, on the fields with their
        flow tags dropped, over p's own window as the z rule takes it; the row fails
        unless the two agree within the rhs's declared accuracy.  With an oracle,
        the Monte Carlo estimate of rhs = scale * E[g(X_t)], X_t ~ channel."""
        # Declared accuracy of the quadrature rhs; it dominates the oracle's slack
        # when g is constant and the standard error vanishes.
        accuracy = abs(rhs.scale) * nf.ABS_TOL + nf.REL_TOL * abs(report.rhs)
        if report.identity_name not in self._cross_checked and rhs.fields[0].flow is not None:
            x_rhs = rhs.value([dataclasses.replace(f, flow=None) for f in rhs.fields])
            agree = abs(x_rhs - report.rhs) <= accuracy
            report.method_notes += (f"; x-space gauss-kronrod rhs={x_rhs:.12g}"
                                    f"{'' if agree else ' DISAGREES'}")
            report.passed = report.passed and agree
        if self.oracle:
            n, seed = self.oracle
            est = mc.mc_expectation(channel, report.t, rhs.g, n, seed)
            value, se = rhs.scale * est.mean, abs(rhs.scale) * est.std_error
            report.extras.update(mc_value=value, mc_std_error=se,
                                 mc_ok=abs(value - report.rhs) <= 4.0 * se + accuracy)
        self._cross_checked.add(report.identity_name)
        return report

    def run_combo(self, suite, t, h):
        tol = self.tolerances[suite]
        if suite in ("debruijn-mult", "debruijn-additive"):
            chan = (ch.multiplicative(self.sigma, self.x0, h) if suite == "debruijn-mult"
                    else ch.additive(self.initial, h))
            r = idn.debruijn_check(chan, t, fd_step=self.fd_step, tol=tol)
            return self._check_rhs(r, idn.debruijn_rhs(chan, t), chan)
        if suite == "kl-flow":
            x, y = (ch.multiplicative(self.sigma, x0, h) for x0 in (self.x0, self.y0))
            r = idn.kl_flow_check(x, y, t, fd_step=self.fd_step, tol=tol)
            return self._check_rhs(r, idn.kl_flow_rhs(x, y, t), x)
        if suite == "fokker-planck":
            x_grid = np.linspace(-4.0, 4.0, 81)
            chan = ch.multiplicative(self.sigma, self.x0, h)
            resid = idn.fokker_planck_residual(chan, t, x_grid, fd_step_t=self.fd_step)
            worst = float(np.max(np.abs(resid)))
            return idn._report("fokker-planck", t, h, worst, 0.0, tol,
                               notes=f"max |residual| over x in [-4,4], {len(x_grid)} pts")
        if suite == "stein":
            worst = max(idn.stein_check(mu, v, r, rp, tol=tol).abs_discrepancy
                        for mu, v in self.stein_cases for r, rp in _STEIN_RS)
            return idn._report("stein", t, h, worst, 0.0, tol,
                               notes="max residual over r in {y, y^2, y^3, sin} "
                                     "and configured (mu, v) cases")
        if suite == "entropy-power":
            return idn.entropy_power_check(ch.additive(self.initial, h), t, tol=tol)
        if suite == "fbm-stats":
            return self._fbm_stats_row(t, h, tol)

    def _fbm_stats_row(self, t, h, tol):
        if h not in self._fbm_cache:
            n, dt, n_paths, seed = self.fbm_stats
            grid = dt * np.arange(1, n + 1)
            exact = fbm.covariance(grid[:, None], grid[None, :], h)
            batch = max(1, _FBM_BATCH_ENTRIES // n)     # paths per batch
            stats = {}
            for i, method in enumerate(("cholesky", "circulant")):
                # Sums of v v^T and of v^2 (v^2)^T over batches of paths, so the
                # memory held does not grow with n_paths.
                vv, sq_sq = np.zeros((n, n)), np.zeros((n, n))
                seeds = np.random.SeedSequence(seed + i).spawn((n_paths + batch - 1) // batch)
                for j, batch_seed in enumerate(seeds):
                    vals, _ = fbm.sample_paths(grid, h, method=method, seed=batch_seed,
                                               n_paths=min(batch, n_paths - j * batch))
                    vv += vals.T @ vals
                    sq = np.square(vals, out=vals)
                    sq_sq += sq.T @ sq
                emp = vv / n_paths
                # Sample variance of each product v_i v_j from second moments of v^2.
                prod_var = (sq_sq / n_paths - emp ** 2) * n_paths / (n_paths - 1)
                stats[method] = (emp, np.sqrt(prod_var / n_paths))
            z_worst = max(
                float(np.max(np.abs(stats[m][0] - exact) / stats[m][1]))
                for m in stats)
            cross = float(np.max(
                np.abs(stats["cholesky"][0] - stats["circulant"][0])
                / np.sqrt(stats["cholesky"][1] ** 2 + stats["circulant"][1] ** 2)))
            self._fbm_cache[h] = (z_worst, cross, n, n_paths)
        z_worst, cross, n, n_paths = self._fbm_cache[h]
        return idn._report(
            "fbm-stats", t, h, max(z_worst, cross), 0.0, tol,
            notes=f"max |z| vs exact cov = {z_worst:.3g}; cross-method max |z| = "
                  f"{cross:.3g}; {n} grid pts, {n_paths} paths per method")


def run_suite(cfg):
    """Execute all (suite, t, H) combinations.

    Returns (exit_code, rows, runner).  A config error raises before any cell
    runs.  A cell that raises FbmInfoflowError becomes a failed row: lhs, rhs and
    abs_discrepancy NaN, extras["error"] and method_notes naming the cell and the
    exception; the exit code is then 3.  Any other exception aborts the run.
    """
    runner = _SuiteRunner(cfg)
    rows = []
    for s in runner.suites:
        for h in runner.h_grid:
            for t in runner.t_grid:
                if t < runner.min_t:
                    runner.excluded.append((s, t, h))
                    continue
                try:
                    rows.append(runner.run_combo(s, t, h))
                except FbmInfoflowError as exc:
                    error = f"{s} t={t:g} H={h:g}: {type(exc).__name__}: {exc}"
                    rows.append(idn._report(s, t, h, math.nan, math.nan, runner.tolerances[s],
                                            notes=f"error: {error}", extras={"error": error}))
    exit_code = (3 if any("error" in r.extras for r in rows)
                 else 0 if all(r.passed for r in rows) else 1)
    return exit_code, rows, runner


def _format_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def render_csv(rows, with_oracle=False):
    """Report CSV: one comment header line with the timestamp, then the body.

    The body is a pure function of the config and seeds, so reruns are
    byte-identical below the first line.
    """
    buf = io.StringIO()
    ts = datetime.datetime.now(datetime.timezone.utc).isoformat()
    buf.write(f"# fbm-infoflow report generated {ts}\n")
    writer = csv.writer(buf, lineterminator="\n")
    cols = CSV_COLUMNS + (MC_COLUMNS if with_oracle else ())
    writer.writerow(cols)
    for r in rows:
        record = r.row()
        vals = [_format_value(record[c]) for c in CSV_COLUMNS]
        if with_oracle:
            if "mc_value" in r.extras:
                vals += [_format_value(r.extras["mc_value"]),
                         _format_value(r.extras["mc_std_error"]),
                         _format_value(r.extras["mc_ok"])]
            else:
                vals += ["", "", ""]
        writer.writerow(vals)
    return buf.getvalue()


def render_json(rows):
    """Report JSON, strict: a non-finite value (an error row's) is written as null."""
    def finite(v):
        return None if isinstance(v, float) and not math.isfinite(v) else v
    return json.dumps({
        "all_passed": all(r.passed for r in rows),
        "rows": [{k: finite(v) for k, v in r.row().items()} for r in rows],
    }, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_reports(rows, runner, output):
    with_oracle = bool(runner.oracle)
    out_dir = os.path.dirname(output)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(output + ".csv", "w") as fh:
        fh.write(render_csv(rows, with_oracle=with_oracle))
    with open(output + ".json", "w") as fh:
        fh.write(render_json(rows))
    profile = sorted((r for r in rows if "classification" in r.extras),
                     key=lambda r: (r.hurst, r.t))
    if profile:
        with open(output + "_entropy_power.csv", "w") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("t", "hurst", "entropy_power", "g", "classification"))
            for r in profile:
                writer.writerow([_format_value(v) for v in (r.t, r.hurst) + tuple(
                    r.extras[k] for k in ("entropy_power", "g", "classification"))])


def _execute(cfg):
    try:
        exit_code, rows, runner = run_suite(cfg)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    output = runner.output
    write_reports(rows, runner, output)
    for r in rows:
        if "error" in r.extras:
            click.echo(f"numerical error: {r.extras['error']}", err=True)
    n_fail = sum(not r.passed for r in rows)
    click.echo(f"{len(rows)} checks, {n_fail} failed "
               f"({len(runner.excluded)} excluded below min_t); reports at {output}.*")
    sys.exit(exit_code)


@click.group()
def main():
    """Verify entropy-flow identities for fBm-driven channels."""


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=False), help="JSON suite config")
def run(config_path):
    """Run every suite in a config file."""
    try:
        with open(config_path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    _execute(cfg)


def _without_none(block):
    """block without its None values and the blocks that leaves empty."""
    pruned = {k: _without_none(v) if isinstance(v, dict) else v
              for k, v in block.items() if v is not None}
    return {k: v for k, v in pruned.items() if v != {}}


@main.command()
@click.argument("suite")
@click.option("--hurst", "-h", "hursts", multiple=True, type=float)
@click.option("--t", "times", multiple=True, type=float)
@click.option("--tol", type=float)
@click.option("--sigma", "sigma_kind")
@click.option("--c", "sigma_c", type=float)
@click.option("--x0", type=float)
@click.option("--y0", type=float)
@click.option("--mean", type=float, help="additive initial mean")
@click.option("--variance", type=float, help="additive initial variance")
@click.option("--fd-step", type=float)
@click.option("--oracle")
@click.option("--samples", type=int)
@click.option("--seed", type=int)
@click.option("--out")
def verify(suite, hursts, times, tol, sigma_kind, sigma_c, x0, y0,
           mean, variance, fd_step, oracle, samples, seed, out):
    """Run a single verification suite from command-line flags.

    A flag left out takes the config key's default; --oracle, --samples and
    --seed each fill the oracle block, and any of them turns the oracle on."""
    cfg = {"suites": [suite], "t_grid": list(times) or None,
           "hurst_grid": list(hursts) or None, "tolerances": {suite: tol},
           "fd_step": fd_step, "output": out, "kl": {"y0": y0},
           "channel": {"sigma": {"kind": sigma_kind, "c": sigma_c}, "x0": x0,
                       "initial": {"mean": mean, "variance": variance}},
           "oracle": {"kind": oracle, "samples": samples, "seed": seed}}
    _execute(_without_none(cfg))


@main.group("fbm")
def fbm_group():
    """Fractional Brownian motion utilities."""


@fbm_group.command("sample")
@click.option("--h", "hurst", required=True, type=float)
@click.option("--n", required=True, type=int)
@click.option("--dt", required=True, type=float)
@click.option("--method", default="circulant",
              type=click.Choice(["circulant", "cholesky"]))
@click.option("--seed", default=0, type=int)
@click.option("--out", "out_path", required=True, type=click.Path())
def fbm_sample(hurst, n, dt, method, seed, out_path):
    """Sample one fBm path on a uniform grid and write it as CSV."""
    grid = dt * np.arange(1, n + 1)
    try:
        values, used_fallback = fbm.sample_paths(grid, hurst, method=method,
                                                 seed=seed, n_paths=1)
    except FbmInfoflowError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    with open(out_path, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("time", "value"))
        for t, v in zip(grid, values[0]):
            writer.writerow([f"{t:.12g}", f"{v:.17g}"])
    if used_fallback:
        click.echo("warning: circulant embedding not nonnegative definite; "
                   "fell back to cholesky", err=True)
    click.echo(f"wrote {n} samples to {out_path}")


if __name__ == "__main__":
    main()
