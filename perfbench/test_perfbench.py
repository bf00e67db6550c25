"""Tests of the benchmark's own code: span arithmetic, wrapper removal, the
traced child and the output check.  Run from the repository root with the
package on the path:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import child
import run
import tracer
from tracer import LAYERS, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent


def _spans(rows, names):
    """rows: (function name, start, end, parent index)."""
    return {
        "fn": np.array([names.index(r[0]) for r in rows], dtype=np.int32),
        "start_ns": np.array([r[1] for r in rows], dtype=np.int64),
        "end_ns": np.array([r[2] for r in rows], dtype=np.int64),
        "parent": np.array([r[3] for r in rows], dtype=np.int32),
        "names": np.array(names),
        "fn_layer": np.array([LAYERS.index(n.split(".")[0]) for n in names],
                             dtype=np.int32),
    }


def test_self_and_busy_time_on_synthetic_span_tree():
    names = ["cli.run_suite", "infofunc.entropy", "infofunc.quad", "channels.pdf"]
    rows = [
        ("cli.run_suite", 0, 100, -1),
        ("infofunc.entropy", 10, 60, 0),
        ("infofunc.quad", 12, 58, 1),      # same layer, nested in entropy
        ("channels.pdf", 20, 30, 2),
        ("channels.pdf", 40, 45, 2),
        ("infofunc.entropy", 70, 90, 0),
    ]
    s = _spans(rows, names)
    own = tracer.self_ns(s["parent"], s["start_ns"], s["end_ns"])
    assert own.tolist() == [30, 4, 31, 10, 5, 20]
    assert own.sum() == 100                # self times tile the root span
    assert tracer.busy_ns(s["start_ns"][1:3], s["end_ns"][1:3]) == 50

    m = layer_metrics(s, {}, [0] * len(LAYERS))
    ns = 1e-9
    assert m["cli.busy_s"] == pytest.approx(100 * ns)
    assert m["cli.self_s"] == pytest.approx(30 * ns)
    assert m["infofunc.busy_s"] == pytest.approx(70 * ns)   # union, not 50 + 46 + 20
    assert m["infofunc.self_s"] == pytest.approx(55 * ns)
    assert m["infofunc.calls"] == 3
    assert m["channels.pdf.calls"] == 2
    assert m["channels.pdf.busy_s"] == pytest.approx(15 * ns)
    assert m["channels.pdf.self_s"] == pytest.approx(15 * ns)
    assert m["doss.invert_phi.calls"] == 0
    assert m["doss.invert_phi.points_per_call"] == 0.0


def _attributes():
    import fbm_infoflow
    from fbm_infoflow import cli
    snap = {layer: dict(vars(getattr(fbm_infoflow, layer))) for layer in LAYERS}
    snap["_SuiteRunner"] = dict(vars(cli._SuiteRunner))
    return snap


def _assert_identical(before, after):
    for owner, attrs in before.items():
        assert attrs.keys() == after[owner].keys(), owner
        changed = [k for k in attrs if attrs[k] is not after[owner][k]]
        assert not changed, (owner, changed)


def test_uninstall_restores_every_wrapped_attribute():
    from fbm_infoflow import cli, doss, infofunc
    before = _attributes()
    t = Tracer()
    t.install()
    try:
        assert doss.invert_phi is not before["doss"]["invert_phi"]
        assert infofunc.integrate is not before["infofunc"]["integrate"]
        assert cli._SuiteRunner.run_combo is not before["_SuiteRunner"]["run_combo"]
    finally:
        t.uninstall()
    _assert_identical(before, _attributes())


def _config(tmp_path, suites, sigma, oracle_samples=2000):
    cfg = {
        "suites": suites,
        "channel": {"variant": "multiplicative", "sigma": sigma, "x0": 0.0},
        "t_grid": [1.0],
        "hurst_grid": [0.75],
        "oracle": {"kind": "mc", "samples": oracle_samples, "seed": 3},
        "output": str(tmp_path / "report"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return cfg, path


def test_traced_child_reports_every_per_layer_metric(tmp_path):
    cfg, path = _config(tmp_path, ["debruijn-mult", "stein"], {"kind": "sqrt1p"})
    before = _attributes()
    result = child.run(path, "trace", tmp_path / "spans.npz")
    _assert_identical(before, _attributes())
    assert result["exit_code"] == 0 and result["error"] is None
    assert result["built"] < result["written"]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from_parent = {"cli.report_bytes", "trace.overhead_frac"}  # added by run.py
    wanted = {m["name"] for m in spec["per_layer"]} - from_parent
    layers = result["layers"]
    assert wanted <= layers.keys()
    assert layers["cli.cells"] == 2
    assert layers["montecarlo.samples"] == 2000
    assert layers["doss.invert_phi.points"] > layers["doss.invert_phi.calls"] > 0
    assert layers["infofunc.quad.neval"] > 0
    assert layers["doss.solve_phi.calls"] >= 1
    assert 0.0 < layers["doss.flow_cache_hit_ratio"] < 1.0
    assert all(layers[f"{layer}.errors"] == 0 for layer in LAYERS)
    assert all(math.isfinite(v) for v in layers.values())

    spans = np.load(tmp_path / "spans.npz")
    assert spans["start_ns"].size == result["spans"]
    assert set(spans["cell"].tolist()) >= {-1, 0, 1}


def test_check_flags_perturbed_rhs(tmp_path):
    cfg, path = _config(tmp_path, ["debruijn-mult", "stein"], {"kind": "constant", "c": 1.0})
    result = child.run(path, "run")
    cells = run.expected_cells(cfg)
    report = tmp_path / "report.csv"
    rows = run.read_rows(report.read_text())
    reference = {c: float(rows[c]["rhs"]) for c in cells}
    assert run.evaluate(result, report, cells, reference) == {}

    cell = "debruijn-mult|1|0.75"
    row = rows[cell]
    perturbed = report.read_text().replace(
        f"{cell.replace('|', ',')},{row['lhs']},{row['rhs']},",
        f"{cell.replace('|', ',')},{row['lhs']},{float(row['rhs']) + 1e-3},")
    report.write_text(perturbed)
    failed = run.evaluate(result, report, cells, reference)
    assert list(failed) == [cell] and "reference" in failed[cell]

    rows[cell]["mc_ok"] = "false"
    assert "oracle missed" in run.check_rows(rows, cells, None)[cell]


def test_check_flags_injected_exception(tmp_path, monkeypatch):
    from fbm_infoflow import identities

    def boom(*args, **kwargs):
        raise FloatingPointError("injected")
    monkeypatch.setattr(identities, "stein_check", boom)
    cfg, path = _config(tmp_path, ["debruijn-mult", "stein"], {"kind": "constant", "c": 1.0})
    result = child.run(path, "run")
    assert "FloatingPointError: injected" in result["error"]
    cells = run.expected_cells(cfg)
    failed = run.evaluate(result, tmp_path / "report.csv", cells, {})
    assert sorted(failed) == sorted(cells)
    assert all("injected" in why for why in failed.values())
