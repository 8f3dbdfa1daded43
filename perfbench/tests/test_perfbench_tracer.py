"""Span arithmetic and wrapper hygiene of the benchmark tracer."""

import inspect
import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from tracer import LAYERS, Tracer, layer_metrics, self_times, wrapper_cost  # noqa: E402


def test_self_times_hand_built_tree():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["mesh.select_active", 1.0, 4.0, 0],
        ["cutquad.build_topology", 5.0, 9.0, 0],
        ["cutquad.intersect_element", 5.5, 6.0, 2],
        ["mesh.ActiveMesh.element_coords", 6.0, 6.25, 2],
        # overlapping and out-of-parent children count once, clipped
        ["operators.a", 11.0, 13.0, -1],
        ["operators.b", 10.5, 12.0, 5],
        ["operators.c", 11.5, 12.5, 5],
    ]
    got = self_times(spans)
    assert got == pytest.approx([3.0, 3.0, 3.25, 0.5, 0.25, 0.5, 1.5, 1.0])
    roots = [i for i, s in enumerate(spans) if s[3] == -1]
    assert sum(got[:5]) == pytest.approx(spans[0][2] - spans[0][1])
    assert len(roots) == 2


def test_layer_metrics_self_sum_and_writes():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["cli.Pipeline", 0.5, 6.0, 0],
        ["mesh.select_active", 1.0, 4.0, 1],
        ["heatsolver.accumulate_errors", 6.0, 9.0, 0],
        ["operators.DiscreteOperators.error_l2_star", 6.5, 7.5, 3],
        ["operators.DiscreteOperators.error_hm1_star", 7.5, 8.0, 3],
        ["cli.write_csv", 9.0, 9.5, 0],
        ["cli.fmt", 9.1, 9.2, 6],
    ]
    counts = {"mesh.active": 6.0, "mesh.tested": 600.0, "mesh.n_dofs": 9.0}
    m = layer_metrics(spans, counts)
    assert m["mesh.select_active_s"] == pytest.approx(3.0)
    assert m["heatsolver.accumulate_errors_self_s"] == pytest.approx(1.5)
    assert m["operators.error_functional_s"] == pytest.approx(1.5)
    assert m["operators.error_functional_calls"] == 2
    assert m["mesh.active_ratio"] == pytest.approx(0.01)
    assert m["cli.write_s"] == pytest.approx(0.5)
    assert m["cli.self_s"] == pytest.approx(10.0 - 3.0 - 3.0 - 0.5 + 0.0)
    layer_sum = sum(m[l + ".self_s"] for l in LAYERS) + m["cli.write_s"]
    assert layer_sum == pytest.approx(10.0)


def _snapshot():
    import tracefem.cli  # noqa: F401  (imports every layer module)
    import scipy.linalg as sla
    owners = [m for n, m in sys.modules.items()
              if n == "tracefem" or n.startswith("tracefem.")]
    owners += [c for m in list(owners) for c in vars(m).values()
               if inspect.isclass(c)
               and getattr(c, "__module__", "").startswith("tracefem")]
    owners += [d for m in list(owners) for d in vars(m).values()
               if type(d) is dict]
    snap = {(id(o), k): v for o in owners for k, v in _entries(o)}
    snap[("sla", "eigh")] = sla.eigh
    snap[("sla", "eigvalsh")] = sla.eigvalsh
    return owners, snap


def _entries(owner):
    return list((owner if type(owner) is dict else vars(owner)).items())


def _same(owners, snap):
    import scipy.linalg as sla
    now = {(id(o), k): v for o in owners for k, v in _entries(o)}
    now[("sla", "eigh")] = sla.eigh
    now[("sla", "eigvalsh")] = sla.eigvalsh
    return now.keys() == snap.keys() and all(now[k] is snap[k] for k in snap)


def _config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"n_cells": [12, 24], "k_max": 128,
                                "center": [0.01, -0.02]}))
    return str(path)


def test_wrappers_are_restored_and_outputs_unchanged(tmp_path):
    from tracefem import cli, mesh
    owners, snap = _snapshot()
    original = mesh.select_active
    cfg = _config(tmp_path)
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    assert cli.main(["quadcheck", "--config", cfg, "--out", str(plain)]) == 0

    tr = Tracer()
    tr.install()
    try:
        assert cli.select_active is not original
        assert mesh.select_active is not original
        assert cli._COMMANDS["quadcheck"] is not cli.cmd_quadcheck.__wrapped__
        assert cli.main(["quadcheck", "--config", cfg, "--out", str(traced)]) == 0
    finally:
        tr.restore()

    assert _same(owners, snap)
    assert cli.select_active is original
    names = [s[0] for s in tr.spans]
    assert names[0] == "cli.main"
    assert names.count("mesh.select_active") == 2
    assert names.count("cli.cmd_quadcheck") == 1     # via cli._COMMANDS
    assert names.count("cutquad.build_topology") == 4
    assert all(0 <= s[3] < i for i, s in enumerate(tr.spans) if i)
    assert tr.counts["mesh.n_dofs"] > 0
    for f in os.listdir(plain):
        assert (plain / f).read_bytes() == (traced / f).read_bytes()


def test_double_install_refused_and_restore_complete():
    owners, snap = _snapshot()
    tr = Tracer()
    tr.install()
    with pytest.raises(RuntimeError):
        tr.install()
    tr.restore()
    assert _same(owners, snap)


def test_wrapper_cost_is_small_and_positive():
    cost = wrapper_cost(calls=2000, trials=3)
    assert 0.0 <= cost < 1e-3


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    traced = set(layer_metrics([["cli.main", 0.0, 1.0, -1]], {}))
    traced |= {"trace.in_process_s", "trace.untraced_in_process_s",
               "trace.self_sum_s", "trace.wrapper_cost_s", "trace.overhead_s"}
    assert traced == per_layer


def test_speed_probe_counts_and_stops():
    import time
    from probe import Probe
    p = Probe()
    try:
        time.sleep(0.3)
        assert p.blocks() > 0
    finally:
        p.close()
    assert not p._proc.is_alive()
