"""Tests of the benchmark's scenario generator.

    python -m pytest perfbench/test_gen.py
"""
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gen  # noqa: E402
from reachplan.cli import main as reachplan_main  # noqa: E402


def _contents(paths):
    out = {}
    for p in paths:
        with open(p, "rb") as f:
            out[os.path.basename(p)] = f.read()
    return out


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_files(tmp_path, workload):
    a = _contents(gen.write(workload, 7, str(tmp_path / "a")))
    b = _contents(gen.write(workload, 7, str(tmp_path / "b")))
    assert a == b


def test_other_seed_gives_other_batch(tmp_path):
    a = _contents(gen.write("mecanum_batch", 0, str(tmp_path / "a")))
    b = _contents(gen.write("mecanum_batch", 1, str(tmp_path / "b")))
    assert a.keys() == b.keys()
    assert a != b


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_endpoints_are_cell_centres_down_drift(seed):
    for scn in gen.scenarios("mecanum_batch", seed):
        lo, hi, h = (np.array(scn[k]) for k in ("ws_lo", "ws_hi", "h_min"))
        start, target = np.array(scn["x_init"]), np.array(scn["x_target"])
        for x in (start, target):
            assert np.all(x > lo) and np.all(x < hi)
            k = (x - lo) / h - 0.5
            assert np.allclose(k, np.round(k))
        assert np.all(target <= start) and np.any(target < start)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generated_files_pass_validate(tmp_path, workload, capsys):
    for path in gen.write(workload, 3, str(tmp_path)):
        assert reachplan_main(["validate", "--scenario", path]) == 0
        with open(path) as f:
            scn = json.load(f)
        assert scn["name"] == os.path.splitext(os.path.basename(path))[0]
    assert capsys.readouterr().err == ""
