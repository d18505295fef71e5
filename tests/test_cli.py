"""CLI subcommands: exit codes, validation messages, output files."""
import csv
import dataclasses
import json

import numpy as np
import pytest

from graph_reference import full_snapshot
from reachplan import cli
from reachplan.cli import _write_outputs, main
from reachplan.graph import ReachGraph, replay
from reachplan.planner import run_mission
from reachplan.scenario import Scenario, builtin_scenario


def test_validate_good_and_bad(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(builtin_scenario("mecanum").to_dict()))
    assert main(["validate", "--scenario", str(good)]) == 0
    assert "valid" in capsys.readouterr().out

    bad = builtin_scenario("mecanum").to_dict()
    del bad["C_u"]
    badf = tmp_path / "bad.json"
    badf.write_text(json.dumps(bad))
    assert main(["validate", "--scenario", str(badf)]) == 1
    assert "C_u" in capsys.readouterr().err

    notjson = tmp_path / "nope.json"
    notjson.write_text("{ not json")
    assert main(["validate", "--scenario", str(notjson)]) == 1


def test_validate_dict_field_errors(tmp_path, capsys):
    base = builtin_scenario("mecanum").to_dict()
    assert Scenario.from_dict(base).to_dict() == base
    for field, changes in [("system", {"system": "quadrotor"}),
                           ("x_target", {"x_target": [99.0, 0.0]}),
                           ("h_min", {"h_min": [0.0, 1.0]}),
                           ("ws_hi", {"ws_hi": [-9.0, 8.0]})]:
        _assert_rejected(tmp_path, capsys, field, changes)
    path = tmp_path / "list.json"
    path.write_text(json.dumps([1, 2]))
    for cmd in ("validate", "run"):
        assert main([cmd, "--scenario", str(path)]) == 1
        assert "not a JSON object" in capsys.readouterr().err


def test_partition_demo_writes_snapshot(tmp_path, capsys):
    out = tmp_path / "pd"
    assert main(["partition-demo", "--scenario", "mecanum",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "uniform: 256" in text
    snap = json.loads((out / "partition.json").read_text())
    assert 0 < len(snap) < 256
    assert all({"id", "lo", "hi", "depth"} <= set(cell) for cell in snap)


def test_certify_exit_codes(tmp_path, capsys):
    feasible = {
        "A": [[0.0, 0.0], [0.0, 0.0]], "B": [[1.0, 0.0], [0.0, 1.0]],
        "c": [0.0, 0.0], "cell_lo": [0.0, 0.0], "cell_hi": [1.0, 1.0],
        "pu_lo": [-1.0, -1.0], "pu_hi": [1.0, 1.0], "exit_facet": 1,
    }
    f1 = tmp_path / "feasible.json"
    f1.write_text(json.dumps(feasible))
    assert main(["certify", "--model", str(f1)]) == 0
    assert "reachable" in capsys.readouterr().out

    blocked = dict(feasible)
    blocked["c"] = [-9.0, 0.0]          # drift overwhelms the input box
    f2 = tmp_path / "blocked.json"
    f2.write_text(json.dumps(blocked))
    assert main(["certify", "--model", str(f2)]) == 2
    assert "infeasible" in capsys.readouterr().out

    f3 = tmp_path / "broken.json"
    f3.write_text(json.dumps({"A": [[0.0]]}))
    assert main(["certify", "--model", str(f3)]) == 1

    # unusable files exit 1 with a message naming the field, never with a
    # traceback (NaN is written as a JSON NaN)
    unusable = [
        ("exit_facet", {"exit_facet": 99}),
        ("exit_facet", {"exit_facet": -1}),
        ("exit_facet", {"exit_facet": 1.5}),
        ("exit_facet", {"exit_facet": True}),
        ("B", {"B": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}),   # 3 inputs, 2-d pu
        ("cell_lo", {"cell_lo": [0.0, 0.0, 0.0], "cell_hi": [1.0, 1.0, 1.0]}),
        ("c", {"c": [float("nan"), 0.0]}),
        ("A", {"A": "identity"}),
        ("cell_hi", {"cell_hi": [1.0, 0.0]}),
        ("pu_hi", {"pu_hi": [-1.0, 1.0]}),
        ("linearization_point", {"linearization_point": [0.0]}),
        # the certificate kernel takes at most 3 inputs
        ("pu_lo", {"B": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]],
                   "pu_lo": [-1.0] * 4, "pu_hi": [1.0] * 4}),
        # huge finite values would overflow the kernel's products
        ("pu_lo", {"pu_lo": [-1e308, -1.0], "pu_hi": [1e308, 1.0]}),
        ("A", {"A": [[1e308, 0.0], [0.0, 1e308]]}),
    ]
    f4 = tmp_path / "unusable.json"
    for field, changes in unusable:
        f4.write_text(json.dumps(dict(feasible, **changes)))
        assert main(["certify", "--model", str(f4)]) == 1, field
        assert f"error: model.{field}:" in capsys.readouterr().err
    f4.write_text(json.dumps([feasible]))
    assert main(["certify", "--model", str(f4)]) == 1
    assert "error: model: not a JSON object" in capsys.readouterr().err


def test_run_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["run", "--scenario", "mecanum", "--out", str(out), "--quiet"])
    assert rc == 0
    with open(out / "trajectory.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["t", "x1", "x2", "u1", "u2", "cell_id"]
    assert len(rows) > 100
    xs = np.array([[float(r[1]), float(r[2])] for r in rows[1:]])
    assert np.all(xs >= -8.0 - 1e-6) and np.all(xs <= 8.0 + 1e-6)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["success"] is True
    assert summary["leaf_count"] <= 0.5 * summary["uniform_count"]
    assert (out / "partition.json").exists()
    assert (out / "graph_step_0.json").exists()


def test_graph_snapshots_are_compact_and_round_trip(tmp_path, monkeypatch):
    """Each graph_step_<k>.json is one line and parses to snapshot k, and on
    both built-in missions replaying the files gives, at every plan, the
    whole graph as a snapshot of every edge lists it."""
    whole = []
    delta = ReachGraph.snapshot

    def snapshot(g):
        whole.append(full_snapshot(g))
        return delta(g)

    monkeypatch.setattr(ReachGraph, "snapshot", snapshot)
    for name in ("mecanum", "unicycle"):
        whole.clear()
        scn = builtin_scenario(name)
        log = run_mission(scn)
        out = tmp_path / name
        _write_outputs(str(out), scn, log)
        assert len(list(out.glob("graph_step_*.json"))) == len(log.snapshots) > 0
        steps = []
        for k, snap in enumerate(log.snapshots):
            text = (out / f"graph_step_{k}.json").read_text()
            assert "\n" not in text
            steps.append(json.loads(text))
            assert steps[-1] == snap
        assert len(steps[-1]["edges"]) < len(whole[-1]["edges"])
        replayed = list(replay(steps))
        assert len(replayed) == len(whole)
        for full, ref in zip(replayed, whole):
            assert {k: full[k] for k in ref} == ref


def test_run_twice_into_one_directory_leaves_only_the_last_graph_steps(tmp_path):
    """The built-in mecanum mission and then the shorter unicycle bench
    mission, written to one directory: only the second mission's graph
    steps are left, and they replay to its tallies."""
    assert main(["run", "--scenario", "mecanum", "--out", str(tmp_path), "--quiet"]) == 0
    first = len(list(tmp_path.glob("graph_step_*.json")))
    scn = builtin_scenario("unicycle").to_dict()
    scn["x_target"] = [-1.875, 0.625, -np.pi / 8]
    path = tmp_path / "unicycle.json"
    path.write_text(json.dumps(scn))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path), "--quiet"]) == 0
    tallies = json.loads((tmp_path / "summary.json").read_text())["edge_status_tallies"]
    files = sorted(tmp_path.glob("graph_step_*.json"))
    assert first > len(files) == len(tallies)
    steps = [json.loads((tmp_path / f"graph_step_{k}.json").read_text())
             for k in range(len(files))]
    for full, tally in zip(replay(steps), tallies):
        statuses = [e["status"] for e in full["edges"]]
        assert {s: statuses.count(s) for s in tally} == tally


def test_run_bad_scenario_usage_error(capsys):
    assert main(["run", "--scenario", "no-such-scenario"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    [],
    ["run"],                                            # --scenario missing
    ["run", "--scenario", "mecanum", "--dt", "abc"],
    ["run", "--scenario", "mecanum", "--seed", "0"],    # no such option
])
def test_argument_errors_exit_1(argv, capsys):
    """Exit code 2 is left to mission failures."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error" in capsys.readouterr().err


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    """main builds its parser once per process. A call's flags do not
    carry over: a run without them parses to the defaults, and a usage
    error after good calls still exits 1."""
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    seen = []
    parse_args = parser.parse_args

    def recorded(argv):
        seen.append(parse_args(argv))
        return seen[-1]

    monkeypatch.setattr(parser, "parse_args", recorded)
    out = tmp_path / "run"
    main(["run", "--scenario", "mecanum", "--quiet", "--dt", "0.002", "--out", str(out)])
    assert (out / "trajectory.csv").exists() and capsys.readouterr().out == ""
    main(["run", "--scenario", "mecanum"])
    assert "status:" in capsys.readouterr().out
    assert [(a.quiet, a.dt, a.out) for a in seen] == [(True, 0.002, str(out)),
                                                      (False, None, None)]
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", "mecanum", "--dt", "abc"])
    assert exc.value.code == 1
    assert "error" in capsys.readouterr().err


def _assert_rejected(tmp_path, capsys, field, changes):
    """validate and run both exit 1 with a message naming the field, and
    parsing the same dict raises it."""
    data = builtin_scenario("mecanum").to_dict()
    data.update(changes)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))       # NaN is written as a JSON NaN
    assert main(["validate", "--scenario", str(path)]) == 1
    assert f"scenario.{field}" in capsys.readouterr().err
    assert main(["run", "--scenario", str(path), "--quiet"]) == 1
    assert f"scenario.{field}" in capsys.readouterr().err
    with pytest.raises(ValueError, match=f"scenario.{field}"):
        Scenario.from_dict(data)


def test_dt_beyond_the_step_budget_rejected(tmp_path, capsys):
    """At dt 1e-9 one rollout would take about t_max / dt = 1e9 RK4 steps.
    validate is asked first, so a missing bound fails the test instead of
    starting a mission in run; a zero terminal budget still bounds one
    simulated second. The smallest dt and the longest terminal budget of
    the field sweep pass."""
    for changes in ({"dt": 1e-9}, {"dt": 1e-9, "terminal_budget": 0.0},
                    {"dt": 1e-7}):
        _assert_rejected(tmp_path, capsys, "dt", changes)
    for plant in ("mecanum", "unicycle"):
        base = builtin_scenario(plant).to_dict()
        for changes in ({"dt": 1e-4}, {"terminal_budget": 1000.0}):
            Scenario.from_dict(dict(base, **changes))


@pytest.mark.parametrize("field, changes", [
    ("record_stride", {"record_stride": 0}),    # division by zero in integrate
    ("max_iters", {"max_iters": 2.5}),          # a float given to range()
    ("system", {"system": ["mecanum"]}),        # an unhashable system name
    ("shrink", {"shrink": 0}),                  # no truncated pyramid for the
    ("shrink", {"shrink": 3}),                  # relaxed (unicycle) certificates
    ("terminal_slack_weight", {"terminal_slack_weight": 0}),  # singular QP
])
def test_input_that_crashed_a_mission_rejected(tmp_path, capsys, field, changes):
    _assert_rejected(tmp_path, capsys, field, changes)


def test_h_min_not_power_of_two_rejected(tmp_path, capsys):
    _assert_rejected(tmp_path, capsys, "h_min", {"h_min": [3.0, 3.0]})


def test_inverted_input_box_rejected(tmp_path, capsys):
    _assert_rejected(tmp_path, capsys, "pu_hi",
                     {"pu_lo": [5.0, 5.0], "pu_hi": [-5.0, -5.0]})


def test_non_finite_x_init_rejected(tmp_path, capsys):
    _assert_rejected(tmp_path, capsys, "x_init",
                     {"x_init": [float("nan"), 6.5]})


def test_run_leaving_the_workspace_is_a_mission_failure(tmp_path):
    """With a 1 s step an ingress rollout overshoots the workspace edge."""
    data = builtin_scenario("mecanum").to_dict()
    data["dt"] = 1.0
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out"),
                 "--quiet"]) == 2
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["status"] == "failure:workspace_exit"


def test_run_with_an_infeasible_terminal_qp_is_a_mission_failure(tmp_path, capsys):
    """With |u| <= 4.4 against a drift of about 4.5 per axis, the mecanum
    plant cannot hold its target. The drift carries the state to the
    cell's low x facet, where the terminal QP finds no input that meets
    the barrier rows. The mission ends with that status, not with a
    traceback."""
    data = builtin_scenario("mecanum").to_dict()
    data.update(pu_lo=[-4.4, -4.4], pu_hi=[4.4, 4.4], x_init=[-0.5, -0.5],
                x_target=[-0.5, -0.5], r_stop=0.01)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--scenario", str(path)]) == 0
    capsys.readouterr()
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert "status: failure:terminal_infeasible" in out
    assert "Traceback" not in out + err
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["status"] == "failure:terminal_infeasible"
    assert [e["type"] for e in summary["events"]][-2:] == ["terminal_infeasible", "mission_end"]


def test_run_h_min_override_rejected(capsys):
    assert main(["run", "--scenario", "mecanum", "--h-min", "3", "--quiet"]) == 1
    assert "scenario.h_min" in capsys.readouterr().err


@pytest.mark.parametrize("plant", ["mecanum", "unicycle"])
def test_every_numeric_field_runs_or_is_rejected(plant, tmp_path, capsys):
    """Each numeric scenario field, set to 0, a tiny value, 1 and 1000 (on
    every entry of a vector field) with max_iters 1: run exits 0, 1 (naming
    a field) or 2 and never raises (4-7 s per plant on a 2-vCPU VM).

    The tiny dt is 1e-4, not 1e-9: the parser rejects a dt at which the
    terminal budget (at least one simulated second) takes more than
    MAX_ROLLOUT_STEPS RK4 steps, which test_dt_beyond_the_step_budget_rejected
    checks without starting a mission; 1e-4 passes that bound and still
    runs in seconds. max_iters 1000 is the whole mission, which the
    acceptance tests run."""
    path = tmp_path / "scenario.json"
    base = builtin_scenario(plant).to_dict()
    for f in dataclasses.fields(Scenario):
        if f.type not in ("float", "int", "np.ndarray"):
            continue
        for v in (0, 1e-4 if f.name == "dt" else 1e-9, 1, 1000):
            if f.name == "max_iters" and v == 1000:
                continue
            data = dict(base, max_iters=1)
            data[f.name] = [v] * len(base[f.name]) if f.type == "np.ndarray" else v
            path.write_text(json.dumps(data))
            try:
                code = main(["run", "--scenario", str(path), "--quiet"])
            except Exception as e:
                pytest.fail(f"{f.name} = {v} raised {e!r}")
            assert code in (0, 1, 2), (f.name, v, code)
            if code == 1:
                assert "scenario." in capsys.readouterr().err, (f.name, v)
