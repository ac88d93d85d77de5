import json

import numpy as np
import pytest

from spherelink.cli import main


GREAT_CIRCLES = {
    "ambient_n": 3,
    "K": {"kind": "great_subsphere", "k": 1, "axes": [0, 1]},
    "L": {"kind": "great_subsphere", "k": 1, "axes": [2, 3]},
    "method": "main",
}


def write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLink:
    def test_great_circles_accepted(self, tmp_path, capsys):
        path = write_spec(tmp_path, GREAT_CIRCLES)
        code, out, _ = run(capsys, ["link", path, "--stable"])
        assert code == 0
        report = json.loads(out)
        assert report["report"]["nearest_integer"] == 1
        assert report["report"]["linking_number"] == 1
        assert report["report"]["accepted"] is True
        assert report["kernel_mode"] == "closed_form"
        assert report["version"]

    def test_join_reduced_linking_number(self, tmp_path, capsys):
        spec = dict(GREAT_CIRCLES, method="join-reduced")
        path = write_spec(tmp_path, spec)
        code, out, _ = run(capsys, ["link", path, "--stable"])
        assert code == 0
        report = json.loads(out)
        # raw value is the join-map degree; its negative rounds to Lk
        assert report["report"]["raw_value"] == pytest.approx(-1.0, abs=1e-8)
        assert report["report"]["linking_number"] == 1

    def test_dimension_mismatch_exit_1(self, tmp_path, capsys):
        spec = dict(GREAT_CIRCLES, ambient_n=4)
        spec = dict(spec, L={"kind": "great_subsphere", "k": 1, "axes": [2, 3]})
        path = write_spec(tmp_path, spec)
        code, out, err = run(capsys, ["link", path])
        assert code == 1
        assert "n - 1" in err

    def test_malformed_json_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"ambient_n": 3,,}')
        code, _, err = run(capsys, ["link", str(path)])
        assert code == 1
        assert "line" in err and "column" in err

    def test_disjointness_exit_1(self, tmp_path, capsys):
        spec = dict(GREAT_CIRCLES,
                    L={"kind": "great_subsphere", "k": 1, "axes": [1, 2]})
        path = write_spec(tmp_path, spec)
        code, _, err = run(capsys, ["link", path])
        assert code == 1
        assert "disjoint" in err

    def test_nonconverged_exit_2(self, tmp_path, capsys):
        spec = dict(
            GREAT_CIRCLES,
            L={"kind": "rotated",
               "base": {"kind": "great_subsphere", "k": 1, "axes": [2, 3]},
               "givens": [{"plane": [0, 2], "angle": np.pi / 2 - 0.05}]},
            grid={"k": 8, "l": 8},
            tol=1e-12,
            max_level=0,
        )
        path = write_spec(tmp_path, spec)
        code, out, _ = run(capsys, ["link", path, "--stable"])
        assert code == 2
        assert json.loads(out)["report"]["converged"] is False

    def test_round_trip_spec_echo(self, tmp_path, capsys):
        spec = dict(GREAT_CIRCLES, tol=1e-8, grid={"k": 16, "l": 16})
        path = write_spec(tmp_path, spec)
        _, out, _ = run(capsys, ["link", path, "--stable"])
        assert json.loads(out)["spec"] == spec

    def test_grid_override_flag(self, tmp_path, capsys):
        path = write_spec(tmp_path, GREAT_CIRCLES)
        code, out, _ = run(capsys, ["link", path, "--stable", "--grid", "k=16,l=16"])
        assert code == 0
        assert json.loads(out)["spec"]["grid"] == {"k": 16, "l": 16}

    def test_byte_identical_repeat_and_workers(self, tmp_path, capsys, monkeypatch):
        spec = {
            "ambient_n": 3,
            "K": {"kind": "clifford_torus_curve", "p": 2, "q": 3},
            "L": {"kind": "clifford_torus_curve", "p": 2, "q": 3, "phase": 0.7853981633974483},
            "method": "main",
        }
        path = write_spec(tmp_path, spec)
        outputs = []
        for workers in ("1", "8", "1"):
            monkeypatch.setenv("SPHERELINK_WORKERS", workers)
            _, out, _ = run(capsys, ["link", path, "--stable"])
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_workers_env_exit_1(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("SPHERELINK_WORKERS", value)
        code, _, err = run(capsys, ["link", write_spec(tmp_path, GREAT_CIRCLES)])
        assert code == 1
        assert "SPHERELINK_WORKERS" in err

    def test_method_validation(self, tmp_path, capsys):
        path = write_spec(tmp_path, dict(GREAT_CIRCLES, method="magic"))
        code, _, err = run(capsys, ["link", path])
        assert code == 1
        assert "method" in err

    @pytest.mark.parametrize("method", ["main", "join-full"])
    def test_negative_tol_exit_1(self, tmp_path, capsys, method):
        spec = dict(GREAT_CIRCLES, method=method, tol=-1, grid={"curve": 8, "u": 4})
        code, out, err = run(capsys, ["link", write_spec(tmp_path, spec)])
        assert code == 1
        assert out == ""
        assert "tolerance" in err

    @pytest.mark.parametrize("change, field", [
        ([1, 2], "object"),
        ({"tol": None}, "tol"),
        ({"max_level": [2]}, "max_level"),
        ({"grid": {"k": None}}, "grid.k"),
        ({"K": {"kind": "great_subsphere", "k": 1, "axes": 5}}, "axes"),
        ({"thresholds": [1]}, "thresholds"),
        ({"thresholds": {"residual_cap": None}}, "thresholds.residual_cap"),
        ({"L": {"kind": "hopf_fiber", "base": {}}}, "base"),
        ({"L": {"kind": "rotated", "givens": 5,
                "base": {"kind": "great_subsphere", "k": 1, "axes": [2, 3]}}}, "givens"),
    ])
    def test_malformed_field_exit_1(self, tmp_path, capsys, change, field):
        spec = dict(GREAT_CIRCLES, **change) if isinstance(change, dict) else change
        code, out, err = run(capsys, ["link", write_spec(tmp_path, spec)])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and field in err

    def test_threshold_overrides(self, tmp_path, capsys):
        # an absurdly tight residual cap turns an accepted run into exit 2
        spec = {
            "ambient_n": 3,
            "K": {"kind": "clifford_torus_curve", "p": 2, "q": 3},
            "L": {"kind": "clifford_torus_curve", "p": 2, "q": 3,
                  "phase": 0.7853981633974483},
            "method": "main",
            "thresholds": {"residual_cap": 1e-18, "error_floor": 0.0},
        }
        path = write_spec(tmp_path, spec)
        code, out, _ = run(capsys, ["link", path, "--stable"])
        report = json.loads(out)
        assert report["report"]["residual"] > 0.0
        assert code == 2
        assert report["report"]["accepted"] is False


class TestPhi:
    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, [
            "phi", "--k", "1", "--l", "1",
            "--alpha-min", str(np.pi / 4), "--alpha-max", str(3 * np.pi / 4),
            "--num", "3"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,phi,kernel_ratio,convolution"
        mid = lines[2].split(",")
        assert float(mid[0]) == pytest.approx(np.pi / 2)
        assert float(mid[1]) == pytest.approx(0.5, abs=1e-15)
        assert float(mid[2]) == pytest.approx(0.5, abs=1e-15)
        assert float(mid[3]) == pytest.approx(0.0, abs=1e-15)

    def test_phi_zero_at_pi(self, capsys):
        code, out, _ = run(capsys, [
            "phi", "--k", "2", "--l", "2",
            "--alpha-min", "1.0", "--alpha-max", str(np.pi), "--num", "2"])
        last = out.strip().splitlines()[-1].split(",")
        assert float(last[1]) == pytest.approx(0.0, abs=1e-14)

    def test_convolution_column_closed_form(self, capsys):
        _, out, _ = run(capsys, [
            "phi", "--k", "1", "--l", "1", "--num", "9"])
        for line in out.strip().splitlines()[1:]:
            a, _, _, conv = (float(v) for v in line.split(","))
            assert conv == pytest.approx(-np.pi / 2 * np.cos(a), abs=1e-13)

    def test_seventeen_digit_format(self, capsys):
        _, out, _ = run(capsys, ["phi", "--k", "1", "--l", "1", "--num", "2"])
        row = out.strip().splitlines()[1].split(",")
        # must round-trip exactly
        assert float(row[1]) == float(format(float(row[1]), ".17g"))

    def test_negative_order_rejected(self, capsys):
        code, _, err = run(capsys, ["phi", "--k", "-1", "--l", "1"])
        assert code == 1


class TestConvergence:
    def test_hopf_four_levels(self, tmp_path, capsys):
        b = np.array([0.3, -0.2, 0.8, 0.4])
        b /= np.linalg.norm(b)
        spec = {
            "ambient_n": 3,
            "K": {"kind": "hopf_fiber", "base": [1, 0, 0, 0]},
            "L": {"kind": "hopf_fiber", "base": b.tolist()},
            "method": "main",
            "grid": {"k": 16, "l": 16},
        }
        path = write_spec(tmp_path, spec)
        code, out, _ = run(capsys, ["convergence", path, "--levels", "4"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "level,nodes,value,error_estimate,converged"
        assert len(lines) == 5
        final = lines[-1].split(",")
        assert float(final[3]) < 1e-8
        assert final[4] == "true"

    def test_single_level(self, tmp_path, capsys):
        path = write_spec(tmp_path, GREAT_CIRCLES)
        code, out, _ = run(capsys, ["convergence", path, "--levels", "1"])
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def _rows(self, tmp_path, capsys, spec):
        path = write_spec(tmp_path, spec)
        code, out, _ = run(capsys, ["convergence", path, "--levels", "2"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "level,nodes,value,error_estimate,converged"
        return [line.split(",") for line in lines[1:]]

    def test_oracle_rows(self, tmp_path, capsys):
        spec = dict(GREAT_CIRCLES, method="oracle", grid={"k": 16})
        rows = self._rows(tmp_path, capsys, spec)
        assert [int(r[1]) for r in rows] == [32 * 32, 64 * 64]
        assert all(float(r[2]) == pytest.approx(1.0, abs=1e-12) for r in rows)

    def test_join_full_rows(self, tmp_path, capsys):
        spec = dict(GREAT_CIRCLES, method="join-full", grid={"curve": 8, "u": 4})
        rows = self._rows(tmp_path, capsys, spec)
        assert [int(r[1]) for r in rows] == [16 * 16 * 8, 32 * 32 * 16]
        assert all(float(r[2]) == pytest.approx(-1.0, abs=1e-12) for r in rows)

    def test_levels_below_one_rejected(self, tmp_path, capsys):
        path = write_spec(tmp_path, GREAT_CIRCLES)
        code, out, err = run(capsys, ["convergence", path, "--levels", "0"])
        assert code == 1
        assert out == ""
        assert "--levels" in err

    def test_intersecting_pair_rejected(self, tmp_path, capsys):
        spec = dict(GREAT_CIRCLES,
                    L={"kind": "great_subsphere", "k": 1, "axes": [1, 2]})
        path = write_spec(tmp_path, spec)
        code, out, err = run(capsys, ["convergence", path, "--levels", "1"])
        assert code == 1
        assert out == ""
        assert "disjoint" in err

    def test_close_approach_flags_false_until_resolved(self, tmp_path, capsys):
        # near-miss circles: early levels cannot resolve the peaked kernel
        spec = dict(
            GREAT_CIRCLES,
            L={"kind": "rotated",
               "base": {"kind": "great_subsphere", "k": 1, "axes": [2, 3]},
               "givens": [{"plane": [0, 2], "angle": np.pi / 2 - 0.05}]},
            grid={"k": 8, "l": 8},
            tol=1e-4,
        )
        path = write_spec(tmp_path, spec)
        code, out, _ = run(capsys, ["convergence", path, "--levels", "6"])
        assert code == 0
        flags = [line.split(",")[4] for line in out.strip().splitlines()[1:]]
        assert flags[0] == "false"
        assert flags[-1] == "true"


class TestCatalogCmd:
    def test_lists_kinds(self, capsys):
        code, out, _ = run(capsys, ["catalog"])
        assert code == 0
        for kind in ("great_subsphere", "hopf_fiber", "clifford_torus_curve"):
            assert kind in out

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, ["catalog", "--json"])
        schemas = json.loads(out)
        assert set(schemas["clifford_torus_curve"]) == {"p", "q", "phase"}


class TestOracleCmd:
    def test_great_circles(self, tmp_path, capsys):
        path = write_spec(tmp_path, GREAT_CIRCLES)
        code, out, _ = run(capsys, ["oracle", path, "--stable"])
        assert code == 0
        report = json.loads(out)
        assert report["report"]["method"] == "gauss_oracle"
        assert report["report"]["nearest_integer"] == 1
        assert report["kernel_mode"] == "gauss"

    def test_unequal_l_count_rejected(self, tmp_path, capsys):
        # the oracle takes one node count for both curves; a different
        # grid.l would be ignored, so it is refused
        spec = dict(GREAT_CIRCLES, method="oracle", grid={"k": 16, "l": 64})
        code, out, err = run(capsys, ["link", write_spec(tmp_path, spec)])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "grid.l" in err
        spec["grid"] = {"k": 16, "l": 16}
        code, out, _ = run(capsys, ["link", write_spec(tmp_path, spec), "--stable"])
        assert code == 0
        assert json.loads(out)["node_counts"][0] == 16 * 16

    def test_wrong_dimension(self, tmp_path, capsys):
        spec = {
            "ambient_n": 4,
            "K": {"kind": "great_subsphere", "k": 1, "axes": [0, 1]},
            "L": {"kind": "great_subsphere", "k": 2, "axes": [2, 3, 4]},
            "method": "main",
        }
        path = write_spec(tmp_path, spec)
        code, _, err = run(capsys, ["oracle", path])
        assert code == 1
        assert "S^3" in err


CHEAP_SPEC = dict(GREAT_CIRCLES, grid={"curve": 8}, max_level=1, tol=1e-9)


def _paths(node, prefix=()):
    """Every (container path, key) in a JSON tree, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def test_spec_mutations_never_raise(tmp_path):
    # every field at any depth deleted or replaced by a wrong type: the CLI
    # ends in a report or a clean exit, never a traceback
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    import contextlib
    import copy
    import io

    spec_path = tmp_path / "spec.json"

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(st.sampled_from(list(_paths(CHEAP_SPEC))),
                      st.sampled_from(["delete", None, [], {}, "x"]))
    def check(path, action):
        spec = copy.deepcopy(CHEAP_SPEC)
        prefix, key = path
        parent = spec
        for part in prefix:
            parent = parent[part]
        if action == "delete":
            del parent[key]
        else:
            parent[key] = action
        spec_path.write_text(json.dumps(spec))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["link", str(spec_path), "--stable"])
        assert code in (0, 1, 2)
        if code == 1:
            assert err.getvalue().startswith("error:")

    check()
