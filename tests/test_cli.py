import dataclasses
import json
import math

import numpy as np
import pytest

from spherelink import GridSpec, LinkingReport, evaluate_main_theorem, oracle_linking
from spherelink.cli import main
from spherelink.engine import MIN_ALPHA, TOL
from spherelink.oracle import CURVE_NODES

from conftest import great_pair


GREAT_CIRCLES = {
    "ambient_n": 3,
    "K": {"kind": "great_subsphere", "k": 1, "axes": [0, 1]},
    "L": {"kind": "great_subsphere", "k": 1, "axes": [2, 3]},
    "method": "main",
}

# great circles passing within 0.05 rad: coarse levels cannot resolve the
# peaked kernel, and on grid k = l = 8 the first step below tol = 1e-4 is the
# sixth refinement (1.1e-5 on the Lk scale, 2.2e-4 before the 1 / 2 pi^2)
NEAR_MISS = dict(
    GREAT_CIRCLES,
    L={"kind": "rotated",
       "base": {"kind": "great_subsphere", "k": 1, "axes": [2, 3]},
       "givens": [{"plane": [0, 2], "angle": np.pi / 2 - 0.05}]},
    grid={"k": 8, "l": 8},
    tol=1e-4,
)


# `spherelink catalog` output, plain and --json, pinned byte for byte
CATALOG_PLAIN = """\
antipodal_image
  base: catalog entry
clifford_torus_curve
  p: int
  q: int (gcd(|p|,|q|) = 1)
  phase: float, default 0
fourier_curve
  cos_coeffs: (J+1) x 4 array
  sin_coeffs: (J+1) x 4 array
great_subsphere
  k: int >= 0
  axes: list of k+1 distinct axis indices
hopf_fiber
  base: unit 4-vector (z1, z2) as reals
orientation_reversed
  base: catalog entry
rotated
  base: catalog entry
  givens: list of {plane: [i, j], angle}
small_round_sphere
  k: int >= 0
  center: unit vector
  angular_radius: float in (0, pi/2]
  frame: orthonormal (k+1) x (n+1) rows, orthogonal to center
"""
CATALOG_JSON = (
    '{"antipodal_image": {"base": "catalog entry"}, '
    '"clifford_torus_curve": {"p": "int", "phase": "float, default 0", '
    '"q": "int (gcd(|p|,|q|) = 1)"}, '
    '"fourier_curve": {"cos_coeffs": "(J+1) x 4 array", "sin_coeffs": "(J+1) x 4 array"}, '
    '"great_subsphere": {"axes": "list of k+1 distinct axis indices", "k": "int >= 0"}, '
    '"hopf_fiber": {"base": "unit 4-vector (z1, z2) as reals"}, '
    '"orientation_reversed": {"base": "catalog entry"}, '
    '"rotated": {"base": "catalog entry", "givens": "list of {plane: [i, j], angle}"}, '
    '"small_round_sphere": {"angular_radius": "float in (0, pi/2]", "center": "unit vector", '
    '"frame": "orthonormal (k+1) x (n+1) rows, orthogonal to center", "k": "int >= 0"}}\n'
)


def write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def _refuse_constant(name):
    raise ValueError(f"the report holds {name}, which strict JSON has no word for")


def run(capsys, argv):
    """Exit code, stdout and stderr of one CLI call; a link report on stdout
    must parse as strict JSON (no NaN or Infinity)."""
    code = main(argv)
    captured = capsys.readouterr()
    if argv[0] == "link" and captured.out.strip():
        json.loads(captured.out, parse_constant=_refuse_constant)
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

    @pytest.mark.parametrize("method", ["main", "join-full", "oracle"])
    def test_absent_fields_take_engine_defaults(self, tmp_path, capsys, method):
        # a spec that states today's defaults runs exactly as one that omits them
        curve = CURVE_NODES if method == "oracle" else 64
        stated = dict(GREAT_CIRCLES, method=method, tol=1e-9, max_level=4,
                      grid={"curve": curve, "surface": 32, "u": 32})
        if method != "oracle":
            stated["min_alpha"] = 0.01
        reports = []
        for spec in (dict(GREAT_CIRCLES, method=method), stated):
            code, out, _ = run(capsys, ["link", write_spec(tmp_path, spec), "--stable"])
            assert code == 0
            # everything but the spec echo, byte for byte
            head, _, tail = out.partition(', "spec": ')
            reports.append(head + tail[tail.index(', "version": '):])
        assert reports[0] == reports[1]

    def test_oracle_default_nodes_match_python_api(self, tmp_path, capsys):
        # a spec without a grid runs the oracle at oracle_linking's own default
        spec = dict(GREAT_CIRCLES, method="oracle")
        code, out, _ = run(capsys, ["link", write_spec(tmp_path, spec), "--stable"])
        assert code == 0
        K, L = great_pair(1, 1)
        assert json.loads(out)["node_counts"] == list(oracle_linking(K, L).node_counts)

    @pytest.mark.parametrize("method", ["main", "oracle"])
    def test_report_carries_every_field(self, tmp_path, capsys, method):
        # every LinkingReport field and linking_number; node_counts sits
        # beside the report, and level_values are the Python report's
        spec = dict(GREAT_CIRCLES, method=method, grid={"curve": 16}, tol=1e-6)
        code, out, _ = run(capsys, ["link", write_spec(tmp_path, spec), "--stable"])
        assert code == 0
        doc = json.loads(out)
        names = {f.name for f in dataclasses.fields(LinkingReport)}
        assert set(doc["report"]) == names - {"node_counts"} | {"linking_number"}
        K, L = great_pair(1, 1)
        if method == "oracle":
            expected = oracle_linking(K, L, m=16, tol=1e-6)
        else:
            expected = evaluate_main_theorem(K, L, grid=GridSpec(curve=16), tol=1e-6)
        assert doc["report"]["level_values"] == list(expected.level_values)
        assert doc["node_counts"] == list(expected.node_counts)

    def test_grid_override_flag(self, tmp_path, capsys):
        path = write_spec(tmp_path, GREAT_CIRCLES)
        code, out, _ = run(capsys, ["link", path, "--stable", "--grid", "k=16,l=16"])
        assert code == 0
        assert json.loads(out)["spec"]["grid"] == {"k": 16, "l": 16}

    @pytest.mark.parametrize("grid", ["u=abc", "u=1.5", "q=4", "u"])
    def test_bad_grid_flag_names_flag_and_key(self, tmp_path, capsys, grid):
        path = write_spec(tmp_path, GREAT_CIRCLES)
        code, out, err = run(capsys, ["link", path, "--grid", grid])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "--grid" in err and repr(grid) in err

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
        # strict numbers: no truncation of non-integral values, no booleans
        ({"ambient_n": 3.7}, "'ambient_n'"),
        ({"grid": {"curve": 16.8}}, "'grid.curve'"),
        ({"max_level": 1.9}, "'max_level'"),
        ({"grid": {"curve": True}}, "'grid.curve'"),
        ({"tol": False}, "'tol'"),
        ({"K": {"kind": "great_subsphere", "k": 1.9, "axes": [0.7, 1.2]}}, "'k'"),
        # a node count below 1 or a negative dimension names its field
        ({"method": "join-full", "grid": {"u": 0}}, "'grid.u'"),
        ({"grid": {"curve": -4}}, "'grid.curve'"),
        ({"K": {"kind": "great_subsphere", "k": -1, "axes": []}}, "k must be >= 0"),
        ({"max_level": -3}, "max_level"),
        # non-finite numbers (NaN, Infinity, 1e999 in the JSON text)
        ({"min_alpha": float("nan")}, "'min_alpha'"),
        ({"tol": float("inf")}, "'tol'"),
        ({"thresholds": {"residual_cap": float("nan")}}, "'thresholds.residual_cap'"),
        ({"L": {"kind": "clifford_torus_curve", "p": 1, "q": 1, "phase": float("inf")}},
         "'phase'"),
        ({"L": {"kind": "hopf_fiber", "base": [float("nan"), 0, 0, 1]}}, "'base'"),
        ({"L": {"kind": "fourier_curve", "cos_coeffs": [[0, 0, 0, 0], [float("nan"), 0, 0, 0]],
                "sin_coeffs": [[0, 0, 0, 0], [0, 1, 0, 0]]}}, "'cos_coeffs'"),
        ({"L": {"kind": "rotated", "givens": [{"plane": [0, 2], "angle": float("inf")}],
                "base": {"kind": "great_subsphere", "k": 1, "axes": [2, 3]}}}, "'givens'"),
    ])
    def test_malformed_field_exit_1(self, tmp_path, capsys, change, field):
        spec = dict(GREAT_CIRCLES, **change) if isinstance(change, dict) else change
        code, out, err = run(capsys, ["link", write_spec(tmp_path, spec)])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and field in err

    def test_integral_floats_accepted(self, tmp_path, capsys):
        # 3.0 is the integer 3: the run matches the all-integer spec's
        spec = dict(GREAT_CIRCLES, grid={"curve": 16, "u": 4}, max_level=1)
        floats = dict(spec, ambient_n=3.0, grid={"curve": 16.0, "u": 4.0}, max_level=1.0)
        reports = []
        for each in (spec, floats):
            code, out, _ = run(capsys, ["link", write_spec(tmp_path, each), "--stable"])
            assert code == 0
            reports.append(json.loads(out)["report"])
        assert reports[0] == reports[1]

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

    def test_nan_alpha_rejected(self, capsys):
        # NaN passes no range comparison, so it is refused before any row
        code, out, err = run(capsys, ["phi", "--k", "1", "--l", "1", "--alpha-min", "nan",
                                      "--num", "2"])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "--alpha-min" in err

    @pytest.mark.parametrize("flag, value", [
        ("--alpha-max", "inf"), ("--alpha-min", "-inf"), ("--num", "0"), ("--num", "-2"),
        ("--num", "1000000000000"),
    ])
    def test_bad_flag_names_flag(self, capsys, flag, value):
        # no numpy warning, no bare header: exit 1 before any output
        code, out, err = run(capsys, ["phi", "--k", "1", "--l", "1", f"{flag}={value}"])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and flag in err and value in err

    def test_alpha_outside_range_prints_nothing(self, capsys):
        code, out, err = run(capsys, ["phi", "--k", "1", "--l", "1", "--alpha-min=-1",
                                      "--num", "2"])
        assert code == 1
        assert out == ""
        assert "error: alpha must lie in [0, pi]" in err

    @pytest.mark.parametrize("k, l", [(0, 35), (60, 60)])
    def test_orders_past_float64_series_rejected(self, capsys, k, l):
        # a TypeError traceback and a NaN table before the check at construction
        code, out, err = run(capsys, ["phi", "--k", str(k), "--l", str(l)])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and f"({k}, {l})" in err


class TestConvergence:
    """A refinement study is `link --tol 0 --max-level N`: it runs N + 1
    steps, each the base grid and one probe per factor with that factor
    doubled, growing every factor, and its report holds each level sum's
    value and node count."""

    def study(self, tmp_path, capsys, spec, max_level, factors=2):
        path = write_spec(tmp_path, spec)
        code, out, _ = run(capsys, ["link", path, "--tol", "0", "--max-level", str(max_level),
                                    "--stable"])
        # no step is below a zero tolerance, so the run never converges
        assert code == 2
        doc = json.loads(out)
        assert doc["report"]["converged"] is False
        assert (len(doc["report"]["level_values"]) == len(doc["node_counts"])
                == (max_level + 1) * (factors + 1))
        return doc["report"]["level_values"], doc["node_counts"], doc["report"]

    @staticmethod
    def steps(values, factors=2):
        """Each step's (base value, probe differences) of a study."""
        return [(values[i], [v - values[i] for v in values[i + 1:i + 1 + factors]])
                for i in range(0, len(values), factors + 1)]

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
        values, _, report = self.study(tmp_path, capsys, spec, 3)
        base, deltas = self.steps(values)[-1]
        assert report["error_estimate"] < TOL
        assert report["error_estimate"] == math.fsum(abs(d) for d in deltas)
        assert report["raw_value"] == base + math.fsum(deltas)

    def test_single_level(self, tmp_path, capsys):
        _, counts, _ = self.study(tmp_path, capsys, GREAT_CIRCLES, 0)
        assert counts == [64 * 64, 128 * 64, 64 * 128]

    def test_oracle_rows(self, tmp_path, capsys):
        spec = dict(GREAT_CIRCLES, method="oracle", grid={"curve": 16})
        values, counts, _ = self.study(tmp_path, capsys, spec, 1)
        assert counts == [16 * 16, 32 * 16, 16 * 32, 32 * 32, 64 * 32, 32 * 64]
        assert all(v == pytest.approx(1.0, abs=1e-12) for v in values[3:])

    def test_join_full_rows(self, tmp_path, capsys):
        spec = dict(GREAT_CIRCLES, method="join-full", grid={"curve": 8, "u": 4})
        values, counts, _ = self.study(tmp_path, capsys, spec, 1, factors=3)
        assert counts == [8 * 8 * 4, 16 * 8 * 4, 8 * 16 * 4, 8 * 8 * 8,
                          16 * 16 * 8, 32 * 16 * 8, 16 * 32 * 8, 16 * 16 * 16]
        assert all(v == pytest.approx(-1.0, abs=1e-12) for v in values[4:])

    def test_intersecting_pair_rejected(self, tmp_path, capsys):
        spec = dict(GREAT_CIRCLES,
                    L={"kind": "great_subsphere", "k": 1, "axes": [1, 2]})
        path = write_spec(tmp_path, spec)
        code, out, err = run(capsys, ["link", path, "--tol", "0", "--max-level", "0"])
        assert code == 1
        assert out == ""
        assert "disjoint" in err

    def test_close_approach_flags_false_until_resolved(self, tmp_path, capsys):
        values, _, _ = self.study(tmp_path, capsys, NEAR_MISS, 5)
        estimates = [math.fsum(map(abs, deltas)) for _, deltas in self.steps(values)]
        assert estimates[0] >= NEAR_MISS["tol"]
        assert estimates[-1] < NEAR_MISS["tol"]

    def test_link_and_convergence_agree(self, tmp_path, capsys):
        # the same six steps give link's verdict: only the last step's
        # estimate is below the spec's tol, and it is link's, bit for bit;
        # both factors exceed tol / 2 on every earlier step, so link grows
        # both, as the study does
        values, _, _ = self.study(tmp_path, capsys, NEAR_MISS, 5)
        steps = self.steps(values)
        estimates = [math.fsum(map(abs, deltas)) for _, deltas in steps]
        assert [e < NEAR_MISS["tol"] for e in estimates] == [False] * 5 + [True]
        assert all(abs(d) >= NEAR_MISS["tol"] / 2 for _, deltas in steps[:-1] for d in deltas)
        path = write_spec(tmp_path, NEAR_MISS)
        code, out, _ = run(capsys, ["link", path, "--max-level", "5", "--stable"])
        report = json.loads(out)["report"]
        assert code == 0 and report["converged"] and report["accepted"]
        assert report["levels_used"] == 5
        assert report["level_values"] == values
        base, deltas = steps[-1]
        assert estimates[-1] == report["error_estimate"]
        assert base + math.fsum(deltas) == report["raw_value"]


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

    @pytest.mark.parametrize("argv, expected", [
        (["catalog"], CATALOG_PLAIN), (["catalog", "--json"], CATALOG_JSON),
    ])
    def test_output_pinned(self, capsys, argv, expected):
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out == expected


class TestOracleCmd:
    """The oracle is the spec method "oracle" of `link`."""

    def test_great_circles(self, tmp_path, capsys):
        path = write_spec(tmp_path, dict(GREAT_CIRCLES, method="oracle"))
        code, out, _ = run(capsys, ["link", path, "--stable"])
        assert code == 0
        report = json.loads(out)
        assert report["report"]["method"] == "gauss_oracle"
        assert report["report"]["nearest_integer"] == 1
        assert report["kernel_mode"] == "gauss"

    def test_l_count_sets_l_nodes(self, tmp_path, capsys):
        # the oracle reads the spec's grid as every route does: grid.l sets
        # L's node count apart from K's
        spec = dict(GREAT_CIRCLES, method="oracle", grid={"k": 16, "l": 64})
        code, out, _ = run(capsys, ["link", write_spec(tmp_path, spec), "--stable"])
        assert code == 0
        assert json.loads(out)["node_counts"][0] == 16 * 64
        K, L = great_pair(1, 1)
        python = oracle_linking(K, L, GridSpec(k_nodes=16, l_nodes=64))
        assert json.loads(out)["report"]["level_values"] == list(python.level_values)

    def test_min_alpha_rejected(self, tmp_path, capsys):
        # the oracle holds the geodesic threshold at the engine's MIN_ALPHA,
        # so another value would be ignored; it is refused instead, from the
        # spec or the flag, naming the fixed threshold
        spec = dict(GREAT_CIRCLES, min_alpha=3.0)
        path = write_spec(tmp_path, spec)
        code, _, err = run(capsys, ["link", path])
        assert code == 1 and "threshold 3.0" in err
        oracle = write_spec(tmp_path, dict(spec, method="oracle"), "oracle.json")
        plain = write_spec(tmp_path, dict(GREAT_CIRCLES, method="oracle"), "plain.json")
        for argv in (["link", oracle], ["link", plain, "--min-alpha", "0.5"]):
            code, out, err = run(capsys, argv)
            assert code == 1, argv
            assert out == ""
            assert err.startswith("error:") and "min_alpha" in err
            assert f"fixed {MIN_ALPHA} rad" in err

    def test_wrong_dimension(self, tmp_path, capsys):
        # two circles in S^4: dim K + dim L is not n - 1
        spec = {
            "ambient_n": 4,
            "K": {"kind": "great_subsphere", "k": 1, "axes": [0, 1]},
            "L": {"kind": "great_subsphere", "k": 1, "axes": [2, 3]},
            "method": "oracle",
        }
        path = write_spec(tmp_path, spec)
        code, out, err = run(capsys, ["link", path])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "n - 1" in err

    def test_surface_pair_in_s4(self, tmp_path, capsys):
        # a (1,2) pair in S^4 runs on the spec's grid and links +1, as on main
        spec = {
            "ambient_n": 4,
            "K": {"kind": "great_subsphere", "k": 1, "axes": [0, 1]},
            "L": {"kind": "great_subsphere", "k": 2, "axes": [2, 3, 4]},
            "method": "oracle", "grid": {"curve": 16, "surface": 8},
        }
        code, out, _ = run(capsys, ["link", write_spec(tmp_path, spec), "--stable"])
        assert code == 0
        report = json.loads(out)
        assert report["report"]["linking_number"] == 1
        assert report["node_counts"][0] == 16 * 8 * 8


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["link", "spec.json", "--tol", "abc"],
        ["phi", "--k", "1", "--l", "1", "--num", "1.5"],
        ["oracle", "spec.json"],
        ["convergence", "spec.json", "--levels", "2"],
        [],
    ])
    def test_usage_error_exits_1(self, capsys, argv):
        # exit 2 is kept for a rejected or unconverged result
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["link", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out


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
