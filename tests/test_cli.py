import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft202012Validator

import hckit
from hckit import cli
from hckit.problemio import dump_envelope, parse_problem, result_envelope
from hckit.slemma import FEAS_TOL, STRICT_MARGIN

SCHEMA = json.loads((Path(__file__).resolve().parents[1] / "schemas"
                     / "envelope-v1.json").read_text())
ENVELOPE = Draft202012Validator(SCHEMA)


def write_problem(tmp_path, name="problem.json", **overrides):
    """Problem file for F = (x^2, x) on the reals unless overridden."""
    doc = {
        "schema_version": "1",
        "dimension": 1,
        "P": [1.0], "p": [0.0], "p0": 0.0,
        "Q": [0.0], "q": [1.0], "q0": 0.0,
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def circle_on_line(tmp_path):
    """Problem file for f = 0.5 - |x|^2, g = |x|^2 - 4 on {x1 + x2 = 1}."""
    return write_problem(tmp_path, dimension=2,
                         P=[-1.0, 0.0, 0.0, -1.0], p=[0.0, 0.0], p0=0.5,
                         Q=[1.0, 0.0, 0.0, 1.0], q=[0.0, 0.0], q0=-4.0,
                         manifold={"H": [[1.0, 1.0]], "d": [1.0]})


def _refuse_constant(name):
    raise ValueError(f"envelope holds the non-finite number {name}")


def run(capsys, args, non_finite=False):
    """``cli.main`` on ``args``; every envelope it writes, to stdout or to
    ``--out``, must validate against the envelope schema and, unless
    ``non_finite`` is set, hold no ``NaN`` or ``Infinity``."""
    code = cli.main(args)
    out = capsys.readouterr()
    if args[0] != "sample":
        texts = [out.out]
        if "--out" in args:
            target = Path(args[args.index("--out") + 1])
            texts.append(target.read_text() if target.exists() else "")
        for text in filter(None, texts):
            ENVELOPE.validate(json.loads(
                text, parse_constant=None if non_finite else _refuse_constant))
    return code, out.out, out.err


class TestClassifyLine:
    def test_parabola(self, tmp_path, capsys):
        path = write_problem(tmp_path)
        code, out, _ = run(capsys, ["classify-line", path, "--xbar", "0", "--ybar", "1"])
        assert code == 0
        env = json.loads(out)
        assert env["outcome"]["kind"] == "Parabola"
        a_mat = np.array(env["outcome"]["conic"]["A"])
        kappa = a_mat[1][1]
        assert kappa > 0
        np.testing.assert_allclose(a_mat, kappa * np.diag([0.0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(env["outcome"]["conic"]["a"],
                                   [-kappa, 0.0], atol=1e-12)

    def test_constant_map_is_point(self, tmp_path, capsys):
        path = write_problem(tmp_path, P=[0.0], p=[0.0], p0=2.0,
                             Q=[0.0], q=[0.0], q0=-1.0)
        code, out, _ = run(capsys, ["classify-line", path, "--xbar", "0", "--ybar", "1"])
        assert code == 0
        assert json.loads(out)["outcome"]["kind"] == "Point"

    def test_degenerate_line_exit(self, tmp_path, capsys):
        path = write_problem(tmp_path)
        code, _, err = run(capsys, ["classify-line", path, "--xbar", "1", "--ybar", "1"])
        assert code == 3
        assert "degenerate" in err.lower()

    def test_asymmetric_matrix_names_field(self, tmp_path, capsys):
        doc = {"schema_version": "1", "dimension": 2,
               "P": [1.0, 0.5, 0.0, 1.0], "p": [0.0, 0.0], "p0": 0.0,
               "Q": [0.0, 0.0, 0.0, 0.0], "q": [1.0, 0.0], "q0": 0.0}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["classify-line", str(path),
                                    "--xbar", "0,0", "--ybar", "1,0"])
        assert code == 2
        assert "'P'" in err

    def test_bad_vector_length(self, tmp_path, capsys):
        path = write_problem(tmp_path)
        code, _, err = run(capsys, ["classify-line", path, "--xbar", "0,1",
                                    "--ybar", "1"])
        assert code == 2
        assert "--xbar" in err

    @pytest.mark.parametrize("overrides", [
        # a ray whose apex is at -inf
        {"P": [1e297], "p": [1e305], "Q": [1e297], "q": [1e305]},
        # a parabola whose parameter map has an infinite slope
        {"P": [4e307], "p": [1.5e308], "Q": [4e307], "q": [-1.5e308]},
    ])
    def test_non_finite_payload(self, tmp_path, capsys, overrides):
        path = write_problem(tmp_path, **overrides)
        code, out, err = run(capsys, ["classify-line", path, "--xbar", "0", "--ybar", "1"])
        assert code == 2
        assert out == ""
        assert "InternalNumerics" in err and "payload" in err

    @pytest.mark.parametrize("args", [
        ["witness", "--xu", "1", "--xv", "2", "--alpha", "0.3"],
        ["verify-convexity", "--box", "1", "--trials", "20", "--seed", "1"],
    ])
    def test_infinite_apex_leaves_other_commands_alone(self, tmp_path, capsys, args):
        # the ray's apex overflows, but the witness reads only the image's
        # coefficients, which stay finite, as do F and the certificate
        path = write_problem(tmp_path, P=[1e297], p=[1e305], Q=[1e297], q=[1e305])
        code, out, _ = run(capsys, args[:1] + [path] + args[1:])
        assert code == 0
        outcome = json.loads(out)["outcome"]
        if args[0] == "witness":
            assert outcome["verified"] is True and outcome["branch"] == "RayOrLine"
        else:
            assert outcome["failures"] == [] and outcome["branch_counts"]["RayOrLine"] == 20

    def test_unwritable_out(self, tmp_path, capsys):
        path = write_problem(tmp_path)
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, ["classify-line", path, "--xbar", "0", "--ybar", "1",
                                      "--out", str(target)])
        assert code == 2
        assert out == "" and not target.exists()
        assert err.startswith("error: cannot write the output") and "x.json" in err


class TestWitness:
    def test_worked_example(self, tmp_path, capsys):
        path = write_problem(tmp_path)
        code, out, _ = run(capsys, [
            "witness", path, "--xu", "1", "--xv", "-1", "--alpha", "0.5"])
        assert code == 0
        env = json.loads(out)
        assert env["outcome"]["branch"] == "ParabolaRayHit"
        np.testing.assert_allclose(env["outcome"]["x_star"], [0.0], atol=1e-9)
        np.testing.assert_allclose(env["outcome"]["e_star"], [1.0, 0.0], atol=1e-9)
        assert env["outcome"]["verified"] is True
        # w = (1, 0) is inside the parabola; the backward ray along b meets
        # it at F(0) = (0, 0) after tau = 1, tying with the ray along c
        assert env["trace"]["ray_direction"] == "b"
        assert env["trace"]["ray_t"] == pytest.approx(1.0, abs=1e-12)
        assert env["trace"]["psi_w"] < 0.0
        # the residual the constructor's one verification measured
        assert 0.0 <= env["trace"]["residual"] <= 1e-9

    def test_identical_members(self, tmp_path, capsys):
        path = write_problem(tmp_path)
        code, out, _ = run(capsys, [
            "witness", path, "--xu", "1", "--xv", "1", "--alpha", "0.5"])
        assert code == 0
        env = json.loads(out)
        assert env["outcome"]["branch"] == "Case1_u"

    def test_alpha_zero_rejected(self, tmp_path, capsys):
        path = write_problem(tmp_path)
        code, _, err = run(capsys, [
            "witness", path, "--xu", "1", "--xv", "-1", "--alpha", "0"])
        assert code == 2
        assert "--alpha" in err

    def test_missing_members_named(self, tmp_path, capsys):
        path = write_problem(tmp_path)
        code, out, err = run(capsys, ["witness", path, "--xu", "1"])
        assert code == 2
        assert out == ""
        assert "--xv" in err and "--alpha" in err

    def test_cone_element_validated(self, tmp_path, capsys):
        path = write_problem(tmp_path)
        code, _, err = run(capsys, [
            "witness", path, "--xu", "1", "--e1=-1,0", "--xv", "-1",
            "--alpha", "0.5"])
        assert code == 2
        assert "cone" in err.lower()

    def test_long_cone_element_on_an_edge(self, tmp_path, capsys):
        # e1 is 1e7 * b as computed in floats; Cramer's rule puts its
        # coordinate on c at about -5e-9, below an absolute slack of cone_tol
        path = write_problem(tmp_path, Q=[-1.0], q=[1.0],
                             cone={"b": [0.915, -0.403], "c": [0.973, -0.233]})
        e1 = [1e7 * 0.915, 1e7 * -0.403]
        assert e1 == [9150000.0, -4030000.0000000005]
        code, out, _ = run(capsys, ["witness", path, "--xu", "0.3", "--xv", "2",
                                    "--e1", json.dumps(e1), "--alpha", "0.5"])
        assert code == 0
        assert json.loads(out)["outcome"]["verified"] is True

    def test_envelope_reverification(self, tmp_path, capsys):
        path = write_problem(tmp_path)
        env_path = tmp_path / "witness.json"
        code, _, _ = run(capsys, [
            "witness", path, "--xu", "1", "--xv", "-1", "--alpha", "0.5",
            "--out", str(env_path)])
        assert code == 0
        code, out, _ = run(capsys, [
            "witness", path, "--verify-envelope", str(env_path)])
        assert code == 0
        assert json.loads(out)["outcome"]["verification"] == "pass"

    def test_tampered_envelope_fails(self, tmp_path, capsys):
        path = write_problem(tmp_path)
        env_path = tmp_path / "witness.json"
        run(capsys, ["witness", path, "--xu", "1", "--xv", "-1",
                     "--alpha", "0.5", "--out", str(env_path)])
        env = json.loads(env_path.read_text())
        env["outcome"]["x_star"] = [1.0]
        env_path.write_text(json.dumps(env))
        code, out, _ = run(capsys, [
            "witness", path, "--verify-envelope", str(env_path)])
        assert code == 4
        assert json.loads(out)["outcome"]["verification"] == "fail"

    def test_forged_non_finite_envelope_fails(self, tmp_path, capsys):
        path = write_problem(tmp_path)
        env_path = tmp_path / "forged.json"
        env_path.write_text(json.dumps({"outcome": {
            "x_star": [float("nan")], "e_star": [0.0, 0.0], "w": [5.0, 0.0],
            "branch": "ParabolaRayHit"}}))
        # the envelope echoes the forged NaN
        code, out, _ = run(capsys, [
            "witness", path, "--verify-envelope", str(env_path)], non_finite=True)
        assert code == 4
        assert json.loads(out)["outcome"]["verification"] == "fail"


class TestSLemma:
    def test_multiplier(self, tmp_path, capsys):
        # f = -2x + 2, g = x^2 - 1: f + g = (x - 1)^2
        path = write_problem(tmp_path, P=[0.0], p=[-2.0], p0=2.0,
                             Q=[1.0], q=[0.0], q0=-1.0)
        code, out, _ = run(capsys, ["slemma", path, "--x-star", "0"])
        assert code == 0
        env = json.loads(out)
        assert env["outcome"]["outcome"] == "MultiplierFound"
        assert env["outcome"]["lambda"] == pytest.approx(1.0, abs=1e-9)
        assert len(env["outcome"]["dual_curve"]) > 3

    def test_counterexample(self, tmp_path, capsys):
        path = write_problem(tmp_path, P=[1.0], p=[0.0], p0=-1.0,
                             Q=[0.0], q=[1.0], q0=0.0)
        code, out, _ = run(capsys, ["slemma", path, "--x-star", "-1"])
        assert code == 0
        env = json.loads(out)
        assert env["outcome"]["outcome"] == "CounterexampleFound"

    def test_slater_exit(self, tmp_path, capsys):
        path = write_problem(tmp_path, Q=[1.0], q=[0.0], q0=0.0)
        code, _, err = run(capsys, ["slemma", path, "--x-star", "3"])
        assert code == 5
        assert "slater" in err.lower()


    def test_unbounded_dual_is_null(self, tmp_path, capsys):
        # f = -x^2, g = x^2 - 1: f + lam g is unbounded below for lam < 1, so
        # the dual curve records probes with no finite value
        path = write_problem(tmp_path, P=[-1.0], p=[0.0], p0=0.0,
                             Q=[1.0], q=[0.0], q0=-1.0)
        code, out, _ = run(capsys, ["slemma", path, "--x-star", "0"])
        assert code == 0
        curve = json.loads(out)["outcome"]["dual_curve"]
        assert any(val is None for _, val in curve)

    def test_counterexample_in_problem_coordinates(self, tmp_path, capsys):
        # the search runs on the manifold's one coordinate, the answer is a
        # point of the plane
        path = circle_on_line(tmp_path)
        code, out, _ = run(capsys, ["slemma", path, "--x-star", "0.5 0.5"])
        assert code == 0
        outcome = json.loads(out)["outcome"]
        assert outcome["outcome"] == "CounterexampleFound"
        x = np.array(outcome["x_witness"])
        assert x.shape == (2,)
        assert x.sum() == pytest.approx(1.0, abs=1e-12)
        assert 0.5 - x @ x < 0.0
        assert x @ x - 4.0 <= 1e-9

    @pytest.mark.parametrize("x_star", ["5 5", "0 0", "0.5 0.4999"])
    def test_slater_point_off_the_manifold(self, tmp_path, capsys, x_star):
        # g(5, 5) = 46 > 0, but its projection onto {x1 + x2 = 1} is
        # (0.5, 0.5), where g < 0: the point itself must be on the manifold
        path = circle_on_line(tmp_path)
        code, out, err = run(capsys, ["slemma", path, "--x-star", x_star])
        assert code == 5
        assert out == ""
        assert "SlaterViolated" in err and "manifold" in err

    @pytest.mark.parametrize("x_star", ["0.3 0.7", "0.1 0.9", "1.5 -0.5"])
    def test_slater_point_on_the_manifold(self, tmp_path, capsys, x_star):
        # points of {x1 + x2 = 1} up to the rounding of their entries
        path = circle_on_line(tmp_path)
        code, out, _ = run(capsys, ["slemma", path, "--x-star", x_star])
        assert code == 0
        assert json.loads(out)["outcome"]["outcome"] == "CounterexampleFound"

    def test_manifold_counterexamples_solve_the_ambient_problem(self, tmp_path, capsys):
        # criterion 7's manifolds and forms, with g shifted to -0.5 at an
        # ambient Slater point of the manifold: a counterexample is a point
        # of R^n on the manifold with f < 0 and g <= 0
        rng = np.random.default_rng(1717)
        found = 0
        for instance in range(40):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, n))
            h = rng.uniform(-2, 2, (m, n))
            d = h @ rng.uniform(-2, 2, n)
            manifold = hckit.manifold_from_linear_system(h, d)
            grow = rng.uniform(-1.5, 1.5, (n, n))
            f = hckit.QuadraticForm(grow.T @ grow + 0.1 * np.eye(n),
                                    rng.uniform(-2, 2, n), rng.uniform(-2, 2))
            g = hckit.QuadraticForm(rng.uniform(-2, 2, (n, n)), rng.uniform(-2, 2, n), 0.0)
            x_star = manifold.embed(rng.uniform(-2, 2, manifold.dim))
            g = g.shifted(-g(x_star) - 0.5)
            path = write_problem(tmp_path, dimension=n,
                                 P=f.matrix.ravel().tolist(), p=f.linear.tolist(),
                                 p0=f.constant, Q=g.matrix.ravel().tolist(),
                                 q=g.linear.tolist(), q0=g.constant,
                                 manifold={"H": h.tolist(), "d": d.tolist()})
            code, out, _ = run(capsys, ["slemma", path, "--x-star",
                                        json.dumps(x_star.tolist())])
            assert code in (0, 6), instance
            outcome = json.loads(out)["outcome"]
            if outcome["outcome"] != "CounterexampleFound":
                continue
            found += 1
            x = np.array(outcome["x_witness"])
            assert x.shape == (n,)
            assert np.linalg.norm(h @ x - d) <= 1e-9 * (1 + np.linalg.norm(d)), instance
            assert f(x) < -STRICT_MARGIN and g(x) <= FEAS_TOL, instance
        assert found >= 5


class TestSample:
    def test_single_point_at_origin(self, tmp_path, capsys):
        path = write_problem(tmp_path)
        code, out, _ = run(capsys, ["sample", path, "--count", "1",
                                    "--seed", "0", "--box", "0"])
        assert code == 0
        assert out.strip() == "0 0"

    def test_deterministic(self, tmp_path, capsys):
        path = write_problem(tmp_path)
        _, out1, _ = run(capsys, ["sample", path, "--count", "10",
                                  "--seed", "4", "--box", "2"])
        _, out2, _ = run(capsys, ["sample", path, "--count", "10",
                                  "--seed", "4", "--box", "2"])
        assert out1 == out2
        assert len(out1.strip().splitlines()) == 10

    def test_count_validation(self, tmp_path, capsys):
        path = write_problem(tmp_path)
        code, _, _ = run(capsys, ["sample", path, "--count", "0"])
        assert code == 2

    def test_large_stream_completes(self, tmp_path, capsys):
        # performance smoke: 1e5 points in six dimensions
        import time
        n = 6
        rng = np.random.default_rng(2)
        sym = rng.uniform(-1, 1, (n, n))
        sym = 0.5 * (sym + sym.T)
        path = write_problem(
            tmp_path, dimension=n,
            P=[float(v) for v in sym.ravel()],
            p=[0.0] * n, p0=0.0,
            Q=[float(v) for v in np.eye(n).ravel()],
            q=[0.0] * n, q0=0.0)
        out_path = tmp_path / "points.txt"
        start = time.perf_counter()
        code, _, _ = run(capsys, ["sample", path, "--count", "100000",
                                  "--seed", "3", "--box", "2",
                                  "--out", str(out_path)])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert len(out_path.read_text().strip().splitlines()) == 100000
        assert elapsed < 60.0


class TestVerifyConvexity:
    def test_clean_run(self, tmp_path, capsys):
        path = write_problem(tmp_path)
        code, out, _ = run(capsys, ["verify-convexity", path, "--trials", "50",
                                    "--seed", "1", "--box", "3"])
        assert code == 0
        env = json.loads(out)
        assert env["outcome"]["failures"] == []

    def test_trials_validation(self, tmp_path, capsys):
        path = write_problem(tmp_path)
        code, _, _ = run(capsys, ["verify-convexity", path, "--trials", "0"])
        assert code == 2

    def test_box_validation(self, tmp_path, capsys):
        path = write_problem(tmp_path)
        code, out, err = run(capsys, ["verify-convexity", path, "--trials", "5",
                                      "--box", "0"])
        assert code == 2
        assert out == ""
        assert "box" in err

    def test_rho_requires_manifold(self, tmp_path, capsys):
        path = write_problem(tmp_path)
        code, _, err = run(capsys, ["verify-convexity", path, "--trials", "5",
                                    "--rho", "0"])
        assert code == 2
        assert "manifold" in err

    def test_dines_mode(self, tmp_path, capsys):
        # f = x1^2 + x2^2, g = x2 - 10 on {x1 = 1}; inf f over g <= 0 is 1
        path = write_problem(
            tmp_path, dimension=2,
            P=[1.0, 0.0, 0.0, 1.0], p=[0.0, 0.0], p0=0.0,
            Q=[0.0, 0.0, 0.0, 0.0], q=[0.0, 1.0], q0=-10.0,
            manifold={"H": [[1.0, 0.0]], "d": [1.0]})
        code, out, _ = run(capsys, ["verify-convexity", path, "--trials", "40",
                                    "--seed", "2", "--box", "3", "--rho", "-1"])
        assert code == 0
        env = json.loads(out)
        assert env["outcome"]["failures"] == []
        assert env["outcome"]["rho"] == -1.0

    def test_rho_above_bound_rejected(self, tmp_path, capsys):
        path = write_problem(
            tmp_path, dimension=2,
            P=[1.0, 0.0, 0.0, 1.0], p=[0.0, 0.0], p0=0.0,
            Q=[0.0, 0.0, 0.0, 0.0], q=[0.0, 1.0], q0=-10.0,
            manifold={"H": [[1.0, 0.0]], "d": [1.0]})
        code, _, err = run(capsys, ["verify-convexity", path, "--trials", "5",
                                    "--rho", "1000"])
        assert code == 2
        assert "--rho" in err


@pytest.mark.parametrize("overrides, args, code, error", [
    ({}, ["classify-line", "--xbar", "1", "--ybar", "1"], 3, "DegenerateLine"),
    ({"Q": [1.0], "q": [0.0]}, ["slemma", "--x-star", "3"], 5, "SlaterViolated"),
])
def test_library_error_exit(tmp_path, capsys, overrides, args, code, error):
    # cli.ERROR_EXITS gives these two library errors their own exit codes
    got, out, err = run(capsys, args[:1] + [write_problem(tmp_path, **overrides)]
                        + args[1:])
    assert (got, out) == (code, "")
    assert f"error: {error}: " in err


class TestProblemFiles:
    def test_digest_tracks_bytes(self, tmp_path):
        text1 = (tmp_path / "a.json")
        text1.write_text(json.dumps({
            "schema_version": "1", "dimension": 1,
            "P": [1.0], "p": [0.0], "p0": 0.0,
            "Q": [0.0], "q": [1.0], "q0": 0.0}))
        p1 = parse_problem(text1.read_bytes())
        p2 = parse_problem(text1.read_bytes())
        assert p1.digest == p2.digest
        altered = text1.read_text().replace("0.0", "0.5", 1)
        p3 = parse_problem(altered)
        assert p3.digest != p1.digest

    def test_upper_triangle_accepted(self):
        problem = parse_problem(json.dumps({
            "schema_version": "1", "dimension": 2,
            "P": [1.0, 2.0, 3.0], "p": [0.0, 0.0], "p0": 0.0,
            "Q": [0.0, 0.0, 0.0, 0.0], "q": [1.0, 0.0], "q0": 0.0}))
        np.testing.assert_allclose(problem.map.f.matrix, [[1.0, 2.0], [2.0, 3.0]])
        # row by row: (0,0), (0,1), (0,2), (1,1), (1,2), (2,2)
        problem = parse_problem(json.dumps({
            "schema_version": "1", "dimension": 3,
            "P": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], "p": [0.0] * 3, "p0": 0.0,
            "Q": [0.0] * 6, "q": [1.0, 0.0, 0.0], "q0": 0.0}))
        np.testing.assert_array_equal(problem.map.f.matrix,
                                      [[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])

    def test_dependent_cone_rejected(self):
        with pytest.raises(Exception) as err:
            parse_problem(json.dumps({
                "schema_version": "1", "dimension": 1,
                "P": [1.0], "p": [0.0], "p0": 0.0,
                "Q": [0.0], "q": [1.0], "q0": 0.0,
                "cone": {"b": [1.0, 1.0], "c": [2.0, 2.0]}}))
        assert "cone" in str(err.value)

    def test_tolerance_overrides(self):
        problem = parse_problem(json.dumps({
            "schema_version": "1", "dimension": 1,
            "P": [1.0], "p": [0.0], "p0": 0.0,
            "Q": [0.0], "q": [1.0], "q0": 0.0,
            "tolerances": {"cert_tol": 1e-8}}))
        assert problem.tolerances.cert_tol == 1e-8

    def test_unknown_tolerance_rejected(self):
        with pytest.raises(Exception) as err:
            parse_problem(json.dumps({
                "schema_version": "1", "dimension": 1,
                "P": [1.0], "p": [0.0], "p0": 0.0,
                "Q": [0.0], "q": [1.0], "q0": 0.0,
                "tolerances": {"bogus": 1.0}}))
        assert "bogus" in str(err.value)

    def test_retired_tolerance_ignored(self, tmp_path, capsys):
        # retired tolerances are no longer read; files naming them still load
        retired = {"rescue_factor": 100.0, "jacobi_off_tol": 1e-12,
                   "jacobi_max_sweeps": 100, "class_tol": 1e-9, "on_tol": 1e-7,
                   "indep_tol": 1e-3, "psd_tol": 1e-3, "range_tol": 1e-3,
                   "root_tol": 1e-3, "det_tol": 1e-3, "line_tol": 1e-3, "eq_tol": 1e-3}
        problem = parse_problem(json.dumps({
            "schema_version": "1", "dimension": 1,
            "P": [1.0], "p": [0.0], "p0": 0.0,
            "Q": [0.0], "q": [1.0], "q0": 0.0,
            "tolerances": {**retired, "cert_tol": 1e-8}}))
        assert problem.tolerances.cert_tol == 1e-8
        tol_path = tmp_path / "tol.json"
        tol_path.write_text(json.dumps(retired))
        path = write_problem(tmp_path, tolerances=retired)
        code, out, _ = run(capsys, ["witness", path, "--xu", "1", "--xv", "-1",
                                    "--alpha", "0.5", "--tol-config", str(tol_path)])
        assert code == 0
        listed = json.loads(out)["tolerances"]
        assert not set(retired) & set(listed)
        assert len(listed) == 3

    def test_envelope_round_trip(self, tmp_path, capsys):
        path = write_problem(tmp_path)
        _, out, _ = run(capsys, ["witness", path, "--xu", "0.1234567890123456",
                                 "--xv", "-1", "--alpha", "0.5"])
        env = json.loads(out)
        again = json.loads(json.dumps(env))
        assert again == env

    def test_out_flag_writes_file(self, tmp_path, capsys):
        path = write_problem(tmp_path)
        target = tmp_path / "result.json"
        code, out, _ = run(capsys, ["classify-line", path, "--xbar", "0",
                                    "--ybar", "1", "--out", str(target)])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["outcome"]["kind"] == "Parabola"


class TestNonFiniteInput:
    """Every number in a problem file is finite and numeric, or exit 2."""

    def check_rejected(self, tmp_path, capsys, field, **overrides):
        path = write_problem(tmp_path, **overrides)
        code, _, err = run(capsys, ["witness", path, "--xu", "1", "--xv", "-1",
                                    "--alpha", "0.5"])
        assert code == 2
        assert f"field: {field}" in err

    def test_dimension(self, tmp_path, capsys):
        self.check_rejected(tmp_path, capsys, "dimension", dimension=True)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), "1", True])
    def test_matrix_entries(self, tmp_path, capsys, bad):
        self.check_rejected(tmp_path, capsys, "P", P=[bad])
        self.check_rejected(tmp_path, capsys, "Q", Q=[bad])

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf"), None])
    def test_vector_entries(self, tmp_path, capsys, bad):
        self.check_rejected(tmp_path, capsys, "p", p=[bad])
        self.check_rejected(tmp_path, capsys, "q", q=[bad])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "0", False])
    def test_constants(self, tmp_path, capsys, bad):
        self.check_rejected(tmp_path, capsys, "p0", p0=bad)
        self.check_rejected(tmp_path, capsys, "q0", q0=bad)

    def test_cone(self, tmp_path, capsys):
        self.check_rejected(tmp_path, capsys, "cone.b",
                            cone={"b": [float("inf"), 0.0], "c": [0.0, 1.0]})
        self.check_rejected(tmp_path, capsys, "cone.c",
                            cone={"b": [1.0, 0.0], "c": [0.0, float("nan")]})

    def test_manifold(self, tmp_path, capsys):
        self.check_rejected(tmp_path, capsys, "manifold.H",
                            manifold={"H": [[float("nan")]], "d": [0.0]})
        self.check_rejected(tmp_path, capsys, "manifold.d",
                            manifold={"H": [[1.0]], "d": [float("inf")]})
        self.check_rejected(tmp_path, capsys, "manifold.x0",
                            manifold={"x0": [float("nan")], "basis": [[1.0]]})
        self.check_rejected(tmp_path, capsys, "manifold.basis[0]",
                            manifold={"x0": [0.0], "basis": [[float("inf")]]})

    @pytest.mark.parametrize("bad", ["abc", float("nan"), float("inf"), 0.0,
                                     -1e-6, None, True])
    def test_tolerance_overrides(self, tmp_path, capsys, bad):
        self.check_rejected(tmp_path, capsys, "tolerances.cert_tol",
                            tolerances={"cert_tol": bad})
        tol_path = tmp_path / "tol.json"
        tol_path.write_text(json.dumps({"cone_tol": bad}))
        code, _, err = run(capsys, ["witness", write_problem(tmp_path), "--xu", "1",
                                    "--xv", "-1", "--alpha", "0.5",
                                    "--tol-config", str(tol_path)])
        assert code == 2
        assert "cone_tol" in err

    @pytest.mark.parametrize("args", [
        ["witness", "--xu", "nan", "--xv", "-1", "--alpha", "0.5"],
        ["witness", "--xu", "1", "--e1=inf,0", "--xv", "-1", "--alpha", "0.5"],
        ["sample", "--count", "2", "--box", "nan"],
        ["verify-convexity", "--trials", "5", "--box", "inf"],
        ["verify-convexity", "--trials", "5", "--rho", "nan"],
    ])
    def test_command_line_values(self, tmp_path, capsys, args):
        path = write_problem(tmp_path)
        code, _, err = run(capsys, args[:1] + [path] + args[1:])
        assert code == 2
        assert "finite" in err


class TestValueFlags:
    @pytest.mark.parametrize("overrides, args, key, expected", [
        ({"dimension": 2, "P": [1.0, 0.0, 0.0, 1.0], "p": [0.0, 0.0],
          "Q": [0.0, 0.0, 0.0, 0.0], "q": [1.0, 0.0]},
         ["witness", "--xu", "-1,2", "--xv", "1,0", "--alpha", "0.5"], "verified", True),
        ({}, ["slemma", "--x-star", "-2e-3"], "outcome", "MultiplierFound"),
        ({"dimension": 2, "P": [1.0, 0.0, 0.0, 1.0], "p": [0.0, 0.0],
          "Q": [0.0, 0.0, 0.0, 0.0], "q": [0.0, 1.0], "q0": -10.0,
          "manifold": {"H": [[1.0, 0.0]], "d": [1.0]}},
         ["verify-convexity", "--trials", "5", "--rho", "-1e-3"], "rho", -1e-3),
    ])
    def test_leading_minus_value(self, tmp_path, capsys, overrides, args, key, expected):
        # argparse takes "-1,2" or "-2e-3" after a flag for an option unless
        # main joins the value to its flag; the envelope keeps the argv as given
        argv = args[:1] + [write_problem(tmp_path, **overrides)] + args[1:]
        code, out, err = run(capsys, argv)
        assert code == 0, err
        env = json.loads(out)
        assert env["outcome"][key] == expected
        assert env["command"] == ["hck"] + argv


class TestOverflow:
    """Finite inputs whose arithmetic overflows certify, or are refused with exit 2."""

    # numpy warns as eval_map overflows, before the member reaches the
    # finiteness check that this test is about
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_member_overflows(self, tmp_path, capsys):
        # F(1e10) = (1e300 * 1e20, 1e10): the member F(x) + e is infinite
        path = write_problem(tmp_path, P=[1e300], Q=[1.0])
        code, out, err = run(capsys, ["witness", path, "--xu", "1e10", "--xv", "1",
                                      "--alpha", "0.5"])
        assert code == 2
        assert out == ""
        assert "not finite" in err

    @pytest.mark.parametrize("big", [1e308, 1.5e308])
    @pytest.mark.parametrize("args", [
        ["witness", "--xu", "1", "--xv", "-1", "--alpha", "0.5"],
        ["verify-convexity", "--trials", "5"],
    ])
    def test_cone_norm(self, tmp_path, capsys, args, big):
        path = write_problem(tmp_path, cone={"b": [big, big], "c": [0.0, 0.0]})
        code, _, err = run(capsys, args[:1] + [path] + args[1:])
        assert code == 2
        assert "field: cone" in err

    @pytest.mark.parametrize("args", [
        ["sample", "--count", "2"],
        ["verify-convexity", "--trials", "5"],
    ])
    def test_box(self, tmp_path, capsys, args):
        path = write_problem(tmp_path)
        code, _, err = run(capsys, args[:1] + [path] + args[1:] + ["--box", "1e308"])
        assert code == 2
        assert "too large" in err

    @pytest.mark.parametrize("args", [
        ["sample", "--count", "2"],
        ["verify-convexity", "--trials", "5"],
    ])
    def test_box_overflows_the_map(self, tmp_path, capsys, args):
        # 2 * 8e307 is finite, but F = (x^2, x) overflows once |x| passes
        # about 1.3e154, so the a-priori bound refuses the radius up front
        path = write_problem(tmp_path)
        code, out, err = run(capsys, args[:1] + [path] + args[1:] + ["--box", "8e307"])
        assert code == 2
        assert out == ""
        assert "too large" in err

    def test_large_finite_box_runs(self, tmp_path, capsys):
        path = write_problem(tmp_path)
        code, out, _ = run(capsys, ["sample", path, "--count", "5", "--box", "1e100"])
        assert code == 0
        assert np.isfinite(np.array(out.split(), dtype=float)).all()
        code, out, _ = run(capsys, ["verify-convexity", path, "--trials", "5",
                                    "--box", "1e100"])
        assert code == 0
        json.loads(out)

    # numpy warns as the products inside QuadraticForm.along overflow, before
    # the coefficients reach the finiteness check that this test is about
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_line_coefficients_overflow(self, tmp_path, capsys):
        # F = (x^2 + 1e154 x, x^2/2 + x) on the line from 1e200 to -1e200:
        # the coefficients are infinite, and the image must not be reported
        # as a point at infinity
        path = write_problem(tmp_path, P=[1.0], p=[1e154], Q=[0.5], q=[1.0])
        code, out, err = run(capsys, ["classify-line", path, "--xbar", "1e200",
                                      "--ybar=-1e200"])
        assert code == 2
        assert out == ""
        assert "InternalNumerics" in err

    def test_flat_image_at_large_scale(self, tmp_path, capsys):
        # F = (1e154 x^2, 2e154 x^2 + 1): the 2x2 products of the flat test
        # overflow unless each row is scaled first, and the ray became a
        # "parabola" with a zero parameter slope
        path = write_problem(tmp_path, P=[1e154], p=[0.0], p0=0.0,
                             Q=[2e154], q=[0.0], q0=1.0)
        code, out, _ = run(capsys, ["witness", path, "--xu", "1", "--xv", "2",
                                    "--alpha", "0.3"])
        assert code == 0
        outcome = json.loads(out)["outcome"]
        assert outcome["branch"] == "RayOrLine" and outcome["verified"] is True
        assert 1.0 <= outcome["x_star"][0] <= 2.0
        code, out, _ = run(capsys, ["classify-line", path, "--xbar", "1", "--ybar", "2"])
        assert code == 0
        assert json.loads(out)["outcome"]["kind"] == "Ray"

    def test_parabola_slope_underflow(self, tmp_path, capsys):
        # the parameter map's slope is about 1e-300, so its square underflows
        # and the implicit conic has no finite coefficients
        path = write_problem(tmp_path, P=[1e154], p=[1.234834287196691],
                             p0=-1.0836343694379411, Q=[1e-300], q=[1e-300],
                             q0=-0.30030738057608364)
        code, out, err = run(capsys, ["classify-line", path,
                                      "--xbar", "0.3475343714620007",
                                      "--ybar", "-0.9547998730939704"])
        assert code == 2
        assert out == ""
        assert "InternalNumerics" in err


def test_import_leaves_scipy_out():
    # numpy is the only dependency; scipy.optimize alone cost more than half
    # of a cold start
    env = dict(os.environ, PYTHONPATH=str(Path(hckit.__file__).resolve().parents[1]))
    code = "import sys, hckit, hckit.cli; sys.exit('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr or "scipy was imported"


@pytest.mark.parametrize("key, field, value", [
    ("outcome", "branch", "Case2"),
    ("outcome", "extra", 1.0),
    ("trace", "residual", "0"),
    ("tolerances", "det_tol", 1e-9),
])
def test_schema_rejects_a_changed_envelope(tmp_path, capsys, key, field, value):
    # run() holds every envelope to the schema; the schema must tell a
    # changed contract from the real one
    _, out, _ = run(capsys, ["witness", write_problem(tmp_path), "--xu", "1",
                             "--xv", "-1", "--alpha", "0.5"])
    env = json.loads(out)
    env[key][field] = value
    assert not ENVELOPE.is_valid(env)


NUMPY_ENVELOPE = """\
{
  "schema_version": "1",
  "command": [
    "hck",
    "witness"
  ],
  "input_digest": "sha256:00000000",
  "outcome": {
    "x": [
      [
        1.0,
        -0.5
      ]
    ],
    "f64": 0.1,
    "i64": 3,
    "pair": [
      1,
      2.5
    ],
    "nested": [
      [
        [
          4,
          5
        ]
      ],
      {
        "f32": 0.10000000149011612
      }
    ]
  },
  "timing_seconds": 0.25,
  "tolerances": {
    "rank_tol": 1e-10,
    "cone_tol": 1e-09,
    "cert_tol": 1e-06
  },
  "trace": {
    "t": [
      -Infinity
    ]
  }
}"""


def test_envelope_text_of_numpy_values():
    # arrays and numpy scalars are converted as json meets them; the text of
    # a fixed envelope is pinned byte for byte
    outcome = {"x": np.array([[1.0, -0.5]]), "f64": np.float64(0.1), "i64": np.int64(3),
               "pair": (np.int64(1), 2.5),
               "nested": [[np.array([4, 5])], {"f32": np.float32(0.1)}]}
    env = result_envelope(["hck", "witness"], "0" * 8, outcome, hckit.DEFAULT_TOLERANCES,
                          0.25, trace={"t": (np.float64(-np.inf),)})
    assert dump_envelope(env) == NUMPY_ENVELOPE
