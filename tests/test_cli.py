import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hckit
from hckit import cli
from hckit.problemio import parse_problem


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


def run(capsys, args):
    code = cli.main(args)
    out = capsys.readouterr()
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

    def test_cone_element_validated(self, tmp_path, capsys):
        path = write_problem(tmp_path)
        code, _, err = run(capsys, [
            "witness", path, "--xu", "1", "--e1=-1,0", "--xv", "-1",
            "--alpha", "0.5"])
        assert code == 2
        assert "cone" in err.lower()

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
        code, out, _ = run(capsys, [
            "witness", path, "--verify-envelope", str(env_path)])
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
                   "jacobi_max_sweeps": 100, "class_tol": 1e-9, "on_tol": 1e-7}
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
        assert len(listed) == 10

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
        tol_path.write_text(json.dumps({"det_tol": bad}))
        code, _, err = run(capsys, ["witness", write_problem(tmp_path), "--xu", "1",
                                    "--xv", "-1", "--alpha", "0.5",
                                    "--tol-config", str(tol_path)])
        assert code == 2
        assert "det_tol" in err

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


class TestOverflow:
    """Finite inputs whose arithmetic overflows certify, or are refused with exit 2."""

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

    def test_flat_image_at_large_scale(self, tmp_path, capsys):
        # F = (1e154 x^2, 2e154 x^2 + 1): the 2x2 products of the flat test
        # overflow unless each row is scaled first, and the ray became a
        # "parabola" with a zero parameter slope
        path = write_problem(tmp_path, P=[1e154], p=[0.0], p0=0.0,
                             Q=[2e154], q=[0.0], q0=1.0)
        code, out, _ = run(capsys, ["witness", path, "--xu", "1", "--xv", "2",
                                    "--alpha", "0.3"])
        assert code == 0
        outcome = json.loads(out, parse_constant=_refuse_constant)["outcome"]
        assert outcome["branch"] == "RayOrLine" and outcome["verified"] is True
        assert 1.0 <= outcome["x_star"][0] <= 2.0
        code, out, _ = run(capsys, ["classify-line", path, "--xbar", "1", "--ybar", "2"])
        assert code == 0
        assert json.loads(out, parse_constant=_refuse_constant)["outcome"]["kind"] == "Ray"

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


def _refuse_constant(name):
    raise ValueError(f"envelope holds the non-finite number {name}")


def test_import_leaves_scipy_out():
    # numpy is the only dependency; scipy.optimize alone cost more than half
    # of a cold start
    env = dict(os.environ, PYTHONPATH=str(Path(hckit.__file__).resolve().parents[1]))
    code = "import sys, hckit, hckit.cli; sys.exit('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr or "scipy was imported"
