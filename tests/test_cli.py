import argparse
import hashlib
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dgeo import cli
from dgeo import discrete as dc
from dgeo import lln
from dgeo import qgauss as qg


@pytest.fixture()
def coin_file(tmp_path):
    spec = {"weights": [1.0, 1.0], "gauge": {"kind": "kl"},
            "T": [[1.0, 0.0]], "c": [0.0, 0.0]}
    path = tmp_path / "coin.json"
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.fixture()
def escort_file(tmp_path):
    spec = {"weights": [1.0, 1.0, 1.0], "gauge": {"kind": "escort", "q": 1.5},
            "T": [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]], "c": [0.0, 0.0, 0.0]}
    path = tmp_path / "escort.json"
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.fixture()
def transposed_file(tmp_path):
    # the k = 4 points of R^2 (0.1, 2.0), (0.9, 1.1), ... one coordinate a row: shape (d, k)
    path = tmp_path / "transposed.csv"
    path.write_text("0.1,0.9,-0.4,1.3\n2.0,1.1,-0.7,0.2\n")
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _fresh_main(argv):
    """cli.main(argv) in a fresh interpreter, whose warnings reach stderr as
    they do from the command line."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); from dgeo.cli import main; sys.exit(main({argv!r}))"
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)


# ---------------------------------------------------------------------------
# gauge verbs
# ---------------------------------------------------------------------------


def test_gauge_eval_exp(capsys):
    code, out = run(capsys, "gauge", "eval",
                    "--gauge", '{"kind":"power","q":1.5}', "--fn", "exp", "--x", "0")
    assert code == 0
    assert float(out) == 1.0


def test_gauge_eval_kernel(capsys):
    code, out = run(capsys, "gauge", "eval", "--gauge", '{"kind":"kl"}',
                    "--fn", "d", "--x", "2.0", "--y", "1.0")
    assert code == 0
    assert float(out) == pytest.approx(2 * math.log(2) - 1, rel=1e-12)


@pytest.mark.parametrize("fn, x", [("chi", "-2"), ("ell", "-1e-3"), ("gamma", "0")])
def test_gauge_eval_outside_interval_exits_2(capsys, fn, x):
    code = cli.main(["gauge", "eval", "--gauge", '{"kind":"kl"}', "--fn", fn, "--x", x])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.strip() == "invalid: --x outside the open interval (0.0, inf)"


@pytest.mark.parametrize("gauge", ['{"kind":"kl"}', '{"kind":"scaled_log","lam":2.0}'])
def test_gauge_eval_exp_overflows_to_inf_without_a_warning(capsys, gauge):
    code = cli.main(["gauge", "eval", "--gauge", gauge, "--fn", "exp", "--x", "800"])
    assert code == 0 and capsys.readouterr() == ("inf\n", "")


def test_gauge_conjugate_matches_library(capsys):
    code, out = run(capsys, "gauge", "conjugate", "--gauge", '{"kind":"kl"}',
                    "--x", "1.0")
    assert code == 0
    assert float(out) == pytest.approx(1.0, abs=1e-12)


def test_gauge_equiv_check(capsys):
    code, out = run(capsys, "gauge", "equiv-check", "--gauge", '{"kind":"kl"}',
                    "--lam", "2.0", "--a1", "0.3")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_kernel_defect"] <= 1e-12
    assert payload["max_m_defect"] <= 1e-8


def test_transformed_escort_gauge_checks_without_a_warning():
    # the gauge constructor probes ell' > 0 in t; h'' at tau(t) would read the
    # transformed tau back as (lam tau + a3 - a3)/lam, which is 0 where
    # tau = 1e-18, and divide by zero there
    run = _fresh_main(["gauge", "equiv-check", "--gauge", '{"kind":"escort","q":3}',
                       "--a3", "5", "--lam", "0.2"])
    assert run.returncode == 0 and run.stderr == ""
    assert json.loads(run.stdout)["max_kernel_defect"] <= 1e-12


# ---------------------------------------------------------------------------
# discrete verbs
# ---------------------------------------------------------------------------


def test_discrete_normalize_matches_library(capsys, coin_file):
    code, out = run(capsys, "discrete", "normalize", "--spec", coin_file,
                    "--theta", "0.0")
    assert code == 0
    payload = json.loads(out)
    spec = dc.spec_from_json(json.load(open(coin_file)))
    psi, p = dc.normalize(spec, [0.0])
    assert payload["psi"] == psi
    assert payload["density"] == pytest.approx(list(p), abs=0)


def test_discrete_divergence(capsys, coin_file):
    code, out = run(capsys, "discrete", "divergence", "--spec", coin_file,
                    "--theta", "0.0", "--theta2", str(math.log(3)))
    assert code == 0
    val = json.loads(out)["divergence"]
    spec = dc.spec_from_json(json.load(open(coin_file)))
    _, p = dc.normalize(spec, [0.0])
    _, p2 = dc.normalize(spec, [math.log(3)])
    assert val == dc.divergence(spec, p, p2)


def test_discrete_geometry(capsys, coin_file):
    code, out = run(capsys, "discrete", "geometry", "--spec", coin_file,
                    "--theta", "0.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["metric"][0][0] == pytest.approx(0.25, abs=1e-12)


def test_discrete_hessian_check_ok(capsys, coin_file):
    code, out = run(capsys, "discrete", "hessian-check", "--spec", coin_file,
                    "--theta", "0.0")
    assert code == 0
    assert json.loads(out)["status"] == "ok"


def test_discrete_hessian_check_not_applicable(capsys, escort_file):
    code, out = run(capsys, "discrete", "hessian-check", "--spec", escort_file,
                    "--theta", "0.1,0.1")
    assert code == 2
    assert json.loads(out)["status"] == "not_applicable"


def test_discrete_checks_decline_a_flat_escort_member(capsys, escort_file):
    # at theta = 0 the escort tau-mass has zero gradient but is not constant
    code, out = run(capsys, "discrete", "hessian-check", "--spec", escort_file,
                    "--theta", "0,0")
    assert code == 2
    assert json.loads(out)["status"] == "not_applicable"
    code, _ = run(capsys, "discrete", "canonical-check", "--spec", escort_file,
                  "--theta", "0,0", "--theta2", "0.2,-0.1")
    assert code == 2


def test_discrete_canonical_check(capsys, coin_file):
    code, out = run(capsys, "discrete", "canonical-check", "--spec", coin_file,
                    "--theta", "0.0", "--theta2", "1.0986122886681098")
    assert code == 0
    assert json.loads(out)["defect"] <= 1e-9


def test_discrete_conformal_check(capsys, escort_file):
    code, out = run(capsys, "discrete", "conformal-check", "--spec", escort_file,
                    "--theta", "0.1,-0.2", "--theta2", "0.3,0.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["defect"] <= 1e-7
    assert payload["grad_defect"] <= 1e-8


def test_discrete_conformal_check_wrong_gauge_exits_2(capsys, coin_file, tmp_path):
    spec = json.load(open(coin_file))
    spec["gauge"] = {"kind": "power", "q": 1.5}
    path = tmp_path / "power.json"
    path.write_text(json.dumps(spec))
    code, _ = run(capsys, "discrete", "conformal-check", "--spec", str(path),
                  "--theta", "0.0", "--theta2", "0.5")
    assert code == 2


def test_discrete_project_and_entropy_max(capsys, coin_file):
    code, out = run(capsys, "discrete", "project", "--spec", coin_file,
                    "--rho", "0.9,0.1")
    assert code == 0
    assert json.loads(out)["p"] == pytest.approx([0.9, 0.1], abs=1e-9)
    code, out = run(capsys, "discrete", "entropy-max", "--spec", coin_file,
                    "--rho", "0.9,0.1")
    assert code == 0
    assert json.loads(out)["maximized"] is True


# ---------------------------------------------------------------------------
# qgauss verbs
# ---------------------------------------------------------------------------


def test_qgauss_density_matches_library(capsys):
    code, out = run(capsys, "qgauss", "density", "--q", "1.5", "--d", "1",
                    "--x", "0.3")
    assert code == 0
    p = qg.QGaussianParams(1.5, 1, [0.0], [[1.0]])
    assert json.loads(out)["density"] == qg.density(p, [0.3])


def test_qgauss_lambda(capsys):
    code, out = run(capsys, "qgauss", "lambda", "--q", "1", "--d", "1")
    assert code == 0
    assert json.loads(out)["lambda"] == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)


def test_qgauss_marginal_check(capsys):
    code, out = run(capsys, "qgauss", "marginal-check", "--q", "1.2", "--d", "1",
                    "--k", "1", "--kprime", "1", "--grid", "0.0,0.5,1.0")
    assert code == 0
    assert json.loads(out)["max_defect"] <= 1e-6


def test_qgauss_marginal_check_any_d_and_kprime(capsys):
    code, out = run(capsys, "qgauss", "marginal-check", "--q", "1.5", "--d", "2",
                    "--k", "1", "--kprime", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_defect"] <= 1e-10
    assert set(payload) == {"max_defect", "points", "defects", "abserr"}
    assert [len(row) for row in payload["points"]] == [2] * 9
    assert len(payload["abserr"]) == 9 and max(payload["abserr"]) <= 1e-10
    code, out = run(capsys, "qgauss", "marginal-check", "--q", "1.2", "--d", "2",
                    "--k", "2", "--kprime", "3", "--grid", "0.5", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x_1_1,x_1_2,x_2_1,x_2_2,defect"
    assert lines[1].startswith("0.5,0.5,0.5,0.5,") and len(lines) == 2
    code, _ = run(capsys, "qgauss", "marginal-check", "--q", "1.5", "--d", "1",
                  "--k", "1", "--kprime", "0")
    assert code == 2


def test_qgauss_marginal_check_csv_writes_each_float_as_format_does(capsys):
    # x = 0 and its defect 0.0 take format's own text inside the table
    code, out = run(capsys, "qgauss", "marginal-check", "--q", "1.5", "--k", "1", "--kprime", "1",
                    "--grid", "0,-0.5,3", "--format", "csv")
    p = qg.QGaussianParams(1.5, 1)
    res = qg.marginal_check(qg.repetition(p, 2), qg.repetition(p, 1), xs=[0.0, -0.5, 3.0])
    assert code == 0 and out.splitlines()[1] == "0,0"
    assert out == "x_1,defect\n" + "".join(f"{x:.17g},{e:.17g}\n"
                                           for x, e in zip(res.points[:, 0], res.defects))


def test_qgauss_sample_csv_header_and_determinism(capsys, tmp_path):
    code, out1 = run(capsys, "qgauss", "sample", "--q", "1.5", "--d", "2",
                     "--k", "2", "--n", "4", "--seed", "9")
    assert code == 0
    assert out1.splitlines()[0] == "x_1_1,x_1_2,x_2_1,x_2_2"
    _, out2 = run(capsys, "qgauss", "sample", "--q", "1.5", "--d", "2",
                  "--k", "2", "--n", "4", "--seed", "9")
    assert out1 == out2


def test_qgauss_sample_prints_and_bundles_the_same_csv(capsys, tmp_path):
    # 600 draws cross two 256-row blocks of the CSV writer
    argv = ["qgauss", "sample", "--q", "1.5", "--d", "2", "--k", "2", "--n", "600", "--seed", "4"]
    code, out = run(capsys, *argv)
    draws = qg.sample_joint(qg.repetition(qg.QGaussianParams(1.5, 2), 2), 600, seed=4)
    lines = ["x_1_1,x_1_2,x_2_1,x_2_2"]
    lines += [",".join(f"{x:.17g}" for x in row) for row in draws.reshape(600, -1)]
    assert code == 0 and out == "\n".join(lines) + "\n"
    assert run(capsys, *argv, "--out", str(tmp_path / "b"))[0] == 0
    assert (tmp_path / "b" / "samples.csv").read_bytes() == out.encode()


def test_qgauss_mle_inline(capsys):
    code, out = run(capsys, "qgauss", "mle", "--q", "1.5", "--d", "1", "--k", "3",
                    "--x", "0.3,1.7,-0.5", "--family", "identity_mean_only")
    assert code == 0
    payload = json.loads(out)
    assert payload["v"] == pytest.approx([0.5], abs=1e-9)
    assert payload["defect"] <= 1e-6
    res = qg.mle(1.5, 1, 3, [0.3, 1.7, -0.5])
    assert payload == {"v": res.v.tolist(), "S": res.S.tolist(), "defect": res.defect}
    assert list(payload) == ["v", "S", "defect"]


def test_mle_defect_of_data_near_1e160_is_finite_without_a_warning():
    # in a fresh interpreter, so that a numpy RuntimeWarning would reach stderr:
    # k (v v^T + B) and X^T X, near 3e320 here, leave double range, while the
    # residual's in-range form k B - M, with the scatter M near 2e302, does not
    run = _fresh_main(["qgauss", "mle", "--q", "1.3", "--d", "2", "--k", "3", "--family", "full",
                       "--x", "1.000000001e160,1e160,1e160,1.000000001e160,"
                              "0.999999999e160,0.999999999e160"])
    assert run.returncode == 0 and run.stderr == ""
    payload = json.loads(run.stdout, parse_constant=lambda c: pytest.fail(f"{c} in the JSON"))
    assert math.isfinite(payload["defect"]) and payload["defect"] <= 1e-6


@pytest.mark.parametrize("d,k,texts", [
    (2, 4, ["0.1,2.0\n0.9,1.1\n-0.4,-0.7\n1.3,0.2\n",    # (k, d)
            "0.1,2.0,0.9,1.1,-0.4,-0.7,1.3,0.2\n",          # one row
            "0.1\n2.0\n0.9\n1.1\n-0.4\n-0.7\n1.3\n0.2\n"]),  # one column
    (1, 1, ["0.83\n"]),                                       # one value
], ids=["d2-k4", "d1-k1"])
def test_qgauss_mle_data_file_layouts_fit_as_inline_x(capsys, tmp_path, d, k, texts):
    # a (k, d) file and a flat one, a row or a column, hold the points in the order of --x
    path = tmp_path / "data.csv"
    flat = ",".join(texts[0].split())
    argv = ["qgauss", "mle", "--q", "1.3", "--d", str(d), "--k", str(k), "--family", "full"]
    code, expected = run(capsys, *argv, "--x", flat)
    assert code == 0
    for text in texts:
        path.write_text(text)
        assert run(capsys, *argv, "--data", str(path)) == (0, expected)


def test_qgauss_moments(capsys):
    code, out = run(capsys, "qgauss", "moments", "--q", "1.5", "--d", "1")
    assert code == 0
    payload = json.loads(out)
    law = qg.repetition(qg.QGaussianParams(1.5, 1, [0.0], [[1.0]]), 2)
    assert payload["var"] == qg.central_second(law, 0, 0)
    assert payload["nu_dof"] == 7.0


# ---------------------------------------------------------------------------
# lln verbs
# ---------------------------------------------------------------------------


def test_lln_run_writes_bundle(capsys, tmp_path):
    out_dir = tmp_path / "runA"
    code, out = run(capsys, "lln", "run", "--q", "1.5", "--d", "1", "--v", "0.0",
                    "--k-max", "100", "--reps", "100", "--seed", "42",
                    "--out", str(out_dir))
    assert code == 0
    manifest = json.load(open(out_dir / "manifest.json"))
    names = {f["name"] for f in manifest["files"]}
    assert {"averages.csv", "summary.json", "exceedance.csv"} <= names
    assert manifest["config"]["seed"] == 42
    # identical rerun produces identical hashes
    out_dir2 = tmp_path / "runB"
    run(capsys, "lln", "run", "--q", "1.5", "--d", "1", "--v", "0.0",
        "--k-max", "100", "--reps", "100", "--seed", "42", "--out", str(out_dir2))
    manifest2 = json.load(open(out_dir2 / "manifest.json"))
    h1 = {f["name"]: f["sha256"] for f in manifest["files"]}
    h2 = {f["name"]: f["sha256"] for f in manifest2["files"]}
    assert h1 == h2


def test_lln_bounds_matches_library(capsys):
    code, out = run(capsys, "lln", "bounds", "--q", "1.5", "--d", "1",
                    "--k", "100", "--eps", "0.5")
    assert code == 0
    payload = json.loads(out)
    cfg = lln.SimConfig(q=1.5, d=1, v=(0.0,))
    b = lln.chebyshev_bounds(cfg, 100, 0.5)
    assert payload["bound_F"] == b.bound_F
    assert payload["bound_FF"] == b.bound_FF


def test_lln_config_rejects_simulation_flags(capsys, tmp_path):
    # each simulation flag beside --config is named, even at its default value;
    # without one the config's run is unchanged
    path = tmp_path / "cfg.json"
    path.write_text('{"q": 1.5, "d": 1, "v": [0.0]}')
    base = ["lln", "bounds", "--config", str(path), "--k", "100", "--eps", "0.5"]
    code, out = run(capsys, *base)
    # 4.5e-16 off a 50-digit evaluation of this bound
    assert code == 0 and json.loads(out)["bound_F"] == 6.440117343647522e-05
    for flag, value in (("--q", "2.0"), ("--d", "1"), ("--v", "0"), ("--variant", "identity"),
                        ("--k-max", "10"), ("--reps", "10"), ("--eps-grid", "0.5"),
                        ("--seed", "9"), ("--seed", "0")):
        assert cli.main(base + [flag, value]) == 2
        assert capsys.readouterr().err.strip() == f"invalid: --config would ignore {flag}"
    assert cli.main(["lln", "run", "--config", str(path), "--q", "2.0", "--k-max", "5"]) == 2
    assert capsys.readouterr().err.strip() == "invalid: --config would ignore --q, --k-max"


@pytest.mark.parametrize("verb,own", [("bounds", {"k": 100, "eps": 0.5}),
                                      ("summability", {"eps": 0.5, "k_terms": 1000})])
def test_lln_config_simulation_reaches_the_manifest(capsys, tmp_path, verb, own):
    # the manifest records the simulation that ran, the config file's and not
    # the CLI defaults, beside the verb's own flags
    path = tmp_path / "cfg.json"
    path.write_text('{"q": 2.0, "d": 1, "v": [0.5], "seed": 4}')
    flags = [a for key, val in own.items() for a in (f"--{key.replace('_', '-')}", str(val))]
    code, out = run(capsys, "lln", verb, "--config", str(path), *flags,
                    "--out", str(tmp_path / "b"))
    assert code == 0
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    cfg = lln.SimConfig.from_json(json.loads(path.read_text()))
    assert manifest["config"] == {**cfg.to_json(), **own}
    assert manifest["config"]["q"] == 2.0 and manifest["seed"] == 4


def test_lln_verify(capsys):
    code, out = run(capsys, "lln", "verify", "--q", "1.5", "--d", "1", "--v", "0.0",
                    "--k-max", "100", "--reps", "150", "--seed", "3",
                    "--eps-grid", "0.5,1.0")
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_lln_summability(capsys):
    code, out = run(capsys, "lln", "summability", "--q", "1.5", "--d", "1",
                    "--v", "0.0", "--eps", "0.5", "--k-terms", "10000")
    assert code == 0
    sums = json.loads(out)["partial_sums"]
    assert sums == sorted(sums)


def test_lln_run_workers_bit_identical(tmp_path, capsys):
    cfg_args = ["--q", "1.5", "--d", "1", "--v", "0.0", "--k-max", "100",
                "--reps", "40", "--seed", "5"]
    _, out1 = run(capsys, "lln", "run", *cfg_args, "--workers", "1")
    _, out2 = run(capsys, "lln", "run", *cfg_args, "--workers", "2")
    assert out1 == out2
    cfg_args = ["--q", "1.3", "--d", "2", "--v", "0.5,-0.4", "--variant", "trace_d",
                "--k-max", "300", "--reps", "130", "--seed", "8"]
    files = {}
    for workers in ("1", "2"):
        code, _ = run(capsys, "lln", "run", *cfg_args, "--workers", workers,
                      "--out", str(tmp_path / workers))
        assert code == 0
        files[workers] = [(tmp_path / workers / name).read_bytes()
                          for name in ("averages.csv", "exceedance.csv", "summary.json")]
    assert files["1"] == files["2"]


# Per former common flag: its default, a value given on the command line and
# the Namespace entry that value gives.
COMMON = {"out": (None, "o", "o"), "seed": (0, "3", 3), "workers": (1, "2", 2),
          "tol": (1e-10, "1e-8", 1e-8), "format": ("json", "csv", "csv")}
# Per qgauss verb: its required flags, the Namespace entries they and the
# defaults give, then every flag of the verb set and the entries that gives.
QGAUSS_ARGV = {
    "density": (["--q", "1.5", "--x", "0.3"],
                dict(q=1.5, d=1, v=None, S=None, x="0.3"),
                ["--q", "1.2", "--d", "2", "--v", "0,1", "--S", "2,0;0,1", "--x", "0.3,0.1"],
                dict(q=1.2, d=2, v="0,1", S="2,0;0,1", x="0.3,0.1")),
    "lambda": (["--q", "1.5"], dict(q=1.5, d=1, S=None),
               ["--q", "1.2", "--d", "2", "--S", "2,0;0,1"], dict(q=1.2, d=2, S="2,0;0,1")),
    "marginal-check": (["--q", "1.5", "--k", "1", "--kprime", "2"],
                       dict(q=1.5, d=1, k=1, kprime=2, v=None, S=None, grid=None),
                       ["--q", "1.2", "--d", "2", "--k", "3", "--kprime", "1", "--v", "0,1",
                        "--S", "2,0;0,1", "--grid", "0.5,1"],
                       dict(q=1.2, d=2, k=3, kprime=1, v="0,1", S="2,0;0,1", grid="0.5,1")),
    "sample": (["--q", "1.5", "--k", "2", "--n", "10"],
               dict(q=1.5, d=1, k=2, n=10, v=None, S=None),
               ["--q", "1.2", "--d", "2", "--k", "3", "--n", "4", "--v", "0,1",
                "--S", "2,0;0,1"],
               dict(q=1.2, d=2, k=3, n=4, v="0,1", S="2,0;0,1")),
    "mle": (["--q", "1.5", "--k", "3"],
            dict(q=1.5, d=1, k=3, data=None, x=None, header=False,
                 family="identity_mean_only"),
            ["--q", "1.2", "--d", "2", "--k", "4", "--data", "x.csv", "--x", "1,2",
             "--header", "--family", "full"],
            dict(q=1.2, d=2, k=4, data="x.csv", x="1,2", header=True, family="full")),
    "moments": (["--q", "1.5"], dict(q=1.5, d=1, k=2, i=0, v=None, S=None),
                ["--q", "1.2", "--d", "2", "--k", "5", "--i", "1", "--v", "0,1",
                 "--S", "2,0;0,1"],
                dict(q=1.2, d=2, k=5, i=1, v="0,1", S="2,0;0,1")),
}


# The former common flags (--out --seed --workers --tol --format) each verb
# keeps: the ones its cmd_* function reads.
_DISCRETE = ("normalize", "divergence", "geometry", "hessian-check", "canonical-check",
             "conformal-check", "entropy-max")
KEPT = {
    "gauge eval": "", "gauge conjugate": "", "validate": "",
    "gauge equiv-check": "out seed format",
    **{f"discrete {action}": "out format" for action in _DISCRETE},
    "discrete project": "out tol format",
    **{f"qgauss {action}": "out format" for action in ("density", "lambda", "mle", "moments")},
    "qgauss marginal-check": "out tol format",
    "qgauss sample": "out seed",
    "lln run": "out seed workers format", "lln verify": "out seed workers format",
    "lln bounds": "out seed format", "lln summability": "out seed format",
}


@pytest.mark.parametrize("action", list(QGAUSS_ARGV))
def test_qgauss_parser_namespaces(action):
    required, defaults, full, given = QGAUSS_ARGV[action]
    func = getattr(cli, "cmd_qgauss_" + action.replace("-", "_"))
    kept = KEPT["qgauss " + action].split()
    full += [arg for name in kept for arg in (f"--{name}", COMMON[name][1])]
    for argv, expected in ((required, {**{n: COMMON[n][0] for n in kept}, **defaults}),
                           (full, {**{n: COMMON[n][2] for n in kept}, **given})):
        ns = cli.build_parser().parse_args(["qgauss", action, *argv])
        assert vars(ns) == dict(verb="qgauss", action=action, func=func, **expected)
    for flag in required[::2]:
        i = required.index(flag)
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["qgauss", action, *required[:i], *required[i + 2:]])


def _row_id(row) -> str:
    return " ".join(filter(None, row[:2]))


@pytest.mark.parametrize("row", cli._VERBS, ids=_row_id)
def test_verbs_take_only_the_common_flags_they_read(row, capsys):
    verb, action, func, flags = row
    argv = [verb] + ([action] if action else [])
    for flag in flags:
        name, kwargs = flag if isinstance(flag, tuple) else (flag, cli._FLAGS[flag])
        if not name.startswith("--"):
            argv.append("x.json")
        elif kwargs.get("required"):
            argv += [name, kwargs.get("choices", ["1"])[0]]
    parser = cli.build_parser()
    assert parser.parse_args(argv).func is func
    kept = KEPT[_row_id(row)].split()
    for name, (_, text, value) in COMMON.items():
        if name in kept:
            assert getattr(parser.parse_args(argv + [f"--{name}", text]), name) == value
        else:
            with pytest.raises(SystemExit):
                parser.parse_args(argv + [f"--{name}", text])


def test_manifest_records_only_flags_the_verb_has(capsys, coin_file, tmp_path):
    out_dir = tmp_path / "norm"
    code, _ = run(capsys, "discrete", "normalize", "--spec", coin_file, "--theta", "0.0",
                  "--out", str(out_dir))
    assert code == 0
    manifest = json.load(open(out_dir / "manifest.json"))
    assert manifest["config"] == {"verb": "discrete", "action": "normalize", "spec": coin_file,
                                  "theta": "0.0", "out": str(out_dir), "format": "json"}
    assert manifest["seed"] is None


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    verbs = set()
    for line in block.splitlines():
        if line.startswith("dgeo "):
            ns = cli.build_parser().parse_args(shlex.split(line)[1:])
            verbs.add(" ".join(filter(None, (ns.verb, getattr(ns, "action", None)))))
    assert verbs == set(KEPT)


# ---------------------------------------------------------------------------
# validate / exit codes
# ---------------------------------------------------------------------------


def test_validate_pass(capsys, coin_file):
    code, out = run(capsys, "validate", coin_file)
    assert code == 0
    assert out.strip() == "PASS"


def test_validate_rank_failure(capsys, tmp_path):
    spec = {"weights": [1.0, 1.0, 1.0], "gauge": {"kind": "kl"},
            "T": [[1.0, 0.0, -1.0], [2.0, 1.0, 0.0]],  # row2 = row1 + ones
            "c": [0.0, 0.0, 0.0]}
    path = tmp_path / "bad_rank.json"
    path.write_text(json.dumps(spec))
    code, out = run(capsys, "validate", str(path))
    assert code == 2
    assert "FAIL" in out


def test_validate_qgauss_hypothesis(capsys, tmp_path):
    path = tmp_path / "qcfg.json"
    path.write_text(json.dumps({"q": 0.5, "d": 1}))
    code, out = run(capsys, "validate", str(path))
    assert code == 2


@pytest.mark.parametrize("desc", ['{"kind":"power"}', '{"kind":"power","q":"abc"}',
                                  '["kl"]', '{"kind":"escort","q":NaN}',
                                  '{"kind":"escort","q":200,"lo":1e-4,"hi":1e4}'])
def test_malformed_gauge_descriptor_exits_2(capsys, desc):
    code = cli.main(["gauge", "eval", "--gauge", desc, "--fn", "ell", "--x", "1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("invalid:")


@pytest.mark.parametrize("spec", ['{"weights":[1,1],"gauge":{"kind":"kl"},"T":[[1,0]],"c":"x"}',
                                  '[1,2]'])
def test_malformed_family_spec_exits_2(capsys, tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(spec)
    code = cli.main(["discrete", "normalize", "--spec", str(path), "--theta", "0"])
    assert code == 2
    assert capsys.readouterr().err.startswith("invalid:")
    code, out = run(capsys, "validate", str(path))
    assert code == 2 and out.splitlines()[0] == "FAIL"


@pytest.mark.parametrize("params", ['{"q": "abc", "d": 1}', '{"q": 1.5, "d": "x"}'])
def test_validate_malformed_qgauss_params_exits_2(capsys, tmp_path, params):
    path = tmp_path / "params.json"
    path.write_text(params)
    code, out = run(capsys, "validate", str(path))
    lines = out.splitlines()
    assert code == 2 and len(lines) == 2 and lines[0] == "FAIL"
    assert lines[1].startswith("  - malformed q-Gaussian parameters:")


@pytest.mark.parametrize("config", ['{"q": 1.5, "v": [0]}', '{"q": NaN, "d": 1, "v": [0]}',
                                    '{"q": 1.5, "d": 1, "v": [NaN]}',
                                    '{"q": 1.5, "d": 0, "v": []}',
                                    '{"q": 1.5, "d": 1, "v": [0], "S": [[NaN]]}',
                                    '{"q": 1.5, "d": 1, "v": [0], "seed": 1.5}',
                                    '{"q": 1.5, "d": 1, "v": [0], "seed": true}',
                                    '{"q": 1.5, "d": 1, "v": [0], "seed": -1}',
                                    '{"q": 1.5, "d": 1, "v": [0], "reps": 4294967296}'])
def test_validate_and_lln_run_agree_on_bad_configs(capsys, tmp_path, config):
    path = tmp_path / "cfg.json"
    path.write_text(config)
    code, out = run(capsys, "validate", str(path))
    assert code == 2 and out.splitlines()[0] == "FAIL"
    problem = out.splitlines()[1].removeprefix("  - ")
    code = cli.main(["lln", "run", "--config", str(path)])
    assert code == 2
    assert capsys.readouterr().err.strip() == f"invalid: {problem}"


SEED_VERBS = [
    ("lln", "run", "--q", "1.5", "--k-max", "10", "--reps", "3"),
    ("lln", "bounds", "--q", "1.5", "--k", "10", "--eps", "0.5"),
    ("lln", "verify", "--q", "1.5", "--k-max", "10", "--reps", "100"),
    ("lln", "summability", "--q", "1.5", "--eps", "0.5", "--k-terms", "10"),
    ("qgauss", "sample", "--q", "1.5", "--k", "2", "--n", "3"),
    ("gauge", "equiv-check", "--gauge", '{"kind":"kl"}', "--n", "3"),
]


@pytest.mark.parametrize("argv", SEED_VERBS, ids=lambda a: " ".join(a[:2]))
def test_negative_seed_exits_2(capsys, argv):
    for seed in ("-1", "-4"):
        code = cli.main([*argv, "--seed", seed])
        assert code == 2
        assert capsys.readouterr().err == "invalid: --seed must be a non-negative integer\n"
    with pytest.raises(SystemExit) as exc:  # argparse: not an integer
        cli.main([*argv, "--seed", "1.5"])
    assert exc.value.code == 2
    assert "argument --seed: invalid int value: '1.5'" in capsys.readouterr().err
    # a seed of more than two words is a seed like any other
    assert cli.main([*argv, "--seed", str(3 ** 90)]) == 0


def test_malformed_json_exits_1_with_diagnostic(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"weights": [1, ')
    code = cli.main(["discrete", "normalize", "--spec", str(path), "--theta", "0"])
    err = capsys.readouterr().err
    assert code == 1
    assert "line" in err and "column" in err


def test_domain_error_exits_2(capsys):
    code = cli.main(["qgauss", "lambda", "--q", "3.5", "--d", "1"])
    assert code == 2


_EPS_RULE = "need k >= 1 and a positive finite eps with k**3 eps**4 inside double range"
LOST_SHIFT = "equivalence transform shifts tau or h o tau beyond rounding on the gauge's interval"
_CONJUGATE = "the conjugate at r_star={} leaves double range"


@pytest.mark.parametrize("argv,message", [
    ("qgauss mle --q 1.5 --k 3", "mle needs --data or --x"),
    ("qgauss mle --q 1.5 --k 3 --x 1,2", "data must hold k*d = 3 values, not 2"),
    ("qgauss mle --q 1.5 --k 0 --x ,", "k must be a positive integer"),
    ("qgauss mle --q 1.5 --k 3 --x 1e308,1e308,1e308", "the data's sum leaves double range"),
    ("qgauss mle --q 1.5 --d 2 --k 3 --family full --x 1e200,1,-1e200,2,0,5",
     "the data's scatter leaves double range"),
    ("qgauss mle --q 1.3 --d 2 --k 4 --family full --data {transposed}",
     "data must be of shape (4, 2) or (8,), not (2, 4)"),
    ("qgauss sample --q 1.5 --k 2 --n 0", "n must be a positive integer"),
    ("qgauss sample --q 1.5 --k 2 --n -1", "n must be a positive integer"),
    ("""gauge equiv-check --gauge '{"kind":"kl"}' --n 0""", "--n must be a positive integer"),
    ("qgauss density --q 1.5 --x nan", "points must be finite, with trailing dimension 1"),
    ("discrete project --spec {coin} --rho 0.5,0.5 --tol -1",
     "tol must be a positive finite real"),
    ("discrete project --spec {coin} --rho 0.5,0.5 --tol nan",
     "tol must be a positive finite real"),
    ("lln bounds --q 1.5 --k 100 --eps nan", _EPS_RULE),
    ("lln bounds --q 1.5 --k 100 --eps 1e-320", _EPS_RULE),
    ("lln bounds --q 1.5 --k 100 --eps 1e80", _EPS_RULE),
    (f"lln bounds --q 1.5 --k {10 ** 103} --eps 0.5", _EPS_RULE),
    ("lln summability --q 1.5 --eps 1e-320", _EPS_RULE),
    ("""gauge equiv-check --gauge '{"kind":"kl"}' --a1 nan""",
     "equivalence transform requires finite a1, a2, a3 and lam > 0"),
    ("""gauge equiv-check --gauge '{"kind":"kl"}' --lam inf""",
     "equivalence transform requires finite a1, a2, a3 and lam > 0"),
    ("qgauss moments --q 1.5 --d -1", "d must be a positive integer"),
    ("qgauss marginal-check --q 1.5 --d -1 --k 1 --kprime 1", "d must be a positive integer"),
    ("qgauss sample --q 1.5 --d -1 --k 1 --n 2", "d must be a positive integer"),
    ("qgauss lambda --q 1.5 --d -1", "d must be a positive integer"),
    ("lln run --q 1.5 --d -1 --k-max 10 --reps 2", "d must be a positive integer"),
    ("qgauss density --q 1.5 --d 2 --v 0 --x 0.3,0.1", "v must be finite, of length 2"),
    ("qgauss density --q 1.5 --d 2 --S '1,0;0' --x 0.3,0.1", "S must be square"),
    ("qgauss lambda --q 1.5 --d 2 --S '1,0;0'", "S must be square"),
    ("""gauge equiv-check --gauge '{"kind":"kl"}' --lam 1e308""",
     "equivalence transform overflows on the gauge's interval"),
    ("""gauge equiv-check --gauge '{"kind":"kl"}' --a1 1e308""",
     "equivalence transform overflows on the gauge's interval"),
    ("""gauge equiv-check --gauge '{"kind":"kl"}' --a2 1e308""", LOST_SHIFT),
    ("""gauge equiv-check --gauge '{"kind":"kl"}' --a2 -1e308""", LOST_SHIFT),
    ("""gauge equiv-check --gauge '{"kind":"kl"}' --a3 1e308""", LOST_SHIFT),
    ("""gauge equiv-check --gauge '{"kind":"kl"}' --a3 -1e308""", LOST_SHIFT),
    ("""gauge conjugate --gauge '{"kind":"kl"}' --x -800""", _CONJUGATE.format(-800.0)),
    ("""gauge conjugate --gauge '{"kind":"scaled_log","lam":2.0}' --x 400""",
     _CONJUGATE.format(400.0)),
    ("""gauge conjugate --gauge '{"kind":"scaled_log","lam":2.0}' --x -400""",
     _CONJUGATE.format(-400.0)),
    ("""gauge conjugate --gauge '{"kind":"power","q":0.5}' --x 1e308""", _CONJUGATE.format(1e308)),
    ("""gauge conjugate --gauge '{"kind":"escort","q":1.5}' --x -1e308""",
     _CONJUGATE.format(-1e308)),
    ("""gauge eval --gauge '{"kind":"kl"}' --fn s --x 1e308""",
     "s at x=1e+308 leaves double range"),
    ("""gauge eval --gauge '{"kind":"scaled_log","lam":2.0}' --fn s --x 1e300""",
     "s at x=1e+300 leaves double range"),
    ("""gauge eval --gauge '{"kind":"power","q":1.5}' --fn m --x 1e-310""",
     "m at x=1e-310 leaves double range"),
    ("""gauge eval --gauge '{"kind":"kl"}' --fn d --x 1 --y 1e308""",
     "d at x=1.0, y=1e+308 leaves double range"),
    ("""gauge eval --gauge '{"kind":"kl"}' --fn d --x 1e308 --y 1""",
     "d at x=1e+308, y=1.0 leaves double range"),
    *((f"""gauge eval --gauge '{gauge}' --fn exp --x={x}""", "u must be finite")
      for gauge in ('{"kind":"kl"}', '{"kind":"power","q":0.5}', '{"kind":"power","q":1.5}')
      for x in ("nan", "inf", "-inf")),
    # a negative non-finite value written apart from its flag reaches the verb too
    *((f"""gauge eval --gauge '{{"kind":"kl"}}' --fn exp --x {x}""", "u must be finite")
      for x in ("-inf", "-Infinity", "-nan", "-NAN")),
    ("""gauge eval --gauge '{"kind":"escort","q":60}' --fn ell --x 1""",
     "tau' leaves double range on I for gauge 'escort(60)'"),
    ("""gauge eval --gauge '{"kind":"power","q":1e308}' --fn ell --x 1""",
     "ell' = h''(tau) tau' leaves double range on I for gauge 'power(1e+308)'"),
    ("""gauge eval --gauge '{"kind":"scaled_log","lam":1e308}' --fn ell --x 1""",
     "tau' leaves double range on I for gauge 'scaled_log(1e+308)'"),
], ids=["mle-no-data", "mle-wrong-count", "mle-k-0", "mle-sum-overflow",
        "mle-scatter-overflow", "mle-data-transposed", "sample-n-0", "sample-n-negative",
        "equiv-n-0", "density-nan", "project-tol-negative", "project-tol-nan", "bounds-eps-nan",
        "bounds-eps-underflow", "bounds-eps-overflow", "bounds-k-overflow",
        "summability-eps-underflow", "equiv-a1-nan", "equiv-lam-inf", "moments-d-negative",
        "marginal-d-negative", "sample-d-negative", "lambda-d-negative", "lln-run-d-negative",
        "density-v-short", "density-S-ragged", "lambda-S-ragged", "equiv-lam-overflow",
        "equiv-a1-overflow", "equiv-a2-lost", "equiv-a2-negative-lost", "equiv-a3-lost",
        "equiv-a3-negative-lost", "conjugate-kl-t-underflow", "conjugate-scaled-log-tau-overflow",
        "conjugate-scaled-log-tau-underflow", "conjugate-power-t-overflow",
        "conjugate-escort-t-underflow", "eval-kl-s-overflow", "eval-scaled-log-s-nan",
        "eval-power-m-overflow", "eval-kl-d-nan", "eval-kl-d-overflow",
        *(f"eval-{g}-exp-{x}" for g in ("kl", "power0.5", "power1.5")
          for x in ("nan", "inf", "-inf")),
        *(f"eval-kl-exp-spaced{x}" for x in ("-inf", "-Infinity", "-nan", "-NAN")),
        "escort-q-60", "power-q-1e308", "scaled-log-lam-1e308"])
def test_bad_input_exits_2_with_message(capsys, coin_file, transposed_file, argv, message):
    argv = argv.replace("{coin}", coin_file).replace("{transposed}", transposed_file)
    code = cli.main(shlex.split(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"invalid: {message}\n"


@pytest.mark.parametrize("argv,code", [
    ("discrete normalize --spec {escort} --theta -0.1,0.3", 0),
    ("discrete normalize --spec {coin} --theta -1e-1", 0),
    ("discrete divergence --spec {escort} --theta 0.1,0.2 --theta2 -0.1,0.3", 0),
    ("discrete project --spec {escort} --rho -0.2,0.7,0.5", 2),
    ("qgauss density --q 1.5 --d 2 --v -0.5,0.2 --x 0.3,0.1", 0),
    ("qgauss density --q 1.5 --d 2 --x -0.3,0.1", 0),
    ("qgauss marginal-check --q 1.5 --k 1 --kprime 1 --grid -0.5,0.5", 0),
    ("lln bounds --q 1.5 --k 100 --eps 0.5 --eps-grid -0.5,1.0", 2),
    ("qgauss lambda --q 1.5 --d 2 --S -1,0;0,1", 2),
    ("""gauge eval --gauge '{{"kind":"kl"}}' --fn d --x 0.5 --y -1e-3""", 2),
    ("""gauge equiv-check --gauge '{{"kind":"kl"}}' --a1 -1e-3 --n 2""", 0),
    ("""gauge equiv-check --gauge '{{"kind":"kl"}}' --a2 -.5 --n 2""", 0),
    ("""gauge equiv-check --gauge '{{"kind":"kl"}}' --lam -1e-3 --n 2""", 2),
    ("discrete normalize --spec {escort} --theta -inf,0.3", 2),
    ("qgauss density --q 1.5 --x -nan", 2),
    ("""gauge eval --gauge '{{"kind":"kl"}}' --fn exp --x -Infinity""", 2),
], ids=["theta", "theta-exponent", "theta2", "rho", "v", "x", "grid", "eps-grid", "S", "y",
        "a1", "a2-dot", "lam", "theta-minus-inf", "x-minus-nan", "x-minus-infinity"])
def test_negative_values_reach_the_verb(capsys, coin_file, escort_file, argv, code):
    # argparse takes "-0.1,0.3" or "-1e-3" for an option; the value must reach
    # the verb, which either runs (0) or rejects it with its own message (2)
    argv = shlex.split(argv.format(coin=coin_file, escort=escort_file))
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err == "" if code == 0 else err.startswith("invalid: ")


def test_mle_data_with_a_non_numeric_field_exits_1(capsys, tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n1,x\n")
    code = cli.main(["qgauss", "mle", "--q", "1.5", "--k", "2", "--data", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(f"error: {path}: could not convert string 'a'")


@pytest.mark.parametrize("text,header", [("", False), ("\n\n", False), ("x\n", True)],
                         ids=["empty", "blank-lines", "header-only"])
def test_mle_data_file_without_values_exits_2_without_a_warning(tmp_path, text, header):
    # in a fresh interpreter, so that numpy's "loadtxt: input contained no
    # data" UserWarning would reach stderr as it does from the command line
    path = tmp_path / "data.csv"
    path.write_text(text)
    argv = ["qgauss", "mle", "--q", "1.5", "--k", "3", "--data", str(path)] + ["--header"] * header
    run = _fresh_main(argv)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr == "invalid: data must hold k*d = 3 values, not 0\n"


def test_non_finite_q_exits_2(capsys):
    code = cli.main(["qgauss", "density", "--q", "nan", "--d", "1", "--x", "0.3"])
    assert code == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("theta", ["nan", "inf"])
def test_non_finite_theta_exits_2(capsys, coin_file, theta):
    code = cli.main(["discrete", "normalize", "--spec", coin_file, "--theta", theta])
    assert code == 2
    assert "finite" in capsys.readouterr().err


def test_csv_format_flag(capsys):
    code, out = run(capsys, "qgauss", "marginal-check", "--q", "1.2", "--d", "1",
                    "--k", "1", "--kprime", "1", "--grid", "0.0,0.5",
                    "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x_1,defect"
    assert len(lines) == 3
    code, out = run(capsys, "lln", "verify", "--q", "1.5", "--d", "1", "--v", "0.0",
                    "--k-max", "100", "--reps", "120", "--seed", "3",
                    "--eps-grid", "0.5", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("k,eps,stat")
    code, out = run(capsys, "lln", "bounds", "--q", "1.5", "--d", "1",
                    "--k", "10", "--eps", "0.5", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "key,value"


def test_result_bundle_written_for_json_commands(capsys, tmp_path):
    out_dir = tmp_path / "res"
    code, _ = run(capsys, "qgauss", "lambda", "--q", "1.5", "--d", "1",
                  "--out", str(out_dir))
    assert code == 0
    manifest = json.load(open(out_dir / "manifest.json"))
    assert manifest["files"][0]["name"] == "result.json"
    assert (out_dir / "result.json").exists()


# Cheap arguments for each verb that prints through _emit, and the bundle file
# that holds its stdout where that is not result.json / result.csv (None: the
# verb bundles other files than the one it prints)
EMIT_ARGV = {
    "gauge equiv-check": """--gauge '{{"kind":"kl"}}' --a1 0.3 --n 3""",
    "discrete normalize": "--spec {coin} --theta 0.2",
    "discrete divergence": "--spec {coin} --theta 0.2 --theta2 -0.1",
    "discrete geometry": "--spec {coin} --theta 0.2",
    "discrete hessian-check": "--spec {coin} --theta 0.2",
    "discrete canonical-check": "--spec {coin} --theta 0.2 --theta2 -0.1",
    "discrete conformal-check": "--spec {escort} --theta 0.2,0.1 --theta2 0.1,0.3",
    "discrete project": "--spec {escort} --rho 0.2,0.3,0.5",
    "discrete entropy-max": "--spec {escort} --rho 0.2,0.3,0.5",
    "qgauss density": "--q 1.5 --d 2 --x 0.3,0.1",
    "qgauss lambda": "--q 1.5 --d 2",
    "qgauss marginal-check": "--q 1.5 --k 1 --kprime 1 --grid 0,0.5",
    "qgauss sample": "--q 1.5 --d 2 --k 2 --n 3 --seed 4",
    "qgauss mle": "--q 1.5 --k 3 --x 0.3,1.7,-0.5",
    "qgauss moments": "--q 1.5",
    "lln run": "--q 1.5 --k-max 50 --reps 100 --seed 2",
    "lln bounds": "--q 1.5 --k 100 --eps 0.5",
    "lln verify": "--q 1.5 --k-max 100 --reps 150 --seed 3 --eps-grid 0.5,1.0",
    "lln summability": "--q 1.5 --eps 0.5 --k-terms 1000",
}
PRINTED_FILE = {("lln run", "json"): "summary.json", ("lln run", "csv"): "averages.csv",
                ("lln verify", "json"): None, ("lln verify", "csv"): "exceedance.csv",
                ("qgauss sample", "json"): None}
EMIT_CASES = [(verb, fmt) for verb in EMIT_ARGV
              for fmt in (("json", "csv") if "format" in KEPT[verb] else ("json",))]


def test_emit_cases_cover_every_verb_with_out():
    assert set(EMIT_ARGV) == {verb for verb, kept in KEPT.items() if "out" in kept.split()}


@pytest.mark.parametrize("verb,fmt", EMIT_CASES, ids=[f"{v}-{f}" for v, f in EMIT_CASES])
def test_bundle_holds_what_was_printed(capsys, coin_file, escort_file, tmp_path, verb, fmt):
    argv = verb.split() + shlex.split(EMIT_ARGV[verb].format(coin=coin_file, escort=escort_file))
    if "format" in KEPT[verb]:
        argv += ["--format", fmt]
    out_dir = tmp_path / "bundle"
    code, out = run(capsys, *argv, "--out", str(out_dir))
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    for entry in manifest["files"]:
        data = (out_dir / entry["name"]).read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (entry["bytes"], entry["sha256"])
    name = PRINTED_FILE.get((verb, fmt), f"result.{fmt}")
    if name is not None:
        assert name in [entry["name"] for entry in manifest["files"]]
        assert (out_dir / name).read_text() == out


def _moments_listed(coin, escort):
    law = qg.repetition(qg.QGaussianParams(1.5, 1), 2)
    mom = qg.coordinate_moments(law, 0)
    ey4, ey22 = qg.fi_pair_moments(law, 0)
    ez2, ez12 = qg.fij_pair_moments(law, 0, 0)
    return {"mean": mom.mean, "var": mom.var, "central4": mom.central4,
            "raw2": mom.raw2, "raw4": mom.raw4,
            "pair": {"EY4": ey4, "EY22": ey22, "EZ2": ez2, "EZ12": ez12},
            "nu_dof": law.nu_dof}, None


def _marginal_listed(coin, escort):
    p = qg.QGaussianParams(1.5, 1)
    res = qg.marginal_check(qg.repetition(p, 2), qg.repetition(p, 1), xs=[0.0, 0.5])
    return ({"max_defect": res.max_defect, "points": res.points,
             "defects": res.defects, "abserr": res.abserr},
            "x_1,defect\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                                     for row in np.column_stack([res.points, res.defects])))


def _verify_listed(coin, escort):
    cfg = lln.SimConfig(q=1.5, d=1, v=(0.0,), k_max=100, reps=150, seed=3, eps_grid=(0.5, 1.0))
    table = lln.verify_bounds(cfg, lln.run_lln(cfg))
    rows = [{"k": r.k, "eps": r.eps, "stat": r.stat, "exceedance": r.exceedance,
             "wilson_lo": r.wilson_lo, "wilson_hi": r.wilson_hi, "bound": r.bound,
             "passed": r.passed, "note": r.note} for r in table.rows]
    return {"all_pass": table.all_pass, "rows": rows}, table.to_csv()


def _hessian_listed(coin, escort):
    rep = dc.hessian_check(dc.spec_from_json(json.loads(Path(coin).read_text())), [0.2])
    return {"theta": rep.theta.tolist(), "g": rep.g.tolist(),
            "christoffel_raw": rep.christoffel_raw.tolist(), "potential": rep.potential,
            "hess_potential": None if rep.hess_potential is None else rep.hess_potential.tolist(),
            "max_defect": rep.max_defect,
            "connection_max": rep.connection_max, "itau_gradient": rep.itau_gradient,
            "status": rep.status, "message": rep.message}, None


def _conformal_listed(coin, escort):
    res = dc.conformal_check(dc.spec_from_json(json.loads(Path(escort).read_text())),
                             [0.2, 0.1], [0.1, 0.3])
    return {"defect": res.defect, "grad_defect": res.grad_defect, "itau": res.itau}, None


def _project_listed(coin, escort):
    res = dc.pythagorean_project(dc.spec_from_json(json.loads(Path(escort).read_text())),
                                 [0.2, 0.3, 0.5])
    return {"theta": res.theta, "p": res.p, "moment_residual": res.moment_residual,
            "itau_residual": res.itau_residual, "iterations": res.iterations}, None


def _bounds_listed(coin, escort):
    b = lln.chebyshev_bounds(lln.SimConfig(q=1.5, d=1, v=(0.0,)), 100, 0.5)
    return {"bound_F": b.bound_F, "bound_FF": b.bound_FF}, None


def _summability_listed(coin, escort):
    s = lln.borel_cantelli_summability(lln.SimConfig(q=1.5, d=1, v=(0.0,)), 0.5, k_terms=1000)
    return {"eps": s.eps, "checkpoints": [int(k) for k in s.checkpoints],
            "partial_sums": [float(x) for x in s.partial_sums],
            "terms_times_k2": [float(t) for t in s.terms_times_k2],
            "final_relative_change": s.final_relative_change}, None


# Per verb that prints a library result: the payload (and the CSV, where the
# verb has its own) with the result's fields listed one by one, for the
# arguments of EMIT_ARGV.  The verb prints the result's dataclass fields, which
# must give the same text, keys in the same order, under both formats.
LISTED = {"discrete hessian-check": _hessian_listed,
          "discrete conformal-check": _conformal_listed,
          "discrete project": _project_listed,
          "qgauss marginal-check": _marginal_listed,
          "qgauss moments": _moments_listed,
          "lln bounds": _bounds_listed,
          "lln verify": _verify_listed,
          "lln summability": _summability_listed}
LISTED_CASES = [(verb, fmt) for verb in LISTED for fmt in ("json", "csv")]


@pytest.mark.parametrize("verb,fmt", LISTED_CASES, ids=[f"{v}-{f}" for v, f in LISTED_CASES])
def test_result_prints_as_its_listed_fields(capsys, coin_file, escort_file, verb, fmt):
    argv = verb.split() + shlex.split(EMIT_ARGV[verb].format(coin=coin_file, escort=escort_file))
    _, out = run(capsys, *argv, "--format", fmt)
    payload, csv = LISTED[verb](coin_file, escort_file)
    cli._emit(payload, argparse.Namespace(format=fmt), csv=csv)
    assert out == capsys.readouterr().out
