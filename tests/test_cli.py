import json
import re

import numpy as np
import pytest

from curvevar.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--k", "2", "--r", "2.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "curvevar/1"
    assert payload["lambda"] == pytest.approx(1.5)
    assert payload["multiplicity"] == 6


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "energy", "--surface", "sphere:r=1", "--density", "willmore")
    _, out2, _ = run(capsys, "energy", "--surface", "sphere:r=1", "--density", "willmore")
    assert out1 == out2


def test_first_variation_with_oracle(capsys):
    code, out, _ = run(
        capsys,
        "first-variation",
        "--surface", "torus:R=2,a=1",
        "--density", "bending",
        "--u", "random:seed=3",
        "--oracle",
        "--nu", "64", "--nv", "32",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle"]["rel_error"] < 1e-4


def test_first_variation_oracle_with_csv_field(tmp_path, capsys):
    """A field read from a CSV has grid values only; on an open chart its
    oracle agrees with the formula as the same field given as
    random:seed=3 does (rel_error 4.5e-8 measured for both)."""
    code, out, _ = run(
        capsys,
        "first-variation",
        "--surface", "graph",
        "--density", "bending",
        "--u", _graph_field_csv(tmp_path / "u.csv"),
        "--oracle",
    )
    assert code == 0
    oracle = json.loads(out)["oracle"]
    assert oracle["rel_error"] < 1e-5
    assert oracle["convergence_order"] >= 1.9


def _grid_csv(path, rows):
    path.write_text("u,v,value\n" + "".join(rows))
    return str(path)


def test_validation_errors_exit_1(tmp_path, capsys):
    assert run(capsys, "energy", "--surface", "nope:r=1", "--density", "willmore")[0] == 1
    assert run(capsys, "energy", "--surface", "sphere:r=1")[0] == 1  # no density
    assert run(capsys, "energy", "--surface", "sphere:r=1", "--density", "pwillmore")[0] == 1  # no p
    assert run(capsys, "first-variation", "--surface", "sphere:r=1", "--density", "willmore", "--u", "junk")[0] == 1
    # malformed numbers, a missing file and malformed CSV contents give a
    # one-line message, never a traceback
    fv = ("first-variation", "--surface", "sphere:r=1", "--density", "willmore", "--nu", "16", "--nv", "16", "--u")
    no_value = tmp_path / "uv.csv"
    no_value.write_text("u,v\n" + "0,0\n" * 256)
    cases = [
        ("energy", "--surface", "sphere:r=abc", "--density", "willmore"),
        (*fv, "random:seed=x"),
        (*fv, str(tmp_path / "missing.csv")),
        (*fv, _grid_csv(tmp_path / "letters.csv", ["0,0,abc\n"] * 256)),
        (*fv, str(no_value)),
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("curvevar: ") and "Traceback" not in err, (argv, err)


@pytest.mark.parametrize(
    "surface,grid,message",
    [
        ("sphere:r=nan", (), "'r' must be finite"),
        ("sphere:r=inf", (), "'r' must be finite"),
        ("sphere:q=2", (), "sphere takes no parameter 'q'"),
        ("torus:r=2", (), "torus takes no parameter 'r'"),
        ("sphere:r=1", ("--nu", "33", "--nv", "16"), "even nu"),
    ],
)
def test_bad_surface_parameters_and_grids_exit_1(surface, grid, message, capsys):
    code, out, err = run(capsys, "energy", "--surface", surface, "--density", "willmore", *grid)
    assert code == 1 and out == ""
    assert err.startswith("curvevar: ") and message in err and "Traceback" not in err


def test_non_finite_field_csv_names_the_node(tmp_path, capsys):
    rows = ["0,0,1.5\n"] * 256
    rows[16 * 3 + 5] = "0,0,nan\n"
    fv = ("first-variation", "--surface", "sphere", "--density", "willmore", "--nu", "16", "--nv", "16", "--u")
    code, out, err = run(capsys, *fv, _grid_csv(tmp_path / "u.csv", rows))
    assert code == 1 and out == ""
    assert "node (3, 5)" in err
    # the same grid with finite values is accepted
    rows[16 * 3 + 5] = "0,0,1.5\n"
    code, out, _ = run(capsys, *fv, _grid_csv(tmp_path / "ok.csv", rows))
    assert code == 0 and np.isfinite(json.loads(out)["value"])


def test_not_critical_exits_2(capsys):
    code, _, err = run(
        capsys,
        "second-variation",
        "--surface", "torus:R=2,a=1",
        "--density", "willmore",
        "--u", "random:seed=1",
    )
    assert code == 2
    assert "critical" in err


def test_not_critical_reports_how_far_off(capsys):
    """The refusal names the sup EL residual, its bound and the mean
    residual on stderr; stdout stays empty and the exit code 2."""
    code, out, err = run(
        capsys,
        "second-variation",
        "--surface", "torus:R=2,a=1",
        "--density", "willmore",
        "--u", "random:seed=1",
    )
    assert code == 2 and out == ""
    number = r"-?\d\.\d{3}e[+-]\d\d"
    assert re.search(rf"sup \|EL residual\| = {number}, bound {number}, mean residual -?[\d.e+-]+\)", err), err


def test_second_variation_force(capsys):
    code, out, _ = run(
        capsys,
        "second-variation",
        "--surface", "torus:R=2,a=1",
        "--density", "willmore",
        "--u", "random:seed=1",
        "--force",
        "--nu", "64", "--nv", "32",
    )
    assert code == 0
    assert "note" in json.loads(out)


def test_config_file_merge(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"surface": "sphere:r=2", "density": "willmore"}))
    code, out, _ = run(capsys, "energy", "--config", str(conf))
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(4 * 3.141592653589793, abs=1e-8)
    # explicit flags win over the config file
    code, out, _ = run(capsys, "energy", "--config", str(conf), "--density", "bending")
    assert json.loads(out)["density"] == "bending"


def test_config_unknown_key(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"surfface": "sphere:r=1"}))
    assert run(capsys, "energy", "--config", str(conf))[0] == 1


def test_csv_output(capsys):
    code, out, _ = run(capsys, "spectrum", "--k", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("lambda,") for line in lines)


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "spectrum", "--k", "1", "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["lambda"] == 2.0


def test_sphere_stability_cli(capsys):
    code, out, _ = run(capsys, "sphere-stability", "--p", "3", "--lmax", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "unstable in first eigenspace"
    assert payload["index_by_l"]["2"][0] == pytest.approx(26.0, abs=1e-8)


def test_poincare_cli(capsys):
    code, out, _ = run(capsys, "poincare", "--u", "harmonic:3,0")
    assert code == 0
    assert json.loads(out)["passes"] is True


def _former_csv(sample, columns: dict) -> str:
    """The CSV as rows of Python floats, each formatted with .17g."""
    UU, VV = sample.domain.meshes()
    lines = [",".join(["u", "v"] + list(columns))]
    cols = [UU.ravel(), VV.ravel()] + [np.asarray(c).ravel() for c in columns.values()]
    for values in zip(*cols):
        lines.append(",".join(f"{float(v):.17g}" for v in values))
    return "\n".join(lines) + "\n"


def test_field_csv_is_byte_identical_to_per_value_formatting(tmp_path, capsys):
    from curvevar import curvature_scalars, default_domain, el_residual, sample_builtin
    from curvevar.densities import willmore

    cat = sample_builtin("catenoid", {}, domain=default_domain("catenoid", {}, 32, 16))
    cs = curvature_scalars(cat)
    code, out, _ = run(capsys, "curvature", "--surface", "catenoid", "--nu", "32", "--nv", "16", "--format", "csv")
    assert code == 0
    assert out == _former_csv(cat, {"H": cs.H, "K": cs.K, "K_E": cs.K_E})

    sph = sample_builtin("sphere", {"r": 1.5}, domain=default_domain("sphere", {}, 32, 16))
    res = el_residual(sph, willmore())
    target = tmp_path / "res.csv"
    argv = ("el-residual", "--surface", "sphere:r=1.5", "--density", "willmore", "--nu", "32", "--nv", "16", "--format", "csv")
    assert run(capsys, *argv, "--output", str(target))[0] == 0
    assert target.read_bytes() == _former_csv(sph, {"residual": res.values}).encode()


def test_field_csv_formats_special_values_like_python_floats(capsys):
    from types import SimpleNamespace

    from curvevar.cli import _emit

    data = np.array([[-0.0, np.nan, np.inf, -np.inf, 1e-300, 0.1, 2.0 / 3.0, 1e22, 123456789.0]])
    _emit(SimpleNamespace(format="csv", output=None), {}, rows=(["a"] * data.shape[1], data))
    want = ",".join(f"{float(v):.17g}" for v in data[0])
    assert capsys.readouterr().out.splitlines()[1] == want


COLD_COMMANDS = [
    [],  # import only
    ["energy", "--surface", "torus:R=2,a=1", "--density", "bending"],
    ["energy", "--surface", "sphere:r=1", "--density", "willmore"],
    ["energy", "--surface", "clifford_torus_S3", "--density", "willmore", "--k0", "1"],
    ["curvature", "--surface", "catenoid", "--format", "csv"],
    ["el-residual", "--surface", "sphere:r=1.5", "--density", "willmore"],
    ["second-variation", "--surface", "sphere:r=1", "--density", "pwillmore", "--p", "3", "--u", "harmonic:2,0"],
    ["first-variation", "--surface", "catenoid", "--density", "bending", "--u", "random:seed=3"],
    pytest.param(
        ["first-variation", "--surface", "graph", "--density", "bending", "--u", "{csv}", "--oracle"],
        id="first-variation --surface graph csv oracle",
    ),
    ["sphere-stability", "--p", "3"],
    ["spectrum", "--k", "2"],
]


def _graph_field_csv(path) -> str:
    """A compactly supported random field on the default graph grid, given
    as grid values only."""
    from curvevar import export_field_csv, random_smooth_field, sample_builtin

    export_field_csv(random_smooth_field(sample_builtin("graph", {}), 3, compact_v=True), path)
    return str(path)


@pytest.mark.parametrize("argv", COLD_COMMANDS, ids=lambda a: " ".join(a[:2]) or "import")
def test_cold_path_never_imports_sympy(argv, tmp_path):
    """Built-in surfaces, densities and fields need no symbolic algebra,
    and nothing needs scipy (a field read from a CSV included)."""
    import os
    import subprocess
    import sys

    import curvevar

    if "{csv}" in argv:
        argv = [_graph_field_csv(tmp_path / "u.csv") if a == "{csv}" else a for a in argv]
    src = os.path.dirname(os.path.dirname(curvevar.__file__))
    code = (
        "import contextlib, io, sys\n"
        "import curvevar, curvevar.cli\n"
        "argv = sys.argv[1:]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = curvevar.cli.main(argv) if argv else 0\n"
        "assert rc == 0, rc\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
