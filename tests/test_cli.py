import json
import re

import numpy as np
import pytest

from curvevar.cli import main
from curvevar.variations import _EVOLUTION_QUANTITIES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """The JSON payload of a subcommand, refusing NaN, Infinity and
    -Infinity, which strict JSON parsers reject."""
    return json.loads(text, parse_constant=_refuse_constant)


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--k", "2", "--r", "2.0")
    assert code == 0
    payload = strict_json(out)
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
    payload = strict_json(out)
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
    oracle = strict_json(out)["oracle"]
    assert oracle["rel_error"] < 1e-5
    assert oracle["convergence_order"] >= 1.9


def _grid_csv(path, values, name="sphere", nu=16, nv=16):
    """A field CSV whose rows are the nodes of the nu x nv default grid of
    the catalog chart ``name``, with the value column as given."""
    from curvevar import default_domain

    UU, VV = default_domain(name, None, nu, nv).meshes()
    path.write_text("u,v,value\n" + "".join(f"{u:.17g},{v:.17g},{x}\n" for u, v, x in zip(UU.ravel(), VV.ravel(), values)))
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
        (*fv, _grid_csv(tmp_path / "letters.csv", ["abc"] * 256)),
        (*fv, str(no_value)),
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("curvevar: ") and "Traceback" not in err, (argv, err)


@pytest.mark.parametrize(
    "argv,message",
    [
        (("energy", "--surface", "sphere:r=1", "--density", "nope"), "unknown density 'nope' (have: willmore, bending,"),
        (("verify-evolution", "--surface", "sphere:r=1", "--nu", "16", "--nv", "16", "--u", "const", "--quantity", "H"),
         "unknown evolution quantity 'H' (have: g, g_inv, dS, 2H,"),
        (("energy", "--surface", "blob", "--density", "willmore"), "unknown catalog surface 'blob' (have: sphere, torus,"),
        (("energy", "--surface", "blob:r=1", "--density", "willmore", "--nu", "16"),
         "unknown catalog surface 'blob' (have: sphere, torus,"),
    ],
)
def test_unknown_density_or_quantity_exits_1_naming_the_valid_set(argv, message, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("curvevar: " + message) and "Traceback" not in err


@pytest.mark.parametrize(
    "surface,grid,message",
    [
        ("sphere:r=nan", (), "'r' must be finite"),
        ("sphere:r=inf", (), "'r' must be finite"),
        ("sphere:q=2", (), "sphere takes no parameter 'q'"),
        ("torus:r=2", (), "torus takes no parameter 'r'"),
        ("sphere:r=1", ("--nu", "33", "--nv", "16"), "even nu"),
        ("sphere:r=1", ("--nu", "0"), "grid counts must be at least 8"),
        ("sphere:r=1", ("--nv", "0"), "grid counts must be at least 8"),
        ("torus", ("--nu", "0", "--nv", "0"), "grid counts must be at least 8"),
        ("sphere:r=1,r=2", (), "surface parameter 'r' is given twice"),
        ("sphere:r=-1", (), "sphere radius must be positive"),
        ("torus:R=1,a=2", (), "torus needs R > a > 0"),
        ("catenoid:c=0", (), "catenoid scale must be positive"),
        ("geodesic_sphere_S3:a=4", (), "geodesic radius must lie in (0, pi*rho)"),
    ],
)
def test_bad_surface_parameters_and_grids_exit_1(surface, grid, message, capsys):
    code, out, err = run(capsys, "energy", "--surface", surface, "--density", "willmore", *grid)
    assert code == 1 and out == ""
    assert err.startswith("curvevar: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "surface,v_range",
    [("catenoid:s_max=-1.2", "(1.2, -1.2)"), ("catenoid:s_max=0", "(-0.0, 0.0)"), ("catenoid:c=2,s_max=-0.5", "(0.5, -0.5)")],
)
def test_empty_or_reversed_chart_range_exits_1(surface, v_range, capsys):
    """A catenoid with s_max <= 0 has a reversed or empty v range; it used
    to print a negative or zero area and exit 0."""
    code, out, err = run(capsys, "curvature", "--surface", surface)
    assert (code, out) == (1, "")
    assert err == f"curvevar: chart v_range must be finite with lo < hi (got v_range = {v_range})\n"


def test_non_finite_field_csv_names_the_node(tmp_path, capsys):
    rows = ["1.5"] * 256
    rows[16 * 3 + 5] = "nan"
    fv = ("first-variation", "--surface", "sphere", "--density", "willmore", "--nu", "16", "--nv", "16", "--u")
    code, out, err = run(capsys, *fv, _grid_csv(tmp_path / "u.csv", rows))
    assert code == 1 and out == ""
    assert "node (3, 5)" in err
    # the same grid with finite values is accepted
    rows[16 * 3 + 5] = "1.5"
    code, out, _ = run(capsys, *fv, _grid_csv(tmp_path / "ok.csv", rows))
    assert code == 0 and np.isfinite(strict_json(out)["value"])


def test_field_csv_from_another_grid_exits_1(tmp_path, capsys):
    """A CSV exported from a 64 x 32 torus has the row count of a 32 x 64
    torus and of a 64 x 32 sphere, but its (u, v) are other nodes there:
    both are refused naming the row and its coordinates. Read back on its
    own grid it gives the value of the field it was exported from."""
    from curvevar import ScalarField, default_domain, export_field_csv, first_variation, random_smooth_field, sample_builtin
    from curvevar.densities import willmore

    torus = sample_builtin("torus", {"R": 2.0, "a": 1.0}, domain=default_domain("torus", {"R": 2.0, "a": 1.0}, 64, 32))
    u = random_smooth_field(torus, 3)
    path = tmp_path / "f.csv"
    export_field_csv(u, path)
    fv = ("first-variation", "--density", "willmore", "--u", str(path))
    for surface, grid in (("torus:R=2,a=1", ("32", "64")), ("sphere:r=1", ("64", "32"))):
        code, out, err = run(capsys, *fv, "--surface", surface, "--nu", grid[0], "--nv", grid[1])
        assert code == 1 and out == "", surface
        assert re.search(r"row \d+ has \(u, v\) = \(\S+, \S+\), not its grid node", err), err
    code, out, _ = run(capsys, *fv, "--surface", "torus:R=2,a=1", "--nu", "64", "--nv", "32")
    assert code == 0
    want = first_variation(torus, willmore(), ScalarField(u.values, torus))
    assert strict_json(out)["value"] == want


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


def test_el_residual_mean_is_the_area_weighted_mean(capsys):
    """el-residual prints the area-weighted mean residual, the one the
    criticality check reports; on this torus the mean over grid nodes
    read 0.2887 against 0.19245."""
    from curvevar import area, el_residual, integrate, sample_builtin
    from curvevar.densities import willmore

    surface = ("--surface", "torus:R=2,a=1", "--density", "willmore")
    code, out, _ = run(capsys, "el-residual", *surface)
    assert code == 0
    mean = strict_json(out)["mean"]
    s = sample_builtin("torus", {"R": 2.0, "a": 1.0})
    assert mean == pytest.approx(integrate(el_residual(s, willmore()), s) / area(s), rel=1e-13)
    code, _, err = run(capsys, "second-variation", *surface, "--u", "random:seed=1")
    assert code == 2 and f"mean residual {mean:.6g})" in err, err


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
    assert "note" in strict_json(out)


def test_second_variation_oracle_classifies_and_integrates_once(capsys, monkeypatch):
    """With --oracle the immersion is classified once and the
    second-variation integral evaluated once (the formula value and the
    oracle's formula side share them); the printed value is the one the
    command prints without --oracle."""
    from curvevar import variations

    argv = ["second-variation", "--surface", "sphere:r=1", "--density", "pwillmore", "--p", "3", "--u", "harmonic:2,0"]
    argv += ["--nu", "32", "--nv", "16"]
    counts = {"_criticality": 0, "_second_variation_integral": 0}
    for name in counts:

        def counted(*args, _name=name, _fn=getattr(variations, name)):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(variations, name, counted)
    code, out, _ = run(capsys, *argv, "--oracle")
    assert code == 0
    assert counts == {"_criticality": 1, "_second_variation_integral": 1}
    payload = strict_json(out)
    assert payload["oracle"]["rel_error"] < 1e-4
    code, plain, _ = run(capsys, *argv)
    assert code == 0 and strict_json(plain)["value"] == payload["value"]


def test_oracle_that_disagrees_exits_2(tmp_path, capsys, monkeypatch):
    """--oracle gates on verify-all's bounds (criterion 6's for order 2):
    stdout keeps the report and stderr gets one line. On the catenoid with
    u = 1 + 0.3 cos u v + 0.2 v^2, not compactly supported, bending
    (lambda = 0) agrees to 3.5e-11 and prints F'' = 22.77181, and a bound
    tightened to 1e-12 fails it with exit 2. Forced ksquared would difference
    F - lambda V with lambda = -0.096, the mean EL residual, and V'' =
    integral -2Hu^2 dS leaves out its edge term (off by 4.9e-2), so it is
    refused with exit 1, naming lambda and the first edge node."""
    from curvevar import ScalarField, export_field_csv, sample_builtin, variations

    s = sample_builtin("catenoid", {})
    U, V = s.domain.meshes()
    path = tmp_path / "cat_u.csv"
    export_field_csv(ScalarField(1.0 + 0.3 * np.cos(U) * V + 0.2 * V**2, s), path)
    argv = ("second-variation", "--surface", "catenoid", "--u", str(path), "--oracle", "--density")
    code, out, err = run(capsys, *argv, "bending")
    assert code == 0 and err == ""
    payload = strict_json(out)
    assert round(payload["value"], 5) == 22.77181 and payload["oracle"]["rel_error"] <= 1e-10
    monkeypatch.setitem(variations.ORACLE_BOUNDS, "second_variation", (1e-12, None))
    code, out, err = run(capsys, *argv, "bending")
    assert code == 2
    assert strict_json(out)["oracle"]["rel_error"] > 1e-12
    assert err.startswith("curvevar: oracle check failed (rel_error ") and err.count("\n") == 1
    code, out, err = run(capsys, *argv, "ksquared", "--force")
    assert code == 1 and out == ""
    assert err.startswith("curvevar: an order-2 oracle with multiplier lambda = -0.0964275 on an open chart")
    assert err.rstrip().endswith("at node (0, 0)")


def test_config_file_merge(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"surface": "sphere:r=2", "density": "willmore"}))
    code, out, _ = run(capsys, "energy", "--config", str(conf))
    assert code == 0
    assert strict_json(out)["value"] == pytest.approx(4 * 3.141592653589793, abs=1e-8)
    # explicit flags win over the config file
    code, out, _ = run(capsys, "energy", "--config", str(conf), "--density", "bending")
    assert strict_json(out)["density"] == "bending"


def test_config_unknown_key(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"surfface": "sphere:r=1"}))
    assert run(capsys, "energy", "--config", str(conf))[0] == 1


def _config(tmp_path, conf: dict) -> str:
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    return str(path)


def test_config_sets_a_flag_that_has_a_default(tmp_path, capsys):
    """--r defaults to 1.0, and a config value still sets it; a typed flag wins."""
    conf = _config(tmp_path, {"r": 2.0})
    code, out, _ = run(capsys, "spectrum", "--k", "1", "--config", conf)
    assert code == 0 and strict_json(out)["lambda"] == 0.5
    code, out, _ = run(capsys, "spectrum", "--k", "1", "--config", conf, "--r", "4")
    assert code == 0 and strict_json(out)["lambda"] == 0.125


def test_config_value_of_the_wrong_type_exits_1(tmp_path, capsys):
    conf = _config(tmp_path, {"surface": "sphere", "density": "willmore", "nu": "abc"})
    code, out, err = run(capsys, "energy", "--config", conf)
    assert code == 1 and out == ""
    assert "argument --nu: invalid int value: 'abc'" in err and "Traceback" not in err


def test_config_value_outside_the_choices_exits_1(tmp_path, capsys):
    code, out, err = run(capsys, "spectrum", "--k", "1", "--config", _config(tmp_path, {"format": "xml"}))
    assert code == 1 and out == ""
    assert "argument --format: invalid choice: 'xml'" in err


@pytest.mark.parametrize("r", ["0", "-2"])
def test_spectrum_refuses_a_radius_that_is_not_positive(r, capsys):
    code, out, err = run(capsys, "spectrum", "--k", "1", "--r", r)
    assert code == 1 and out == ""
    assert err.startswith("curvevar: sphere radius must be positive") and "Traceback" not in err


@pytest.mark.parametrize("p", ["nan", "inf"])
def test_sphere_stability_refuses_a_non_finite_exponent(p, capsys):
    """--p nan and --p inf used to exit 0 with the verdict "stable on all
    tested eigenspaces" and bare NaN in the JSON."""
    code, out, err = run(capsys, "sphere-stability", "--p", p, "--lmax", "2")
    assert code == 1 and out == ""
    assert err == f"curvevar: exponent p must be >= 1 and finite (got p = {p})\n"
    code, out, err = run(capsys, "energy", "--surface", "sphere", "--density", "pwillmore", "--p", p)
    assert code == 1 and out == ""
    assert err.startswith("curvevar: exponent p must be >= 1 and finite")


def test_sphere_stability_refuses_lmax_below_1(capsys):
    code, out, err = run(capsys, "sphere-stability", "--p", "2", "--lmax", "0")
    assert code == 1 and out == ""
    assert err.startswith("curvevar: ") and "l_max" in err


def test_output_that_cannot_be_opened_exits_1(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "energy", "--surface", "sphere", "--density", "willmore", "--output", str(target))
    assert code == 1 and out == ""
    assert err.startswith("curvevar: ") and str(target) in err and "Traceback" not in err


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
    assert strict_json(target.read_text())["lambda"] == 2.0


def test_sphere_stability_cli(capsys):
    code, out, _ = run(capsys, "sphere-stability", "--p", "3", "--lmax", "2")
    assert code == 0
    payload = strict_json(out)
    assert payload["verdict"] == "unstable in first eigenspace"
    assert payload["index_by_l"]["2"][0] == pytest.approx(26.0, abs=1e-8)


def test_sphere_stability_without_an_l2_eigenspace_reports_null(capsys):
    """--lmax 1 tests no l >= 2 eigenspace, so there is no Rayleigh
    quotient to report: min_rayleigh is null (it was printed as Infinity,
    which strict JSON parsers reject), and the keys are those of --lmax 2."""
    code, out, _ = run(capsys, "sphere-stability", "--p", "3", "--lmax", "1")
    assert code == 0
    payload = strict_json(out)
    assert payload["min_rayleigh"] is None and list(payload["index_by_l"]) == ["1"]
    code, out, _ = run(capsys, "sphere-stability", "--p", "3", "--lmax", "2")
    assert code == 0 and strict_json(out).keys() == payload.keys()


def test_poincare_refuses_a_zero_field(tmp_path, capsys):
    """A field of zero norm has no Poincare ratios; it used to end in a
    ZeroDivisionError traceback."""
    from curvevar import ScalarField, export_field_csv, sample_builtin

    path = tmp_path / "zero.csv"
    export_field_csv(ScalarField.constant(0.0, sample_builtin("sphere")), path)
    code, out, err = run(capsys, "poincare", "--u", str(path))
    assert code == 1 and out == ""
    assert err == "curvevar: Poincare check requires a field of non-zero norm (got integral of u^2 = 0)\n"


def test_poincare_cli(capsys):
    code, out, _ = run(capsys, "poincare", "--u", "harmonic:3,0")
    assert code == 0
    assert strict_json(out)["passes"] is True
    # the ratios are scale-free: the check reads the radius off the sample
    code, out, _ = run(capsys, "poincare", "--u", "harmonic:3,0", "--r", "1.3")
    assert code == 0
    assert strict_json(out)["ratios"] == pytest.approx([2.0, 4.0], abs=1e-8)


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


def test_export_field_csv_writes_the_cli_rows(tmp_path, capsys):
    """export_field_csv and --format csv share one node-row writer: below
    their headers, the residual's rows are the same bytes."""
    from curvevar import default_domain, el_residual, export_field_csv, sample_builtin
    from curvevar.densities import willmore

    sph = sample_builtin("sphere", {"r": 1.5}, domain=default_domain("sphere", {}, 32, 16))
    path = tmp_path / "res.csv"
    export_field_csv(el_residual(sph, willmore()), path)
    argv = ("el-residual", "--surface", "sphere:r=1.5", "--density", "willmore", "--nu", "32", "--nv", "16", "--format", "csv")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    exported = path.read_text().splitlines()
    assert exported[0] == "u,v,value" and out.splitlines()[0] == "u,v,residual"
    assert exported[1:] == out.splitlines()[1:]
    assert len(exported) == 1 + 32 * 16


def test_field_csv_formats_special_values_like_python_floats(capsys):
    from types import SimpleNamespace

    from curvevar.cli import _emit

    data = np.array([[-0.0, np.nan, np.inf, -np.inf, 1e-300, 0.1, 2.0 / 3.0, 1e22, 123456789.0]])
    _emit(SimpleNamespace(format="csv", output=None), {}, rows=(["a"] * data.shape[1], data))
    want = ",".join(f"{float(v):.17g}" for v in data[0])
    assert capsys.readouterr().out.splitlines()[1] == want


def test_field_csv_rows_are_byte_identical_to_savetxt(tmp_path):
    """The CSV rows are written in one formatting pass; their bytes are
    those np.savetxt(fmt="%.17g", delimiter=",") writes."""
    import io
    from types import SimpleNamespace

    from curvevar.cli import _emit

    rng = np.random.default_rng(7)
    data = rng.normal(size=(300, 5)) * 10.0 ** rng.integers(-300, 300, size=(300, 5))
    data[:9, 0] = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1, 1e22, 123456789.0]
    target = tmp_path / "rows.csv"
    _emit(SimpleNamespace(format="csv", output=str(target)), {}, rows=(["a", "b", "c", "d", "e"], data))
    want = io.StringIO()
    want.write("a,b,c,d,e\n")
    np.savetxt(want, data, fmt="%.17g", delimiter=",")
    assert target.read_bytes() == want.getvalue().encode()


USAGE_ERROR = ["spectrum", "--r", "2"]  # --k is required
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
    ["--help"],
    USAGE_ERROR,
]

# modules a cold command leaves unimported, beyond sympy, scipy and the
# acceptance battery: a command imports only the layers it computes with
UNIMPORTED = {
    "": ("numpy",),  # import only
    "spectrum": ("numpy",),
    "--help": ("numpy",),
    "energy": ("curvevar.pwillmore",),
    "el-residual": ("curvevar.pwillmore",),
    "curvature": ("curvevar.pwillmore", "curvevar.variations"),
}


def _graph_field_csv(path) -> str:
    """A compactly supported random field on the default graph grid, given
    as grid values only."""
    from curvevar import export_field_csv, random_smooth_field, sample_builtin

    export_field_csv(random_smooth_field(sample_builtin("graph", {}), 3, compact_v=True), path)
    return str(path)


@pytest.mark.parametrize("argv", COLD_COMMANDS, ids=lambda a: " ".join(a[:2]) or "import")
def test_cold_path_never_imports_sympy(argv, tmp_path):
    """Built-in surfaces, densities and fields need no symbolic algebra,
    nothing needs scipy (a field read from a CSV included), and only
    verify-all imports the acceptance battery. Parsing, --help, a usage
    error and spectrum import no numpy, and each subcommand imports only
    the layers it runs."""
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
        "try:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        rc = curvevar.cli.main(argv) if argv else 0\n"
        "except SystemExit as exc:  # --help\n"
        "    rc = exc.code\n"
        f"assert rc == {1 if argv == USAGE_ERROR else 0}, rc\n"
    )
    for mod in ("sympy", "scipy", "curvevar.acceptance", *UNIMPORTED.get(argv[0] if argv else "", ())):
        code += f"assert {mod!r} not in sys.modules, '{mod} was imported'\n"
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_small_open_grid_field_exits_1(tmp_path, capsys):
    """A value-only field on an open chart takes its partials from banded
    finite differences, which need 9 nodes per direction: an 8 x 8 graph
    grid is refused with a message naming the direction and the count."""
    argv = ("first-variation", "--surface", "graph", "--nu", "8", "--nv", "8", "--density", "bending", "--u")
    code, out, err = run(capsys, *argv, _grid_csv(tmp_path / "u.csv", ["1.0"] * 64, "graph", 8, 8))
    assert code == 1 and out == ""
    assert err.startswith("curvevar: ") and "along u need at least 9 grid nodes (got nu = 8)" in err


@pytest.mark.parametrize("quantity", _EVOLUTION_QUANTITIES)
def test_verify_evolution(quantity, capsys):
    """Every evolving quantity checks through the CLI; laplacian_f and
    h_hess_f need the auxiliary field f, which the subcommand draws
    itself. Each check passes at second order."""
    code, out, _ = run(
        capsys, "verify-evolution", "--surface", "torus", "--u", "random:seed=3", "--quantity", quantity,
        "--nu", "64", "--nv", "32",
    )
    assert code == 0
    payload = strict_json(out)
    assert payload["quantity"] == quantity and payload["surface"] == "torus"
    assert payload["rel_error"] < 1e-6 and payload["convergence_order"] >= 1.9


@pytest.mark.parametrize("surface", ["catenoid", "clifford_torus_S3"])
def test_verify_evolution_passes_on_minimal_surfaces(surface, capsys):
    """dS' = -2Hu dS is zero to round-off on a minimal surface; the check
    reports the oracle's absolute gap (2.1e-8 and 1.0e-9) and exits 0,
    where a relative error over the vanishing sups read 0.99995 and
    0.99901 and exited 2."""
    code, out, _ = run(capsys, "verify-evolution", "--surface", surface, "--quantity", "dS", "--u", "random:seed=3")
    assert code == 0
    payload = strict_json(out)
    assert payload["rel_error"] < 1e-4 and payload["convergence_order"] >= 1.9


@pytest.mark.parametrize("r", ["1e200", "1e-200"])
def test_spectrum_refuses_a_radius_whose_square_overflows_or_vanishes(r, capsys):
    code, out, err = run(capsys, "spectrum", "--k", "2", "--r", r)
    assert code == 1 and out == ""
    assert err.startswith("curvevar: sphere radius must have r^2 and 1/r^2 finite and nonzero") and "Traceback" not in err


def test_density_flags_the_density_does_not_take_exit_1(capsys):
    code, out, err = run(capsys, "energy", "--surface", "sphere:r=1", "--density", "willmore", "--p", "3", "--kc", "5")
    assert code == 1 and out == ""
    assert err == "curvevar: density 'willmore' does not take 'kc', 'p' (it takes: k0)\n"


@pytest.mark.parametrize("r", ["1e100", "1e200"])
def test_energy_refuses_a_metric_that_overflows_naming_the_node(r, capsys):
    """On a sphere of radius 1e100 det g overflows, and at 1e200 g itself:
    both exit 1 naming the node, with no RuntimeWarning (an error under
    the suite's filter), where det g = inf used to read as a degenerate
    metric and an infinite g as H = nan."""
    code, out, err = run(capsys, "energy", "--surface", f"sphere:r={r}", "--density", "willmore")
    assert code == 1 and out == ""
    assert err == "curvevar: non-finite metric at node (0, 0) in sphere: g or det g overflows; rescale the surface\n"


def test_spectrum_refuses_an_index_whose_eigenvalue_overflows(capsys):
    code, out, err = run(capsys, "spectrum", "--k", "1" + "0" * 300)
    assert code == 1 and out == ""
    assert err.startswith("curvevar: spectrum index k is too large: lambda_k = k(k+1)/r^2 is not a finite float")
    assert "Traceback" not in err


def _csv_rows(text: str) -> list:
    import csv
    import io

    return list(csv.reader(io.StringIO(text)))


def test_key_value_csv_reads_back_as_two_fields(capsys):
    """A value holding a comma is quoted, so every key/value row reads back
    as two fields; the rows without a comma keep their plain bytes."""
    code, out, _ = run(capsys, "energy", "--surface", "torus:R=2,a=1", "--density", "bending", "--format", "csv")
    assert code == 0
    rows = _csv_rows(out)
    assert [len(row) for row in rows] == [2, 2, 2, 2]
    assert rows[0] == ["key", "value"] and ["surface", "torus:R=2,a=1"] in rows
    assert out.startswith("key,value\ndensity,bending\n") and '\nsurface,"torus:R=2,a=1"\n' in out


def test_verify_all_csv_flattens_the_criteria(capsys, monkeypatch):
    """verify-all --format csv writes one row per leaf of each criterion,
    keyed like criteria[0].details.value, a title with a comma quoted
    (the battery is stubbed by two small criteria)."""
    from curvevar import acceptance

    criteria = [
        {"id": 1, "title": "plain", "passed": True, "details": {"value": 1.5, "ratios": [0.25, 0.5]}},
        {"id": 2, "title": "totals, and a gap", "passed": True, "details": {"value": None}},
    ]
    monkeypatch.setattr(acceptance, "run_all", lambda: criteria)
    code, out, _ = run(capsys, "verify-all", "--format", "csv")
    assert code == 0
    rows = _csv_rows(out)
    assert all(len(row) == 2 for row in rows)
    got = dict(rows[1:])
    assert got["criteria[0].details.value"] == "1.5" and got["criteria[0].details.ratios[1]"] == "0.5"
    assert got["criteria[1].title"] == "totals, and a gap" and got["criteria[1].details.value"] == "None"
    assert got["n_passed"] == "2" and got["passed"] == "True"


@pytest.mark.parametrize(
    "conf,typed",
    [
        ({"p": 3, "lmax": 2}, ["sphere-stability", "--p", "3", "--lmax", "2"]),
        ({"k": 2}, ["spectrum", "--k", "2"]),
    ],
)
def test_config_supplies_a_required_flag(conf, typed, tmp_path, capsys):
    """A --config file can give a required flag: the output is the bytes
    of the typed-flag form."""
    code, want, _ = run(capsys, *typed)
    assert code == 0
    code, got, err = run(capsys, typed[0], "--config", _config(tmp_path, conf))
    assert code == 0 and got == want, err


def test_config_required_flag_loses_to_a_typed_one(tmp_path, capsys):
    code, out, _ = run(capsys, "spectrum", "--config", _config(tmp_path, {"k": 2}), "--k", "1")
    assert code == 0 and strict_json(out)["k"] == 1


_FV16 = ("first-variation", "--surface", "sphere", "--density", "willmore", "--nu", "16", "--nv", "16")


@pytest.mark.parametrize(
    "argv,message",
    [
        (("energy", "--density", "willmore"), "missing --surface (expected e.g. sphere:r=1 or torus:R=2,a=1)"),
        (_FV16, "missing --u (expected const, harmonic:l,m, random:seed=N, or a .csv path)"),
        ((*_FV16, "--u", "harmonic:2"), "malformed --u harmonic spec (expected harmonic:l,m)"),
        (("spectrum", "--k", "-1"), "spectrum index must be >= 0"),
        ((*_FV16, "--u", "harmonic:86,85"), "harmonic needs l + |m| <= 170, so that its normalisation is a finite float (got l = 86, m = 85)"),
        (("poincare", "--u", "harmonic:171,0"), "harmonic needs l + |m| <= 170, so that its normalisation is a finite float (got l = 171, m = 0)"),
    ],
)
def test_missing_or_malformed_inputs_exit_1(argv, message, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"curvevar: {message}\n"


def test_config_that_is_not_a_readable_json_object_exits_1(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    code, out, err = run(capsys, "spectrum", "--k", "1", "--config", missing)
    assert code == 1 and out == ""
    assert err == f"curvevar: cannot read --config file: [Errno 2] No such file or directory: '{missing}'\n"
    code, out, err = run(capsys, "spectrum", "--k", "1", "--config", _config(tmp_path, [1, 2]))
    assert code == 1 and out == ""
    assert err == "curvevar: --config must contain a JSON object\n"


def test_config_switch_takes_true_or_false(tmp_path, capsys):
    """A switch in a --config file is the typed flag when true, no flag when
    false, and refused otherwise."""
    argv = ("first-variation", "--surface", "sphere", "--density", "willmore", "--u", "harmonic:2,0", "--nu", "32", "--nv", "16")
    for on, typed in ((True, ("--oracle",)), (False, ())):
        code, want, _ = run(capsys, *argv, *typed)
        assert code == 0 and ("oracle" in strict_json(want)) is on
        assert run(capsys, *argv, "--config", _config(tmp_path, {"oracle": on}))[:2] == (0, want)
    code, out, err = run(capsys, *argv, "--config", _config(tmp_path, {"oracle": "yes"}))
    assert code == 1 and out == ""
    assert err == "curvevar: config key 'oracle' takes true or false (got 'yes')\n"


def test_config_without_a_value_is_reported_by_the_subcommand(capsys):
    code, out, err = run(capsys, "spectrum", "--config")
    assert code == 1 and out == ""
    assert err.startswith("usage: curvevar spectrum") and "argument --config: expected one argument" in err
