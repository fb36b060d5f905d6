import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import config_path
from defect_bands.cli import load_config, main, spec_from_config
from defect_bands.spectrum import full_spectrum

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

import importlib.resources


def schema(name):
    path = importlib.resources.files("defect_bands") / "schemas" / name
    return json.loads(path.read_text())


class TestValidate:
    def test_bundled_config_valid(self, capsys):
        code = main(["validate", "--config", config_path("chain_point_defect.json")])
        assert code == 0
        assert "no violations" in capsys.readouterr().out

    def test_duplicate_codim_exit_one(self, tmp_path, capsys):
        doc = json.loads(open(config_path("chain_point_defect.json")).read())
        doc["defects"].append(json.loads(json.dumps(doc["defects"][0])))
        bad = tmp_path / "dup.json"
        bad.write_text(json.dumps(doc))
        code = main(["validate", "--config", str(bad)])
        assert code == 1
        assert "duplicate codim 1" in capsys.readouterr().out

    def test_empty_file_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "empty.json"
        bad.write_text("")
        code = main(["validate", "--config", str(bad)])
        assert code == 2
        assert "line" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        doc = json.loads(open(config_path("chain.json")).read())
        doc["unexpected"] = 1
        bad = tmp_path / "unknown.json"
        bad.write_text(json.dumps(doc))
        code = main(["validate", "--config", str(bad)])
        assert code == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_config_schema_accepts_bundled(self):
        if jsonschema is None:
            pytest.skip("jsonschema unavailable")
        cfg_schema = schema("config.schema.json")
        for name in ("chain.json", "chain_point_defect.json", "square.json",
                     "square_line_defect.json", "bipartite_chain.json"):
            doc = json.loads(open(config_path(name)).read())
            jsonschema.validate(doc, cfg_schema)


def reproduction(tmp_path, kind):
    """chain_point_defect.json broken one way: a second codim-1 defect of
    strength 2, det_zero_tol above band_guard, no k points, or one omega
    point."""
    doc = json.loads(open(config_path("chain_point_defect.json")).read())
    if kind == "second_defect":
        extra = json.loads(json.dumps(doc["defects"][0]))
        extra["omega_powers"][0]["coefficients"][0]["re"] = [[2.0]]
        doc["defects"].append(extra)
    elif kind == "loose_det_tol":
        doc["tolerances"] = {"det_zero_tol": 0.5}
    elif kind == "zero_k_points":
        doc["grids"] = {"k_points": 0}
    else:
        doc["grids"]["omega_points"] = 1
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestInvalidSpecRefused:
    # before construction refused them, membership answered OUT at
    # sqrt(13), the second defect's oracle eigenvalue, and IN (step 0) at
    # 2.5 with det_zero_tol 0.5; the oracle wrote its --out file.  Before
    # grids were checked, k_points 0 ended spectrum in a ZeroDivisionError
    # and gave bands a header-only CSV, and omega_points 1 made spectrum
    # drop the isolated point sqrt(5) with exit 0
    @pytest.mark.parametrize("kind", ["second_defect", "loose_det_tol",
                                      "zero_k_points", "one_omega_point"])
    @pytest.mark.parametrize("command", [
        ["membership", "--omega", "3.6056"], ["membership", "--omega", "2.5"],
        ["bands", "--out"], ["spectrum", "--out"], ["oracle", "--out"]])
    def test_every_command_refuses(self, tmp_path, capsys, kind, command):
        out = tmp_path / "out.csv"
        argv = command + [str(out)] if command[-1] == "--out" else command
        code = main(argv[:1] + ["--config", reproduction(tmp_path, kind)]
                    + argv[1:])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("domain error: invalid spec: ")
        assert "Traceback" not in captured.err
        assert not out.exists()

    def test_validate_prints_every_violation(self, tmp_path, capsys):
        doc = json.loads(open(reproduction(tmp_path, "second_defect")).read())
        doc["tolerances"] = {"det_zero_tol": 0.5}
        both = tmp_path / "both.json"
        both.write_text(json.dumps(doc))
        code = main(["validate", "--config", str(both)])
        assert code == 1
        assert capsys.readouterr().out == (
            "violation: defect codim 1: duplicate codim 1\n"
            "violation: det_zero_tol must be smaller than band_guard\n")

    def test_validate_lists_grid_violations_after_spec_ones(self, tmp_path,
                                                            capsys):
        doc = json.loads(open(reproduction(tmp_path, "loose_det_tol")).read())
        doc["grids"] = {"k_points": 24, "omega_points": 0}
        both = tmp_path / "both.json"
        both.write_text(json.dumps(doc))
        code = main(["validate", "--config", str(both)])
        assert code == 1
        assert capsys.readouterr().out == (
            "violation: det_zero_tol must be smaller than band_guard\n"
            "violation: grids k_points must be a power of two >= 4\n"
            "violation: grids omega_points must be >= 2\n")


class TestConfigNumbers:
    @pytest.mark.parametrize("command", ["validate", "bands", "membership",
                                         "spectrum", "oracle"])
    def test_non_number_is_config_error(self, tmp_path, capsys, command):
        doc = json.loads(open(config_path("chain_point_defect.json")).read())
        doc["omega_window"] = {"min": "a", "max": 4}
        bad = tmp_path / "window.json"
        bad.write_text(json.dumps(doc))
        code = main([command, "--config", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("config error: omega_window min: expected a "
                                "number, got 'a'\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(dimension="one"),
         "dimension: expected a number, got 'one'"),
        (lambda doc: doc["grids"].update(k_points=32.5),
         "grids k_points: expected an integer, got 32.5"),
        (lambda doc: doc["defects"][0].update(codim=None),
         "defect 0, codim: expected a number, got None"),
        (lambda doc: doc["bulk"]["omega_powers"][0]["coefficients"][0]
         .update(re=[["x"]]),
         "bulk, power 0, coefficient 0: matrix entries must be numbers"),
        (lambda doc: doc.update(grids=[64]), "grids: expected an object"),
        (lambda doc: doc.update(defects={"codim": 1}),
         "defects: expected an array"),
        (lambda doc: doc["bulk"]["omega_powers"][0].update(coefficients=5),
         "bulk, power 0, coefficients: expected an array"),
        (lambda doc: doc["bulk"]["omega_powers"][0]["coefficients"][0]
         .update(offset=1),
         "bulk, power 0, coefficient 0, offset: expected an array"),
        (lambda doc: {k: v for k, v in doc.items() if k != "bulk"},
         "document: missing keys ['bulk']"),
        (lambda doc: doc["bulk"]["omega_powers"][0]["coefficients"][0]
         .update(re=[[1.0, 0.0]], im=[[0.0, 0.0]]),
         "bulk, power 0, coefficient 0: matrices must be 1x1"),
        (lambda doc: doc["bulk"]["omega_powers"][0]["coefficients"][0]
         .update(offset=[1, 0]),
         "bulk, power 0, coefficient 0: offset length 2, expected 1"),
        (lambda doc: doc["bulk"]["omega_powers"][0]["coefficients"][1]
         .update(offset=[1]),
         "bulk, power 0, coefficient 1: duplicate offset (1,)"),
        (lambda doc: doc["bulk"]["omega_powers"].append(
            doc["bulk"]["omega_powers"][0]),
         "bulk: duplicate power 0"),
        (lambda doc: doc["bulk"].update(omega_powers=[]),
         "bulk: at least one omega power required"),
        (lambda doc: [doc], "top level must be a JSON object"),
        (lambda doc: doc["defects"][0].update(codim=2),
         "defect 0: codim 2 outside 1..1"),
        (lambda doc: doc["defects"][0].update(codim=0),
         "defect 0: codim 0 outside 1..1"),
    ])
    def test_malformed_entries(self, tmp_path, capsys, edit, message):
        # `edit` changes the document in place or returns its replacement
        doc = json.loads(open(config_path("chain_point_defect.json")).read())
        edited = edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc if edited is None else edited))
        assert main(["validate", "--config", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"


class TestKGridBase:
    def square_line_doc(self, tolerances, grids=None):
        doc = json.loads(open(config_path("square_line_defect.json")).read())
        doc["tolerances"] = tolerances
        if grids is None:
            del doc["grids"]
        else:
            doc["grids"] = grids
        return doc

    @pytest.mark.parametrize("tolerances, grids, k_points", [
        ({"k_grid_base": 8}, None, 8),
        ({"k_grid_base": 8}, {"omega_points": 65}, 8),
        ({"k_grid_base": 8}, {"k_points": 16}, 16),
        ({}, None, 64),
    ])
    def test_grid_default(self, tolerances, grids, k_points):
        spec, got = spec_from_config(self.square_line_doc(tolerances, grids))
        assert got.k_points == k_points
        assert spec.tolerances.k_grid_base == tolerances.get("k_grid_base", 64)

    def test_spectrum_runs_on_k_grid_base(self, tmp_path, capsys):
        # the problem file names no grids: the CLI's branch and the
        # library's default run both sample the 8 nodes of k_grid_base
        path = tmp_path / "coarse.json"
        path.write_text(json.dumps(self.square_line_doc({"k_grid_base": 8})))
        out = tmp_path / "spec.csv"
        code = main(["spectrum", "--config", str(path), "--out", str(out),
                     "--probes", "0"])
        assert code == 0
        rows = (tmp_path / "spec_branch_codim1.csv").read_text().split()[1:]
        spec, _ = spec_from_config(load_config(str(path)))
        samples = full_spectrum(spec, n_probes=0).branches[1].samples
        assert len(samples) == 8
        assert [tuple(map(float, row.split(","))) for row in rows] == \
            [(k, omega) for (k,), omega, _ in samples]


class TestFileErrors:
    def test_config_directory(self, tmp_path, capsys):
        code = main(["validate", "--config", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"cannot read {tmp_path}\n"

    def test_missing_config(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert main(["validate", "--config", str(missing)]) == 2
        assert capsys.readouterr().err == f"cannot read {missing}\n"

    def test_config_not_utf8(self, tmp_path, capsys):
        binary = tmp_path / "binary.json"
        binary.write_bytes(b'{"dimension": \xc0}')
        assert main(["validate", "--config", str(binary)]) == 2
        assert capsys.readouterr().err == f"cannot read {binary}\n"

    @pytest.mark.parametrize("target", ["directory", "missing parent"])
    @pytest.mark.parametrize("command", [["bands", "--k-grid", "4"],
                                         ["oracle", "--L", "4"]])
    def test_output_not_writable(self, tmp_path, capsys, target, command):
        out = tmp_path if target == "directory" else \
            tmp_path / "absent" / "out.csv"
        code = main(command[:1] + ["--config", config_path("chain.json")]
                    + command[1:] + ["--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"cannot write {out}\n"
        assert "Traceback" not in captured.err


class TestNumericGuards:
    @pytest.mark.parametrize("argv, message", [
        (["membership", "--omega", "nan"], "omega must be finite, got nan"),
        (["membership", "--omega", "inf"], "omega must be finite, got inf"),
        (["membership", "--omega=-inf"], "omega must be finite, got -inf"),
        (["bands", "--k-grid", "0"], "--k-grid must be >= 1, got 0"),
        (["bands", "--k-grid", "-2"], "--k-grid must be >= 1, got -2"),
        (["bands", "--k-path", "0", "--k-points", "0"],
         "--k-points must be >= 1, got 0"),
        (["spectrum", "--probes", "-1"], "probe count must be >= 0, got -1"),
        (["oracle", "--tol", "-1"], "--tol must be finite and >= 0, got -1.0"),
        (["oracle", "--tol", "nan"], "--tol must be finite and >= 0, got nan"),
        (["bands", "--k-path", "nan"], "--k-path vertex 'nan' must be finite"),
        (["bands", "--k-path", "0:inf"],
         "--k-path vertex 'inf' must be finite"),
    ])
    def test_domain_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out.csv"
        if argv[0] != "membership":
            argv = argv + ["--out", str(out)]
        code = main(argv[:1] + ["--config",
                                config_path("chain_point_defect.json")]
                    + argv[1:])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"domain error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("k_path", ["a,b", "0:1,2", "0:"])
    def test_k_path_parse_error(self, tmp_path, capsys, k_path):
        out = tmp_path / "out.csv"
        code = main(["bands", "--config", config_path("chain.json"),
                     "--k-path", k_path, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("config error: --k-path vertex ")
        assert not out.exists()


class TestBands:
    def test_five_point_grid(self, tmp_path):
        out = tmp_path / "bands.csv"
        code = main(["bands", "--config", config_path("chain.json"),
                     "--k-grid", "5", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "k_1,band_index,omega"
        assert len(lines) == 6
        for line in lines[1:]:
            k, idx, omega = line.split(",")
            assert float(omega) == pytest.approx(2 * np.cos(float(k)), abs=1e-12)

    def test_2d_origin_band(self, tmp_path):
        out = tmp_path / "bands2.csv"
        code = main(["bands", "--config", config_path("square.json"),
                     "--k-path", "0,0", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "k_1,k_2,band_index,omega"
        assert lines[1].split(",")[-1] == "4.0"

    def test_k_path_polyline(self, tmp_path):
        # Gamma-X-M-Gamma, 5 points per leg: 15 rows less 2 shared joints
        out = tmp_path / "path.csv"
        code = main(["bands", "--config", config_path("square.json"),
                     "--k-path", f"0,0:{np.pi},0:{np.pi},{np.pi}:0,0",
                     "--k-points", "5", "--out", str(out)])
        assert code == 0
        rows = [[float(x) for x in line.split(",")]
                for line in out.read_text().strip().split("\n")[1:]]
        assert len(rows) == 13
        ks = np.array([row[:2] for row in rows])
        assert np.array_equal(ks[0], [0.0, 0.0])
        assert np.array_equal(ks[-1], [0.0, 0.0])
        assert np.all(np.any(np.diff(ks, axis=0) != 0, axis=1))
        for k1, k2, band, omega in rows:
            assert band == 0
            assert omega == pytest.approx(2 * np.cos(k1) + 2 * np.cos(k2),
                                          abs=1e-12)

    def test_bipartite_dirac_rows(self, tmp_path):
        out = tmp_path / "bands3.csv"
        code = main(["bands", "--config", config_path("bipartite_chain.json"),
                     "--k-path", f"{np.pi}", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3
        for line in lines[1:]:
            assert abs(float(line.split(",")[-1])) <= 1e-12


class TestMembership:
    def test_in_band(self, capsys):
        code = main(["membership", "--config", config_path("chain.json"),
                     "--omega", "1.0"])
        assert code == 0
        assert "IN (step 0)" in capsys.readouterr().out

    def test_defect_point(self, capsys):
        code = main(["membership", "--config",
                     config_path("chain_point_defect.json"),
                     "--omega", str(float(np.sqrt(5.0)))])
        assert code == 0
        assert "IN (step 1)" in capsys.readouterr().out

    def test_out_with_level_value(self, capsys):
        code = main(["membership", "--config",
                     config_path("chain_point_defect.json"),
                     "--omega", "3.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "OUT" in out
        assert "0.5527864" in out

    def test_inconclusive_exit_three(self, capsys):
        code = main(["membership", "--config",
                     config_path("chain_point_defect.json"),
                     "--omega", "2.01"])
        assert code == 3
        assert "INCONCLUSIVE" in capsys.readouterr().out

    def test_json_output_matches_schema(self, capsys):
        code = main(["membership", "--config",
                     config_path("chain_point_defect.json"),
                     "--omega", "3.0", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "out"
        if jsonschema is not None:
            jsonschema.validate(doc, schema("membership.schema.json"))


class TestSpectrum:
    def test_chain_defect_rows(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        code = main(["spectrum", "--config",
                     config_path("chain_point_defect.json"),
                     "--out", str(out), "--probes", "5"])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "kind,codim,omega_lo,omega_hi"
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {"band_interval", "isolated_point"}
        branch = (tmp_path / "spec_branch_codim1.csv").read_text().strip().split("\n")
        assert branch[0] == "omega"
        assert float(branch[1]) == pytest.approx(np.sqrt(5.0), abs=1e-8)


    def test_non_self_adjoint_defect_refused(self, tmp_path, capsys):
        # a Hermitian bulk with the complex on-site defect 1 + 0.5i: its
        # dispersion is not counted, so `spectrum` writes nothing and exits
        # 1, while `membership` still answers
        doc = json.loads(open(config_path("chain_point_defect.json")).read())
        doc["defects"][0]["omega_powers"][0]["coefficients"][0]["im"] = \
            [[0.5]]
        bad = tmp_path / "lossy.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--config", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("domain error: ") and "self-adjoint" in err
        assert not out.exists()
        assert main(["membership", "--config", str(bad), "--omega",
                     "3.0"]) == 0
        assert capsys.readouterr().out.startswith("OUT")


class TestOracleCommand:
    def test_periodic_no_defect(self, tmp_path, capsys):
        out = tmp_path / "orc.csv"
        code = main(["oracle", "--config", config_path("chain.json"),
                     "--L", "8", "--bc", "periodic", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "max deviation" in text
        deviation = float(text.split("max deviation")[1].strip())
        assert deviation <= 1e-10

    def test_open_with_defect(self, tmp_path, capsys):
        out = tmp_path / "orc2.csv"
        code = main(["oracle", "--config",
                     config_path("chain_point_defect.json"),
                     "--L", "60", "--bc", "open", "--out", str(out),
                     "--tol", "1e-6"])
        assert code == 0
        text = capsys.readouterr().out
        assert "comparison ok: True" in text
        assert "matched" in text

    @pytest.mark.parametrize("half_width, bc", [("0", "periodic"),
                                                ("-2", "open")])
    def test_empty_box_clean_error(self, capsys, half_width, bc):
        code = main(["oracle", "--config", config_path("chain.json"),
                     "--L", half_width, "--bc", bc])
        assert code == 1
        assert "domain error: " + bc + " half-width must be at least" in \
            capsys.readouterr().err

    def test_non_hermitian_clean_error(self, tmp_path, capsys):
        doc = json.loads(open(config_path("chain.json")).read())
        doc["bulk"]["omega_powers"][0]["coefficients"][1]["re"] = [[0.5]]
        bad = tmp_path / "lopsided.json"
        bad.write_text(json.dumps(doc))
        code = main(["oracle", "--config", str(bad), "--L", "4"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("domain error: ") and "Hermitian" in err

    def test_oversize_clean_error(self, capsys):
        code = main(["oracle", "--config", config_path("square.json"),
                     "--L", "200", "--bc", "open"])
        assert code == 1
        assert "reduce L" in capsys.readouterr().err


class TestDeterminism:
    def test_repeated_runs_give_identical_bytes(self, tmp_path):
        outs = []
        for run in range(2):
            out = tmp_path / f"spec_{run}.csv"
            code = main(["spectrum", "--config",
                         config_path("chain_point_defect.json"),
                         "--out", str(out), "--probes", "3"])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def test_cli_import_loads_no_scipy():
    # the engine needs numpy alone; scipy is a test dependency, the tests'
    # independent reference
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, defect_bands.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_quadratic_bulk_runs_load_no_scipy(tmp_path):
    # bands and spectrum of a bulk quadratic in omega, whose bands are the
    # real roots of det T (the companion solve of `bands_grid`), in a
    # fresh process that then lists the scipy modules loaded
    repo = Path(__file__).resolve().parents[1]
    config = repo / "tools" / "squared_frequency_line.json"
    script = (
        "import sys\n"
        "from defect_bands.cli import main\n"
        "for cmd in ('bands', 'spectrum'):\n"
        f"    assert main([cmd, '--config', {str(config)!r}, '--out',\n"
        f"                 {str(tmp_path)!r} + '/' + cmd + '.csv']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "spectrum.csv").read_text().startswith("kind,")


def test_next_nearest_point_config_spectrum(tmp_path):
    # tools/next_nearest_point.json, the bulk 2 cos 2k - omega (axis-1
    # hopping of range 2) with a unit point defect: 1 = <1/(omega - 2 cos
    # 2k)> = 1/sqrt(omega^2 - 4) at omega = sqrt5 alone, which the exact
    # level 1 finds to within 1e-12
    path = Path(__file__).parents[1] / "tools" / "next_nearest_point.json"
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--config", str(path), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    points = [float(row[2]) for row in rows if row[0] == "isolated_point"]
    assert len(points) == 1 and abs(points[0] - np.sqrt(5.0)) <= 1e-12


def test_two_band_point_config_matches_builder():
    # tools/two_band_line_point.json, the M = 2 two-level model that
    # tools/compare_cli.py runs, holds the numbers of
    # tests_util.two_band_line(point=2.0)
    from tests_util import two_band_line
    path = Path(__file__).parents[1] / "tools" / "two_band_line_point.json"
    spec, grids = spec_from_config(load_config(str(path)))
    want, want_grids = two_band_line(point=2.0)

    def terms(family):
        return {p: [(off, m.tolist()) for off, m in poly.items()]
                for p, poly in family.items()}

    assert grids == want_grids
    assert (spec.lattice_dim, spec.cell_size, spec.omega_window,
            spec.tolerances) == (want.lattice_dim, want.cell_size,
                                 want.omega_window, want.tolerances)
    assert terms(spec.bulk.terms) == terms(want.bulk.terms)
    assert [(d.codim, terms(d.stencils), terms(d.symbol.terms))
            for d in spec.defects] == \
        [(d.codim, terms(d.stencils), terms(d.symbol.terms))
         for d in want.defects]
