import json
import re
from pathlib import Path

import pytest

import cloaksim.cli as cli
import cloaksim.experiments as experiments
import cloaksim.presets as presets
from cloaksim.experiments import DecayReport

README = Path(__file__).resolve().parents[1] / "README.md"


def run(argv):
    return cli.main(argv)


class TestMapCheck:
    def test_regular_map_passes(self, capsys):
        assert run(["map-check", "--map", "regular:0.5", "--points", "100"]) == 0
        out = capsys.readouterr().out
        assert "round-trip" in out

    def test_singular_map_passes(self):
        assert run(["map-check", "--map", "singular", "--points", "100"]) == 0

    def test_unknown_map_is_bad_input(self):
        assert run(["map-check", "--map", "mystery"]) == 2

    @pytest.mark.parametrize("key, code", [
        ("regular:0.5", 0), ("regular(0.5)", 0), ("regular", 0),
        ("singular", 0), ("singular(0.3)", 2), ("regular(0.1,0.2)", 2)])
    def test_map_value_counts(self, capsys, key, code):
        # a map takes only the values it reads: none or r for regular,
        # none for singular; extra values are refused, not dropped
        assert run(["map-check", "--map", key, "--points", "20"]) == code
        if code:
            assert "takes" in capsys.readouterr().err

    def test_corrupted_jacobian_detected(self, monkeypatch):
        # if the analytic jacobian stops matching finite differences the
        # check must fail numerically, not silently pass
        real = cli.fd_jacobian
        monkeypatch.setattr(cli, "fd_jacobian",
                            lambda dmap, x: real(dmap, x) + 0.01)
        assert run(["map-check", "--map", "regular:0.5"]) == 3


class TestSolve:
    def test_identity_solve(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        code = run(["--h", "0.2", "solve", "--coeff", "identity",
                    "--mode", "1", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["converged"]
        assert doc["iterations"] == 1
        assert doc["h1"] > doc["l2"] > 0.0

    def test_nonlinear_solve_iterates(self, capsys):
        code = run(["--h", "0.3", "solve", "--coeff", "isotropic-sin"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["iterations"] > 1

    def test_bad_coefficient(self):
        assert run(["solve", "--coeff", "not-a-thing"]) == 2

    @pytest.mark.parametrize("key, linear", [("5I", True), ("sin-5I", False)])
    def test_inclusions_are_coefficients(self, capsys, key, linear):
        assert run(["--h", "0.4", "solve", "--coeff", key]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["iterations"] == 1) == linear

    def test_unwritable_path_is_io_failure(self, tmp_path):
        out = tmp_path / "missing-dir" / "s.json"
        assert run(["--h", "0.4", "solve", "--coeff", "identity",
                    "--out", str(out)]) == 4


class TestDnPipeline:
    def test_dnmap_and_dndiff(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run(["--h", "0.25", "--modes", "3", "dnmap",
                    "--coeff", "identity", "--out", str(a)]) == 0
        assert run(["--h", "0.25", "--modes", "3", "dnmap",
                    "--coeff", "isotropic-sin", "--out", str(b)]) == 0
        capsys.readouterr()
        assert run(["dndiff", str(a), str(b)]) == 0
        gap = float(capsys.readouterr().out.strip())
        assert gap > 0.1

    def test_aliased_basis_is_bad_input(self, tmp_path, capsys):
        # h 0.8 gives 16 boundary vertices, too few for mode 8
        out = str(tmp_path / "a.json")
        assert run(["--h", "0.8", "--modes", "8", "dnmap", "--coeff",
                    "identity", "--out", out]) == 2
        assert "coincide" in capsys.readouterr().err
        assert run(["--h", "0.8", "--modes", "7", "dnmap", "--coeff",
                    "identity", "--out", out]) == 0

    def test_self_difference_zero(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        run(["--h", "0.3", "--modes", "2", "dnmap", "--coeff", "identity",
             "--out", str(a)])
        capsys.readouterr()
        assert run(["dndiff", str(a), str(a)]) == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    @pytest.mark.parametrize("text", [
        "{not json",
        '{"matrix": [0.0]}',
        '{"basis": 1, "matrix": [1.0, 2.0]}',     # 2 entries for a 3x3
        "[1, 2]"], ids=["not-json", "no-basis", "wrong-length", "not-object"])
    def test_malformed_operator_file(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert run(["dndiff", str(bad), str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestCell:
    def test_laminate(self, tmp_path):
        out = tmp_path / "c.json"
        code = run(["cell", "--profile", "laminate:1,4",
                    "--resolution", "32", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        ev = doc["eigenvalues"]
        assert abs(ev[0] - 1.6) < 1e-3
        assert abs(ev[1] - 2.5) < 1e-3
        assert doc["bounds"]["harmonic"] <= ev[0] + 1e-10

    def test_unknown_profile(self):
        assert run(["cell", "--profile", "wavelet:1"]) == 2

    def test_indefinite_profile(self, capsys):
        # negative on half the cell: there is no effective tensor to print
        assert run(["cell", "--profile", "checker:1,-4",
                    "--resolution", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "positive definite" in captured.err

    @pytest.mark.parametrize("profile", ["laminate:2", "checker:1,4,9",
                                         "constant:2,9,9", "smooth-cos:1"])
    def test_wrong_value_count(self, profile):
        assert run(["cell", "--profile", profile, "--resolution", "8"]) == 2


class TestCloakBuild:
    def test_shell_fit_document(self, tmp_path):
        out = tmp_path / "shell.json"
        code = run(["cloak-build", "--R", "1.5", "--eta", "0.125",
                    "--eps", "0.03125", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["max_fit_residual"] <= 1e-10
        assert doc["fallback_points"] > 0
        pts = doc["points"]
        assert all(p["radial"] for p in pts)
        fitted = [p for p in pts if p["fitted"]]
        assert fitted
        # fitted entries carry distinct radial/tangential means
        assert any(abs(p["eigenvalues"][0] - p["eigenvalues"][1]) > 0.1
                   for p in fitted)
        fallback = [p for p in pts if not p["fitted"]]
        assert all(p["eigenvalues"][0] == p["eigenvalues"][1]
                   for p in fallback)

    def test_bad_geometry(self, tmp_path):
        assert run(["cloak-build", "--R", "2.5", "--eta", "0.1",
                    "--eps", "0.01", "--out", str(tmp_path / "x.json")]) == 2


class TestSweeps:
    def test_regular_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "reg.csv"
        code = run(["--h", "0.25", "--modes", "2", "sweep-regular",
                    "--schedule", "0.4,0.2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("r,")
        assert len(lines) == 3

    def test_bad_schedule(self, tmp_path):
        assert run(["sweep-regular", "--schedule", "0.4,oops",
                    "--out", str(tmp_path / "x.csv")]) == 2
        assert run(["sweep-regular", "--schedule", "1.4,0.2",
                    "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("argv", [
        ["sweep-regular", "--psi", "3"],
        ["sweep-singular", "--profile", "bogus"],
        ["sweep-homog", "--inclusion", "5I"]])
    def test_flags_of_other_sweeps_refused(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_homog_guard(self, tmp_path):
        assert run(["sweep-homog", "--schedule", "7",
                    "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("argv", [
        ["sweep-homog", "--schedule", ""],
        ["sweep-homog", "--schedule", "1.5,2"],
        ["diffeo-check", "--h-schedule", ""],
        # a radius-3 field, off the radius-2 disk the blow-up fixes
        ["diffeo-check", "--coeff", "homogenized-radial(1.5,0.125)"]])
    def test_schedule_refused_before_any_work(self, tmp_path, monkeypatch,
                                              argv):
        # recorders stand in for the first costly step of each sweep, so a
        # schedule that gets through fails at once instead of running
        ran = []

        def recorder(*args, **kwargs):
            ran.append(args)
            raise RuntimeError("the sweep ran")

        for name in ("build_isotropic_cloak_sequence", "build_disk_mesh"):
            monkeypatch.setattr(experiments, name, recorder)
        assert run(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        assert not ran

    def test_dropped_rows_reported(self, tmp_path, capsys, monkeypatch):
        rows = [{"rho": rho, "dn": rho - 1.0, "converged": rho != 1.3}
                for rho in (1.8, 1.6, 1.4, 1.3, 1.2)]
        rep = DecayReport(kind="truncated-singular", parameter="rho",
                          rows=rows)
        rep.fit_slope("dn")
        monkeypatch.setattr(cli, "run_truncated_singular_sweep",
                            lambda cfg: rep)
        assert run(["sweep-singular", "--out", str(tmp_path / "s.csv")]) == 0
        err = capsys.readouterr().err
        assert "slope[dn]: 1 non-converged rows left out of the fit" in err

    def test_diffeo_check(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        code = run(["--modes", "2", "diffeo-check", "--coeff", "identity",
                    "--h-schedule", "0.4,0.2", "--format", "json",
                    "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "diffeo-invariance"
        assert len(doc["rows"]) == 2


class TestConfigMerge:
    def test_config_file_applies_and_flags_win(self, tmp_path, monkeypatch):
        meshed = []
        real = cli.build_disk_mesh

        def recording(*args, **kwargs):
            meshed.append(kwargs["h_target"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "build_disk_mesh", recording)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"h": 0.4, "modes": 2,
                                       "out_dir": str(tmp_path)}))
        # config h and out_dir apply
        assert run(["--config", str(cfgfile), "solve", "--coeff", "identity",
                    "--out", "s1.json"]) == 0
        # explicit flag overrides the config value
        assert run(["--config", str(cfgfile), "--h", "0.2", "solve",
                    "--coeff", "identity", "--out", "s2.json"]) == 0
        assert meshed == [0.4, 0.2]
        assert (tmp_path / "s1.json").exists()
        assert (tmp_path / "s2.json").exists()

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["--config", str(bad), "solve", "--coeff", "identity",
                    "--out", str(tmp_path / "s.json")]) == 2

    @pytest.mark.parametrize("doc", ['{"h": "abc"}', '{"hh": 0.3}', '[1, 2]'])
    def test_config_values_are_parsed(self, tmp_path, capsys, doc):
        # a config entry is a flag: a bad value or an unknown key is
        # refused like one, and so is a document that holds no entries
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(doc)
        argv = ["--config", str(cfgfile), "solve", "--coeff", "identity"]
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert "error" in err and "Traceback" not in err

    def test_out_dir_prefixes_relative_paths(self, tmp_path):
        sub = tmp_path / "results"
        code = run(["--h", "0.4", "--out-dir", str(sub), "solve",
                    "--coeff", "identity", "--out", "s.json"])
        assert code == 0
        assert (sub / "s.json").exists()


def test_readme_lists_every_subcommand():
    # the commands of the README's command block, one `cloaksim <cmd>`
    # line each
    text = README.read_text().split("## Command line", 1)[1]
    block = text.split("```sh", 1)[1].split("```", 1)[0]
    listed = {line.split()[1] for line in block.splitlines()
              if line.startswith("cloaksim ")}
    assert listed == set(cli._COMMANDS)


def test_readme_lists_every_named_input():
    # the names of each row of the README's table of named inputs, the
    # first word of each key in its last column, are the keys of that
    # kind's table in presets.py
    text = README.read_text().split("## Command line", 1)[1]
    text = text.split("\n## ", 1)[0]
    rows = [line.split("|")[1:-1] for line in text.splitlines()
            if line.startswith("| ")][2:]    # after the header and rule
    listed = {cells[0].strip(): set(re.findall(r"`([A-Za-z0-9-]+)[^`]*`",
                                               cells[-1]))
              for cells in rows}
    assert listed == {
        "coefficient": set(presets.COEFFICIENTS),
        "inclusion": set(presets.INCLUSION_NAMES),
        "map": set(presets.MAPS),
        "cell profile": set(presets.CELL_PROFILES),
    }
