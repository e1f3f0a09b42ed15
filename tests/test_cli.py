import json

import numpy as np
import pytest

import cloaksim.cli as cli
from cloaksim.experiments import DecayReport
from cloaksim.fem import TriMesh


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

    def test_corrupted_jacobian_detected(self, monkeypatch):
        # if the analytic jacobian stops matching finite differences the
        # check must fail numerically, not silently pass
        real = cli.fd_jacobian
        monkeypatch.setattr(cli, "fd_jacobian",
                            lambda dmap, x: real(dmap, x) + 0.01)
        assert run(["map-check", "--map", "regular:0.5"]) == 3


class TestMesh:
    def test_writes_loadable_mesh(self, tmp_path):
        out = tmp_path / "m.txt"
        code = run(["--h", "0.3", "mesh", "--radius", "2.0",
                    "--aligned", "1.0,1.5", "--out", str(out)])
        assert code == 0
        mesh = TriMesh.load_text(out)
        r = np.linalg.norm(mesh.vertices, axis=1)
        assert np.abs(r - 1.5).min() < 1e-12

    def test_unwritable_path_is_io_failure(self):
        assert run(["--h", "0.4", "mesh", "--out",
                    "/nonexistent-dir/m.txt"]) == 4


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

    def test_self_difference_zero(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        run(["--h", "0.3", "--modes", "2", "dnmap", "--coeff", "identity",
             "--out", str(a)])
        capsys.readouterr()
        assert run(["dndiff", str(a), str(a)]) == 0
        assert float(capsys.readouterr().out.strip()) == 0.0


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

    def test_homog_guard(self, tmp_path):
        assert run(["sweep-homog", "--schedule", "7",
                    "--out", str(tmp_path / "x.csv")]) == 2

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
    def test_config_file_applies_and_flags_win(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"h": 0.4, "modes": 2,
                                       "out_dir": str(tmp_path)}))
        # config h applies
        code = run(["--config", str(cfgfile), "mesh", "--out", "m1.txt"])
        assert code == 0
        m1 = TriMesh.load_text(tmp_path / "m1.txt")
        # explicit flag overrides the config value
        code = run(["--config", str(cfgfile), "--h", "0.2", "mesh",
                    "--out", "m2.txt"])
        assert code == 0
        m2 = TriMesh.load_text(tmp_path / "m2.txt")
        assert m2.n_vertices > m1.n_vertices

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["--config", str(bad), "mesh", "--out",
                    str(tmp_path / "m.txt")]) == 2

    def test_out_dir_prefixes_relative_paths(self, tmp_path):
        sub = tmp_path / "results"
        code = run(["--h", "0.4", "--out-dir", str(sub), "mesh",
                    "--out", "m.txt"])
        assert code == 0
        assert (sub / "m.txt").exists()
