import json

import numpy as np
import pytest

from cloaksim.coeff import constant_field
from cloaksim.errors import PreconditionError
from cloaksim.experiments import (DecayReport, ExperimentConfig,
                                  _scaled_inclusion, emit_report, fit_loglog,
                                  run_diffeo_invariance,
                                  run_homogenization_sweep,
                                  run_regular_cloak_sweep,
                                  run_truncated_singular_sweep)
from cloaksim.presets import inclusion_field
from cloaksim.qsolve import PicardConfig


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.h == 0.05
        assert cfg.modes == 8
        assert cfg.inclusion == "5I"

    def test_monotone_schedule_required(self):
        with pytest.raises(PreconditionError):
            ExperimentConfig(schedule=(0.4, 0.1, 0.2))
        # strictly one-directional schedules are fine either way
        ExperimentConfig(schedule=(0.1, 0.2, 0.4))
        ExperimentConfig(schedule=(0.4, 0.2, 0.1))


class TestFitLoglog:
    def test_exact_power_law(self):
        r = np.array([0.4, 0.2, 0.1, 0.05])
        pairs = list(zip(r, 3.0 * r ** 1.7))
        slope, intercept, r2, n = fit_loglog(pairs)
        assert abs(slope - 1.7) < 1e-12
        assert abs(np.exp(intercept) - 3.0) < 1e-12
        assert r2 > 1.0 - 1e-12
        assert n == 4

    def test_min_points_enforced(self):
        with pytest.raises(PreconditionError):
            fit_loglog([(0.1, 1.0), (0.05, 0.5)])

    def test_nonpositive_dropped(self):
        pairs = [(0.4, 1.0), (0.2, 0.5), (0.1, 0.0), (0.05, 0.125)]
        with pytest.raises(PreconditionError):
            fit_loglog(pairs)      # only 3 usable points remain
        slope, _, _, n = fit_loglog(pairs, min_points=3)
        assert n == 3
        assert abs(slope - 1.0) < 1e-12


class TestDecayReport:
    def make(self):
        rows = [{"r": 0.4, "dn": 1.0, "converged": True},
                {"r": 0.2, "dn": 0.5, "converged": False},
                {"r": 0.1, "dn": 0.25, "converged": True}]
        return DecayReport(kind="demo", parameter="r", rows=rows,
                           slopes={"dn": {"slope": 1.0, "intercept": 0.0,
                                          "r2": 1.0, "n": 3}},
                           meta={"h": 0.1})

    def test_column_filters_unconverged(self):
        rep = self.make()
        assert rep.column("dn") == [(0.4, 1.0), (0.1, 0.25)]
        assert len(rep.column("dn", converged_only=False)) == 3

    def test_fit_slope_counts_dropped_rows(self):
        rows = [{"r": r, "dn": r ** 2, "converged": True}
                for r in (0.4, 0.2, 0.1, 0.05)]
        rep = DecayReport(kind="demo", parameter="r", rows=rows)
        entry = rep.fit_slope("dn")
        assert abs(entry["slope"] - 2.0) < 1e-12 and entry["n"] == 4
        assert "dropped" not in entry
        rep.rows.insert(1, {"r": 0.3, "dn": 5.0, "converged": False})
        entry = rep.fit_slope("dn", key="dn_again")
        assert rep.slopes["dn_again"] is entry
        assert entry["dropped"] == 1 and entry["n"] == 4
        assert abs(entry["slope"] - 2.0) < 1e-12

    def test_dict_round_trip(self):
        rep = self.make()
        back = DecayReport.from_dict(rep.to_dict())
        assert back.kind == rep.kind
        assert back.rows == rep.rows
        assert back.slopes == rep.slopes
        assert back.meta == rep.meta


class TestEmit:
    def make(self):
        rows = [{"r": 0.4, "dn": 1.25e-3, "converged": True,
                 "factors": [2.0, 4.0]},
                {"r": 0.2, "dn": 2.5e-4, "converged": True,
                 "factors": [2.0, 4.0]}]
        return DecayReport(kind="demo", parameter="r", rows=rows,
                           slopes={"dn": {"slope": 2.32, "intercept": 0.1,
                                          "r2": 0.999, "n": 4}})

    def test_csv(self, tmp_path):
        p = tmp_path / "r.csv"
        emit_report(self.make(), "csv", p)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "r,dn,converged,factors"
        assert lines[1].startswith("0.4,0.00125,1,2;4")
        assert lines[-1].startswith("# slope[dn] = 2.32")

    def test_gnuplot(self, tmp_path):
        p = tmp_path / "r.dat"
        emit_report(self.make(), "gnuplot-dat", p)
        lines = p.read_text().strip().split("\n")
        assert lines[0].startswith("# demo over r")
        assert "\t" in lines[2]

    def test_json(self, tmp_path):
        p = tmp_path / "r.json"
        emit_report(self.make(), "json", p)
        doc = json.loads(p.read_text())
        assert doc["kind"] == "demo"
        assert len(doc["rows"]) == 2

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        emit_report(self.make(), "csv", a)
        emit_report(self.make(), "csv", b)
        assert a.read_text() == b.read_text()

    def test_empty_refused(self, tmp_path):
        rep = DecayReport(kind="demo", parameter="r", rows=[])
        with pytest.raises(PreconditionError):
            emit_report(rep, "csv", tmp_path / "x.csv")

    def test_unknown_format_refused(self, tmp_path):
        with pytest.raises(PreconditionError):
            emit_report(self.make(), "yaml", tmp_path / "x.yaml")


class TestScaledInclusion:
    def test_values_and_support(self):
        base = inclusion_field("5I")
        f = _scaled_inclusion(base, 0.2)
        pts = np.array([[0.1, 0.0], [0.5, 0.0]])
        got = f.eval(pts, np.zeros(2))
        # in 2d the load keeps its value on the shrunk disk
        assert np.abs(got[0] - 5.0 * np.eye(2)).max() < 1e-13
        assert np.abs(got[1] - np.eye(2)).max() < 1e-13

    def test_state_passes_through(self):
        base = inclusion_field("sin-5I")
        f = _scaled_inclusion(base, 0.5)
        got = f.eval(np.array([[0.2, 0.0]]), np.array([np.pi / 2.0]))
        assert np.abs(got[0] - 15.0 * np.eye(2)).max() < 1e-12


class TestDrivers:
    def test_regular_sweep_small(self):
        cfg = ExperimentConfig(schedule=(0.4, 0.2), h=0.25, modes=2)
        rep = run_regular_cloak_sweep(cfg)
        assert rep.parameter == "r"
        assert [row["r"] for row in rep.rows] == [0.4, 0.2]
        for row in rep.rows:
            assert row["converged"]
            assert row["h1"] > row["l2"] > 0.0
            assert row["dn"] > 0.0
        # smaller blow-up radius perturbs less
        assert rep.rows[1]["dn"] < rep.rows[0]["dn"]

    def test_regular_sweep_rejects_bad_radii(self):
        with pytest.raises(PreconditionError):
            run_regular_cloak_sweep(ExperimentConfig(schedule=(1.4, 0.2)))
        with pytest.raises(PreconditionError):
            run_regular_cloak_sweep(ExperimentConfig(schedule=()))

    def test_singular_sweep_rejects_bad_rho(self):
        with pytest.raises(PreconditionError):
            run_truncated_singular_sweep(ExperimentConfig(schedule=(2.5, 1.5)))
        with pytest.raises(PreconditionError):
            run_truncated_singular_sweep(ExperimentConfig(schedule=()))

    def test_homog_sweep_rejects_non_integers(self):
        with pytest.raises(PreconditionError):
            run_homogenization_sweep(ExperimentConfig(schedule=(1.5, 2.0)))
        with pytest.raises(PreconditionError):
            run_homogenization_sweep(ExperimentConfig(schedule=(0,)))

    def test_homog_sweep_refuses_unresolvable_period(self):
        # term 7 has eps = 2^-7/16, whose resolved mesh blows past the
        # vertex guard
        with pytest.raises(PreconditionError):
            run_homogenization_sweep(ExperimentConfig(schedule=(7,), h=0.05))

    def test_diffeo_small(self):
        cfg = ExperimentConfig(schedule=(0.4, 0.2), modes=2, inclusion="")
        rep = run_diffeo_invariance(cfg)
        assert len(rep.rows) == 2
        dns = [row["dn"] for row in rep.rows]
        assert dns[1] < dns[0]
        last = rep.rows[-1]
        assert "extrapolated" in last and "self_convergence" in last
        assert last["factors"][0] == pytest.approx(dns[0] / dns[1])
