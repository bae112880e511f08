"""Study configuration, report determinism, runners, and the CLI."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gtlab.comparison import asymptotic_gap
from gtlab.harness import (
    STUDIES,
    StudyConfig,
    _build_parser,
    _config_from_args,
    main,
    report_payload,
    run_study,
)


class TestStudyConfig:
    def test_minimal_mapping(self):
        config = StudyConfig.from_mapping({"kind": "gap", "eps": [0.01, 0.005]})
        assert config.kind == "gap"
        assert config.eps == (0.01, 0.005)
        assert config.grid_k == (8, 8)
        assert config.tolerances == STUDIES["gap"].tolerances

    def test_round_trip_through_mapping(self):
        config = StudyConfig.from_mapping(
            {
                "kind": "ch-disk",
                "eps": [0.08, 0.04],
                "grid_k": [4, 8],
                "radius": 0.3,
                "center": [0.4, 0.6],
                "mass": -0.5,
                "tolerances": {"ratio_last": 0.02},
            }
        )
        again = StudyConfig.from_mapping(config.to_mapping())
        assert again == config

    def test_unknown_keys_are_named(self):
        with pytest.raises(ValueError, match="espilon, wells"):
            StudyConfig.from_mapping(
                {"kind": "gap", "eps": [0.01], "wells": 2, "espilon": 0.1}
            )

    def test_required_keys(self):
        with pytest.raises(ValueError, match="kind"):
            StudyConfig.from_mapping({"eps": [0.01]})
        with pytest.raises(ValueError, match="eps"):
            StudyConfig.from_mapping({"kind": "gap"})

    def test_unknown_kind_lists_options(self):
        with pytest.raises(ValueError, match="profile"):
            StudyConfig(kind="torus", eps=(0.01,))

    def test_eps_validation(self):
        with pytest.raises(ValueError, match="empty"):
            StudyConfig(kind="gap", eps=())
        with pytest.raises(ValueError, match="positive"):
            StudyConfig(kind="gap", eps=(0.01, -0.005))
        with pytest.raises(ValueError, match="decreasing"):
            StudyConfig(kind="gap", eps=(0.005, 0.01))
        with pytest.raises(ValueError, match="decreasing"):
            StudyConfig(kind="gap", eps=(0.01, 0.01))

    def test_scalar_eps_in_mapping(self):
        config = StudyConfig.from_mapping({"kind": "gap", "eps": 0.01})
        assert config.eps == (0.01,)

    def test_grid_k_broadcast_and_per_eps(self):
        one = StudyConfig(kind="gap", eps=(0.01, 0.005), grid_k=16)
        assert one.grid_k == (16, 16)
        assert one.to_mapping()["grid_k"] == [16, 16]
        two = StudyConfig(kind="gap", eps=(0.01, 0.005), grid_k=(8, 16))
        assert two.grid_k == (8, 16)
        assert two == StudyConfig.from_mapping(
            {"kind": "gap", "eps": [0.01, 0.005], "grid_k": [8, 16]}
        )

    def test_grid_k_validation(self):
        with pytest.raises(ValueError, match="match the eps list"):
            StudyConfig(kind="gap", eps=(0.01,), grid_k=(8, 16))
        with pytest.raises(ValueError, match=">= 4"):
            StudyConfig(kind="gap", eps=(0.01,), grid_k=3)
        with pytest.raises(ValueError, match=">= 4"):
            StudyConfig(kind="gap", eps=(0.01, 0.005), grid_k=(8, 4.5))

    def test_geometry_validation(self):
        with pytest.raises(ValueError, match="radius"):
            StudyConfig(kind="ch-disk", eps=(0.04,), radius=0.0)
        with pytest.raises(ValueError, match="center"):
            StudyConfig(kind="ch-disk", eps=(0.04,), center=(0.5,))
        with pytest.raises(ValueError, match="well_scale"):
            StudyConfig(kind="gap", eps=(0.01,), well_scale=-1.0)
        with pytest.raises(ValueError, match="mass"):
            StudyConfig(kind="ch-disk", eps=(0.04,), mass=np.nan)

    def test_tolerance_merge_and_unknown_key(self):
        config = StudyConfig(
            kind="ch-disk", eps=(0.04,), tolerances={"ratio_last": 0.01}
        )
        assert config.tolerances["ratio_last"] == 0.01
        assert config.tolerances["ratio_first"] == 0.15
        with pytest.raises(ValueError, match="windw_low"):
            StudyConfig(kind="gap", eps=(0.01,), tolerances={"windw_low": 0.1})


class TestGapStudy:
    def test_matches_direct_evaluation(self, well, profile_table):
        config = StudyConfig(kind="gap", eps=(0.01, 0.005))
        report = run_study(config)
        rows = asymptotic_gap(well, profile_table, 1.0, [0.01, 0.005])
        for row, (_, upper, lower) in zip(report.rows, rows):
            assert row.metrics["upper_gap"] == pytest.approx(upper, rel=1e-12)
            assert row.metrics["lower_gap"] == pytest.approx(lower, rel=1e-12)
        assert report.passed

    def test_orders_reported_not_asserted(self):
        report = run_study(StudyConfig(kind="gap", eps=(0.01, 0.005, 0.0025)))
        assert set(report.orders) == {"upper_gap_error", "lower_gap_error"}
        assert len(report.orders["upper_gap_error"]) == 2
        # the gap errors shrink roughly linearly in eps
        for order in report.orders["upper_gap_error"]:
            assert 0.5 < order < 1.5

    def test_window_failure_fails_study(self):
        report = run_study(StudyConfig(kind="gap", eps=(0.3, 0.2)))
        assert not report.passed
        assert not report.rows[0].checks["window_within"]


class TestProfileStudy:
    def test_all_checks_pass(self):
        report = run_study(StudyConfig(kind="profile", eps=(0.02,)))
        row = report.rows[0]
        assert report.passed
        assert row.metrics["sigma_error"] <= 1e-10
        assert row.metrics["profile_residual"] <= 1e-8
        assert row.metrics["tanh_gap"] <= 1e-7
        assert row.metrics["tail_error"] <= 1e-6
        assert row.metrics["equipartition"] <= 1e-8

    def test_writes_table_artifact(self, tmp_path):
        out = tmp_path / "profile"
        report = run_study(
            StudyConfig(kind="profile", eps=(0.02,), out_dir=str(out))
        )
        assert report.passed
        with np.load(out / "profile-table.npz") as blob:
            assert blob["phi0"].size == blob["phi1"].size > 0
        assert (out / "report.json").is_file()


class TestMultiplicityStudy:
    def test_counts_exact_at_coarse_eps(self):
        report = run_study(StudyConfig(kind="multiplicity", eps=(0.02,)))
        row = report.rows[0]
        assert report.passed
        assert round(row.metrics["est_1"]) == 1
        assert round(row.metrics["est_2"]) == 2
        assert round(row.metrics["est_3"]) == 3


class TestOneDimensionalSolves:
    def test_ch_planar_energy(self):
        report = run_study(StudyConfig(kind="ch-planar", eps=(0.02,)))
        row = report.rows[0]
        assert report.passed
        assert row.checks["solver_converged"]
        assert row.metrics["energy_error"] <= 1e-3
        assert abs(row.metrics["lambda"]) <= 1e-10

    def test_ok_lamellar_flat_balance(self):
        report = run_study(StudyConfig(kind="ok-lamellar", eps=(0.01,)))
        row = report.rows[0]
        assert report.passed
        assert row.metrics["n_crossings"] == 2
        assert row.metrics["flat_sup"] <= 1e-10

    @pytest.mark.parametrize(
        "kind, name", [("ch-planar", "planar"), ("ok-lamellar", "lamellar")]
    )
    def test_lost_interfaces_recorded_before_any_write(self, tmp_path, kind, name):
        # mass 0.99 leaves room for no minus phase: the state goes uniform
        out = tmp_path / kind
        config = StudyConfig(kind=kind, eps=(0.02,), mass=0.99, out_dir=str(out))
        row = run_study(config).rows[0]
        assert row.error == f"RuntimeError: {name} state lost its interfaces"
        assert sorted(p.name for p in out.iterdir()) == ["report.json", "timings.json"]


class TestOkDiskStudy:
    def test_ok_sup_is_the_interface_csv_max(self, tmp_path):
        out = tmp_path / "ok"
        config = StudyConfig(
            kind="ok-disk", eps=(0.04, 0.02), grid_k=4, coupling=2.5, out_dir=str(out)
        )
        run_study(config)
        report = json.loads((out / "report.json").read_text())
        for index, row in enumerate(report["rows"]):
            with open(out / f"ok-disk-interface-{index:02d}.csv") as handle:
                residual = [float(r["residual"]) for r in csv.DictReader(handle)]
            residual = np.array(residual)
            assert row["metrics"]["ok_sup"] == np.max(np.abs(residual[~np.isnan(residual)]))


class TestFailureRecording:
    def test_bad_force_is_recorded_and_fails(self):
        config = StudyConfig(kind="subsolution", eps=(0.02,), grid_k=24, force=-1.0)
        report = run_study(config)
        row = report.rows[0]
        assert row.error is not None
        assert "positive" in row.error
        assert row.metrics == {}
        assert not report.passed

    def test_sweep_continues_past_failure(self):
        # margin 10*eps at eps=0.08 swallows the whole unit square, so the
        # bulk check cannot run there; the smaller eps still completes
        config = StudyConfig(kind="gt-check", eps=(0.08, 0.04), grid_k=4)
        report = run_study(config)
        assert report.rows[0].error is not None
        assert report.rows[1].error is None
        assert not report.passed


class TestReportPayload:
    def test_excludes_output_location(self, tmp_path):
        config = StudyConfig(
            kind="gap", eps=(0.01,), out_dir=str(tmp_path / "a")
        )
        payload = report_payload(run_study(config))
        assert "out_dir" not in json.dumps(payload)

    def test_anchor_strings_cover_metrics(self):
        for kind, eps in (("gap", (0.01,)), ("multiplicity", (0.02,))):
            report = run_study(StudyConfig(kind=kind, eps=eps))
            for name in STUDIES[kind].anchors:
                assert name in report.rows[0].metrics

    def test_rerun_is_byte_identical(self, tmp_path):
        texts = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            run_study(
                StudyConfig(
                    kind="gap", eps=(0.01, 0.005), out_dir=str(out)
                )
            )
            texts.append((out / "report.json").read_bytes())
        assert texts[0] == texts[1]

    def test_timings_sidecar(self, tmp_path):
        out = tmp_path / "t"
        report = run_study(
            StudyConfig(kind="gap", eps=(0.01, 0.005), out_dir=str(out))
        )
        timing = json.loads((out / "timings.json").read_text())
        assert len(timing["seconds_per_eps"]) == 2
        assert timing["total_seconds"] >= 0.0
        assert len(report.seconds) == 2


class TestCommandLine:
    def test_gap_defaults_pass(self, capsys):
        assert main(["gap"]) == 0
        text = capsys.readouterr().out
        assert "PASS" in text

    def test_eps_and_out_flags(self, tmp_path, capsys):
        out = tmp_path / "gap"
        rc = main(["gap", "--eps", "0.02,0.01", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["eps"] == [0.02, 0.01]

    def test_failing_window_returns_one(self, capsys):
        assert main(["gap", "--eps", "0.3,0.2"]) == 1

    def test_seed_geometry_switches_kind(self, tmp_path, capsys):
        out = tmp_path / "lam"
        rc = main(
            [
                "solve-ok",
                "--seed-geometry",
                "lamellar:0.2",
                "--eps",
                "0.01",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        text = (out / "report.json").read_text()
        report = json.loads(text)
        assert report["config"]["kind"] == "ok-lamellar"
        assert report["config"]["radius"] == 0.2
        # solver diagnostics stay out of the canonical report
        for key in ("stop_reason", "krylov_iterations", "krylov_failures"):
            assert key not in text

    def test_missing_config_no_partial_outputs(self, tmp_path, capsys):
        out = tmp_path / "never"
        rc = main(
            ["study", "--config", str(tmp_path / "nope.json"), "--out", str(out)]
        )
        assert rc == 2
        assert "not found" in capsys.readouterr().err
        assert not out.exists()

    def test_study_requires_config(self, capsys):
        assert main(["study"]) == 2
        assert "--config" in capsys.readouterr().err

    def test_unknown_key_named_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "gap", "eps": [0.01], "wells": 2}))
        assert main(["study", "--config", str(path)]) == 2
        assert "wells" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("center", 0.5),
            ("radius", "0.25"),
            ("eps", None),
            ("tolerances", [1]),
            ("force", "1"),
        ],
        ids=["center", "radius", "eps", "tolerances", "force"],
    )
    def test_wrong_json_type_named_on_stderr(self, tmp_path, capsys, key, value):
        out = tmp_path / "never"
        path = tmp_path / "bad.json"
        config = {"kind": "ch-disk", "eps": [0.08], "out_dir": str(out), key: value}
        path.write_text(json.dumps(config))
        assert main(["study", "--config", str(path)]) == 2
        assert f"config key {key} " in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_json_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{kind: gap")
        assert main(["study", "--config", str(path)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_kind_conflict_with_subcommand(self, tmp_path, capsys):
        path = tmp_path / "gap.json"
        path.write_text(json.dumps({"kind": "gap", "eps": [0.01]}))
        assert main(["multiplicity", "--config", str(path)]) == 2
        assert "conflicts" in capsys.readouterr().err

    def test_config_file_drives_study(self, tmp_path, capsys):
        out = tmp_path / "from-config"
        path = tmp_path / "study.json"
        path.write_text(
            json.dumps(
                {"kind": "gap", "eps": [0.01, 0.005], "out_dir": str(out)}
            )
        )
        assert main(["study", "--config", str(path)]) == 0
        assert (out / "report.json").is_file()

    @pytest.mark.parametrize(
        "flag, value",
        [("--grid-k", "4.5"), ("--eps", "0.1,abc"), ("--seed-geometry", "disk:x")],
        ids=["grid-k", "eps", "seed-geometry"],
    )
    def test_unparsable_flag_named_on_stderr(self, capsys, flag, value):
        assert main(["solve-ch", flag, value]) == 2
        assert flag in capsys.readouterr().err

    def test_bad_geometry_name(self, capsys):
        assert main(["solve-ch", "--seed-geometry", "torus"]) == 2
        err = capsys.readouterr().err
        assert "disk" in err and "planar" in err


def _routed(argv):
    # the parser and the config builder only: no study runs
    return _config_from_args(_build_parser().parse_args(argv))


class TestCommandRouting:
    @pytest.mark.parametrize(
        "argv, kind, eps, grid_k",
        [
            (["profile"], "profile", (0.02,), (8,)),
            (["solve-ch"], "ch-disk", (0.08, 0.04, 0.02), (4, 4, 4)),
            (["solve-ch", "--seed-geometry", "disk"], "ch-disk", (0.08, 0.04, 0.02), (4, 4, 4)),
            (["solve-ch", "--seed-geometry", "planar"], "ch-planar", (0.02,), (8,)),
            (["solve-ok"], "ok-disk", (0.02,), (4,)),
            (["solve-ok", "--seed-geometry", "disk"], "ok-disk", (0.02,), (4,)),
            (["solve-ok", "--seed-geometry", "lamellar"], "ok-lamellar", (0.01,), (8,)),
            (["gt-check"], "gt-check", (0.02,), (4,)),
            (["gt-check", "--seed-geometry", "disk"], "gt-check", (0.02,), (4,)),
            (["subsolution-check"], "subsolution", (0.02, 0.01), (24, 48)),
            (["subsolution-check", "--seed-geometry", "arc"], "subsolution", (0.02, 0.01), (24, 48)),
            (["multiplicity"], "multiplicity", (0.01,), (8,)),
            (["gap"], "gap", (0.01, 0.005, 0.0025), (8, 8, 8)),
        ],
        ids=lambda value: ":".join(value) if isinstance(value, list) else None,
    )
    def test_command_resolves_kind_and_defaults(self, argv, kind, eps, grid_k):
        config = _routed(argv)
        assert config.kind == kind
        assert config.eps == eps
        assert config.grid_k == grid_k

    def test_study_command_takes_kind_from_config(self, tmp_path):
        path = tmp_path / "study.json"
        path.write_text(json.dumps({"kind": "ok-lamellar", "eps": 0.02}))
        config = _routed(["study", "--config", str(path)])
        assert config.kind == "ok-lamellar"
        assert config.eps == (0.02,)
        assert config.grid_k == (8,)

    def test_geometry_radius_override(self):
        config = _routed(["subsolution-check", "--seed-geometry", "arc:0.5"])
        assert config.kind == "subsolution"
        assert config.radius == 0.5

    def test_command_without_geometries_rejects_the_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["profile", "--seed-geometry", "disk"])
        assert exit_info.value.code == 2
        assert "--seed-geometry" in capsys.readouterr().err

    def test_python_dash_m_runs_the_cli(self):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        run = subprocess.run(
            [sys.executable, "-m", "gtlab", "gap", "--eps", "0.01"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert run.returncode == 0, run.stderr
        assert "RuntimeWarning" not in run.stderr
        assert "result: PASS" in run.stdout


ROOT = Path(__file__).resolve().parents[1]

_TRACED_STUDY = """
import json
import math
import tracing
counts = tracing.install().counts
from gtlab import harness
traced_solve = harness.solve_conserved
reports = []
def solve(*args, **kwargs):
    u, report = traced_solve(*args, **kwargs)
    reports.append(report)
    return u, report
harness.solve_conserved = solve
harness.run_study(harness.StudyConfig(kind="ch-planar", eps=(0.04,), grid_k=8))
planar = dict(counts)
harness.run_study(harness.StudyConfig(kind="ok-disk", eps=(0.08,), grid_k=4))
ok_disk = {key: counts[key] - planar.get(key, 0.0) for key in counts}
traced_build = harness.build_subsolution
cells = []
def build(*args, **kwargs):
    cells.append(math.prod(args[4].shape))
    return traced_build(*args, **kwargs)
harness.build_subsolution = build
before = dict(counts)
config = harness.StudyConfig(kind="subsolution", eps=(0.04, 0.03), grid_k=8)
sub = harness.run_study(config)
subsolution = {key: counts[key] - before.get(key, 0.0) for key in counts}
report = reports[0]
print(json.dumps({
    "newton_steps": planar["newton_steps"],
    "newton_converged": planar["newton_converged"],
    "iterations": report.iterations,
    "ok_disk": ok_disk,
    "subsolution": subsolution,
    "subsolution_rows": len(sub.rows),
    "subsolution_errors": [row.error for row in sub.rows],
    "subsolution_cells": sum(cells),
}))
"""


class TestBenchmarkTracer:
    def test_traced_planar_study_counts_newton_steps(self):
        # the benchmark's tracer rebinds gtlab names and reads _newton's
        # result by position; a rename or reorder must fail here, in the 1D
        # ch-planar study, the 2D ok-disk study and the subsolution study
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]),
        }
        run = subprocess.run(
            [sys.executable, "-c", _TRACED_STUDY],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert run.returncode == 0, run.stderr
        counts = json.loads(run.stdout.splitlines()[-1])
        assert counts["newton_steps"] > 0
        assert counts["newton_steps"] == counts["iterations"]
        assert counts["newton_converged"] == 1
        # the 2D layers: contours, the Poisson solve of the long-range term
        # and the Laplacian, each through the binding its caller looks up
        ok_disk = counts["ok_disk"]
        assert ok_disk.get("extract_contours.n") == 1
        assert ok_disk.get("poisson_neumann.n", 0) > 0
        assert ok_disk.get("laplacian.n", 0) > 0
        assert ok_disk.get("newton_converged") == 1
        # the comparison layers of a subsolution study: one graph, one field
        # and one distance call per row, over every cell of the row's grid
        sub = counts["subsolution"]
        rows = counts["subsolution_rows"]
        assert rows == 2
        assert counts["subsolution_errors"] == [None] * rows
        for name in ("solve_cmc_graph.n", "build_subsolution.n", "signed_distance.n"):
            assert sub.get(name) == rows, name
        assert sub.get("signed_distance.points") == counts["subsolution_cells"] > 0
