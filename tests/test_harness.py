"""Study configuration, report determinism, runners, and the CLI."""

import ast
import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gtlab
from gtlab import harness
from gtlab.comparison import _EVAL_BLOCK, asymptotic_gap
from gtlab.field import Grid
from gtlab.harness import (
    STUDIES,
    StudyConfig,
    _build_parser,
    _config_from_args,
    _save_field,
    main,
    report_payload,
    run_study,
    write_contour_csv,
)
from gtlab.interface import Contour
from gtlab.measure import mixing_energy
from gtlab.solve import disk_signed_distance, long_range_potential


class TestStudyConfig:
    def test_minimal_mapping(self):
        config = StudyConfig.from_mapping({"kind": "multiplicity", "eps": [0.01, 0.005]})
        assert config.kind == "multiplicity"
        assert config.eps == (0.01, 0.005)
        assert config.grid_k == (8, 8)
        assert config.tolerances == STUDIES["multiplicity"].tolerances

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

    @pytest.mark.parametrize("kind", list(STUDIES))
    def test_kind_alone_takes_the_kind_defaults(self, kind):
        # STUDIES[kind].defaults is the one owner of every key the kind
        # reads, whichever way the config is built; a key it does not read
        # stays None
        defaults = STUDIES[kind].defaults
        config = StudyConfig.from_mapping({"kind": kind})
        assert config == StudyConfig(kind=kind) == StudyConfig(kind=kind, **defaults)
        assert config.eps == defaults["eps"]
        k = defaults.get("grid_k")
        assert config.grid_k == ((k,) * len(config.eps) if np.isscalar(k) else k)
        assert config.radius == defaults.get("radius")

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
        one = StudyConfig(kind="multiplicity", eps=(0.01, 0.005), grid_k=16)
        assert one.grid_k == (16, 16)
        assert one.to_mapping()["grid_k"] == (16, 16)
        two = StudyConfig(kind="multiplicity", eps=(0.01, 0.005), grid_k=(8, 16))
        assert two.grid_k == (8, 16)
        assert two == StudyConfig.from_mapping(
            {"kind": "multiplicity", "eps": [0.01, 0.005], "grid_k": [8, 16]}
        )

    def test_grid_k_validation(self):
        with pytest.raises(ValueError, match="match the eps list"):
            StudyConfig(kind="multiplicity", eps=(0.01,), grid_k=(8, 16))
        with pytest.raises(ValueError, match=">= 4"):
            StudyConfig(kind="multiplicity", eps=(0.01,), grid_k=3)
        with pytest.raises(ValueError, match=">= 4"):
            StudyConfig(kind="multiplicity", eps=(0.01, 0.005), grid_k=(8, 4.5))

    def test_geometry_validation(self):
        with pytest.raises(ValueError, match="radius"):
            StudyConfig(kind="ch-disk", eps=(0.04,), radius=0.0)
        with pytest.raises(ValueError, match="center"):
            StudyConfig(kind="ch-disk", eps=(0.04,), center=(0.5,))
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


# The config the kinds do not read: ch-planar reads grid_k, center (one
# coordinate) and mass, not radius, force or coupling
_UNREAD = {
    "kind": "ch-planar",
    "eps": [0.04],
    "radius": 0.3,
    "force": 5.0,
    "coupling": 9.0,
    "center": [0.5, 0.9],
}

# How the converse test moves each key off the value its run used (a mass
# of None keeps the seed's mass)
_PERTURB = {
    "grid_k": lambda ks: tuple(k + 2 for k in ks),
    "radius": lambda radius: 0.8 * radius,
    "center": lambda center: tuple(c + 0.05 for c in center),
    "mass": lambda mass: -0.5,
    "force": lambda force: 0.5 * force,
    "coupling": lambda coupling: 2.0 * coupling,
}

# Cheap widths for the converse test: the 2D solves at eps 0.08 and k 4,
# but gt-check at 0.04, where its bulk margin leaves cells to check; the
# certificate at 0.04; every other kind at its defaults
_CHEAP = {
    "ch-disk": {"eps": (0.08,)},
    "ok-disk": {"eps": (0.08,)},
    "gt-check": {"eps": (0.04,)},
    "subsolution": {"eps": (0.04,), "grid_k": 8},
}


class TestKindKeys:
    # STUDIES[kind].defaults names every key the kind reads; any other key
    # is refused, so a report's config states only what the run used
    def test_unread_keys_refused_on_every_path(self, tmp_path, capsys):
        named = "ch-planar does not read the config key(s): coupling, force, radius"
        with pytest.raises(ValueError, match=re.escape(named)):
            StudyConfig(**_UNREAD)
        with pytest.raises(ValueError, match=re.escape(named)):
            StudyConfig.from_mapping(_UNREAD)
        path = tmp_path / "planar.json"
        path.write_text(json.dumps(_UNREAD))
        out = tmp_path / "never"
        for command in (["study"], ["solve-ch", "--seed-geometry", "planar"]):
            assert main([*command, "--config", str(path), "--out", str(out)]) == 2
            assert named in capsys.readouterr().err
        assert not out.exists()

    def test_center_has_the_kinds_dimension(self):
        with pytest.raises(ValueError, match="center of ok-lamellar must be 1 finite"):
            StudyConfig(kind="ok-lamellar", center=(0.5, 0.5))
        with pytest.raises(ValueError, match="center of ok-lamellar must be 1 finite"):
            StudyConfig.from_mapping({"kind": "ok-lamellar", "center": [0.45, 0.5]})
        assert StudyConfig(kind="ok-lamellar", center=(0.45,)).center == (0.45,)

    def test_grid_k_flag_only_where_the_kind_reads_it(self, capsys):
        for command in ("profile", "gap"):
            with pytest.raises(SystemExit) as exit_info:
                main([command, "--grid-k", "8"])
            assert exit_info.value.code == 2
            assert "--grid-k" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, key",
        [(kind, key) for kind in STUDIES for key in STUDIES[kind].defaults if key != "eps"],
    )
    def test_every_declared_key_is_read(self, tmp_path, kind, key):
        # the converse: a key a kind declares changes its rows or its files
        base = StudyConfig(kind=kind, **_CHEAP.get(kind, {}))
        moved = dataclasses.replace(base, **{key: _PERTURB[key](getattr(base, key))})

        def outputs(config, name):
            out = tmp_path / name
            report = run_study(dataclasses.replace(config, out_dir=str(out)))
            files = {p.name: p.read_bytes() for p in out.iterdir() if p.suffix != ".json"}
            return [dataclasses.asdict(row) for row in report.rows], files

        rows, files = outputs(base, "base")
        moved_rows, moved_files = outputs(moved, "moved")
        assert [row["error"] for row in rows + moved_rows] == [None] * (2 * len(rows))
        assert (moved_rows, moved_files) != (rows, files)


class TestGapStudy:
    def test_matches_direct_evaluation(self, profile_table):
        config = StudyConfig(kind="gap", eps=(0.01, 0.005))
        report = run_study(config)
        for row in report.rows:
            upper, lower = asymptotic_gap(profile_table, 1.0, row.eps)
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
        assert row.metrics["sigma_error"] <= 1e-12
        assert row.metrics["profile_residual"] <= 1e-8
        assert row.metrics["tanh_gap"] <= 1e-7
        assert row.metrics["tail_error"] <= 1e-6
        assert row.metrics["equipartition"] <= 1e-8

    def test_coarse_table_fails_tanh_within(self, monkeypatch):
        # tanh_gap compares the Newton nodes with the closed form (phi0_at
        # is the closed form itself): at spacing 0.05 the nodes sit 7.1e-5
        # off tanh, against the 1e-7 gate
        monkeypatch.setattr(harness, "PROFILE_SPACING", 0.05)
        row = run_study(StudyConfig(kind="profile", eps=(0.02,))).rows[0]
        assert row.metrics["tanh_gap"] == pytest.approx(7.05e-5, rel=1e-3)
        assert not row.checks["tanh_within"]

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
        "kind, settings, error",
        [
            # mass 0.99 leaves room for no minus phase: the state goes uniform
            pytest.param(
                "ch-planar",
                {"eps": (0.02,), "mass": 0.99},
                "planar state lost its interfaces",
                id="ch-planar-planar",
            ),
            pytest.param(
                "ok-lamellar",
                {"eps": (0.02,), "mass": 0.99},
                "lamellar state lost its interfaces",
                id="ok-lamellar-lamellar",
            ),
            # a disk of radius 0.05 is below eps 0.08's resolution: it dissolves
            pytest.param(
                "ch-disk",
                {"eps": (0.08,), "grid_k": 4, "radius": 0.05},
                "no closed interface contour found",
                id="ch-disk-dissolved",
            ),
        ],
    )
    def test_lost_interfaces_recorded_before_any_write(self, tmp_path, kind, settings, error):
        out = tmp_path / kind
        row = run_study(StudyConfig(kind=kind, out_dir=str(out), **settings)).rows[0]
        assert row.error == f"RuntimeError: {error}"
        assert sorted(p.name for p in out.iterdir()) == ["report.json", "timings.json"]


class TestReportedEnergy:
    @pytest.mark.parametrize(
        "kind, settings",
        [("ch-disk", {"eps": (0.04,), "grid_k": 8}), ("ch-planar", {"eps": (0.02,)})],
    )
    def test_energy_is_that_of_the_written_state(self, tmp_path, kind, settings):
        # the kind measures the mixing energy of the state it writes, bit for bit
        config = StudyConfig(kind=kind, out_dir=str(tmp_path), **settings)
        row = run_study(config).rows[0]
        with np.load(tmp_path / f"{kind}-field-00.npz") as snapshot:
            values = snapshot["values"]
            grid = Grid(
                tuple(float(o) for o in snapshot["origin"]),
                float(snapshot["spacing"]),
                values.shape,
            )
        assert row.metrics["energy"] == mixing_energy(values, grid, row.eps)


class TestMirrorFold:
    @pytest.mark.parametrize(
        "kind, settings, seen",
        [
            # centred, 100 cells a side: a quarter of the box
            ("ch-disk", {"eps": (0.04,), "grid_k": 4}, {(50, 50)}),
            # centred, 125 cells a side: no cell boundary on either mirror
            ("ch-disk", {"eps": (0.04,), "grid_k": 5}, {(125, 125)}),
            # the antisymmetric layer at the solve-ch planar defaults
            ("ch-planar", {"eps": (0.02,), "grid_k": 8}, {(400,)}),
        ],
    )
    def test_fold_engages_only_on_a_mirror(self, laplacian_shapes, kind, settings, seen):
        row = run_study(StudyConfig(kind=kind, **settings)).rows[0]
        assert row.error is None and row.checks["solver_converged"]
        assert set(laplacian_shapes) == seen

    def test_off_centre_disk_keeps_its_axis(self, laplacian_shapes):
        # off centre on axis 0 only: axis 1 is still a mirror
        run_study(StudyConfig(kind="ch-disk", eps=(0.04,), grid_k=4, center=(0.45, 0.5)))
        assert {shape[0] for shape in laplacian_shapes} == {100}


class TestDiskSeed:
    @pytest.mark.parametrize("n", [50, 100, 200, 250, 400, 800])
    def test_centred_seed_is_mirror_symmetric(self, profile_table, n):
        grid, seed = harness._disk(StudyConfig(kind="ch-disk", eps=(0.02,)), profile_table, 4.0 / n, 4)
        assert grid.shape == seed.shape == (n, n)
        assert np.array_equal(seed, seed[::-1])
        assert np.array_equal(seed, seed[:, ::-1])

    def test_off_centre_seed_keeps_its_bits(self, profile_table):
        eps = 0.02
        config = StudyConfig(kind="ch-disk", eps=(eps,), center=(0.45, 0.52), radius=0.2)
        grid, seed = harness._disk(config, profile_table, eps, 4)
        dist = disk_signed_distance(grid, config.center, config.radius)
        assert seed.tobytes() == profile_table.phi0_at(dist / eps).tobytes()


class TestSolvedKindFiles:
    @pytest.mark.parametrize(
        "kind, located",
        [
            ("ch-disk", "interface"),
            ("ok-disk", "interface"),
            ("gt-check", "interface"),
            ("ch-planar", "crossings"),
            ("ok-lamellar", "crossings"),
        ],
    )
    def test_exact_file_set(self, tmp_path, kind, located):
        # every solved kind writes its snapshot, then the interface CSV in 2D
        # or the crossings CSV in 1D, beside the report and its timings
        out = tmp_path / kind
        report = run_study(StudyConfig(kind=kind, eps=(0.04,), grid_k=4, out_dir=str(out)))
        assert report.rows[0].error is None
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [
                f"{kind}-field-00.npz",
                f"{kind}-{located}-00.csv",
                "report.json",
                "timings.json",
            ]
        )


class TestOkDiskStudy:
    # the runner measures sigma * kappa = lambda - gamma * v once for every
    # solved kind; each kind's sup metric is that residual's largest value
    @pytest.mark.parametrize(
        "kind, metric, settings",
        [
            ("ch-disk", "gt_sup", {}),
            ("gt-check", "gt_sup", {}),
            ("ok-disk", "ok_sup", {"coupling": 2.5}),
        ],
        ids=["ch-disk", "gt-check", "ok-disk"],
    )
    def test_ok_sup_is_the_interface_csv_max(self, tmp_path, kind, metric, settings):
        out = tmp_path / kind
        config = StudyConfig(kind=kind, eps=(0.04, 0.02), grid_k=4, out_dir=str(out), **settings)
        run_study(config)
        report = json.loads((out / "report.json").read_text())
        for index, row in enumerate(report["rows"]):
            with open(out / f"{kind}-interface-{index:02d}.csv") as handle:
                residual = [float(r["residual"]) for r in csv.DictReader(handle)]
            residual = np.array(residual)
            assert row["metrics"][metric] == np.max(np.abs(residual[~np.isnan(residual)]))

    def test_flat_sup_is_the_lamellar_balance_at_the_crossings(self, tmp_path):
        # a flat layer has kappa = 0: flat_sup is max |lambda - gamma * v|
        # over the crossings, v recomputed from the saved snapshot
        out = tmp_path / "lamellar"
        config = StudyConfig(
            kind="ok-lamellar",
            eps=(0.02, 0.01),
            coupling=2.5,
            radius=0.2,
            center=(0.45,),
            out_dir=str(out),
        )
        report = run_study(config)
        for index, row in enumerate(report.rows):
            snapshot = np.load(out / f"ok-lamellar-field-{index:02d}.npz")
            grid = Grid(
                tuple(float(o) for o in snapshot["origin"]),
                float(snapshot["spacing"]),
                snapshot["values"].shape,
            )
            w = long_range_potential(snapshot["values"], grid, config.coupling)
            with open(out / f"ok-lamellar-crossings-{index:02d}.csv") as handle:
                crossings = np.array([float(r["x"]) for r in csv.DictReader(handle)])
            target = row.metrics["lambda"] - np.interp(crossings, grid.axis(0), w)
            assert row.metrics["n_crossings"] == crossings.size == 2
            assert row.metrics["flat_sup"] == np.max(np.abs(target))


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

    def test_every_row_failing_still_writes_the_report(self, tmp_path, capsys):
        # the margin 10 * eps swallows the unit square at both widths, so
        # every row carries the failure, the CLI exits 1 and the report is
        # still written
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"kind": "gt-check", "eps": [0.1, 0.08], "grid_k": 4}))
        out = tmp_path / "out"
        assert main(["study", "--config", str(path), "--out", str(out)]) == 1
        assert "result: FAIL" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text())
        assert not report["passed"]
        error = "ValueError: margin leaves no bulk cells to check"
        assert [row["error"] for row in report["rows"]] == [error, error]


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

    def test_peak_memory_sidecar(self, tmp_path):
        # the process's peak resident set after each row: it can only grow
        out = tmp_path / "m"
        report = run_study(
            StudyConfig(kind="gap", eps=(0.01, 0.005, 0.0025), out_dir=str(out))
        )
        peaks = json.loads((out / "timings.json").read_text())["peak_rss_mb_per_eps"]
        assert peaks == list(report.peak_rss_mb)
        assert len(peaks) == len(report.rows) == 3
        assert all(b >= a > 0.0 for a, b in zip(peaks, peaks[1:]))
        assert "peak_rss" not in (out / "report.json").read_text()


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
        # the flag names the seed only; its geometry comes from --config
        out = tmp_path / "lam"
        path = tmp_path / "walls.json"
        path.write_text(json.dumps({"radius": 0.2}))
        rc = main(
            [
                "solve-ok",
                "--seed-geometry",
                "lamellar",
                "--config",
                str(path),
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

    def test_well_scale_is_not_a_key(self, tmp_path, capsys):
        # W(r) = (1 - r^2)^2 / 4 is the only well; a scaled well is this one
        # at another eps
        mapping = {"kind": "gap", "eps": [0.01], "well_scale": 1.0}
        with pytest.raises(ValueError, match="^unknown config key\\(s\\): well_scale$"):
            StudyConfig.from_mapping(mapping)
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(mapping))
        assert main(["study", "--config", str(path)]) == 2
        assert "unknown config key(s): well_scale" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("eps", [float("nan")], "eps"),
            ("eps", [float("inf")], "eps"),
            ("grid_k", float("nan"), "grid_k"),
            ("grid_k", float("inf"), "grid_k"),
            ("tolerances", {"estimate": float("nan")}, "estimate"),
        ],
        ids=["eps-nan", "eps-inf", "grid_k-nan", "grid_k-inf", "tolerance-nan"],
    )
    def test_non_finite_value_named_on_stderr(self, tmp_path, capsys, key, value, named):
        # json writes these as NaN and Infinity, which json.loads reads
        # back; multiplicity reads every key named here
        out = tmp_path / "never"
        path = tmp_path / "bad.json"
        config = {"kind": "multiplicity", "eps": [0.01], "out_dir": str(out), key: value}
        path.write_text(json.dumps(config))
        assert main(["study", "--config", str(path)]) == 2
        assert named in capsys.readouterr().err
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
        "flag, value, by_argparse",
        [
            ("--grid-k", "4.5", False),
            ("--eps", "0.1,abc", False),
            # --seed-geometry is a choice of names, which argparse enforces
            ("--seed-geometry", "disk:x", True),
        ],
        ids=["grid-k", "eps", "seed-geometry"],
    )
    def test_unparsable_flag_named_on_stderr(self, capsys, flag, value, by_argparse):
        if by_argparse:
            with pytest.raises(SystemExit) as exit_info:
                main(["solve-ch", flag, value])
            assert exit_info.value.code == 2
        else:
            assert main(["solve-ch", flag, value]) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gap", "--eps", ""],
            ["multiplicity", "--grid-k", ""],
            ["gap", "--out", ""],
            ["solve-ch", "--config", ""],
            ["study", "--config", ""],
        ],
        ids=["eps", "grid-k", "out", "config", "study-config"],
    )
    def test_empty_flag_value_refused(self, tmp_path, monkeypatch, capsys, argv):
        # an empty value is refused, not taken for a flag left out
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert f"{argv[1]} must not be empty" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_geometry_name(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["solve-ch", "--seed-geometry", "torus"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--seed-geometry" in err and "disk" in err and "planar" in err


class TestOneFileOneStudy:
    # a study file names one study: every entry path resolves the keys it
    # leaves out from the kind's defaults, the same way
    def test_every_entry_path_writes_the_same_report(self, tmp_path, capsys):
        mapping = {"kind": "ch-disk", "eps": [0.08]}
        path = tmp_path / "disk.json"
        path.write_text(json.dumps(mapping))
        codes = [
            main([command, "--config", str(path), "--out", str(tmp_path / command)])
            for command in ("study", "solve-ch")
        ]
        report = run_study(StudyConfig.from_mapping({**mapping, "out_dir": str(tmp_path / "run")}))
        assert codes == [0 if report.passed else 1] * 2
        first, second, third = (
            (tmp_path / name / "report.json").read_bytes() for name in ("study", "solve-ch", "run")
        )
        assert first == second == third
        assert json.loads(first)["config"]["grid_k"] == [STUDIES["ch-disk"].defaults["grid_k"]]

    def test_per_eps_default_grid_k_refused_on_every_path(self, tmp_path, capsys):
        # subsolution's per-eps default grid_k (24, 48) belongs to its
        # default eps (0.02, 0.01), so another eps needs its own grid_k
        mapping = {"kind": "subsolution", "eps": [0.04]}
        with pytest.raises(ValueError, match="grid_k"):
            StudyConfig.from_mapping(mapping)
        with pytest.raises(ValueError, match="grid_k"):
            StudyConfig(kind="subsolution", eps=(0.04,))
        out = tmp_path / "never"
        path = tmp_path / "arc.json"
        path.write_text(json.dumps(mapping))
        for command in ("study", "subsolution-check"):
            assert main([command, "--config", str(path), "--out", str(out)]) == 2
            assert "grid_k" in capsys.readouterr().err
        assert not out.exists()


def _routed(argv):
    # the parser and the config builder only: no study runs
    return _config_from_args(_build_parser().parse_args(argv))


class TestCommandRouting:
    @pytest.mark.parametrize(
        "argv, kind, eps, grid_k",
        [
            (["profile"], "profile", (0.02,), None),
            (["solve-ch"], "ch-disk", (0.08, 0.04, 0.02), (4, 4, 4)),
            (["solve-ch", "--seed-geometry", "disk"], "ch-disk", (0.08, 0.04, 0.02), (4, 4, 4)),
            (["solve-ch", "--seed-geometry", "planar"], "ch-planar", (0.02,), (8,)),
            (["solve-ok"], "ok-disk", (0.02,), (4,)),
            (["solve-ok", "--seed-geometry", "disk"], "ok-disk", (0.02,), (4,)),
            (["solve-ok", "--seed-geometry", "lamellar"], "ok-lamellar", (0.01,), (8,)),
            (["gt-check"], "gt-check", (0.02,), (4,)),
            # --grid-k alone keeps the default eps
            (["gt-check", "--grid-k", "6"], "gt-check", (0.02,), (6,)),
            (["subsolution-check"], "subsolution", (0.02, 0.01), (24, 48)),
            (["subsolution-check", "--grid-k", "30,60"], "subsolution", (0.02, 0.01), (30, 60)),
            (["multiplicity"], "multiplicity", (0.01,), (8,)),
            (["gap"], "gap", (0.01, 0.005, 0.0025), None),
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

    def test_per_eps_default_grid_k_needs_the_default_eps(self, tmp_path, capsys):
        # subsolution's default grid_k (24, 48) belongs to its default eps
        # (0.02, 0.01); another eps, from the flag or a config file, must
        # bring its own grid_k, and the refusal names the flag
        assert main(["subsolution-check", "--eps", "0.02"]) == 2
        err = capsys.readouterr().err
        assert "--grid-k" in err and "[24, 48]" in err and "[0.02, 0.01]" in err
        path = tmp_path / "eps.json"
        path.write_text(json.dumps({"eps": [0.02]}))
        assert main(["subsolution-check", "--config", str(path)]) == 2
        assert "--grid-k" in capsys.readouterr().err
        config = _routed(["subsolution-check", "--eps", "0.02", "--grid-k", "24"])
        assert config.eps == (0.02,) and config.grid_k == (24,)
        # a scalar default grid_k still applies to any eps
        assert _routed(["solve-ch", "--eps", "0.05"]).grid_k == (4,)

    def test_command_without_geometries_rejects_the_flag(self, capsys):
        # gt-check and subsolution-check run one seed each, so they name none
        for command, name in (("profile", "disk"), ("gt-check", "disk"), ("subsolution-check", "arc")):
            with pytest.raises(SystemExit) as exit_info:
                main([command, "--seed-geometry", name])
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

    def test_import_and_cli_leave_heavy_scipy_unloaded(self, tmp_path):
        # importing gtlab pays for scipy.fft only (MINRES is in-house and
        # only the profile study's Newton table needs scipy.linalg); these
        # subpackages, scipy.sparse among them, must stay out of a default
        # command's process
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        script = (
            "import runpy, sys\n"
            "import gtlab\n"
            "heavy = ('integrate', 'interpolate', 'linalg', 'optimize', 'sparse',\n"
            "         'spatial')\n"
            "def loaded():\n"
            "    return [n for n in heavy if 'scipy.' + n in sys.modules]\n"
            "print('loaded after import:', loaded())\n"
            "sys.argv = ['gtlab', 'gap', '--out', sys.argv[1]]\n"
            "try:\n"
            "    runpy.run_module('gtlab', run_name='__main__')\n"
            "except SystemExit as stop:\n"
            "    assert stop.code == 0, stop.code\n"
            "print('loaded after gap:', loaded())\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "gap")],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert run.returncode == 0, run.stderr
        lines = run.stdout.splitlines()
        assert "loaded after import: []" in lines, run.stdout
        assert "loaded after gap: []" in lines, run.stdout
        assert (tmp_path / "gap" / "report.json").is_file()

    def test_solved_report_bytes_do_not_follow_the_blas_thread_count(self, tmp_path):
        # the solver's inner products and norms sum without BLAS, whose
        # threads split a dot into partial sums that end in other bits
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            env = {
                **os.environ,
                "PYTHONPATH": str(ROOT / "src"),
                "OPENBLAS_NUM_THREADS": threads,
            }
            args = ["solve-ch", "--eps", "0.016", "--grid-k", "4", "--out", str(out)]
            run = subprocess.run(
                [sys.executable, "-m", "gtlab", *args],
                cwd=ROOT,
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert run.returncode == 0, run.stderr
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]


ROOT = Path(__file__).resolve().parents[1]

_TRACED_STUDY = """
import json
import math
import tempfile
import tracing
counts = tracing.install().counts
out = tempfile.TemporaryDirectory()
from gtlab import harness
traced_solve = harness.solve_conserved
reports = []
def solve(*args, **kwargs):
    u, report = traced_solve(*args, **kwargs)
    reports.append(report)
    return u, report
harness.solve_conserved = solve
config = harness.StudyConfig(kind="ch-planar", eps=(0.04,), grid_k=8, out_dir=out.name + "/p")
harness.run_study(config)
planar = dict(counts)
harness.run_study(harness.StudyConfig(kind="ok-disk", eps=(0.08,), grid_k=4))
ok_disk = {key: counts[key] - planar.get(key, 0.0) for key in counts}
before = dict(counts)
config = harness.StudyConfig(kind="gt-check", eps=(0.04,), grid_k=4, out_dir=out.name + "/g")
harness.run_study(config)
gt_check = {key: counts[key] - before.get(key, 0.0) for key in counts}
out.cleanup()
traced_build = harness.build_subsolution
cells = []
def build(*args, **kwargs):
    cells.append(math.prod(args[4].shape))
    return traced_build(*args, **kwargs)
harness.build_subsolution = build
before = dict(counts)
config = harness.StudyConfig(kind="subsolution", eps=(0.04, 0.03), grid_k=8, radius=0.25)
sub = harness.run_study(config)
subsolution = {key: counts[key] - before.get(key, 0.0) for key in counts}
report = reports[0]
print(json.dumps({
    "newton_steps": planar["newton_steps"],
    "newton_converged": planar["newton_converged"],
    "iterations": report.iterations,
    "planar_io": planar["io.n"],
    "ok_disk": ok_disk,
    "gt_check": gt_check,
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
        # the 2D layers: contours, curvature, the Poisson solve of the
        # long-range term, the Laplacian and the MINRES iterations, each
        # through the binding its caller looks up
        ok_disk = counts["ok_disk"]
        assert ok_disk.get("extract_contours.n") == 1
        assert ok_disk.get("curvature.n") == 1
        assert ok_disk.get("krylov_iters", 0) > 0
        assert ok_disk.get("poisson_neumann.n", 0) > 0
        assert ok_disk.get("laplacian.n", 0) > 0
        assert ok_disk.get("newton_converged") == 1
        # the written files: the report, the snapshot (written by hand, with
        # no np.savez inside it), and the crossings CSV in 1D or the
        # interface CSV in 2D; the bulk check
        assert counts["planar_io"] == 3
        gt_check = counts["gt_check"]
        assert gt_check.get("io.n") == 3
        assert gt_check.get("bulk_deviation.n") == 1
        # the comparison layers of a subsolution study: one graph, one field
        # and one distance call per block of grid rows, over every cell of
        # the study row's grid; both grids here (under 21k cells) are one block
        sub = counts["subsolution"]
        rows = counts["subsolution_rows"]
        assert rows == 2
        assert counts["subsolution_errors"] == [None] * rows
        for name in ("solve_cmc_graph.n", "build_subsolution.n", "signed_distance.n"):
            assert sub.get(name) == rows, name
        assert sub.get("signed_distance.points") == counts["subsolution_cells"] > 0


class TestSaveField:
    @pytest.mark.parametrize("n_cells", [(12,), (8, 6)])
    def test_bytes_equal_np_savez(self, tmp_path, n_cells):
        # entries opened for writing carry the fixed 1980 timestamp, so the
        # two archives are comparable byte for byte
        ndim = len(n_cells)
        grid = Grid.box((-0.5,) * ndim, tuple(-0.5 + 0.25 * n for n in n_cells), n_cells)
        values = np.random.default_rng(12).standard_normal(grid.shape)
        _save_field(tmp_path, "snap.npz", grid, values)
        np.savez(
            tmp_path / "ref.npz",
            origin=np.asarray(grid.origin),
            spacing=np.asarray(grid.spacing),
            values=values,
        )
        assert (tmp_path / "snap.npz").read_bytes() == (tmp_path / "ref.npz").read_bytes()

    def test_writes_without_a_copy(self, tmp_path):
        # the values go to the archive from their own buffer (np.savez holds
        # a second copy of the whole array while it writes)
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (1000, 1000))
        values = np.random.default_rng(13).standard_normal(grid.shape)
        tracemalloc.start()
        try:
            _save_field(tmp_path, "snap.npz", grid, values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * values.nbytes

    def test_roundtrip_bitwise(self, tmp_path):
        grid = Grid.box((-1.0, 2.0), (1.0, 4.0), (8, 8))
        values = np.random.default_rng(11).standard_normal(grid.shape)
        _save_field(tmp_path, "snap.npz", grid, values)
        with np.load(tmp_path / "snap.npz") as blob:
            assert blob["origin"].tobytes() == np.asarray(grid.origin).tobytes()
            assert float(blob["spacing"]) == grid.spacing
            assert blob["values"].tobytes() == values.tobytes()


class TestSubsolutionSnapshots:
    @staticmethod
    def _gather(monkeypatch, built, fail=False):
        # wrap the study's build call so that its sink also keeps each block
        original = harness.build_subsolution

        def gathering(patch, schedule, table, force, grid, write):
            blocks = []

            def keep(rows, values, defect):
                blocks.append((rows, values.copy(), defect.copy()))
                write(rows, values, defect)
                if fail:
                    raise RuntimeError("stopped after one block")

            built.append((grid, blocks))
            return original(patch, schedule, table, force, grid, keep)

        monkeypatch.setattr(harness, "build_subsolution", gathering)

    def test_streamed_snapshots_equal_np_savez(self, tmp_path, monkeypatch):
        # the bowl grid at eps 0.04, k 16 spans five row blocks, the last
        # one ragged; field and defect stream into their archives block by
        # block, and each archive equals np.savez of the gathered array
        built = []
        self._gather(monkeypatch, built)
        out = tmp_path / "s"
        config = StudyConfig(
            kind="subsolution", eps=(0.04,), grid_k=16, radius=0.6, out_dir=str(out)
        )
        assert run_study(config).rows[0].error is None
        ((grid, blocks),) = built
        rows = _EVAL_BLOCK // grid.shape[1]
        assert len(blocks) >= 3 and grid.shape[0] % rows
        assert [b[0] for b in blocks] == [
            slice(start, min(start + rows, grid.shape[0]))
            for start in range(0, grid.shape[0], rows)
        ]
        for item, name in ((1, "field"), (2, "defect")):
            np.savez(
                tmp_path / "ref.npz",
                origin=np.asarray(grid.origin),
                spacing=np.asarray(grid.spacing),
                values=np.concatenate([block[item] for block in blocks]),
            )
            snapshot = out / f"subsolution-{name}-00.npz"
            assert snapshot.read_bytes() == (tmp_path / "ref.npz").read_bytes()

    def test_failed_build_leaves_no_snapshot(self, tmp_path, monkeypatch):
        built = []
        self._gather(monkeypatch, built, fail=True)
        out = tmp_path / "f"
        config = StudyConfig(
            kind="subsolution", eps=(0.04,), grid_k=16, radius=0.25, out_dir=str(out)
        )
        report = run_study(config)
        assert report.rows[0].error == "RuntimeError: stopped after one block"
        assert len(built[0][1]) == 1
        assert sorted(p.name for p in out.iterdir()) == ["report.json", "timings.json"]


class TestCsv:
    def test_roundtrip_and_determinism(self, tmp_path):
        c = Contour(
            points=np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]), closed=False
        )
        kappa = np.array([np.nan, 1.2345678901234567, 2.0])
        force = np.array([0.0, 0.5, 0.25])
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_contour_csv(p1, c, kappa, force, sigma=0.5)
        write_contour_csv(p2, c, kappa, force, sigma=0.5)
        assert p1.read_bytes() == p2.read_bytes()
        with open(p1) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "x", "y", "kappa", "f", "residual"]
        assert len(rows) == 4
        assert float(rows[2][3]) == 1.2345678901234567
        assert float(rows[2][5]) == 0.5 * 1.2345678901234567 - 0.5
        assert np.isnan(float(rows[1][3]))


class TestPublicApi:
    def test_every_public_name_has_a_caller(self):
        # a name in gtlab.__all__ must be read by the package itself or by the
        # benchmark, not only by tests
        files = [p for p in (ROOT / "src" / "gtlab").glob("*.py") if p.name != "__init__.py"]
        files += (ROOT / "perfbench").glob("*.py")
        used = set()
        for path in files:
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
        assert sorted(set(gtlab.__all__) - used) == []
