"""Mutation witnesses: each gate goes red when the law it checks is broken.

Every case runs one study kind at its CLI defaults with one harness global
rebound, and asserts exactly which checks fail.  Two kinds of mutation:

* sigma * 1.1, sigma / 1.1 and sigma * 1.02: every profile table the
  harness builds carries a wrong surface tension (closed_form_profile, which
  every kind reads, and first_order_correction, which finishes the profile
  study's Newton table, are wrapped to return a copy with sigma scaled);
* -kappa: every curvature the harness measures has the wrong sign.

The sigma mutation replaces the table's ``sigma`` only; ``phi1_at`` takes
sigma from the constant ``potential.SIGMA``.  So the wrong sigma enters the
comparison field's coefficient 2 / (3 sigma) and not phi1's tail
sigma / W''(1), and that alone turns the gap and subsolution cells red: the
gap law force / 9 does not involve sigma, and a phi1 that followed the
table's sigma would cancel it.

Only the cells that go red are cases here.  These cells stay green, because
no gate of the kind reads the broken quantity or the gate's tolerance is
wider than the mutation moves it:

* profile, ch-planar and multiplicity under -kappa (no curvature is read);
* ch-disk under -kappa (the ratio reads the enclosed radius, and gt_sup is
  reported, not gated);
* ok-disk and gt-check under sigma / 1.1 and sigma * 1.02 (the balance
  tolerance is 10 % of the scale);
* ok-lamellar under all four (a flat layer has kappa = 0 and no sigma term);
* subsolution under -kappa (it measures no curvature);
* gap under sigma * 1.02 and -kappa.
"""

import dataclasses

import pytest

from gtlab import harness
from gtlab.harness import STUDIES, StudyConfig, run_study

_SIGMA_FACTORS = {"sigma*1.1": 1.1, "sigma/1.1": 1.0 / 1.1, "sigma*1.02": 1.02}

# (kind, mutation, the checks that go red)
CELLS = [
    ("profile", "sigma*1.1", {"sigma_within"}),
    ("profile", "sigma/1.1", {"sigma_within"}),
    ("profile", "sigma*1.02", {"sigma_within"}),
    ("ch-planar", "sigma*1.1", {"energy_within"}),
    ("ch-planar", "sigma/1.1", {"energy_within"}),
    ("ch-planar", "sigma*1.02", {"energy_within"}),
    ("multiplicity", "sigma*1.1", {"estimates_within"}),
    ("multiplicity", "sigma/1.1", {"estimates_within"}),
    ("multiplicity", "sigma*1.02", {"estimates_within"}),
    ("ch-disk", "sigma*1.1", {"ratio_last_within", "ratio_strictly_decreasing"}),
    ("ch-disk", "sigma/1.1", {"ratio_last_within"}),
    ("ch-disk", "sigma*1.02", {"ratio_strictly_decreasing"}),
    ("ok-disk", "sigma*1.1", {"balance_within"}),
    ("ok-disk", "-kappa", {"balance_within"}),
    ("gt-check", "sigma*1.1", {"balance_within"}),
    ("gt-check", "-kappa", {"balance_within"}),
    ("gap", "sigma*1.1", {"window_within"}),
    ("gap", "sigma/1.1", {"window_within"}),
    ("subsolution", "sigma*1.1", {"defect_excess_positive", "defect_excess_order"}),
    ("subsolution", "sigma/1.1", {"defect_excess_order"}),
    ("subsolution", "sigma*1.02", {"defect_excess_positive", "defect_excess_order"}),
]


def _mutate(monkeypatch, mutation):
    if mutation in _SIGMA_FACTORS:
        factor = _SIGMA_FACTORS[mutation]
        for name in ("closed_form_profile", "first_order_correction"):
            build = getattr(harness, name)

            def wrong_sigma(*args, build=build):
                table = build(*args)
                return dataclasses.replace(table, sigma=factor * table.sigma)

            monkeypatch.setattr(harness, name, wrong_sigma)
    else:
        measure = harness.curvature
        monkeypatch.setattr(harness, "curvature", lambda *a, **k: -measure(*a, **k))


@pytest.mark.parametrize(
    "kind, mutation, red", CELLS, ids=[f"{kind}-{mutation}" for kind, mutation, _ in CELLS]
)
def test_gate_goes_red(monkeypatch, kind, mutation, red):
    _mutate(monkeypatch, mutation)
    report = run_study(StudyConfig.from_mapping({"kind": kind, **STUDIES[kind].defaults}))
    assert [row.error for row in report.rows] == [None] * len(report.rows)
    failed = {name for row in report.rows for name, ok in row.checks.items() if not ok}
    failed |= {name for name, ok in report.cross_checks.items() if not ok}
    assert failed == red
    assert not report.passed
