"""Numerical laboratory for finite-thickness diffuse interfaces.

The package verifies, on desk-scale grids, the curvature-pressure balance
satisfied by stationary diffuse interfaces (surface tension times curvature
equals the chemical potential, possibly shifted by a nonlocal term), the
integer multiplicity structure of the interface energy density, the bulk
far-field asymptotics of the phase variable, and the defect bounds of the
cutoff-profile comparison fields used in barrier arguments.
"""

from gtlab.comparison import (
    CutoffSchedule,
    DefectCertificate,
    GraphPatch,
    SubsolutionField,
    asymptotic_gap,
    build_subsolution,
    make_schedule,
    signed_distance,
    solve_cmc_graph,
    verify_subsolution,
)
from gtlab.field import (
    Grid,
    ScalarField,
    gradient,
    integrate,
    laplacian,
    poisson_neumann,
    sample,
)
from gtlab.harness import (
    KINDS,
    EpsRow,
    StudyConfig,
    StudyReport,
    main,
    report_payload,
    run_study,
    write_report,
)
from gtlab.interface import (
    Contour,
    curvature,
    curvature_balance,
    extract_contours,
    write_contour_csv,
    zero_crossings_1d,
)
from gtlab.measure import (
    bulk_deviation,
    distance_to_points,
    energy_density,
    multiplicity_estimate,
)
from gtlab.potential import (
    DoubleWell,
    ProfileTable,
    bulk_roots,
    far_field_values,
    first_order_correction,
    optimal_profile,
    surface_tension,
)
from gtlab.solve import (
    SolveReport,
    disk_signed_distance,
    long_range_potential,
    mixing_energy,
    seed_from_signed_distance,
    solve_conserved,
)

__all__ = [
    "Contour",
    "CutoffSchedule",
    "DefectCertificate",
    "DoubleWell",
    "EpsRow",
    "GraphPatch",
    "Grid",
    "KINDS",
    "ProfileTable",
    "ScalarField",
    "SolveReport",
    "StudyConfig",
    "StudyReport",
    "SubsolutionField",
    "asymptotic_gap",
    "build_subsolution",
    "bulk_deviation",
    "bulk_roots",
    "curvature",
    "curvature_balance",
    "disk_signed_distance",
    "distance_to_points",
    "energy_density",
    "extract_contours",
    "far_field_values",
    "first_order_correction",
    "gradient",
    "integrate",
    "laplacian",
    "long_range_potential",
    "main",
    "make_schedule",
    "mixing_energy",
    "multiplicity_estimate",
    "optimal_profile",
    "poisson_neumann",
    "report_payload",
    "run_study",
    "sample",
    "seed_from_signed_distance",
    "signed_distance",
    "solve_cmc_graph",
    "solve_conserved",
    "surface_tension",
    "verify_subsolution",
    "write_contour_csv",
    "write_report",
    "zero_crossings_1d",
]

__version__ = "0.1.0"
