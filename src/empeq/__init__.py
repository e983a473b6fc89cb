"""Finite normal-form game analysis: Nash refinements, quantal response
equilibria, control-cost splines, and empirical-equilibrium membership."""

from .game import (
    DominancePair,
    DominanceReport,
    Game,
    GameFormatError,
    MixedProfile,
    ProfileError,
    best_responses,
    expected_utility,
    nash_defect,
    weak_dominance,
)
from .monotone import (
    MonotonicityVerdict,
    is_m_weakly_payoff_monotone,
    is_payoff_monotone,
    is_weakly_payoff_monotone,
    region_csv,
    sample_monotone_region,
)
from .nash import (
    Component,
    EquilibriumSet,
    RefinementTag,
    RefinementVerdict,
    UnsupportedGameError,
    check_perfect,
    check_proper,
    classify,
    enumerate_nash,
    is_nash,
    nearest_nash,
)
from .qre import (
    LogisticQRF,
    LogitPath,
    QRF,
    QreConvergenceError,
    QrePoint,
    default_lambda_schedule,
    perturbed_monotone_point,
    qre_fixed_point,
    trace_logit_path,
)
from .ccost import (
    ControlCostGame,
    ControlCostSpline,
    SplineError,
    SplineQRF,
    build_spline,
    cc_equilibrium_check,
    induced_qrf,
    vanishing_sequence,
)
from .empirical import (
    MembershipVerdict,
    Refutation,
    empirical_membership,
    enumerate_empirical,
)
from . import corpus

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
