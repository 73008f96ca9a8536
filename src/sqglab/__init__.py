"""Pseudo-spectral simulator and verification harness for the 2D dissipative
surface transport equation with fractional dissipation on a periodic box."""

__version__ = "0.1.0"

from .decay import (
    DecayReport,
    GateError,
    OccupationReport,
    SplitDiagnostics,
    cauchy_in_time_check,
    decay_experiment,
    default_delta_ladder,
    duhamel_highfreq_bound,
    occupation_report,
    split_diagnostics,
)
from .fields import (
    dyadic_bumps_field,
    gaussian_random_field,
    multi_mode_field,
    random_multi_mode,
    unit_mode,
)
from .lemmas import (
    LEMMA_IDS,
    EnsembleSpec,
    LemmaReport,
    check_bilinear,
    check_elementary,
    check_exp_kernel,
    check_product_law,
    check_trilinear,
    default_smallness_threshold,
    estimate_constant,
)
from .norms import (
    hom_norm,
    inhom_norm,
    interpolation_gap,
    parseval_weight,
    scalar_product,
    shell_spectrum,
)
from .solver import (
    BlowupError,
    CflError,
    NormSeries,
    SolverConfig,
    TrajectoryRecord,
    blowup_monitor,
    energy_ledger,
    initial_field,
    nonlinear_term,
    simulate,
    smallness_gate,
    step,
)
from .spectral import (
    FrequencyLattice,
    SpectralField,
    advect,
    dealias,
    forward_transform,
    fractional_power,
    gradient,
    high_pass,
    inverse_transform,
    low_pass,
    make_lattice,
    multiply,
    rescale_field,
    riesz_velocity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
