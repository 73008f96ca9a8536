"""The package namespace: ``sqglab`` re-exports each module's ``__all__``."""

import importlib
import types

import sqglab

# every public name, in the order of its module's __all__
PUBLIC = {
    "decay": [
        "SplitDiagnostics",
        "OccupationReport",
        "CauchyCheck",
        "DecayReport",
        "GateError",
        "split_diagnostics",
        "duhamel_highfreq_bound",
        "occupation_report",
        "cauchy_in_time_check",
        "default_delta_ladder",
        "decay_experiment",
        "estimate_split_constant",
        "estimate_cauchy_constant",
    ],
    "fields": [
        "gaussian_random_field",
        "multi_mode_field",
        "random_multi_mode",
        "dyadic_bumps_field",
        "unit_mode",
    ],
    "lemmas": [
        "EnsembleSpec",
        "LemmaReport",
        "LEMMA_IDS",
        "check_elementary",
        "check_product_law",
        "check_trilinear",
        "check_bilinear",
        "check_exp_kernel",
        "exp_kernel_tolerance",
        "estimate_constant",
        "default_smallness_threshold",
    ],
    "norms": [
        "parseval_weight",
        "hom_norm",
        "shell_spectrum",
        "inhom_norm",
        "scalar_product",
        "interpolation_gap",
    ],
    "solver": [
        "SolverConfig",
        "NormSeries",
        "TrajectoryRecord",
        "LedgerReport",
        "MonitorReport",
        "GateDecision",
        "BlowupError",
        "CflError",
        "nonlinear_term",
        "step",
        "simulate",
        "energy_ledger",
        "blowup_monitor",
        "smallness_gate",
        "initial_field",
    ],
    "spectral": [
        "FrequencyLattice",
        "SpectralField",
        "make_lattice",
        "forward_transform",
        "inverse_transform",
        "fractional_power",
        "riesz_velocity",
        "low_pass",
        "high_pass",
        "rescale_field",
        "dealias",
        "multiply",
        "gradient",
        "advect",
    ],
}

# the names a module made public but the package did not re-export
JOINED = {
    "LedgerReport",
    "MonitorReport",
    "GateDecision",
    "CauchyCheck",
    "estimate_split_constant",
    "estimate_cauchy_constant",
    "exp_kernel_tolerance",
}

ALL_NAMES = [name for names in PUBLIC.values() for name in names]


def test_the_package_list_is_the_six_module_lists_in_one_sequence():
    assert len(ALL_NAMES) == len(set(ALL_NAMES)) == 64
    for module, names in PUBLIC.items():
        assert importlib.import_module(f"sqglab.{module}").__all__ == names
    assert sqglab.__all__ == ALL_NAMES
    assert not any(isinstance(getattr(sqglab, name), types.ModuleType) for name in sqglab.__all__)


def test_a_star_import_binds_exactly_the_public_names():
    ns = {}
    exec("from sqglab import *", ns)
    assert set(ns) - {"__builtins__"} == set(ALL_NAMES)


def test_each_name_is_its_modules_object():
    for module, names in PUBLIC.items():
        owner = importlib.import_module(f"sqglab.{module}")
        for name in names:
            assert getattr(sqglab, name) is getattr(owner, name), name


def test_every_name_exported_before_stays_exported():
    earlier = set(ALL_NAMES) - JOINED
    assert len(earlier) == 57
    assert earlier <= set(sqglab.__all__)
    assert JOINED <= set(sqglab.__all__)

