"""Optimal lattice- and crystallographic-group-invariant subspace
approximation of band-limited signal families on a discretized frequency
grid, with band-mask (generator support) optimization.

Submodule imports are lazy so that process-level knobs (thread caps set by
the command line front end) take effect before numpy loads.
"""

_SUBMODULE_OF = {}
for _mod, _names in {
    "lattice": (
        "Lattice", "PointGroup", "OrbitPartition", "make_lattice", "dilate_lattice",
        "reduce_to_fundamental", "make_group", "orbit_partition", "offset_permutations",
    ),
    "spectral": (
        "FrequencyGrid", "make_grid", "Box", "Ball", "interval", "Scene",
        "SpectralDataset", "synthesize", "PWMask", "pw_mask", "project_pw",
        "residual_energy",
    ),
    "fibers": (
        "FiberVector", "fiber", "GramianField", "gramian_field", "symmetrize",
        "membership_test", "dilation_transport", "regrid_to_lattice",
        "gramian_covariance_check",
    ),
    "solver": (
        "EigenField", "eigen_field", "SubspaceModel", "ApproxReport",
        "best_sis", "best_gamma", "subspace_length", "error_against",
        "generators", "project_then_solve", "solve_then_project",
        "dilation_equivalence", "refinement_inequality_check",
    ),
    "omega": (
        "DensityField", "energy_density", "best_omega", "best_omega_invariant",
        "omega_duality_check",
    ),
    "textio": (
        "format_dataset", "parse_dataset", "format_mask", "parse_mask",
        "parse_scene", "parse_lattice", "parse_lattice_list", "parse_group_file",
        "parse_offsets", "read_dataset", "write_dataset", "read_mask",
        "write_mask", "read_scene", "read_lattice", "read_lattice_list",
        "read_group_file", "read_offsets", "write_model", "write_gramian",
    ),
    "examples": ("EXAMPLE_IDS", "ExampleReport", "Row", "reproduce_example"),
    "suites": ("SUITE_NAMES", "SuiteResult", "run_property_suites"),
}.items():
    for _n in _names:
        _SUBMODULE_OF[_n] = _mod

__all__ = sorted(_SUBMODULE_OF)
__version__ = "1.0.0"


def __getattr__(name):
    import importlib

    try:
        mod = _SUBMODULE_OF[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + mod, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
