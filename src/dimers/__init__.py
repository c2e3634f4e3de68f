"""Domino tilings of cubiculated regions: exact counts, local moves,
the twist invariant, sampling, slab tilings, and ideal exports.

The public names are imported from their modules on first use, so
`import dimers` itself loads no submodule.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    "core": (
        "Cell",
        "Domino",
        "Region",
        "Tiling",
        "base_vertical_tiling",
        "color_sign",
        "decode",
        "encode",
        "make_box",
        "make_cylinder",
        "make_region",
        "read_tilings",
        "refine_region",
        "refine_tiling",
        "render_floors",
        "validate",
        "write_tilings",
    ),
    "counting": (
        "build_automaton",
        "count_cylinder",
        "count_rect_2d_formula",
        "count_region",
        "twist_polynomial",
    ),
    "explore": (
        "component_trit_graph",
        "enumerate_tilings",
        "flip_components",
        "flip_free_tilings",
        "tw_max",
        "twist_census",
    ),
    "moves": (
        "FlipMove",
        "TritMove",
        "apply_flip",
        "apply_trit",
        "difference_cycles",
        "list_flips",
        "list_trits",
    ),
    "sample": ("ChainConfig", "TwistHistogram", "mcmc_run", "twist_distribution"),
    "twist": (
        "calibration",
        "kasteleyn_matrix",
        "pfaffian_alternating_sum",
        "pretwist",
        "twist",
        "twist_by_path",
        "twist_mod2",
    ),
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


class _Package(ModuleType):
    """The import system binds each loaded submodule as an attribute of
    the package; one that shares a public name (`dimers.twist`) is not
    bound, so that name keeps resolving to the function."""

    def __setattr__(self, name, value):
        if not (name in _MODULE_OF and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
