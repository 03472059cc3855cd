"""graphsym: color refinement, amenable-graph recognition, and symmetry numbers.

Public names are loaded on first access (PEP 562), so a program that uses
one part of the toolkit, such as a single CLI command, imports only the
modules that part needs.  A resolved name is stored in the module globals,
so every later access is a plain attribute lookup.
"""

from importlib import import_module

_EXPORTS = {
    "amenability": ("AmenabilityVerdict", "IsoVerdict", "amenable_iso", "check_amenable"),
    "cells": (
        "CellGraph", "CellKind", "Component", "PairKind", "anisotropic_components",
        "build_cell_graph",
    ),
    "graph": ("Graph", "from_edge_list", "relabel"),
    "formats": ("decode_graph6", "encode_graph6", "format_edge_list", "parse_edge_list"),
    "refinement": (
        "CrOutcome", "CrVerdict", "Partition", "cr_iso_test", "is_equitable",
        "refine", "stable_partition",
    ),
    "symmetry": (
        "SymmetryReport", "analyze", "component_report", "dist_number", "fix_number",
        "head", "leg_dist_count", "leg_fix", "min_c_binom",
    ),
}
_SUBMODULES = ("errors", "generators", "oracle")

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names] + list(_SUBMODULES)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")  # the import binds it here
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
