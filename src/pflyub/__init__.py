"""Exact combinatorics of local cohomology with support in Pfaffian varieties.

The package computes, at desk scale and with exact integer arithmetic, the
Lyubeznik numbers of Pfaffian rings together with the combinatorial layers the
computation rests on: Gaussian binomial coefficients with an enumeration
oracle, Bott's algorithm for Grassmannian cohomology, character sets of the
equivariant D-modules on skew-symmetric matrices, Grothendieck-group classes
of local cohomology, and Ext multiplicity series.  Every closed form is
cross-checked against an independent route.

The public names load lazily (PEP 562): ``import pflyub`` imports no
submodule, and the first use of a name imports only the module that defines
it, so a table build never loads the verification-only modules.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {
    name: module
    for module, names in {
        "errors": ("TableInvariantError", "VerificationError"),
        "ext_mult": ("ext_series_enum", "zset_rectangle", "zset_thickened"),
        "characters": ("in_D", "in_N", "in_pole", "verify_limitpfaff"),
        "kgroup": ("localcoh_class", "localcoh_class_even_D", "q_to_d", "reverse_class"),
        "lyubeznik": ("LyubeznikTable", "build_table"),
        "origin_localcoh": ("h0_D_even", "h0_D_odd", "h0_pf_pole", "h0_Q"),
        "partitions": ("dominates", "gaussian_binomial", "gaussian_binomial_oracle"),
        "polyring": ("QPoly",),
        "weights_bott": ("bott", "dual", "enumerate_B", "in_B", "verify_pushforward"),
        "verify": ("verify_all",),
    }.items()
    for name in names
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
