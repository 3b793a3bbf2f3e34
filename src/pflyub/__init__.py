"""Exact combinatorics of local cohomology with support in Pfaffian varieties.

The package computes, at desk scale and with exact integer arithmetic, the
Lyubeznik numbers of Pfaffian rings together with the combinatorial layers the
computation rests on: Gaussian binomial coefficients with an enumeration
oracle, Bott's algorithm for Grassmannian cohomology, character sets of the
equivariant D-modules on skew-symmetric matrices, Grothendieck-group classes
of local cohomology, and Ext multiplicity series.  Every closed form is
cross-checked against an independent route.
"""

from .errors import PathMismatchError, TableInvariantError, VerificationError
from .ext_mult import ZPair, ext_series_closed, ext_series_enum, zset_rectangle, zset_thickened
from .characters import IdealI, ModuleN, PfPole, SimpleD, verify_limitpfaff
from .kgroup import (
    KClass,
    d_to_q,
    localcoh_class_even_D,
    localcoh_class_even_Q,
    localcoh_class_odd_D_reversed,
    q_to_d,
    reverse_class,
)
from .lyubeznik import L_closed, L_composed, LyubeznikTable, build_table, verify_all
from .origin_localcoh import h0_D_even, h0_D_odd, h0_pf_pole, h0_Q
from .partitions import (
    Partition,
    conjugate,
    dominates,
    double_columns,
    enumerate_box,
    gaussian_binomial,
    gaussian_binomial_oracle,
)
from .polyring import BiLaurentPoly
from .weights_bott import BottResult, DominantWeight, bott, dual, enumerate_B, in_B, verify_pushforward

__version__ = "0.1.0"

__all__ = [
    "BiLaurentPoly",
    "BottResult",
    "DominantWeight",
    "IdealI",
    "KClass",
    "L_closed",
    "L_composed",
    "LyubeznikTable",
    "ModuleN",
    "Partition",
    "PathMismatchError",
    "PfPole",
    "SimpleD",
    "TableInvariantError",
    "VerificationError",
    "ZPair",
    "bott",
    "build_table",
    "conjugate",
    "d_to_q",
    "dominates",
    "double_columns",
    "dual",
    "enumerate_B",
    "enumerate_box",
    "ext_series_closed",
    "ext_series_enum",
    "gaussian_binomial",
    "gaussian_binomial_oracle",
    "h0_D_even",
    "h0_D_odd",
    "h0_Q",
    "h0_pf_pole",
    "in_B",
    "localcoh_class_even_D",
    "localcoh_class_even_Q",
    "localcoh_class_odd_D_reversed",
    "q_to_d",
    "reverse_class",
    "verify_all",
    "verify_limitpfaff",
    "verify_pushforward",
    "zset_rectangle",
    "zset_thickened",
]
