"""Exact shuffle-algebra calculus for non-commutative probability.

The package implements the double tensor algebra over a finitely generated
algebra of non-commutative random variables, the unshuffling coproduct and
its two halves, the convolution calculus on linear functionals (three
exponential/logarithm pairs, pre-Lie Magnus machinery, adjoint actions), the
moment/cumulant transforms of the free, boolean and monotone families, the
additive convolutions and subordination products, and an independent
set-partition oracle that every algebraic path is validated against.

All arithmetic is exact (stdlib fractions); there is no floating point
anywhere.

Importing the package loads the engine: ``words``, ``errors``, ``tensors``,
``coproducts``, ``functionals``, ``magnus`` and ``cumulants``.  The names of
``partitions``, ``products`` and ``verify`` load their module on first
access (PEP 562), so a process that only transforms moments and cumulants,
such as the CLI's ``cumulants``, ``moments`` and ``convert``, never
compiles them.  ``magnus`` stays eager although it is also a submodule: the
first import of a submodule sets the package attribute of its name to the
module, so a lazy ``magnus`` would read as the module once anything had
imported ``shuffleprob.magnus``.  Imported here, before the function is
re-exported, the name stays the function.
"""

import importlib

from .coproducts import Side, half_unshuffle, unshuffle, unshuffle_bar
from .cumulants import (CumulantKind, Distribution, TruncatedSeries,
                        bernoulli_symmetric, convert, from_cumulants, point_mass,
                        semicircle, series, to_cumulants)
from .errors import DomainError, ValidationError
from .functionals import (Functional, ad_action, ad_action_right, adjoint,
                          agree_up_to, character, conv, e, exp_left, exp_right,
                          exp_star, from_values, hs_left, hs_power, hs_right,
                          infinitesimal, log_left, log_right, log_star,
                          neumann_inverse, prelie, unit)
from .magnus import (BernoulliTable, bch, bernoulli, group_law_left,
                     group_law_right, magnus, magnus_inverse)
from .tensors import TensorSum
from .words import BarWord, EMPTY_BAR, EMPTY_WORD, Letter, Word, as_barword

__version__ = "0.1.0"

#: The module of each name that loads on first access.
_LAZY = {name: module for module, names in (
    ("partitions", "PartitionFamily SetPartition enumerate_partitions oracle_convert "
                   "oracle_moments tree_factorial"),
    ("products", "LabeledContext antimonotone_conv boolean_conv bp bp_distribution "
                 "bp_inverse bp_t convolve_distributions factorize free_conv "
                 "monotone_conv subordinate subordinate_distributions"),
    ("verify", "run_suite run_suites"),
) for name in names.split()}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


__all__ = [
    "BarWord", "BernoulliTable", "CumulantKind", "Distribution", "DomainError",
    "EMPTY_BAR", "EMPTY_WORD", "Functional", "LabeledContext", "Letter",
    "PartitionFamily", "SetPartition", "Side", "TensorSum", "TruncatedSeries",
    "ValidationError", "Word", "ad_action", "ad_action_right", "adjoint",
    "agree_up_to", "antimonotone_conv", "as_barword", "bch", "bernoulli",
    "bernoulli_symmetric", "boolean_conv", "bp", "bp_distribution", "bp_inverse",
    "bp_t", "character", "conv", "convert", "convolve_distributions", "e",
    "enumerate_partitions", "exp_left", "exp_right", "exp_star", "factorize",
    "free_conv", "from_cumulants", "from_values", "group_law_left",
    "group_law_right", "half_unshuffle", "hs_left", "hs_power", "hs_right",
    "infinitesimal", "log_left", "log_right", "log_star", "magnus",
    "magnus_inverse", "monotone_conv", "neumann_inverse", "oracle_convert",
    "oracle_moments", "point_mass", "prelie", "run_suite", "run_suites",
    "semicircle", "series", "subordinate", "subordinate_distributions",
    "to_cumulants", "tree_factorial", "unit", "unshuffle", "unshuffle_bar",
]
