"""Finitary ideal systems on finitely generated monoids.

Models live inside ZZ^d as products of numerical, free, and group
coordinates.  The package computes s/v/t closures and the modularization
mod(p, r) (w = mod(s, t)), prime spectra, radical factorizations, and a
classification matrix with cross-checked equivalence suites on top.
"""

__version__ = "1.0.0"

from .monoid import (MonoidModel, free_monoid, group_monoid,
                     numerical_monoid, parse_monoid, product, to_text)
from .ideals import (Ideal, empty_ideal, ideal_from, ideal_intersect,
                     ideal_power, ideal_sum, inverse, principal, radical,
                     unit_ideal)
from .systems import (System, axioms_check, close, closed_ideals,
                      modular_close, modularization, system)
from .spectrum import (PrimeIdeal, Spectrum, UncertifiedModel, is_dvm,
                       primes, r_max, spectrum_json)
from .factor import (FactorChain, Failure, class_group_probe, is_invertible,
                     meager_check, meager_factor, radical_factor_principal,
                     sp_factor, support_witness)
from .classify import (PropertyVerdict, TfaeReport, classify, evaluate,
                       property_names, suite_battery, suite_names,
                       tfae_suite)

__all__ = [
    "__version__",
    "MonoidModel", "free_monoid", "group_monoid", "numerical_monoid",
    "parse_monoid", "product", "to_text",
    "Ideal", "empty_ideal", "ideal_from", "ideal_intersect", "ideal_power",
    "ideal_sum", "inverse", "principal", "radical", "unit_ideal",
    "System", "axioms_check", "close", "closed_ideals", "modular_close",
    "modularization", "system",
    "PrimeIdeal", "Spectrum", "UncertifiedModel", "is_dvm", "primes",
    "r_max", "spectrum_json",
    "FactorChain", "Failure", "class_group_probe", "is_invertible",
    "meager_check", "meager_factor", "radical_factor_principal", "sp_factor",
    "support_witness",
    "PropertyVerdict", "TfaeReport", "classify", "evaluate",
    "property_names", "suite_battery", "suite_names", "tfae_suite",
]
