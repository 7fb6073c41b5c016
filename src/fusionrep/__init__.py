"""Exact representation rings of saturated fusion systems.

The headline pipeline is re-exported here; everything else lives in the
submodules (permgroup, cyclotomic, intlinalg, chartable, fusion,
invariants, ringpres, spectrum, twisted, jobspec, cli).
"""

from .invariants import irreducible_invariants
from .jobspec import load_jobspec, realize
from .ringpres import completed_presentation, structure_constants

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "completed_presentation",
    "irreducible_invariants",
    "load_jobspec",
    "realize",
    "structure_constants",
]
