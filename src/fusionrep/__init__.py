"""Exact representation rings of saturated fusion systems.

The pipeline lives in the submodules (permgroup, cyclotomic, intlinalg,
chartable, fusion, invariants, ringpres, spectrum, twisted, jobspec, cli);
importing the package loads none of them.
"""

__version__ = "0.1.0"
