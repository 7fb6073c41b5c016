"""Exact representation rings of saturated fusion systems.

The pipeline lives in the submodules (permgroup, cyclotomic, intlinalg,
chartable, fusion, invariants, ringpres, spectrum, extension, twisted,
jobspec, cli);
importing the package loads none of them.  A character value is a row of
integer power-basis coordinates in Z[zeta_e] throughout; cyclotomic only
formats such rows for output.
"""

__version__ = "0.1.0"
