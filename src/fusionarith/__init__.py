"""Exact-arithmetic toolkit for classifying low global dimension fusion rings.

Everything is integer or rational arithmetic, no floating point in any
decision path.  The submodules stack roughly bottom up:

_record        the frozen value-class decorator of every module below
exactcore      polynomials, Sturm root counting, quadratic field elements
algint         predicates on algebraic integers (d-number, cubic and cyclotomic fields)
codegree_enum  candidate codegree family scans with per-candidate certificates
dimsolve       Diophantine dimension decomposition solvers
smatrix        verification of candidate (super-)modular S-matrix data
casefile       declarative case files, reports and the fusion-arith CLI
"""

from __future__ import annotations

__version__ = "0.1.0"
