"""Exact e-expansion and positivity certification for vertical strip LLT polynomials.

The Python API lives in the submodules: ``qpoly``, ``symfunc``, ``paths``,
``dyckalgebra``, ``rewrite``, ``llt`` and ``cli``.
"""

__version__ = "0.1.0"
