"""Exact-arithmetic structured matrices: leave-one-out symmetric-value
matrices, power matrices, closed-form determinants, Wronskian and
Jacobian applications, and independent determinant oracles to verify
them all.

The package root only names the version; library code imports from the
submodules, e.g. ``from vietamat.structmat import build_vieta``."""

__version__ = "0.1.0"
