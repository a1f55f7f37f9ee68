"""sqopt: strongly quasiconvex minimization and equilibrium-problem toolkit."""

from . import dynamics, equilibrium, functions, geometry, harness, minimize, prox, verify

__version__ = "0.1.0"
