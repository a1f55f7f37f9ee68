"""sqopt: strongly quasiconvex minimization and equilibrium-problem toolkit.

The package root imports no module, so a command loads only what it runs;
import each module by its full name (``import sqopt.prox``).
"""

__version__ = "0.1.0"
