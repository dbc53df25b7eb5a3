"""Numerical dilations, scattering data and transfer functions for
coisometric liftings of row contractions.

Import submodules explicitly (``from ncscatter import lifting``).
Nothing numerical loads at package import time, so the command line
front end answers ``--help`` and usage errors without loading numpy.
"""

__version__ = "0.1.0"
