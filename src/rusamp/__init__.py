"""Repeat-until-success circuit simulation, amplification, and cost analysis.

The package is used by module: ``from rusamp import qcore, rus, oaa,
distortion, tcost``.
"""

__version__ = "0.1.0"
