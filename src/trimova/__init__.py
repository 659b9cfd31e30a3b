"""Noise modeling for a three-mode optomechanical force sensor.

Subpackages: model (parameters, thermal occupancy and pump rate), transfer
(per-frequency channel coefficients), spectra (closed-form and assembled
spectral densities, SQL ratios, thresholds, figure presets), oracle
(time-domain Langevin validator), cli (command-line front end).
"""

__version__ = "0.1.0"

from . import model, oracle, spectra, transfer  # noqa: F401
