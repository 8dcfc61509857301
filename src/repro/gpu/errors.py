"""Exception hierarchy for the simulated GPU substrate.

Keeping a dedicated hierarchy (instead of raising bare ``ValueError``) lets the
data-structure layer distinguish "the simulation was misused" from "the
dictionary was misused" — the same way real CUDA code distinguishes CUDA
runtime errors from application asserts.
"""

from __future__ import annotations


class GPUSimulationError(RuntimeError):
    """Base class for every error raised by the simulated GPU substrate."""


class LaunchConfigurationError(GPUSimulationError):
    """Raised for invalid kernel launch configuration (non-positive block
    size or items per thread)."""
