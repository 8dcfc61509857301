"""Kernel launch configuration for the simulated GPU.

The GPU LSM's kernels follow the standard CUDA pattern: a 1-D grid of blocks
of threads, each thread handling a few elements.  The simulated primitives
are vectorised over whole arrays, so the only thing the launch shape decides
here is accounting: how many blocks — and so how many per-block partial
results — a kernel over ``n`` elements produces (the radix sort's per-block
digit histograms, :data:`repro.primitives.histogram.BLOCK_HISTOGRAM_LAUNCH`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.errors import LaunchConfigurationError


@dataclass(frozen=True)
class LaunchConfig:
    """Block size and items-per-thread for a kernel launch.

    The defaults (256 threads, 4 items per thread) match the tunings that
    CUB and moderngpu pick for Kepler-class devices for most primitives.
    """

    block_size: int = 256
    items_per_thread: int = 4

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise LaunchConfigurationError("block_size must be positive")
        if self.items_per_thread <= 0:
            raise LaunchConfigurationError("items_per_thread must be positive")

    @property
    def tile_size(self) -> int:
        """Elements processed by one block (a.k.a. the CTA tile)."""
        return self.block_size * self.items_per_thread
