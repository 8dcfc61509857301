"""Simulated GPU substrate.

The paper's GPU LSM is implemented in CUDA on an NVIDIA Tesla K40c, on top of
the CUB and moderngpu primitive libraries.  This package replaces the physical
GPU with a *simulated device*:

* :mod:`repro.gpu.spec` — the hardware description (:class:`GPUSpec`), shipped
  with a K40c-calibrated default.
* :mod:`repro.gpu.device` — :class:`Device`: the simulated clock, the traffic
  counters and the profiler.
* :mod:`repro.gpu.counters` — :class:`TrafficCounter`, the per-kernel-name and
  total traffic sums every recorded kernel updates in place.
* :mod:`repro.gpu.cost_model` — converts the memory traffic a kernel reports
  into simulated execution time, so that throughput numbers have the same
  *shape* as the paper's measurements even though the functional work is done
  by vectorised NumPy on a CPU.
* :mod:`repro.gpu.profiler` — per-region-name sums of traffic, simulated and
  wall-clock time, plus the bounded latency histogram the engine reports with.
* :mod:`repro.gpu.launch` — :class:`LaunchConfig`, the block shape a kernel's
  per-block accounting derives from.
"""

from repro.gpu.spec import GPUSpec, K40C_SPEC
from repro.gpu.device import Device, get_default_device, set_default_device
from repro.gpu.launch import LaunchConfig
from repro.gpu.cost_model import CostModel, KernelCost, AccessPattern
from repro.gpu.counters import TrafficCounter, KernelStats
from repro.gpu.profiler import Profiler, ProfileRecord
from repro.gpu.errors import GPUSimulationError, LaunchConfigurationError

__all__ = [
    "GPUSpec",
    "K40C_SPEC",
    "Device",
    "get_default_device",
    "set_default_device",
    "LaunchConfig",
    "CostModel",
    "KernelCost",
    "AccessPattern",
    "TrafficCounter",
    "KernelStats",
    "Profiler",
    "ProfileRecord",
    "GPUSimulationError",
    "LaunchConfigurationError",
]
