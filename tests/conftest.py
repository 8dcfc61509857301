"""Shared fixtures for the test suite.

Every test that touches the simulated GPU gets its own :class:`Device`, so
traffic counters never leak between tests.
"""

import dataclasses

import numpy as np
import pytest

from repro.gpu.counters import KernelStats
from repro.gpu.device import Device, set_default_device
from repro.gpu.spec import K40C_SPEC


@pytest.fixture
def device():
    """A fresh K40c-spec device per test."""
    dev = Device(K40C_SPEC, seed=1234)
    yield dev


class RecordingDevice(Device):
    """A device that also notes, in order, what every ``record_kernel``
    call was given — the ordered launch log a :class:`Device` itself does
    not keep.  ``launches`` holds one tuple of :class:`KernelStats` fields
    (name first, defaults filled in) per call; a ``record_kernels``
    sequence is noted launch by launch, as the calls it stands for."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.launches = []

    def record_kernel(self, name, **traffic):
        self.launches.append(
            dataclasses.astuple(
                KernelStats(name, **{k: int(v) for k, v in traffic.items()})
            )
        )
        super().record_kernel(name, **traffic)

    def record_kernels(self, kernels, repeats=1):
        for _ in range(repeats):
            self.launches.extend(tuple(kernel) for kernel in kernels)
        super().record_kernels(kernels, repeats)


@pytest.fixture
def recording_device():
    """Factory of fresh, identically seeded :class:`RecordingDevice` s — a
    golden comparison needs two, one under the reference and one under the
    code it pins."""
    return lambda: RecordingDevice(K40C_SPEC, seed=1)


def _assert_results_bit_identical(a, b, context=""):
    where = f" ({context})" if context else ""
    if not np.array_equal(a.statuses, b.statuses):
        raise AssertionError(f"statuses diverged{where}")
    if not np.array_equal(a.found, b.found):
        raise AssertionError(f"found flags diverged{where}")
    if (a.values is None) != (b.values is None) or (
        a.values is not None and not np.array_equal(a.values, b.values)
    ):
        raise AssertionError(f"values diverged{where}")
    if not np.array_equal(a.counts, b.counts):
        raise AssertionError(f"counts diverged{where}")
    if not np.array_equal(a.range_offsets, b.range_offsets):
        raise AssertionError(f"range offsets diverged{where}")
    if not np.array_equal(a.range_keys, b.range_keys):
        raise AssertionError(f"range keys diverged{where}")
    if (a.range_values is None) != (b.range_values is None) or (
        a.range_values is not None
        and not np.array_equal(a.range_values, b.range_values)
    ):
        raise AssertionError(f"range values diverged{where}")
    if sorted(a.errors) != sorted(b.errors):
        raise AssertionError(f"error sets diverged{where}")


@pytest.fixture
def assert_results_bit_identical():
    """``check(a, b, context="")``: raise ``AssertionError`` unless two
    :class:`~repro.api.ops.ResultBatch` objects agree bit for bit — the
    comparison behind every "this knob changes no answer" test."""
    return _assert_results_bit_identical


@pytest.fixture
def rng():
    """Deterministic NumPy RNG."""
    return np.random.default_rng(0xBADC0DE)


@pytest.fixture(autouse=True)
def _isolate_default_device():
    """Reset the process-wide default device around every test so tests that
    rely on the implicit device do not observe each other's traffic."""
    set_default_device(None)
    yield
    set_default_device(None)
