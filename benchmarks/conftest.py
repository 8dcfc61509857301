"""Configuration shared by the benchmark targets.

Each benchmark regenerates one table or figure of the paper through the
harness in :mod:`repro.bench`, asserts the qualitative relationships the
paper reports, writes the rows to ``benchmarks/results/*.csv`` and registers
the run with pytest-benchmark (wall-clock time of the harness itself).

The problem sizes are controlled by ``REPRO_BENCH_SCALE``:

* ``small``  — quick smoke sizes (~seconds), the default under CI;
* ``paper``  — the largest sizes that are still practical on one CPU core
  (minutes); the shapes do not change, the rate tables just get smoother.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: Problem-size presets, per experiment.
SCALES = {
    "small": {
        "table1": dict(small_elements=1 << 10, large_elements=1 << 13, batch_size=1 << 7),
        "table2": dict(total_elements=1 << 15),
        "table3": dict(total_elements=1 << 14, queries_per_cell=1 << 11,
                       max_resident_samples=4),
        "table4": dict(total_elements=1 << 13, queries_per_cell=256,
                       max_resident_samples=3, expected_widths=(8, 1024)),
        "fig4a": dict(batch_size=1 << 10, num_batches=64),
        "fig4b": dict(batch_sizes=(1 << 9, 1 << 10, 1 << 11, 1 << 12),
                      total_elements=1 << 15),
        "bulk_build": dict(total_elements=1 << 16, batch_size=1 << 12),
        "cleanup": dict(batch_size=1 << 10, num_batches=63),
        "cleanup_speedup": dict(batch_size=1 << 9, num_batches=127,
                                stale_fraction=0.1, num_queries=1 << 14),
    },
    "paper": {
        "table1": dict(small_elements=1 << 12, large_elements=1 << 16, batch_size=1 << 9),
        "table2": dict(total_elements=1 << 18),
        "table3": dict(total_elements=1 << 17, queries_per_cell=1 << 13,
                       max_resident_samples=6),
        "table4": dict(total_elements=1 << 15, queries_per_cell=512,
                       max_resident_samples=4, expected_widths=(8, 1024)),
        "fig4a": dict(batch_size=1 << 12, num_batches=64),
        "fig4b": dict(batch_sizes=(1 << 10, 1 << 11, 1 << 12, 1 << 13),
                      total_elements=1 << 17),
        "bulk_build": dict(total_elements=1 << 18, batch_size=1 << 13),
        "cleanup": dict(batch_size=1 << 12, num_batches=63),
        "cleanup_speedup": dict(batch_size=1 << 11, num_batches=127,
                                stale_fraction=0.1, num_queries=1 << 15),
    },
}


@pytest.fixture(scope="session")
def bench_scale():
    """The selected scale preset (dict of per-experiment kwargs)."""
    name = os.environ.get("REPRO_BENCH_SCALE", "small")
    if name not in SCALES:
        raise ValueError(f"REPRO_BENCH_SCALE must be one of {sorted(SCALES)}")
    return SCALES[name]


@pytest.fixture(scope="session")
def results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR
