"""Experiment harness reproducing the paper's evaluation (Section V).

One module per concern:

* :mod:`repro.bench.workloads` — deterministic workload generators: unique
  key sets, existing/missing query populations, range-query arguments with a
  target expected width ``L``.
* :mod:`repro.bench.runner` — the measurement machinery: run an operation,
  collect its *simulated* execution time from the device profiler, and
  aggregate min / max / harmonic-mean rates exactly the way the paper's
  tables do.
* :mod:`repro.bench.tables` — row generators for Tables I–IV plus the bulk
  build comparison of Section V-B.
* :mod:`repro.bench.figures` — series generators for Figures 4a and 4b.
* :mod:`repro.bench.cleanup_exp` — the cleanup-rate and cleanup-speedup
  experiments of Section V-D, extended with a full-vs-incremental
  reclaim-cost comparison.
* :mod:`repro.bench.maintenance` — beyond the paper: sustained serving
  throughput and p95 query latency under delete-heavy and update-heavy
  churn, for no-maintenance / full-cleanup / incremental+policy
  configurations of the maintenance subsystem.
* :mod:`repro.bench.serve` — beyond the paper: the open-loop serving
  experiment (latency percentiles vs offered load under the adaptive tick
  scheduler of :mod:`repro.serve`).
* :mod:`repro.bench.query_accel` — beyond the paper: the query
  acceleration sweep (fence / Bloom / sorted-probe lookup rates against
  the unfiltered path, across hit / miss / Zipf query populations).
* :mod:`repro.bench.report` — plain-text and CSV rendering of rows/series.

All experiments accept explicit scale parameters and default to sizes that
run in seconds on a single CPU core; the relationships the paper reports
(who wins, by what factor, how rates move with batch size and range width)
are functions of the ``n/b`` ratio and of per-element traffic, so they are
preserved at reduced scale.  ``benchmarks/results/`` records the measured
rows of every table and figure.
"""

from repro.bench.workloads import WorkloadConfig, make_workload
from repro.bench.runner import ExperimentRunner, RateSummary
from repro.bench import (
    cleanup_exp,
    figures,
    maintenance,
    query_accel,
    report,
    serve,
    tables,
)

__all__ = [
    "WorkloadConfig",
    "make_workload",
    "ExperimentRunner",
    "RateSummary",
    "tables",
    "figures",
    "cleanup_exp",
    "maintenance",
    "query_accel",
    "report",
    "serve",
]
