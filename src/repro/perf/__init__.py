"""The Section 5 performance-evaluation methodology.

"A Microscopic Approach to Transaction System Performance Evaluation":
each benchmark is substantially made up of the repetitious execution of a
collection of primitive operations; latency under no load is the sum of
primitive times weighted by their counts, plus TABS system-process CPU
time.  This package regenerates all five tables:

- :mod:`repro.perf.primitives` -- Table 5-1 (and 5-5) primitive times, by
  micro-measuring the substrate,
- :mod:`repro.perf.benchmarks` -- the fourteen benchmark transactions of
  Tables 5-2/5-4 and the no-load runner,
- :mod:`repro.perf.model` -- predicted latency from primitive counts,
  with the paper's published counts carried alongside for comparison,
- :mod:`repro.perf.projections` -- the Improved-Architecture and
  New-Primitive-Times projections of Table 5-4,
- :mod:`repro.perf.report` -- text tables for the benchmark harness,
- :mod:`repro.perf.scenarios` -- the one scenario registry every CLI
  target, sweep cell and bench run is drawn from,
- :mod:`repro.perf.runner` -- the parallel ``(scenario, params, seed)``
  experiment runner behind the sweeps and the ``sweep`` CLI subcommand.
"""

from repro.perf.benchmarks import (
    BENCHMARKS,
    BenchmarkResult,
    BenchmarkSpec,
    run_benchmark,
)
from repro.perf.model import predicted_time
from repro.perf.projections import run_table_5_4
from repro.perf.runner import Cell, run_cells

__all__ = [
    "BENCHMARKS", "BenchmarkSpec", "BenchmarkResult", "run_benchmark",
    "predicted_time", "run_table_5_4", "Cell", "run_cells",
]
