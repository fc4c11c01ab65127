"""A QUANTAS-style parallel experiment runner.

Performance studies and chaos soaks are embarrassingly parallel: every
``(configuration, seed)`` cell is an independent, deterministic simulation.
This module fans a list of :class:`Cell` specifications across worker
processes (the shape QUANTAS uses for its consensus-algorithm sweeps) and
aggregates the results in **cell order**, so the output is byte-identical
no matter how many workers ran or in what order they finished:

- every cell is a pure function of its spec -- the worker builds the
  cluster, runs it, and returns a picklable result;
- results travel back tagged with their cell index
  (``imap_unordered`` is free to deliver them in completion order);
- the aggregator slots them by index, so ``workers=1`` and ``workers=N``
  produce the same list.

``workers=1`` bypasses multiprocessing entirely and runs the cells
inline; it is the reference execution the determinism suite compares the
parallel paths against.  Worker processes are started with the ``fork``
method when the platform offers it (cheap, inherits the imported tree)
and fall back to ``spawn`` elsewhere -- cells and their parameters must
therefore be module-level and picklable.

A cell's ``kind`` names a scenario of :mod:`repro.perf.scenarios`, and
:func:`sweep_cells` builds a sweep over any of them; the pipeline
comparisons in :mod:`repro.perf.throughput` and
:mod:`repro.perf.debitcredit` and the ``sweep`` CLI subcommand
(``python -m repro sweep``) ride on it.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass

from repro.errors import TabsError
from repro.perf.scenarios import SCENARIOS, Instrument, Scenario


@dataclass(frozen=True)
class Cell:
    """One experiment: an independent ``(kind, params, seed)`` simulation
    of the scenario named ``kind``.

    ``params`` is a tuple of ``(name, value)`` pairs (not a dict) so cells
    are hashable and their pickled form is canonical.
    """

    kind: str
    params: tuple = ()
    seed: int = 0

    def param_dict(self) -> dict:
        return dict(self.params)

    @classmethod
    def of(cls, kind: str, seed: int = 0, **params) -> "Cell":
        """Build a cell from keyword parameters (sorted for canonical form)."""
        return cls(kind=kind,
                   params=tuple(sorted(params.items())), seed=seed)


def run_cell(cell: Cell, instrument: Instrument = None):
    """Run one cell in this process and return its result.

    ``instrument`` (if given) receives the cluster before the traffic
    starts, as in :mod:`repro.perf.scenarios`.
    """
    scenario = _scenario(cell.kind)
    return scenario.run({**scenario.defaults, **cell.param_dict()},
                        cell.seed, instrument)


def _scenario(kind: str) -> Scenario:
    try:
        return SCENARIOS[kind]
    except KeyError:
        raise TabsError(f"unknown cell kind {kind!r}; known: "
                        f"{sorted(SCENARIOS)}") from None


def _run_indexed(indexed: tuple) -> tuple:
    """Worker entry point: ``(index, cell) -> (index, result)``.

    The index tag is what makes the fan-out order-independent: workers
    may finish in any order, the aggregation slots results by index.
    """
    index, cell = indexed
    return index, run_cell(cell)


def _pool_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return multiprocessing.get_context("spawn")


def run_cells(cells: list[Cell], workers: int = 1) -> list:
    """Run every cell; returns results in **cell order** regardless of
    ``workers``.

    ``workers=1`` runs inline (the reference execution); ``workers>1``
    fans the cells across a process pool.  Oversubscribing (more workers
    than cells, or than cores) is allowed and changes nothing but wall
    time.
    """
    if workers < 1:
        raise TabsError(f"workers must be >= 1, got {workers}")
    cells = list(cells)
    if workers == 1 or len(cells) <= 1:
        return [run_cell(cell) for cell in cells]
    results: list = [None] * len(cells)
    ctx = _pool_context()
    with ctx.Pool(processes=min(workers, len(cells))) as pool:
        for index, result in pool.imap_unordered(
                _run_indexed, enumerate(cells), chunksize=1):
            results[index] = result
    return results


# -- sweep builder ----------------------------------------------------------------


def sweep_cells(kind: str, counts=(), seeds=(1985,), **params) -> list[Cell]:
    """Seed-major cells of scenario ``kind``: its defaults overridden by
    ``params``, one cell per count when the scenario has a count
    parameter (``throughput``: concurrency, ``debitcredit``: clients)
    and one per seed otherwise."""
    scenario = _scenario(kind)
    fan = [{scenario.count: n} for n in counts] if scenario.count else [{}]
    return [Cell.of(kind, seed=seed, **{**scenario.defaults, **params, **one})
            for seed in seeds for one in fan]


# -- JSON-able aggregation --------------------------------------------------------


def result_row(cell: Cell, result) -> dict:
    """One cell's result as a deterministic, JSON-able row."""
    row = {"kind": cell.kind, "seed": cell.seed}
    for name, value in cell.params:
        # Config-object parameters (CommitConfig / WorkloadConfig) are
        # summarized by repr so the row stays JSON-able.
        row[name] = (value if isinstance(value, (int, float, str, bool))
                     or value is None else repr(value))
    if isinstance(result, dict):
        row.update(result)
        return row
    # perf result dataclasses (Throughput-, DebitCredit-, BenchmarkResult)
    for name in ("concurrency", "clients", "workload", "committed",
                 "aborted", "remote_committed", "forces", "pipeline",
                 "elapsed_ms"):
        value = getattr(result, name, None)
        if value is not None:
            row[name] = value
    if getattr(result, "duration_ms", None):
        row["tps"] = round(
            result.committed / (result.duration_ms / 1000.0), 3)
    return row


def sweep_payload(cells: list[Cell], results: list,
                  workers: int) -> dict:
    """The ``sweep`` subcommand's JSON document.

    Deterministic in the cells alone: ``workers`` is recorded for
    provenance but every other byte is independent of it.
    """
    return {
        "cells": len(cells),
        "workers": workers,
        "rows": [result_row(cell, result)
                 for cell, result in zip(cells, results)],
    }
