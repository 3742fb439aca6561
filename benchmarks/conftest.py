"""Shared helpers for the reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper, prints it as
an ASCII table, and archives it under ``results/``.  Benchmarks run in
fast mode by default (see ``repro.experiments.config``); set
``REPRO_FULL=1`` for the paper-faithful sweeps.  The figures run through
``default_runner()``, so ``REPRO_WORKERS``, ``REPRO_CACHE`` and
``REPRO_TELEMETRY`` apply as on the command line (docs/campaigns.md,
"Run options").
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def publish(results_dir, capsys):
    """Print a rendered artefact and archive it under results/."""

    def _publish(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        with capsys.disabled():
            print(f"\n{text}\n[saved to {path}]")

    return _publish


def series_means(figure, label):
    """Extract the mean values of one curve from a FigureResult."""
    return [point.mean for point in figure.series[label]]
