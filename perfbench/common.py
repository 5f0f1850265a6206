"""Shared start-up for the benchmark and its set-up probe.

BLAS and OpenMP run one thread: on a 2-core machine more threads made the
small dense products both slower and far noisier.  The variables only take
effect if they are set before numpy is first imported.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)          # the checkout the benchmark runs in
SRC = os.path.join(ROOT, "src")

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class SetupError(Exception):
    """The checkout cannot be benchmarked (no commbound sources)."""


def pin_threads() -> None:
    if "numpy" in sys.modules:
        raise SetupError("BLAS threads must be pinned before numpy loads")
    os.environ.update(BLAS_ENV)


def import_commbound():
    """Import commbound from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "commbound", "__init__.py")):
        raise SetupError(f"no commbound sources under {SRC}")
    sys.path.insert(0, SRC)
    import commbound
    import commbound.cli  # noqa: F401  (loads every layer module)

    where = os.path.dirname(os.path.abspath(commbound.__file__))
    if os.path.dirname(where) != SRC:
        raise SetupError(f"commbound was imported from {where}, not {SRC}")
    return commbound
