"""A pinned SHA-256 digest of every run table, bit for bit.

``GOLDEN`` and its siblings see only what a few seeded documents print,
so a kernel rewrite that moves the last bit of one leaf's weight or Bell
law can still pass them. This digest reads each table whole: every
pick's ``cumulative`` thresholds, and each leaf's weight, log fields,
Bell law and its thresholds, readouts, sure outcome, guess cells and
ancilla outcome, every float by ``float.hex``; then both exact oracles.
It covers every strategy value the engine tests run and the probe at
each beta2 from 0 to 0.5 in steps of 0.005, plus -0.0.

A kernel change that moves a bit on purpose regenerates the digest and
says so in CHANGES.md; ``PYTHONPATH=src python tests/test_tables.py``
prints it. Each leaf keeps its ``_clean``ed Bell law, so the sub-floor
round-off of the complex matmul behind it, which differs between
OpenBLAS kernels, reaches no table: the digest is the same under an
older kernel, computed in a child process.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qdialogue

from qdialogue.analysis import guess_accuracy_oracle, per_cm_detection_oracle
from qdialogue.attacks import strategy_from_name
from qdialogue.protocol import value_tables
from reference import STRATEGY_VALUES

TABLE_VALUES = STRATEGY_VALUES + [("entangle-measure", i / 200) for i in range(101)] + [("entangle-measure", -0.0)]

TABLE_DIGEST = "ff7f84114eb5e24c220208a2d0d585b4ce55d018d300683b651eac0b109bb312"


def exact_text(value) -> str:
    """``value`` as text that tells every float apart: floats by ``float.hex``, containers entry by entry."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return "{" + ",".join(f"{key}:{exact_text(item)}" for key, item in sorted(value.items())) + "}"
    if isinstance(value, tuple):
        return "(" + ",".join(exact_text(item) for item in value) + ")"
    return repr(value)


def table_digest() -> str:
    digest = hashlib.sha256()
    for name, beta2 in TABLE_VALUES:
        strategy = strategy_from_name(name, beta2)
        oracles = (per_cm_detection_oracle(strategy), guess_accuracy_oracle(strategy))
        digest.update(exact_text((name, beta2, oracles)).encode())
        for pair, table in value_tables(strategy).by_pair.items():
            digest.update(exact_text((pair, table)).encode())
    return digest.hexdigest()


def blas_name() -> str:
    """The name of the BLAS numpy was built against, or "" where numpy does not say (before 1.26)."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return ""


def test_every_run_table_is_pinned():
    assert table_digest() == TABLE_DIGEST


@pytest.mark.skipif("openblas" not in blas_name().lower(),
                    reason="numpy is not linked to OpenBLAS, so OPENBLAS_CORETYPE selects no kernel")
def test_the_tables_do_not_depend_on_the_blas_kernel():
    # Prescott's kernel leaves other sub-floor residues in the Bell laws
    # than the Haswell-class kernels that OpenBLAS picks on newer CPUs.
    src = str(Path(qdialogue.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, __file__], capture_output=True, text=True, check=True, env=env)
    assert out.stdout == f'TABLE_DIGEST = "{table_digest()}"\n'


if __name__ == "__main__":
    print(f'TABLE_DIGEST = "{table_digest()}"')
