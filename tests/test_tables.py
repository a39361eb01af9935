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
prints it.
"""

import hashlib

from qdialogue.analysis import guess_accuracy_oracle, per_cm_detection_oracle
from qdialogue.attacks import strategy_from_name
from qdialogue.protocol import value_tables
from reference import STRATEGY_VALUES

TABLE_VALUES = STRATEGY_VALUES + [("entangle-measure", i / 200) for i in range(101)] + [("entangle-measure", -0.0)]

TABLE_DIGEST = "cdccc5576f92554d92077d43ee8ddfcf3cd4efda7dd8a1c4c60cf8b852acee5d"


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


def test_every_run_table_is_pinned():
    assert table_digest() == TABLE_DIGEST


if __name__ == "__main__":
    print(f'TABLE_DIGEST = "{table_digest()}"')
