"""Pinned SHA-256 digests of small results documents, one per strategy.

The state-vector kernels must reproduce the documents byte for byte: a
rewrite that shifts a single Bell outcome or one oracle bit changes a
digest here. A change that alters the random stream on purpose, such as
a strategy refactor that draws its branches differently, regenerates
these digests with ``document_digest`` and says so in CHANGES.md. So does
a numpy release that moves a kernel's last bit.
"""

import hashlib

import pytest

from qdialogue.attacks import STRATEGY_NAMES
from qdialogue.harness import ExperimentConfig, run_experiment, to_json

GOLDEN = {
    ("none", "terminal"): "5780e8188aa8a687dee02f3b25349c6a4f083848e642396cb30c82b9ee835e8d",
    ("disturb-measure", "terminal"): "684ed0c540116ac56a8eae509fbae8ffe49123b7f6b266eca173c646ccf6f1ae",
    ("disturb-pauli-z", "terminal"): "90e0864e0fd471ebd0afc8f24ca10245e6675374b950f7530bb051a4b8837eb5",
    ("disturb-pauli-4", "terminal"): "b2c8c871cab82ec4e3b4613e145f2599b55d813690413fd01ae8114cd4546a0c",
    ("intercept-resend-literal", "terminal"): "554f9f17278b8bee71bfe6190ce6d1eb6706fab268b8c917ec2ee0e6918ed19f",
    ("intercept-resend-blind", "terminal"): "45cbe7fdffd73b01aed1fe60559f511d954268d060ff15f5433703d49a8b2a6d",
    ("entangle-measure", "terminal"): "71dc58e5a572e0dd3117dfa2f3e9135c1b9a5160d9ff2e9b0a51e35983bfe77b",
    ("none", "reinitialize"): "4ade279fbc1b8cc74d140166152d019c46a42cef4ae986354b1865b38d4279d8",
    ("disturb-measure", "reinitialize"): "5f20b7b29ec7e2774cdeae898c8d9b0c1734c3db30a3079cc096b0670243feba",
    ("disturb-pauli-z", "reinitialize"): "1f1b6e3229f84e66f0ea1577088b8844fce984b4f13401f2a01e617cba6730fc",
    ("disturb-pauli-4", "reinitialize"): "ecbf48a59bdb0b9cf99f9b503286b1af5546bbd4ad800cf094daaa0fa6f213c2",
    ("intercept-resend-literal", "reinitialize"): "e3690dedd5c14b279fd10a8df43c1d5111b5c182ab4839e050d2fb86170486a4",
    ("intercept-resend-blind", "reinitialize"): "4907f66db28581a3e7507fc60279befaefda5132103b287fdb5e881545117fab",
    ("entangle-measure", "reinitialize"): "0cf454e4ace3e639ffe18bd7592fb7ef9e8398b2ae5df81401266bd99dffdd15",
}


def document_digest(attack: str, policy: str) -> str:
    config = ExperimentConfig(
        attack=attack,
        beta2=0.25 if attack == "entangle-measure" else None,
        c=0.5,
        n_pairs=4,
        trials=20,
        master_seed=2004,
        detection_policy=policy,
        max_restarts=2 if policy == "reinitialize" else 0,
        workers=1,
    )
    return hashlib.sha256(to_json(run_experiment(config)).encode()).hexdigest()


def test_every_strategy_is_pinned():
    assert {name for name, _ in GOLDEN} == set(STRATEGY_NAMES)


@pytest.mark.parametrize("attack, policy", sorted(GOLDEN))
def test_document_digest(attack, policy):
    assert document_digest(attack, policy) == GOLDEN[attack, policy]
