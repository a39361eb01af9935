"""Pinned SHA-256 digests of small results documents, one per strategy.

The state-vector kernels must reproduce the documents byte for byte: a
rewrite that shifts a single Bell outcome or one oracle bit changes a
digest here. A change that alters the random stream on purpose, such as
a strategy refactor that draws its branches differently, regenerates
these digests and says so in CHANGES.md. So does a numpy release that
moves a kernel's last bit. To regenerate, run
``PYTHONPATH=src python tests/test_golden.py`` and paste the printed dict.
"""

import hashlib

import pytest

from qdialogue.attacks import STRATEGY_NAMES
from qdialogue.harness import ExperimentConfig, run_experiment, to_json

GOLDEN = {
    ("none", "terminal"): "a7aa68d4f8241f94b95bf213b3b3c6a972a4983cd183fe5f716e8fac3a29b909",
    ("disturb-measure", "terminal"): "684ed0c540116ac56a8eae509fbae8ffe49123b7f6b266eca173c646ccf6f1ae",
    ("disturb-pauli-z", "terminal"): "90e0864e0fd471ebd0afc8f24ca10245e6675374b950f7530bb051a4b8837eb5",
    ("disturb-pauli-4", "terminal"): "059ea6f1af191746cfe153df644910c111137837875694e943b2029fb8fbe364",
    ("intercept-resend-literal", "terminal"): "53bf78b29708f8fa48f5766be15e2e407fc7202fadcfbcb034036cf325035429",
    ("intercept-resend-blind", "terminal"): "2dd15d29653f3468382464264daebbd4f6930779eadc5acaf23561fb20268532",
    ("entangle-measure", "terminal"): "71dc58e5a572e0dd3117dfa2f3e9135c1b9a5160d9ff2e9b0a51e35983bfe77b",
    ("none", "reinitialize"): "95daadb0e51eac21f0afc662184c12588298fedce983f0b19888d323d874c737",
    ("disturb-measure", "reinitialize"): "5f20b7b29ec7e2774cdeae898c8d9b0c1734c3db30a3079cc096b0670243feba",
    ("disturb-pauli-z", "reinitialize"): "1f1b6e3229f84e66f0ea1577088b8844fce984b4f13401f2a01e617cba6730fc",
    ("disturb-pauli-4", "reinitialize"): "0a90ebd8bffd8ae39cca9dbbe9a458117b0e758f139e3b1ff041d7b4b69265ad",
    ("intercept-resend-literal", "reinitialize"): "c6e2d4477a603d30b36a5698941ec1db510ce52a860008a5fad05e3d3052a5ce",
    ("intercept-resend-blind", "reinitialize"): "6e0e208c0e6863c9bd9126a7278aecbb70161adaaee0130d24cda445e6ef7afe",
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


if __name__ == "__main__":
    print("GOLDEN = {")
    for attack, policy in GOLDEN:
        print(f'    ("{attack}", "{policy}"): "{document_digest(attack, policy)}",')
    print("}")
