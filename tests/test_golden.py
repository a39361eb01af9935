"""Pinned SHA-256 digests of small results documents, one per strategy.

The state-vector kernels must reproduce the documents byte for byte: a
rewrite that shifts a single Bell outcome or one oracle bit changes a
digest here. A change that alters the random stream on purpose, such as
a strategy refactor that draws its branches differently, regenerates
these digests and says so in CHANGES.md. So does a numpy release that
moves a kernel's last bit. To regenerate, run
``PYTHONPATH=src python tests/test_golden.py`` and paste the printed dict;
the lines after it name each digest that differs from the pinned one
(old -> new), for the CHANGES.md entry.
"""

import hashlib

import pytest

from qdialogue.attacks import STRATEGY_NAMES
from qdialogue.harness import ExperimentConfig, run_experiment, to_json
from qdialogue.protocol import DETECTION_POLICIES

GOLDEN = {
    ("none", "terminal"): "da8e7d208c26ea15c8ff5ec23cabebeeee47ecad2e9d95dae6f57c8885b28bcf",
    ("disturb-measure", "terminal"): "040b8b3b4b9168861c3cade12a0d5693e38a8a8e8f7090ddb0e144eaab41aa5d",
    ("disturb-pauli-z", "terminal"): "071c1bd6a46493c5d52262ad8eeef755ff1e94793382b4a378f99d340367806d",
    ("disturb-pauli-4", "terminal"): "9631dcb4be8620c150adcc113f7e48936266e7cc0c66953d1818815fd58a0b21",
    ("intercept-resend-literal", "terminal"): "7f3f76d2932b0067a3d10bb3f1a73b2975e94dd5156a53f58cc133eec03c977a",
    ("intercept-resend-blind", "terminal"): "65d9ecd1d4b2757595fb396757d7b71c5b1a9be59db217fe2f7e60397aa68569",
    ("entangle-measure", "terminal"): "591ec64e499a68578b95f9a6fe9b426ae86594f1fbbbaeb5b12f7986f57642ed",
    ("none", "reinitialize"): "75b3665ae6133d4f34fdbd875d4a8bde399089badc4b5f5443ad107e20e5921d",
    ("disturb-measure", "reinitialize"): "eb39dfc2718f93047146ba4d80f7d31bca56e77596d51933d8418d37917a4470",
    ("disturb-pauli-z", "reinitialize"): "4ebc9543c949f17f7a5e068428e0f5914500c5fd16431600af507a3c0ed165c3",
    ("disturb-pauli-4", "reinitialize"): "e2c4efd5da2106874cce02c7b9f1567e0f623fe30e00c712d8c07eaf20522a85",
    ("intercept-resend-literal", "reinitialize"): "9e55d883e70181e88177cd60497501212efcb6dd6a2192e911676221203caf76",
    ("intercept-resend-blind", "reinitialize"): "792e6b89ea9ef2f1dc486f97a7199fc5888e7da68c134b10d06acc02c032d78f",
    ("entangle-measure", "reinitialize"): "1464193e062121cfe6b66f6512366eef5c1938877be5c67fa5c4874b8a02f11d",
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


def digest_changes(fresh: dict) -> list[str]:
    """One line per (attack, policy) whose fresh digest is not the pinned one."""
    return [
        f"{'/'.join(key)}: {GOLDEN.get(key, '(not pinned)')} -> {fresh.get(key, '(not computed)')}"
        for key in {**GOLDEN, **fresh}
        if GOLDEN.get(key) != fresh.get(key)
    ]


def test_digest_changes_name_each_difference():
    fresh = {**GOLDEN, ("none", "terminal"): "0" * 64, ("new", "terminal"): "1" * 64}
    del fresh["entangle-measure", "reinitialize"]
    assert digest_changes(dict(GOLDEN)) == []
    assert digest_changes(fresh) == [
        f"none/terminal: {GOLDEN['none', 'terminal']} -> {'0' * 64}",
        f"entangle-measure/reinitialize: {GOLDEN['entangle-measure', 'reinitialize']} -> (not computed)",
        f"new/terminal: (not pinned) -> {'1' * 64}",
    ]


if __name__ == "__main__":
    fresh = {
        (attack, policy): document_digest(attack, policy)
        for policy in DETECTION_POLICIES
        for attack in STRATEGY_NAMES
    }
    print("GOLDEN = {")
    for (attack, policy), digest in fresh.items():
        print(f'    ("{attack}", "{policy}"): "{digest}",')
    print("}")
    changes = digest_changes(fresh)
    print(f"# {len(changes)} of {len(fresh)} digests differ from the pinned ones")
    for line in changes:
        print(f"# {line}")
