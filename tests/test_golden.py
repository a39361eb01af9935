"""Pinned SHA-256 digests of small results documents, one per strategy.

Each (strategy, policy) is pinned twice: the default document, and the
``--verbose`` one that adds every trial's report (control counts, first
detecting run, ancilla table), so a rewrite of the per-dialogue report
is checked for every strategy.

The state-vector kernels must reproduce the documents byte for byte: a
rewrite that shifts a single Bell outcome or one oracle bit changes a
digest here. A change that alters the random stream on purpose, such as
a strategy refactor that draws its branches differently, regenerates
these digests and says so in CHANGES.md. So does a numpy release that
moves a kernel's last bit. To regenerate, run
``PYTHONPATH=src python tests/test_golden.py`` and paste the printed dicts;
the lines after each name every digest that differs from the pinned one
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

VERBOSE_GOLDEN = {
    ("none", "terminal"): "f549ed72e7c9ba3ae06f5df0cbc464ce6bb2bb58d44547b9cc3157fece6c5f26",
    ("disturb-measure", "terminal"): "87407d2d3f9e94d125a4e66f2ca175cca2bdeabb4be564cc7a9522af694d34b7",
    ("disturb-pauli-z", "terminal"): "16097865cbeb1d7275e4a22f736f2e6195acfe02bc672b3b8a8fdd48d5683d52",
    ("disturb-pauli-4", "terminal"): "f685525638b586cbcd2acaea91e79f4979c892da2e0e91d3edb982199d24710d",
    ("intercept-resend-literal", "terminal"): "8b2197b31a349dfa7e1a397f62422f03184927c16a0e2da142c9c746b3ffd69d",
    ("intercept-resend-blind", "terminal"): "0dbfeb2d61d594472fdd29b267bc083b5eb637b8d2145666e1e45784acf09719",
    ("entangle-measure", "terminal"): "bff96ed5f9ab0c9bb0525a37fbf0a893e466d23cc46f1bab31a7526e817ee887",
    ("none", "reinitialize"): "f3783021a55143686d79eb64d836972bba40862a2e158756b9f3b2002278e32d",
    ("disturb-measure", "reinitialize"): "12f46f8b6821f55e4becd9892e25ef3ae097645eee2863ddccaac271745f9b27",
    ("disturb-pauli-z", "reinitialize"): "98b15406f91f319a6f89d01e81f51bfed477f249493946d9d4ca9627c4d2b99d",
    ("disturb-pauli-4", "reinitialize"): "8bf2adfabd70b4104f311f805f0cdff2b6ae48a1bdbd4c700143d017ebb504ec",
    ("intercept-resend-literal", "reinitialize"): "e617c8c1182800b5f6cf9ab3e172f35a67d748b453d5196ed831cf5ff6fc2fbe",
    ("intercept-resend-blind", "reinitialize"): "afb419c78bffd4ac3d8baddc010c98d34ade53fa375bf9e8f9de34e83167882c",
    ("entangle-measure", "reinitialize"): "08e32fe0bbcddc7ee804bd9a670668c931a717886a2baf7586a2f27c7903dc8d",
}


def document_digest(attack: str, policy: str, verbose: bool = False) -> str:
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
        verbose=verbose,
    )
    return hashlib.sha256(to_json(run_experiment(config)).encode()).hexdigest()


def test_every_strategy_is_pinned():
    assert {name for name, _ in GOLDEN} == set(STRATEGY_NAMES)
    assert set(VERBOSE_GOLDEN) == set(GOLDEN)


@pytest.mark.parametrize("attack, policy", sorted(GOLDEN))
def test_document_digest(attack, policy):
    assert document_digest(attack, policy) == GOLDEN[attack, policy]


@pytest.mark.parametrize("attack, policy", sorted(VERBOSE_GOLDEN))
def test_verbose_document_digest(attack, policy):
    assert document_digest(attack, policy, verbose=True) == VERBOSE_GOLDEN[attack, policy]


def digest_changes(fresh: dict, pinned: dict = GOLDEN) -> list[str]:
    """One line per (attack, policy) whose fresh digest is not the pinned one."""
    return [
        f"{'/'.join(key)}: {pinned.get(key, '(not pinned)')} -> {fresh.get(key, '(not computed)')}"
        for key in {**pinned, **fresh}
        if pinned.get(key) != fresh.get(key)
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
    for name, pinned, verbose in (("GOLDEN", GOLDEN, False), ("VERBOSE_GOLDEN", VERBOSE_GOLDEN, True)):
        fresh = {
            (attack, policy): document_digest(attack, policy, verbose)
            for policy in DETECTION_POLICIES
            for attack in STRATEGY_NAMES
        }
        print(f"{name} = {{")
        for (attack, policy), digest in fresh.items():
            print(f'    ("{attack}", "{policy}"): "{digest}",')
        print("}")
        changes = digest_changes(fresh, pinned)
        print(f"# {len(changes)} of {len(fresh)} digests differ from the pinned ones")
        for line in changes:
            print(f"# {line}")
