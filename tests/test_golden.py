"""Pinned SHA-256 digests of small results documents, one per strategy.

Each (strategy, policy) is pinned twice: the default document, and the
``--verbose`` one that adds every trial's report (control counts, first
detecting run, ancilla table), so a rewrite of the per-dialogue report
is checked for every strategy. ``SERIALIZED_GOLDEN`` pins the other
serializations: a CSV run, and a sweep as JSON and as CSV.

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
from qdialogue.harness import ExperimentConfig, run_experiment, sweep, to_csv, to_json
from qdialogue.protocol import DETECTION_POLICIES

GOLDEN = {
    ("none", "terminal"): "ca6aaafeb024ec50b056ff3877a5b203924f89a62438ccaa8bad6c008bdf59f6",
    ("disturb-measure", "terminal"): "730562639c988cf661916d61feb08bfd4474aa45b95a606d3ae387950eac750a",
    ("disturb-pauli-z", "terminal"): "6b687d1fe5c7f4dc3f6257d972f41296d66f1569a889fb8ce37286fbbd8e1b86",
    ("disturb-pauli-4", "terminal"): "35c0712b4fcd1011c94c1a7c9eb1a630bb91bd083d420a00d4e8bfaf8a128497",
    ("intercept-resend-literal", "terminal"): "59eedb2403f0f87a95ca834a4b1884376509fb43b5e28a2f04930e1cc708c84a",
    ("intercept-resend-blind", "terminal"): "18a06fa73a647a54c2ddb3454165d9443eb9b8f4fa5320505593024bb7685df6",
    ("entangle-measure", "terminal"): "6cba9b756e0ea07f3a6990ef0ad24554f8753914fe4de79f52417f8cc2c16a69",
    ("none", "reinitialize"): "0fef999a9fe50e5911edadcf2945549c2454feb334c252c525f2cb390522a1a6",
    ("disturb-measure", "reinitialize"): "ee91bebc2bbccc667ed7470cb3a7df57eaa50fa0cf9beab1fb42bb9bad1ba5f5",
    ("disturb-pauli-z", "reinitialize"): "658667f8c0ed5326a911b177a1b2ddc99012739a9f3819923b5e8a217abfabe1",
    ("disturb-pauli-4", "reinitialize"): "24661be51e1a26daa2cb59c5b40c6868c0c77fb5023f58ccf1bb9e452e28e4bf",
    ("intercept-resend-literal", "reinitialize"): "829002e3b57e40e8ba95baf9e0549b7df77a9bc0268c48b54e63211c80048e61",
    ("intercept-resend-blind", "reinitialize"): "2c5da7e65799d3731520e3eff9e54608ae7dd41e158c4d176201a7d67d5dff38",
    ("entangle-measure", "reinitialize"): "31f23f01aafe6a88bbaf32ac56564151cca1ea8f1dbf0d353731c56338264e8f",
}

VERBOSE_GOLDEN = {
    ("none", "terminal"): "63d0162859224e0c3127a3a09238212e8e0c700593d4fa0f7b55897fad630b00",
    ("disturb-measure", "terminal"): "b45820dfd7146889872c22e29e69e92e0c16241b8a150956063f19458964940b",
    ("disturb-pauli-z", "terminal"): "6ed9320f934ced0fbf3b70776245bd9839116636aee74de9597fefe4df2f79b8",
    ("disturb-pauli-4", "terminal"): "de20ff47043158a0aa1c13a73dfda06d7019dc359edbc444b9734f2ace6f638b",
    ("intercept-resend-literal", "terminal"): "0ac31477e35beaa9dc918af30d26ac0e22b4c0dc0eba619f59f7444c0596d5a1",
    ("intercept-resend-blind", "terminal"): "b5da664301cfb9ccfd45f50e0aa84b060abb419f338695f4e48e24718a40a1da",
    ("entangle-measure", "terminal"): "0ba6f4c80772046f5bfbc18e76064b78f64b08a49247c7e76e773231c81d2b63",
    ("none", "reinitialize"): "e84aba6c9a46bbc35c99d8fc6db502692cd37af91fc2ea14e72e5dc73d48ff16",
    ("disturb-measure", "reinitialize"): "dd45101c0776b8e8f3561480fbf753d8b836f435087e3bda35e4f78d65173745",
    ("disturb-pauli-z", "reinitialize"): "1af95cb7972e4da9d17ee6241b9190be2f4646378389c791af931610177c8a94",
    ("disturb-pauli-4", "reinitialize"): "b22112d0a0c30a90507de6112747f3bb97c165877201146b58e5500e4258932b",
    ("intercept-resend-literal", "reinitialize"): "af69b1ad3cca506061967ce06b0e3932d0d48aca2149de811601721add377516",
    ("intercept-resend-blind", "reinitialize"): "77fd302c5b691211ddb49828eae35abc84ddb007800455cb5452a2b84a559bcc",
    ("entangle-measure", "reinitialize"): "aefbd7d1c595b5b7b65a588409b5033ad2eb6b2a2abe5e2c1c70809202f7efd9",
}

SERIALIZED_GOLDEN = {
    "run-csv": "574d620c3e9b22a24bef1c0468e8b1f39ede651336af95612f57d865920eb146",
    "sweep-json": "89652a3e390938a2760dce131d11de9b3c67e9ae810ca94d5d62cc3c3ff94f58",
    "sweep-csv": "918e54e6bf1e4e874b590af4a02fb7280bfa5004f37fbbc61a0105f6ea582a66",
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


def serialized_digests() -> dict[str, str]:
    """Digests of a CSV run (honest, terminal) and a beta2 sweep (reinitialize)."""
    run_cfg = ExperimentConfig(attack="none", n_pairs=4, trials=20, master_seed=2004, workers=1)
    sweep_cfg = ExperimentConfig(
        attack="entangle-measure",
        n_pairs=4,
        trials=20,
        master_seed=2004,
        detection_policy="reinitialize",
        max_restarts=2,
        workers=1,
    )
    sweep_doc = sweep(sweep_cfg, "beta2", [0.1, 0.5])
    texts = {
        "run-csv": to_csv(run_experiment(run_cfg)),
        "sweep-json": to_json(sweep_doc),
        "sweep-csv": to_csv(sweep_doc),
    }
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}


def test_every_strategy_is_pinned():
    assert {name for name, _ in GOLDEN} == set(STRATEGY_NAMES)
    assert set(VERBOSE_GOLDEN) == set(GOLDEN)


@pytest.mark.parametrize("attack, policy", sorted(GOLDEN))
def test_document_digest(attack, policy):
    assert document_digest(attack, policy) == GOLDEN[attack, policy]


@pytest.mark.parametrize("attack, policy", sorted(VERBOSE_GOLDEN))
def test_verbose_document_digest(attack, policy):
    assert document_digest(attack, policy, verbose=True) == VERBOSE_GOLDEN[attack, policy]


def test_serialized_digests():
    assert serialized_digests() == SERIALIZED_GOLDEN


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
    print("SERIALIZED_GOLDEN = {")
    for name, digest in serialized_digests().items():
        print(f'    "{name}": "{digest}",')
    print("}")
