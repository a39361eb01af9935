"""Generated strategies against the tap contract.

Each strategy is composed from branch-form tap steps: coins over Pauli
codes with random weights (some at or below ``PROB_FLOOR``, some zero),
an up/down measurement (``z_branches``) of the travel qubit or of the
probe's ancilla, the entangling probe at a random beta and interception,
read out on the pong leg with ``bell_branches``. A tap applies its
steps in order, and only its last step may pick, so a strategy picks on
ping, on pong or on both. For each one the run tables must give what the
references in ``tests/reference.py`` give without them, and each table's
weights must add up to 1 less the mass its picks drop below the floor.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdialogue.analysis import guess_accuracy_oracle, per_cm_detection_oracle
from qdialogue.attacks import AttackStrategy, Channel
from qdialogue.protocol import (
    DETECTION_POLICIES,
    ProtocolConfig,
    random_message,
    run_dialogue,
    value_tables,
)
from qdialogue.quantum import (
    ALL_CODES,
    PROB_FLOOR,
    BitPair,
    apply_pauli,
    attach_ancilla,
    bell_branches,
    bell_outcome_probs,
    bell_state,
    entangling_probe,
    tensor_product,
    z_branches,
)
from reference import encode, ends_after, path_shapes, reference_dialogue, reference_run_law, run_paths, transcript_dict


def intercept(channel):
    state = tensor_product(channel.state, bell_state(BitPair(0, 0), ("H", "T")))
    return ((1.0, Channel(state, "T"), {}),)


def probe(channel, beta2):
    state = attach_ancilla(channel.state, "e")
    state = entangling_probe(state, channel.traveling, "e", math.sqrt(1.0 - beta2), math.sqrt(beta2))
    return ((1.0, Channel(state, channel.traveling), {}),)


def coin(channel, codes, weights):
    state, reg = channel
    return tuple((w, Channel(apply_pauli(state, reg, code), reg), {}) for code, w in zip(codes, weights))


def measure(channel, reg):
    """Up/down on ``reg``, or on the travel qubit when it is None; the ancilla's bit is logged."""
    return tuple(
        (p, channel._replace(state=state), {"ancilla_outcome": bit} if reg == "e" else {})
        for p, bit, state in z_branches(channel.state, reg or channel.traveling)
    )


def read_out(channel, retransform):
    alternatives = []
    for p, learned, state in bell_branches(channel.state, "H", "T"):
        if state is not None and retransform:
            state = apply_pauli(state, "t", learned)
        alternatives.append((p, Channel(state, "t"), {"learned_alice": learned}))
    return tuple(alternatives)


STEPS = {"intercept": intercept, "probe": probe, "coin": coin, "z": measure, "bell": read_out}


def run_steps(steps, channel):
    alternatives = ((1.0, channel, {}),)
    for kind, *args in steps:
        [(_, channel, _)] = alternatives  # only the last step picks
        alternatives = STEPS[kind](channel, *args)
    return alternatives


def raw_law(steps, channel) -> tuple[float, ...]:
    """The last step's probabilities before the floor: a coin's weights, or the Born law it reads."""
    for kind, *args in steps[:-1]:
        [(_, channel, _)] = STEPS[kind](channel, *args)
    kind, *args = steps[-1]
    if kind == "coin":
        return args[1]
    if kind == "bell":
        return tuple(bell_outcome_probs(channel.state, "H", "T").values())
    amps = channel.state.tensor()
    axis = channel.state.axis(args[0] or channel.traveling)
    return tuple(float(np.sum(np.abs(np.take(amps, bit, axis=axis)) ** 2)) for bit in (0, 1))


def sub_floor_mass(strategy, bob_code, alice_code) -> float:
    """The mass one run's picks drop, in the run table's walk.

    Each alternative a pick reads as below ``PROB_FLOOR`` counts at its
    raw probability from ``raw_law``, times the weight of its path.
    """
    dropped = 0.0

    def leg(steps, channel, weight):
        nonlocal dropped
        alternatives = run_steps(steps, channel)
        if len(alternatives) == 1:
            return [(weight, alternatives[0][1])]
        law = raw_law(steps, channel)
        dropped += weight * sum(raw for raw, (p, _, _) in zip(law, alternatives) if p < PROB_FLOOR)
        return [(weight * p, next_channel) for p, next_channel, _ in alternatives if p >= PROB_FLOOR]

    for weight, channel in leg(strategy.ping, Channel(bell_state(bob_code), "t"), 1.0):
        leg(strategy.pong, encode(channel, alice_code), weight)
    return dropped


class Composed(AttackStrategy):
    """A strategy whose taps run the steps in ``ping`` and ``pong``."""

    name = "composed"

    def __init__(self, ping: tuple, pong: tuple):
        self.ping, self.pong = ping, pong

    def on_ping(self, channel):
        return run_steps(self.ping, channel)

    def on_pong(self, channel):
        return run_steps(self.pong, channel)


@st.composite
def coin_weights(draw, k: int) -> tuple[float, ...]:
    """``k`` weights summing to 1: some zero or at ``PROB_FLOOR``, at most one below it."""
    special = draw(st.lists(st.sampled_from([0.0, PROB_FLOOR]), max_size=k - 1))
    if len(special) < k - 1 and draw(st.booleans()):
        special.append(PROB_FLOOR / 4)
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=k - len(special), max_size=k - len(special)))
    rest = 1.0 - sum(special)
    return tuple(draw(st.permutations(special + [rest * w / sum(raw) for w in raw])))


@st.composite
def composed_steps(draw) -> tuple[tuple, tuple]:
    intercepting = draw(st.booleans())
    probe_leg = draw(st.sampled_from([None, "ping", "pong"]))
    legs = {"ping": [("intercept",)] if intercepting else [], "pong": []}
    if probe_leg:
        legs[probe_leg].append(("probe", draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.5))))
    for leg in draw(st.sampled_from([("ping",), ("pong",), ("ping", "pong")])):
        if intercepting and leg == "pong" and draw(st.booleans()):
            legs[leg].append(("bell", draw(st.booleans())))
            continue
        kinds = ["coin", "z-travel"]
        if probe_leg == "ping" or (probe_leg and leg == "pong"):
            kinds.append("z-ancilla")
        kind = draw(st.sampled_from(kinds))
        if kind == "coin":
            codes = tuple(draw(st.lists(st.sampled_from(ALL_CODES), min_size=2, max_size=4)))
            legs[leg].append(("coin", codes, draw(coin_weights(len(codes)))))
        else:
            legs[leg].append(("z", "e" if kind == "z-ancilla" else None))
    return tuple(legs["ping"]), tuple(legs["pong"])


def play(engine, config, strategy, seed):
    """One seeded dialogue: its transcript, Eve's logs and the uniforms read from each stream.

    The per-uniform replay's streams must end right after the two
    messages and the uniforms it reports.
    """
    rng = np.random.default_rng(seed)
    eve_rng = rng.spawn(1)[0]
    msgs = [random_message(config.n_pairs, rng) for _ in range(2)]
    result = engine(config, *msgs, strategy, rng, eve_rng)
    if engine is reference_dialogue:
        assert ends_after(rng, seed, 2 * config.n_pairs + result.draws[0])
        assert ends_after(eve_rng, seed, result.draws[1], child=True)
    return transcript_dict(result.transcript), result.eve.logs, result.draws


@settings(max_examples=100, deadline=None)
@given(composed_steps())
@example(((("probe", PROB_FLOOR), ("z", "e")), ()))
@example(((("intercept",), ("probe", 2 * PROB_FLOOR), ("z", None)), (("bell", True),)))
def test_generated_strategy_keeps_the_tap_contract(steps):
    strategy = Composed(*steps)
    tables = value_tables(strategy)
    assert value_tables(Composed(*steps)) is tables
    for (bob_code, alice_code), table in tables.by_pair.items():
        dropped = sub_floor_mass(strategy, bob_code, alice_code)
        assert sum(leaf.weight for leaf in table.leaves) == pytest.approx(1.0 - dropped, abs=1e-14)
        paths = run_paths(strategy, bob_code, alice_code)
        assert [(leaf.weight, leaf.fields) for leaf in table.leaves] == [(w, f) for w, _, f in paths]
    expected = reference_run_law(strategy)
    assert per_cm_detection_oracle(strategy) == expected[0]
    assert guess_accuracy_oracle(strategy) == expected[1:]
    for policy in DETECTION_POLICIES:
        config = ProtocolConfig(c=0.5, n_pairs=4, max_restarts=2, detection_policy=policy)
        for seed in range(3):
            assert play(run_dialogue, config, strategy, seed) == play(reference_dialogue, config, strategy, seed)


@settings(max_examples=100, deadline=None)
@given(composed_steps())
def test_generated_paths_pick_alike_and_leaves_guess_alike(steps):
    # As for every registered strategy value (``tests/test_protocol.py``):
    # one number of picks on every path, and a guess cell stored for
    # every outcome of every leaf or for none.
    tables = value_tables(Composed(*steps))
    picks, stored = path_shapes(tables)
    assert picks == {tables.picks} and stored == {not tables.guessing}
