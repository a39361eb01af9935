"""Tests for the experiment driver, serialization, CLI, and self-test."""

import functools
import hashlib
import json
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import time
import tracemalloc
import weakref
from collections import OrderedDict
from dataclasses import asdict, replace
from multiprocessing import get_context
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdialogue.harness as harness
import qdialogue.quantum as quantum
from qdialogue import attacks, protocol
from qdialogue.analysis import Tally, TrialReport
from qdialogue.attacks import STRATEGY_NAMES, AttackStrategy
from qdialogue.cli import load_config_file, main
from qdialogue.harness import (
    CSV_COLUMNS,
    FIELD_TYPES,
    ROW_KEYS,
    ConfigError,
    ExperimentConfig,
    formulas_text,
    run_experiment,
    run_trial,
    selftest,
    sweep,
    to_csv,
    to_json,
    TrialStream,
)
from qdialogue.protocol import random_message
from qdialogue.quantum import BitPair
from reference import philox_stream, point_key_words, region_sizes, trial_uniforms


def counted_trials(monkeypatch) -> list:
    """Route ``harness.run_trial`` through a wrapper; returns the list of trial indices it ran."""
    calls = []
    raw = harness.run_trial

    def counted(config, trial_index, point_key=(), **chunk):
        calls.append(trial_index)
        return raw(config, trial_index, point_key, **chunk)

    monkeypatch.setattr(harness, "run_trial", counted)
    return calls


class TestConfigValidation:
    def test_unknown_attack(self):
        with pytest.raises(ConfigError, match="unknown attack"):
            ExperimentConfig(attack="mitm").validate()

    def test_c_range(self):
        with pytest.raises(ConfigError, match="strictly between"):
            ExperimentConfig(c=1.0).validate()

    def test_beta2_required(self):
        with pytest.raises(ConfigError, match="requires --beta2"):
            ExperimentConfig(attack="entangle-measure").validate()

    def test_beta2_range(self):
        with pytest.raises(ConfigError, match="beta2"):
            ExperimentConfig(attack="entangle-measure", beta2=0.9).validate()

    def test_beta2_spurious(self):
        with pytest.raises(ConfigError, match="only applies"):
            ExperimentConfig(attack="none", beta2=0.1).validate()

    def test_trials_positive(self):
        with pytest.raises(ConfigError, match="trials"):
            ExperimentConfig(trials=0).validate()

    def test_trial_index_fits_one_word(self):
        # A command runs at most 2**32 trials a point.
        ExperimentConfig(trials=2**32).validate()
        with pytest.raises(ConfigError, match="trials"):
            ExperimentConfig(trials=2**32 + 1).validate()

    def test_policy_name(self):
        with pytest.raises(ConfigError, match="detection_policy must be one of"):
            ExperimentConfig(detection_policy="halt").validate()

    def test_seed_non_negative(self):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig(master_seed=-1).validate()

    def test_format_name(self):
        with pytest.raises(ConfigError, match="format"):
            ExperimentConfig(format="xml").validate()


class TestDeterminism:
    BASE = dict(attack="entangle-measure", beta2=0.25, c=0.5, n_pairs=8, trials=120, master_seed=31)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=2),
        st.sampled_from([0, 1, 2**32 - 1]),
        st.sampled_from([0, 1]),
        st.integers(0, 40),
        st.integers(0, 90),
        st.lists(st.integers(1, 30), max_size=4),
    )
    def test_a_trial_stream_is_its_region_then_its_overflow(self, key, t, s, size, head, reads):
        # A head and then reads that end inside the region, at its end or past it.
        key = np.array(key, np.uint64)
        stream = TrialStream(key, s, range(t, t + 1), size, ((0, head, np.ndarray.tolist),))
        got = stream.trial(t)[0]
        for n in reads:
            got += stream.random(n).tolist()
        assert got == philox_stream(key, t, s, size, head + sum(reads))

    @pytest.mark.parametrize("lo", [0, 7, None])
    @pytest.mark.parametrize("size", [1, 13, 500, 2048])
    def test_a_chunk_reads_every_trial_alike_across_its_draws(self, lo, size):
        # Batches of 4096, 1024, 32 and 8 trials, read from the middle of
        # the chunk's first batch across two batch boundaries into a short
        # last batch; a chunk at None ends at a point's last trial. Each
        # trial's messages and first block, then a read across its region's end.
        key = point_key_words(2**64 + 3, 1)
        per_batch = max(1, harness.BATCH // (4 * -(-size // 4)))
        count = 2 * per_batch + per_batch // 2 + 2
        lo = 2**32 - count if lo is None else lo
        trials = range(lo, lo + count)
        codes, _, floats = protocol.block_cuts(0.5, False)
        stream = TrialStream(key, 1, trials, size, ((0, 4, codes), (4, max(size, 4), floats)))
        assert stream.per_batch == per_batch
        for t in trials[per_batch // 2 + 1:]:
            messages, first = stream.trial(t)
            expected = philox_stream(key, t, 1, size, size + 9)
            assert messages == [int(u * 4.0) for u in expected[:4]], t
            assert first + stream.random(size + 1 - len(first)).tolist() == expected[4:size + 5], t
            assert stream.random(4).tolist() == expected[size + 5:], t

    def test_the_last_trials_fold_as_lone_replays(self):
        config = ExperimentConfig(attack="entangle-measure", beta2=0.25, c=0.5, n_pairs=4, master_seed=9,
                                  detection_policy="reinitialize", max_restarts=2, verbose=True)
        trials = range(2**32 - 3, 2**32)
        assert harness._fold_trials(config, trials, ())[1] == [run_trial(config, t) for t in trials]

    @pytest.mark.parametrize("attack", ["disturb-pauli-4", "entangle-measure"])
    def test_first_blocks_of_one_uniform_or_four_regions_move_no_uniform(self, monkeypatch, attack):
        # Dialogues that restart up to 40 times refill both streams past
        # their regions, however long their first blocks.
        config = ExperimentConfig(attack=attack, beta2=0.25 if attack == "entangle-measure" else None, c=0.5,
                                  n_pairs=6, trials=40, master_seed=3, detection_policy="reinitialize",
                                  max_restarts=40, verbose=True)
        plain = to_json(run_experiment(config))
        tables = protocol.value_tables(config.strategy())
        sizes = region_sizes(config.n_pairs, config.c, tables.picks, tables.guessing)
        for first in ((1, 1), (4 * sizes[0], 4 * sizes[1])):
            monkeypatch.setattr(harness, "first_blocks", lambda config, tables, first=first: first)
            assert to_json(run_experiment(config)) == plain, first

    @pytest.mark.parametrize("seed, point_key", [(3, ()), (2**64 + 3, (0,)), (3, (0, 0)), (2**64 + 3, (5, 2))])
    def test_each_trial_reads_its_own_two_streams(self, monkeypatch, seed, point_key):
        # Both messages and the first blocks run_dialogue gets, Eve's too,
        # against the reference streams of each trial alone, in a chunk
        # whose batches end inside it: 2048 uniforms hold 8 protocol
        # regions of 244. A value Bob can detect runs the per-run loop, so
        # its heads stay code lists and floats.
        config = ExperimentConfig(attack="entangle-measure", beta2=0.25, c=0.3, n_pairs=40, master_seed=seed)
        monkeypatch.setattr(harness, "BATCH", 2048)
        calls, raw = [], harness.run_dialogue
        monkeypatch.setattr(harness, "run_dialogue", lambda *args: calls.append(args) or raw(*args))
        trials = range(2**32 - 12, 2**32)
        harness._fold_trials(config, trials, point_key)
        for t, (_, alice, bob, _, _, _, _, (pu, eu), _) in zip(trials, calls, strict=True):
            rng, eve_rng = trial_uniforms(config, t, point_key, more=0)
            assert alice + bob == random_message(80, rng), t
            assert pu == rng.random(len(pu)).tolist() and eu == eve_rng.random(len(eu)).tolist(), t
            assert len(pu) > 80 and len(eu) > 40
            assert {type(k) for k in alice + bob} == {int} and {type(u) for u in pu + eu} == {float}, t

    @pytest.mark.parametrize("n_pairs", [4, 64, 700])
    @pytest.mark.parametrize("name, beta2", [("none", None), ("intercept-resend-literal", None),
                                             ("entangle-measure", 0.0)])
    def test_an_exact_values_heads_are_the_cells_its_one_pass_reads(self, monkeypatch, name, beta2, n_pairs):
        # Both messages as intp arrays, the protocol's first block as mode
        # cells u < c in bytes and Eve's as guess cells int(16 u), each cut
        # from the trial's reference streams; at 700 pairs the heads run
        # past the region into its overflow. The probe at beta2 = 0 guesses
        # between its sure picks, so it is not exact, and its chunk cuts
        # the per-run loop's code lists and floats.
        config = ExperimentConfig(attack=name, beta2=beta2, c=0.3, n_pairs=n_pairs, master_seed=2**64 + 3)
        calls, raw = [], harness.run_dialogue
        monkeypatch.setattr(harness, "run_dialogue", lambda *args: calls.append(args) or raw(*args))
        trials = range(2**32 - 12, 2**32)
        harness._fold_trials(config, trials, (5, 2))
        tables = protocol.value_tables(config.strategy())
        reads = tables.reads
        for t, (_, alice, bob, _, _, _, _, (pu, eu), _) in zip(trials, calls, strict=True):
            rng, eve_rng = trial_uniforms(config, t, (5, 2))
            if not tables.exact:
                assert alice + bob == random_message(2 * n_pairs, rng), t
                assert pu == rng.random(len(pu)).tolist() and eu == eve_rng.random(len(eu)).tolist(), t
                continue
            assert alice.dtype == bob.dtype == np.intp and type(pu) is bytes, t
            assert alice.tolist() + bob.tolist() == random_message(2 * n_pairs, rng), t
            assert pu == bytes(u < 0.3 for u in rng.random(len(pu)).tolist()) and len(pu) > 2 * n_pairs, t
            if reads:
                assert eu.dtype == np.intp and len(eu) >= n_pairs, t
                assert eu.tolist() == [int(u * 16.0) for u in eve_rng.random(len(eu)).tolist()], t
            else:
                assert eu == [], t

    def test_messages_past_the_region_come_from_the_overflow(self):
        # 2200 message uniforms are more than any region holds.
        config = ExperimentConfig(c=0.5, n_pairs=1100, master_seed=4)
        rng, _ = harness.chunk_streams(config, (), range(6, 7), protocol.value_tables(config.strategy()))
        alice, bob, first = rng.trial(6)
        expected = philox_stream(point_key_words(4), 6, 0, harness.REGION, 2200 + len(first))
        assert alice.tolist() + bob.tolist() == [int(u * 4.0) for u in expected[:2200]]
        assert first == bytes(u < 0.5 for u in expected[2200:])

    @pytest.mark.parametrize("name, beta2, n_pairs, restarts", [("none", None, 64, 0), ("entangle-measure", 0.25, 4, 2),
                                                                 ("none", None, 700, 0)])
    def test_the_batch_size_moves_no_byte(self, monkeypatch, name, beta2, n_pairs, restarts):
        # Batches of one trial, of three of the protocol stream's, or of the
        # whole chunk: an exact value's one pass (bytes heads), the per-run
        # loop restarting on both streams, and regions at their cap.
        config = ExperimentConfig(attack=name, beta2=beta2, c=0.5, n_pairs=n_pairs, master_seed=2**64 + 3,
                                  detection_policy="reinitialize" if restarts else "terminal",
                                  max_restarts=restarts, verbose=True)
        tables, trials = protocol.value_tables(config.strategy()), range(2**32 - 40, 2**32)
        blocks, folds = harness.chunk_streams(config, (1,), trials, tables)[0].blocks, []
        assert (blocks == harness.REGION // 4) == (n_pairs == 700)
        for batch, per_batch in ((1, 1), (4 * blocks * 3, 3), (4 * blocks * len(trials), len(trials))):
            monkeypatch.setattr(harness, "BATCH", batch)
            assert harness.chunk_streams(config, (1,), trials, tables)[0].per_batch == per_batch
            folds.append(harness._fold_trials(config, trials, (1,)))
        assert folds[0][0].trials == 40 and folds[0] == folds[1] == folds[2]

    def test_eve_has_no_stream_where_she_reads_none(self):
        config = ExperimentConfig(attack="intercept-resend-blind", c=0.5, n_pairs=4)
        tables = protocol.value_tables(config.strategy())
        assert not tables.reads and harness.chunk_streams(config, (), range(3), tables)[1] is None

    def test_a_point_folds_alike_in_1_3_or_7_chunks(self):
        # Each chunk derives the point's prefix itself and seeds its own block.
        config = ExperimentConfig(attack="entangle-measure", beta2=0.25, c=0.5, n_pairs=4, trials=50,
                                  master_seed=2**64 + 3, detection_policy="reinitialize", max_restarts=2)

        def folded(parts):
            bounds = [k * config.trials // parts for k in range(parts + 1)]
            return sum((harness._fold_trials(config, range(lo, hi), (1,))[0] for lo, hi in zip(bounds, bounds[1:])),
                       Tally())

        assert folded(1).trials == 50 and folded(1) == folded(3) == folded(7)

    def test_run_trial_reproducible(self):
        cfg = ExperimentConfig(**self.BASE)
        assert run_trial(cfg, 5) == run_trial(cfg, 5)
        assert run_trial(cfg, 5) != run_trial(cfg, 6)

    @pytest.mark.parametrize("attack", STRATEGY_NAMES)
    def test_serial_equals_parallel_bytes(self, attack):
        base = dict(self.BASE, attack=attack, beta2=0.25 if attack == "entangle-measure" else None)
        serial = to_json(run_experiment(ExperimentConfig(**base, workers=1)))
        parallel = to_json(run_experiment(ExperimentConfig(**base, workers=3)))
        assert serial == parallel

    def test_rerun_identical(self):
        a = to_json(run_experiment(ExperimentConfig(**self.BASE)))
        b = to_json(run_experiment(ExperimentConfig(**self.BASE)))
        assert a == b

    def test_csv_identical_too(self):
        a = to_csv(run_experiment(ExperimentConfig(**self.BASE, workers=1)))
        b = to_csv(run_experiment(ExperimentConfig(**self.BASE, workers=3)))
        assert a == b


class InProcessContext:
    """Stands in for the default ``multiprocessing`` context, in this process.

    A child runs its target when started, so the first child takes every
    job. A ``late`` child runs it only when the parent reads its pipe,
    after the parent has taken every job or failed, so it takes none. A
    message crosses its pipe pickled. The context notes each child's
    jobs, the run tables built when it starts, each message sent and
    how many children were joined.
    """

    def __init__(self, late=False):
        self.late, self.jobs, self.tables, self.sent, self.joined = late, [], [], [], 0

    def Value(self, typecode, value):
        return get_context().Value(typecode, value)

    def Pipe(self, duplex):
        box = Mailbox(self.sent)
        return box, box

    def Process(self, target, args):
        return InProcessChild(self, target, args)


class Mailbox(list):
    """Both ends of a one-way stand-in pipe: messages pickled in ``send``, unpickled in ``recv``."""

    def __init__(self, sent):
        super().__init__()
        self.sent, self.pending = sent, None

    def send(self, obj):
        self.sent.append(obj)
        self.append(pickle.dumps(obj))

    def recv(self):
        if self.pending:
            self.pending, run = None, self.pending
            run()
        if not self:
            raise EOFError
        return pickle.loads(self.pop(0))

    def close(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class InProcessChild:
    """A stand-in child: runs ``target`` on ``start``, or if late when its pipe is read."""

    def __init__(self, context, target, args):
        self.context, self.target, self.args, self.exitcode = context, target, args, None

    def start(self):
        _, jobs, pipe = self.args
        self.context.jobs.append(jobs)
        self.context.tables.append(list(protocol._TABLES))
        if self.context.late:
            pipe.pending = functools.partial(self.target, *self.args)
        else:
            self.target(*self.args)
        self.exitcode = 0

    def join(self):
        self.context.joined += 1


def contexts_made(monkeypatch, make=InProcessContext) -> list:
    """Route ``harness.get_context`` to a new ``make()`` per call; returns the contexts made."""
    contexts = []
    monkeypatch.setattr(harness, "get_context", lambda: contexts.append(make()) or contexts[-1])
    return contexts


class CountingContext:
    """The default context, noting every process it makes."""

    def __init__(self):
        self.real, self.children = get_context(), []

    def __getattr__(self, name):
        return getattr(self.real, name)

    def Process(self, **kwargs):
        self.children.append(self.real.Process(**kwargs))
        return self.children[-1]


class TestWorkerCount:
    BASE = dict(attack="intercept-resend-blind", c=0.5, n_pairs=4, master_seed=8)

    @pytest.mark.parametrize("trials, children", [(3, 2), (1, 0)])
    def test_no_more_workers_than_trials(self, monkeypatch, trials, children):
        contexts = contexts_made(monkeypatch)
        pooled = to_json(run_experiment(ExperimentConfig(**self.BASE, trials=trials, workers=8)))
        serial = to_json(run_experiment(ExperimentConfig(**self.BASE, trials=trials, workers=1)))
        assert sum(len(context.jobs) for context in contexts) == children
        assert pooled == serial

    @pytest.mark.parametrize("workers, trials", [(3, 50), (8, 3), (2, 50), (1, 50), (4, 1)])
    def test_the_parent_and_one_process_fewer_than_workers_fold(self, monkeypatch, workers, trials):
        contexts = contexts_made(monkeypatch, CountingContext)
        config = ExperimentConfig(**self.BASE, trials=trials, workers=workers)
        doc = to_json(run_experiment(config))
        assert sum(len(context.children) for context in contexts) == min(workers, trials) - 1
        assert all(child.exitcode == 0 for context in contexts for child in context.children)
        assert multiprocessing.active_children() == []
        assert doc == to_json(run_experiment(replace(config, workers=1)))


class TestPoolTraffic:
    """What a child sends back, seen through an in-process stand-in."""

    BASE = dict(attack="entangle-measure", beta2=0.25, c=0.5, n_pairs=4, master_seed=9)

    def _pooled(self, monkeypatch, config):
        contexts = contexts_made(monkeypatch)
        doc = run_experiment(config)
        [context] = contexts
        calls = [(context.jobs[0][index], folded) for message in context.sent for index, folded in message]
        return doc, calls

    @pytest.mark.parametrize("trials, workers", [(50, 3), (7, 2), (2, 2)])
    def test_chunks_cover_every_trial_once_in_order(self, monkeypatch, trials, workers):
        config = ExperimentConfig(**self.BASE, trials=trials, workers=workers)
        _, calls = self._pooled(monkeypatch, config)
        chunks = [args[1] for args, _ in calls]
        assert all(type(chunk) is range and chunk.step == 1 for chunk in chunks)
        assert [i for chunk in chunks for i in chunk] == list(range(trials))
        assert all(args[0] == config and args[2] == () for args, _ in calls)

    def test_one_tally_and_no_report_crosses(self, monkeypatch):
        config = ExperimentConfig(**self.BASE, trials=50, workers=3)
        doc, calls = self._pooled(monkeypatch, config)
        for _, (tally, reports) in calls:
            assert type(tally) is Tally and reports == []
            assert b"TrialReport" not in pickle.dumps((tally, reports))
        assert sum((tally for _, (tally, _) in calls), Tally()).trials == config.trials
        assert to_json(doc) == to_json(run_experiment(replace(config, workers=1)))

    def test_verbose_reports_cross_with_their_chunk(self, monkeypatch):
        config = ExperimentConfig(**self.BASE, trials=50, workers=3, verbose=True)
        doc, calls = self._pooled(monkeypatch, config)
        for (_, chunk, _), (tally, reports) in calls:
            assert [r.trial_index for r in reports] == list(chunk)
            assert all(type(r) is TrialReport for r in reports)
            assert tally.trials == len(chunk)
        assert to_json(doc) == to_json(run_experiment(replace(config, workers=1)))

    def test_the_parent_folds_every_job_its_children_leave(self, monkeypatch):
        config = ExperimentConfig(**self.BASE, trials=50, workers=3)
        contexts = contexts_made(monkeypatch, functools.partial(InProcessContext, late=True))
        folded, raw = [], harness._fold_trials
        monkeypatch.setattr(harness, "_fold_trials", lambda *job: folded.append(job) or raw(*job))
        doc = to_json(run_experiment(config))
        [context] = contexts
        assert len(context.jobs) == context.joined == 2 and context.sent == [[], []]
        assert folded == context.jobs[0] and [i for _, chunk, _ in folded for i in chunk] == list(range(50))
        assert doc == to_json(run_experiment(replace(config, workers=1)))


class TestFailedJobs:
    """A job that raises, here or in a child, raises here, and no child outlives the command."""

    CONFIG = ExperimentConfig(attack="intercept-resend-blind", c=0.5, n_pairs=4, trials=50, master_seed=8, workers=3)

    def _fail_on(self, monkeypatch, failing):
        raw = harness._fold_trials

        def fold(config, chunk, point_key):
            if failing(chunk):
                raise ValueError(f"chunk {chunk} failed")
            return raw(config, chunk, point_key)

        monkeypatch.setattr(harness, "_fold_trials", fold)

    @pytest.mark.parametrize("first", [0, 48])
    def test_a_failing_chunk_raises_and_every_child_is_joined(self, monkeypatch, first):
        self._fail_on(monkeypatch, lambda chunk: chunk.start == first)
        with pytest.raises(ValueError, match=f"chunk range\\({first}, "):
            run_experiment(self.CONFIG)
        assert multiprocessing.active_children() == []

    def test_a_childs_error_is_raised_here(self, monkeypatch):
        parent, raw = os.getpid(), harness._fold_trials

        def fold(*job):
            if os.getpid() != parent:
                raise ValueError("failed in a child")
            time.sleep(0.01)  # leaves jobs for the children
            return raw(*job)

        monkeypatch.setattr(harness, "_fold_trials", fold)
        with pytest.raises(ValueError, match="failed in a child"):
            run_experiment(self.CONFIG)
        assert multiprocessing.active_children() == []

    def test_the_parents_error_stops_the_children_taking_jobs(self, monkeypatch):
        self._fail_on(monkeypatch, lambda chunk: chunk.start == 0)
        contexts = contexts_made(monkeypatch, functools.partial(InProcessContext, late=True))
        with pytest.raises(ValueError, match=r"chunk range\(0, "):
            run_experiment(self.CONFIG)
        [context] = contexts
        assert context.sent == [[], []] and context.joined == 2

    def test_a_child_that_sends_nothing_is_named_by_its_exit_code(self, monkeypatch):
        monkeypatch.setattr(harness, "_child", lambda counter, jobs, pipe: os._exit(3))
        with pytest.raises(RuntimeError, match="exited with code 3"):
            run_experiment(self.CONFIG)
        assert multiprocessing.active_children() == []


class TestOnePoolPerCommand:
    """A sweep folds every point's chunks as the jobs of one set of processes."""

    BASE = dict(attack="entangle-measure", c=0.5, n_pairs=4, trials=2, master_seed=10)
    VALUES = [0.1, 0.25, 0.5]

    def _sweep(self, monkeypatch, workers):
        pools = contexts_made(monkeypatch)
        config = ExperimentConfig(**self.BASE, workers=workers)
        return to_json(sweep(config, "beta2", self.VALUES)), pools

    def test_a_sweep_maps_every_point_on_one_pool(self, monkeypatch):
        doc, pools = self._sweep(monkeypatch, workers=3)
        [pool] = pools
        [jobs] = pool.jobs  # two processes: the parent and one child
        keys = [point_key for _, _, point_key in jobs]
        assert keys == sorted(keys) and set(keys) == {(0,), (1,), (2,)}
        for idx, value in enumerate(self.VALUES):
            point_jobs = [(config, chunk) for config, chunk, key in jobs if key == (idx,)]
            assert all(config.beta2 == value for config, _ in point_jobs)
            assert [i for _, chunk in point_jobs for i in chunk] == [0, 1]
        assert doc == self._sweep(monkeypatch, workers=1)[0]

    def test_the_parent_builds_every_point_table_before_the_pool_starts(self, monkeypatch):
        # Forked children inherit them, and the parent's oracle reuses them.
        monkeypatch.setattr(protocol, "_TABLES", OrderedDict())
        _, [pool] = self._sweep(monkeypatch, workers=3)
        values = [attacks.strategy_from_name("entangle-measure", value) for value in self.VALUES]
        assert pool.tables == [[protocol._strategy_key(value) for value in values]]
        assert list(protocol._TABLES) == pool.tables[0]

    def test_one_worker_starts_no_pool(self, monkeypatch):
        _, pools = self._sweep(monkeypatch, workers=1)
        assert pools == []

    def test_verbose_sweep_on_a_process_pool_matches_one_worker(self, tmp_path):
        written = []
        for workers in ("1", "2"):
            out = tmp_path / f"sweep-{workers}.json"
            code = main(
                ["sweep", "--attack", "entangle-measure", "--vary", "beta2", "--values", "0.1,0.5",
                 "--n-pairs", "4", "--trials", "30", "--seed", "3", "--verbose",
                 "--workers", workers, "--out", str(out)]
            )
            assert code == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]


class TestSpawnedWorkers:
    """Children started by ``spawn`` inherit no table or stream state from the parent."""

    def test_spawned_pool_writes_the_one_worker_bytes(self, monkeypatch):
        config = ExperimentConfig(attack="entangle-measure", beta2=0.25, c=0.5, n_pairs=4, trials=40,
                                  master_seed=12, detection_policy="reinitialize", max_restarts=2)
        serial = [to_json(run_experiment(config)), to_json(sweep(config, "beta2", [0.1, 0.5]))]
        monkeypatch.setattr(harness, "get_context", functools.partial(get_context, "spawn"))
        config = replace(config, workers=2)
        assert [to_json(run_experiment(config)), to_json(sweep(config, "beta2", [0.1, 0.5]))] == serial


class TestImports:
    def test_validating_a_config_loads_neither_numpy_random_nor_multiprocessing(self):
        # numpy.random loads with the first trial's streams and multiprocessing with the first
        # child, so the package's import and a config check add neither to what a bare
        # ``import numpy`` loads (numpy 1.x loads numpy.random itself), nor does a 1-worker run
        # add multiprocessing.
        code = (
            "import os, sys\n"
            "import numpy\n"
            "bare = set(sys.modules)\n"
            "import qdialogue.cli\n"
            "from qdialogue.harness import ExperimentConfig\n"
            "ExperimentConfig(attack='entangle-measure', beta2=0.25, workers=2).validate()\n"
            "print(sorted({'numpy.random', 'multiprocessing'} & (set(sys.modules) - bare)))\n"
            "qdialogue.cli.main(['run', '--attack', 'none', '--trials', '3', '--n-pairs', '2', '--out', os.devnull])\n"
            "print('multiprocessing' in sys.modules)\n"
        )
        src = str(Path(harness.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        lines = out.stdout.splitlines()
        assert lines[0] == "[]" and lines[-1] == "False"


class TestResultsDocument:
    def test_schema_and_pairing(self):
        doc = run_experiment(ExperimentConfig(attack="none", trials=40, n_pairs=4, master_seed=1))
        assert doc["schema"] == "qdialogue-results/1"
        assert doc["comparisons"], "document must pair empirical values with references"
        for comp in doc["comparisons"]:
            assert set(comp) >= {"name", "empirical", "reference", "source", "tolerance", "within"}
        assert isinstance(doc["all_within_tolerance"], bool)

    def test_verbose_embeds_trials(self):
        doc = run_experiment(
            ExperimentConfig(attack="none", trials=10, n_pairs=4, master_seed=1, verbose=True)
        )
        assert len(doc["trial_reports"]) == 10

    def test_attack_free_reference_values(self):
        doc = run_experiment(ExperimentConfig(attack="none", trials=60, n_pairs=4, master_seed=2))
        comps = {c["name"]: c for c in doc["comparisons"]}
        assert comps["message_fidelity"]["empirical"] == 1.0
        assert comps["per_cm_detection"]["empirical"] == 0.0
        assert doc["analytic"]["per_cm_oracle"] == 0.0
        assert doc["all_within_tolerance"]

    def test_reported_tolerance_is_the_one_applied(self):
        # Never detected and read exactly: every Monte Carlo row sits on
        # a boundary, where the verdict widens to the rule of three.
        doc = run_experiment(
            ExperimentConfig(attack="intercept-resend-literal", trials=40, n_pairs=4, master_seed=4)
        )
        rows = [c for c in doc["comparisons"] if c["empirical"] in (0.0, 1.0)]
        assert {c["name"] for c in rows} >= {"per_cm_detection", "eve_alice_guess_accuracy"}
        for comp in rows:
            assert comp["stderr"] == 0.0
            assert comp["tolerance"] == max(3.0 / comp["n_samples"], 1e-9)
            assert comp["within"]

    def test_oracle_vs_claim_discrepancy_is_reported(self):
        doc = run_experiment(
            ExperimentConfig(attack="disturb-measure", trials=60, n_pairs=4, master_seed=3)
        )
        assert doc["analytic"]["per_cm_oracle"] == 0.5
        assert doc["analytic"]["per_cm_claimed"] == 0.75


class TestBoundedMemory:
    CONFIG = dict(
        attack="entangle-measure",
        beta2=0.25,
        c=0.5,
        n_pairs=4,
        trials=20,
        master_seed=2004,
        detection_policy="reinitialize",
        max_restarts=2,
    )
    # sha256 of the verbose document of CONFIG, as serialized before
    # reports were folded one at a time.
    VERBOSE_DIGEST = "aefbd7d1c595b5b7b65a588409b5033ad2eb6b2a2abe5e2c1c70809202f7efd9"

    def _tracked_run(self, monkeypatch, config):
        """Run ``config``; for each report made, how many made so far are alive."""
        refs, alive = [], []
        raw = harness.run_trial

        def tracked(*args, **chunk):
            report = raw(*args, **chunk)
            refs.append(weakref.ref(report))
            alive.append(sum(ref() is not None for ref in refs))
            return report

        monkeypatch.setattr(harness, "run_trial", tracked)
        return run_experiment(config), alive

    def test_reports_are_folded_not_kept(self, monkeypatch):
        config = ExperimentConfig(**self.CONFIG)
        doc, alive = self._tracked_run(monkeypatch, config)
        assert len(alive) == config.trials
        assert max(alive) <= 2
        assert "trial_reports" not in doc

    def test_verbose_keeps_one_report_per_trial(self, monkeypatch):
        config = ExperimentConfig(**self.CONFIG, verbose=True)
        doc, alive = self._tracked_run(monkeypatch, config)
        assert alive == list(range(1, config.trials + 1))
        assert doc["trial_reports"] == [asdict(run_trial(config, i)) for i in range(config.trials)]
        assert hashlib.sha256(to_json(doc).encode()).hexdigest() == self.VERBOSE_DIGEST

    def test_verbose_document_at_two_workers(self):
        doc = run_experiment(ExperimentConfig(**self.CONFIG, verbose=True, workers=2))
        assert hashlib.sha256(to_json(doc).encode()).hexdigest() == self.VERBOSE_DIGEST

    def test_a_chunks_memory_does_not_grow_with_its_trials(self):
        # A chunk holds one batch of each stream's regions, cut, and one
        # trial's dialogue at a time: 6000 more honest 64-pair trials may
        # add at most 64 KiB, about 11 bytes a trial, to its peak.
        config = ExperimentConfig(attack="none", c=0.5, n_pairs=64)
        harness._fold_trials(config, range(100), ())  # tables, cuts and patterns built
        peaks = []
        for trials in (2000, 8000):
            tracemalloc.start()
            try:
                assert harness._fold_trials(config, range(trials), ())[0].completed == trials
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 2**16, peaks

    def test_verbose_csv_keeps_and_decodes_no_report(self, monkeypatch):
        # A CSV document has no place for reports, so a verbose one keeps
        # none and decodes none, and writes the bytes a plain one does.
        config = ExperimentConfig(**self.CONFIG, verbose=True, format="csv")
        decoded = []
        raw = TrialReport.from_dialogue

        def tracked(*args, **kwargs):
            report = raw(*args, **kwargs)
            decoded.append(report.alice_decoded_bits is not None or report.bob_decoded_bits is not None)
            return report

        monkeypatch.setattr(TrialReport, "from_dialogue", tracked)
        doc, alive = self._tracked_run(monkeypatch, config)
        assert "trial_reports" not in doc and max(alive) <= 2
        assert len(decoded) == config.trials and not any(decoded)
        assert to_csv(doc) == to_csv(run_experiment(replace(config, verbose=False)))


class TestSweep:
    def test_sweep_over_beta2(self):
        cfg = ExperimentConfig(
            attack="entangle-measure", beta2=0.1, c=0.5, n_pairs=4, trials=60, master_seed=5
        )
        doc = sweep(cfg, "beta2", [0.1, 0.25, 0.5])
        assert doc["schema"] == "qdialogue-sweep/1"
        assert [row["value"] for row in doc["curve"]] == [0.1, 0.25, 0.5]
        oracle = [row["per_cm_oracle"] for row in doc["curve"]]
        assert oracle == pytest.approx([0.1, 0.25, 0.5], abs=1e-12)
        bounds = [row["entropy_bound_bits"] for row in doc["curve"]]
        assert bounds == sorted(bounds)

    def test_sweep_over_n_pairs_monotone_reference(self):
        cfg = ExperimentConfig(
            attack="entangle-measure", beta2=0.25, c=0.5, n_pairs=4, trials=40, master_seed=6
        )
        doc = sweep(cfg, "n_pairs", [1, 2, 4, 8])
        refs = [row["analytic_exact"] for row in doc["curve"]]
        assert refs == sorted(refs)

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigError, match="at least one"):
            sweep(ExperimentConfig(), "c", [])

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError, match="sweep over"):
            sweep(ExperimentConfig(), "trials", [1, 2])

    def test_points_take_the_parameter_type(self):
        doc = sweep(ExperimentConfig(trials=5, n_pairs=2, master_seed=1), "n_pairs", [2, 3.0])
        assert [p["config"]["n_pairs"] for p in doc["points"]] == [2, 3]
        assert doc["values"] == [row["value"] for row in doc["curve"]] == [2, 3]
        assert type(doc["values"][1]) is int
        doc = sweep(ExperimentConfig(trials=5, n_pairs=2, master_seed=1), "c", [0.25])
        assert doc["points"][0]["config"]["c"] == 0.25

    @pytest.mark.parametrize(
        "vary, values",
        [("beta2", [0.1, 0.2, 0.7]), ("c", [0.5, 1.5]), ("beta2", [0.1, math.nan]), ("c", [math.nan, 0.5])],
    )
    def test_every_point_checked_before_any_runs(self, monkeypatch, vary, values):
        # NaN is a float, so it reaches the range check rather than the type check.
        calls = counted_trials(monkeypatch)
        cfg = ExperimentConfig(
            attack="entangle-measure", beta2=0.1, c=0.5, n_pairs=2, trials=20, master_seed=1
        )
        with pytest.raises(ConfigError, match=f"^{vary} must lie"):
            sweep(cfg, vary, values)
        assert calls == []

    @pytest.mark.parametrize(
        "vary, value", [("n_pairs", 2.7), ("n_pairs", "2"), ("c", "0.25"), ("c", None)]
    )
    def test_value_the_cast_would_change_rejected(self, vary, value):
        with pytest.raises(ConfigError, match=vary):
            sweep(ExperimentConfig(trials=3, n_pairs=2), vary, [value])


class TestCsv:
    def test_columns_and_rows(self):
        doc = run_experiment(ExperimentConfig(attack="none", trials=30, n_pairs=4, master_seed=7))
        text = to_csv(doc)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(doc["comparisons"])

    def test_every_row_has_the_row_keys_in_order(self):
        for policy in ("terminal", "reinitialize"):
            config = ExperimentConfig(
                attack="entangle-measure", beta2=0.25, trials=10, n_pairs=3, detection_policy=policy
            )
            for comp in run_experiment(config)["comparisons"]:
                assert list(comp) == ["name", *ROW_KEYS]
                assert type(comp["within"]) is bool
        assert CSV_COLUMNS[-len(ROW_KEYS) - 1 :] == ["comparison", *ROW_KEYS]


class TestSelfTest:
    def test_passes_on_healthy_build(self):
        import time

        t0 = time.perf_counter()
        ok, lines = selftest()
        elapsed = time.perf_counter() - t0
        assert ok
        assert all(line.startswith("PASS") for line in lines)
        assert elapsed < 60.0

    def test_corrupted_phase_table_is_caught_and_named(self, monkeypatch):
        cell = (BitPair(0, 1), BitPair(1, 0))
        patched = dict(quantum._COMPOSE_PHASE)
        patched[cell] = -1j  # wrong sign
        monkeypatch.setattr(quantum, "_COMPOSE_PHASE", patched)
        ok, lines = selftest()
        assert not ok
        failing = [line for line in lines if line.startswith("FAIL")]
        assert any("second=(0, 1) first=(1, 0)" in line for line in failing)


class TestFormulasText:
    def test_tables_present(self):
        text = formulas_text()
        assert "cumulative detection" in text
        assert "entropy bound" in text
        assert "DISAGREES with claim" in text  # the documented discrepancies
        assert "intercept-resend-blind" in text

    def test_strategy_without_published_claim(self, monkeypatch):
        class FlipOnPong(AttackStrategy):
            name = "flip-on-pong"

            def on_pong(self, channel):
                state = quantum.apply_pauli(channel.state, channel.traveling, BitPair(0, 1))
                return ((1.0, channel._replace(state=state), {}),)

        monkeypatch.setitem(attacks.STRATEGIES, FlipOnPong.name, FlipOnPong)
        doc = run_experiment(ExperimentConfig(attack="flip-on-pong", trials=20, n_pairs=2, master_seed=6))
        assert doc["analytic"]["per_cm_oracle"] == 1.0
        assert doc["analytic"]["per_cm_claimed"] is None
        assert '"per_cm_claimed": null' in to_json(doc)
        [row] = [line for line in formulas_text().splitlines() if "flip-on-pong" in line]
        assert row.split() == ["flip-on-pong", "1.0000", "n/a"]


class TestCli:
    def test_run_writes_json_and_exits_zero(self, tmp_path):
        out = tmp_path / "doc.json"
        code = main(
            [
                "run",
                "--attack",
                "none",
                "--trials",
                "30",
                "--n-pairs",
                "4",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "qdialogue-results/1"

    def test_stdout_when_no_out(self, capsys):
        code = main(["run", "--attack", "none", "--trials", "10", "--n-pairs", "2", "--seed", "1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["trials"] == 10

    def test_csv_format(self, tmp_path):
        out = tmp_path / "doc.csv"
        code = main(
            ["run", "--attack", "none", "--trials", "10", "--n-pairs", "2", "--seed", "1",
             "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().startswith(",".join(CSV_COLUMNS[:3]))

    def test_config_error_exit_2(self, capsys):
        assert main(["run", "--attack", "nosuch"]) == 2
        assert "unknown attack" in capsys.readouterr().err

    def test_c_out_of_range_exit_2(self):
        assert main(["run", "--c", "1.5"]) == 2

    def test_unwritable_output_exit_2(self, capsys):
        code = main(
            ["run", "--attack", "none", "--trials", "2", "--n-pairs", "2",
             "--out", "/proc/definitely/not/writable.json"]
        )
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_statistical_failure_exit_1(self, monkeypatch):
        # negative control: force a wrong analytic reference
        import qdialogue.harness as harness

        monkeypatch.setattr(harness, "per_cm_detection_oracle", lambda s: 0.9)
        code = main(["run", "--attack", "none", "--trials", "20", "--n-pairs", "4", "--seed", "2"])
        assert code == 1

    def test_selftest_subcommand(self, capsys):
        assert main(["selftest"]) == 0
        assert "selftest: PASS" in capsys.readouterr().out

    def test_formulas_subcommand(self, capsys):
        assert main(["formulas"]) == 0
        assert "oracle" in capsys.readouterr().out

    def test_sweep_subcommand(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(
            ["sweep", "--attack", "entangle-measure", "--beta2", "0.25", "--trials", "20",
             "--n-pairs", "2", "--seed", "4", "--vary", "beta2", "--values", "0.1,0.5",
             "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["vary"] == "beta2"
        assert len(doc["points"]) == 2

    def test_sweep_over_beta2_needs_no_base_beta2(self, capsys):
        code = main(
            ["sweep", "--attack", "entangle-measure", "--vary", "beta2", "--values", "0.1,0.25",
             "--trials", "10", "--n-pairs", "2", "--seed", "4"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert [p["config"]["beta2"] for p in doc["points"]] == [0.1, 0.25]

    def test_run_without_beta2_exit_2(self, capsys):
        assert main(["run", "--attack", "entangle-measure", "--trials", "5"]) == 2
        assert "attack entangle-measure requires --beta2" in capsys.readouterr().err

    def test_sweep_values_cast_to_the_parameter_type(self, capsys):
        code = main(
            ["sweep", "--vary", "n_pairs", "--values", "2,3", "--trials", "5", "--seed", "1"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["values"] == [2, 3]

    def test_bad_sweep_values_exit_2(self):
        assert main(
            ["sweep", "--vary", "c", "--values", "0.1,zebra", "--trials", "5", "--n-pairs", "2"]
        ) == 2

    def test_sweep_with_a_bad_last_value_runs_nothing_and_exits_2(self, monkeypatch, tmp_path):
        calls = counted_trials(monkeypatch)
        out = tmp_path / "sweep.json"
        code = main(
            ["sweep", "--attack", "entangle-measure", "--vary", "beta2", "--values", "0.1,0.7",
             "--trials", "20", "--n-pairs", "2", "--seed", "4", "--out", str(out)]
        )
        assert code == 2
        assert calls == []
        assert not out.exists()

    def test_empty_sweep_values_exit_2(self, capsys):
        assert main(["sweep", "--vary", "c", "--values", ","]) == 2
        assert "sweep needs at least one value" in capsys.readouterr().err


class TestConfigFile:
    def test_file_values_and_flag_overrides(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# experiment\n"
            "attack = entangle-measure\n"
            "beta2 = 0.25\n"
            "c = 0.5\n"
            "n-pairs = 4\n"
            "seed = 12\n"
            "trials = 8\n"
        )
        values = load_config_file(str(cfg))
        assert values["attack"] == "entangle-measure"
        assert values["n_pairs"] == 4
        assert values["master_seed"] == 12

        out = tmp_path / "doc.json"
        code = main(["run", "--config", str(cfg), "--trials", "5", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["trials"] == 5  # flag wins
        assert doc["config"]["beta2"] == 0.25

    def test_each_field_takes_its_declared_type(self, tmp_path):
        assert FIELD_TYPES == {
            "attack": str,
            "beta2": float,
            "c": float,
            "n_pairs": int,
            "trials": int,
            "master_seed": int,
            "detection_policy": str,
            "max_restarts": int,
            "out": str,
            "format": str,
            "workers": int,
            "verbose": bool,
        }
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("beta2 = 1\nmax-restarts = 3\nformat = csv\nverbose = yes\n")
        values = load_config_file(str(cfg))
        assert values == {"beta2": 1.0, "max_restarts": 3, "format": "csv", "verbose": True}
        assert [type(v) for v in values.values()] == [float, int, str, bool]

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("qubits = 9\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config_file(str(cfg))

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("trials = many\n")
        with pytest.raises(ConfigError, match="bad value"):
            load_config_file(str(cfg))

    def test_bad_detection_policy_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("detection_policy = sometimes\n")
        assert main(["run", "--config", str(cfg), "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert "detection_policy must be one of ('terminal', 'reinitialize'), got 'sometimes'" in err

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config_file("/no/such/file.cfg")


class TestOutputDirEnv:
    def test_relative_out_lands_in_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QDIALOGUE_OUT_DIR", str(tmp_path))
        code = main(
            ["run", "--attack", "none", "--trials", "5", "--n-pairs", "2", "--seed", "1",
             "--out", "nested/doc.json"]
        )
        assert code == 0
        assert (tmp_path / "nested" / "doc.json").exists()

    def test_absolute_out_ignores_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QDIALOGUE_OUT_DIR", "/nonexistent")
        out = tmp_path / "doc.json"
        code = main(
            ["run", "--attack", "none", "--trials", "5", "--n-pairs", "2", "--seed", "1",
             "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
