"""Property-style fuzz tests for DHT write merging.

The round contract says: machines may execute in any order, but their
per-machine write buffers reach
:func:`repro.ampc.dht.merge_writes` sorted by machine index, and the
merge folds conflicts (last-writer-wins, or through a ``combiner``) in
that canonical order.  Consequence — the property fuzzed here — the
merged table is **identical** for every machine *execution* order,
with or without a combiner, even for non-commutative combiners where
fold order is observable.

Two layers are fuzzed:

* ``merge_writes`` directly, against randomly generated conflicting
  write batches whose execution order is shuffled;
* the full runtime round, where the same conflicting-write programs
  must leave the table ``merge_writes`` builds from the batches
  (entries and insertion order).
"""

from __future__ import annotations

import random

import pytest

from repro.ampc import AMPCConfig, AMPCRuntime, HashTable, merge_writes

#: seeds for the fuzz trials — enough iterations to hit collisions of
#: every flavour (multi-writer keys, repeat writes by one machine,
#: combiner chains of length > 2) while staying fast.
TRIALS = range(25)

#: non-commutative on purpose: fold order is fully observable.
def _chain(a, b):
    return (a, b)


def _random_batches(rng: random.Random) -> list[list[tuple[str, int]]]:
    """Per-machine write lists over a small key pool (forced conflicts)."""
    n_machines = rng.randint(2, 10)
    keys = [f"k{i}" for i in range(rng.randint(1, 6))]
    batches = []
    for m in range(n_machines):
        writes = [
            (rng.choice(keys), rng.randrange(1000) + 1000 * m)
            for _ in range(rng.randint(0, 8))
        ]
        batches.append(writes)
    return batches


def _merged(batches, combiner) -> tuple[list, int]:
    table = HashTable("H")
    merge_writes(table, batches, combiner)
    return list(table.items()), table.words


@pytest.mark.parametrize("combiner", [None, min, _chain], ids=["lww", "min", "chain"])
def test_merge_independent_of_execution_order(combiner):
    for trial in TRIALS:
        rng = random.Random(1000 + trial)
        batches = _random_batches(rng)
        reference = _merged(batches, combiner)
        for _ in range(4):
            # Execute in a random order (what parallel machines do),
            # then hand buffers over in index order (what the contract
            # requires) — the merge must not notice.
            order = list(range(len(batches)))
            rng.shuffle(order)
            executed = {m: list(batches[m]) for m in order}  # "ran" shuffled
            handed_over = [executed[m] for m in range(len(batches))]
            assert _merged(handed_over, combiner) == reference, (
                f"trial {trial}: merge depends on machine execution order"
            )


@pytest.mark.parametrize("combiner", [None, min, _chain], ids=["lww", "min", "chain"])
def test_runtime_round_merge_matches_merge_writes(combiner):
    for trial in range(8):
        rng = random.Random(2000 + trial)
        batches = _random_batches(rng)
        expected_items, _ = _merged(batches, combiner)

        rt = AMPCRuntime(AMPCConfig(n_input=500))
        rt.seed([("seed", 0)])

        def emitter(ctx):
            for key, value in ctx.payload:
                ctx.write(key, value)

        rt.round(
            [(emitter, writes) for writes in batches],
            f"fuzz trial {trial}",
            combiner=combiner,
        )
        got = [(k, v) for k, v in rt.table.items() if k != "seed"]
        assert got == expected_items, (
            f"trial {trial}: runtime merged table diverged"
        )


def test_combiner_folds_in_machine_index_order():
    """Pin the canonical fold direction with the non-commutative combiner."""
    table = HashTable("H")
    merge_writes(table, [[("k", "a")], [("k", "b")], [("k", "c")]], _chain)
    assert table.get("k") == (("a", "b"), "c")


def test_last_writer_wins_within_and_across_machines():
    table = HashTable("H")
    merge_writes(table, [[("k", 1), ("k", 2)], [("k", 3)]], None)
    assert table.get("k") == 3
    table2 = HashTable("H")
    merge_writes(table2, [[("k", 1), ("k", 2)]], None)
    assert table2.get("k") == 2
