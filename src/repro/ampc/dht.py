"""Distributed hash tables ``H_0, ..., H_k`` of the AMPC model.

Each round ``i`` of an AMPC computation reads (adaptively, mid-round)
from ``H_{i-1}`` and writes (at end of round) to ``H_i``.  A table has
two representations: :class:`HashTable`, one dict of arbitrary keys
for the object path, and :class:`ColumnTable`, sorted int64 key and
value columns for columnar round specs.  Each extends a read-only
snapshot type (:class:`TableSnapshot`, :class:`ColumnSnapshot`) with
its write surface, so each representation has one reader.

Sizes are measured in **words**; see :func:`word_size` for the
convention (numbers/None = 1 word, containers = len + contents).  Exact
byte counts are irrelevant to the model; what matters is that budgets
scale as the theory says, so a consistent word convention suffices.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

import numpy as np

from .errors import AMPCUsageError, MissingKeyError, TotalSpaceExceeded

#: sentinel distinguishing "absent" from a stored ``None`` value in the
#: single-probe paths of :meth:`HashTable.put` and :func:`merge_writes`
_MISSING = object()


def word_size(value: Any) -> int:
    """Number of model words a value occupies.

    Scalars (ints, floats, bools, None, short strings) take one word;
    tuples/lists/dicts/sets take one word per element plus their
    contents.  numpy arrays take one word per element.
    """
    if value is None or isinstance(value, (int, float, bool)):
        return 1
    if isinstance(value, str):
        return max(1, (len(value) + 7) // 8)
    if isinstance(value, (tuple, list, set, frozenset)):
        return 1 + sum(word_size(v) for v in value)
    if isinstance(value, dict):
        return 1 + sum(word_size(k) + word_size(v) for k, v in value.items())
    size = getattr(value, "size", None)
    if size is not None and isinstance(size, int):  # numpy arrays and scalars
        return max(1, int(size))
    return 4  # opaque objects: flat fee


class TableSnapshot:
    """Read-only view of one hash table at a round boundary.

    The runtime hands machine programs a snapshot of ``H_{i-1}``
    instead of the table itself, so a machine can only ever *read* the
    previous round's state — the write surface (``put``) simply does
    not exist here.  The snapshot shares the table's dict without
    copying: the runtime guarantees nothing writes ``H_{i-1}`` while
    the round's programs execute (writes are buffered per machine and
    merged into ``H_i`` afterwards).  :class:`HashTable` inherits these
    read methods, so the two never disagree.
    """

    __slots__ = ("name", "_entries")

    def __init__(self, name: str, entries: dict[Any, Any]):
        self.name = name
        self._entries = entries

    def get(self, key: Any) -> Any:
        try:
            return self._entries[key]
        except KeyError:
            raise MissingKeyError(key, self.name) from None

    def get_default(self, key: Any, default: Any = None) -> Any:
        return self._entries.get(key, default)

    def contains(self, key: Any) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> Iterator[Any]:
        return iter(self._entries.keys())

    def items(self) -> Iterator[tuple[Any, Any]]:
        return iter(self._entries.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, entries={len(self)})"


class HashTable(TableSnapshot):
    """One hash table ``H_i``: a key/value dict with word accounting."""

    __slots__ = ("_words",)

    def __init__(self, name: str):
        super().__init__(name, {})
        self._words = 0

    def put(self, key: Any, value: Any) -> None:
        # Single probe: a sentinel default tells "absent" apart from a
        # stored None without a second ``key in entries`` lookup.
        old = self._entries.get(key, _MISSING)
        if old is not _MISSING:
            self._words -= word_size(key) + word_size(old)
        self._entries[key] = value
        self._words += word_size(key) + word_size(value)

    def put_many(self, items: Iterable[tuple[Any, Any]]) -> None:
        for key, value in items:
            self.put(key, value)

    def carry_forward(self, snapshot: TableSnapshot) -> None:
        """Copy keys of the previous table that nothing overwrote."""
        for key, value in snapshot.items():
            if key not in self._entries:
                self.put(key, value)

    @property
    def words(self) -> int:
        """Total words stored (keys + values)."""
        return self._words

    def snapshot(self) -> TableSnapshot:
        """An immutable read view of this table."""
        return TableSnapshot(self.name, self._entries)


def sorted_lookup(
    keys: np.ndarray, want: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Find ``want`` in a sorted, unique key column.

    Returns ``(pos, found)``: ``found[i]`` says whether ``want[i]`` is
    present, and where it is, ``keys[pos[i]] == want[i]``.  Every
    sorted-column read of the columnar tier goes through here.
    """
    pos = np.searchsorted(keys, want)
    if keys.size == 0:
        return pos, np.zeros(want.shape, dtype=bool)
    pos = np.minimum(pos, keys.size - 1)
    return pos, keys[pos] == want


def sorted_get(
    keys: np.ndarray,
    values: np.ndarray,
    want: Any,
    default: Any = None,
    table: str = "",
) -> np.ndarray:
    """Values stored under ``want`` in sorted ``(keys, values)`` columns.

    Missing keys get ``default``; with ``default=None`` the first one
    raises :class:`~repro.ampc.errors.MissingKeyError`.
    """
    want = np.asarray(want, dtype=np.int64)
    pos, found = sorted_lookup(keys, want)
    if found.all():
        return values[pos]
    if default is None:
        raise MissingKeyError(int(want[~found][0]), table)
    out = np.full(want.shape, default, dtype=values.dtype)
    out[found] = values[pos[found]]
    return out


class ColumnSnapshot:
    """Read-only columnar view of one table at a round boundary.

    The columnar analogue of :class:`TableSnapshot`: keys are an
    ``int64`` column kept sorted and unique, values one homogeneous
    column.  The runtime hands a round spec this instead of the table,
    so its machines can only read; the arrays are shared zero-copy and
    flagged read-only.  :class:`ColumnTable` inherits these read
    methods.
    """

    __slots__ = ("name", "_keys", "_values")

    def __init__(self, name: str, keys: np.ndarray, values: np.ndarray):
        self.name = name
        keys = keys.view()
        values = values.view()
        keys.flags.writeable = False
        values.flags.writeable = False
        self._keys = keys
        self._values = values

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The (keys, values) columns."""
        return self._keys, self._values

    @property
    def value_dtype(self) -> np.dtype:
        return self._values.dtype

    def get_many(self, keys: Any, default: Any = None) -> np.ndarray:
        """Vectorized lookup.  Missing keys raise unless ``default`` set."""
        return sorted_get(self._keys, self._values, keys, default, self.name)

    def get(self, key: int) -> Any:
        return self.get_many(np.array([key], dtype=np.int64))[0]

    def contains_many(self, keys: Any) -> np.ndarray:
        return sorted_lookup(self._keys, np.asarray(keys, dtype=np.int64))[1]

    def __len__(self) -> int:
        return int(self._keys.size)

    def keys(self) -> Iterator[int]:
        return iter(self._keys.tolist())

    def items(self) -> Iterator[tuple[int, Any]]:
        return zip(self._keys.tolist(), self._values.tolist())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self.name!r}, entries={len(self)}, "
            f"dtype={self.value_dtype})"
        )


class ColumnTable(ColumnSnapshot):
    """One hash table ``H_i`` held as homogeneous key/value *columns*.

    The columnar sibling of :class:`HashTable` for rounds whose state is
    numeric: values are ``int64`` or ``float64``.  Primitives pack
    ``(tag, index)`` identities into the int64 key space (see
    :mod:`repro.ampc.columnar`), so a whole logical column is one
    contiguous slice and :meth:`get_many`/:meth:`put_many` are single
    vectorized ``searchsorted``/merge passes instead of per-key dict
    probes.

    Word accounting follows the same convention as :func:`word_size`
    (one word per scalar): a table of ``N`` entries holds ``2 N`` words.
    Budget and ledger semantics are identical to :class:`HashTable` —
    the chain checks :attr:`words` against the total-space budget at
    every :meth:`DHTChain.advance`.
    """

    __slots__ = ()

    def __init__(self, name: str, value_dtype: Any = np.int64):
        value_dtype = np.dtype(value_dtype)
        if value_dtype not in (np.dtype(np.int64), np.dtype(np.float64)):
            raise ValueError(
                f"ColumnTable values must be int64 or float64, "
                f"got {value_dtype}"
            )
        self.name = name
        self._keys = np.empty(0, dtype=np.int64)
        self._values = np.empty(0, dtype=value_dtype)

    def put_many(self, keys: Any, values: Any) -> None:
        """Vectorized upsert; later entries of ``keys`` win on duplicates."""
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=self.value_dtype)
        if keys.shape != values.shape or keys.ndim != 1:
            raise ValueError("keys and values must be equal-length 1-d arrays")
        if keys.size == 0:
            return
        all_keys = np.concatenate([self._keys, keys])
        all_values = np.concatenate([self._values, values])
        order = np.argsort(all_keys, kind="stable")
        sk = all_keys[order]
        sv = all_values[order]
        # Stable sort keeps insertion order within equal keys, so the
        # last element of each run is the newest write: last-writer-wins.
        keep = np.empty(sk.size, dtype=bool)
        keep[-1] = True
        np.not_equal(sk[1:], sk[:-1], out=keep[:-1])
        self._keys = sk[keep]
        self._values = sv[keep]

    @property
    def words(self) -> int:
        """Total words stored: one per key plus one per value."""
        return int(self._keys.size + self._values.size)

    def snapshot(self) -> ColumnSnapshot:
        return ColumnSnapshot(self.name, self._keys, self._values)

    def merge_columns(
        self, writes: tuple[Any, Any], combiner: str | None = None
    ) -> None:
        """Merge one round's ``(keys, values)`` write buffer canonically.

        The buffer holds the writes in machine order, mirroring
        :func:`merge_writes`.  Conflicts resolve last-writer-wins in
        that order, or through ``combiner`` (``"min"`` / ``"sum"``, the
        order-independent reductions the primitives use).
        """
        keys = np.asarray(writes[0], dtype=np.int64)
        values = np.asarray(writes[1], dtype=self.value_dtype)
        if combiner is not None and keys.size:
            if combiner == "min":
                reduce = np.minimum
            elif combiner == "sum":
                reduce = np.add
            else:
                raise ValueError(f"unknown columnar combiner {combiner!r}")
            order = np.argsort(keys, kind="stable")
            sk, sv = keys[order], values[order]
            starts = np.ones(sk.size, dtype=bool)
            np.not_equal(sk[1:], sk[:-1], out=starts[1:])
            run_starts = np.flatnonzero(starts)
            keys, values = sk[run_starts], reduce.reduceat(sv, run_starts)
            old = self.contains_many(keys)
            values[old] = reduce(values[old], self.get_many(keys[old]))
        self.put_many(keys, values)

    def carry_forward(self, snapshot: ColumnSnapshot) -> None:
        """Copy keys of the previous table that nothing overwrote."""
        prev_k, prev_v = snapshot.columns()
        if prev_k.size == 0:
            return
        overwritten = self.contains_many(prev_k)
        if overwritten.all():
            return
        self.put_many(prev_k[~overwritten], prev_v[~overwritten])


def merge_writes(
    table: HashTable,
    write_lists: Iterable[list[tuple[Any, Any]]],
    combiner: Callable[[Any, Any], Any] | None = None,
) -> None:
    """Merge per-machine write buffers into ``table`` canonically.

    ``write_lists`` must be ordered by machine index (and each list by
    the machine's own write order).  Conflicting writes to the same key
    resolve last-writer-wins, or through ``combiner`` folded in that
    same canonical order — which is why the merged table is identical
    no matter which order the machines actually *executed* in, as long
    as their buffers are handed over sorted by machine index.
    """
    for writes in write_lists:
        for key, value in writes:
            if combiner is not None:
                # One probe instead of contains()+get(): the sentinel
                # default keeps stored-None combinable.
                old = table.get_default(key, _MISSING)
                if old is not _MISSING:
                    value = combiner(old, value)
            table.put(key, value)


class DHTChain:
    """The sequence of hash tables across rounds, with a total-space cap.

    The AMPC definition gives a *fresh* table per round but bounds the
    size of **each** by the total-space budget.  The chain keeps the two
    live tables (previous = readable, next = writable) and retires older
    ones, tracking the high-water mark for the ledger.
    """

    def __init__(self, total_space_words: int):
        self.total_space_words = int(total_space_words)
        self._tables: list[HashTable | ColumnTable] = [HashTable("H0")]
        self._high_water = 0
        self._rounds_advanced = 0

    # ------------------------------------------------------------------
    @property
    def current(self) -> HashTable | ColumnTable:
        """The table readable this round (``H_{i-1}``)."""
        return self._tables[-1]

    @property
    def round_index(self) -> int:
        return len(self._tables) - 1

    @property
    def high_water(self) -> int:
        return max(self._high_water, self.current.words)

    # ------------------------------------------------------------------
    def advance(self, next_table: HashTable | ColumnTable) -> None:
        """End a round: ``H_i`` becomes the readable table."""
        self._check_budget(next_table)
        self._high_water = max(self._high_water, self.current.words, next_table.words)
        self._tables.append(next_table)
        self._rounds_advanced += 1
        # Retire all but the newest readable table; the model allows the
        # algorithm to re-write anything it still needs forward.
        if len(self._tables) > 2:
            self._tables = self._tables[-2:]

    def make_next(self) -> HashTable:
        return HashTable(f"H{self.round_index + 1}")

    def make_next_column(self, value_dtype: Any = np.int64) -> ColumnTable:
        return ColumnTable(f"H{self.round_index + 1}", value_dtype=value_dtype)

    def _check_budget(self, table: HashTable | ColumnTable) -> None:
        if table.words > self.total_space_words:
            raise TotalSpaceExceeded(table.words, self.total_space_words)

    def _check_seedable(self) -> None:
        if self._rounds_advanced:
            raise AMPCUsageError(
                f"DHTChain.seed called after {self._rounds_advanced} round(s) "
                "already advanced: input can only be loaded into H_0 before "
                "the first round.  Write mid-computation state through a "
                "round's machine programs instead."
            )

    def seed(self, items: Iterable[tuple[Any, Any]]) -> None:
        """Load the input into ``H_0`` before the first round.

        Raises :class:`~repro.ampc.errors.AMPCUsageError` if the chain
        has already advanced — seeding would silently write "input"
        into the middle of a computation's table sequence.
        """
        self._check_seedable()
        self.current.put_many(items)
        self._check_budget(self.current)
        self._high_water = max(self._high_water, self.current.words)

    def seed_table(self, table: HashTable | ColumnTable) -> None:
        """Replace ``H_0`` wholesale (columnar seeding).

        Same contract as :meth:`seed`: only legal before the first
        round, and only onto an empty ``H_0``.
        """
        self._check_seedable()
        if len(self.current):
            raise AMPCUsageError(
                "DHTChain.seed_table would discard an already-seeded H_0"
            )
        self._check_budget(table)
        self._tables = [table]
        self._high_water = max(self._high_water, table.words)
