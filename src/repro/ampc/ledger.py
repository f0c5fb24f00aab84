"""Round and memory accounting for the AMPC simulator.

The paper's results are statements about three model-level quantities:

* number of **synchronous rounds**,
* peak **local memory** used by any machine within a round,
* peak **total space** held by the distributed hash tables.

:class:`RoundLedger` is the single source of truth for all three.  Two
kinds of entries exist:

``measured``
    produced by :class:`~repro.ampc.runtime.AMPCRuntime` when machine
    programs actually execute against the DHT;

``charged``
    produced by composite algorithm steps that perform their computation
    at numpy speed but account the round cost *proven* for that step by
    a cited lemma — black boxes the paper takes from its citations
    (MST, graph connectivity) and composite steps whose round bound a
    lemma proves.  Every charge must carry a citation; tests audit this.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class LedgerEntry:
    """One accounted step: how many rounds, why, and which kind."""

    rounds: int
    reason: str
    kind: str  # "measured" | "charged"
    local_peak: int = 0
    total_peak: int = 0
    queries: int = 0

    def __post_init__(self) -> None:
        if self.rounds < 0:
            raise ValueError("rounds must be non-negative")
        if self.kind not in ("measured", "charged"):
            raise ValueError(f"unknown entry kind {self.kind!r}")
        if self.kind == "charged" and not self.reason:
            raise ValueError("charged entries must cite a reason/lemma")


@dataclass
class RoundLedger:
    """Accumulates rounds, memory high-water marks and DHT query counts."""

    entries: list[LedgerEntry] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def measure(
        self,
        rounds: int,
        reason: str,
        *,
        local_peak: int = 0,
        total_peak: int = 0,
        queries: int = 0,
    ) -> None:
        """Record rounds that the runtime actually executed."""
        self.entries.append(
            LedgerEntry(
                rounds=rounds,
                reason=reason,
                kind="measured",
                local_peak=local_peak,
                total_peak=total_peak,
                queries=queries,
            )
        )

    def charge(
        self,
        rounds: int,
        reason: str,
        *,
        local_peak: int = 0,
        total_peak: int = 0,
        queries: int = 0,
    ) -> None:
        """Record rounds charged per a cited lemma/theorem.

        ``reason`` must name the source of the bound, e.g.
        ``"Lemma 13: edge time intervals"``.
        """
        self.entries.append(
            LedgerEntry(
                rounds=rounds,
                reason=reason,
                kind="charged",
                local_peak=local_peak,
                total_peak=total_peak,
                queries=queries,
            )
        )

    def absorb(self, other: "RoundLedger", *, parallel: bool = False) -> None:
        """Fold another ledger into this one.

        With ``parallel=True`` the other ledger describes work running
        *in parallel* with work already recorded, so its rounds extend
        this ledger only if they exceed the rounds already absorbed into
        the parallel group; callers model this by absorbing the max-round
        sibling (see :meth:`absorb_parallel`).
        """
        if parallel:
            raise NotImplementedError("use absorb_parallel for sibling groups")
        self.entries.extend(other.entries)

    def absorb_parallel(self, siblings: list["RoundLedger"], reason: str) -> None:
        """Absorb a group of ledgers whose work ran in parallel.

        The round cost of a parallel group is the **maximum** of the
        siblings' rounds (machines are partitioned among them); memory
        peaks are the max of local peaks and the *sum* of total peaks
        (they coexist in the DHT).
        """
        if not siblings:
            return
        rounds = max(s.rounds for s in siblings)
        local_peak = max(s.local_peak for s in siblings)
        total_peak = sum(s.total_peak for s in siblings)
        queries = sum(s.queries for s in siblings)
        kinds = {e.kind for s in siblings for e in s.entries}
        kind = "measured" if kinds == {"measured"} else "charged"
        self.entries.append(
            LedgerEntry(
                rounds=rounds,
                reason=f"parallel group ({len(siblings)} siblings): {reason}",
                kind=kind,
                local_peak=local_peak,
                total_peak=total_peak,
                queries=queries,
            )
        )

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def rounds(self) -> int:
        """Total rounds across all recorded steps."""
        return sum(e.rounds for e in self.entries)

    @property
    def measured_rounds(self) -> int:
        return sum(e.rounds for e in self.entries if e.kind == "measured")

    @property
    def charged_rounds(self) -> int:
        return sum(e.rounds for e in self.entries if e.kind == "charged")

    @property
    def local_peak(self) -> int:
        """High-water mark of any machine's local memory, in words."""
        return max((e.local_peak for e in self.entries), default=0)

    @property
    def total_peak(self) -> int:
        """High-water mark of total DHT space, in words."""
        return max((e.total_peak for e in self.entries), default=0)

    @property
    def queries(self) -> int:
        """Total adaptive DHT read queries issued."""
        return sum(e.queries for e in self.entries)

    # ------------------------------------------------------------------
    def report(self) -> str:
        """Human-readable per-step accounting table."""
        lines = [
            f"{'rounds':>6}  {'kind':<8}  {'local':>10}  {'total':>12}  reason",
            "-" * 78,
        ]
        for e in self.entries:
            lines.append(
                f"{e.rounds:>6}  {e.kind:<8}  {e.local_peak:>10}  "
                f"{e.total_peak:>12}  {e.reason}"
            )
        lines.append("-" * 78)
        lines.append(
            f"{self.rounds:>6}  total     {self.local_peak:>10}  {self.total_peak:>12}"
        )
        return "\n".join(lines)

    def citations(self) -> list[str]:
        """Reasons attached to charged entries (for the audit tests)."""
        return [e.reason for e in self.entries if e.kind == "charged"]
