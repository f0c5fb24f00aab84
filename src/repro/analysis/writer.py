"""EXPERIMENTS.md generator.

Runs every experiment in the harness and writes the claimed-vs-measured
record.  ``python -m repro.analysis.writer`` (or ``repro-experiments``)
regenerates EXPERIMENTS.md from live runs, so the document can never
drift from the code.
"""

from __future__ import annotations

import sys
from datetime import date
from pathlib import Path

from . import harness
from .figures import render_all_figures

_HEADER = """\
# EXPERIMENTS — paper claims vs measured results

Generated by ``python -m repro.analysis.writer`` (live runs on this
machine; regenerate after any algorithmic change).  The paper is
theory-only, so each "experiment" validates one theorem or lemma,
named in its section's claim below.  Measured numbers come from the
AMPC simulator's round/memory ledgers; approximation ratios use the
library's own exact baselines (Stoer–Wagner, exact k-cut, the replay
oracle).

Conventions: ``eps = 0.5`` unless stated; k-cut weights count each
crossing edge **once** (the paper's ``sum_i delta(V_i)`` counts twice —
ratios are unaffected); "rounds" mixes measured rounds (primitives
executing on the simulator) and charged rounds (the proven cost of a
step computed at host speed, each citing its lemma).

"""

_CLAIMS = {
    "E1": (
        "Theorem 1 claims O(log log n) AMPC rounds; Ghaffari–Nowicki "
        "MPC needs O(log n log log n).  Expect: AMPC rounds ~flat in "
        "log n, MPC/AMPC speedup widening with n."
    ),
    "E2": (
        "Theorem 1 claims a (2+eps)-approximation w.h.p.  Expect: "
        "ratio <= 2.5 everywhere (typically 1.0 on planted instances)."
    ),
    "E3": (
        "Theorem 3 claims the exact minimum singleton cut of the whole "
        "contraction process in O(1/eps) rounds.  Expect: equality with "
        "the naive replay oracle on every instance, rounds constant in n."
    ),
    "E4": (
        "Lemma 3 claims a generalized low-depth decomposition of height "
        "O(log^2 n) in O(1/eps) rounds.  Expect: heights <= "
        "(floor(log2 n)+1)^2 on every family, with paths ~log2 n."
    ),
    "E5": (
        "Theorem 2 claims APX-SPLIT is a (4+eps)-approximation of Min "
        "k-Cut in O(k log log n) rounds.  Expect: ratio <= 4.5 vs the "
        "planted optimum; rounds growing ~linearly in k."
    ),
    "E6": (
        "Theorems 1/3 claim O(N^eps) local memory and O((n+m) log^2 n) "
        "total space.  Expect: ledger peaks within both envelopes."
    ),
    "E7": (
        "Lemma 1: contraction to n/t preserves a fixed min cut w.p. "
        ">= ~1/t^2.  Lemma 2: tracking singletons boosts the success "
        "probability to >= 1/t^(1-eps/3).  Expect: empirical rates "
        "dominating both bounds, Lemma 2's event containing Lemma 1's."
    ),
    "E9": (
        "Corollary 1 claims a (4+eps) MPC k-cut in O(k log n log log n) "
        "rounds.  Expect: MPC round counts exceeding AMPC's at every "
        "(n, k), linear in k."
    ),
    "E11": (
        "Not a paper claim: wall-clock sanity of the simulator itself."
    ),
    "E12": (
        "Not a paper claim (sound preprocessing): a Nagamochi–Ibaraki "
        "certificate at k = min-degree preserves every minimum cut "
        "exactly while trimming the m term of the paper's O~(n+m) total "
        "memory.  Expect: exact == exact_cert on every row, m_cert <= m, "
        "space_cert <= space."
    ),
    "E13": (
        "Context for Theorem 1's quality target: Matula's deterministic "
        "sequential (2+eps) baseline vs the paper's randomized parallel "
        "(2+eps).  Expect: both ratios <= 2+eps, typically ~1.0."
    ),
    "E15": (
        "Not a paper claim (external validity): the full pipeline on "
        "classic unplanted graphs (karate club, dolphins).  Expect: all "
        "approximations within their factors; global min cuts isolate "
        "periphery, not communities."
    ),
    "E14": (
        "The model gap the paper argues from (Section 1): MPC "
        "connectivity-style workloads are conjectured to need Omega(log n) "
        "rounds (1-vs-2-cycle); AMPC finishes them in O(1/eps).  Both "
        "runtimes executed; expect reduce at parity, listrank/1v2cycle "
        "with AMPC flat and MPC growing ~log n."
    ),
}


def generate(path: str | Path = "EXPERIMENTS.md", *, fast: bool = False) -> str:
    """Run all experiments and write the record; returns the text."""
    sections: list[str] = [_HEADER]
    sections.append(f"_Last regenerated: {date.today().isoformat()}_\n")

    runs = [
        ("E1", lambda: harness.run_rounds_scaling([64, 128] if fast else [64, 128, 256, 512])),
        ("E2", lambda: harness.run_approx_quality(trials=2 if fast else 3)),
        ("E3", lambda: harness.run_singleton_verification([32, 64] if fast else [32, 64, 128, 256])),
        ("E4", lambda: harness.run_low_depth_heights([128] if fast else [128, 512, 2048])),
        ("E5", lambda: harness.run_kcut_quality([2, 3] if fast else [2, 3, 4])),
        ("E6", lambda: harness.run_memory_budgets([32, 64] if fast else [64, 128, 256])),
        ("E7", lambda: harness.run_preservation_probability(
            n=32 if fast else 48, trials=30 if fast else 120)),
        ("E9", lambda: harness.run_mpc_corollary()),
        ("E11", lambda: harness.run_throughput()),
        ("E12", lambda: harness.run_sparsification_ablation(
            [64, 96] if fast else [64, 128, 192])),
        ("E13", lambda: harness.run_quality_grid(trials=1 if fast else 3)),
        ("E14", lambda: harness.run_model_separation(
            [32, 128] if fast else [32, 128, 512])),
        ("E15", lambda: harness.run_classic_datasets()),
    ]
    for exp_id, runner in runs:
        report = runner()
        sections.append(f"## {exp_id}\n")
        sections.append(f"**Claim.** {_CLAIMS[exp_id]}\n")
        sections.append("```")
        sections.append(report.render())
        sections.append("```\n")

    sections.append("## E8 — Figures 1–3 (structural reproduction)\n")
    sections.append(
        "**Claim.** The paper's figures illustrate the heavy-light "
        "decomposition, the meta tree, and contraction-time intervals; "
        "the library reproduces each structure (Figure 1/2 on the "
        "reverse-engineered example tree with ten meta vertices, "
        "Figure 3 on a 7-vertex weighted instance).\n"
    )
    sections.append("```")
    sections.append(render_all_figures())
    sections.append("```\n")

    sections.append(
        "## E10 and ablations\n\n"
        "E10 (per-primitive round costs) and A1–A4 (design-choice "
        "ablations: binarized paths, fractional schedule, depth-label "
        "strawman, weighted contraction keys) print their tables under "
        "``pytest benchmarks/ --benchmark-only``; see "
        "``benchmarks/bench_primitives.py`` and "
        "``benchmarks/bench_ablations.py``.\n"
    )

    text = "\n".join(sections)
    Path(path).write_text(text, encoding="utf-8")
    return text


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    fast = "--fast" in sys.argv
    generate(out, fast=fast)
    print(f"wrote {out}")
