"""Boosting: the best of independent trials, implemented once.

Algorithm 1's ``(2+eps)`` guarantee holds w.h.p. only after boosting
over ``Theta(log^2 n)`` independent trials (Lemma 2); APX-SPLIT is
boosted the same way.  The library, ``repro-cut`` and the served
``/mincut`` and ``/kcut`` all boost through :func:`boost`, so its rules
hold everywhere: trial ``t`` runs at ``seed + BOOST_SEED_STRIDE * t``,
at least one trial runs, the first lightest trial wins, and its ledger
becomes every trial's ledger merged as one parallel group (trials are
independent, hence parallel in the model).

A *trial runner* takes each trial's keyword arguments and returns the
results in the same order.  The default, :func:`run_in_process` bound to
a solver, runs them here; the service binds
:meth:`repro.service.TrialExecutor.run` to run them on its process pool.

>>> trial_seeds(3, 4)
[3, 7922, 15841, 23760]

A toy solver whose trial at ``seed`` weighs ``seed % 5`` and takes
``seed % 3 + 1`` rounds; the seeds 1, 7920, 15839 weigh 1, 0, 4:

>>> from functools import partial
>>> from types import SimpleNamespace
>>> from repro.ampc import RoundLedger
>>> def toy(seed):
...     ledger = RoundLedger()
...     ledger.charge(seed % 3 + 1, "one toy trial")
...     return SimpleNamespace(weight=seed % 5, seed=seed, ledger=ledger)
>>> best = boost(partial(run_in_process, toy), {}, trials=3, seed=1, label="")
>>> best.seed, best.ledger.rounds
(7920, 3)
>>> boost(partial(run_in_process, toy), {}, trials=0, seed=1, label="")
Traceback (most recent call last):
    ...
ValueError: need at least one trial
"""

from __future__ import annotations

import math
from typing import Callable

from ..ampc import RoundLedger

#: seed stride between boosting trials
BOOST_SEED_STRIDE = 7919

#: runs trials given their keyword arguments; results in the same order
TrialRunner = Callable[[list[dict]], list]


def default_boost_trials(n: int) -> int:
    """The default trial count: ``ceil(log2(n)^2 / 4)``.

    The paper runs ``Theta(log^2 n)`` instances for the w.h.p. claim;
    the constant is a simulation knob (E2 measures the success curve).
    """
    return max(1, math.ceil(math.log2(max(4, n)) ** 2 / 4))


def trial_seeds(seed: int, trials: int) -> list[int]:
    """The boosting seed schedule: ``seed + BOOST_SEED_STRIDE * t``."""
    if trials < 1:
        raise ValueError("need at least one trial")
    return [seed + BOOST_SEED_STRIDE * t for t in range(trials)]


def run_in_process(solve: Callable, trials: list[dict]) -> list:
    """Run ``solve(**kwargs)`` per trial, here and in order."""
    return [solve(**kwargs) for kwargs in trials]


def boost(run: TrialRunner, params: dict, *, trials: int, seed: int, label: str):
    """The first lightest of ``trials`` runs of ``params`` plus a seed,
    charged every trial's ledger as one parallel group ``label``."""
    results = run([dict(params, seed=s) for s in trial_seeds(seed, trials)])
    best = min(results, key=lambda res: res.weight)
    combined = RoundLedger()
    combined.absorb_parallel([res.ledger for res in results], label)
    best.ledger = combined
    return best
