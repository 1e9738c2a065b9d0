"""The exhaustive OPT search the bound-ordered one is checked against.

OPT used to peek at every ensemble of a frame and take the
``(true_score, key)`` maximum.
:meth:`~repro.core.environment.DetectionEnvironment.peek_best` returns the
same evaluation while skipping ensembles that cannot win; the old search
now serves only as the test oracle it must equal.

* :func:`exhaustive_best` is one frame's argmax over a full ``peek``.
* :class:`ExhaustiveOracle` is OPT choosing by it.
"""

from __future__ import annotations

from repro.core.baselines import Oracle


def exhaustive_best(env, frame, keys):
    """OPT's old search: peek at every ensemble, keep the argmax."""
    batch = env.peek(frame, keys)
    return max(
        batch.evaluations.values(), key=lambda e: (e.true_score, e.key)
    )


class ExhaustiveOracle(Oracle):
    """OPT choosing by :func:`exhaustive_best`."""

    def _choose(self, env, t, frame):
        key = exhaustive_best(env, frame, env.all_ensembles).key
        return key, [key]
