"""Simulated timing: the cost model and the component-time ledger.

All inference times in this repo are simulated milliseconds, charged to a
:class:`SimulatedClock` so experiments are deterministic and hardware
independent while preserving the paper's cost structure (Eq. 1):

    c_{S|v} = sum_{M in S} c_{M|v} + c^e_{S|v},    with c^e << c_M.

The clock keeps per-component ledgers (detector inference, REF inference,
ensembling, selection overhead) to reproduce the Figure 13 breakdown.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable
from dataclasses import dataclass, field

from repro.utils.validation import check_non_negative

__all__ = ["SimulatedClock", "c_max_ms", "ensembling_cost_ms"]

#: Fixed cost of one fusion call, in ms.
ENSEMBLING_BASE_MS = 0.05

#: Marginal fusion cost per pooled input box, in ms.
ENSEMBLING_PER_BOX_MS = 0.002

#: Bookkeeping cost (UCB computation and placeholder updates) per
#: candidate ensemble per iteration, in ms.
OVERHEAD_PER_ENSEMBLE_MS = 0.001

#: Multiplier on the pool's expected full inference time when computing
#: ``c_max``.  The simulated detectors draw a multiplicative time jitter
#: in ``[0.95, 1.05]`` per frame; ``1.05`` is that jitter's upper bound,
#: so the full ensemble's inference never exceeds the headroomed
#: expectation.  Below 1, ``c_hat = c / c_max`` (the paper's normalized
#: cost, clipped to [0, 1]) would saturate on ordinary frames and break
#: the monotonicity the scoring function (Eq. 30) relies on.
INFERENCE_JITTER_HEADROOM = 1.05

#: Worst-case pooled box count assumed when adding fusion headroom to
#: ``c_max`` — an upper bound on the boxes the full ensemble contributes
#: to one WBF call on a cluttered frame.
C_MAX_POOL_BOXES = 256

#: Additive safety margin of ``c_max`` absorbing the per-box NMS term of
#: detector inference time (0.05 ms/box in the simulator), which the
#: expected times do not include.
C_MAX_MARGIN_MS = 16.0


def ensembling_cost_ms(num_boxes: int) -> float:
    """Cost ``c^e`` of fusing a pool of ``num_boxes`` boxes."""
    if num_boxes < 0:
        raise ValueError("num_boxes must be non-negative")
    return ENSEMBLING_BASE_MS + ENSEMBLING_PER_BOX_MS * num_boxes


def c_max_ms(expected_full_inference_ms: float) -> float:
    """The normalization constant ``c_max`` for a detector pool.

    The paper normalizes per-frame cost by the maximum over ensembles;
    a fixed upper bound on the full ensemble's cost preserves the
    required monotonicity while keeping scores comparable across
    frames (normalized costs are clipped to [0, 1] regardless).

    Args:
        expected_full_inference_ms: Sum of the pool's expected
            per-frame inference times (the full ensemble ``M``).
    """
    check_non_negative(expected_full_inference_ms, "expected_full_inference_ms")
    return (
        expected_full_inference_ms * INFERENCE_JITTER_HEADROOM
        + ensembling_cost_ms(C_MAX_POOL_BOXES)
        + C_MAX_MARGIN_MS
    )


#: Ledger component names, in reporting order.
COMPONENTS = ("detector", "reference", "ensembling", "overhead")

#: How many recent once-only charge keys a clock remembers (see
#: :meth:`SimulatedClock.charge_once`).  Bounded so unbounded frame
#: streams cannot grow the clock's memory without limit.
CHARGE_ONCE_WINDOW = 4096


@dataclass
class SimulatedClock:
    """Accumulates simulated time per pipeline component.

    The "budget" notions of the paper (TCVI's ``C`` and ``B``) read
    :attr:`billable_ms`, which covers detector inference and ensembling —
    the costs Eq. 12/14 accumulate.  REF inference and selection overhead
    are tracked separately for the Figure 13 analysis.
    """

    detector_ms: float = 0.0
    reference_ms: float = 0.0
    ensembling_ms: float = 0.0
    overhead_ms: float = 0.0
    _charged_keys: "OrderedDict[tuple[str, Hashable], None]" = field(
        default_factory=OrderedDict, repr=False, compare=False
    )

    def charge(self, component: str, ms: float) -> None:
        """Add ``ms`` to a component ledger.

        Raises:
            KeyError: For unknown component names.
            ValueError: For negative, NaN or infinite charges.
        """
        check_non_negative(ms, "charged ms")
        if component == "detector":
            self.detector_ms += ms
        elif component == "reference":
            self.reference_ms += ms
        elif component == "ensembling":
            self.ensembling_ms += ms
        elif component == "overhead":
            self.overhead_ms += ms
        else:
            raise KeyError(
                f"unknown clock component {component!r}; known: {COMPONENTS}"
            )

    def charge_once(self, component: str, key: Hashable, ms: float) -> bool:
        """Charge a component at most once per ``(component, key)``.

        Used for per-frame once-only costs — REF inference is billed once
        per processed frame (Section 2.3) no matter how many evaluation
        batches touch the frame.  The charged-key memory is an LRU bounded
        by :data:`CHARGE_ONCE_WINDOW`, so environments stay reusable over
        unbounded streams; under sequential frame processing a key only
        recurs while it is still within the window.  :meth:`reset` clears
        the memory along with the ledgers, making a clock (and the
        environment owning it) reusable across trials.

        Returns:
            True if the charge was applied, False if ``key`` was already
            charged for this component.
        """
        full_key = (component, key)
        if full_key in self._charged_keys:
            self._charged_keys.move_to_end(full_key)
            return False
        self.charge(component, ms)
        self._charged_keys[full_key] = None
        while len(self._charged_keys) > CHARGE_ONCE_WINDOW:
            self._charged_keys.popitem(last=False)
        return True

    @property
    def billable_ms(self) -> float:
        """Time counted against a TCVI budget (Eq. 12 / Eq. 14)."""
        return self.detector_ms + self.ensembling_ms

    @property
    def total_ms(self) -> float:
        return (
            self.detector_ms
            + self.reference_ms
            + self.ensembling_ms
            + self.overhead_ms
        )

    def breakdown(self) -> dict[str, float]:
        """Fraction of total time per component (Figure 13)."""
        total = self.total_ms
        if total <= 0:
            return {name: 0.0 for name in COMPONENTS}
        return {
            "detector": self.detector_ms / total,
            "reference": self.reference_ms / total,
            "ensembling": self.ensembling_ms / total,
            "overhead": self.overhead_ms / total,
        }

    def snapshot(self) -> dict[str, float]:
        """Absolute per-component times in ms."""
        return {
            "detector": self.detector_ms,
            "reference": self.reference_ms,
            "ensembling": self.ensembling_ms,
            "overhead": self.overhead_ms,
        }

    def reset(self) -> None:
        self.detector_ms = 0.0
        self.reference_ms = 0.0
        self.ensembling_ms = 0.0
        self.overhead_ms = 0.0
        self._charged_keys.clear()
