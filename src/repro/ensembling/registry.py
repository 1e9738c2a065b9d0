"""Name-based registry of fusion methods.

The registry lets configuration (and the query language's ``USING`` clause)
refer to fusion methods by short string names, mirroring the paper's
Section 5.2 comparison table.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.ensembling.base import EnsembleMethod
from repro.ensembling.fusion import ConsensusFusion
from repro.ensembling.nms import NonMaximumSuppression
from repro.ensembling.nmw import NonMaximumWeighted
from repro.ensembling.soft_nms import SoftNMS
from repro.ensembling.softer_nms import SofterNMS
from repro.ensembling.wbf import WeightedBoxesFusion

__all__ = ["available_methods", "create_method"]

_FACTORIES: dict[str, Callable[..., EnsembleMethod]] = {
    "nms": NonMaximumSuppression,
    "soft_nms": SoftNMS,
    "softer_nms": SofterNMS,
    "wbf": WeightedBoxesFusion,
    "nmw": NonMaximumWeighted,
    "fusion": ConsensusFusion,
}


def available_methods() -> list[str]:
    """Registered fusion-method names, sorted."""
    return sorted(_FACTORIES)


def create_method(name: str, **kwargs: Any) -> EnsembleMethod:
    """Instantiate a fusion method by registry name.

    Args:
        name: One of :func:`available_methods` (case-insensitive).
        **kwargs: Forwarded to the method's constructor.

    Raises:
        KeyError: If the name is not registered.
    """
    key = name.lower()
    if key not in _FACTORIES:
        raise KeyError(
            f"unknown ensemble method {name!r}; "
            f"available: {', '.join(available_methods())}"
        )
    return _FACTORIES[key](**kwargs)
