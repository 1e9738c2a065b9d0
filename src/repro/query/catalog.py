"""The query catalog: registered videos and models.

:class:`Catalog` replaces the ad-hoc name dicts the old ``QueryEngine``
carried.  It is the binding context every plan is validated against: the
registered videos (finite frame sequences), the detector pool and the
reference models — what a DBMS would keep in its system tables.

The catalog stores *runtime objects* (anything exposing ``.name`` and
``.detect(frame)``), but exposes only validated, immutable views;
registration is the single mutation surface.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.simulation.video import Frame, Video

__all__ = ["CatalogError", "Catalog"]


class CatalogError(KeyError):
    """Raised when a lookup names an unregistered catalog entry."""


def _checked_name(model: object, kind: str) -> str:
    """The model's ``.name``, once it has a callable ``.detect``."""
    name = getattr(model, "name", None)
    if not isinstance(name, str) or not name:
        raise ValueError(f"{kind} must expose a non-empty string .name")
    if not callable(getattr(model, "detect", None)):
        raise ValueError(f"{kind} {name!r} must expose .detect(frame)")
    return name


class Catalog:
    """Registered videos, detectors and reference models, by name.

    Lookup methods raise :class:`CatalogError` on unknown names; the
    ``videos`` / ``detectors`` / ``references`` properties give sorted
    name lists for error messages and plan validation.
    """

    def __init__(self) -> None:
        self._videos: dict[str, tuple[Frame, ...]] = {}
        self._detectors: dict[str, object] = {}
        self._references: dict[str, object] = {}

    # ---- registration ---------------------------------------------------

    def register_video(self, name: str, video: Video | Sequence[Frame]) -> None:
        """Register a video (or raw frame sequence) under ``name``."""
        if not name:
            raise ValueError("video name must be non-empty")
        frames = tuple(video.frames if isinstance(video, Video) else video)
        if not frames:
            raise ValueError("cannot register an empty video")
        self._videos[name] = frames

    def register_detector(self, detector: object) -> None:
        """Register a detector by its own ``.name``."""
        self._detectors[_checked_name(detector, "detector")] = detector

    def register_reference(self, reference: object) -> None:
        """Register a reference model by its own ``.name``."""
        self._references[_checked_name(reference, "reference")] = reference

    # ---- lookups --------------------------------------------------------

    def video(self, name: str) -> tuple[Frame, ...]:
        """The registered frame sequence for ``name``."""
        try:
            return self._videos[name]
        except KeyError:
            raise CatalogError(
                f"unknown video {name!r}; registered: {self.videos}"
            ) from None

    def detector(self, name: str) -> object:
        try:
            return self._detectors[name]
        except KeyError:
            raise CatalogError(
                f"unknown detector {name!r}; registered: {self.detectors}"
            ) from None

    def reference(self, name: str) -> object:
        try:
            return self._references[name]
        except KeyError:
            raise CatalogError(
                f"unknown reference model {name!r}; "
                f"registered: {self.references}"
            ) from None

    def default_reference(self) -> str | None:
        """Deterministic default REF: the first registered name, if any."""
        names = self.references
        return names[0] if names else None

    # ---- views ----------------------------------------------------------

    @property
    def videos(self) -> list[str]:
        return sorted(self._videos)

    @property
    def detectors(self) -> list[str]:
        return sorted(self._detectors)

    @property
    def references(self) -> list[str]:
        return sorted(self._references)

    def __repr__(self) -> str:
        return (
            f"Catalog(videos={len(self._videos)}, "
            f"detectors={len(self._detectors)}, "
            f"references={len(self._references)})"
        )
