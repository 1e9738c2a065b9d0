"""Dataset builders mirroring the paper's Tables 1 and 2.

The builders reproduce the *geometry* of nuScenes and BDD as the paper uses
them — scene counts, samples per scene, per-category splits, and keyframe
rate — over the synthetic world generator.  A :class:`Dataset` groups its
scenes by environment category so the specialized sub-datasets
(``V_nusc^clear``, ``V_nusc^night``, ...) and the drift compositions can be
derived from it, and supports deterministic resampling for the paper's
100-independent-trials protocol (Section 5.4).

Scale: building the full 42,500-sample nuScenes-like dataset is supported
(and used by the Table 1 benchmark), but most experiments pass ``scale`` to
shrink scene counts proportionally so a full algorithm comparison runs in
seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.simulation.video import Frame, Video
from repro.simulation.world import WorldConfig, generate_video
from repro.utils.rng import derive_rng, derive_seed
from repro.utils.validation import check_positive

__all__ = [
    "GroupSpec",
    "DatasetSpec",
    "Dataset",
    "build_nuscenes_like",
    "build_bdd_like",
    "NUSCENES_SPEC",
    "BDD_SPEC",
]


@dataclass(frozen=True)
class GroupSpec:
    """One dataset group (a row of Table 1 / Table 2).

    Attributes:
        name: Group name, e.g. ``"nusc-night"``.
        categories: ``(category_name, weight)`` pairs; each scene in the
            group draws its category from this distribution.  Single-entry
            tuples give homogeneous groups.
        num_scenes: Number of scenes (videos) in the group.
        samples_per_scene: Frames per scene.
    """

    name: str
    categories: tuple[tuple[str, float], ...]
    num_scenes: int
    samples_per_scene: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("group name must be non-empty")
        if not self.categories:
            raise ValueError("categories must be non-empty")
        total = sum(w for _, w in self.categories)
        if total <= 0:
            raise ValueError("category weights must sum to a positive value")
        if self.num_scenes <= 0:
            raise ValueError("num_scenes must be positive")
        if self.samples_per_scene <= 0:
            raise ValueError("samples_per_scene must be positive")

    @property
    def num_samples(self) -> int:
        return self.num_scenes * self.samples_per_scene

    def scaled(self, scale: float) -> GroupSpec:
        """Shrink/grow the group's scene count by ``scale`` (at least 1)."""
        check_positive(scale, "scale")
        return GroupSpec(
            name=self.name,
            categories=self.categories,
            num_scenes=max(1, round(self.num_scenes * scale)),
            samples_per_scene=self.samples_per_scene,
        )


@dataclass(frozen=True)
class DatasetSpec:
    """Full dataset recipe: groups plus world parameters.

    Attributes:
        name: Dataset name.
        groups: The group rows.
        frame_rate_hz: Keyframe rate used to convert samples to duration
            (nuScenes annotates at 2 Hz).
        world: Ground-truth world parameters.
    """

    name: str
    groups: tuple[GroupSpec, ...]
    frame_rate_hz: float = 2.0
    world: WorldConfig = field(default_factory=WorldConfig)

    def __post_init__(self) -> None:
        if not self.groups:
            raise ValueError("dataset needs at least one group")
        check_positive(self.frame_rate_hz, "frame_rate_hz")
        names = [g.name for g in self.groups]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate group names in {names}")

    def scaled(self, scale: float) -> DatasetSpec:
        return DatasetSpec(
            name=self.name,
            groups=tuple(g.scaled(scale) for g in self.groups),
            frame_rate_hz=self.frame_rate_hz,
            world=self.world,
        )

    def _generate_group(
        self, group: GroupSpec, seed: int, max_scenes: int | None = None
    ) -> tuple[Video, ...]:
        """The group's scenes, or only its first ``max_scenes`` of them.

        A group draws each scene's category from its own RNG, once per
        scene in order, and seeds each scene by its name alone, so the
        leading scenes are identical whether or not the rest are built.
        """
        cat_names = [c for c, _ in group.categories]
        weights = np.asarray([w for _, w in group.categories], dtype=np.float64)
        probs = weights / weights.sum()
        rng = derive_rng(seed, "group", self.name, group.name)
        count = group.num_scenes
        if max_scenes is not None:
            count = min(count, max_scenes)
        videos: list[Video] = []
        for scene_idx in range(count):
            category = cat_names[int(rng.choice(len(cat_names), p=probs))]
            video_name = f"{self.name}/{group.name}/scene{scene_idx:04d}"
            videos.append(
                generate_video(
                    name=video_name,
                    num_frames=group.samples_per_scene,
                    category=category,
                    seed=derive_seed(seed, "scene", video_name),
                    config=self.world,
                )
            )
        return tuple(videos)

    def build(self, seed: int = 0) -> Dataset:
        """Materialize the dataset deterministically from ``seed``."""
        videos = {g.name: self._generate_group(g, seed) for g in self.groups}
        return Dataset(spec=self, seed=seed, videos=videos)

    def leading_frames(
        self,
        seed: int = 0,
        group: str | None = None,
        max_frames: int | None = None,
    ) -> tuple[Frame, ...]:
        """``build(seed).as_video(group).frames[:max_frames]``, built lazily.

        Generates only ``group``'s scenes (every group's when ``None``),
        and of those only the leading scenes the first ``max_frames``
        frames come from.  The frames are identical to the full build's.
        """
        if max_frames is not None and max_frames < 0:
            raise ValueError("max_frames must be non-negative")
        groups = [g for g in self.groups if group is None or g.name == group]
        if not groups:
            raise KeyError(
                f"unknown group {group!r}; known: {[g.name for g in self.groups]}"
            )
        scenes: list[Video] = []
        remaining = max_frames
        for group_spec in groups:
            if remaining is None:
                scenes.extend(self._generate_group(group_spec, seed))
            elif remaining > 0:
                needed = -(-remaining // group_spec.samples_per_scene)
                videos = self._generate_group(group_spec, seed, needed)
                scenes.extend(videos)
                remaining -= sum(len(v) for v in videos)
        frames = Video.concatenate(self.name, scenes, mark_breakpoints=False).frames
        return frames if max_frames is None else frames[:max_frames]


@dataclass(frozen=True)
class Dataset:
    """A materialized dataset: groups of generated scene videos.

    Attributes:
        spec: The recipe this dataset was built from.
        seed: The seed it was built with.
        videos: Group name -> scene videos.
    """

    spec: DatasetSpec
    seed: int
    videos: dict[str, tuple[Video, ...]]

    @property
    def name(self) -> str:
        return self.spec.name

    def group_names(self) -> list[str]:
        return [g.name for g in self.spec.groups]

    def scenes(self, group: str | None = None) -> list[Video]:
        """All scene videos, optionally restricted to one group."""
        if group is not None:
            if group not in self.videos:
                raise KeyError(
                    f"unknown group {group!r}; known: {self.group_names()}"
                )
            return list(self.videos[group])
        result: list[Video] = []
        for group_spec in self.spec.groups:
            result.extend(self.videos[group_spec.name])
        return result

    def as_video(self, group: str | None = None, name: str | None = None) -> Video:
        """Concatenate scenes into one frame sequence for ingestion.

        Within a dataset group the underlying distribution is stationary, so
        junctions are *not* recorded as breakpoints (the TUVI setting); use
        :mod:`repro.simulation.drift` to build drifting sequences.
        """
        scenes = self.scenes(group)
        video_name = name if name is not None else (
            f"{self.name}" if group is None else f"{self.name}:{group}"
        )
        return Video.concatenate(video_name, scenes, mark_breakpoints=False)

    def num_samples(self, group: str | None = None) -> int:
        return sum(len(v) for v in self.scenes(group))

    def duration_minutes(self, group: str | None = None) -> float:
        return self.num_samples(group) / self.spec.frame_rate_hz / 60.0

    def summary(self) -> list[dict[str, object]]:
        """Rows equivalent to Table 1 / Table 2 of the paper."""
        rows: list[dict[str, object]] = []
        for group in self.spec.groups:
            rows.append(
                {
                    "group": group.name,
                    "num_scenes": len(self.videos[group.name]),
                    "num_samples": self.num_samples(group.name),
                    "duration_min": round(self.duration_minutes(group.name), 1),
                }
            )
        return rows

    def resample(self, trial: int) -> Dataset:
        """An independently re-generated copy for experiment trial ``trial``."""
        return self.spec.build(derive_seed(self.seed, "resample", trial))


#: nuScenes per Table 1: 850 scenes / 42,500 samples (50 keyframes per
#: scene at 2 Hz); clear 274, night 79, rainy 184 scenes, with the
#: remaining 313 scenes treated as overcast daytime driving.
NUSCENES_SPEC = DatasetSpec(
    name="nusc",
    groups=(
        GroupSpec("nusc-clear", (("clear", 1.0),), 274, 50),
        GroupSpec("nusc-night", (("night", 1.0),), 79, 50),
        GroupSpec("nusc-rainy", (("rainy", 1.0),), 184, 50),
        GroupSpec("nusc-other", (("overcast", 1.0),), 313, 50),
    ),
    frame_rate_hz=2.0,
)

#: BDD per Table 2: 300 sequences / 30,000 samples of mixed conditions,
#: plus rainy (120 seq / ~5,070 samples) and snow (132 seq / ~5,549
#: samples) specialist groups used to train domain detectors.
BDD_SPEC = DatasetSpec(
    name="bdd",
    groups=(
        GroupSpec(
            "bdd-main",
            (
                ("clear", 0.45),
                ("overcast", 0.2),
                ("rainy", 0.15),
                ("snow", 0.1),
                ("night", 0.1),
            ),
            300,
            100,
        ),
        GroupSpec("bdd-rainy", (("rainy", 1.0),), 120, 42),
        GroupSpec("bdd-snow", (("snow", 1.0),), 132, 42),
    ),
    frame_rate_hz=2.5,
)


def build_nuscenes_like(
    seed: int = 0, scale: float = 1.0, world: WorldConfig | None = None
) -> Dataset:
    """Build the nuScenes-like dataset (Table 1 geometry).

    Args:
        seed: Generation seed.
        scale: Fraction of the paper's scene counts to generate (each group
            keeps at least one scene).
        world: Optional world-config override.
    """
    spec = NUSCENES_SPEC if world is None else DatasetSpec(
        name=NUSCENES_SPEC.name,
        groups=NUSCENES_SPEC.groups,
        frame_rate_hz=NUSCENES_SPEC.frame_rate_hz,
        world=world,
    )
    if scale != 1.0:
        spec = spec.scaled(scale)
    return spec.build(seed)


def build_bdd_like(
    seed: int = 0, scale: float = 1.0, world: WorldConfig | None = None
) -> Dataset:
    """Build the BDD-like dataset (Table 2 geometry)."""
    spec = BDD_SPEC if world is None else DatasetSpec(
        name=BDD_SPEC.name,
        groups=BDD_SPEC.groups,
        frame_rate_hz=BDD_SPEC.frame_rate_hz,
        world=world,
    )
    if scale != 1.0:
        spec = spec.scaled(scale)
    return spec.build(seed)
