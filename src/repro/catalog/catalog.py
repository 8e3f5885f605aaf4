"""Video catalog container and deterministic generators."""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.catalog.video import VideoFile
from repro.errors import CatalogError
from repro import units


class VideoCatalog:
    """Ordered, id-addressable collection of :class:`VideoFile` entries.

    Order matters: workload generators assign Zipf popularity by catalog
    rank (entry 0 is the most popular title).
    """

    def __init__(self, videos: Iterable[VideoFile] = ()):
        self._videos: list[VideoFile] = []
        self._by_id: dict[str, VideoFile] = {}
        for v in videos:
            self.add(v)

    def add(self, video: VideoFile) -> None:
        if video.video_id in self._by_id:
            raise CatalogError(f"duplicate video id {video.video_id!r}")
        self._videos.append(video)
        self._by_id[video.video_id] = video

    def __len__(self) -> int:
        return len(self._videos)

    def __iter__(self) -> Iterator[VideoFile]:
        return iter(self._videos)

    def __contains__(self, video_id: str) -> bool:
        return video_id in self._by_id

    def __getitem__(self, video_id: str) -> VideoFile:
        try:
            return self._by_id[video_id]
        except KeyError:
            raise CatalogError(f"unknown video id {video_id!r}") from None

    def by_rank(self, rank: int) -> VideoFile:
        """The ``rank``-th most popular title (0-based catalog order)."""
        if not (0 <= rank < len(self._videos)):
            raise CatalogError(f"rank {rank} out of range [0, {len(self._videos)})")
        return self._videos[rank]

    @property
    def ids(self) -> list[str]:
        return [v.video_id for v in self._videos]

    @property
    def total_size(self) -> float:
        return float(sum(v.size for v in self._videos))

    @property
    def mean_size(self) -> float:
        if not self._videos:
            raise CatalogError("catalog is empty")
        return self.total_size / len(self._videos)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VideoCatalog({len(self)} videos, total {units.fmt_bytes(self.total_size)})"


def uniform_catalog(
    n_videos: int,
    *,
    size: float,
    playback: float,
    prefix: str = "video",
) -> VideoCatalog:
    """Catalog of ``n_videos`` identical files (handy for focused tests)."""
    if n_videos < 1:
        raise CatalogError(f"need at least one video, got {n_videos}")
    return VideoCatalog(
        VideoFile(f"{prefix}{i:04d}", size=size, playback=playback)
        for i in range(n_videos)
    )


#: Relative half-widths of the uniform size and playback draws, and the
#: mean playback length, of :func:`paper_catalog`.
SIZE_SPREAD = 0.25
PLAYBACK_SPREAD = 0.2
MEAN_PLAYBACK = 100.0 * units.MINUTE


def paper_catalog(
    n_videos: int = 500,
    *,
    mean_size: float = 3.3 * units.GB,
    seed: int = 0,
) -> VideoCatalog:
    """The Table 4 catalog: 500 files averaging 3.3 GB.

    The paper only states the count and the average size; we draw sizes
    uniformly within ``mean_size * (1 +/- SIZE_SPREAD)`` and playback
    lengths within ``MEAN_PLAYBACK * (1 +/- PLAYBACK_SPREAD)`` so files are
    heterogeneous but tightly controlled.  Bandwidth is ``size / playback``
    (streams at playback rate).  Deterministic for a given seed.
    """
    if n_videos < 1:
        raise CatalogError(f"need at least one video, got {n_videos}")
    rng = np.random.default_rng(seed)
    sizes = mean_size * (1.0 + SIZE_SPREAD * (2.0 * rng.random(n_videos) - 1.0))
    plays = MEAN_PLAYBACK * (
        1.0 + PLAYBACK_SPREAD * (2.0 * rng.random(n_videos) - 1.0)
    )
    return VideoCatalog(
        VideoFile(f"video{i:04d}", size=float(sizes[i]), playback=float(plays[i]))
        for i in range(n_videos)
    )
