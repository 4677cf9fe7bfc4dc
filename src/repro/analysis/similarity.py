"""Kernel view similarity study (paper Section II / Table I).

``profile_applications`` profiles each Table I application in its own
(QEMU-platform) session, exactly like the paper's independent profiling
sessions -- the offline phase's :func:`repro.fleet.jobs.profile_view` --
and ``SimilarityMatrix`` renders the square matrix: view sizes on the
diagonal, overlap sizes above it, similarity indices (Equation 1) below
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.apps.catalog import APP_CATALOG
from repro.core.kernel_view import KernelViewConfig
from repro.core.rangelist import similarity_index
from repro.fleet.jobs import profile_view


def profile_applications(
    apps: Optional[Sequence[str]] = None,
    scale: int = 6,
    max_cycles: int = 40_000_000_000,
) -> Dict[str, KernelViewConfig]:
    """Profile each application in an independent session.

    Returns app name -> kernel view configuration (interrupt-context code
    included, per Section III-A3).
    """
    names = list(apps) if apps is not None else list(APP_CATALOG)
    return {name: profile_view(name, scale, max_cycles) for name in names}


@dataclass
class SimilarityMatrix:
    """Table I: sizes (diagonal), overlap bytes (above), S index (below)."""

    apps: List[str]
    sizes: Dict[str, int] = field(default_factory=dict)
    overlap: Dict[tuple, int] = field(default_factory=dict)
    index: Dict[tuple, float] = field(default_factory=dict)

    @classmethod
    def build(cls, configs: Dict[str, KernelViewConfig]) -> "SimilarityMatrix":
        apps = list(configs)
        matrix = cls(apps=apps)
        for name, config in configs.items():
            matrix.sizes[name] = config.size
        for i, a in enumerate(apps):
            for b in apps[i + 1 :]:
                inter = configs[a].profile.intersect(configs[b].profile)
                matrix.overlap[(a, b)] = inter.size
                matrix.index[(a, b)] = similarity_index(
                    configs[a].profile, configs[b].profile
                )
        return matrix

    def similarity(self, a: str, b: str) -> float:
        if a == b:
            return 1.0
        return self.index.get((a, b), self.index.get((b, a), 0.0))

    def overlap_bytes(self, a: str, b: str) -> int:
        if a == b:
            return self.sizes[a]
        return self.overlap.get((a, b), self.overlap.get((b, a), 0))

    def off_diagonal_indices(self) -> List[float]:
        return list(self.index.values())

    def min_similarity(self) -> tuple:
        pair = min(self.index, key=self.index.get)
        return pair, self.index[pair]

    def max_similarity(self) -> tuple:
        pair = max(self.index, key=self.index.get)
        return pair, self.index[pair]

    def format_table(self) -> str:
        """Render in the layout of the paper's Table I."""
        apps = self.apps
        width = 9
        header = " " * 9 + "".join(f"{a[:8]:>{width}}" for a in apps)
        lines = [header]
        for i, row in enumerate(apps):
            cells = []
            for j, col in enumerate(apps):
                if i == j:
                    cells.append(f"{self.sizes[row] // 1024}KB".rjust(width))
                elif j > i:
                    cells.append(f"{self.overlap_bytes(row, col) // 1024}KB".rjust(width))
                else:
                    cells.append(f"{self.similarity(row, col) * 100:.1f}%".rjust(width))
            lines.append(f"{row[:8]:<9}" + "".join(cells))
        return "\n".join(lines)
