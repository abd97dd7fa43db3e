"""DOT rendering of the two leveled diagrams, side by side.

Minus edges are drawn upward (level l+1 to level l), plus edges downward,
labels on the edges; levels share a rank so the picture reads like the
figures the objects come from.
"""

from __future__ import annotations

from ..bisystem import LambdaGraphBisystem
from ..core import word_str


def bisystem_dot(b: LambdaGraphBisystem, name: str = "bisystem") -> str:
    lines = [f'digraph "{name}" {{', "  rankdir=TB;", "  node [shape=circle];"]
    for cluster, blocks, up in (("minus", b.minus_edges, 1), ("plus", b.plus_edges, 0)):
        tag = cluster[0]
        lines.append(f"  subgraph cluster_{cluster} {{")
        lines.append(f'    label="{cluster}";')
        for l in range(b.depth + 1):
            row = " ".join(
                f'"{tag}_{l}_{i}"' for i in range(b.level_sizes[l])
            )
            lines.append(f"    {{ rank=same; {row} }}")
        for l in range(b.depth + 1):
            for i in range(b.level_sizes[l]):
                lines.append(
                    f'    "{tag}_{l}_{i}" [label="v{i + 1}^{l}"];'
                )
        # a minus edge runs up from level l+1 to level l, a plus edge down
        for l in range(b.depth):
            for (s, t, a) in sorted(blocks[l]):
                lines.append(
                    f'    "{tag}_{l + up}_{s}" -> "{tag}_{l + 1 - up}_{t}" '
                    f'[label="{word_str(tuple(a))}"];'
                )
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
