"""Seeded input generator for the benchmark workloads.

Every input is a function of (workload, seed, operation index) alone, so
each operation of a run reads a graph no other operation reads, and every
run with the same seed sees the same graphs. The program under test only
ever receives the files written here.

Run on its own to inspect an input:

    python3 bench/gen.py --workload dense-400 --seed 1 --index 0 --out g.edges
"""

from __future__ import annotations

import argparse
import zlib
from pathlib import Path

import numpy as np

# (nodes, edges, weighted) per workload. sym-curve-62 is the criterion-9
# surrogate recipe: 62 nodes, 140 unit edges, a spanning path through a
# random node order plus random chords. The others are connected graphs
# with integer weights 1..9: a random spanning tree plus random chords.
RECIPES = {
    "sym-curve-62": (62, 140, False),
    "general-factor-62": (62, 140, True),
    "dense-400": (400, 1600, True),
    "baselines-120": (120, 360, True),
}


def _rng(workload: str, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(workload.encode()), seed, index])


def graph_edges(workload: str, seed: int, index: int) -> list[tuple[int, int, int]]:
    """Edge list (u, v, weight) with u < v, sorted, for one operation."""
    n, target, weighted = RECIPES[workload]
    rng = _rng(workload, seed, index)
    order = rng.permutation(n)
    if weighted:
        # random recursive tree: node order[k] hangs off an earlier node
        spine = [(order[k], order[int(rng.integers(k))]) for k in range(1, n)]
    else:
        spine = list(zip(order[:-1], order[1:]))
    edges = {(int(min(u, v)), int(max(u, v))) for u, v in spine}
    while len(edges) < target:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.add((int(min(u, v)), int(max(u, v))))
    ordered = sorted(edges)
    if weighted:
        weights = rng.integers(1, 10, size=len(ordered))
    else:
        weights = np.ones(len(ordered), dtype=int)
    return [(u, v, int(w)) for (u, v), w in zip(ordered, weights)]


def write_graph(path: Path, workload: str, seed: int, index: int) -> Path:
    text = "".join(f"{u} {v} {w}\n" for u, v, w in graph_edges(workload, seed, index))
    path.write_text(text)
    return path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(RECIPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    write_graph(Path(args.out), args.workload, args.seed, args.index)


if __name__ == "__main__":
    main()
