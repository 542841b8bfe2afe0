"""Output checks that trust neither ``repro.verify`` nor the oracles.

Each check raises :class:`CheckFailed` with a reason; the benchmark
counts a raised check as a failed operation.  Edges are given as a
mapping ``edge id -> (u, v)``; colorings as ``edge id -> color`` (for
orientations, ``edge id -> tail vertex``).
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict


class CheckFailed(Exception):
    """An output violated a property the benchmark checks."""


class UnionFind:
    """Union-find over arbitrary hashable vertices (path halving)."""

    def __init__(self) -> None:
        self.parent = {}

    def find(self, x):
        parent = self.parent
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b) -> bool:
        """Join the sets of ``a`` and ``b``; False if already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def covers_every_edge_once(pairs, coloring) -> None:
    """Every edge has exactly one color (or tail), and nothing else has."""
    require(len(coloring) == len(pairs) and set(coloring) == set(pairs),
            f"{len(coloring)} colored edges for {len(pairs)} graph edges")
    require(all(c is not None for c in coloring.values()),
             "an edge has no color")


def _classes(pairs, coloring):
    by_color = defaultdict(list)
    for eid, color in coloring.items():
        by_color[color].append(pairs[eid])
    return by_color


def forests(pairs, coloring) -> int:
    """Every color class is acyclic; returns the number of classes."""
    covers_every_edge_once(pairs, coloring)
    classes = _classes(pairs, coloring)
    for color, edges in classes.items():
        uf = UnionFind()
        for u, v in edges:
            require(uf.union(u, v), f"class {color!r} has a cycle")
    return len(classes)


def star_forests(pairs, coloring) -> int:
    """Every class is acyclic and every edge in it has an endpoint of
    class-degree 1 (so each component is a star)."""
    count = forests(pairs, coloring)
    for color, edges in _classes(pairs, coloring).items():
        degree = Counter(x for e in edges for x in e)
        for u, v in edges:
            require(degree[u] == 1 or degree[v] == 1,
                     f"class {color!r}: edge ({u},{v}) joins two non-leaves")
    return count


def pseudoforests(pairs, coloring) -> int:
    """Every component of every class has at most one cycle."""
    covers_every_edge_once(pairs, coloring)
    classes = _classes(pairs, coloring)
    for color, edges in classes.items():
        uf = UnionFind()
        for u, v in edges:
            uf.union(u, v)
        edges_in = Counter(uf.find(u) for u, _v in edges)
        vertices_in = Counter(uf.find(x) for x in uf.parent)
        for root, m in edges_in.items():
            require(m <= vertices_in[root],
                     f"class {color!r}: a component has two cycles")
    return len(classes)


def orientation(pairs, tails, bound: int) -> int:
    """Every edge leaves one of its endpoints and no vertex has more than
    ``bound`` out-edges; returns the largest out-degree."""
    covers_every_edge_once(pairs, tails)
    for eid, tail in tails.items():
        require(tail in pairs[eid], f"edge {eid} leaves a non-endpoint")
    out = Counter(tails.values())
    worst = max(out.values(), default=0)
    require(worst <= bound, f"out-degree {worst} exceeds bound {bound}")
    return worst


def arboricity_certified(n: int, m: int, constructed: int, resolved) -> None:
    """The density lower bound ⌈m/(n-1)⌉ meets the construction's upper
    bound, and the program resolved that same value."""
    require(math.ceil(m / (n - 1)) == constructed,
            f"density bound {math.ceil(m / (n - 1))} != construction "
            f"{constructed}")
    require(resolved == constructed,
            f"program resolved alpha={resolved}, construction "
            f"certifies {constructed}")


def pseudoarboricity_certified(n: int, m: int, constructed: int,
                               resolved) -> None:
    """As :func:`arboricity_certified`, with the bound ⌈m/n⌉ on α*."""
    require(math.ceil(m / n) == constructed,
            f"density bound {math.ceil(m / n)} != construction "
            f"{constructed}")
    require(resolved == constructed,
            f"program resolved alpha*={resolved}, construction "
            f"certifies {constructed}")
