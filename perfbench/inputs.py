"""Seeded input graphs whose α or α* is known from their construction.

Every generator returns ``(n, edges, cert)``: ``edges`` is the edge list
in file order (so edge id ``i`` is ``edges[i]`` once ingested), and
``cert`` is the value the construction certifies.

* A union of ``k`` spanning trees has ``m = k(n-1)`` edges, so the
  Nash-Williams density bound gives ``α >= ⌈m/(n-1)⌉ = k``, and the
  trees themselves give ``α <= k``.
* In the preferential-attachment graph every vertex points to at most
  ``d`` earlier vertices, so ``α* <= d``; it has ``m = dn - d(d+1)/2``
  edges, so ``α* >= ⌈m/n⌉ = d`` whenever ``d(d+1)/2 < n``.

The generators use only :mod:`random` with the given seed, never the
program under test, so the inputs stay the same across program changes.
"""

from __future__ import annotations

import random
from typing import List, Tuple

Edges = List[Tuple[int, int]]


def forest_union(n: int, k: int, seed, simple: bool = False):
    """``k`` random spanning trees on ``n`` vertices (α = k).

    Tree ``i`` attaches each vertex of a random order to a uniformly
    chosen earlier vertex.  With ``simple=True`` an attachment that
    would repeat an existing pair is redrawn, and a tree in which some
    vertex finds no free earlier partner is drawn again from a new
    order, so every tree stays spanning and the graph stays simple.
    """
    rng = random.Random(seed)
    edges: Edges = []
    present = set()
    while len(edges) < k * (n - 1):
        tree = _spanning_tree(n, rng, present if simple else None)
        if tree is not None:
            edges.extend(tree)
            if simple:
                present.update((min(e), max(e)) for e in tree)
    return n, edges, k


def _spanning_tree(n: int, rng, taken):
    """A random spanning tree avoiding the pairs in ``taken`` (None:
    avoid nothing), or None when a vertex's draws all hit taken pairs."""
    order = list(range(n))
    rng.shuffle(order)
    tree: Edges = []
    for i in range(1, n):
        u = order[i]
        for _draw in range(32):
            v = order[rng.randrange(i)]
            if taken is None or (min(u, v), max(u, v)) not in taken:
                break
        else:
            return None
        tree.append((u, v))
    return tree


def preferential_attachment(n: int, d: int, seed):
    """Degree-proportional attachment on a ``K_{d+1}`` core (α* = d).

    Skewed degrees: hubs collect edges in proportion to their degree.
    """
    rng = random.Random(seed)
    edges: Edges = [(v, u) for v in range(d + 1) for u in range(v)]
    urn: List[int] = [x for e in edges for x in e]
    for v in range(d + 1, n):
        chosen = set()
        while len(chosen) < d:
            chosen.add(urn[rng.randrange(len(urn))])
        for u in sorted(chosen):
            edges.append((v, u))
            urn.extend((v, u))
    return n, edges, d


def write_edge_list(path: str, n: int, edges: Edges) -> None:
    """The library's native edge-list format: ``n <count>`` header,
    then one ``u v`` line per edge (edge ids follow line order)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"n {n}\n")
        handle.write("".join(f"{u} {v}\n" for u, v in edges))
