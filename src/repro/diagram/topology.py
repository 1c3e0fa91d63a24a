"""Region topology: the adjacency structure of a skyline diagram.

A Voronoi diagram is more than a lookup table — its dual (the Delaunay
triangulation) drives navigation and incremental algorithms.  The skyline
diagram has the same dual view: polyominos that share a boundary edge form
the *region adjacency graph*, where every edge is one "result change"
event.  This module builds that graph (networkx, imported on first use
so that ``import repro`` does not load it) and uses it for

* counting how different two query locations' results can be (shortest
  crossing path),
* enumerating the neighbours of a region (all results reachable with an
  arbitrarily small query perturbation).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.diagram.base import DynamicDiagram, SkylineDiagram
from repro.diagram.merge import cell_labels
from repro.errors import QueryError

if TYPE_CHECKING:
    import networkx as nx


def region_adjacency(
    diagram: SkylineDiagram | DynamicDiagram,
) -> "nx.Graph":
    """Build the region adjacency graph of a 2-D diagram.

    Nodes are polyomino ids carrying their ``result``; edges connect
    side-adjacent polyominos and carry ``boundary`` — the number of shared
    cell edges (a proxy for how likely a random query motion crosses the
    pair's border).

    >>> from repro.diagram import quadrant_scanning
    >>> graph = region_adjacency(quadrant_scanning([(1, 1)]))
    >>> graph.number_of_nodes(), graph.number_of_edges()
    (2, 1)
    """
    import networkx as nx

    shape = diagram.grid.shape
    if len(shape) != 2:
        raise QueryError("region adjacency is defined for 2-D diagrams")
    polyominos = diagram.polyominos()
    labels = cell_labels(polyominos)
    graph = nx.Graph()
    for poly in polyominos:
        graph.add_node(poly.ident, result=poly.result, size=poly.size)
    sx, sy = shape
    for i in range(sx):
        for j in range(sy):
            here = labels[(i, j)]
            for neighbour in ((i + 1, j), (i, j + 1)):
                other = labels.get(neighbour)
                if other is None or other == here:
                    continue
                if graph.has_edge(here, other):
                    graph[here][other]["boundary"] += 1
                else:
                    graph.add_edge(here, other, boundary=1)
    return graph


def region_of(
    diagram: SkylineDiagram | DynamicDiagram, query: Sequence[float]
) -> int:
    """Polyomino id containing a query point."""
    labels = cell_labels(diagram.polyominos())
    return labels[diagram.grid.locate(query)]


def crossing_distance(
    diagram: SkylineDiagram | DynamicDiagram,
    start: Sequence[float],
    end: Sequence[float],
    graph: "nx.Graph | None" = None,
) -> int:
    """Minimum number of result changes between two query locations.

    This is the shortest path in the region adjacency graph — a lower
    bound on (and usually smaller than) the number of changes along the
    straight segment, since a clever route can dodge slivers.

    >>> from repro.diagram import quadrant_scanning
    >>> diagram = quadrant_scanning([(2, 8), (5, 4), (9, 1)])
    >>> crossing_distance(diagram, (0, 0), (100, 100))
    3
    """
    import networkx as nx

    if graph is None:
        graph = region_adjacency(diagram)
    source = region_of(diagram, start)
    target = region_of(diagram, end)
    return nx.shortest_path_length(graph, source, target)


def neighbouring_results(
    diagram: SkylineDiagram | DynamicDiagram,
    query: Sequence[float],
    graph: "nx.Graph | None" = None,
) -> list[tuple[int, ...]]:
    """Results adjacent to the query's region (one boundary crossing away).

    Useful for sensitivity analysis: every answer a small perturbation of
    the query could produce.
    """
    if graph is None:
        graph = region_adjacency(diagram)
    region = region_of(diagram, query)
    return sorted(
        graph.nodes[other]["result"] for other in graph.neighbors(region)
    )
