"""Quantum Bruhat graph: edges w -> w*s_alpha, labelled by positive roots.

An "up" edge raises the length by exactly 1 (a Bruhat cover); a "quantum"
edge drops it by exactly 2<rho, alpha-check> - 1.  Two independent edge
tests are provided: the defining length test, and the fast circular-order
criteria, which never compute lengths.
"""

import json
from enum import Enum

from .weyl import (
    LieType,
    Root,
    Window,
    all_elements,
    apply_root,
    check_domain_size,
    check_root,
    check_window,
    group_order,
    length,
    positive_roots,
    rho_pairing,
    root_str,
    window_str,
)


class EdgeKind(Enum):
    UP = "up"
    QUANTUM = "quantum"


def check_pair_count(lt: LieType, what: str) -> None:
    """Refuse, before it starts, a sweep over every (element, root) pair of
    lt, as the graph export and the qbg suite make."""
    check_domain_size(f"{what}: the number of (element, root) pairs",
                      group_order(lt) * len(positive_roots(lt)))


def edge_by_length_change(diff: int, rho_r: int) -> EdgeKind | None:
    """The edge w -> w*s_r whose step changes the length by diff, given
    rho_r = <rho, r-check>: up for a rise of exactly 1, quantum for a drop
    of exactly 2 rho_r - 1, and no edge otherwise."""
    if diff == 1:
        return EdgeKind.UP
    if diff == 1 - 2 * rho_r:
        return EdgeKind.QUANTUM
    return None


def edge_by_length(lt: LieType, w: Window, r: Root) -> EdgeKind | None:
    """Edge test straight from the definition (two length conditions)."""
    check_root(lt, r)
    w = check_window(lt, w)
    diff = length(lt, apply_root(lt, w, r)) - length(lt, w)
    return edge_by_length_change(diff, rho_pairing(lt, r))


def edge_by_criterion(lt: LieType, w: Window, r: Root) -> EdgeKind | None:
    """Edge test via the circular-order / sign criteria; no length computation.

    For roots e_i - e_j and 2e_i the edge exists iff no intermediate
    position holds a value circularly between w(i) and w(j) (resp. w(i-bar));
    the edge is quantum exactly when the value at i exceeds the target value.
    Roots e_i + e_j only ever carry up edges. The root is validated; w is
    trusted to be a window of lt.
    """
    i, j = check_root(lt, r)
    n = lt.n
    top = 2 * n - 1  # a barred value ranks top minus the rank of its letter
    size = n if lt.variant == "A" else 2 * n
    # a value x ranks (x - (x > 0)) % size, as in window_ranks; only the
    # values the test reads are ranked, not the whole window
    x = w[i - 1]
    a = (x - (x > 0)) % size
    if j > 0:
        y = w[j - 1]
        c = (y - (y > 0)) % size
        span = (c - a) % size
        for b in w[i : j - 1]:
            if 0 < (b - (b > 0) - a) % size < span:
                return None
        return EdgeKind.UP if a < c else EdgeKind.QUANTUM
    if j == -i:
        span = (top - 2 * a) % size
        for b in w[i:]:
            if 0 < (b - (b > 0) - a) % size < span:
                return None
        return EdgeKind.UP if x > 0 else EdgeKind.QUANTUM
    # r = (i, j-bar): only up edges exist for this root kind
    m = -j
    y = w[m - 1]
    c = top - (y - (y > 0)) % size
    if a >= c or (x > 0) != (y < 0):
        return None
    # positions strictly between i and j-bar: i+1..n, then n-bar..(j+1)-bar
    if (any(a < (b - (b > 0)) % size < c for b in w[i:])
            or any(a < top - (b - (b > 0)) % size < c for b in w[m:])):
        return None
    return EdgeKind.UP


def qbg_edges(lt: LieType, w: Window) -> list[tuple[Root, EdgeKind]]:
    """All outgoing edges from w, each tagged up/quantum."""
    w = check_window(lt, w)
    out = []
    for r in positive_roots(lt):
        kind = edge_by_criterion(lt, w, r)
        if kind is not None:
            out.append((r, kind))
    return out


def _graph_strings(lt: LieType) -> tuple[list[str], list[tuple[str, str, str, EdgeKind]]]:
    """The rendered nodes, and each edge as (source, target, root, kind),
    from one walk over the group."""
    nodes, edges = [], []
    for w in all_elements(lt):
        source = window_str(w)
        nodes.append(source)
        for r, kind in qbg_edges(lt, w):
            edges.append((source, window_str(apply_root(lt, w, r)), root_str(r), kind))
    return nodes, edges


def graph_json(lt: LieType) -> dict:
    """Materialize the full graph as a JSON-ready dict."""
    nodes, edges = _graph_strings(lt)
    return {
        "schema": "charge-lab/qbg-graph/1",
        "type": lt.variant,
        "n": lt.n,
        "nodes": nodes,
        "edges": [{"source": source, "target": target, "root": root, "kind": kind.value}
                  for source, target, root, kind in edges],
    }


def graph_dot(lt: LieType) -> str:
    """DOT export; edge labels read 'root; up|quantum'."""
    nodes, edges = _graph_strings(lt)
    lines = ["digraph qbg {"] + [f'  "{node}";' for node in nodes]
    for source, target, root, kind in edges:
        style = ' style=dashed' if kind is EdgeKind.QUANTUM else ""
        lines.append(f'  "{source}" -> "{target}" [label="{root}; {kind.value}"{style}];')
    lines.append("}")
    return "\n".join(lines)


def graph_json_str(lt: LieType) -> str:
    return json.dumps(graph_json(lt), indent=2)
