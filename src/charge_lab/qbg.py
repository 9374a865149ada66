"""Quantum Bruhat graph: edges w -> w*s_alpha, labelled by positive roots.

An "up" edge raises the length by exactly 1 (a Bruhat cover); a "quantum"
edge drops it by exactly 2<rho, alpha-check> - 1.  Two independent edge
tests are provided: the defining length test, and the fast circular-order
criterion, which never computes lengths.
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
    lt, as the graph exports and the qbg suite make."""
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
    """Edge test via the circular-order criterion; no length computation.

    The one-line notation orders positions 1 < ... < n < n-bar < ... < 1-bar,
    position m-bar holding -w(m). The edge exists iff no position strictly
    between i and the root's other end (j, or |j|-bar when j < 0) holds a
    value circularly between the two end values; it is quantum exactly when
    the value at i ranks higher. For e_i + e_j the end values must also
    share a sign. The root is validated; w is trusted to be a window of lt.
    """
    i, j = check_root(lt, r)
    size = lt.n if lt.variant == "A" else 2 * lt.n
    x = w[i - 1]
    if j > 0:
        y, between = w[j - 1], w[i : j - 1]
    else:  # positions i+1..n, then n-bar..(|j|+1)-bar, holding -w(n)..-w(|j|+1)
        y, between = -w[-j - 1], w[i:] + tuple([-b for b in w[: -j - 1 : -1]])
        if j != -i and (x > 0) != (y > 0):  # e_i + e_j: end values of one sign
            return None
    # a value x ranks (x - (x > 0)) % size, as in window_ranks; only the
    # values the test reads are ranked, not the whole window
    a, c = (x - (x > 0)) % size, (y - (y > 0)) % size
    span = (c - a) % size
    for b in between:
        if 0 < (b - (b > 0) - a) % size < span:
            return None
    return EdgeKind.UP if a < c else EdgeKind.QUANTUM


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
    from one walk over the group; refused before it starts when the group
    has too many (element, root) pairs."""
    check_pair_count(lt, f"qbg for {lt.variant}{lt.n}")
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
