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
    check_root,
    circ_between,
    length,
    letter_key,
    positive_roots,
    rho_pairing,
    root_str,
    value_at,
    window_str,
)


class EdgeKind(Enum):
    UP = "up"
    QUANTUM = "quantum"


def edge_by_length(lt: LieType, w: Window, r: Root) -> EdgeKind | None:
    """Edge test straight from the definition (two length conditions)."""
    check_root(lt, r)
    diff = length(lt, apply_root(lt, w, r)) - length(lt, w)
    if diff == 1:
        return EdgeKind.UP
    if diff == 1 - 2 * rho_pairing(lt, r):
        return EdgeKind.QUANTUM
    return None


def edge_by_criterion(lt: LieType, w: Window, r: Root) -> EdgeKind | None:
    """Edge test via the circular-order / sign criteria; no length computation.

    For roots e_i - e_j and 2e_i the edge exists iff no intermediate
    position holds a value circularly between w(i) and w(j) (resp. w(i-bar));
    the edge is quantum exactly when the value at i exceeds the target value.
    Roots e_i + e_j only ever carry up edges.
    """
    i, j = check_root(lt, r)
    key = lambda x: letter_key(lt, x)
    if j > 0:
        wi, wj = w[i - 1], w[j - 1]
        for k in range(i + 1, j):
            if circ_between(lt, wi, w[k - 1], wj):
                return None
        return EdgeKind.UP if key(wi) < key(wj) else EdgeKind.QUANTUM
    if j == -i:
        wi, wbar = w[i - 1], -w[i - 1]
        for k in range(i + 1, lt.n + 1):
            if circ_between(lt, wi, w[k - 1], wbar):
                return None
        return EdgeKind.UP if wi > 0 else EdgeKind.QUANTUM
    # r = (i, j-bar): only up edges exist for this root kind
    wi, wjb = w[i - 1], value_at(w, j)
    if key(wi) >= key(wjb) or (wi > 0) != (wjb > 0):
        return None
    # positions strictly between i and j-bar: i+1..n, then n-bar..(j+1)-bar
    between = list(range(i + 1, lt.n + 1)) + [-m for m in range(lt.n, abs(j), -1)]
    for k in between:
        wk = value_at(w, k)
        if key(wi) < key(wk) < key(wjb):
            return None
    return EdgeKind.UP


def qbg_edges(lt: LieType, w: Window) -> list[tuple[Root, EdgeKind]]:
    """All outgoing edges from w, each tagged up/quantum."""
    out = []
    for r in positive_roots(lt):
        kind = edge_by_criterion(lt, w, r)
        if kind is not None:
            out.append((r, kind))
    return out


def graph_json(lt: LieType) -> dict:
    """Materialize the full graph as a JSON-ready dict."""
    edges = []
    for w in all_elements(lt):
        for r, kind in qbg_edges(lt, w):
            edges.append(
                {
                    "source": window_str(w),
                    "target": window_str(apply_root(lt, w, r)),
                    "root": root_str(r),
                    "kind": kind.value,
                }
            )
    return {
        "schema": "charge-lab/qbg-graph/1",
        "type": lt.variant,
        "n": lt.n,
        "nodes": [window_str(w) for w in all_elements(lt)],
        "edges": edges,
    }


def graph_dot(lt: LieType) -> str:
    """DOT export; edge labels read 'root; up|quantum'."""
    lines = ["digraph qbg {"]
    for w in all_elements(lt):
        lines.append(f'  "{window_str(w)}";')
    for w in all_elements(lt):
        for r, kind in qbg_edges(lt, w):
            tgt = window_str(apply_root(lt, w, r))
            style = ' style=dashed' if kind is EdgeKind.QUANTUM else ""
            lines.append(
                f'  "{window_str(w)}" -> "{tgt}" [label="{root_str(r)}; {kind.value}"{style}];'
            )
    lines.append("}")
    return "\n".join(lines)


def graph_json_str(lt: LieType) -> str:
    return json.dumps(graph_json(lt), indent=2)
