"""Macdonald polynomials at t=0 for types A and C: alcove walks on the
quantum Bruhat graph on one side, charge statistics on tensor products of
columns on the other, with exhaustive small-rank cross-checks."""

from .weyl import LieType, ValidationError
from .chains import MuChain, mu_chain
from .qbg import EdgeKind, edge_by_criterion, edge_by_length, qbg_edges
from .foldings import enumerate_admissible, fold_chain, level_of, weight_of
from .fillings import (Filling, arm_statistic, content, descents, filling_map,
                       inverse_filling_map, ord_filling)
from .charge import charge, ls_charge
from .kn import is_kn_column, split_column
from .poly import charge_formula_t0, ram_yip_t0, weyl_character
from .verify import run_scope

__all__ = [
    "LieType",
    "ValidationError",
    "MuChain",
    "mu_chain",
    "EdgeKind",
    "edge_by_criterion",
    "edge_by_length",
    "qbg_edges",
    "enumerate_admissible",
    "fold_chain",
    "level_of",
    "weight_of",
    "Filling",
    "content",
    "descents",
    "arm_statistic",
    "filling_map",
    "inverse_filling_map",
    "ord_filling",
    "charge",
    "ls_charge",
    "is_kn_column",
    "split_column",
    "charge_formula_t0",
    "ram_yip_t0",
    "weyl_character",
    "run_scope",
]

__version__ = "0.1.0"
