"""Graph container, Laplacian-style operators, dataset I/O, splits, and synthetic graphs."""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .errors import DatasetFormatError, SpecSearchError, StratificationInfeasible


class Variant(Enum):
    """Which graph operator to materialize."""

    ADJ_SYM_NORM = "adjacency-sym-norm"
    ADJ_RW_NORM = "adjacency-rw-norm"
    COMBINATORIAL = "combinatorial"
    SYM_LAPLACIAN = "sym-laplacian"
    SCALED_LAPLACIAN = "scaled-laplacian"
    PRUNED_NORM = "pruned-norm"


@dataclass(frozen=True)
class LaplacianVariant:
    kind: Variant
    self_loop_weight: float = 0.0

    def __post_init__(self):
        if not isinstance(self.kind, Variant):
            raise ValueError(f"invalid variant kind: {self.kind!r}")
        c = self.self_loop_weight
        if not math.isfinite(c) or c < 0:
            raise ValueError(f"self_loop_weight must be finite and >= 0, got {c}")


def _canonical_edges(pairs, n):
    """Unique pairs of an (m, 2) array with endpoints in [0, n), as rows u < v in
    lexicographic order, and how often each occurs (mirrored pairs count as one)."""
    lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
    # hi < n, so the order of lo * n + hi is the lexicographic order of (lo, hi)
    keys, counts = np.unique(lo * n + hi, return_counts=True)
    return np.stack(np.divmod(keys, n), axis=1), counts


class Graph:
    """Immutable undirected graph with dense node features and integer labels.

    `edges` is a read-only (m, 2) int64 array with one row (u, v), u < v, per
    unordered pair, rows in lexicographic order. The constructor takes any
    sequence of pairs and rejects out-of-range endpoints, self-loops and
    duplicates (mirrors included); `load_dataset` drops self-loops and mirrored
    duplicates from a file. Self-loops only appear inside operators.
    """

    def __init__(self, num_nodes, num_classes, edges, features, labels, name="graph",
                 splits=None):
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if features.ndim != 2 or features.shape[0] != num_nodes:
            raise ValueError(f"features must be {num_nodes}xF, got shape {features.shape}")
        if not np.all(np.isfinite(features)):
            raise ValueError("features contain non-finite values")
        if labels.shape != (num_nodes,):
            raise ValueError(f"labels must have length {num_nodes}")
        if num_nodes and (labels.min() < 0 or labels.max() >= num_classes):
            raise ValueError("label out of range")
        edges = np.asarray(edges, dtype=np.int64).reshape(len(edges), 2)
        bad = ((edges < 0) | (edges >= num_nodes)).any(axis=1)
        if bad.any():
            raise ValueError(f"edge endpoint out of range: {edges[bad][0].tolist()}")
        bad = edges[:, 0] == edges[:, 1]
        if bad.any():
            raise ValueError(f"self-loop not allowed in storage: {edges[bad][0].tolist()}")
        canon, counts = _canonical_edges(edges, num_nodes)
        if len(canon) < len(edges):
            raise ValueError(f"duplicate undirected edge: {canon[counts > 1][0].tolist()}")
        canon.setflags(write=False)
        self.num_nodes = int(num_nodes)
        self.num_classes = int(num_classes)
        self.num_features = int(features.shape[1])
        self.edges = canon
        self.features = features
        self.features.setflags(write=False)
        self.labels = labels
        self.labels.setflags(write=False)
        self.name = name
        self.splits = splits

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.num_nodes == other.num_nodes
                and self.num_classes == other.num_classes
                and np.array_equal(self.edges, other.edges)
                and np.array_equal(self.features, other.features)
                and np.array_equal(self.labels, other.labels)
                and self.name == other.name)

    def __repr__(self):
        return (f"Graph({self.name!r}, n={self.num_nodes}, f={self.num_features}, "
                f"c={self.num_classes}, |E|={len(self.edges)})")


class SparseOp:
    """An n x m operator held as one scipy CSR matrix, `csr`, in canonical form:
    column indices sorted within each row, no duplicate coordinates, no stored
    zeros, finite weights.

    The constructor takes any scipy sparse matrix (duplicates are summed, zeros
    dropped) and casts its weights once to `dtype`; `from_coords` takes
    coordinates given from outside. `coords` are the (row, col) int64 arrays of
    the stored entries in CSR order, built on first use.
    """

    def __init__(self, matrix, dtype=np.float64):
        csr = matrix.tocsr(copy=True)
        csr.sum_duplicates()
        csr.eliminate_zeros()
        csr = csr.astype(dtype, copy=False)
        if not np.all(np.isfinite(csr.data)):
            raise ValueError("non-finite weight in sparse operator")
        self.csr = csr
        self.rows, self.cols = csr.shape

    @classmethod
    def from_coords(cls, rows, cols, row, col, val):
        """Rejects an out-of-range index, a duplicate coordinate or a non-finite weight."""
        row = np.asarray(row, dtype=np.int64)
        col = np.asarray(col, dtype=np.int64)
        val = np.asarray(val, dtype=np.float64)
        if not (row.shape == col.shape == val.shape):
            raise ValueError("row/col/val length mismatch")
        if row.size and (row.min() < 0 or row.max() >= rows
                         or col.min() < 0 or col.max() >= cols):
            raise ValueError("sparse index out of bounds")
        m = sp.coo_matrix((val, (row, col)), shape=(rows, cols))
        m.sum_duplicates()
        if m.nnz < row.size:
            raise ValueError("duplicate coordinate in sparse operator")
        return cls(m)

    @functools.cached_property
    def coords(self):
        row = np.repeat(np.arange(self.rows, dtype=np.int64), np.diff(self.csr.indptr))
        return row, self.csr.indices.astype(np.int64)

    def to_dense(self):
        return self.csr.toarray()


def _coo_with_loops(graph, c):
    """Coordinates and weights of A + cI, and its row sums (degrees + c).

    Both directions of every edge come first, then the diagonal when c > 0;
    prune_mean_std's mean, std and sum round in this order.
    """
    n = graph.num_nodes
    u, v = graph.edges.T
    row, col = np.concatenate([u, v]), np.concatenate([v, u])
    val = np.ones(row.size)
    if c > 0:
        diag = np.arange(n)
        row, col = np.concatenate([row, diag]), np.concatenate([col, diag])
        val = np.concatenate([val, np.full(n, float(c))])
    # bincount of an empty array is integer-typed
    return row, col, val, np.bincount(row, weights=val, minlength=n).astype(np.float64)


def _inverse(d):
    """1 / d where d > 0, else 0."""
    return np.where(d > 0, 1.0 / np.where(d > 0, d, 1.0), 0.0)


def build_operator(graph, variant, dtype=np.float64):
    """Materialize the n x n operator named by `variant` for `graph`.

    Weights are computed in float64 and cast once to `dtype`.
    """
    n = graph.num_nodes
    c = variant.self_loop_weight
    kind = variant.kind
    if kind is Variant.PRUNED_NORM:
        return prune_mean_std(graph, c, dtype)
    if kind is Variant.COMBINATORIAL:
        # D - A: the self-loop weight cancels
        row, col, val, deg = _coo_with_loops(graph, 0.0)
        return SparseOp(sp.diags(deg) - sp.csr_matrix((val, (row, col)), (n, n)), dtype)
    row, col, val, deg = _coo_with_loops(graph, c)
    if kind is Variant.ADJ_RW_NORM:
        return SparseOp(sp.coo_matrix((val * _inverse(deg)[row], (row, col)), (n, n)), dtype)
    inv_sqrt = _inverse(np.sqrt(deg))
    norm = val * inv_sqrt[row] * inv_sqrt[col]
    if kind is Variant.ADJ_SYM_NORM:
        return SparseOp(sp.coo_matrix((norm, (row, col)), (n, n)), dtype)
    eye = sp.identity(n, format="csr")
    lap = eye - sp.csr_matrix((norm, (row, col)), (n, n))
    if kind is Variant.SYM_LAPLACIAN:
        return SparseOp(lap, dtype)
    if kind is Variant.SCALED_LAPLACIAN:
        # 2L/λmax − I with λmax = 2, the bound on the spectrum of L (Kipf & Welling)
        return SparseOp(lap - eye, dtype)
    raise ValueError(f"unhandled variant {kind}")


_PRUNE_EPSILON = 1e-10


def prune_mean_std(graph, self_loop_weight, dtype=np.float64):
    """Threshold A + cI at (mean - std) over its nonzero entries, then normalize globally.

    Entries below the threshold are dropped; survivors are divided by
    (sum of all nonzero entries of A + cI) + 1e-10.
    """
    n = graph.num_nodes
    row, col, val, _ = _coo_with_loops(graph, float(self_loop_weight))
    if not val.size:
        return SparseOp(sp.csr_matrix((n, n)), dtype)
    keep = val >= val.mean() - val.std()
    kept = val[keep] / (val.sum() + _PRUNE_EPSILON)
    return SparseOp(sp.coo_matrix((kept, (row[keep], col[keep])), (n, n)), dtype)


@dataclass(frozen=True)
class Split:
    train: tuple
    val: tuple
    test: tuple

    def __post_init__(self):
        object.__setattr__(self, "train", tuple(self.train))
        object.__setattr__(self, "val", tuple(self.val))
        object.__setattr__(self, "test", tuple(self.test))
        tr, va, te = set(self.train), set(self.val), set(self.test)
        if tr & va or tr & te or va & te:
            raise ValueError("split index sets overlap")
        if not tr or not va:
            raise ValueError("train and val must be non-empty")

    @classmethod
    def unchecked(cls, train, val, test):
        """Bypass the non-emptiness check (make_split may legitimately emit empty val/test)."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "train", tuple(train))
        object.__setattr__(obj, "val", tuple(val))
        object.__setattr__(obj, "test", tuple(test))
        tr, va, te = set(train), set(val), set(test)
        if tr & va or tr & te or va & te:
            raise ValueError("split index sets overlap")
        return obj


def make_split(n, ratios, labels=None, seed=0, stratified=False):
    """Deterministic train/val/test index split.

    Per-group counts are floor(fraction * group_size); when the test fraction is
    positive, every leftover node lands in test.
    """
    f_tr, f_va, f_te = ratios
    for f in (f_tr, f_va, f_te):
        if f < 0:
            raise ValueError("fractions must be non-negative")
    if f_tr + f_va + f_te > 1 + 1e-12:
        raise ValueError("fractions must sum to at most 1")
    rng = np.random.default_rng(seed)
    train, val, test = [], [], []
    if stratified:
        if labels is None:
            raise ValueError("stratified split requires labels")
        labels = np.asarray(labels)
        for cls in np.unique(labels):
            idx = np.flatnonzero(labels == cls)
            rng.shuffle(idx)
            n_tr = int(math.floor(f_tr * idx.size))
            n_va = int(math.floor(f_va * idx.size))
            if n_tr == 0:
                raise StratificationInfeasible(
                    f"class {cls} has {idx.size} nodes; train fraction {f_tr} yields 0 samples")
            train.extend(idx[:n_tr])
            val.extend(idx[n_tr:n_tr + n_va])
            if f_te > 0:
                test.extend(idx[n_tr + n_va:])
            else:
                test.extend(idx[n_tr + n_va:n_tr + n_va + int(math.floor(f_te * idx.size))])
    else:
        idx = rng.permutation(n)
        n_tr = int(math.floor(f_tr * n))
        n_va = int(math.floor(f_va * n))
        train = idx[:n_tr]
        val = idx[n_tr:n_tr + n_va]
        if f_te > 0:
            test = idx[n_tr + n_va:]
        else:
            test = idx[n_tr + n_va:n_tr + n_va]
    return Split.unchecked(sorted(int(i) for i in train),
                           sorted(int(i) for i in val),
                           sorted(int(i) for i in test))


def gen_synthetic(n, classes, homophily, avg_degree, feature_dim, signal, seed):
    """Contextual-block-model-style graph.

    Each sampled edge is intra-class with probability `homophily`; class-conditional
    feature means are Gaussian draws scaled by `signal`, with unit noise on top.
    """
    if n < classes:
        raise ValueError("need n >= classes")
    if avg_degree <= 0:
        raise ValueError("avg_degree must be > 0")
    if not 0.0 <= homophily <= 1.0:
        raise ValueError("homophily must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % classes
    rng.shuffle(labels)
    by_class = [np.flatnonzero(labels == c) for c in range(classes)]
    target = int(round(n * avg_degree / 2))
    edges = set()
    attempts = 0
    while len(edges) < target and attempts < 50 * target:
        attempts += 1
        u = int(rng.integers(n))
        if rng.random() < homophily:
            pool = by_class[labels[u]]
            if pool.size < 2:
                continue
        else:
            if classes < 2:
                continue
            other = int(rng.integers(classes - 1))
            if other >= labels[u]:
                other += 1
            pool = by_class[other]
            if pool.size == 0:
                continue
        v = int(pool[rng.integers(pool.size)])
        if v == u:
            continue
        edges.add((u, v) if u < v else (v, u))
    means = signal * rng.standard_normal((classes, feature_dim))
    features = means[labels] + rng.standard_normal((n, feature_dim))
    return Graph(n, classes, sorted(edges), features, labels,
                 name=f"synthetic-h{homophily:g}-s{seed}")


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray


def eig_operator(op):
    """Dense eigendecomposition oracle for small symmetric operators (n <= 512)."""
    if op.rows != op.cols:
        raise ValueError("operator must be square")
    if op.rows > 512:
        raise ValueError("eig_operator is a desk-scale oracle: n <= 512")
    dense = op.to_dense()
    if np.max(np.abs(dense - dense.T), initial=0.0) > 1e-9:
        raise SpecSearchError("operator is not symmetric within 1e-9")
    eigs = np.linalg.eigvalsh(dense)
    return SpectrumReport(eigenvalues=np.sort(eigs))


# -- dataset JSON I/O ----------------------------------------------------------


def _is_finite_number(x):
    # an int or float (not a bool) that float64 holds as a finite value
    return type(x) in (int, float) and -sys.float_info.max <= x <= sys.float_info.max


def _reject_special(token):
    raise DatasetFormatError(f"non-finite number token {token!r} in dataset file")


def save_dataset(graph, path):
    doc = {
        "name": graph.name,
        "num_nodes": graph.num_nodes,
        "num_classes": graph.num_classes,
        "feature_dim": graph.num_features,
        "edges": graph.edges.tolist(),
        "features": graph.features.tolist(),
        "labels": graph.labels.tolist(),
    }
    if graph.splits is not None:
        doc["splits"] = {
            "train": list(graph.splits.train),
            "val": list(graph.splits.val),
            "test": list(graph.splits.test),
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_dataset(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_constant=_reject_special)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DatasetFormatError("top level: expected an object")
    for key, kind in (("name", str), ("num_nodes", int), ("num_classes", int),
                      ("feature_dim", int), ("edges", list), ("features", list), ("labels", list)):
        if key not in doc:
            raise DatasetFormatError(f"{key}: missing required field")
        x = doc[key]
        if not isinstance(x, kind) or isinstance(x, bool) or (kind is int and x < 0):
            what = "non-negative int" if kind is int else kind.__name__
            raise DatasetFormatError(f"{key}: expected a {what}")
    n, nc, fd = doc["num_nodes"], doc["num_classes"], doc["feature_dim"]

    try:
        # np.array([]) would be a 1-d float array
        edges = np.array(doc["edges"] or np.zeros((0, 2), dtype=np.int64))
    except ValueError:  # ragged nesting
        edges = None
    if edges is None or edges.dtype.kind not in "iu" or edges.shape[1:] != (2,):
        raise DatasetFormatError("edges: expected a list of [u, v] integer pairs")
    bad = np.flatnonzero(((edges < 0) | (edges >= n)).any(axis=1))
    if bad.size:
        raise DatasetFormatError(f"edges[{bad[0]}]: endpoint out of range for {n} nodes")
    # self-loops dropped on load; operators re-add them explicitly
    edges, _ = _canonical_edges(edges[edges[:, 0] != edges[:, 1]], n)

    feats = doc["features"]
    if len(feats) != n:
        raise DatasetFormatError(f"features: expected {n} rows, got {len(feats)}")
    for i, rowvals in enumerate(feats):
        if not isinstance(rowvals, list) or len(rowvals) != fd:
            raise DatasetFormatError(f"features[{i}]: expected {fd} values")
    # Whole-array checks first; the value-by-value scan only runs to name the
    # first bad value. Exact types, because np.array turns a bool into 0.0/1.0.
    features = None
    if set(map(type, itertools.chain.from_iterable(feats))) <= {int, float}:
        try:
            features = np.array(feats, dtype=np.float64).reshape(n, fd)
        except OverflowError:  # an integer beyond float64
            pass
    if features is None or not np.isfinite(features).all():
        i, j = next((i, j) for i, rowvals in enumerate(feats)
                    for j, x in enumerate(rowvals) if not _is_finite_number(x))
        raise DatasetFormatError(f"features[{i}][{j}]: expected a finite number")

    labels = doc["labels"]
    if len(labels) != n:
        raise DatasetFormatError(f"labels: expected {n} values, got {len(labels)}")
    if (not set(map(type, labels)) <= {int}
            or labels and not 0 <= min(labels) <= max(labels) < nc):
        i = next(i for i, y in enumerate(labels) if type(y) is not int or not 0 <= y < nc)
        raise DatasetFormatError(f"labels[{i}]: expected integer in [0, {nc})")

    splits = None
    if doc.get("splits") is not None:
        sdoc = doc["splits"]
        if not isinstance(sdoc, dict):
            raise DatasetFormatError("splits: expected an object")
        for part in ("train", "val", "test"):
            if not isinstance(sdoc.get(part), list):
                raise DatasetFormatError(f"splits.{part}: expected a list")
            for i, idx in enumerate(sdoc[part]):
                if type(idx) is not int or not 0 <= idx < n:
                    raise DatasetFormatError(f"splits.{part}[{i}]: index out of range")
        try:
            splits = Split.unchecked(sdoc["train"], sdoc["val"], sdoc["test"])
        except ValueError as exc:
            raise DatasetFormatError(f"splits: {exc}") from exc

    try:
        return Graph(n, nc, edges, features, labels, name=doc["name"], splits=splits)
    except ValueError as exc:
        raise DatasetFormatError(str(exc)) from exc
