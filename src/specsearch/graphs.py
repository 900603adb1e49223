"""Graph container, Laplacian-style operators, dataset I/O, splits, and synthetic graphs."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .errors import DatasetFormatError, NumericalError, SpecSearchError, StratificationInfeasible


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


class Graph:
    """Immutable undirected graph with dense node features and integer labels.

    Edges are stored once per unordered pair, deduplicated, with no self-loops.
    Self-loops only appear inside operators built from the graph.
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
        seen = set()
        canon = []
        for u, v in edges:
            u, v = int(u), int(v)
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise ValueError(f"edge endpoint out of range: ({u}, {v})")
            if u == v:
                raise ValueError(f"self-loop not allowed in storage: ({u}, {v})")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate undirected edge: ({u}, {v})")
            seen.add(key)
            canon.append(key)
        canon.sort()
        self.num_nodes = int(num_nodes)
        self.num_classes = int(num_classes)
        self.num_features = int(features.shape[1])
        self.edges = tuple(canon)
        self.features = features
        self.features.setflags(write=False)
        self.labels = labels
        self.labels.setflags(write=False)
        self.name = name
        self.splits = splits

    def degrees(self):
        ends = np.asarray(self.edges, dtype=np.int64).ravel()
        return np.bincount(ends, minlength=self.num_nodes).astype(np.float64)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.num_nodes == other.num_nodes
                and self.num_classes == other.num_classes
                and self.edges == other.edges
                and np.array_equal(self.features, other.features)
                and np.array_equal(self.labels, other.labels)
                and self.name == other.name)

    def __repr__(self):
        return (f"Graph({self.name!r}, n={self.num_nodes}, f={self.num_features}, "
                f"c={self.num_classes}, |E|={len(self.edges)})")


class SparseOp:
    """An n x m sparse operator in coordinate form, sorted by (row, col), duplicate-free.

    `to_csr` builds one CSR copy on first use and caches it; products with the
    transpose use its `.T` view.
    """

    def __init__(self, rows, cols, row, col, val):
        row = np.asarray(row, dtype=np.int64)
        col = np.asarray(col, dtype=np.int64)
        val = np.asarray(val, dtype=np.float64)
        if not (row.shape == col.shape == val.shape):
            raise ValueError("row/col/val length mismatch")
        if row.size:
            if row.min() < 0 or row.max() >= rows or col.min() < 0 or col.max() >= cols:
                raise ValueError("sparse index out of bounds")
            order = np.lexsort((col, row))
            row, col, val = row[order], col[order], val[order]
            dup = (row[1:] == row[:-1]) & (col[1:] == col[:-1])
            if dup.any():
                raise ValueError("duplicate coordinate in sparse operator")
        if not np.all(np.isfinite(val)):
            raise ValueError("non-finite weight in sparse operator")
        self.rows = int(rows)
        self.cols = int(cols)
        self.row, self.col, self.val = row, col, val
        self._csr = None

    @property
    def nnz(self):
        return self.val.size

    def to_csr(self):
        if self._csr is None:
            self._csr = sp.csr_matrix((self.val, (self.row, self.col)),
                                      shape=(self.rows, self.cols))
        return self._csr

    def to_dense(self):
        return self.to_csr().toarray()

    def matmul(self, dense):
        return self.to_csr() @ dense


def _coo_with_loops(graph, c):
    """Coordinates and weights of A + cI, and its row sums (degrees + c).

    Both directions of every edge come first, then the diagonal when c > 0;
    prune_mean_std's mean, std and sum round in this order.
    """
    n = graph.num_nodes
    u, v = np.asarray(graph.edges, dtype=np.int64).reshape(-1, 2).T
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


def _nonzero_op(m):
    """SparseOp of the nonzero entries of a scipy sparse matrix."""
    m = m.tocoo()
    keep = m.data != 0.0
    return SparseOp(m.shape[0], m.shape[1], m.row[keep], m.col[keep], m.data[keep])


def _power_iteration_lambda_max(csr, iters=300, rtol=1e-12):
    """Largest eigenvalue of a symmetric PSD matrix; 2.0 fallback on non-convergence."""
    if csr.nnz == 0:
        return 2.0
    rng = np.random.default_rng(0)
    v = rng.standard_normal(csr.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    w = csr @ v
    for _ in range(iters):
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 2.0
        v = w / nrm
        w = csr @ v
        lam_new = float(v @ w)
        if not math.isfinite(lam_new):
            raise NumericalError("non-finite eigenvalue estimate in power iteration")
        if lam != 0.0 and abs(lam_new - lam) < rtol * abs(lam):
            return lam_new
        lam = lam_new
    return 2.0


def build_operator(graph, variant):
    """Materialize the n x n operator named by `variant` for `graph`."""
    n = graph.num_nodes
    c = variant.self_loop_weight
    kind = variant.kind
    if kind is Variant.PRUNED_NORM:
        return prune_mean_std(graph, c)
    if kind is Variant.COMBINATORIAL:
        # D - A: the self-loop weight cancels
        row, col, val, deg = _coo_with_loops(graph, 0.0)
        return _nonzero_op(sp.diags(deg) - sp.csr_matrix((val, (row, col)), (n, n)))
    row, col, val, deg = _coo_with_loops(graph, c)
    if kind is Variant.ADJ_RW_NORM:
        return _nonzero_op(sp.coo_matrix((val * _inverse(deg)[row], (row, col)), (n, n)))
    inv_sqrt = _inverse(np.sqrt(deg))
    norm = val * inv_sqrt[row] * inv_sqrt[col]
    if kind is Variant.ADJ_SYM_NORM:
        return _nonzero_op(sp.coo_matrix((norm, (row, col)), (n, n)))
    eye = sp.identity(n, format="csr")
    lap = eye - sp.csr_matrix((norm, (row, col)), (n, n))
    if kind is Variant.SYM_LAPLACIAN:
        return _nonzero_op(lap)
    if kind is Variant.SCALED_LAPLACIAN:
        lam_max = _power_iteration_lambda_max(lap)
        # not `lap / lam_max`: scipy multiplies by the reciprocal, which rounds differently
        lap.data = 2.0 * lap.data / lam_max
        return _nonzero_op(lap - eye)
    raise ValueError(f"unhandled variant {kind}")


def prune_mean_std(graph, self_loop_weight, epsilon=1e-10):
    """Threshold A + cI at (mean - std) over its nonzero entries, then normalize globally.

    Entries below the threshold are dropped; survivors are divided by
    (sum of all nonzero entries of A + cI) + epsilon.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    n = graph.num_nodes
    row, col, val, _ = _coo_with_loops(graph, float(self_loop_weight))
    if not val.size:
        return SparseOp(n, n, [], [], [])
    keep = val >= val.mean() - val.std()
    kept = val[keep] / (val.sum() + epsilon)
    return _nonzero_op(sp.coo_matrix((kept, (row[keep], col[keep])), (n, n)))


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
    operator_kind: LaplacianVariant = None


def eig_operator(op, operator_kind=None):
    """Dense eigendecomposition oracle for small symmetric operators (n <= 512)."""
    if op.rows != op.cols:
        raise ValueError("operator must be square")
    if op.rows > 512:
        raise ValueError("eig_operator is a desk-scale oracle: n <= 512")
    dense = op.to_dense()
    if np.max(np.abs(dense - dense.T), initial=0.0) > 1e-9:
        raise SpecSearchError("operator is not symmetric within 1e-9")
    eigs = np.linalg.eigvalsh(dense)
    return SpectrumReport(eigenvalues=np.sort(eigs), operator_kind=operator_kind)


# -- dataset JSON I/O ----------------------------------------------------------


def _reject_special(token):
    raise DatasetFormatError(f"non-finite number token {token!r} in dataset file")


def save_dataset(graph, path):
    doc = {
        "name": graph.name,
        "num_nodes": graph.num_nodes,
        "num_classes": graph.num_classes,
        "feature_dim": graph.num_features,
        "edges": [[u, v] for u, v in graph.edges],
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
    for key in ("name", "num_nodes", "num_classes", "feature_dim",
                "edges", "features", "labels"):
        if key not in doc:
            raise DatasetFormatError(f"{key}: missing required field")
    n = doc["num_nodes"]
    nc = doc["num_classes"]
    fd = doc["feature_dim"]
    if not isinstance(n, int) or n < 0:
        raise DatasetFormatError("num_nodes: expected non-negative integer")

    edges = set()
    for i, pair in enumerate(doc["edges"]):
        if (not isinstance(pair, list)) or len(pair) != 2:
            raise DatasetFormatError(f"edges[{i}]: expected a pair")
        u, v = pair
        if not (isinstance(u, int) and isinstance(v, int)):
            raise DatasetFormatError(f"edges[{i}]: endpoints must be integers")
        if not (0 <= u < n and 0 <= v < n):
            raise DatasetFormatError(f"edges[{i}]: endpoint out of range for {n} nodes")
        if u == v:
            continue  # self-loops dropped on load; operators re-add them explicitly
        edges.add((u, v) if u < v else (v, u))

    feats = doc["features"]
    if len(feats) != n:
        raise DatasetFormatError(f"features: expected {n} rows, got {len(feats)}")
    for i, rowvals in enumerate(feats):
        if len(rowvals) != fd:
            raise DatasetFormatError(f"features[{i}]: expected {fd} values")
        for j, x in enumerate(rowvals):
            if not isinstance(x, (int, float)) or isinstance(x, bool) or not math.isfinite(x):
                raise DatasetFormatError(f"features[{i}][{j}]: expected a finite number")

    labels = doc["labels"]
    if len(labels) != n:
        raise DatasetFormatError(f"labels: expected {n} values, got {len(labels)}")
    for i, y in enumerate(labels):
        if not isinstance(y, int) or not 0 <= y < nc:
            raise DatasetFormatError(f"labels[{i}]: expected integer in [0, {nc})")

    splits = None
    if "splits" in doc and doc["splits"] is not None:
        sdoc = doc["splits"]
        for part in ("train", "val", "test"):
            if part not in sdoc:
                raise DatasetFormatError(f"splits.{part}: missing")
            for i, idx in enumerate(sdoc[part]):
                if not isinstance(idx, int) or not 0 <= idx < n:
                    raise DatasetFormatError(f"splits.{part}[{i}]: index out of range")
        try:
            splits = Split.unchecked(sdoc["train"], sdoc["val"], sdoc["test"])
        except ValueError as exc:
            raise DatasetFormatError(f"splits: {exc}") from exc

    try:
        return Graph(n, nc, sorted(edges), np.array(feats, dtype=np.float64).reshape(n, fd),
                     labels, name=doc["name"], splits=splits)
    except ValueError as exc:
        raise DatasetFormatError(str(exc)) from exc
