"""Graph container, Laplacian-style operators, dataset I/O, splits, and synthetic graphs."""

from __future__ import annotations

import collections
import functools
import gc
import itertools
import json
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .errors import DatasetFormatError, SpecSearchError, StratificationInfeasible


class Variant(Enum):
    """Which graph operator to materialize; each value is its DSL constructor."""

    ADJ_SYM_NORM = "sym_norm"
    ADJ_RW_NORM = "rw_norm"
    COMBINATORIAL = "laplacian"
    SYM_LAPLACIAN = "sym_laplacian"
    SCALED_LAPLACIAN = "scaled_laplacian"
    PRUNED_NORM = "pruned_norm"


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
        # Frozen copies leave the caller's arrays writeable; made after the edge
        # checks, so they do not raise the peak memory of loading a dataset.
        features, labels = features.copy(), labels.copy()
        for x in (canon, features, labels):
            x.setflags(write=False)
        self.num_nodes = int(num_nodes)
        self.num_classes = int(num_classes)
        self.num_features = int(features.shape[1])
        self.edges = canon
        self.features = features
        self.labels = labels
        self.name = name
        self.splits = splits

    @functools.cached_property
    def pattern(self):
        """The read-only CSR pattern of A + I that every operator weights, built on
        first use: (indices, indptr) in scipy's CSR index dtype, then the position
        of each (i, i) entry and each node's degree."""
        n = self.num_nodes
        u, v = self.edges.T
        loops = np.arange(n)
        a = sp.csr_matrix((np.ones(2 * u.size + n), (np.r_[u, v, loops], np.r_[v, u, loops])),
                          (n, n))
        degree = np.diff(a.indptr) - 1
        diag = np.flatnonzero(a.indices == np.repeat(loops, degree + 1))
        for x in (a.indices, a.indptr, diag, degree):
            x.setflags(write=False)
        return a.indices, a.indptr, diag, degree

    def __repr__(self):
        return (f"Graph({self.name!r}, n={self.num_nodes}, f={self.num_features}, "
                f"c={self.num_classes}, |E|={len(self.edges)})")


class SparseOp:
    """An n x m operator held as one scipy CSR matrix, `csr`, in canonical form:
    column indices sorted within each row, no duplicate coordinates, no stored
    zeros, finite weights. The constructor takes such a matrix as it is
    (`build_operator` makes them) and copies nothing.
    """

    def __init__(self, csr):
        self.csr = csr

    def to_dense(self):
        return self.csr.toarray()


def _inverse(d):
    """1 / d where d > 0, else 0."""
    return np.where(d > 0, 1.0 / np.where(d > 0, d, 1.0), 0.0)


def build_operator(graph, variant, dtype=np.float64):
    """The n x n operator `variant` names for `graph`: one float64 weight per entry
    of A + I (`graph.pattern`), cast once to `dtype`; a zero weight is not stored.

    Without zero weights the operator shares the graph's read-only pattern
    arrays; with some, it holds a compacted copy. A weight that is not finite in
    `dtype` is a ValueError."""
    c, kind = variant.self_loop_weight, variant.kind
    indices, indptr, diag, degree = graph.pattern
    w = np.ones(indices.size)
    w[diag] = c
    if kind is Variant.PRUNED_NORM:
        # see prune_mean_std; the mean, std and sum round in this order: both
        # directions of every edge, then the diagonal when c > 0
        val = np.r_[np.ones(2 * len(graph.edges)), np.full(graph.num_nodes * (c > 0), c)]
        if val.size:
            w = np.where(w >= val.mean() - val.std(), w, 0.0) / (val.sum() + 1e-10)
    elif kind is Variant.COMBINATORIAL:
        # D - A: the self-loop weight cancels
        np.negative(w, out=w)
        w[diag] = degree
    elif kind is Variant.ADJ_RW_NORM:
        # np.repeat(x, degree + 1) is x[row] for every entry
        w *= np.repeat(_inverse(degree + c), degree + 1)
    else:
        inv_sqrt = _inverse(np.sqrt(degree + c))
        w *= np.repeat(inv_sqrt, degree + 1)
        w *= inv_sqrt[indices]
        if kind is not Variant.ADJ_SYM_NORM:
            np.negative(w, out=w)
            w[diag] += 1.0          # I - N, the normalized Laplacian L
        if kind is Variant.SCALED_LAPLACIAN:
            # 2L/λmax − I with λmax = 2, the bound on the spectrum of L (Kipf & Welling)
            w[diag] -= 1.0
    keep = w != 0
    if not keep.all():
        w, indices = w[keep], indices[keep]
        indptr = np.r_[0, np.cumsum(keep)][indptr].astype(indptr.dtype)
    w = w.astype(dtype, copy=False)
    if not np.all(np.isfinite(w)):
        raise ValueError("non-finite weight in sparse operator")
    n = graph.num_nodes
    return SparseOp(sp.csr_matrix((w, indices, indptr), (n, n)))


def prune_mean_std(graph, self_loop_weight, dtype=np.float64):
    """Threshold A + cI at (mean - std) over its nonzero entries, then normalize globally.

    Entries below the threshold are dropped; survivors are divided by
    (sum of all nonzero entries of A + cI) + 1e-10.
    """
    return build_operator(graph, LaplacianVariant(Variant.PRUNED_NORM, self_loop_weight), dtype)


@dataclass(frozen=True)
class Split:
    """Train, val and test node indices, held as tuples: no index repeats within
    a part or appears in two parts. Whether a split can be scored is decided by
    `training.check_split`."""

    train: tuple
    val: tuple
    test: tuple

    def __post_init__(self):
        sets = []
        for name in ("train", "val", "test"):
            part = tuple(getattr(self, name))
            object.__setattr__(self, name, part)
            sets.append(set(part))
            if len(sets[-1]) < len(part):
                i = next(i for i, k in collections.Counter(part).items() if k > 1)
                raise ValueError(f"split {name} repeats index {i}")
        tr, va, te = sets
        if tr & va or tr & te or va & te:
            raise ValueError("split index sets overlap")


def make_split(n, ratios, labels=None, seed=0, stratified=False):
    """Deterministic train/val/test index split.

    Per-group counts are floor(fraction * group_size); when the test fraction is
    positive, every leftover node lands in test.
    """
    f_tr, f_va, f_te = ratios
    if not all(0 <= f for f in ratios):           # NaN fails too
        raise ValueError(f"fractions must be non-negative numbers, got {list(ratios)}")
    if f_tr + f_va + f_te > 1 + 1e-12:
        raise ValueError("fractions must sum to at most 1")
    rng = np.random.default_rng(seed)
    if not stratified:
        groups = [rng.permutation(n)]
    elif labels is None:
        raise ValueError("stratified split requires labels")
    else:
        labels = np.asarray(labels)
        groups = []
        for cls in np.unique(labels):
            idx = np.flatnonzero(labels == cls)
            rng.shuffle(idx)
            if math.floor(f_tr * idx.size) == 0:
                raise StratificationInfeasible(
                    f"class {cls} has {idx.size} nodes; train fraction {f_tr} yields 0 samples")
            groups.append(idx)
    # each group's train, val and leftover pieces; the empty first piece keeps
    # np.concatenate defined when there is no group (stratified, no labels)
    parts = ([np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0, np.int64)])
    for idx in groups:
        n_tr, n_va = math.floor(f_tr * idx.size), math.floor(f_va * idx.size)
        for part, piece in zip(parts, np.split(idx, [n_tr, n_tr + n_va])):
            part.append(piece)
    train, val, test = (np.sort(np.concatenate(p)).tolist() for p in parts)
    return Split(train, val, test if f_te > 0 else ())


def gen_synthetic(n, classes, homophily, avg_degree, feature_dim, signal, seed):
    """Contextual-block-model-style graph.

    Each sampled edge is intra-class with probability `homophily`; class-conditional
    feature means are Gaussian draws scaled by `signal`, with unit noise on top.
    """
    if classes < 1:
        raise ValueError("classes must be at least 1")
    if n < classes:
        raise ValueError("need n >= classes")
    if not 0.0 <= homophily <= 1.0:
        raise ValueError("homophily must lie in [0, 1]")
    if not 0 < avg_degree <= n - 1:              # NaN fails too
        raise ValueError(f"avg_degree must lie in (0, n - 1] = (0, {n - 1}], got {avg_degree}")
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
    rows, cols = op.csr.shape
    if rows != cols:
        raise ValueError("operator must be square")
    if rows > 512:
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
    """The `Graph` stored at `path` by `save_dataset`, its stored split attached;
    a file that is not such a dataset is a DatasetFormatError saying where.

    The cyclic collector is paused for the whole load (it is process-wide, and
    no other thread runs while a dataset loads). The parsed document is a tree
    of lists, dicts and scalars, so it cannot form a reference cycle, yet every
    list the parser builds counts towards a collection: on an edge-heavy file
    the collector would sweep the growing document over and over and free
    nothing. The prior state is restored after `_load_dataset` returns, when
    the document is already dropped; a document still alive when the collector
    restarts would be swept once more in full (as on the error path, where the
    traceback keeps it)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _load_dataset(path)
    finally:
        if enabled:
            gc.enable()


def _load_dataset(path):
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
    # np.array reads a bool among integers as 0 or 1, so only such rows can hold one
    for i in np.flatnonzero(edges.ravel() <= 1) // 2:
        if bool in map(type, doc["edges"][i]):
            raise DatasetFormatError(f"edges[{i}]: expected integer endpoints, got a bool")
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
            splits = Split(sdoc["train"], sdoc["val"], sdoc["test"])
        except ValueError as exc:
            raise DatasetFormatError(f"splits: {exc}") from exc

    try:
        return Graph(n, nc, edges, features, labels, name=doc["name"], splits=splits)
    except ValueError as exc:
        raise DatasetFormatError(str(exc)) from exc
