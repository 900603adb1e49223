"""Graph container, operators, splits, synthetic generation, and dataset I/O."""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from specsearch import graphs
from specsearch.errors import DatasetFormatError, StratificationInfeasible
from specsearch.graphs import LaplacianVariant, Variant

from conftest import path_graph


def random_graph(n, p, seed, num_classes=2, feature_dim=4):
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return graphs.Graph(n, num_classes, edges, rng.standard_normal((n, feature_dim)),
                        rng.integers(0, num_classes, size=n))


class TestGraph:
    def test_edges_canonicalized(self):
        g = graphs.Graph(3, 2, [(2, 1), (1, 0)], np.zeros((3, 2)), [0, 1, 0])
        assert g.edges.dtype == np.int64
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    def test_edges_read_only(self):
        g = graphs.Graph(3, 2, [(0, 1)], np.zeros((3, 2)), [0, 1, 0])
        with pytest.raises(ValueError):
            g.edges[0, 0] = 1

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            graphs.Graph(3, 2, [(1, 1)], np.zeros((3, 2)), [0, 1, 0])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            graphs.Graph(3, 2, [(0, 1), (1, 0)], np.zeros((3, 2)), [0, 1, 0])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="out of range"):
            graphs.Graph(3, 2, [(0, 5)], np.zeros((3, 2)), [0, 1, 0])

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError, match="label"):
            graphs.Graph(2, 2, [], np.zeros((2, 2)), [0, 2])

    def test_rejects_nonfinite_features(self):
        x = np.zeros((2, 2))
        x[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            graphs.Graph(2, 2, [], x, [0, 1])


class TestBuildOperator:
    def test_p3_sym_norm_with_self_loops(self, p3):
        op = graphs.build_operator(p3, LaplacianVariant(Variant.ADJ_SYM_NORM, 1.0))
        m = op.to_dense()
        expected = np.array([
            [0.5, 1 / np.sqrt(6), 0.0],
            [1 / np.sqrt(6), 1 / 3, 1 / np.sqrt(6)],
            [0.0, 1 / np.sqrt(6), 0.5],
        ])
        assert np.allclose(m, expected, atol=1e-12)
        assert abs(m[0, 1] - 0.40825) < 1e-5

    def test_edgeless_combinatorial_is_zero(self):
        g = graphs.Graph(4, 2, [], np.zeros((4, 2)), [0, 1, 0, 1])
        op = graphs.build_operator(g, LaplacianVariant(Variant.COMBINATORIAL))
        assert np.array_equal(op.to_dense(), np.zeros((4, 4)))

    def test_p3_scaled_laplacian_spectrum(self, p3):
        op = graphs.build_operator(p3, LaplacianVariant(Variant.SCALED_LAPLACIAN))
        evs = graphs.eig_operator(op).eigenvalues
        assert np.allclose(evs, [-1.0, 0.0, 1.0], atol=1e-9)

    def test_sym_norm_exactly_symmetric(self):
        for seed in range(10):
            g = random_graph(15, 0.3, seed)
            m = graphs.build_operator(
                g, LaplacianVariant(Variant.ADJ_SYM_NORM, 1.0)).to_dense()
            assert np.abs(m - m.T).max() == 0.0

    def test_zero_degree_rows_stay_zero(self):
        g = graphs.Graph(3, 2, [(0, 1)], np.zeros((3, 2)), [0, 1, 0])
        m = graphs.build_operator(g, LaplacianVariant(Variant.ADJ_SYM_NORM)).to_dense()
        assert np.all(m[2] == 0.0) and np.all(m[:, 2] == 0.0)

    def test_rw_norm_rows_sum_to_one(self, k3):
        m = graphs.build_operator(k3, LaplacianVariant(Variant.ADJ_RW_NORM, 1.0)).to_dense()
        assert np.allclose(m.sum(axis=1), 1.0)


def dense_reference(graph, kind, c):
    """Dense numpy version of each operator's formula."""
    n = graph.num_nodes
    a = np.zeros((n, n))
    for u, v in graph.edges:
        a[u, v] = a[v, u] = 1.0
    ac = a + c * np.eye(n)
    d = ac.sum(axis=1)
    safe = np.where(d > 0, d, 1.0)
    inv = np.where(d > 0, 1.0 / safe, 0.0)
    inv_sqrt = np.where(d > 0, 1.0 / np.sqrt(safe), 0.0)
    sym = inv_sqrt[:, None] * ac * inv_sqrt[None, :]
    lap = np.eye(n) - sym
    if kind is Variant.ADJ_SYM_NORM:
        return sym
    if kind is Variant.ADJ_RW_NORM:
        return inv[:, None] * ac
    if kind is Variant.COMBINATORIAL:
        return np.diag(a.sum(axis=1)) - a
    if kind is Variant.SYM_LAPLACIAN:
        return lap
    if kind is Variant.SCALED_LAPLACIAN:
        return 2.0 * lap / 2.0 - np.eye(n)    # λmax = 2 bounds the spectrum of L
    nz = ac[ac != 0]
    return np.where(ac >= nz.mean() - nz.std(), ac, 0.0) / (nz.sum() + 1e-10)


class TestOperatorFormulas:
    # node 5 is isolated; nodes 0-4 form a triangle with a two-edge tail
    GRAPH = graphs.Graph(6, 2, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)],
                         np.zeros((6, 2)), [0, 1, 0, 1, 0, 1])

    @pytest.mark.parametrize("c", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("kind", list(Variant))
    def test_matches_dense_formula(self, kind, c):
        m = graphs.build_operator(self.GRAPH, LaplacianVariant(kind, c)).to_dense()
        ref = dense_reference(self.GRAPH, kind, c)
        assert np.array_equal(m != 0, ref != 0)
        assert np.abs(m - ref).max() < 1e-12
        if kind is Variant.SCALED_LAPLACIAN:
            # λmax = 2 is a bound, so the scaled spectrum stays inside [-1, 1]
            assert np.abs(np.linalg.eigvalsh(m)).max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("c", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("kind", list(Variant))
    def test_float32_is_float64_cast_once(self, kind, c):
        variant = LaplacianVariant(kind, c)
        f64 = graphs.build_operator(self.GRAPH, variant).csr
        f32 = graphs.build_operator(self.GRAPH, variant, np.float32).csr
        assert f64.dtype == np.float64 and f32.dtype == np.float32
        assert np.array_equal(f32.indptr, f64.indptr)
        assert np.array_equal(f32.indices, f64.indices)
        assert np.array_equal(f32.data, f64.data.astype(np.float32))


class TestSparseOp:
    def test_canonical_csr(self):
        # rows and columns out of order, and one zero weight
        op = graphs.SparseOp.from_coords(3, 3, [2, 0, 0, 1], [0, 2, 1, 1], [4.0, 2.0, 1.0, 0.0])
        assert op.csr.format == "csr"
        assert op.csr.indptr.tolist() == [0, 2, 2, 3]
        assert op.csr.indices.tolist() == [1, 2, 0]
        assert op.csr.data.tolist() == [1.0, 2.0, 4.0]
        row, col = op.coords
        assert row.tolist() == [0, 0, 2] and col.tolist() == [1, 2, 0]
        assert row.dtype == col.dtype == np.int64

    @pytest.mark.parametrize("c", [0.0, 1.0])
    @pytest.mark.parametrize("kind", list(Variant))
    def test_built_operators_are_canonical(self, kind, c):
        csr = graphs.build_operator(random_graph(30, 0.2, seed=5), LaplacianVariant(kind, c)).csr
        assert csr.has_canonical_format
        assert np.all(csr.data != 0)

    @pytest.mark.parametrize("row, col, val, message", [
        ([0, 1, 0], [1, 0, 1], [1.0, 1.0, 2.0], "duplicate coordinate"),
        ([0, 2], [1, 0], [1.0, 1.0], "out of bounds"),
        ([0, 1], [1, -1], [1.0, 1.0], "out of bounds"),
        ([0, 1], [1, 0], [1.0, np.nan], "non-finite"),
        ([0, 1], [1, 0], [np.inf, 1.0], "non-finite"),
    ])
    def test_rejects_bad_coordinates(self, row, col, val, message):
        with pytest.raises(ValueError, match=message):
            graphs.SparseOp.from_coords(2, 2, row, col, val)

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    def test_rejects_weight_beyond_dtype(self):
        with pytest.raises(ValueError, match="non-finite"):
            graphs.SparseOp(sp.csr_matrix(np.array([[1e300]])), np.float32)


class TestPruneMeanStd:
    def test_two_node_example(self):
        g = graphs.Graph(2, 2, [(0, 1)], np.zeros((2, 2)), [0, 1])
        m = graphs.prune_mean_std(g, 2.0).to_dense()
        # entries {2,2,1,1}: mean 1.5, std 0.5, threshold 1.0 keeps everything
        expected = 1.0 / (6.0 + 1e-10)
        assert abs(m[0, 1] - expected) < 1e-12
        assert abs(m[0, 1] - 0.16667) < 1e-4
        assert abs(m[0, 0] - 2.0 / (6.0 + 1e-10)) < 1e-12

    def test_equal_entries_all_kept(self):
        g = graphs.Graph(3, 2, [(0, 1), (1, 2), (0, 2)], np.zeros((3, 2)), [0, 1, 0])
        m = graphs.prune_mean_std(g, 1.0).to_dense()
        # all entries of A + I equal 1: zero variance, threshold = mean, all kept
        assert np.count_nonzero(m) == 9
        assert np.allclose(m[m != 0], 1.0 / (9.0 + 1e-10))

    def test_low_entries_dropped(self):
        # 4 nodes, 1 edge, c=5: entries {5,5,5,5,1,1}; mean 22/6, std ~1.886,
        # threshold ~1.781 drops the off-diagonal ones
        g = graphs.Graph(4, 2, [(0, 1)], np.zeros((4, 2)), [0, 1, 0, 1])
        m = graphs.prune_mean_std(g, 5.0).to_dense()
        assert m[0, 1] == 0.0 and m[1, 0] == 0.0
        assert abs(m[0, 0] - 5.0 / (22.0 + 1e-10)) < 1e-12

    def test_entries_nonnegative_sum_below_one(self):
        for seed in range(5):
            g = random_graph(12, 0.4, seed)
            m = graphs.prune_mean_std(g, 2.0).to_dense()
            assert m.min() >= 0.0
            assert m.sum() <= 1.0 + 1e-9


class TestSplit:
    def test_cora_sparse_counts(self):
        split = graphs.make_split(2708, (0.025, 0.025, 0.95), seed=0)
        assert (len(split.train), len(split.val), len(split.test)) == (67, 67, 2574)

    def test_all_train_permitted_by_op(self):
        split = graphs.make_split(10, (1.0, 0.0, 0.0), seed=0)
        assert len(split.train) == 10 and not split.val and not split.test
        with pytest.raises(ValueError):
            graphs.Split(split.train, split.val, split.test)

    def test_determinism(self):
        a = graphs.make_split(500, (0.1, 0.1, 0.8), seed=3)
        b = graphs.make_split(500, (0.1, 0.1, 0.8), seed=3)
        assert a.train == b.train and a.val == b.val and a.test == b.test

    def test_disjointness_many_seeds(self):
        for seed in range(10):
            s = graphs.make_split(200, (0.3, 0.3, 0.4), seed=seed)
            assert not (set(s.train) & set(s.val))
            assert not (set(s.train) & set(s.test))
            assert not (set(s.val) & set(s.test))

    def test_stratified_per_class_counts(self):
        labels = np.array([0] * 40 + [1] * 60)
        s = graphs.make_split(100, (0.25, 0.25, 0.5), labels=labels,
                              seed=1, stratified=True)
        train_labels = labels[list(s.train)]
        assert (train_labels == 0).sum() == 10   # floor(0.25 * 40)
        assert (train_labels == 1).sum() == 15   # floor(0.25 * 60)

    def test_stratification_infeasible(self):
        labels = np.array([0] * 99 + [1])
        with pytest.raises(StratificationInfeasible):
            graphs.make_split(100, (0.025, 0.025, 0.95), labels=labels,
                              seed=0, stratified=True)

    def test_split_sets_disjoint_invariant(self):
        with pytest.raises(ValueError):
            graphs.Split((0, 1), (1, 2), (3,))


class TestGenSynthetic:
    def test_full_homophily_has_no_interclass_edges(self):
        g = graphs.gen_synthetic(200, 3, 1.0, 8.0, 5, 1.0, seed=0)
        for u, v in g.edges:
            assert g.labels[u] == g.labels[v]

    def test_half_homophily_edge_fraction(self):
        g = graphs.gen_synthetic(1000, 2, 0.5, 10.0, 5, 1.0, seed=1)
        intra = sum(1 for u, v in g.edges if g.labels[u] == g.labels[v])
        assert abs(intra / len(g.edges) - 0.5) < 0.05

    def test_zero_signal_means_close(self):
        g = graphs.gen_synthetic(2000, 2, 0.5, 6.0, 4, 0.0, seed=2)
        m0 = g.features[g.labels == 0].mean(axis=0)
        m1 = g.features[g.labels == 1].mean(axis=0)
        se = np.sqrt(1.0 / (g.labels == 0).sum() + 1.0 / (g.labels == 1).sum())
        assert np.abs(m0 - m1).max() < 3.0 * se * 1.5

    def test_deterministic(self):
        a = graphs.gen_synthetic(100, 3, 0.7, 5.0, 6, 1.0, seed=9)
        b = graphs.gen_synthetic(100, 3, 0.7, 5.0, 6, 1.0, seed=9)
        assert a == b
        assert np.array_equal(a.features, b.features)


class TestEigOperator:
    def test_p3_sym_laplacian(self, p3):
        op = graphs.build_operator(p3, LaplacianVariant(Variant.SYM_LAPLACIAN))
        assert np.allclose(graphs.eig_operator(op).eigenvalues, [0, 1, 2], atol=1e-10)

    def test_isolated_node(self):
        g = graphs.Graph(1, 1, [], np.zeros((1, 1)), [0])
        op = graphs.build_operator(g, LaplacianVariant(Variant.COMBINATORIAL))
        assert np.allclose(graphs.eig_operator(op).eigenvalues, [0.0])

    def test_k3_sym_laplacian(self, k3):
        op = graphs.build_operator(k3, LaplacianVariant(Variant.SYM_LAPLACIAN))
        assert np.allclose(graphs.eig_operator(op).eigenvalues, [0, 1.5, 1.5], atol=1e-10)

    def test_rejects_asymmetric(self):
        op = graphs.SparseOp.from_coords(2, 2, [0], [1], [1.0])
        with pytest.raises(graphs.SpecSearchError, match="symmetric"):
            graphs.eig_operator(op)


VALID_DOC = {"name": "x", "num_nodes": 3, "num_classes": 2, "feature_dim": 1,
             "edges": [[0, 1]], "features": [[0.0], [0.0], [0.0]], "labels": [0, 1, 0]}


class TestDatasetIO:
    def test_round_trip(self, tmp_path, small_graph):
        path = tmp_path / "g.json"
        graphs.save_dataset(small_graph, path)
        loaded = graphs.load_dataset(path)
        assert loaded == small_graph

    def test_round_trip_with_splits(self, tmp_path):
        g = path_graph(6, seed=1)
        g.splits = graphs.Split((0, 1), (2,), (3, 4, 5))
        path = tmp_path / "g.json"
        graphs.save_dataset(g, path)
        loaded = graphs.load_dataset(path)
        assert loaded.splits.train == (0, 1)
        assert loaded.splits.test == (3, 4, 5)

    def test_out_of_range_edge_locus(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"name": "x", "num_nodes": 3, "num_classes": 2, "feature_dim": 1,'
            ' "edges": [[0, 5]], "features": [[0.0], [0.0], [0.0]],'
            ' "labels": [0, 1, 0]}')
        with pytest.raises(DatasetFormatError, match=r"edges\[0\]"):
            graphs.load_dataset(path)

    def test_mirrored_edges_deduplicated(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(
            '{"name": "x", "num_nodes": 3, "num_classes": 2, "feature_dim": 1,'
            ' "edges": [[1, 2], [2, 1]], "features": [[0.0], [0.0], [0.0]],'
            ' "labels": [0, 1, 0]}')
        g = graphs.load_dataset(path)
        assert g.edges.tolist() == [[1, 2]]

    def test_self_loops_dropped(self, tmp_path):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(dict(VALID_DOC, edges=[[0, 0], [0, 1]])))
        assert graphs.load_dataset(path).edges.tolist() == [[0, 1]]

    @pytest.mark.parametrize("edges", [
        [[0, 1.5]], [[0, "1"]], [[0, 1, 2]], [[0]], [0, 1], [[0, None]],
        [[0, 1], [2]],
    ])
    def test_rejects_malformed_edge_entries(self, tmp_path, edges):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(VALID_DOC, edges=edges)))
        with pytest.raises(DatasetFormatError, match="edges"):
            graphs.load_dataset(path)

    @pytest.mark.parametrize("field, value", [
        ("edges", 5), ("edges", None),
        ("features", 5), ("features", None),
        ("labels", 5), ("labels", None),
        ("num_classes", "2"), ("num_classes", None),
        ("feature_dim", None), ("feature_dim", -1),
        ("splits", 5), ("splits", {"train": 5, "val": [1], "test": [2]}),
        ("splits", {"train": [True], "val": [0], "test": [2]}),
    ])
    def test_rejects_malformed_field(self, tmp_path, field, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(VALID_DOC, **{field: value})))
        with pytest.raises(DatasetFormatError, match=field):
            graphs.load_dataset(path)

    @pytest.mark.parametrize("features, locus", [
        ("[[0.0], [true], [0.0]]", r"features\[1\]\[0\]"),
        ('[[0.0], [0.0], ["1"]]', r"features\[2\]\[0\]"),
        ("[[0.0], [null], [0.0]]", r"features\[1\]\[0\]"),
        ("[[0.0], [1e400], [2.0]]", r"features\[1\]\[0\]"),  # inf after decoding
        ("[[0.0], [0.0], [1" + "0" * 400 + "]]", r"features\[2\]\[0\]"),  # beyond float64
    ], ids=["bool", "string", "null", "inf", "huge-int"])
    def test_rejects_bad_feature_value(self, tmp_path, features, locus):
        path = tmp_path / "bad.json"
        text = json.dumps(VALID_DOC)
        path.write_text(text.replace(json.dumps(VALID_DOC["features"]), features))
        with pytest.raises(DatasetFormatError, match=locus):
            graphs.load_dataset(path)

    @pytest.mark.parametrize("labels, locus", [
        ([0, True, 0], r"labels\[1\]"),
        ([0, 1, 1.0], r"labels\[2\]"),
        ([0, 2, 0], r"labels\[1\]"),
        ([-1, 0, 0], r"labels\[0\]"),
        ([0, 0, 2 ** 70], r"labels\[2\]"),
    ], ids=["bool", "float", "too-large", "negative", "huge-int"])
    def test_rejects_bad_label(self, tmp_path, labels, locus):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(VALID_DOC, labels=labels)))
        with pytest.raises(DatasetFormatError, match=locus):
            graphs.load_dataset(path)

    def test_integer_features_load_as_float64(self, tmp_path):
        path = tmp_path / "int.json"
        path.write_text(json.dumps(dict(VALID_DOC, features=[[1], [2.5], [-3]])))
        g = graphs.load_dataset(path)
        assert g.features.dtype == np.float64
        assert g.features.tolist() == [[1.0], [2.5], [-3.0]]

    def test_rejects_nan_feature(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"name": "x", "num_nodes": 1, "num_classes": 1, "feature_dim": 1,'
            ' "edges": [], "features": [[NaN]], "labels": [0]}')
        with pytest.raises(DatasetFormatError):
            graphs.load_dataset(path)
