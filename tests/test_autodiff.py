"""Autodiff forward semantics, gradient correctness, and the Adam optimizer."""

import hashlib
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from specsearch import autodiff as ad
from specsearch import graphs, training
from specsearch.errors import NumericalError, ShapeMismatch

from conftest import check_gradients


def sparse_from_dense(m):
    return graphs.SparseOp(sp.csr_matrix(m))


class TestForward:
    def test_spmm_permutation(self):
        s = sparse_from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        x = ad.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(ad.spmm(s, x).data, [[3.0, 4.0], [1.0, 2.0]])

    def test_spmm_identity(self):
        s = sparse_from_dense(np.eye(3))
        x = ad.Tensor(np.arange(6.0).reshape(3, 2))
        assert np.array_equal(ad.spmm(s, x).data, x.data)

    def test_softmax_uniform_row(self):
        out = ad.softmax_rows(ad.Tensor(np.full((1, 4), 2.5)))
        assert np.allclose(out.data, 0.25)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = ad.softmax_rows(ad.Tensor(rng.standard_normal((6, 5)) * 10))
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-6)
        assert np.all((out.data > 0) & (out.data < 1))

    @pytest.mark.parametrize("op", [ad.add, ad.matmul, ad.concat_cols])
    def test_shape_disagreement_is_an_engine_fault(self, op):
        # Shape rules are the front end's; an op given shapes it would have
        # rejected fails in numpy, and the candidate is labelled internal.
        a, b = ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((4, 5)))
        with pytest.raises(ValueError) as exc:
            op(a, b)
        assert training.discard_reason(exc.value) == "internal"

    @pytest.mark.parametrize("rows", [(4, 3, 3), (3, 4, 3), (3, 3, 4)])
    def test_attn_agg_checks_its_shapes(self, rows):
        # Indexing by the edge list would accept any of these oversized inputs.
        op = sparse_from_dense(np.ones((3, 3)))
        src, dst, x = (ad.Tensor(np.zeros((r, 1))) for r in rows)
        with pytest.raises(ValueError, match="edge_attn_agg") as exc:
            ad.edge_attn_agg(op, src, dst, x)
        assert training.discard_reason(exc.value) == "internal"

    def test_division_by_zero_raises(self):
        with pytest.raises(NumericalError):
            ad.div(ad.Tensor(np.ones((2, 2))), ad.Tensor(np.zeros((2, 2))))

    def test_cross_entropy_monotone_in_correct_logit(self):
        labels = np.array([1, 0])
        losses = []
        for scale in (1.0, 2.0, 4.0):
            logits = ad.Tensor(scale * np.array([[0.0, 1.0], [1.0, 0.0]]))
            losses.append(float(ad.cross_entropy_with_logits(
                logits, labels, [0, 1]).data[0, 0]))
        assert losses[0] > losses[1] > losses[2]

    def test_dropout_inverted_scaling(self):
        rng = np.random.default_rng(0)
        x = ad.Tensor(np.ones((200, 50)))
        out = ad.dropout(x, 0.5, rng)
        kept = out.data[out.data != 0]
        assert np.allclose(kept, 2.0)
        assert abs(out.data.mean() - 1.0) < 0.1

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(5)
            x = ad.Tensor(rng.standard_normal((4, 4)))
            return ad.softmax_rows(ad.tanh(ad.matmul(x, x))).data
        assert np.array_equal(run(), run())


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        x = ad.Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        ad.backward(ad.sum_all(x))
        assert np.array_equal(x.grad, np.ones((2, 2)))

    def test_unreachable_parameter_gets_no_gradient(self):
        x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        w = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        ad.backward(ad.sum_all(x))
        assert w.grad is None

    def test_backward_requires_scalar(self):
        x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ShapeMismatch):
            ad.backward(ad.relu(x))

    def test_shared_gradient_is_not_mutated(self):
        # add hands one array to both a and b; a then accumulates mul's gradient
        rng = np.random.default_rng(0)
        a, b, c = (ad.Tensor(rng.standard_normal((3, 2)), requires_grad=True)
                   for _ in range(3))
        ad.backward(ad.sum_all(ad.add(ad.add(a, b), ad.mul(a, c))))
        assert np.array_equal(a.grad, 1.0 + c.data)
        assert np.array_equal(b.grad, np.ones((3, 2)))
        assert np.array_equal(c.grad, a.data)

    def test_only_leaves_keep_gradients(self):
        x = ad.Tensor(np.ones((3, 2)), requires_grad=True)
        w = ad.Tensor(np.full((2, 2), 0.5), requires_grad=True)
        xw = ad.matmul(x, w)
        h = ad.tanh(xw)
        loss = ad.sum_all(h)
        ad.backward(loss)
        assert x.grad is not None and w.grad is not None
        assert xw.grad is None and h.grad is None and loss.grad is None


class NoTranspose(np.ndarray):
    """An array whose transpose must not be taken."""

    @property
    def T(self):
        raise AssertionError("transpose taken")


class TestRecordingRule:
    """An op's output requires a gradient iff one of its inputs does; only then
    is it recorded, and a VJP computes only the gradients its inputs need."""

    OPS = {
        "add": lambda a, b: ad.add(a, b),
        "sub": lambda a, b: ad.sub(a, b),
        "mul": lambda a, b: ad.mul(a, b),
        "div": lambda a, b: ad.div(a, b),
        "matmul": lambda a, b: ad.matmul(a, b),
        "concat_cols": lambda a, b: ad.concat_cols(a, b),
        "tanh": lambda a, b: ad.tanh(a),
        "dropout": lambda a, b: ad.dropout(a, 0.5, np.random.default_rng(0)),
        "spmm": lambda a, b: ad.spmm(sparse_from_dense(np.eye(3)), a),
        "edge_attn_agg": lambda a, b: ad.edge_attn_agg(
            sparse_from_dense(np.ones((3, 3))), ad.sum_rows(a), ad.sum_rows(b), a),
    }

    @pytest.mark.parametrize("name", OPS)
    def test_inputs_without_gradient_record_nothing(self, name):
        a, b = (ad.Tensor(np.full((3, 3), v)) for v in (1.0, 2.0))
        out = self.OPS[name](a, b)
        assert not out.requires_grad
        assert out.parents == () and out.vjp is None

    @pytest.mark.parametrize("name", OPS)
    def test_an_input_with_gradient_records(self, name):
        a = ad.Tensor(np.full((3, 3), 1.0), requires_grad=True)
        out = self.OPS[name](a, ad.Tensor(np.full((3, 3), 2.0)))
        assert out.requires_grad and out.parents and out.vjp is not None

    @pytest.mark.parametrize("op", [ad.sub, ad.mul, ad.div, ad.matmul])
    @pytest.mark.parametrize("needs", [(True, False), (False, True)])
    def test_vjp_gives_none_for_an_input_without_gradient(self, op, needs):
        a, b = (ad.Tensor(np.full((2, 2), v), requires_grad=r)
                for v, r in zip((1.0, 2.0), needs))
        grads = op(a, b).vjp(np.ones((2, 2)))
        assert [g is not None for g in grads] == list(needs)

    def test_attention_vjp_skips_unneeded_gradients(self):
        op = sparse_from_dense(np.ones((3, 3)))
        s = ad.Tensor(np.zeros((3, 1)), requires_grad=True)
        out = ad.edge_attn_agg(op, s, ad.Tensor(np.zeros((3, 1))), ad.Tensor(np.ones((3, 2))))
        gs, gd, gx = out.vjp(np.ones((3, 2)))
        assert gs.shape == (3, 1) and gd is None and gx is None

    def test_matmul_skips_the_feature_side_product(self):
        # x needs no gradient, so g @ W.T must not be computed
        x = ad.Tensor(np.arange(6.0).reshape(2, 3))
        w = ad.Tensor(np.ones((3, 4)).view(NoTranspose), requires_grad=True)
        ad.backward(ad.sum_all(ad.matmul(x, w)))
        assert x.grad is None
        assert np.array_equal(w.grad, x.data.T @ np.ones((2, 4)))

    def test_gradient_off_every_parameter_path_is_not_computed(self):
        # d(a / c)/dc overflows at c = 1e-320, but no parameter lies behind a or c
        k = ad.Tensor(np.array([[1e-160]]))
        c = ad.mul(k, k)
        w = ad.Tensor(np.zeros((1, 1)), requires_grad=True)
        loss = ad.sum_all(ad.add(w, ad.div(ad.Tensor(np.array([[1e-300]])), c)))
        with np.errstate(all="raise"):
            ad.backward(loss)
        assert np.array_equal(w.grad, [[1.0]]) and c.grad is None

    def test_sweep_spends_the_tape(self):
        x = ad.Tensor(np.ones((3, 2)))
        w = ad.Tensor(np.full((2, 2), 0.5), requires_grad=True)
        xw = ad.matmul(x, w)
        h = ad.tanh(xw)
        loss = ad.sum_all(h)
        ad.backward(loss)
        for t in (xw, h, loss):
            assert t.parents == () and t.vjp is None and t.grad is None
        assert x.grad is None
        grad = w.grad
        assert grad is not None
        # a swept tape reaches no leaf a second time
        w.grad = None
        ad.backward(loss)
        assert w.grad is None
        assert np.array_equal(grad, np.full((2, 2), 3.0) * (1 - np.tanh(1.0) ** 2))

    def test_sweep_frees_each_node_once_its_vjp_has_run(self):
        w = ad.Tensor(np.full((2, 2), 0.5), requires_grad=True)
        a = ad.tanh(w)
        b = ad.tanh(a)
        loss = ad.sum_all(b)
        freed = weakref.ref(b.data)     # held by b and by b's VJP
        del b
        seen = []
        vjp = a.vjp
        a.vjp = lambda g: (seen.append(freed() is None), vjp(g))[1]
        ad.backward(loss)
        assert seen == [True]       # b's activation was gone before a's VJP ran
        assert w.grad is not None


class TestGradientSuite:
    """Analytic vs central finite-difference gradients, 20 instances per op."""

    N_INSTANCES = 20

    def instances(self, *shapes, seed_base=0, positive=False, offset=0.0):
        for i in range(self.N_INSTANCES):
            rng = np.random.default_rng(seed_base + i)
            arrs = []
            for s in shapes:
                a = rng.standard_normal(s)
                if positive:
                    a = np.abs(a) + 0.5
                arrs.append(a + offset)
            yield arrs

    def test_add_sub_broadcast(self):
        for a, b in self.instances((4, 3), (1, 3)):
            check_gradients(lambda t: ad.sum_all(ad.add(t["a"], t["b"])),
                            {"a": a, "b": b})
            check_gradients(lambda t: ad.sum_all(ad.sub(t["a"], t["b"])),
                            {"a": a, "b": b})

    def test_mul_div(self):
        for a, b in self.instances((3, 4), (3, 1), positive=True):
            check_gradients(lambda t: ad.sum_all(ad.mul(t["a"], t["b"])),
                            {"a": a, "b": b})
            check_gradients(lambda t: ad.sum_all(ad.div(t["a"], t["b"])),
                            {"a": a, "b": b})

    def test_neg(self):
        for (a,) in self.instances((3, 3)):
            check_gradients(lambda t: ad.sum_all(ad.neg(t["a"])), {"a": a})

    def test_matmul(self):
        for a, b in self.instances((4, 3), (3, 2)):
            check_gradients(lambda t: ad.sum_all(ad.relu(ad.matmul(t["a"], t["b"]))),
                            {"a": a, "b": b})

    def test_spmm(self):
        rng = np.random.default_rng(42)
        mask = rng.random((5, 5)) < 0.5
        s = sparse_from_dense(np.where(mask, rng.standard_normal((5, 5)), 0.0))
        for (x,) in self.instances((5, 3)):
            check_gradients(lambda t: ad.sum_all(ad.spmm(s, t["x"])), {"x": x})

    def test_activations(self):
        for (a,) in self.instances((4, 4), offset=0.05):
            for fn in (ad.relu, ad.elu, ad.tanh, ad.sigmoid):
                check_gradients(lambda t, f=fn: ad.sum_all(f(t["a"])), {"a": a})

    def test_softmax_rows(self):
        rng = np.random.default_rng(3)
        for (a,) in self.instances((4, 5)):
            w = rng.standard_normal((4, 5))
            check_gradients(
                lambda t: ad.sum_all(ad.mul(ad.softmax_rows(t["a"]), ad.Tensor(w))),
                {"a": a})

    def test_sum_rows(self):
        for (a,) in self.instances((4, 3)):
            check_gradients(lambda t: ad.sum_all(ad.tanh(ad.sum_rows(t["a"]))),
                            {"a": a})

    def test_power(self):
        for (a,) in self.instances((1, 1), positive=True):
            check_gradients(lambda t: ad.sum_all(ad.power(t["a"], 3)), {"a": a})
            check_gradients(lambda t: ad.sum_all(ad.power(t["a"], 0.5)), {"a": a})

    def test_concat_cols(self):
        rng = np.random.default_rng(8)
        for a, b in self.instances((3, 2), (3, 4)):
            w = rng.standard_normal((3, 6))
            check_gradients(
                lambda t: ad.sum_all(ad.mul(ad.concat_cols(t["a"], t["b"]),
                                            ad.Tensor(w))),
                {"a": a, "b": b})

    def test_dropout(self):
        for i, (a,) in enumerate(self.instances((5, 4))):
            check_gradients(
                lambda t: ad.sum_all(ad.dropout(t["a"], 0.4,
                                                np.random.default_rng(i))),
                {"a": a})

    def test_cross_entropy(self):
        rng = np.random.default_rng(11)
        for (a,) in self.instances((6, 3)):
            labels = rng.integers(0, 3, size=6)
            idx = [0, 2, 3, 5]
            check_gradients(
                lambda t: ad.cross_entropy_with_logits(t["a"], labels, idx),
                {"a": a})

    def test_edge_attn_agg(self):
        dense = np.zeros((4, 4))
        for u, v in [(0, 1), (1, 2), (2, 3), (0, 2)]:
            dense[u, v] = dense[v, u] = 1.0
        s = sparse_from_dense(dense)
        for src, dst, x in self.instances((4, 1), (4, 1), (4, 3)):
            check_gradients(
                lambda t: ad.sum_all(ad.tanh(
                    ad.edge_attn_agg(s, t["src"], t["dst"], t["x"]))),
                {"src": src, "dst": dst, "x": x})


class TestGradientRule:
    """`backward` sums each op's VJP into `.grad`: a tensor passed in two operand
    slots gets both gradients, and a broadcast operand's gradient is reduced to
    its own shape."""

    N_INSTANCES = 5

    def weighted(self, op, left, right):
        """sum(op(left, right) * w) for a fixed random w, so no gradient is uniform."""
        def build(t):
            out = op(t[left], t[right])
            w = np.random.default_rng(9).standard_normal(out.shape)
            return ad.sum_all(ad.mul(out, ad.Tensor(w)))
        return build

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div, ad.matmul,
                                    ad.concat_cols])
    def test_one_tensor_as_both_operands(self, op):
        for i in range(self.N_INSTANCES):
            a = np.abs(np.random.default_rng(i).standard_normal((3, 3))) + 0.5
            check_gradients(self.weighted(op, "a", "a"), {"a": a})

    @pytest.mark.parametrize("small", [(1, 3), (4, 1), (1, 1)])
    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div])
    def test_broadcast_operand(self, op, side, small):
        operands = ("s", "big") if side == "left" else ("big", "s")
        for i in range(self.N_INSTANCES):
            rng = np.random.default_rng(i)
            arrays = {"big": np.abs(rng.standard_normal((4, 3))) + 0.5,
                      "s": np.abs(rng.standard_normal(small)) + 0.5}
            build = self.weighted(op, *operands)
            check_gradients(build, arrays)
            tensors = {k: ad.Tensor(v, requires_grad=True) for k, v in arrays.items()}
            ad.backward(build(tensors))
            assert tensors["s"].grad.shape == small
            assert tensors["big"].grad.shape == (4, 3)


class TestEdgeAttnAgg:
    def path3(self):
        dense = np.zeros((3, 3))
        dense[0, 1] = dense[1, 0] = dense[1, 2] = dense[2, 1] = 1.0
        return sparse_from_dense(dense)

    def test_equal_scores_average_neighbors(self):
        s = self.path3()
        x = ad.Tensor(np.array([[2.0, 0.0], [4.0, 2.0], [6.0, 4.0]]))
        zeros = ad.Tensor(np.zeros((3, 1)))
        out = ad.edge_attn_agg(s, zeros, zeros, x)
        assert np.allclose(out.data[1], [(2.0 + 6.0) / 2, (0.0 + 4.0) / 2])

    def test_isolated_node_zero_row(self):
        dense = np.zeros((3, 3))
        dense[0, 1] = dense[1, 0] = 1.0
        s = sparse_from_dense(dense)
        zeros = ad.Tensor(np.zeros((3, 1)))
        out = ad.edge_attn_agg(s, zeros, zeros, ad.Tensor(np.ones((3, 2))))
        assert np.array_equal(out.data[2], [0.0, 0.0])

    def test_hand_computed_weights(self):
        s = self.path3()
        src = ad.Tensor(np.zeros((3, 1)))
        dst = ad.Tensor(np.array([[1.0], [0.0], [0.0]]))
        x = ad.Tensor(np.array([[1.0], [0.0], [0.0]]))
        out = ad.edge_attn_agg(s, src, dst, x)
        # node 1 attends to {0, 2} with softmax([1, 0]) ~ [0.7311, 0.2689]
        assert abs(out.data[1, 0] - 0.7311) < 1e-4

    def test_float32_computes_in_float32(self, monkeypatch):
        g = graphs.gen_synthetic(40, 3, 0.8, 4.0, 5, 1.0, seed=0)
        op = graphs.build_operator(g, graphs.LaplacianVariant(graphs.Variant.ADJ_SYM_NORM, 1.0),
                                  np.float32)
        rng = np.random.default_rng(0)
        src, dst, x = (ad.Tensor(rng.standard_normal(shape).astype(np.float32),
                                 requires_grad=True) for shape in ((40, 1), (40, 1), (40, 3)))
        seen = []
        exp = np.exp

        def recording_exp(v, *args, **kwargs):
            seen.append(v.dtype)
            return exp(v, *args, **kwargs)
        monkeypatch.setattr(np, "exp", recording_exp)
        out = ad.edge_attn_agg(op, src, dst, x)
        ad.backward(ad.sum_all(ad.tanh(out)))
        assert seen and set(seen) == {np.dtype(np.float32)}
        assert out.data.dtype == np.float32
        assert {t.grad.dtype for t in (src, dst, x)} == {np.dtype(np.float32)}

    # sha256 of the output and the three gradients, recorded while the
    # aggregation still ran as np.add.at scatters over the edge list: the bytes
    # of attention are pinned in both dtypes (numpy 2.4, scipy 1.17).
    PINNED = {
        "float32": "78f3f6ca184fbf8ccd15afd95093023e36e36c8dac8c04aecc9da5e0f11f4d93",
        "float64": "4b2e3c13278068e84feabf93c3bb4bcbb2e3999abe13c355dc3e0992a03543cb",
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_pinned_bytes(self, dtype):
        # node 11 is isolated, and sym_norm with c = 0 stores no diagonal, so its
        # row is empty; node 0 has eight neighbours
        edges = [(0, v) for v in range(1, 9)] + [(1, 2), (2, 3), (3, 9), (9, 10), (4, 10)]
        g = graphs.Graph(12, 2, edges, np.zeros((12, 1)), [0] * 12)
        op = graphs.build_operator(
            g, graphs.LaplacianVariant(graphs.Variant.ADJ_SYM_NORM, 0.0), dtype)
        assert op.csr.indptr[11] == op.csr.indptr[12]
        rng = np.random.default_rng(4)
        src, dst, x = (ad.Tensor(2.0 * rng.standard_normal(shape).astype(dtype),
                                 requires_grad=True) for shape in ((12, 1), (12, 1), (12, 5)))
        out = ad.edge_attn_agg(op, src, dst, x)
        grads = out.vjp(rng.standard_normal((12, 5)).astype(dtype))
        arrays = (out.data, *grads)
        assert {a.dtype for a in arrays} == {np.dtype(dtype)}
        digest = hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
        assert digest == self.PINNED[np.dtype(dtype).name]

    def test_attention_rows_sum_to_one(self):
        s = self.path3()
        rng = np.random.default_rng(0)
        src = ad.Tensor(rng.standard_normal((3, 1)))
        dst = ad.Tensor(rng.standard_normal((3, 1)))
        ones = ad.Tensor(np.ones((3, 1)))
        out = ad.edge_attn_agg(s, src, dst, ones)
        assert np.allclose(out.data, 1.0, atol=1e-6)


class TestAdam:
    def test_zero_gradient_no_motion(self):
        p = ad.Tensor(np.array([[2.0]]), requires_grad=True)
        state = ad.AdamState()
        p.grad = np.zeros((1, 1))
        ad.step_adam({"p": p}, state, lr=0.1)
        assert p.data[0, 0] == 2.0

    def test_first_step_magnitude(self):
        p = ad.Tensor(np.array([[0.0]]), requires_grad=True)
        state = ad.AdamState()
        p.grad = np.ones((1, 1))
        ad.step_adam({"p": p}, state, lr=0.1)
        assert abs(p.data[0, 0] + 0.1) < 1e-6

    def test_deterministic_trajectory(self):
        def run():
            rng = np.random.default_rng(0)
            p = ad.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
            state = ad.AdamState()
            traj = []
            for step in range(5):
                p.grad = rng.standard_normal((3, 3))
                ad.step_adam({"p": p}, state, lr=0.05, weight_decay=1e-3)
                traj.append(p.data.copy())
            return traj
        for a, b in zip(run(), run()):
            assert np.array_equal(a, b)

    def test_nonfinite_gradient_raises(self):
        p = ad.Tensor(np.zeros((1, 1)), requires_grad=True)
        p.grad = np.array([[np.nan]])
        with pytest.raises(NumericalError):
            ad.step_adam({"p": p}, ad.AdamState())

    def test_step_clears_every_gradient(self):
        params = {name: ad.Tensor(np.zeros((2, 2)), requires_grad=True) for name in "pq"}
        for t in params.values():
            t.grad = np.ones((2, 2))
        ad.step_adam(params, ad.AdamState(), lr=0.1)
        assert all(t.grad is None for t in params.values())

    def test_parameter_without_gradient_is_left_alone(self):
        p = ad.Tensor(np.zeros((1, 1)), requires_grad=True)
        q = ad.Tensor(np.array([[3.0]]), requires_grad=True)
        state = ad.AdamState()
        p.grad = np.ones((1, 1))
        ad.step_adam({"p": p, "q": q}, state, lr=0.1)
        assert q.data[0, 0] == 3.0 and q.grad is None
        assert "q" not in state.m and "q" not in state.v
        assert "p" in state.m and p.data[0, 0] != 0.0
