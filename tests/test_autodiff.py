"""Autodiff forward semantics, gradient correctness, and the Adam optimizer."""

import numpy as np
import pytest

from specsearch import autodiff as ad
from specsearch import graphs
from specsearch.errors import NumericalError, ShapeMismatch

from conftest import check_gradients


def sparse_from_dense(m):
    rows, cols = np.nonzero(m)
    return graphs.SparseOp.from_coords(m.shape[0], m.shape[1], rows, cols, m[rows, cols])


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

    def test_matmul_shape_error(self):
        a = ad.Tensor(np.zeros((2, 3)))
        with pytest.raises(ShapeMismatch, match="matmul"):
            ad.matmul(a, ad.Tensor(np.zeros((2, 3))))

    def test_nonfinite_forward_raises(self):
        a = ad.Tensor(np.array([[1e308]]))
        with np.errstate(over="ignore"), pytest.raises(NumericalError):
            ad.mul(a, a)

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
        ad.step_adam({"p": p}, {"p": np.zeros((1, 1))}, state, lr=0.1)
        assert p.data[0, 0] == 2.0

    def test_first_step_magnitude(self):
        p = ad.Tensor(np.array([[0.0]]), requires_grad=True)
        state = ad.AdamState()
        ad.step_adam({"p": p}, {"p": np.ones((1, 1))}, state, lr=0.1)
        assert abs(p.data[0, 0] + 0.1) < 1e-6

    def test_deterministic_trajectory(self):
        def run():
            rng = np.random.default_rng(0)
            p = ad.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
            state = ad.AdamState()
            traj = []
            for step in range(5):
                g = rng.standard_normal((3, 3))
                ad.step_adam({"p": p}, {"p": g}, state, lr=0.05, weight_decay=1e-3)
                traj.append(p.data.copy())
            return traj
        for a, b in zip(run(), run()):
            assert np.array_equal(a, b)

    def test_nonfinite_gradient_raises(self):
        p = ad.Tensor(np.zeros((1, 1)), requires_grad=True)
        with pytest.raises(NumericalError):
            ad.step_adam({"p": p}, {"p": np.array([[np.nan]])}, ad.AdamState())
