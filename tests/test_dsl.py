"""DSL parser, printer, shape checker, compiler, and builtin corpus."""

import numpy as np
import pytest

from specsearch import autodiff as ad
from specsearch import dsl, graphs
from specsearch.dsl.corpus import SEARCHED_NAMES, SEED_NAMES
from specsearch.errors import (DslSyntaxError, ShapeMismatch, UndeclaredIdentifier,
                               UnknownBuiltin)

from conftest import path_graph

DIMS = {"n": 50, "f": 10, "h": 16, "c": 3}


def compile_text(text, graph, hidden=16, seed=0, dtype=np.float64):
    prog = dsl.parse(text)
    dims = {"n": graph.num_nodes, "f": graph.num_features,
            "h": hidden, "c": graph.num_classes}
    typed = dsl.check_shapes(prog, dims)
    return dsl.compile_program(typed, graph, seed=seed, dtype=dtype)


class TestParser:
    def test_corpus_names(self):
        assert set(SEED_NAMES) == {"gcn", "appnp", "gpr", "fagcn-lite"}
        assert len(SEARCHED_NAMES) == 9
        assert len(dsl.builtin_names()) == 13

    @pytest.mark.parametrize("name", dsl.builtin_names())
    def test_corpus_parses_and_round_trips(self, name):
        text = dsl.builtin(name)
        prog = dsl.parse(text)
        printed = dsl.print_program(prog)
        reparsed = dsl.parse(printed)
        assert dsl.print_program(reparsed) == printed

    def test_cora_structure(self):
        prog = dsl.parse(dsl.builtin("cora-appnp-residual"))
        assert prog.loop_count == 4
        assert prog.has_step and prog.has_final

    def test_unbalanced_delimiter_names_line(self):
        text = "mechanism m {\n  init { Z = X; }\n  out { Y = Z; }\n"
        with pytest.raises(DslSyntaxError) as exc:
            dsl.parse(text)
        assert exc.value.line is not None

    def test_unknown_keyword(self):
        with pytest.raises(DslSyntaxError):
            dsl.parse("mechanism m { frobnicate { Z = X; } out { Y = Z; } }")

    def test_k_too_large(self):
        with pytest.raises(DslSyntaxError, match="16"):
            dsl.parse("mechanism m { consts { K = 17; } init { Z = X; }"
                      " step { Z = Z; } out { Y = Z; } }")

    def test_step_requires_k(self):
        with pytest.raises(DslSyntaxError):
            dsl.parse("mechanism m { init { Z = X; } step { Z = Z; }"
                      " out { Y = Z; } }")

    def test_comments_ignored(self):
        a = dsl.parse("mechanism m { # hello\n init { Z = X; } out { Y = Z; } }")
        b = dsl.parse("mechanism m { init { Z = X; } out { Y = Z; } }")
        assert dsl.print_program(a) == dsl.print_program(b)


class TestFuzzRoundTrip:
    """Grammar-directed fuzzing: parse-print-parse is a fixpoint."""

    CALLS1 = ["relu", "elu", "tanh", "sigmoid", "softmax_rows"]

    def random_expr(self, rng, names, depth=0):
        if depth > 3 or rng.random() < 0.3:
            if rng.random() < 0.5 and names:
                return names[rng.integers(len(names))]
            return f"{rng.integers(1, 9)}" if rng.random() < 0.5 else \
                f"{rng.uniform(0.1, 2.0):.3f}"
        kind = rng.integers(4)
        a = self.random_expr(rng, names, depth + 1)
        b = self.random_expr(rng, names, depth + 1)
        if kind == 0:
            op = "+-*".__getitem__(int(rng.integers(3)))
            return f"({a} {op} {b})"
        if kind == 1:
            return f"{self.CALLS1[rng.integers(len(self.CALLS1))]}({a})"
        if kind == 2:
            return f"spmm(Ahat, {a})"
        return f"-({a})"

    def test_200_fuzzed_programs(self):
        rng = np.random.default_rng(123)
        for i in range(200):
            k = int(rng.integers(1, 5))
            alpha = f"{rng.uniform(0.05, 0.95):.3f}"
            body = self.random_expr(rng, ["Z", "X", "X_raw"])
            text = (f"mechanism fuzz{i} {{\n"
                    f"  consts {{ K = {k}; alpha = {alpha}; }}\n"
                    "  graph { Ahat = sym_norm(c=1); }\n"
                    "  init { Z = X; }\n"
                    f"  step {{ Z = alpha * X + {body}; }}\n"
                    "  out { Y = Z; }\n"
                    "}\n")
            prog = dsl.parse(text)
            printed = dsl.print_program(prog)
            assert dsl.print_program(dsl.parse(printed)) == printed


class TestShapeChecker:
    def test_gcn_output_shape(self):
        typed = dsl.check_shapes(dsl.parse(dsl.builtin("gcn")), DIMS)
        assert typed.out_shape == (50, 16)

    @pytest.mark.parametrize("name", dsl.builtin_names())
    def test_corpus_shape_checks(self, name):
        typed = dsl.check_shapes(dsl.parse(dsl.builtin(name)), DIMS)
        assert typed.out_shape in ((50, 16), (50, 3))

    def test_incompatible_matmul(self):
        text = ("mechanism m { init { Z = X @ X; } out { Y = Z; } }")
        with pytest.raises(ShapeMismatch):
            dsl.check_shapes(dsl.parse(text), DIMS)

    def test_undeclared_identifier(self):
        text = "mechanism m { init { Z = Q; } out { Y = Z; } }"
        with pytest.raises(UndeclaredIdentifier, match="Q"):
            dsl.check_shapes(dsl.parse(text), DIMS)

    def test_output_shape_must_be_nh_or_nc(self):
        text = ("mechanism m { init { Z = sum_rows(X); } out { Y = Z; } }")
        with pytest.raises(ShapeMismatch):
            dsl.check_shapes(dsl.parse(text), DIMS)


class TestCompiler:
    @pytest.mark.parametrize("name", dsl.builtin_names())
    def test_corpus_compiles_to_finite_output(self, name):
        g = graphs.gen_synthetic(50, 3, 0.7, 5.0, 10, 1.0, seed=0)
        mech = compile_text(dsl.builtin(name), g)
        rng = np.random.default_rng(1)
        out = mech(ad.Tensor(rng.standard_normal((50, 16))),
                   ad.Tensor(rng.standard_normal((50, 16))))
        assert out.shape in ((50, 16), (50, 3))
        assert np.all(np.isfinite(out.data))

    def test_cora_alpha_one_is_identity(self):
        g = graphs.gen_synthetic(30, 3, 0.8, 4.0, 8, 1.0, seed=2)
        text = dsl.builtin("cora-appnp-residual").replace("const(0.15)", "const(1.0)")
        mech = compile_text(text, g)
        rng = np.random.default_rng(7)
        x_in = ad.Tensor(rng.standard_normal((30, 16)))
        x_raw = ad.Tensor(rng.standard_normal((30, 16)))
        assert np.abs(mech(x_in, x_raw).data - x_in.data).max() == 0.0

    def test_gcn_identity_weight_is_one_hop(self):
        g = path_graph(3, feature_dim=4)
        mech = compile_text(dsl.builtin("gcn"), g, hidden=4)
        mech.params["W[1]"].data = np.eye(4)
        rng = np.random.default_rng(3)
        x_in = rng.standard_normal((3, 4))
        out = mech(ad.Tensor(x_in), ad.Tensor(np.zeros((3, 4))))
        ahat = graphs.build_operator(
            g, graphs.LaplacianVariant(graphs.Variant.ADJ_SYM_NORM, 1.0)).to_dense()
        assert np.allclose(out.data, ahat @ x_in, atol=1e-12)

    def test_pruned_norm_matches_prune_op(self):
        g = graphs.gen_synthetic(25, 2, 0.6, 4.0, 5, 1.0, seed=4)
        mech = compile_text(dsl.builtin("pubmed-pruned-residual"), g)
        expected = graphs.prune_mean_std(g, 2.0).to_dense()
        assert np.array_equal(mech.operators["Abar"].to_dense(), expected)

    def test_node_count_linear_in_k(self):
        g = path_graph(5, feature_dim=4)
        counts = []
        for k in (1, 2, 4, 8):
            text = dsl.builtin("appnp").replace("K = 4", f"K = {k}")
            counts.append(len(compile_text(text, g, hidden=4).ops))
        per_step = counts[1] - counts[0]
        base = counts[0] - per_step
        assert per_step > 0
        assert counts == [base + per_step * k for k in (1, 2, 4, 8)]

    def test_compile_deterministic(self):
        g = graphs.gen_synthetic(20, 2, 0.6, 4.0, 5, 1.0, seed=5)
        a = compile_text(dsl.builtin("gcn"), g, seed=9)
        b = compile_text(dsl.builtin("gcn"), g, seed=9)
        assert sorted(a.params) == sorted(b.params)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_unknown_builtin(self):
        with pytest.raises(UnknownBuiltin):
            dsl.builtin("nosuch")
