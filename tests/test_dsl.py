"""DSL parser, printer, front end (lowering), back end, and builtin corpus."""

import dataclasses
import operator
import re
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsearch import autodiff as ad
from specsearch import dsl, graphs, search, training
from specsearch.dsl.corpus import SEED_NAMES
from specsearch.dsl.parser import (CALLS, DIM_MAX, GRAPH_CTORS, K_MAX, KEYWORDS, MAX_DEPTH,
                                   MAX_TEXT_CHARS)
from specsearch.dsl import nodes
from specsearch.errors import (CompileError, DslSyntaxError, ShapeMismatch,
                               UndeclaredIdentifier, UnknownBuiltin)

from conftest import NESTING_KINDS, nested_program, path_graph

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
        # every other builtin is a searched per-dataset mechanism
        searched = {"cora-appnp-residual", "citeseer-att-residual", "pubmed-pruned-residual",
                    "computer-gpr2", "photo-scaled-residual", "chameleon-gated",
                    "squirrel-att-stack", "texas-powersum-att", "cornell-attn-mix"}
        assert set(dsl.builtin_names()) == set(SEED_NAMES) | searched
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
        assert prog.step_block and prog.final_block

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

    def test_array_bound_capped(self):
        text = ("mechanism m { params { W: scalar[%s] = normal; } init { Z = X * W[1]; }"
                " out { Y = Z; } }")
        assert dsl.parse(text % 16).params[0].array == 16
        for bound in (0, "00", 17, 10**9, "9" * 5000):
            with pytest.raises(DslSyntaxError, match="16"):
                dsl.parse(text % bound)

    def test_integer_dimension_capped(self):
        # above the 16384 rows of OVERSIZED_PROGRAM, which must lower and time out
        text = ("mechanism m { params { W: matrix(%s, h) = glorot; v: vector(%s) = normal; }"
                " init { Z = X; } out { Y = Z; } }")
        prog = dsl.parse(text % (DIM_MAX, "0" + str(DIM_MAX)))
        assert [p.dims for p in prog.params] == [(DIM_MAX, "h"), (DIM_MAX,)]
        for dim in (0, "00", DIM_MAX + 1, 10**20, "9" * 5000):
            for args in ((dim, 1), (1, dim)):
                with pytest.raises(DslSyntaxError, match=f"cap of {DIM_MAX}"):
                    dsl.parse(text % args)

    def test_step_requires_k(self):
        with pytest.raises(DslSyntaxError):
            dsl.parse("mechanism m { init { Z = X; } step { Z = Z; }"
                      " out { Y = Z; } }")

    def test_empty_block_is_no_block(self):
        bare = dsl.parse("mechanism m { init { Z = X; } out { Y = Z; } }")
        # an empty step block unrolls nothing, so it needs no K
        assert dsl.parse("mechanism m { init { Z = X; } step { } final { }"
                         " out { Y = Z; } }") == bare

    @pytest.mark.parametrize("section, item", [
        ("consts", "a = 1"), ("params", "a: scalar = normal"), ("graph", "a = sym_norm()")])
    def test_repeated_name_rejected_at_its_token(self, section, item):
        text = f"mechanism m {{\n  {section} {{ {item}; {item}; }}\n  init {{ Z = X; }} out {{ Y = Z; }} }}"
        with pytest.raises(DslSyntaxError, match=f"'a' is declared twice in {section}") as exc:
            dsl.parse(text)
        assert (exc.value.line, exc.value.col) == (2, text.splitlines()[1].rindex(item) + 1)

    @pytest.mark.parametrize("body", ["", "Z = X;", "Y = X; Y = X;", "Y = X; Z = X;"])
    def test_out_block_assigns_y_once(self, body):
        with pytest.raises(DslSyntaxError, match="one assignment, to Y"):
            dsl.parse(f"mechanism m {{ init {{ Z = X; }} out {{ {body} }} }}")

    def test_comments_ignored(self):
        a = dsl.parse("mechanism m { # hello\n init { Z = X; } out { Y = Z; } }")
        b = dsl.parse("mechanism m { init { Z = X; } out { Y = Z; } }")
        assert dsl.print_program(a) == dsl.print_program(b)

    @pytest.mark.parametrize("expr", ["X + X * X - (X - X)", "X - (X - X)", "X * (X * X)",
                                      "(X + X) * X", "X / (X * X)"])
    def test_printer_brackets_only_where_needed(self, expr):
        text = f"mechanism m {{\n  init {{\n    Z = {expr};\n  }}\n  out {{\n    Y = Z;\n  }}\n}}\n"
        assert dsl.print_program(dsl.parse(text)) == text

    @pytest.mark.parametrize("kind", NESTING_KINDS)
    def test_nesting_at_cap_prints_checks_and_compiles(self, kind):
        prog = dsl.parse(nested_program(kind, MAX_DEPTH))
        assert dsl.parse(dsl.print_program(prog)) == prog
        compile_text(dsl.print_program(prog), path_graph(6))

    @pytest.mark.parametrize("kind", NESTING_KINDS)
    def test_nesting_over_cap_rejected(self, kind):
        with pytest.raises(DslSyntaxError, match=str(MAX_DEPTH)):
            dsl.parse(nested_program(kind, MAX_DEPTH + 1))

    def test_text_length_cap(self):
        text = "mechanism m { init { Z = X; } out { Y = Z; } }\n#"
        at_cap = text + "x" * (MAX_TEXT_CHARS - len(text))
        assert dsl.parse(at_cap) == dsl.parse(text)
        with pytest.raises(DslSyntaxError, match="characters"):
            dsl.parse(at_cap + "x")


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


# Program ASTs drawn from the grammar. Literals are non-negative, as the parser
# reads them: a negative value is a Unary minus. Any name not in KEYWORDS parses,
# declared or not; K is declared whenever a step block or a [K] array needs it.
# Twelve leaves keep every tree far below MAX_DEPTH.
_WORD_START = string.ascii_letters + "_"
IDENTS = st.builds(operator.add, st.sampled_from(_WORD_START),
                   st.text(_WORD_START + string.digits, max_size=3)).filter(
    lambda s: s not in KEYWORDS)
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)


def _compound(sub):
    calls = st.sampled_from(sorted(CALLS)).flatmap(
        lambda fn: st.builds(nodes.Call, st.just(fn), st.tuples(*[sub] * CALLS[fn])))
    return st.one_of(st.builds(nodes.Bin, st.sampled_from("+-*/@"), sub, sub),
                     st.builds(nodes.Unary, st.just("-"), sub),
                     st.builds(nodes.Index, IDENTS, sub), calls)


EXPRS = st.recursive(st.builds(nodes.Num, NON_NEGATIVE) | st.builds(nodes.Name, IDENTS),
                     _compound, max_leaves=12)
BLOCKS = st.lists(st.builds(nodes.Assign, IDENTS, EXPRS), max_size=3).map(tuple)
DIMENSIONS = st.sampled_from("nfhc") | st.integers(1, DIM_MAX)
PARAMS = st.sampled_from([("scalar", 0), ("vector", 1), ("matrix", 2)]).flatmap(
    lambda kind: st.builds(
        nodes.ParamDecl, name=IDENTS, kind=st.just(kind[0]),
        dims=st.tuples(*[DIMENSIONS] * kind[1]),
        array=st.none() | st.just("K") | st.integers(1, K_MAX),
        init=st.sampled_from(["glorot", "normal"]) | st.tuples(st.just("const"), FLOATS)))
GRAPH_DEFS = st.builds(nodes.GraphDef, name=IDENTS, ctor=st.sampled_from(sorted(GRAPH_CTORS)),
                       self_loop=NON_NEGATIVE)


@st.composite
def programs(draw):
    params = draw(st.lists(PARAMS, max_size=3, unique_by=lambda p: p.name))
    step_block = draw(BLOCKS)
    consts = draw(st.lists(st.tuples(IDENTS.filter(lambda s: s != "K"), FLOATS),
                           max_size=3, unique_by=lambda c: c[0]))
    if step_block or any(p.array == "K" for p in params) or draw(st.booleans()):
        consts.insert(draw(st.integers(0, len(consts))), ("K", float(draw(st.integers(1, K_MAX)))))
    return nodes.Program(
        name=draw(IDENTS), consts=tuple(consts), params=tuple(params),
        graph_defs=tuple(draw(st.lists(GRAPH_DEFS, max_size=3, unique_by=lambda g: g.name))),
        init_block=draw(BLOCKS), step_block=step_block, final_block=draw(BLOCKS),
        out_expr=draw(EXPRS))


class TestGeneratedPrograms:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(prog=programs())
    def test_printed_program_parses_to_itself(self, prog):
        assert dsl.parse(dsl.print_program(prog)) == prog


def _tokens(text):
    return re.findall(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|\w+|\S", re.sub(r"#[^\n]*", "", text))


def _token_class(tok):
    return tok[0].isdigit(), tok[0].isalpha() or tok[0] == "_", tok in KEYWORDS


# Every token of the corpus, and tokens that reach the shape, compile and numeric
# checks. A replacement keeps the token's class (number, keyword, other word or
# symbol), and replacements are drawn most often, so more edited texts parse.
EDIT_TOKENS = sorted({t for name in dsl.builtin_names() for t in _tokens(dsl.builtin(name))}
                     | {"0", "17", "1e400", "k", "K", "Q", "W", "@", "/", "pow", "concat"})
TOKEN_CLASSES = {}
for _tok in EDIT_TOKENS:
    TOKEN_CLASSES.setdefault(_token_class(_tok), []).append(_tok)
EDITS = st.lists(st.tuples(st.sampled_from(["delete", "insert", "swap"] + ["replace"] * 3),
                           st.integers(0, 10**6), st.integers(0, 10**6)),
                 min_size=1, max_size=2)


def edited_builtin(name, edits):
    toks = _tokens(dsl.builtin(name))
    for kind, at, pick in edits:
        i = at % len(toks)
        if kind == "delete":
            del toks[i]
        elif kind == "insert":
            toks.insert(i, EDIT_TOKENS[pick % len(EDIT_TOKENS)])
        elif kind == "replace":
            same = TOKEN_CLASSES[_token_class(toks[i])]
            toks[i] = same[pick % len(same)]
        elif i + 1 < len(toks):
            toks[i], toks[i + 1] = toks[i + 1], toks[i]
    return " ".join(toks)


class TestTokenEdits:
    """Property tests: random token edits of the builtin texts."""

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(name=st.sampled_from(dsl.builtin_names()), edits=EDITS)
    def test_front_end_rejects_with_a_program_label(self, name, edits):
        g = path_graph(5, feature_dim=4)
        try:
            typed = training.lower(edited_builtin(name, edits), g, training.TrainConfig(hidden=8))
        except Exception as exc:
            assert training.discard_reason(exc) in ("parse", "shape", "compile", "numeric")
        else:
            assert isinstance(typed, dsl.TypedProgram)

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(name=st.sampled_from(dsl.builtin_names()), edits=EDITS)
    def test_printed_program_parses_to_itself(self, name, edits):
        text = edited_builtin(name, edits)
        try:
            prog = dsl.parse(text)
        except DslSyntaxError:
            return
        printed = dsl.print_program(prog)
        assert dsl.parse(printed) == prog
        assert search.dedup_key(text) == search.dedup_key(printed)

        def lowered(source):
            # Warnings carry source positions, so they are left out.
            try:
                typed = dsl.check_shapes(dsl.parse(source), DIMS)
            except Exception as exc:
                return type(exc)
            return dataclasses.replace(typed, warnings=[])
        # Equal keys lower alike, so a memo hit on the key equals a retrain.
        assert lowered(text) == lowered(printed)


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

    @pytest.mark.parametrize("expr, match", [
        ("X + concat(X, X)", "do not broadcast"),
        ("X @ X", "inner dims differ"),
        ("spmm(A, W)", "spmm: operator is"),
        ("concat(X, W)", "concat: row counts differ"),
        ("attn_agg(A, X, sum_rows(X), X)", "scores must be"),
        ("pow(W, 2)", "pow base must be scalar"),
    ], ids=["broadcast", "matmul", "spmm", "concat", "attn_agg", "pow"])
    def test_each_shape_rule_is_a_shape_mismatch(self, expr, match):
        # The ops trust the front end to have checked each of these rules.
        text = ("mechanism m { params { W: matrix(h, h) = glorot; }"
                " graph { A = sym_norm(c=1); }"
                f" init {{ Z = {expr}; }} out {{ Y = X; }} }}")
        with pytest.raises(ShapeMismatch, match=match):
            dsl.check_shapes(dsl.parse(text), DIMS)

    def test_undeclared_identifier(self):
        text = "mechanism m { init { Z = Q; } out { Y = Z; } }"
        with pytest.raises(UndeclaredIdentifier, match="Q"):
            dsl.check_shapes(dsl.parse(text), DIMS)

    def test_output_shape_must_be_nh_or_nc(self):
        text = ("mechanism m { init { Z = sum_rows(X); } out { Y = Z; } }")
        with pytest.raises(ShapeMismatch):
            dsl.check_shapes(dsl.parse(text), DIMS)


def _leaves(value):
    """Every value inside nested dataclasses, tuples, lists and dicts."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        value = list(value.items())
    if isinstance(value, (tuple, list)):
        return [leaf for v in value for leaf in _leaves(v)]
    return [value]


class TestLowering:
    @pytest.mark.parametrize("name", dsl.builtin_names())
    def test_static_shapes_match_arrays(self, name):
        g = graphs.gen_synthetic(50, 3, 0.7, 5.0, 10, 1.0, seed=0)
        typed = dsl.check_shapes(dsl.parse(dsl.builtin(name)), DIMS)
        mech = dsl.compile_program(typed, g)
        rng = np.random.default_rng(1)
        x_in, x_raw = (ad.Tensor(rng.standard_normal((50, 16))) for _ in range(2))
        vals = mech.slots.copy()
        vals[0], vals[1] = x_in, x_raw
        assert len(mech.ops) == len(typed.ops)
        for (fn, args, out), op in zip(mech.ops, typed.ops):
            vals[out] = fn(*[vals[i] for i in args])
            assert vals[out].shape == op.shape, op
        assert vals[typed.out].shape == typed.out_shape
        assert mech(x_in, x_raw).shape == typed.out_shape

    @pytest.mark.parametrize("name", dsl.builtin_names())
    def test_lowered_program_holds_no_array_or_ast(self, name):
        typed = dsl.check_shapes(dsl.parse(dsl.builtin(name)), DIMS)
        ast_types = tuple(v for v in vars(nodes).values()
                          if isinstance(v, type) and v.__module__ == nodes.__name__)
        for leaf in _leaves(typed):
            assert not isinstance(leaf, (np.ndarray, ad.Tensor) + ast_types), leaf

    def test_parameters_in_declaration_order(self):
        text = ("mechanism m { consts { K = 2; } params { a: scalar = const(0.5);"
                " W: matrix(h, h)[K] = glorot; b: vector(h) = normal; }"
                " init { Z = X; } step { Z = Z @ W[k] * a + b; } out { Y = Z; } }")
        typed = dsl.check_shapes(dsl.parse(text), DIMS)
        assert [(name, shape, init) for _, name, shape, init in typed.params] == [
            ("a", (1, 1), ("const", 0.5)), ("W[1]", (16, 16), "glorot"),
            ("W[2]", (16, 16), "glorot"), ("b", (1, 16), "normal")]

    def test_loop_unrolled_and_constants_folded(self):
        text = ("mechanism m { consts { K = 3; alpha = 0.5; } graph { A = sym_norm(c=1); }"
                " init { Z = X; } step { Z = spmm(A, Z) * (alpha * k); } out { Y = Z; } }")
        typed = dsl.check_shapes(dsl.parse(text), DIMS)
        assert [op.fn for op in typed.ops] == ["spmm", "*"] * 3
        assert [value for _, value in typed.unit_tensors] == [0.5, 1.0, 1.5]
        assert typed.consts == ()
        assert [variant for _, _, variant in typed.operators] == [
            graphs.LaplacianVariant(graphs.Variant.ADJ_SYM_NORM, 1.0)]

    @pytest.mark.parametrize("index", ["k + 1", "0", "1.5"])
    def test_index_outside_array_is_compile_error(self, index):
        text = ("mechanism m { consts { K = 2; } params { W: matrix(h, h)[K] = glorot; }"
                f" init {{ Z = X; }} step {{ Z = Z @ W[{index}]; }} out {{ Y = Z; }} }}")
        with pytest.raises(CompileError):
            dsl.check_shapes(dsl.parse(text), DIMS)

    def test_negating_a_graph_operator_is_shape_error(self):
        text = ("mechanism m { graph { A = sym_norm(c=1); }"
                " init { Z = spmm(-A, X); } out { Y = Z; } }")
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
