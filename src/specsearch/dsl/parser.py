"""Tokenizer and recursive-descent parser for the propagation DSL.

The grammar states each rule once:
- one section rule: `section` parses every `kw { item; ... }` block, from
  consts to out;
- one name rule: a section that declares names (consts, params, graph)
  rejects a repeated name at the token that repeats it;
- one bounded-integer rule: `bounded_int` checks an integer dimension
  (1..DIM_MAX) and an integer array bound (1..K_MAX) at their tokens.
"""

from __future__ import annotations

import re

from ..errors import DslSyntaxError
from ..graphs import Variant
from .nodes import (Assign, Bin, Call, GraphDef, Index, Name, Num, ParamDecl,
                    Program, Unary)

KEYWORDS = {"mechanism", "consts", "params", "graph", "init", "step", "final",
            "out", "scalar", "vector", "matrix", "glorot", "normal", "const"}

# The DSL's calls and the number of arguments each takes; the one-argument
# calls act on one tensor.
CALLS = {"relu": 1, "elu": 1, "tanh": 1, "sigmoid": 1, "softmax_rows": 1,
         "sum_rows": 1, "spmm": 2, "pow": 2, "concat": 2, "attn_agg": 4}

# A graph constructor's name is the value of its graphs.Variant.
GRAPH_CTORS = {v.value for v in Variant}

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<number>\d+(\.\d+)?([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>[{}()\[\];,=:@+\-*/])
""", re.VERBOSE)

K_MAX = 16
# An integer parameter dimension sizes an allocation in the worker, so it is
# capped as K is, above the 16384 rows of the oversized program that the
# timeout tests score.
DIM_MAX = 65_536
# Bounds on hostile input. Parsing recurses once per bracket, and printing,
# checking and compiling once per level of an expression tree, so both depths
# are capped well below Python's recursion limit.
MAX_TEXT_CHARS = 32_768
MAX_DEPTH = 64

# The sections whose items declare names, and the rank of each parameter kind.
_DECLARING = ("consts", "params", "graph")
_RANKS = {"scalar": 0, "vector": 1, "matrix": 2}


class _Tok:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"{self.kind}:{self.text!r}@{self.line}:{self.col}"


def _tokenize(text):
    toks = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DslSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        s = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(s)
        else:
            toks.append(_Tok(kind, s, line, col))
            col += len(s)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, msg, tok=None):
        tok = tok or self.peek()
        raise DslSyntaxError(msg, tok.line, tok.col)

    def expect(self, text):
        t = self.next()
        if t.text != text:
            self.fail(f"expected {text!r}, found {t.text!r}", t)
        return t

    def expect_ident(self):
        t = self.next()
        if t.kind != "ident":
            self.fail(f"expected identifier, found {t.text!r}", t)
        return t

    def at(self, text):
        return self.peek().text == text

    def nested_expr(self):
        """An expression inside brackets: parentheses, call arguments or an index."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.fail(f"brackets nested more than {MAX_DEPTH} deep")
        e = self.expr()
        self.depth -= 1
        return e

    def parenthesized(self, item):
        """`( item, ... )`, possibly empty, as a tuple."""
        self.expect("(")
        items = []
        if not self.at(")"):
            items.append(item())
            while self.at(","):
                self.next()
                items.append(item())
        self.expect(")")
        return tuple(items)

    def bounded_int(self, tok, cap, what):
        """The value of an integer token, which must lie in 1..cap. A digit
        string longer than the cap's is over it: int() refuses more than 4300
        digits."""
        if len(tok.text.lstrip("0")) > len(str(cap)) or not 1 <= int(tok.text) <= cap:
            self.fail(f"{what} must be from 1 up to the cap of {cap}", tok)
        return int(tok.text)

    # -- grammar ---------------------------------------------------------

    def program(self):
        self.expect("mechanism")
        name = self.expect_ident().text
        self.expect("{")
        consts = self.section("consts", self.const_def, optional=True)
        params = self.section("params", self.param_decl, optional=True)
        graph_defs = self.section("graph", self.graph_def, optional=True)
        init_block = self.section("init", self.assign)
        step_block = self.section("step", self.assign, optional=True)
        final_block = self.section("final", self.assign, optional=True)
        out_tok = self.peek()
        out = self.section("out", self.assign)
        if [st.target for st in out] != ["Y"]:
            self.fail("out block must hold one assignment, to Y", out_tok)
        self.expect("}")
        if self.peek().kind != "eof":
            self.fail(f"trailing input after mechanism: {self.peek().text!r}")
        prog = Program(name=name, consts=consts, params=params,
                       graph_defs=graph_defs, init_block=init_block,
                       step_block=step_block, final_block=final_block,
                       out_expr=out[0].expr)
        k = prog.const("K")
        if k is None:
            if step_block or any(p.array == "K" for p in params):
                self.fail("K must be declared in consts when a step block or K-sized array is used")
        elif k != int(k) or k < 1:
            self.fail("K must be a positive integer")
        elif k > K_MAX:
            self.fail(f"K exceeds the cap of {K_MAX}")
        return prog

    def section(self, kw, item, optional=False):
        """`kw { item; ... }` as a tuple of items, or () for an optional section
        that is absent. Each item starts with the name it declares or assigns; a
        declaring section names each thing once."""
        if optional and not self.at(kw):
            return ()
        self.expect(kw)
        self.expect("{")
        items, seen = [], set()
        while not self.at("}"):
            t = self.peek()
            if kw in _DECLARING and t.text in seen:
                self.fail(f"{t.text!r} is declared twice in {kw}", t)
            seen.add(t.text)
            items.append(item())
            self.expect(";")
        self.expect("}")
        return tuple(items)

    def const_def(self):
        name = self.expect_ident().text
        self.expect("=")
        return name, self.signed_number()

    def signed_number(self):
        neg = self.at("-")
        if neg:
            self.next()
        v = self.number(self.next())
        return -v if neg else v

    def number(self, t):
        if t.kind != "number":
            self.fail(f"expected number, found {t.text!r}", t)
        v = float(t.text)
        if v == float("inf"):
            self.fail(f"number {t.text} is too large", t)
        return v

    def param_decl(self):
        name = self.expect_ident().text
        self.expect(":")
        t = self.next()
        if t.text not in _RANKS:
            self.fail(f"expected scalar/vector/matrix, found {t.text!r}", t)
        dims = self.parenthesized(self.dim) if _RANKS[t.text] else ()
        if len(dims) != _RANKS[t.text]:
            self.fail(f"{t.text} takes {_RANKS[t.text]} dimension(s), found {len(dims)}", t)
        array = None
        if self.at("["):
            self.next()
            it = self.next()
            if it.text == "K":
                array = "K"
            elif it.text.isdigit():
                # Lowering makes one parameter per array entry before any
                # timeout applies, so an integer bound is capped as K is.
                array = self.bounded_int(it, K_MAX, "an array bound")
            else:
                self.fail(f"array bound must be K or an integer, found {it.text!r}", it)
            self.expect("]")
        self.expect("=")
        init = self.init_spec()
        return ParamDecl(name=name, kind=t.text, dims=dims, array=array, init=init)

    def dim(self):
        t = self.next()
        if t.text in ("n", "f", "h", "c"):
            return t.text
        if t.text.isdigit():
            return self.bounded_int(t, DIM_MAX, "an integer dimension")
        self.fail(f"expected dimension n/f/h/c or integer, found {t.text!r}", t)

    def init_spec(self):
        t = self.next()
        if t.text in ("glorot", "normal"):
            return t.text
        if t.text == "const":
            self.expect("(")
            v = self.signed_number()
            self.expect(")")
            return ("const", v)
        self.fail(f"expected glorot/normal/const(..), found {t.text!r}", t)

    def graph_def(self):
        name = self.expect_ident().text
        self.expect("=")
        ctor = self.expect_ident()
        if ctor.text not in GRAPH_CTORS:
            self.fail(f"unknown graph constructor {ctor.text!r}", ctor)
        self.expect("(")
        c = 0.0
        if not self.at(")"):
            ctok = self.expect_ident()
            if ctok.text != "c":
                self.fail(f"graph constructors take only c=.., found {ctok.text!r}", ctok)
            self.expect("=")
            c = self.signed_number()
            if c < 0:
                self.fail(f"self-loop weight c must be >= 0, got {c:g}", ctok)
        self.expect(")")
        return GraphDef(name=name, ctor=ctor.text, self_loop=c)

    def assign(self):
        t = self.expect_ident()
        self.expect("=")
        e = self.expr()
        if _tree_depth(e) > MAX_DEPTH:
            self.fail(f"expression for {t.text} is more than {MAX_DEPTH} deep", t)
        return Assign(target=t.text, expr=e, pos=(t.line, t.col))

    # -- expressions -----------------------------------------------------

    def expr(self):
        left = self.mulexpr()
        while self.peek().text in ("+", "-"):
            op = self.next()
            right = self.mulexpr()
            left = Bin(op=op.text, left=left, right=right, pos=(op.line, op.col))
        return left

    def mulexpr(self):
        left = self.unary()
        while self.peek().text in ("*", "/", "@"):
            op = self.next()
            right = self.unary()
            left = Bin(op=op.text, left=left, right=right, pos=(op.line, op.col))
        return left

    def unary(self):
        signs = []
        while self.at("-"):
            signs.append(self.next())
        e = self.postfix()
        for t in reversed(signs):
            e = Unary(op="-", operand=e, pos=(t.line, t.col))
        return e

    def postfix(self):
        a = self.atom()
        if self.at("[") and isinstance(a, Name):
            t = self.next()
            idx = self.nested_expr()
            self.expect("]")
            return Index(name=a.ident, index=idx, pos=(t.line, t.col))
        return a

    def atom(self):
        t = self.next()
        if t.kind == "number":
            return Num(value=self.number(t), pos=(t.line, t.col))
        if t.kind == "ident":
            if self.at("("):
                if t.text not in CALLS:
                    self.fail(f"unknown function {t.text!r}", t)
                return Call(fn=t.text, args=self.parenthesized(self.nested_expr),
                            pos=(t.line, t.col))
            if t.text in KEYWORDS:
                self.fail(f"keyword {t.text!r} cannot appear in an expression", t)
            return Name(ident=t.text, pos=(t.line, t.col))
        if t.text == "(":
            e = self.nested_expr()
            self.expect(")")
            return e
        self.fail(f"unexpected token {t.text!r}", t)


def _tree_depth(e):
    """Nodes on the longest root-to-leaf path of an expression, counted without
    recursion."""
    depth, stack = 0, [(e, 1)]
    while stack:
        e, d = stack.pop()
        depth = max(depth, d)
        if isinstance(e, Bin):
            stack += [(e.left, d + 1), (e.right, d + 1)]
        elif isinstance(e, Unary):
            stack.append((e.operand, d + 1))
        elif isinstance(e, Index):
            stack.append((e.index, d + 1))
        elif isinstance(e, Call):
            stack += [(a, d + 1) for a in e.args]
    return depth


def parse(text):
    """Parse DSL source into a Program AST."""
    if not isinstance(text, str):
        raise DslSyntaxError("program text must be a string")
    if len(text) > MAX_TEXT_CHARS:
        raise DslSyntaxError(f"program text longer than {MAX_TEXT_CHARS} characters")
    return _Parser(text).program()
