"""AST node types for the propagation DSL.

Position fields are excluded from equality so structurally identical programs
compare equal regardless of formatting.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Num:
    value: float
    pos: tuple = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Name:
    ident: str
    pos: tuple = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Index:
    """Array-parameter access, e.g. W[k] or W[K]."""
    name: str
    index: object
    pos: tuple = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Unary:
    op: str
    operand: object
    pos: tuple = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object
    pos: tuple = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple
    pos: tuple = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Assign:
    target: str
    expr: object
    pos: tuple = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ParamDecl:
    name: str
    kind: str                 # 'scalar' | 'vector' | 'matrix'
    dims: tuple               # () for scalar; symbols 'n','f','h','c' or ints
    array: object             # None, 'K', or an int >= 1
    init: object              # 'glorot' | 'normal' | ('const', value)


@dataclass(frozen=True)
class GraphDef:
    name: str
    ctor: str                 # a graphs.Variant value, e.g. sym_norm
    self_loop: float          # the c constant; 0 when the ctor takes none


@dataclass(frozen=True)
class Program:
    name: str
    consts: tuple             # ((name, value), ...)
    params: tuple             # ParamDecl...
    graph_defs: tuple         # GraphDef...
    init_block: tuple         # Assign...
    step_block: tuple         # Assign..., unrolled K times; () when empty or absent
    final_block: tuple        # Assign...; () when empty or absent
    out_expr: object          # the expression the out block assigns to Y

    def const(self, name, default=None):
        for k, v in self.consts:
            if k == name:
                return v
        return default

    @property
    def loop_count(self):
        k = self.const("K")
        return int(k) if k is not None else 0
