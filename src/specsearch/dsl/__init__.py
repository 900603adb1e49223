"""Propagation-mechanism DSL: parser, canonical printer, corpus, the front end
(`check_shapes`: a parsed program lowered to an array-free `TypedProgram`) and
the back end (`compile_program`: a `CompiledMechanism` for one graph and dtype)."""

from .nodes import (Assign, Bin, Call, GraphDef, Index, Name, Num, ParamDecl,
                    Program, Unary)
from .parser import parse
from .printer import print_program
from .checker import TypedProgram, check_shapes
from .compiler import CompiledMechanism, compile_program
from .corpus import builtin, builtin_names

__all__ = [
    "Assign", "Bin", "Call", "GraphDef", "Index", "Name", "Num", "ParamDecl",
    "Program", "Unary", "parse", "print_program", "TypedProgram", "check_shapes",
    "CompiledMechanism", "compile_program", "builtin", "builtin_names",
]
