"""Demand-driven slicing for a first-order functional language.

The package computes backward static slices of programs in a small
list-processing language. A slicing criterion is a regular, prefix-closed
set of access paths into the value of ``main``; the slicer erases every
piece of the program that cannot influence the selected parts of the
result, replacing it with a hole.

Two modes are provided. The direct mode solves a demand-flow grammar per
criterion. The incremental mode precomputes one small minimal DFA per
program point, all read off one subset construction shared by the whole
program, and points with equal languages share one automaton; after that,
slicing under any criterion is one regular intersection per distinct
automaton, which is what makes repeated slicing cheap.
"""

from .lang import (
    Program, FunDef, Expr, App, Occ,
    Let, If, Return, Const, Nil, Cons, Car, Cdr, NullQ, Prim, Call, Hole,
    parse_program, validate, print_program, assign_labels,
    FsliceError, ParseError, ValidateError,
)

__version__ = "0.1.0"

__all__ = [
    "Program", "FunDef", "Expr", "App", "Occ",
    "Let", "If", "Return", "Const", "Nil", "Cons", "Car", "Cdr", "NullQ",
    "Prim", "Call", "Hole",
    "parse_program", "validate", "print_program", "assign_labels",
    "FsliceError", "ParseError", "ValidateError",
    "__version__",
]
