"""Symbols of demand strings.

A demand describes which parts of a value are needed, as a set of strings.
Besides the two selectors (0 = head, 1 = tail) the symbolic alphabet has
0̄ and 1̄, which record a construction that a later matching selector will
cancel, and 2, which records an operation that inspects only the spine of a
value, so that whatever demand follows it collapses to "the value itself is
needed".

The library runs the calculus over these strings (simplification S and
canonicalization C) on automata, in ``regular`` and ``slicer``. Its
string-level form, fold by fold, is a test oracle in ``tests/oracles.py``.
"""

SEL0 = "0"
SEL1 = "1"
BAR0 = "0b"
BAR1 = "1b"
TWO = "2"

ALPHABET = (SEL0, SEL1, BAR0, BAR1, TWO)
SELECTORS = (SEL0, SEL1)
BAR_OF = {SEL0: BAR0, SEL1: BAR1}
SEL_OF = {BAR0: SEL0, BAR1: SEL1}
