"""Frozen diagrams and tableaux shared across the test suite.

Every value here was transcribed and hand-checked cell by cell; tests treat
them as ground truth for enumeration, crystals, rectification, and unlock.
The one computed value, ``LONG_INTERLEAVED``, is a list of contents that
several test modules sweep.
"""

import itertools

from kohnert import Diagram, LabeledDiagram


def tableau(*entries):
    return LabeledDiagram(tuple(((r, c), l) for r, c, l in entries))


def diagram(*cells):
    return Diagram(tuple(cells))


# The nine key Kohnert tableaux of content (0, 3, 2).
KKT_032 = (
    tableau((3, 1, 3), (3, 2, 3), (2, 1, 2), (2, 2, 2), (2, 3, 2)),
    tableau((3, 1, 3), (3, 2, 3), (2, 1, 2), (2, 2, 2), (1, 3, 2)),
    tableau((3, 1, 3), (3, 2, 3), (2, 1, 2), (1, 2, 2), (1, 3, 2)),
    tableau((3, 1, 3), (3, 2, 3), (1, 1, 2), (1, 2, 2), (1, 3, 2)),
    tableau((3, 1, 3), (2, 1, 2), (2, 2, 3), (1, 2, 2), (1, 3, 2)),
    tableau((3, 1, 3), (2, 2, 3), (1, 1, 2), (1, 2, 2), (1, 3, 2)),
    tableau((2, 1, 3), (2, 2, 3), (1, 1, 2), (1, 2, 2), (1, 3, 2)),
    tableau((3, 1, 3), (2, 1, 2), (2, 2, 2), (2, 3, 2), (1, 2, 3)),
    tableau((2, 1, 2), (2, 2, 2), (2, 3, 2), (1, 1, 3), (1, 2, 3)),
)

# The seven lock Kohnert tableaux of content (0, 2, 3).
LKT_023 = (
    tableau((3, 1, 3), (3, 2, 3), (3, 3, 3), (2, 2, 2), (2, 3, 2)),
    tableau((3, 1, 3), (3, 2, 3), (3, 3, 3), (2, 2, 2), (1, 3, 2)),
    tableau((3, 1, 3), (3, 2, 3), (3, 3, 3), (1, 2, 2), (1, 3, 2)),
    tableau((3, 1, 3), (3, 2, 3), (2, 2, 2), (2, 3, 3), (1, 3, 2)),
    tableau((3, 1, 3), (3, 2, 3), (2, 3, 3), (1, 2, 2), (1, 3, 2)),
    tableau((3, 1, 3), (2, 2, 3), (2, 3, 3), (1, 2, 2), (1, 3, 2)),
    tableau((2, 1, 3), (2, 2, 3), (2, 3, 3), (1, 2, 2), (1, 3, 2)),
)

# Key crystal of content (1, 0, 2, 1): eight vertices, lowering edges below.
KEY_1021 = {
    "A": tableau((3, 1, 4), (2, 1, 3), (1, 1, 1), (1, 2, 3)),
    "B": tableau((3, 1, 4), (2, 1, 3), (2, 2, 3), (1, 1, 1)),
    "C": tableau((4, 1, 4), (2, 1, 3), (1, 1, 1), (1, 2, 3)),
    "D": tableau((3, 1, 3), (3, 2, 3), (2, 1, 4), (1, 1, 1)),
    "E": tableau((4, 1, 4), (2, 1, 3), (2, 2, 3), (1, 1, 1)),
    "F": tableau((4, 1, 4), (3, 1, 3), (1, 1, 1), (1, 2, 3)),
    "G": tableau((4, 1, 4), (3, 1, 3), (2, 2, 3), (1, 1, 1)),
    "H": tableau((4, 1, 4), (3, 1, 3), (3, 2, 3), (1, 1, 1)),
}
KEY_1021_EDGES = (
    ("A", "B", 1),
    ("C", "E", 1),
    ("B", "D", 2),
    ("C", "F", 2),
    ("E", "G", 2),
    ("G", "H", 2),
    ("A", "C", 3),
    ("B", "E", 3),
)

# Lock crystal of content (1, 0, 2, 1): five vertices, lowering edges below.
LOCK_1021 = {
    "I": tableau((3, 2, 4), (2, 1, 3), (2, 2, 3), (1, 2, 1)),
    "J": tableau((3, 1, 3), (3, 2, 4), (2, 2, 3), (1, 2, 1)),
    "K": tableau((4, 2, 4), (2, 1, 3), (2, 2, 3), (1, 2, 1)),
    "L": tableau((4, 2, 4), (3, 1, 3), (2, 2, 3), (1, 2, 1)),
    "M": tableau((4, 2, 4), (3, 1, 3), (3, 2, 3), (1, 2, 1)),
}
LOCK_1021_EDGES = (
    ("I", "J", 2),
    ("K", "L", 2),
    ("L", "M", 2),
    ("I", "K", 3),
)

# Raising chain on a lock Kohnert tableau of content (0, 3, 4): two color-2
# steps succeed, the third returns nothing even though the bare diagram
# still has an unpaired box in row 3.
LKT_034_CHAIN = (
    tableau((3, 1, 3), (3, 2, 3), (3, 3, 3), (3, 4, 3), (2, 2, 2), (1, 3, 2), (1, 4, 2)),
    tableau((3, 1, 3), (3, 2, 3), (3, 3, 3), (2, 4, 3), (2, 2, 2), (1, 3, 2), (1, 4, 2)),
    tableau((3, 1, 3), (3, 2, 3), (2, 3, 3), (2, 4, 3), (2, 2, 2), (1, 3, 2), (1, 4, 2)),
)

# Four rectification steps (indices 2, 1, 1, 2) on a lock Kohnert diagram of
# content (1, 0, 3, 0, 3, 2), and the same walk on the labeled tableau.
RECT_103032_CHAIN = (
    diagram((1, 3), (2, 3), (3, 1), (3, 2), (3, 3), (4, 2), (5, 1), (5, 2), (5, 3)),
    diagram((1, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 2), (5, 1), (5, 2), (5, 3)),
    diagram((1, 1), (2, 3), (3, 1), (3, 2), (3, 3), (4, 2), (5, 1), (5, 2), (5, 3)),
    diagram((1, 1), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (5, 1), (5, 2), (5, 3)),
    diagram((1, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (5, 1), (5, 2), (5, 3)),
)
UNLOCK_103032_CHAIN = (
    tableau((5, 1, 5), (5, 2, 6), (5, 3, 6), (4, 2, 5), (3, 1, 3), (3, 2, 3), (3, 3, 5), (2, 3, 3), (1, 3, 1)),
    tableau((5, 1, 5), (5, 2, 6), (5, 3, 6), (4, 2, 5), (3, 1, 3), (3, 2, 3), (3, 3, 5), (2, 3, 3), (1, 2, 1)),
    tableau((5, 1, 5), (5, 2, 6), (5, 3, 6), (4, 2, 5), (3, 1, 3), (3, 2, 3), (3, 3, 5), (2, 3, 3), (1, 1, 1)),
    tableau((5, 1, 5), (5, 2, 5), (5, 3, 6), (4, 1, 6), (3, 1, 3), (3, 2, 3), (3, 3, 5), (2, 3, 3), (1, 1, 1)),
    tableau((5, 1, 5), (5, 2, 5), (5, 3, 5), (4, 1, 6), (3, 1, 3), (3, 2, 3), (3, 3, 3), (2, 2, 6), (1, 1, 1)),
)
# (step index, chosen box, swaps, push) expected along the unlock walk.
UNLOCK_103032_STEPS = (
    (2, (1, 3, 1), (), ((1, 3), (1, 2))),
    (1, (1, 2, 1), (), ((1, 2), (1, 1))),
    (1, (5, 2, 6), (((5, 2), (4, 2), 6, 5),), ((4, 2), (4, 1))),
    (2, (5, 3, 6), (((5, 3), (3, 3), 6, 5), ((3, 3), (2, 3), 6, 3)), ((2, 3), (2, 2))),
)

# Truncating the same tableau below label 5 keeps the 1 and the three 3s.
TRUNC_103032_BELOW_5 = tableau((3, 1, 3), (3, 2, 3), (2, 3, 3), (1, 3, 1))

# Vertical 2-pairing example with three pairs and two leftover boxes in row 3.
VPAIR_DIAGRAM = diagram(
    (4, 4), (3, 2), (3, 4), (3, 5), (3, 7), (3, 8), (2, 3), (2, 4), (2, 5), (1, 1), (1, 4)
)
VPAIR_PAIRS = (((2, 3), (3, 7)), ((2, 4), (3, 4)), ((2, 5), (3, 5)))
VPAIR_UNPAIRED_UPPER = ((3, 2), (3, 8))


def _interleaved(a):
    """At least two nonzero parts with a zero somewhere between them."""
    nonzero = [i for i, p in enumerate(a) if p]
    return len(nonzero) >= 2 and 0 in a[nonzero[0] : nonzero[-1]]


#: Every third composition of length 6 or 7 with parts <= 4, size <= 5 and a
#: zero between two nonzero parts: longer than the length <= 5 sweeps, as
#: long as the longest query inputs, kept to a third so that reference
#: searches over it stay short.
LONG_INTERLEAVED = [
    a
    for length in (6, 7)
    for a in itertools.product(range(5), repeat=length)
    if sum(a) <= 5 and _interleaved(a)
][::3]
