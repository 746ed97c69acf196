"""Capped word search for stabilizers: every word over ``T``, ``T^-1`` and
``S`` up to a length, without immediate shear backtracking, whose action
returns an origami isomorphic to the start.  The exact Schreier generators
of ``squaretiled.monodromy.stabilizer_generators`` replace it; it stays as
a source of further group elements to check against them.  Also
:func:`matrix_word` with its own letter-by-letter inversion, the
reference that ``squaretiled.surface.matrix_word``, which inverts with the
word inversion of the orbit walk, is compared against."""

from squaretiled.surface import act_sl2z, origami_isomorphism

_LETTERS = ("T", "T^-1", "S")
_INVERSE = {"T": "T^-1", "T^-1": "T"}


def stabilizer_generators(o, word_bound):
    """The stabilizing words up to length ``word_bound`` in breadth-first
    order."""
    out = []
    frontier = [((), o)]
    for _ in range(word_bound):
        new_frontier = []
        for word, current in frontier:
            for letter in _LETTERS:
                if word and _INVERSE.get(word[-1]) == letter:
                    continue
                nxt = act_sl2z(current, [letter])
                new_word = word + (letter,)
                if origami_isomorphism(nxt, o) is not None:
                    out.append(new_word)
                new_frontier.append((new_word, nxt))
        frontier = new_frontier
    return out


def matrix_word(m):
    """A word whose ``act_sl2z`` matrix is the ``SL(2, Z)`` matrix ``m``:
    peel ``T`` and ``S`` letters off on the left down to the identity,
    invert the peeled word letter by letter, and cancel ``S^4`` runs and
    ``T T^-1`` pairs."""
    (a, b), (c, d) = m
    if a * d - b * c != 1:
        raise ValueError("matrix is not in SL(2, Z)")
    left = []  # letters applied on the left, in application order
    while c != 0:
        if abs(a) >= abs(c):
            q = a // c
            left.extend(["T^-1"] * q if q >= 0 else ["T"] * (-q))
            a, b = a - q * c, b - q * d
        else:
            left.extend(["S", "S", "S"])
            a, b, c, d = c, d, -a, -b
    if a < 0:
        left.extend(["S", "S"])
        a, b, d = -a, -b, -d
    if b != 0:
        left.extend(["T^-1"] * b if b >= 0 else ["T"] * (-b))
    word = []
    for letter in reversed(left):
        if letter == "S":
            word.extend(["S", "S", "S"])
        else:
            word.append(_INVERSE[letter])
    out = []
    for letter in word:
        out.append(letter)
        if len(out) >= 4 and out[-4:] == ["S", "S", "S", "S"]:
            del out[-4:]
        if len(out) >= 2 and out[-2:] in (["T", "T^-1"], ["T^-1", "T"]):
            del out[-2:]
    return out
