"""Capped word search for stabilizers: every word over ``T``, ``T^-1`` and
``S`` up to a length, without immediate shear backtracking, whose action
returns an origami isomorphic to the start.  The exact Schreier generators
of ``squaretiled.monodromy.stabilizer_generators`` replace it; it stays as
a source of further group elements to check against them."""

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
