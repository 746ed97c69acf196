"""Eager orbit walk: the ``SL(2, Z)``-orbit graph built in full before any
cusp is read, with the cusp walk as a nested function and the ``S``-edges
read in one outer loop.  The reference that
``squaretiled.monodromy.orbit_graph``, which drains a lazy walk that
yields each cusp as its ``T``-cycle closes, is compared against field by
field."""

from squaretiled.monodromy import OrbitGraph
from squaretiled.surface import act_sl2z, canonical_form

_INVERSE_LETTER = {"T": ("T^-1",), "T^-1": ("T",), "S": ("S", "S", "S")}


def _inverse(word):
    """The word of the inverse affine map: ``S⁻¹`` is ``S S S``."""
    return tuple(x for letter in reversed(word)
                 for x in _INVERSE_LETTER[letter])


def orbit_graph(o):
    """The orbit graph of ``o``: each new member's whole ``T``-cycle is
    walked at once, then the ``S``-image of every member in order."""
    members, words, index, cusps, s_images, schreier = [], [], {}, [], [], []

    def walk_cusp(x, word):
        # the T-cycle of a new member holds only new members, so the walk
        # ends back at its first one
        first = len(members)
        while x not in index:
            index[x] = len(members)
            members.append(x)
            words.append(word)
            x = canonical_form(act_sl2z(x, ("T",)))
            word += ("T",)
        cusps.append((first, len(members) - first))

    walk_cusp(canonical_form(o), ())
    i = 0
    while i < len(members):  # grows while it is read
        x = canonical_form(act_sl2z(members[i], ("S",)))
        word = words[i] + ("S",)
        if x in index:
            schreier.append(word + _inverse(words[index[x]]))
        else:
            walk_cusp(x, word)
        s_images.append(index[x])
        i += 1
    parabolics = [words[first] + ("T",) * width + _inverse(words[first])
                  for first, width in cusps]
    return OrbitGraph(tuple(members), tuple(words), tuple(cusps),
                      tuple(s_images), tuple(parabolics + schreier))
