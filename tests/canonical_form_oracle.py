"""Slow, independent canonical form of an origami: every start square's
breadth-first relabelling is built in full and the least ``(h, v)`` pair
kept.  The reference that ``squaretiled.surface.canonical_form``, which
abandons a start at its first relabelled entry above the best so far, is
compared against."""

from squaretiled.surface import Origami, perm_inverse


def canonical_form(o):
    """Lexicographically least ``(h, v)`` over the breadth-first
    relabellings (neighbours right, left, up, down) from every start
    square."""
    n = o.n
    hi, vi = perm_inverse(o.h), perm_inverse(o.v)
    best = None
    for start in range(n):
        label = [None] * n
        label[start] = 0
        order = [start]
        head = 0
        while head < len(order):
            i = order[head]
            head += 1
            for j in (o.h[i], hi[i], o.v[i], vi[i]):
                if label[j] is None:
                    label[j] = len(order)
                    order.append(j)
        new_h = tuple(label[o.h[order[k]]] for k in range(n))
        new_v = tuple(label[o.v[order[k]]] for k in range(n))
        cand = (new_h, new_v)
        if best is None or cand < best:
            best = cand
    return Origami(*best)
