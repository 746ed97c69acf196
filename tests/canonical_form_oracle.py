"""Slow, independent canonical form of an origami: every start square's
breadth-first relabelling is built in full and the least ``(h, v)`` pair
kept.  The reference that ``squaretiled.surface.canonical_form``, which
runs the traversals in lock step and drops a start at its first relabelled
``h`` entry above the least, is compared against."""

from squaretiled.surface import Origami


def relabellings(o):
    """The breadth-first relabelling ``(h, v)`` (forward neighbours only:
    right, then up) from every start square, in start order."""
    n = o.n
    out = []
    for start in range(n):
        label = [None] * n
        label[start] = 0
        order = [start]
        head = 0
        while head < len(order):
            i = order[head]
            head += 1
            for j in (o.h[i], o.v[i]):
                if label[j] is None:
                    label[j] = len(order)
                    order.append(j)
        new_h = tuple(label[o.h[order[k]]] for k in range(n))
        new_v = tuple(label[o.v[order[k]]] for k in range(n))
        out.append((new_h, new_v))
    return out


def canonical_form(o):
    """Lexicographically least :func:`relabellings` pair."""
    return Origami(*min(relabellings(o)))
