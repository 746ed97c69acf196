"""Slow, independent canonical keys of cylinder diagrams: the first-seen
traversal of ``squaretiled.cylinders.CylinderDiagram.canonical_key`` run
from every anchor, one per saddle (every rotation of every bottom word),
with no rule about which anchors can win.  The reference that the
package's keys and the catalog oracle's deduplication are compared
against, key value by key value.

A traversal places the anchor's bottom word first, then repeatedly the
unplaced word holding the smallest named saddle, rotated to start at it;
when no saddle leads on, it branches over every rotation of the other
side of the earliest placed word whose other side is unplaced.  Words
are recorded as ``(side, cylinder, saddles)``, cylinders and saddles
renamed in first-seen order; the words fix the zeros, so no zero is
recorded.
"""


def canonical_key(diagram):
    diagram.validate()
    words, where = {}, {}
    for side, table in enumerate((diagram.bottom_words, diagram.top_words)):
        for cid, word in enumerate(table):
            words[side, cid] = word
            for i, sid in enumerate(word):
                where[side, sid] = (cid, i)
    return min(encoding
               for cid, word in enumerate(diagram.bottom_words)
               for rot in range(len(word))
               for encoding in _traverse(words, where, [], [], {}, {},
                                         (0, cid, rot), 0))


def _traverse(words, where, records, placed, names, cylinders, start,
              next_saddle):
    """Copy a traversal (``records`` and ``placed`` words in order,
    ``names`` of saddles and ``cylinders`` in first-seen order), place the
    word ``start = (side, cylinder, rotation)``, extend through saddles,
    and yield every completed encoding."""
    records, placed = list(records), list(placed)
    names, cylinders = dict(names), dict(cylinders)

    def place(side, cid, rot):
        word = words[side, cid][rot:] + words[side, cid][:rot]
        for sid in word:
            names.setdefault(sid, len(names))
        cylinders.setdefault(cid, len(cylinders))
        placed.append((side, cid))
        records.append((side, cylinders[cid],
                        tuple(names[sid] for sid in word)))

    place(*start)
    while next_saddle < len(names):
        sid = list(names)[next_saddle]
        next_saddle += 1
        for side in (0, 1):
            cid, i = where[side, sid]
            if (side, cid) not in placed:
                place(side, cid, i)
    if len(placed) == len(words):
        yield tuple(records)
        return
    side, cid = next(((s, c) for s, c in placed if (1 - s, c) not in placed),
                     (None, None))
    if side is None:
        raise ValueError("cylinder diagram is disconnected")
    for rot in range(max(len(words[1 - side, cid]), 1)):
        yield from _traverse(words, where, records, placed, names, cylinders,
                             (1 - side, cid, rot), next_saddle)
