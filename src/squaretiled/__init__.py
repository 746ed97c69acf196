"""
squaretiled: exact computations on square-tiled translation surfaces.

Modules
-------

- :mod:`squaretiled.errors` — the exception hierarchy and
  :class:`~squaretiled.errors.Checked`, the base of validated records
- :mod:`squaretiled.intlinalg` — exact integer linear algebra: one Smith
  normal form with its transforms, rank, kernels and unimodularity
- :mod:`squaretiled.surface` — origamis, strata, SL(2, Z) action,
  canonical forms and the one-line text format
- :mod:`squaretiled.cylinders` — cylinder decompositions, diagrams, moduli,
  dual graphs of cylinder pinches (whose genus is the surface's) and their
  ``"Case1"`` ... ``"Case6"`` labels
- :mod:`squaretiled.homology` — integer homology, intersection form
- :mod:`squaretiled.jump` — the two analytic forcing arguments along a
  cylinder pinch, as closed forms in the node exponents
- :mod:`squaretiled.transverse` — transverse-cylinder searches on a
  cylinder decomposition, the Case 4A window argument over whole-unit
  cells; the two-cylinder window data, which reads off its own violated
  inequalities
- :mod:`squaretiled.monodromy` — affine stabilizer, its symplectic action on
  homology, exact finiteness decision, core-curve dimension bound read off
  the cusps of the orbit graph
- :mod:`squaretiled.pipeline` — the end-to-end classification pipeline,
  diagram catalogs and report rendering
- :mod:`squaretiled.cli` — the ``squaretiled`` command line: ``analyze``,
  ``enumerate``, ``monodromy`` and ``report``
"""

__version__ = "0.1.0"
