"""
squaretiled: exact computations on square-tiled translation surfaces.

Modules
-------

- :mod:`squaretiled.surface` — origamis, strata, SL(2, Z) action, metric nets
  carrying rational-length data
- :mod:`squaretiled.cylinders` — cylinder decompositions, diagrams, moduli
- :mod:`squaretiled.homology` — integer homology, intersection form, dual
  graphs of cylinder pinches
- :mod:`squaretiled.jump` — leading-order series along a degeneration and
  the two analytic forcing arguments
- :mod:`squaretiled.transverse` — exact interval maps and transverse-cylinder
  searches, which read a cylinder decomposition or a metric net; the
  window-inequality solver
- :mod:`squaretiled.monodromy` — affine stabilizer, its symplectic action on
  homology, exact finiteness decision, core-curve dimension bound
- :mod:`squaretiled.pipeline` — the end-to-end classification pipeline,
  diagram catalogs and report rendering
"""

__version__ = "0.1.0"
