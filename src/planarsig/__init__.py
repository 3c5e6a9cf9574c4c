"""Exact invariants of Lefschetz fibrations over the disk with planar fiber.

The signature of such a fibration equals -m + d, where m is the number
of vanishing cycles and d the dimension of the span of their classes
in first homology of the fiber.  This package computes that formula
and independently recomputes the signature through a gluing pipeline
(the non-additivity correction of a triple of isotropic subspaces in
the homology of the boundary tori), entirely in rational arithmetic.

Each public name is imported from the module that defines it:
``planarsig.linalg``, ``planarsig.surfaces``, ``planarsig.wall``,
``planarsig.fibration``, ``planarsig.properties`` and ``planarsig.cli``.
The package itself holds only ``__version__``.
"""

__version__ = "0.1.0"
