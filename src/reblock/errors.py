"""Exception hierarchy.

Two broad families matter to the CLI: validation errors (bad inputs,
malformed files, inconsistent configuration -- exit code 1) and geometry
errors (well-formed inputs that the algorithms cannot process -- exit
code 2).  Library callers can catch ``ReblockError`` for everything.
"""

from __future__ import annotations


class ReblockError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ReblockError):
    """Malformed or inconsistent input (file, config, or model data)."""


class GeometryError(ReblockError):
    """Geometrically unprocessable situation in otherwise valid input."""


# --- validation family -------------------------------------------------

class EmptyMesh(ValidationError):
    """A mesh ended up with no usable triangles."""


class MisalignedBlock(ValidationError):
    """A block does not align with its parent's cell grid."""


class NonDyadicDims(ValidationError):
    """Cell counts are not compatible with the requested octree depth."""


class MissingSidedness(ValidationError):
    """Tagging was asked to use a (block, surface) relation it was not given."""


class EmptyInput(ValidationError):
    """An operation that needs at least one element received none."""


# --- geometry family ---------------------------------------------------

class InconsistentSidedness(GeometryError):
    """A block's per-surface signs are incompatible with a layered surface stack."""
