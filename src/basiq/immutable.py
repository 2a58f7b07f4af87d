"""Building blocks of the package's immutable, checked value types.

Every value type is a tuple: a ``checked_tuple`` subclass when its one
``__new__`` checks the fields, a ``typing.NamedTuple`` when nothing needs
checking.  A namedtuple compiles one small ``__new__`` at import, where a
dataclass compiles about six methods.
"""

from collections import namedtuple

import numpy as np

from .errors import InvalidInputError, ShapeError


def readonly_array(arr, name, ndim):
    """A write-protected float64 copy of ``arr``, checked for ``ndim`` dimensions and finiteness."""
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains non-finite values")
    a = a.copy()
    a.setflags(write=False)
    return a


def is_real(value):
    """Whether ``value`` is a Python or numpy int or float.  A bool is an
    int subclass, but True is not a threshold, a penalty or a tolerance."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def checked_tuple(typename, field_names):
    """The namedtuple base of a tuple record whose ``__new__`` checks it.

    namedtuple's own ``_make``, which ``_replace`` calls, skips
    ``__new__``; this one builds through the subclass constructor.
    """
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base
