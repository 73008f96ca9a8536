"""Pseudo-spectral simulator and verification harness for the 2D dissipative
surface transport equation with fractional dissipation on a periodic box.

A name is public if and only if it is in its module's ``__all__``; the
package re-exports those six lists, and ``sqglab.cli`` is reached as a module.
"""

__version__ = "0.1.0"

from . import decay, fields, lemmas, norms, solver, spectral
from .decay import *  # noqa: F403
from .fields import *  # noqa: F403
from .lemmas import *  # noqa: F403
from .norms import *  # noqa: F403
from .solver import *  # noqa: F403
from .spectral import *  # noqa: F403

__all__ = [
    *decay.__all__, *fields.__all__, *lemmas.__all__,
    *norms.__all__, *solver.__all__, *spectral.__all__,
]
