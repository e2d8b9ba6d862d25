"""Finite posets, downset Heyting algebras, nuclei, Grothendieck topologies,
and the triangle of bijections between subsets, nuclei, and topologies."""

from .errors import *
from .formats import *
from .heyting import *
from .nucleus import *
from .poset import *
from .topology import *
from .triangle import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (errors, formats, heyting, nucleus, poset, topology, triangle)
    for name in module.__all__
)
