"""opbar: exact-arithmetic engine for dg multicategories and bar constructions."""

from .coeff import Ring
from .complexes import ChainComplex, ChainMap, HomologyReport, cone, homology, \
    is_quasi_iso, null_homotopy

__version__ = "0.1.0"

__all__ = [
    "Ring",
    "ChainComplex", "ChainMap", "HomologyReport",
    "cone", "homology", "is_quasi_iso", "null_homotopy",
    "__version__",
]
