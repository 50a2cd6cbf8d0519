"""The execution engines the differential suites fan out over."""

from repro.compiler.kernels import numpy_available
from repro.compiler.vector import classify_vector
from repro.lang import check_types, flatten
from repro.lang.spec import FlatSpec

#: Generated code everywhere, plus the vector engine wherever numpy is
#: present (without it the suites must still pass).
ENGINES = ("codegen",) + (("vector",) if numpy_available() else ())


def engines_for(spec, rewrite=False):
    """:data:`ENGINES` that run *spec* (compiled with *rewrite*): an
    explicit ``vector`` request refuses specs the columnar program does
    not cover entirely."""
    flat = spec if isinstance(spec, FlatSpec) else flatten(spec)
    if not flat.types:
        check_types(flat)
    if rewrite:
        from repro.opt import optimize_flat

        flat = optimize_flat(flat).flat
    columnar = classify_vector(flat).columnar
    return tuple(e for e in ENGINES if e != "vector" or columnar)
