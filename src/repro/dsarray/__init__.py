"""Block-distributed arrays — the dislib ``ds-array`` analog."""

from repro.dsarray.array import Array
from repro.dsarray.creation import array, full, ones, zeros

__all__ = [
    "Array",
    "array",
    "zeros",
    "ones",
    "full",
    "vstack",
    "save_npz",
    "load_npz",
]


def __getattr__(name):
    # ops imports runtime tasks which import dsarray; resolve lazily to
    # keep `import repro.dsarray` cycle-free.
    if name in ("vstack", "save_npz", "load_npz"):
        from repro.dsarray import ops

        return getattr(ops, name)
    raise AttributeError(f"module 'repro.dsarray' has no attribute {name!r}")
