"""Support vector machines: local SMO-based SVC and the distributed
CascadeSVM estimator of the paper."""

from repro.ml.svm.csvm import CascadeSVM
from repro.ml.svm.kernels import make_kernel, resolve_gamma
from repro.ml.svm.smo import SMOResult, smo_solve
from repro.ml.svm.svc import SVC

__all__ = [
    "SVC",
    "CascadeSVM",
    "smo_solve",
    "SMOResult",
    "make_kernel",
    "resolve_gamma",
]
