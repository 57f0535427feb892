"""The environment block recorded with every result."""

from __future__ import annotations

import ctypes
import glob
import os
from pathlib import Path

import numpy
import scipy
import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS copy)

# numpy and scipy wheels each bundle their own OpenBLAS; both pools spin up
# on first use, so both thread counts matter for the timings
_BLAS = {
    "numpy": ("numpy.libs/libscipy_openblas64_*.so", "scipy_openblas_get_num_threads64_"),
    "scipy": ("scipy.libs/libscipy_openblas-*.so", "scipy_openblas_get_num_threads"),
}


def blas_threads() -> dict[str, int | None]:
    site = Path(numpy.__file__).resolve().parent.parent
    out = {}
    for name, (pattern, symbol) in _BLAS.items():
        libs = sorted(glob.glob(str(site / pattern)))
        out[name] = None
        if libs:
            try:
                fn = getattr(ctypes.CDLL(libs[0]), symbol)
            except (OSError, AttributeError):
                continue
            fn.argtypes = []
            fn.restype = ctypes.c_int
            out[name] = int(fn())
    return out


def commit(root: Path) -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = root / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def environment(root: Path) -> dict:
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit(root),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "src_lines": src_lines(root),
    }
