"""What two result sets must share to be comparable: interpreter, BLAS, CPUs, source."""
from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import sys
from pathlib import Path

import numpy as np

_OPENBLAS_PREFIXES = ("scipy_openblas_", "openblas_")
_OPENBLAS_SUFFIXES = ("64_", "")


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        deps = {}
    return {"name": deps.get("name", "unknown"), "version": deps.get("version", "unknown")}


def _openblas_fn(verb: str):
    """``get_num_threads`` or ``set_num_threads`` of the OpenBLAS numpy loaded, or None."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in _OPENBLAS_PREFIXES:
            for suffix in _OPENBLAS_SUFFIXES:
                fn = getattr(lib, f"{prefix}{verb}{suffix}", None)
                if fn is not None:
                    return fn
    return None


def blas_threads() -> int | None:
    fn = _openblas_fn("get_num_threads")
    if fn is None:
        return None
    fn.restype = ctypes.c_int
    fn.argtypes = []
    return int(fn())


def pin_blas_threads(n: int) -> int | None:
    """Make this process's BLAS use n threads; returns the count it had, or None if unknown.

    The full-batch logistic GEMVs swing between runs by up to 3x under the
    default two OpenBLAS threads on a shared two-CPU machine; one thread holds
    them steady. Child processes keep numpy's default.
    """
    before = blas_threads()
    fn = _openblas_fn("set_num_threads")
    if before is None or fn is None:
        return None
    fn.restype = None
    fn.argtypes = [ctypes.c_int]
    fn(n)
    return before


def _git_commit(root: Path) -> str:
    """HEAD read from the files, so a checkout without git history reports that plainly."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "sharpopt").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def fingerprint(root: Path, blas_default: int | None) -> dict:
    """blas_default is the thread count numpy started with, before any pinning."""
    cpus = os.cpu_count() or 1
    threads_env = os.environ.get("SHARPOPT_THREADS")
    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": blas_threads(),
        "nproc": cpus,
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else cpus,
        "sharpopt_threads": threads_env if threads_env else f"unset (default min(4, {cpus}))",
        "blas_threads_default": blas_default,
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root),
    }
