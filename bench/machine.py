"""The machine record that goes with every benchmark result."""

import ctypes
import glob
import hashlib
import os
import platform
import sys

import numpy as np


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _cpu_model():
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _cache_bytes():
    """{"L2": bytes, "L3": bytes} of cpu0's unified caches, from sysfs."""
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(index, "level")).strip()
        size = _read(os.path.join(index, "size")).strip()
        if level in ("2", "3") and size.endswith("K"):
            out[f"L{level}"] = int(size[:-1]) * 1024
    return out


def _ram_bytes():
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1]) * 1024
    return None


def _blas_threads():
    """Threads numpy's bundled OpenBLAS uses, or None if it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs",
                                  "libscipy_openblas*.so"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def record(matrix_bytes):
    """Machine facts plus each workload's matrix size against the caches."""
    caches = _cache_bytes()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "l2_bytes": caches.get("L2"),
        "l3_bytes": caches.get("L3"),
        "ram_bytes": _ram_bytes(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_threads": _blas_threads(),
        "matrix_bytes": {
            name: {"bytes": b, "fits_l2": b <= caches.get("L2", 0),
                   "fits_l3": b <= caches.get("L3", 0)}
            for name, b in matrix_bytes.items()
        },
    }


def source_digest(package_dir):
    """sha256 over the package's files, to key artifact digests by source."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(package_dir):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, package_dir).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()
