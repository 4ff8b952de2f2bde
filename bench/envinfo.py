"""The environment a benchmark run saw: cores, versions, BLAS and threads."""

import ctypes
import os
import platform
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CMVMIX_THREADS")


def _loaded_openblas():
    """Paths of the OpenBLAS builds mapped into this process (numpy and
    scipy each ship one)."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    return sorted(p for p in paths if p.startswith("/"))


def _blas_call(lib, suffix, restype):
    for prefix in ("scipy_openblas_", "openblas_"):
        for tail in ("64_", "_64_", ""):
            fn = getattr(lib, f"{prefix}{suffix}{tail}", None)
            if fn is not None:
                fn.restype = restype
                return fn()
    return None


def blas_runtime():
    """Config string and thread count of each loaded OpenBLAS."""
    out = []
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        config = _blas_call(lib, "get_config", ctypes.c_char_p)
        out.append({"library": Path(path).name,
                    "config": config.decode() if config else None,
                    "threads": _blas_call(lib, "get_num_threads", ctypes.c_int)})
    return out


def blas_threads():
    counts = [b["threads"] for b in blas_runtime() if b["threads"] is not None]
    return max(counts) if counts else 0


def git_sha(root: Path):
    """HEAD commit read from .git without running git, or None outside a
    repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, thread_env: dict, pinned: dict) -> dict:
    """The run's environment; thread_env holds the thread variables as the
    run found them, pinned those it set for its measured processes."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "runtime": blas_runtime()},
        "thread_env": thread_env,
        "pinned_env": pinned,
        "git_sha": git_sha(root),
    }
