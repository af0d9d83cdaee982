"""Race-safe, on-demand compilation of the native kernel library.

:mod:`repro.core.native` compiles its small dependency-free C source with
whatever ``cc`` / ``gcc`` / ``clang`` the machine has and loads the result
through :mod:`ctypes`.  This module owns the build step, its cache and its
concurrency story:

* Libraries land in a **shared cache directory** (``CMP_NATIVE_CACHE`` in
  the environment, or ``<tmpdir>/cmp-repro-native``), keyed by a hash of
  the compiler, flags and source text — a process whose source matches an
  already-built library skips the compiler entirely.  That matters with the
  process scan backend, where forked workers and repeated CLI invocations
  would otherwise each pay a compile.
* Concurrent builders are safe: each process compiles into a **per-pid
  temp file** next to the target and publishes it with an atomic
  ``os.replace``.  Two processes racing on the same key both succeed; the
  loser's rename merely re-publishes identical bytes, and a reader never
  observes a half-written library because the cache path only ever comes
  into existence via the rename.

Compilation uses ``-ffp-contract=off`` so kernels round exactly like the
numpy expressions they replace (no FMA contraction) — the flag is part of
the cache key like everything else that affects the produced code.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

#: Flags every kernel is compiled with.  ``-ffp-contract=off`` is load-
#: bearing for bit-identity: contraction would fuse ``a*x + b*y`` into an
#: FMA, rounding once where the numpy evaluation rounds twice.
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def compiler() -> str | None:
    """The C compiler to use, or ``None`` when the machine has none."""
    return (
        os.environ.get("CC")
        or shutil.which("cc")
        or shutil.which("gcc")
        or shutil.which("clang")
    )


def cache_dir() -> str:
    """Directory holding compiled kernels (``CMP_NATIVE_CACHE`` overrides)."""
    configured = os.environ.get("CMP_NATIVE_CACHE")
    if configured:
        return configured
    return os.path.join(tempfile.gettempdir(), "cmp-repro-native")


def library_path(stem: str, source: str, cc: str) -> str:
    """Cache path for ``source`` compiled by ``cc`` (content-addressed)."""
    key = hashlib.sha256("\x00".join((cc, *FLAGS, source)).encode()).hexdigest()[:16]
    return os.path.join(cache_dir(), f"{stem}-{key}.so")


def load_library(stem: str, source: str) -> ctypes.CDLL | None:
    """Compile ``source`` (or reuse the cached build) and load it.

    Returns ``None`` when no compiler is available; raises on a failed
    compile or load, which callers turn into the numpy fallback.
    """
    cc = compiler()
    if not cc:
        return None
    lib_path = library_path(stem, source, cc)
    if not os.path.exists(lib_path):
        os.makedirs(cache_dir(), exist_ok=True)
        # Build privately, publish atomically: the cache path either does
        # not exist or names a complete library, whatever other processes
        # are doing with the same key right now.
        tmp = f"{lib_path}.{os.getpid()}.tmp"
        src = f"{tmp}.c"
        with open(src, "w", encoding="utf-8") as f:
            f.write(source)
        try:
            subprocess.run(
                [cc, *FLAGS, src, "-o", tmp],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(tmp, lib_path)
        finally:
            for leftover in (src, tmp):
                try:
                    os.unlink(leftover)
                except OSError:
                    pass
    return ctypes.CDLL(lib_path)


__all__ = ["FLAGS", "compiler", "cache_dir", "library_path", "load_library"]
