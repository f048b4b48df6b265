"""Runtime loader for the native C kernels and control unit.

:mod:`repro.codegen.native` generates one C translation unit per
program; this module turns that text into a callable control unit:

- **content-addressed builds** — the shared library lands in
  ``<cache root>/native/<key>.so`` where the key hashes the generated
  source together with the compiler identity, the flags, and the ABI
  version (:data:`repro.codegen.native.NATIVE_VERSION`). A warm run —
  or a second process on the same host — never re-invokes the
  compiler; it just ``dlopen``\\ s the existing artifact. The ``.c``
  source is kept beside the ``.so`` for debuggability. The cache is
  relocatable: nothing in the key or the artifact mentions absolute
  paths, only content.
- **cffi ABI mode** — ``ffi.cdef`` + ``ffi.dlopen``; no ``Python.h``
  and no compile-against-CPython step. The ``cdef`` declares only
  ``msc_run``, the one entry point, so loading parses one declaration
  however many nodes the program has.
- **graceful degradation** — :func:`unavailable_reason` is the single
  availability seam (cffi importable, a C compiler on ``PATH``, not
  killed via ``REPRO_NATIVE_DISABLE=1``); the machine checks it before
  selecting the backend and falls back to ``kernels`` with a
  ``RuntimeWarning`` when it is set. Build failures — a compiler that
  exits nonzero, cannot be spawned, or outlives
  :data:`BUILD_TIMEOUT_S`, or a cache directory that cannot be created
  or written — raise :class:`NativeBuildError`, which the machine
  treats the same way. A cached ``.so`` that fails to ``dlopen``
  (truncated or overwritten) is evicted and rebuilt once; if the
  rebuild will not load either, that is a build failure too.

A :class:`ControlUnit` casts every state pointer once per run; each
:meth:`ControlUnit.run` is then one call into ``msc_run``, which runs meta steps until the run ends or it yields
a step back to the machine (see :mod:`repro.codegen.native`). A
positive return code raises :class:`NativeKernelError`; the machine
replays the run on the ``kernels`` backend to reconstruct the exact
:class:`~repro.errors.MachineError` (simulation is deterministic, and
state is discarded on error).
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.codegen.native import CDEF, NATIVE_ERROR_MESSAGES, NATIVE_VERSION

#: Compile flags (part of the shared-library cache key). ``-fwrapv``
#: pins signed-integer wraparound to the two's-complement behavior the
#: NumPy oracle exhibits.
CFLAGS = ("-O2", "-fPIC", "-fwrapv", "-shared")

#: Linker inputs (``trunc`` needs libm on some toolchains).
LDFLAGS = ("-lm",)

#: Seconds one compiler invocation may take before the build counts as
#: failed. A hung compiler must end in the warned ``kernels`` fallback,
#: not a hung run; but the largest library workload (``collatz_depth``)
#: takes ~35 s to build cold at ``-O2`` with gcc on a 2-CPU x86-64
#: host, so the limit sits well above that.
BUILD_TIMEOUT_S = 300


class NativeBuildError(Exception):
    """The C compiler was present but the build failed; the machine
    falls back to the ``kernels`` backend with a RuntimeWarning."""


class NativeKernelError(Exception):
    """A native kernel reported a failing lane. Carries the error code;
    the authoritative message comes from the kernels-backend replay."""

    def __init__(self, code: int):
        self.code = int(code)
        msg = NATIVE_ERROR_MESSAGES.get(self.code, "unknown native error")
        super().__init__(f"native kernel error {self.code}: {msg}")


def _find_cc() -> str | None:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def unavailable_reason() -> str | None:
    """Why ``backend=native`` cannot run here, or ``None`` when it can.
    The single availability seam — tests monkeypatch the pieces this
    checks (``REPRO_NATIVE_DISABLE``, cffi import, compiler lookup)."""
    if os.environ.get("REPRO_NATIVE_DISABLE"):
        return "native kernels disabled via REPRO_NATIVE_DISABLE"
    try:
        import cffi  # noqa: F401
    except ImportError:
        return "cffi is not importable"
    if _find_cc() is None:
        return "no C compiler (cc/gcc/clang) on PATH"
    return None


def native_available() -> bool:
    return unavailable_reason() is None


_compiler_id: str | None = None


def compiler_id() -> str:
    """Identity of the toolchain (path + version line) — part of the
    shared-library cache key so a compiler upgrade rebuilds."""
    global _compiler_id
    if _compiler_id is None:
        cc = _find_cc()
        if cc is None:
            raise NativeBuildError("no C compiler (cc/gcc/clang) on PATH")
        try:
            out = subprocess.run([cc, "--version"], capture_output=True,
                                 text=True, timeout=30)
            version = (out.stdout or out.stderr).splitlines()[0].strip()
        except (OSError, subprocess.TimeoutExpired, IndexError):
            version = "unknown"
        _compiler_id = f"{cc} {version}"
    return _compiler_id


def native_cache_dir() -> Path:
    """Where compiled shared libraries live — a sibling namespace of
    the pickled-bundle cache under the same root (and therefore under
    the same ``REPRO_MSC_CACHE`` override)."""
    from repro.stages.cache import default_cache_root

    return default_cache_root() / "native"


def artifact_key(nat) -> str:
    """Content address of the built artifact: source digest + compiler
    identity + flags + ABI version."""
    blob = "\x00".join([
        nat.digest(),
        compiler_id(),
        " ".join(CFLAGS + LDFLAGS),
        str(NATIVE_VERSION),
    ])
    return hashlib.sha256(blob.encode()).hexdigest()


def build_shared(nat) -> Path:
    """Compile ``nat``'s C source into the content-addressed shared
    library (or return the already-built artifact). Atomic: concurrent
    builders race benignly via ``os.replace``. Every failure — the
    cache directory, the compiler spawn, its exit status, or its
    timeout — raises :class:`NativeBuildError`."""
    cc = _find_cc()
    if cc is None:
        raise NativeBuildError("no C compiler (cc/gcc/clang) on PATH")
    key = artifact_key(nat)
    root = native_cache_dir()
    so_path = root / f"{key}.so"
    if so_path.exists():
        return so_path
    tmp_so = None
    try:
        root.mkdir(parents=True, exist_ok=True)
        c_path = root / f"{key}.c"
        fd, tmp = tempfile.mkstemp(dir=root, suffix=".c")
        with os.fdopen(fd, "w") as fh:
            fh.write(nat.c_source)
        os.replace(tmp, c_path)
        fd, tmp_so = tempfile.mkstemp(dir=root, suffix=".so")
        os.close(fd)
        cmd = [cc, *CFLAGS, str(c_path), "-o", tmp_so, *LDFLAGS]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise NativeBuildError(
                f"{' '.join(cmd)} failed:\n{proc.stderr.strip()}")
        os.replace(tmp_so, so_path)
        tmp_so = None
    except subprocess.TimeoutExpired as err:
        raise NativeBuildError(
            f"{cc} did not finish within {BUILD_TIMEOUT_S} s") from err
    except OSError as err:
        raise NativeBuildError(str(err)) from err
    finally:
        if tmp_so is not None:  # half-built artifact
            with contextlib.suppress(OSError):
                os.unlink(tmp_so)
    return so_path


#: Largest ``max_steps`` ``msc_run`` takes (an int64); any larger
#: limit cannot be reached by a run anyway.
_MAX_STEPS = (1 << 63) - 1


class NativeLibrary:
    """A dlopen'd program module: ``msc_run`` and the node numbering it
    uses (``keys[i]`` is node ``i``)."""

    def __init__(self, ffi, lib, nat):
        self.ffi = ffi
        self.lib = lib
        self.keys = nat.node_keys
        self.index = {key: i for i, key in enumerate(self.keys)}


class ControlUnit:
    """``msc_run`` bound to one run's machine state. Every pointer is
    cast once here (``PeState`` never reallocates its arrays), so a
    :meth:`run` is one foreign call however many meta steps it takes."""

    def __init__(self, library: NativeLibrary, pc: np.ndarray, st):
        cast = library.ffi.cast
        self.keys = library.keys
        self.index = library.index
        self.acc = np.zeros(6, dtype=np.int64)
        self.visits = np.zeros(len(self.keys), dtype=np.int64)
        self._at = np.zeros(1, dtype=np.int64)
        pc0 = np.empty(pc.shape[0], dtype=np.int64)
        self._arrays = (pc, st, pc0)  # alive while the pointers are

        def i64p(a):
            return cast("int64_t *", a.ctypes.data)

        def f64p(a):
            return cast("double *", a.ctypes.data)

        self._msc_run = library.lib.msc_run
        self._at_p = i64p(self._at)
        self._state = (
            i64p(self.acc), i64p(self.visits),
            i64p(pc), pc.shape[0],
            f64p(st.stack), st.stack.strides[0] // 8, st.stack.shape[0],
            i64p(st.sp),
            f64p(st.rstack), st.rstack.strides[0] // 8, st.rstack.shape[0],
            i64p(st.rsp),
            f64p(st.poly), st.poly.strides[0] // 8,
            f64p(st.mono), f64p(st.pids), st.npes,
            i64p(pc0),
        )

    def run(self, current, max_steps: int,
            counts: tuple) -> tuple[int, object, tuple]:
        """Run meta steps from node ``current`` with the running
        ``counts`` (steps, cycles, body, transition and enabled-PE
        cycles, transitions). Returns the status
        (:data:`~repro.codegen.native.MSC_DONE` / ``MSC_STEP`` /
        ``MSC_DISPATCH``), the node it stopped at, and the updated
        counts; a lane error raises :class:`NativeKernelError`."""
        self._at[0] = self.index[current]
        self.acc[:] = counts
        rc = self._msc_run(self._at_p, min(max_steps, _MAX_STEPS),
                           *self._state)
        if rc > 0:
            raise NativeKernelError(rc)
        return rc, self.keys[int(self._at[0])], tuple(self.acc.tolist())

    def node_visits(self) -> dict:
        """``node key -> visits`` for every node ``msc_run`` ran."""
        return {self.keys[i]: int(self.visits[i])
                for i in np.flatnonzero(self.visits)}


#: digest -> NativeLibrary: keeps the dlopen'd library alive for the
#: process and avoids re-opening per machine.
_loaded: dict = {}


def load_native(nat) -> NativeLibrary:
    """The loaded :class:`NativeLibrary` of ``nat``, building and/or
    dlopening the shared library on first use. ``msc_run`` releases
    the GIL while the C code runs."""
    cached = _loaded.get(nat.digest())
    if cached is not None:
        return cached
    import cffi

    so_path = build_shared(nat)
    ffi = cffi.FFI()
    ffi.cdef(CDEF)
    try:
        lib = ffi.dlopen(str(so_path))
    except OSError:
        # build_shared trusts any existing artifact; a corrupt one is
        # evicted and rebuilt once.
        so_path.unlink(missing_ok=True)
        so_path = build_shared(nat)
        try:
            lib = ffi.dlopen(str(so_path))
        except OSError as err:
            so_path.unlink(missing_ok=True)
            raise NativeBuildError(
                f"rebuilt library does not load: {err}") from err
    library = NativeLibrary(ffi, lib, nat)
    _loaded[nat.digest()] = library
    return library
