"""The benchmark's workloads: which program, at what size, on which
backend, and how its output is checked.

Each workload's source comes from :mod:`repro.workloads`; the seed
picks data constants only, so sizes (and with them the work a run
does) stay fixed. The generated ``.mimdc`` file is the only input the
program receives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro import workloads as library


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``repro run`` PE count.
    npes: int
    #: Extra ``repro run`` flags selecting the backend / conversion mode.
    flags: tuple
    #: The ``backend:`` name every invocation must report; ``native``
    #: runs also build one shared library per cache.
    backend: str
    #: ``seed -> MIMDC source``.
    source: Callable[[int], str]
    #: PE count of the ``--check`` invocation against the MIMD oracle.
    check_npes: int
    #: ``seed -> every PE's return value``, computed without the
    #: compiler, for workloads whose oracle check runs at a smaller PE
    #: count.
    expected_returns: Callable[[int], list] | None = None


SORT_MOD = 23


def _sort_constants(seed: int) -> tuple[int, int]:
    rng = random.Random(seed)
    # A nonzero multiplier modulo the prime SORT_MOD keeps the keys
    # distinct across each run of SORT_MOD consecutive PEs.
    return rng.randrange(1, SORT_MOD), rng.randrange(0, SORT_MOD)


def _sort_source(seed: int) -> str:
    mul, add = _sort_constants(seed)
    return library.odd_even_sort(seed_mul=mul, seed_add=add, mod=SORT_MOD)


def _sort_expected(npes: int) -> Callable[[int], list]:
    """The sorted keys, one per PE."""

    def expected(seed: int) -> list:
        mul, add = _sort_constants(seed)
        return sorted(float((pe * mul + add) % SORT_MOD)
                      for pe in range(npes))

    return expected


#: ``random_walks``' ``mod``. Every modulus gives a different walk:
#: over 400-519 the simulated cycles range from 3011 to 3519 and warm
#: invocations of walks of about 3240 cycles differ by up to 60% in
#: time, so a seed that picked ``mod`` would change the work measured.
WALK_MOD = 517

#: Stages per walk arm; 24 takes about 9 s per invocation, 16 about 3 s
#: and 12 about 2 s, so that a run holds several cold invocations and
#: several warm ones.
WALK_STAGES = 12

#: The seed picks the modulus of the value each walk step adds to its
#: accumulator. It changes the returned values but not the control
#: flow, so the work (meta states, hash searches, cycles) is the same
#: for every seed: 2422 cycles and 41 meta transitions at 12 stages.
#: (5 is left out: at 16 stages the walk then takes 43 fewer cycles.)
WALK_ACC_MODS = (7, 11, 13)
_WALK_STEP = "acc = acc + seed % 7;"


def _walks_source(seed: int) -> str:
    source = library.random_walks(WALK_STAGES, mod=WALK_MOD)
    if source.count(_WALK_STEP) != 3 * WALK_STAGES:
        raise ValueError(f"random_walks no longer has the step "
                         f"{_WALK_STEP!r} the seed rewrites")
    acc_mod = WALK_ACC_MODS[random.Random(seed).randrange(
        len(WALK_ACC_MODS))]
    return source.replace(_WALK_STEP, f"acc = acc + seed % {acc_mod};")


SORT_NPES = 1024

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="sort-native",
            why=("odd_even_sort on the native C backend: executor-bound "
                 "(9217 meta transitions through the Python control "
                 "loop and FFI); cold adds the gcc build"),
            npes=SORT_NPES,
            flags=("--backend", "native"),
            backend="native",
            source=_sort_source,
            # The MIMD oracle steps every PE through every phase in
            # Python, so its cost grows with the square of the PE
            # count (about 3 s at 128 PEs, over 3 minutes at 1024).
            check_npes=128,
            expected_returns=_sort_expected(SORT_NPES),
        ),
        Workload(
            name="collatz-kernels",
            why=("recursive collatz_depth on the default kernels "
                 "backend: compile-bound cold; warm, bound by loading the "
                 "4 MB cache entry and compiling its kernels"),
            npes=1024,
            flags=(),
            backend="kernels",
            source=lambda seed: library.collatz_depth(),
            check_npes=1024,
        ),
        Workload(
            name="walks-lazy",
            why=("random_walks under --lazy: runtime conversion, mostly "
                 "the hash search in lazy fetch; also rewrites the "
                 "compile cache on every invocation"),
            npes=8,
            flags=("--lazy",),
            backend="kernels",
            source=_walks_source,
            check_npes=8,
        ),
    )
}
