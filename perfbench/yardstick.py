"""A fixed task that gauges how fast the host runs Python right now.

Usage::

    python3 perfbench/yardstick.py

It imports nothing from ``repro``, so no change to the program moves
it; its wall time moves only with the host. The benchmark runs it as a
child next to each warm ``repro run`` invocation and reports the warm
time as a multiple of it (``run_vs_yardstick``), which cancels the
spells in which a shared host runs everything slower or faster.

The work mixes what a warm invocation spends its time on: interpreter
start-up and ``import numpy``, compiling generated Python source,
unpickling a large object, a pure-Python loop over dicts and lists, and
many NumPy operations on 1024-lane arrays. The last line of stdout is
``yardstick: <checksum>``; the checksum is the same on every run.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np

#: Generated functions compiled per run.
FUNCTIONS = 1500

#: Dict and list operations of the pure-Python loop.
LOOP = 600_000

#: NumPy operations on 1024-lane arrays.
LANE_OPS = 6000


def generated_source() -> str:
    return "\n".join(
        f"def f{i}(a, b):\n"
        f"    c = a * {i % 17 + 1} + b\n"
        f"    if c % {i % 5 + 2} == 0:\n"
        f"        c = c // 2 - {i % 11}\n"
        f"    return c ^ {i}\n"
        for i in range(FUNCTIONS))


def compile_and_call() -> int:
    space: dict = {}
    exec(compile(generated_source(), "<yardstick>", "exec"), space)
    return sum(space[f"f{i}"](i, 3) for i in range(FUNCTIONS))


def pickle_round_trip() -> int:
    table = {f"k{i}": (i, float(i) / 3, [i, i + 1, str(i)])
             for i in range(25_000)}
    back = pickle.loads(pickle.dumps(table, protocol=4))
    if back != table:
        raise AssertionError("pickle round trip changed the table")
    return len(back)


def python_loop() -> int:
    seen: dict = {}
    order: list = []
    for i in range(LOOP):
        key = (i * 7919) % 4099
        if key in seen:
            seen[key] += 1
        else:
            seen[key] = 1
            order.append(key)
    return sum(order) + max(seen.values())


def lane_ops() -> int:
    lanes = np.arange(1024, dtype=np.int64)
    acc = np.zeros(1024, dtype=np.int64)
    for step in range(LANE_OPS):
        mask = (lanes + step) % 3 == 0
        acc = np.where(mask, acc + lanes, acc - 1)
        acc %= 1_000_003
    return int(acc.sum())


def main() -> None:
    parts = (compile_and_call(), pickle_round_trip(), python_loop(),
             lane_ops())
    digest = hashlib.sha256(repr(parts).encode()).hexdigest()[:16]
    print(f"yardstick: {digest}")


if __name__ == "__main__":
    main()
