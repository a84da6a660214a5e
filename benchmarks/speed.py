"""Host-speed probe that the benchmark's timings are normalized by.

On a small shared host the same Python code runs up to 1.7x slower when the
neighbours are busy, switching every few seconds (see README.md). The probe
times two fixed reference tasks that touch no ragmend code: Python work of
the lexical path's kind (tokenizing, set intersections, small frozen
dataclasses, a sort, a JSON round trip), and messages through a socket pair
to a fresh thread and back (the kind of work each HTTP request does). Each
is divided by its nominal time, and the two are mixed by the workload's
share of socket and thread work. A timing taken while the median of the last
`WINDOW` mixed readings is `r` is divided by `r`, so every figure reads as
on a host where the reference tasks take their nominal times. Raw wall
times are printed next to the normalized ones.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import re
import socket
import statistics
import threading
import time

# About the reference tasks' times on the host the bounds were set on.
CPU_NOMINAL_S = 0.0015
NET_NOMINAL_S = 0.0005
WINDOW = 5

_TEXT = " ".join(f"Word{i % 97}x tok{i % 13}, alpha_{i % 7}." for i in range(80))
_SPLIT = re.compile(r"[\W_]+")


@dataclasses.dataclass(frozen=True)
class _Item:
    key: str
    score: float


def _cpu_part() -> int:
    tokens = [t for t in _SPLIT.split(_TEXT.lower()) if t]
    sets = [set(tokens[i : i + 40]) for i in range(0, len(tokens), 6)]
    shared = sum(len(a & b) for a, b in zip(sets, sets[1:]))
    items = sorted(
        (_Item(t, (i * 7919) % 101 / 101) for i, t in enumerate(tokens)),
        key=lambda item: -item.score,
    )
    blob = json.dumps({"keys": [item.key for item in items], "shared": shared})
    return len(json.loads(blob)["keys"]) + len(" ".join(tokens).split(" "))


def _net_part() -> None:
    left, right = socket.socketpair()
    with left, right:

        def echo():
            right.sendall(right.recv(64))

        thread = threading.Thread(target=echo)
        thread.start()
        left.sendall(b"x" * 32)
        left.recv(64)
        thread.join()


def reference_reading(net_weight: float) -> float:
    """Time of the reference tasks relative to nominal, mixed by net_weight."""
    t0 = time.perf_counter()
    for _ in range(2):
        _cpu_part()
    t1 = time.perf_counter()
    for _ in range(3):
        _net_part()
    t2 = time.perf_counter()
    return (1.0 - net_weight) * (t1 - t0) / CPU_NOMINAL_S + net_weight * (t2 - t1) / NET_NOMINAL_S


class SpeedProbe:
    """Keeps the last WINDOW readings for one workload's mix of work."""

    def __init__(self, net_weight: float):
        self.net_weight = net_weight
        self._recent: collections.deque = collections.deque(maxlen=WINDOW)

    def probe(self) -> None:
        self._recent.append(reference_reading(self.net_weight))

    def fill(self) -> None:
        for _ in range(WINDOW):
            self.probe()

    def factor(self) -> float:
        """Multiply a wall time by this to normalize it."""
        return 1.0 / statistics.median(self._recent)
