"""Per-layer tracing of triposet from outside the package.

Each public function of a layer is wrapped at the attribute its caller
looks it up from (``triangle.<name>`` for what the laws import by name,
the class for ``Poset`` methods, ``cli.<name>`` for an in-process
``cli.main``), and every wrapped attribute is restored afterwards.

Spans are not stored: there are millions per pass.  A closing span adds its
duration to its parent's child time instead, so self time (a span minus the
spans of its direct children) is computed as the run goes, in constant
memory.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from math import comb
from time import perf_counter
from types import SimpleNamespace

EDGES = (
    "subset_to_nucleus",
    "nucleus_to_subset",
    "subset_to_topology",
    "topology_to_subset",
    "nucleus_to_topology",
    "topology_to_nucleus",
    "nucleus_to_subset_alt",
    "nucleus_to_subset_via_topology",
)

# (layer name, wrapper kind, attributes callers look it up from, size of a
# result for the ``found`` count).  ``cli._CONVERTERS`` holds the edges by
# reference, so the single conversions of ``triposet convert`` are not wrapped.
WRAPS: tuple[tuple[str, str, tuple[str, ...], Callable | None], ...] = (
    ("poset.enumerate_posets", "stream", ("poset.enumerate_posets",), None),
    ("poset.downset_masks", "timed", ("poset.Poset.downset_masks",), None),
    ("poset.sieve_masks", "counted", ("poset.Poset.sieve_masks",), None),
    ("poset.downset_rank", "counted", ("poset.Poset.downset_rank",), None),
    ("heyting.implication_mask", "timed", ("triangle.implication_mask",), None),
    ("nucleus.enumerate_nuclei", "timed",
     ("triangle.enumerate_nuclei", "cli.enumerate_nuclei"), len),
    ("topology.enumerate_topologies", "timed",
     ("triangle.enumerate_topologies", "cli.enumerate_topologies"), len),
    ("nucleus.validate_nucleus", "timed",
     ("triangle.validate_nucleus", "formats.validate_nucleus"), None),
    ("topology.validate_topology", "timed",
     ("triangle.validate_topology", "formats.validate_topology"), None),
    *((f"triangle.{e}", "timed", (f"triangle.{e}",), None) for e in EDGES),
    ("triangle.verify_triangle", "timed",
     ("triangle.verify_triangle", "cli.verify_triangle"),
     lambda report: report.counts["subsets"]),
    ("formats.load_poset", "timed", ("cli.load_poset",), None),
    ("formats.serialize", "timed", ("cli.serialize",), None),
    ("cli.main", "timed", ("cli.main",), None),
)


class Tracer:
    """Accumulates seconds, self seconds, calls and found counts per layer."""

    def __init__(self, clock: Callable[[], float] = perf_counter):
        self.clock = clock
        self.seconds: Counter[str] = Counter()
        self.self_seconds: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.found: Counter[str] = Counter()
        self.candidates: Counter[str] = Counter()
        self._child = [0.0]  # child time of each open span; the root is outermost

    def begin(self) -> float:
        self._child.append(0.0)
        return self.clock()

    def end(self, name: str, t0: float) -> None:
        dur = self.clock() - t0
        child = self._child.pop()
        self._child[-1] += dur
        self.seconds[name] += dur
        self.self_seconds[name] += dur - child
        self.calls[name] += 1

    def timed(self, name: str, fn: Callable, size: Callable | None = None) -> Callable:
        def wrapper(*args, **kwargs):
            t0 = self.begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(name, t0)
            if size is not None:
                self.found[name] += size(result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def stream(self, name: str, fn: Callable) -> Callable:
        """Time each ``next()`` of a poset stream; count yields and candidates."""

        def wrapper(n: int, *args, **kwargs) -> Iterator:
            self.candidates[name] += 3 ** comb(n, 2)
            it = fn(n, *args, **kwargs)
            while True:
                t0 = self.begin()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.end(name, t0)
                self.found[name] += 1
                yield item

        return wrapper

    @contextmanager
    def installed(self, mods: SimpleNamespace):
        """Wrap every site in :data:`WRAPS` on ``mods``; restore them on exit."""
        saved = []
        try:
            for name, kind, sites, size in WRAPS:
                for site in sites:
                    *path, attr = site.split(".")
                    owner = mods
                    for part in path:
                        owner = getattr(owner, part)
                    original = vars(owner)[attr]
                    saved.append((owner, attr, original))
                    if kind == "timed":
                        wrapped = self.timed(name, original, size)
                    else:
                        wrapped = getattr(self, kind)(name, original)
                    setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
