"""How fast the machine runs at each moment of a run, from a fixed loop that never calls triposet.

On a shared machine the same work runs up to 1.7x slower for seconds to
minutes at a time, as other tenants come and go.  Process CPU time slows
just as much, so the slowdown is in the processor, not in scheduling, and
no choice of clock removes it.  Runs of the same code a few minutes apart
can therefore differ by more than any useful bound.

So, in an untraced run, every timed operation is followed, outside its
timing, by this loop for about a tenth of the operation's time.  Each
operation's time is then reported at the reference speed: multiplied by
:data:`NOMINAL_S` over the median time of the loop's runs around it, those
made right after it and as many made before it, and at least the last
:data:`WINDOW` runs, which span about a second of work.  A change
to triposet moves the operations' times but not the loop's; a change in
the machine's speed moves both and cancels out.  The run's report keeps
the loop's median time, the scale over the whole run and the unscaled pass
times.
"""

from __future__ import annotations

from collections.abc import Callable
from time import perf_counter

from stats import median

SHARE = 0.1  # seconds of reference loop per second of timed work
WINDOW = 31  # loop runs behind one speed reading
NOMINAL_S = 0.003  # the loop's typical time on the 2-core machine the bounds were set on

# Small sets of points, fixed: the loop intersects them and counts the results.
_SETS = tuple(frozenset((7 * i + 13 * j) % 40 for j in range(i % 3 + 3)) for i in range(720))
# The subsets of four points with two or more, largest first, as bit masks,
# and for each the earlier ones that contain it.
_ELEMS = tuple(sorted((m for m in range(16) if m.bit_count() >= 2), key=lambda m: (-m.bit_count(), m)))
_ABOVE = tuple(tuple(a for a in range(k) if not _ELEMS[k] & ~_ELEMS[a]) for k in range(len(_ELEMS)))


def _meets() -> int:
    counts: dict[frozenset[int], int] = {}
    for i, s in enumerate(_SETS):
        for t in _SETS[i % 50: i % 50 + 10]:
            meet = s & t
            counts[meet] = counts.get(meet, 0) + 1
    return len(counts)


def _upsets() -> int:
    """The upward-closed families of ``_ELEMS``, by recursion as triposet's enumerators do."""
    chosen = [False] * len(_ELEMS)
    found = []

    def rec(k: int) -> None:
        if k == len(_ELEMS):
            found.append(frozenset(e for e, c in zip(_ELEMS, chosen) if c))
            return
        if all(chosen[a] for a in _ABOVE[k]):
            chosen[k] = True
            rec(k + 1)
            chosen[k] = False
        rec(k + 1)

    rec(0)
    return len(found)


def reference_loop() -> int:
    """Fixed work of the kinds triposet does: frozenset meets counted in a dict,
    and a recursive search over bit masks."""
    return _meets() + sum(_upsets() for _ in range(3))


class Speedometer:
    """Runs the reference loop in proportion to the timed work it is told of."""

    def __init__(self, loop: Callable[[], object] = reference_loop,
                 clock: Callable[[], float] = perf_counter, share: float = SHARE):
        self.loop = loop
        self.clock = clock
        self.share = share
        self.samples: list[float] = []
        self._owed = 0.0

    def after(self, worked: float) -> tuple[float, float]:
        """Run the loop until it has taken ``share`` of all the work it was told of.

        Returns the seconds the loop took now and the factor that takes
        ``worked`` to the reference speed.
        """
        self._owed += self.share * worked
        before = len(self.samples)
        spent = 0.0
        while self._owed > 0 or not self.samples:
            t0 = self.clock()
            self.loop()
            dt = self.clock() - t0
            self.samples.append(dt)
            self._owed -= dt
            spent += dt
        # The runs just made and as many made before the operation, so that a
        # long operation is read from both sides; at least WINDOW runs.
        made = len(self.samples) - before
        return spent, self.scale(min(before - made, len(self.samples) - WINDOW))

    def scale(self, since: int = 0) -> float:
        """The factor to the reference speed, from the loop's runs from ``since`` on."""
        return NOMINAL_S / median(self.samples[max(since, 0):])
