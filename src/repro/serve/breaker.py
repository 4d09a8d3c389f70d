"""Per-design circuit breaker: fail fast while a key is known-bad.

A decoder that fails persistently for one design key (corrupt artifact a
recompile cannot fix, a pathological key, a poisoned store entry) must
not convert every incoming request into a slow ``internal`` error after a
full batch dispatch — under the classic breaker discipline the serve
layer trades that for an *immediate* structured ``unavailable`` response:

* **closed** (healthy) — requests flow; consecutive batch failures are
  counted, resets on any success;
* **open** — after ``threshold`` consecutive failures the breaker trips:
  every request for the key is refused instantly (``unavailable``) for
  ``cooldown_s`` seconds, so a broken key cannot pile work onto the
  shared decode executor or hold the admission queue hostage;
* **half-open** — once the cooldown elapses, exactly **one** probe batch
  is let through; success closes the breaker (normal service resumes),
  failure re-opens it for another cooldown.

The breaker is per-key state inside the :class:`~repro.serve.coalescer.
Coalescer` — one bad design degrades to fast structured errors while
every other key serves normally.  The clock is injectable so tests drive
state transitions deterministically.
"""

from __future__ import annotations

import math
import time
from typing import Callable

__all__ = ["CircuitBreaker", "BREAKER_CLOSED", "BREAKER_OPEN", "BREAKER_HALF_OPEN"]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


class CircuitBreaker:
    """Closed → open → half-open failure gate for one design key.

    Parameters
    ----------
    threshold:
        Consecutive failures that trip the breaker (≥ 1).
    cooldown_s:
        Seconds the breaker stays open before admitting a half-open probe.
    clock:
        Monotonic time source (injectable for deterministic tests).

    Examples
    --------
    >>> t = [0.0]
    >>> b = CircuitBreaker(threshold=2, cooldown_s=10.0, clock=lambda: t[0])
    >>> b.record_failure(); b.state
    'closed'
    >>> b.record_failure(); b.state          # second consecutive failure trips
    'open'
    >>> b.allow()                            # open and cooling: refuse
    False
    >>> t[0] = 11.0
    >>> b.allow()                            # cooldown elapsed: one probe
    True
    >>> b.allow()                            # probe in flight: still refuse
    False
    >>> b.record_success(); b.state          # probe succeeded: healthy again
    'closed'
    """

    def __init__(
        self,
        threshold: int = 5,
        cooldown_s: float = 5.0,
        *,
        clock: "Callable[[], float]" = time.monotonic,
    ):
        if threshold < 1:
            raise ValueError("threshold must be positive")
        if not math.isfinite(cooldown_s) or cooldown_s < 0:
            raise ValueError(f"cooldown_s must be finite and non-negative, got {cooldown_s}")
        self.threshold = int(threshold)
        self.cooldown_s = float(cooldown_s)
        self._clock = clock
        self._state = BREAKER_CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False
        self.opens = 0  #: lifetime count of closed/half-open → open trips

    @property
    def state(self) -> str:
        """Current state name (``closed`` / ``open`` / ``half_open``)."""
        return self._state

    @property
    def consecutive_failures(self) -> int:
        return self._failures

    def allow(self) -> bool:
        """May a request for this key proceed right now?

        Open-and-cooling refuses instantly; an elapsed cooldown admits
        exactly one half-open probe (callers MUST follow with
        :meth:`record_success` or :meth:`record_failure` per probe).
        """
        if self._state == BREAKER_CLOSED:
            return True
        if self._state == BREAKER_OPEN:
            if self._clock() - self._opened_at >= self.cooldown_s:
                self._state = BREAKER_HALF_OPEN
                self._probe_inflight = True
                return True
            return False
        # half-open: one probe at a time
        if self._probe_inflight:
            return False
        self._probe_inflight = True
        return True

    def record_success(self) -> None:
        """A batch for this key decoded: reset to healthy."""
        self._state = BREAKER_CLOSED
        self._failures = 0
        self._probe_inflight = False

    def record_failure(self) -> None:
        """A batch for this key failed (after in-batch retries)."""
        self._probe_inflight = False
        if self._state == BREAKER_HALF_OPEN:
            # Failed probe: straight back to open for another cooldown.
            self._state = BREAKER_OPEN
            self._opened_at = self._clock()
            self.opens += 1
            return
        self._failures += 1
        if self._state == BREAKER_CLOSED and self._failures >= self.threshold:
            self._state = BREAKER_OPEN
            self._opened_at = self._clock()
            self.opens += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CircuitBreaker(state={self._state!r}, failures={self._failures}, opens={self.opens})"
