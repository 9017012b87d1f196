"""Bounded retry with deterministic exponential backoff and jitter.

The exploration runtime treats a job failure as potentially transient
(fault-injected channels fail by design; worker processes can crash) and
re-attempts it a bounded number of times. The backoff schedule is pure
arithmetic over the policy — the jitter comes from an RNG seeded per
(policy seed, attempt), so tests can assert the exact schedule and two
runs with the same policy sleep identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple

from repro.config import knobs
from repro.errors import ConfigError

__all__ = ["RetryPolicy", "backoff_delay", "backoff_schedule"]


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to re-attempt a failed job, and how long to wait.

    ``retries`` is the number of *re*-attempts: a job runs at most
    ``retries + 1`` times. Delay before re-attempt ``i`` (0-based) is
    ``min(base_delay * backoff**i, max_delay)`` scaled by a seeded jitter
    in ``[1 - jitter, 1 + jitter]``.
    """

    retries: int = 0
    base_delay: float = 0.05
    backoff: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        knobs.value("retries", self.retries, "retries")
        if self.base_delay < 0:
            raise ConfigError(f"base_delay must be >= 0, got {self.base_delay}")
        if self.backoff < 1.0:
            raise ConfigError(f"backoff must be >= 1, got {self.backoff}")
        if self.max_delay < self.base_delay:
            raise ConfigError(
                f"max_delay ({self.max_delay}) must be >= base_delay "
                f"({self.base_delay})"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigError(f"jitter must be in [0, 1), got {self.jitter}")

    @property
    def max_attempts(self) -> int:
        return self.retries + 1

    @property
    def delay_bound(self) -> float:
        """No delay the policy produces ever exceeds this."""
        return self.max_delay * (1.0 + self.jitter)


#: The default: a single attempt, no sleeping.
NO_RETRY = RetryPolicy()


def backoff_delay(policy: RetryPolicy, attempt: int) -> float:
    """Seconds to wait before re-attempt ``attempt`` (0-based).

    Deterministic per (policy seed, attempt): the jitter RNG is
    re-constructed from them, never shared state.
    """
    if attempt < 0:
        raise ConfigError(f"attempt must be >= 0, got {attempt}")
    delay = min(policy.base_delay * policy.backoff**attempt, policy.max_delay)
    if policy.jitter and delay > 0.0:
        rng = random.Random(policy.seed * 1_000_003 + attempt)
        delay *= 1.0 + rng.uniform(-policy.jitter, policy.jitter)
    return delay


def backoff_schedule(policy: RetryPolicy) -> Tuple[float, ...]:
    """The full deterministic sleep schedule: one delay per re-attempt."""
    return tuple(backoff_delay(policy, i) for i in range(policy.retries))
