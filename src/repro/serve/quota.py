"""Per-tenant token-bucket quotas for the serving layer.

The classic rate limiter: each tenant owns a bucket holding up to
``burst`` tokens that refills continuously at ``rate`` tokens/second;
admitting a query spends one token, and an empty bucket yields the exact
delay until the next token — which the server surfaces as the
``retry_after_s`` metadata on a :class:`~repro.errors.ServeRejected`.
Time is supplied by the caller on every operation (the server passes its
own injectable clock reading), so quota arithmetic is pure and
deterministic under test — no hidden wall-clock reads.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = ["TokenBucket", "TenantQuotas"]


class TokenBucket:
    """One tenant's continuously-refilling token bucket."""

    def __init__(self, rate: float, burst: float, now: float = 0.0):
        if rate <= 0:
            raise ValueError("rate must be positive (tokens per second)")
        if burst < 1:
            raise ValueError("burst must admit at least one query")
        self.rate = rate
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last_refill = now

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._last_refill)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        # The watermark never moves back: after a clock step backwards,
        # the interval up to the old reading is not credited twice.
        self._last_refill = max(self._last_refill, now)

    def try_take(self, now: float) -> float:
        """Spend one token at time ``now``; return the retry delay.

        ``0.0`` means the token was taken and the query may be admitted.
        A positive value means the bucket is empty: no token was spent,
        and the returned seconds are exactly how long until one
        accumulates (the ``retry_after_s`` contract).
        """
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate

    def peek(self, now: float) -> float:
        """Tokens available at ``now`` without spending any."""
        self._refill(now)
        return self.tokens


class TenantQuotas:
    """Lazily-built per-tenant buckets with a shared default shape.

    Every unseen tenant gets a fresh ``(rate, burst)`` bucket on first
    use; ``overrides`` pins specific tenants to their own shape (e.g. a
    trusted bulk tenant with a larger burst).  ``admit`` is the server's
    one entry point: it charges the submitting tenant's bucket and
    returns the retry-after delay (``0.0`` = admitted).
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        overrides: Dict[str, Tuple[float, float]] | None = None,
    ):
        self.rate = rate
        self.burst = burst
        self.overrides = dict(overrides or {})
        self._buckets: Dict[str, TokenBucket] = {}
        # Validate shapes eagerly so a bad override fails at construction,
        # not on the unlucky tenant's first query.
        TokenBucket(rate, burst)
        for shape in self.overrides.values():
            TokenBucket(*shape)

    def bucket(self, tenant: str, now: float = 0.0) -> TokenBucket:
        """The tenant's bucket, created at ``now`` on first use."""
        bucket = self._buckets.get(tenant)
        if bucket is None:
            rate, burst = self.overrides.get(tenant, (self.rate, self.burst))
            bucket = TokenBucket(rate, burst, now=now)
            self._buckets[tenant] = bucket
        return bucket

    def admit(self, tenant: str, now: float) -> float:
        """Charge one query to ``tenant``; return retry-after seconds."""
        return self.bucket(tenant, now=now).try_take(now)
