"""Token-bucket and per-tenant quota arithmetic (pure, fake-time driven)."""

import pytest

from repro.serve import TenantQuotas, TokenBucket


class TestTokenBucket:
    def test_burst_admits_then_rejects(self):
        bucket = TokenBucket(rate=1.0, burst=2)
        assert bucket.try_take(0.0) == 0.0
        assert bucket.try_take(0.0) == 0.0
        assert bucket.try_take(0.0) == pytest.approx(1.0)

    def test_retry_after_is_exact_next_token_delay(self):
        bucket = TokenBucket(rate=4.0, burst=1)
        assert bucket.try_take(0.0) == 0.0
        # Empty bucket at rate 4/s: the next token lands in 0.25s.
        assert bucket.try_take(0.0) == pytest.approx(0.25)
        # 0.1s later, 0.4 tokens accrued: 0.6 still missing.
        assert bucket.try_take(0.1) == pytest.approx(0.6 / 4.0)

    def test_rejection_does_not_spend_tokens(self):
        bucket = TokenBucket(rate=1.0, burst=1)
        bucket.try_take(0.0)
        before = bucket.peek(0.5)
        bucket.try_take(0.5)  # rejected
        assert bucket.peek(0.5) == pytest.approx(before)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=3)
        assert bucket.peek(100.0) == pytest.approx(3.0)

    def test_refill_restores_admission(self):
        bucket = TokenBucket(rate=2.0, burst=1)
        assert bucket.try_take(0.0) == 0.0
        assert bucket.try_take(0.0) > 0.0
        assert bucket.try_take(0.5) == 0.0  # one token accrued

    def test_clock_going_backwards_is_ignored(self):
        bucket = TokenBucket(rate=1.0, burst=2)
        bucket.try_take(10.0)
        assert bucket.peek(5.0) == pytest.approx(1.0)

    def test_clock_step_back_does_not_refill_twice(self):
        bucket = TokenBucket(rate=1.0, burst=1, now=0.0)
        assert bucket.try_take(10.0) == 0.0  # spends the only token
        assert bucket.try_take(5.0) == pytest.approx(1.0)
        # Back at t=10 no time has passed since the token was spent.
        assert bucket.try_take(10.0) == pytest.approx(1.0)
        assert bucket.try_take(11.0) == 0.0

    @pytest.mark.parametrize("rate, burst", [(0.0, 1), (-1.0, 1), (1.0, 0)])
    def test_invalid_shapes_rejected(self, rate, burst):
        with pytest.raises(ValueError):
            TokenBucket(rate=rate, burst=burst)


class TestTenantQuotas:
    def test_tenants_get_independent_buckets(self):
        quotas = TenantQuotas(rate=1.0, burst=1)
        assert quotas.admit("a", 0.0) == 0.0
        assert quotas.admit("a", 0.0) > 0.0
        assert quotas.admit("b", 0.0) == 0.0  # b's bucket is untouched

    def test_override_shapes_specific_tenant(self):
        quotas = TenantQuotas(rate=1.0, burst=1, overrides={"bulk": (1.0, 3)})
        assert quotas.admit("bulk", 0.0) == 0.0
        assert quotas.admit("bulk", 0.0) == 0.0
        assert quotas.admit("bulk", 0.0) == 0.0
        assert quotas.admit("bulk", 0.0) > 0.0
        assert quotas.admit("other", 0.0) == 0.0
        assert quotas.admit("other", 0.0) > 0.0

    def test_bucket_created_at_first_use_time(self):
        quotas = TenantQuotas(rate=1.0, burst=1)
        # First seen at t=100: the bucket must not have "pre-accrued"
        # beyond its burst from an implicit t=0 birth.
        assert quotas.admit("late", 100.0) == 0.0
        assert quotas.admit("late", 100.0) == pytest.approx(1.0)

    def test_bad_override_fails_at_construction(self):
        with pytest.raises(ValueError):
            TenantQuotas(rate=1.0, burst=1, overrides={"broken": (-1.0, 1)})

    def test_bad_default_fails_at_construction(self):
        with pytest.raises(ValueError):
            TenantQuotas(rate=0.0, burst=1)
