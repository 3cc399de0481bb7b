//! Per-session token-bucket rate limiting.

/// A classic token bucket: `rate` tokens accrue per second up to a `burst`
/// capacity; each admitted request spends one token.
///
/// Time is handed in, in seconds on any clock that never goes back.  Refill
/// is computed lazily at each [`TokenBucket::try_take`], so an idle bucket
/// costs nothing, and a refused take changes nothing.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    capacity: f64,
    /// Tokens held at time `last`.
    tokens: f64,
    rate: f64,
    last: f64,
}

impl TokenBucket {
    /// Creates a full bucket refilling `rate` tokens per second with a burst
    /// capacity of `burst` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not finite and strictly positive or `burst` is 0.
    pub fn new(rate: f64, burst: u32) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "token bucket rate must be finite and > 0, got {rate}"
        );
        assert!(burst > 0, "token bucket burst must be > 0");
        TokenBucket {
            capacity: f64::from(burst),
            tokens: f64::from(burst),
            rate,
            last: 0.0,
        }
    }

    /// Spends one token if one has accrued by `now`.  Returns `false` (rate
    /// limited) when the bucket is empty.
    pub fn try_take(&mut self, now: f64) -> bool {
        let tokens = (self.tokens + (now - self.last) * self.rate).min(self.capacity);
        if tokens < 1.0 {
            return false;
        }
        self.tokens = tokens - 1.0;
        self.last = now;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_is_honored_then_empty_bucket_rejects() {
        // Refill is negligible within this test (1 token per 1000 s).
        let mut bucket = TokenBucket::new(0.001, 3);
        assert!(bucket.try_take(0.0));
        assert!(bucket.try_take(0.0));
        assert!(bucket.try_take(0.0));
        assert!(!bucket.try_take(0.0), "burst exhausted");
        assert!(!bucket.try_take(0.0), "still empty");
    }

    #[test]
    fn tokens_refill_with_wall_time() {
        let mut bucket = TokenBucket::new(1000.0, 2);
        assert!(bucket.try_take(0.0));
        assert!(bucket.try_take(0.0));
        assert!(!bucket.try_take(0.0));
        assert!(!bucket.try_take(0.000_5), "half a token at 0.5 ms");
        assert!(bucket.try_take(0.001), "one token at 1 ms");
        assert!(!bucket.try_take(0.001));
        // An hour refills no more than the capacity.
        for _ in 0..2 {
            assert!(bucket.try_take(3600.0));
        }
        assert!(!bucket.try_take(3600.0), "capacity caps the refill");
    }

    #[test]
    #[should_panic(expected = "rate must be finite")]
    fn zero_rate_is_rejected() {
        let _ = TokenBucket::new(0.0, 1);
    }
}
