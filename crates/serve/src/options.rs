//! Front-tier tuning knobs.

use std::time::Duration;

use ganglia_net::tcp::ServerLimits;

/// Configuration for a [`FrontTier`](crate::FrontTier) and the
/// [`PooledServer`](crate::PooledServer) that feeds it.
///
/// Maps onto the `gmetad.conf` directives `server_threads`,
/// `server_max_inflight`, and `server_cache`; the remaining fields keep
/// production-safe defaults and are exercised by tests and benches
/// through the builder methods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Service worker threads per bound port (`server_threads`).
    pub workers: usize,
    /// Requests admitted concurrently before load-shedding
    /// (`server_max_inflight`).
    pub max_inflight: usize,
    /// Accepted connections that may wait for a free worker before the
    /// accept thread sheds new arrivals.
    pub queue_depth: usize,
    /// Whether responses are cached per store revision (`server_cache`).
    pub cache: bool,
    /// Distinct requests cached per revision; the oldest entry is
    /// evicted beyond this.
    pub cache_capacity: usize,
    /// Per-peer request budget in requests/second (`0` disables rate
    /// limiting).
    pub rate_per_sec: u32,
    /// Token-bucket burst on top of the steady rate (`0` means
    /// `2 * rate_per_sec`).
    pub rate_burst: u32,
    /// Per-connection read deadline: a peer that stalls mid-request is
    /// evicted after this long.
    pub read_timeout: Duration,
    /// Per-connection write deadline: a peer that stops reading its
    /// response is evicted after this long.
    pub write_timeout: Duration,
    /// How long a dropped server guard waits for in-flight connections
    /// to finish before detaching them.
    pub drain_deadline: Duration,
}

impl Default for ServeOptions {
    /// The bounded server's [`ServerLimits::default`], 64 requests in
    /// flight, the cache on and no rate limit.
    fn default() -> Self {
        let limits = ServerLimits::default();
        ServeOptions {
            workers: limits.workers,
            max_inflight: 64,
            queue_depth: limits.queue_depth,
            cache: true,
            cache_capacity: 128,
            rate_per_sec: 0,
            rate_burst: 0,
            read_timeout: limits.read_timeout,
            write_timeout: limits.write_timeout,
            drain_deadline: limits.drain_deadline,
        }
    }
}

impl ServeOptions {
    /// The defaults: 4 workers, 64 in flight, cache on, no rate limit.
    pub fn new() -> Self {
        ServeOptions::default()
    }

    /// The sizing and deadlines the bounded server runs the port with.
    pub fn limits(&self) -> ServerLimits {
        ServerLimits {
            workers: self.workers,
            queue_depth: self.queue_depth,
            read_timeout: self.read_timeout,
            write_timeout: self.write_timeout,
            drain_deadline: self.drain_deadline,
        }
    }

    /// The effective token-bucket burst: explicit, or twice the rate.
    pub fn effective_burst(&self) -> u32 {
        if self.rate_burst == 0 {
            self.rate_per_sec.saturating_mul(2)
        } else {
            self.rate_burst
        }
    }

    /// Builder-style: set the worker count (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Builder-style: set the in-flight admission limit (at least 1).
    pub fn with_max_inflight(mut self, max_inflight: usize) -> Self {
        self.max_inflight = max_inflight.max(1);
        self.queue_depth = self.queue_depth.max(self.max_inflight);
        self
    }

    /// Builder-style: enable or disable the response cache.
    pub fn with_cache(mut self, cache: bool) -> Self {
        self.cache = cache;
        self
    }

    /// Builder-style: set the cache capacity (entries per revision).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity.max(1);
        self
    }

    /// Builder-style: set the per-peer rate limit (`0` = off).
    pub fn with_rate_limit(mut self, per_sec: u32, burst: u32) -> Self {
        self.rate_per_sec = per_sec;
        self.rate_burst = burst;
        self
    }

    /// Builder-style: set both connection deadlines.
    pub fn with_deadlines(mut self, read: Duration, write: Duration) -> Self {
        self.read_timeout = read;
        self.write_timeout = write;
        self
    }

    /// Builder-style: set the guard's drain deadline.
    pub fn with_drain_deadline(mut self, deadline: Duration) -> Self {
        self.drain_deadline = deadline;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_production_safe() {
        let options = ServeOptions::default();
        assert!(options.cache);
        assert_eq!(options.rate_per_sec, 0, "rate limiting off by default");
        assert!(options.workers >= 1);
        assert!(options.max_inflight >= options.workers);
        // One set of defaults: the tier's port runs at exactly the
        // limits a plain report port gets.
        assert_eq!(options.limits(), ServerLimits::default());
    }

    #[test]
    fn builders_clamp_degenerate_values() {
        let options = ServeOptions::new()
            .with_workers(0)
            .with_max_inflight(0)
            .with_cache_capacity(0);
        assert_eq!(options.workers, 1);
        assert_eq!(options.max_inflight, 1);
        assert_eq!(options.cache_capacity, 1);
    }

    #[test]
    fn burst_defaults_to_twice_the_rate() {
        assert_eq!(
            ServeOptions::new().with_rate_limit(10, 0).effective_burst(),
            20
        );
        assert_eq!(
            ServeOptions::new().with_rate_limit(10, 5).effective_burst(),
            5
        );
    }
}
