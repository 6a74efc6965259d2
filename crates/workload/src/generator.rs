//! Query arrival generation: Poisson arrivals with heavy-tailed sizes
//! (the paper's trace-driven load generator, Fig. 13).
//!
//! A stream's randomness does not depend on its rate. Query `i` arrives
//! `(-ln u_i) / rate` seconds after query `i - 1` and has size `s_i`, and
//! neither `-ln u_i` nor `s_i` involves the rate. [`QueryStream`] scales
//! these rate-free draws by its rate as it goes; [`StreamDraws`] keeps
//! them, so a search that probes one seed at many rates draws each query
//! once and replays the record at every rate, bit-identical to a fresh
//! stream.

use hercules_common::dist::{Distribution, Exponential};
use hercules_common::rng::SimRng;
use hercules_common::units::{Qps, SimDuration, SimTime};

use crate::query::{Query, QueryId, QuerySizeDist};

/// The rate-free random source of one stream: unit-rate exponential gaps
/// (`-ln u`) and query sizes, from independent generators.
#[derive(Debug, Clone)]
struct Draws {
    unit_gap: Exponential,
    gap_rng: SimRng,
    size_rng: SimRng,
    sizes: QuerySizeDist,
}

impl Draws {
    fn new(sizes: QuerySizeDist, seed: u64) -> Self {
        let mut root = SimRng::seed_from(seed);
        let gap_rng = root.fork();
        let size_rng = root.fork();
        Draws {
            unit_gap: Exponential::with_rate(1.0),
            gap_rng,
            size_rng,
            sizes,
        }
    }

    /// The paper-shaped draws of co-located tenant index `tenant`.
    fn tenant(seed: u64, tenant: u32) -> Self {
        // SplitMix64's odd increment spreads tenant indices across the seed
        // space; index 0 leaves the seed untouched.
        let mixed = seed ^ (tenant as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Draws::new(QuerySizeDist::paper(), mixed)
    }

    /// The next query's unit-rate gap and size.
    fn next(&mut self) -> (f64, u32) {
        (
            self.unit_gap.sample(&mut self.gap_rng),
            self.sizes.sample(&mut self.size_rng),
        )
    }
}

/// `rate` in queries per second, checked strictly positive and finite.
fn checked_rate(rate: Qps) -> f64 {
    let r = rate.value();
    assert!(
        r.is_finite() && r > 0.0,
        "arrival rate must be positive: {r}"
    );
    r
}

/// The gap of a draw at `rate`: `(-ln u) / rate`, rounded to nanoseconds.
/// Dividing the unit-rate draw by 1 is exact, so this equals sampling
/// `Exponential::with_rate(rate)` from the same generator, bit for bit.
fn gap_at(unit_gap: f64, rate: f64) -> SimDuration {
    SimDuration::from_secs_f64(unit_gap / rate)
}

/// A stream of [`Query`]s: Poisson arrivals x size distribution.
#[derive(Debug, Clone)]
pub struct QueryStream {
    draws: Draws,
    rate: f64,
    now: SimTime,
    next_id: u64,
}

impl QueryStream {
    /// Creates a stream at `rate` queries/second with the given size
    /// distribution.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not strictly positive and finite.
    pub fn new(rate: Qps, sizes: QuerySizeDist, seed: u64) -> Self {
        QueryStream::over(Draws::new(sizes, seed), rate)
    }

    fn over(draws: Draws, rate: Qps) -> Self {
        QueryStream {
            draws,
            rate: checked_rate(rate),
            now: SimTime::ZERO,
            next_id: 0,
        }
    }

    /// The paper-shaped stream: Poisson arrivals, log-normal sizes.
    pub fn paper(rate: Qps, seed: u64) -> Self {
        QueryStream::new(rate, QuerySizeDist::paper(), seed)
    }

    /// The paper-shaped stream for co-located tenant index `tenant`.
    ///
    /// Tenant 0 is bit-identical to [`QueryStream::paper`] with the same
    /// seed (so a single-tenant co-location run reproduces the dedicated
    /// stream exactly); every further tenant draws from an independently
    /// offset seed, decorrelating arrival and size draws across tenants.
    pub fn tenant(rate: Qps, seed: u64, tenant: u32) -> Self {
        QueryStream::over(Draws::tenant(seed, tenant), rate)
    }

    /// Generates the next query.
    pub fn next_query(&mut self) -> Query {
        let (unit_gap, size) = self.draws.next();
        self.now += gap_at(unit_gap, self.rate);
        let q = Query {
            id: QueryId(self.next_id),
            arrival: self.now,
            size,
        };
        self.next_id += 1;
        q
    }

    /// Generates every query arriving before `horizon`.
    pub fn take_until(&mut self, horizon: SimTime) -> Vec<Query> {
        let mut out = Vec::new();
        loop {
            let q = self.next_query();
            if q.arrival >= horizon {
                break;
            }
            out.push(q);
        }
        out
    }
}

/// The recorded rate-free draws of one tenant's paper-shaped stream,
/// replayable at any rate.
///
/// [`StreamDraws::arrivals_until`] yields exactly the arrivals and sizes of
/// `QueryStream::tenant(rate, seed, tenant).take_until(horizon)`, drawing
/// only the queries no earlier replay needed. The record grows to the
/// longest replay asked of it.
#[derive(Debug, Clone)]
pub struct StreamDraws {
    draws: Draws,
    unit_gaps: Vec<f64>,
    sizes: Vec<u32>,
}

impl StreamDraws {
    /// An empty record of tenant `tenant`'s stream under `seed` (tenant 0
    /// is the [`QueryStream::paper`] stream).
    pub fn tenant(seed: u64, tenant: u32) -> Self {
        StreamDraws {
            draws: Draws::tenant(seed, tenant),
            unit_gaps: Vec::new(),
            sizes: Vec::new(),
        }
    }

    /// Calls `each(arrival, size)` for every query of the stream at `rate`
    /// arriving before `horizon`, in arrival order.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not strictly positive and finite.
    pub fn arrivals_until(
        &mut self,
        rate: Qps,
        horizon: SimTime,
        mut each: impl FnMut(SimTime, u32),
    ) {
        let rate = checked_rate(rate);
        let mut now = SimTime::ZERO;
        for i in 0.. {
            if i == self.unit_gaps.len() {
                let (unit_gap, size) = self.draws.next();
                self.unit_gaps.push(unit_gap);
                self.sizes.push(size);
            }
            now += gap_at(self.unit_gaps[i], rate);
            if now >= horizon {
                break;
            }
            each(now, self.sizes[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_rate_converges() {
        let mut s = QueryStream::paper(Qps(5_000.0), 7);
        let qs = s.take_until(SimTime::from_secs(10));
        let rate = qs.len() as f64 / 10.0;
        assert!((rate - 5_000.0).abs() / 5_000.0 < 0.05, "rate {rate}");
    }

    #[test]
    fn arrivals_strictly_ordered_and_ids_monotone() {
        let mut s = QueryStream::paper(Qps(1_000.0), 11);
        let qs = s.take_until(SimTime::from_secs(2));
        for pair in qs.windows(2) {
            assert!(pair[0].arrival <= pair[1].arrival);
            assert!(pair[0].id < pair[1].id);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = QueryStream::paper(Qps(500.0), 99);
        let mut b = QueryStream::paper(Qps(500.0), 99);
        for _ in 0..100 {
            assert_eq!(a.next_query(), b.next_query());
        }
    }

    #[test]
    fn tenant_zero_is_the_dedicated_stream() {
        let mut base = QueryStream::paper(Qps(800.0), 0xC0FFEE);
        let mut t0 = QueryStream::tenant(Qps(800.0), 0xC0FFEE, 0);
        for _ in 0..200 {
            assert_eq!(base.next_query(), t0.next_query());
        }
    }

    #[test]
    fn tenant_streams_decorrelate() {
        let mut a = QueryStream::tenant(Qps(800.0), 7, 1);
        let mut b = QueryStream::tenant(Qps(800.0), 7, 2);
        let same = (0..100)
            .filter(|_| a.next_query() == b.next_query())
            .count();
        assert!(same < 5, "tenant streams must differ, {same} collisions");
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = QueryStream::paper(Qps(500.0), 1);
        let mut b = QueryStream::paper(Qps(500.0), 2);
        let same = (0..50).filter(|_| a.next_query() == b.next_query()).count();
        assert!(same < 5);
    }

    #[test]
    fn gaps_look_exponential() {
        let mut s = QueryStream::paper(Qps(10_000.0), 5);
        let mut gaps = Vec::new();
        let mut last = SimTime::ZERO;
        for _ in 0..20_000 {
            let t = s.next_query().arrival;
            gaps.push((t - last).as_secs_f64());
            last = t;
        }
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 1e-4).abs() / 1e-4 < 0.05);
        // CV of an exponential is 1.
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "cv {cv}");
    }

    /// Replays one record at the rates of a knee search, in search order
    /// (ramp, then bisection), so the record both grows and is replayed
    /// shorter than it is. Probe horizons follow the search's sizing:
    /// 4,000 queries, floored at 0.4 s (every rate above 10,000 QPS hits
    /// the floor) and capped at 900 s.
    #[test]
    fn replayed_draws_equal_a_fresh_stream_bit_for_bit() {
        let mut rates: Vec<f64> = vec![8.0, 64.0];
        while rates[rates.len() - 1] < 40_000.0 {
            rates.push(rates[rates.len() - 1] * 2.0);
        }
        let (mut lo, mut hi) = (16_384.0, 32_768.0);
        for _ in 0..6 {
            let mid = (lo + hi) / 2.0;
            rates.push(mid);
            (lo, hi) = if mid < 25_000.0 { (mid, hi) } else { (lo, mid) };
        }
        for seed in [1u64, 7, 0xC0FFEE] {
            for tenant in 0..4u32 {
                let mut draws = StreamDraws::tenant(seed, tenant);
                for &rate in &rates {
                    let horizon = SimTime::ZERO
                        + SimDuration::from_secs_f64((4_000.0 / rate).clamp(0.4, 900.0));
                    let want = QueryStream::tenant(Qps(rate), seed, tenant).take_until(horizon);
                    let mut got = Vec::new();
                    draws.arrivals_until(Qps(rate), horizon, |arrival, size| {
                        got.push((arrival.as_nanos(), size));
                    });
                    assert_eq!(
                        got.len(),
                        want.len(),
                        "seed {seed} tenant {tenant} rate {rate}"
                    );
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(*g, (w.arrival.as_nanos(), w.size), "rate {rate}");
                    }
                }
            }
        }
    }
}
