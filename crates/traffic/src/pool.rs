//! Source pools: weighted legitimate-client pools and amplifier pools with
//! heavy-hitter skew.

use rtbh_rng::Rng;

use rtbh_net::{Asn, Ipv4Addr, Prefix};

/// One weighted client population: addresses drawn from `prefix`, handed
/// into the IXP by member `handover`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceSpec {
    /// The IXP member carrying this population's traffic.
    pub handover: Asn,
    /// The address space the population lives in.
    pub prefix: Prefix,
    /// Relative weight of this population in draws.
    pub weight: f64,
}

/// A weighted pool of traffic sources (legitimate clients, spoofed-source
/// space for SYN floods, remote servers for client workloads, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct SourcePool {
    specs: Vec<SourceSpec>,
    cumulative: Vec<f64>,
}

impl SourcePool {
    /// Builds a pool from weighted specs.
    ///
    /// # Panics
    /// Panics if `specs` is empty or any weight is non-positive/NaN.
    pub fn new(specs: Vec<SourceSpec>) -> Self {
        assert!(!specs.is_empty(), "source pool must not be empty");
        let mut cumulative = Vec::with_capacity(specs.len());
        let mut total = 0.0;
        for s in &specs {
            assert!(s.weight > 0.0, "source weights must be positive");
            total += s.weight;
            cumulative.push(total);
        }
        Self { specs, cumulative }
    }

    /// Number of populations.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when no populations exist (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The underlying specs.
    pub fn specs(&self) -> &[SourceSpec] {
        &self.specs
    }

    /// Draws a weighted population and a uniform address inside it.
    pub fn draw<R: Rng>(&self, rng: &mut R) -> (Asn, Ipv4Addr) {
        let total = *self.cumulative.last().expect("non-empty");
        let x = rng.gen_range(0.0..total);
        let idx = self
            .cumulative
            .partition_point(|&c| c <= x)
            .min(self.specs.len() - 1);
        let spec = &self.specs[idx];
        let addr = spec.prefix.addr_at(rng.gen::<u64>());
        (spec.handover, addr)
    }
}

/// One reflector usable in an amplification attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Amplifier {
    /// The reflector's (real, unspoofed) address.
    pub ip: Ipv4Addr,
    /// The AS hosting the reflector — the paper's *origin AS* (§5.5).
    pub origin: Asn,
    /// The IXP member handing the reflected traffic into the fabric — the
    /// paper's *handover AS*, attributed via source MAC, spoofing-proof.
    pub handover: Asn,
}

/// One origin AS's reflector population inside the pool.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OriginGroup {
    origin: Asn,
    handover: Asn,
    /// The /24 this origin's reflectors live in.
    prefix: Prefix,
    /// How many distinct reflectors exist here.
    pool_size: u32,
    /// Probability that this origin participates in a given attack.
    participation: f64,
    /// Mean number of its reflectors used when participating.
    per_attack_mean: f64,
}

/// Parameters for synthesising an [`AmplifierPool`].
#[derive(Debug, Clone, PartialEq)]
pub struct AmplifierPoolSpec {
    /// `(origin, handover)` pairs in rank order — index 0 is the heavy
    /// hitter (the paper's top origin AS participating in ~60% of attacks).
    pub origins: Vec<(Asn, Asn)>,
    /// Participation probability of rank 1 (0.6 in the paper's data).
    pub base_participation: f64,
    /// Zipf exponent of the participation decay over ranks.
    pub participation_exponent: f64,
    /// Mean reflectors contributed per participating origin.
    pub amplifiers_per_origin: f64,
    /// Distinct reflectors available per origin.
    pub pool_size_per_origin: u32,
    /// Base of the synthetic reflector address space; origin `i` gets the
    /// /24 at `base + (i << 8)`.
    pub address_base: Ipv4Addr,
    /// Multiplier on the rank-1 origin's per-attack reflector count. The
    /// paper's top origin AS joins ~60% of attacks but carries only ~6% of
    /// the traffic — a modest boost makes it visible in sampled data without
    /// dominating volumes.
    pub heavy_hitter_boost: f64,
    /// Log-normal σ of the per-origin, per-attack volume multiplier. Values
    /// above zero make some origins dominate individual attacks, which is
    /// what spreads the per-event drop-rate distribution (paper Fig. 6).
    pub volume_sigma: f64,
}

/// The global reflector population attacks draw from.
#[derive(Debug, Clone, PartialEq)]
pub struct AmplifierPool {
    groups: Vec<OriginGroup>,
    volume_sigma: f64,
}

impl AmplifierPool {
    /// Synthesises a pool from a spec.
    ///
    /// # Panics
    /// Panics if the spec has no origins.
    pub fn synthesize(spec: &AmplifierPoolSpec) -> Self {
        assert!(!spec.origins.is_empty(), "amplifier pool needs origins");
        let groups = spec
            .origins
            .iter()
            .enumerate()
            .map(|(rank, &(origin, handover))| {
                let participation = (spec.base_participation
                    * ((rank + 1) as f64).powf(-spec.participation_exponent))
                .clamp(0.0, 1.0);
                let base = spec.address_base.to_u32().wrapping_add((rank as u32) << 8);
                let boost = if rank == 0 {
                    spec.heavy_hitter_boost.max(1.0)
                } else {
                    1.0
                };
                OriginGroup {
                    origin,
                    handover,
                    prefix: Prefix::new(Ipv4Addr::from_u32(base), 24).expect("len 24"),
                    pool_size: (spec.pool_size_per_origin as f64 * boost).ceil() as u32,
                    participation,
                    per_attack_mean: spec.amplifiers_per_origin * boost,
                }
            })
            .collect();
        Self {
            groups,
            volume_sigma: spec.volume_sigma,
        }
    }

    /// The participation probability of an origin by rank (for tests and
    /// calibration reports).
    pub fn participation(&self, rank: usize) -> Option<f64> {
        self.groups.get(rank).map(|g| g.participation)
    }

    /// The advertised `(prefix, origin)` pairs of the pool — what a route
    /// server's table would say about the reflector address space.
    pub fn advertised(&self) -> Vec<(Prefix, Asn)> {
        self.groups.iter().map(|g| (g.prefix, g.origin)).collect()
    }

    /// Draws the reflector set for one attack: each origin participates
    /// independently with its rank probability and contributes roughly
    /// `per_attack_mean` reflectors, scaled by a per-attack log-normal
    /// volume multiplier (`volume_sigma`).
    pub fn draw_attack_set<R: Rng>(&self, rng: &mut R) -> Vec<Amplifier> {
        let mut set = Vec::new();
        for (rank, g) in self.groups.iter().enumerate() {
            if !rng.gen_bool(g.participation) {
                continue;
            }
            // The heavy hitter is exempt from volume skew: it joins most
            // attacks with a steady, modest share (paper: 60% of events but
            // only 6% of traffic).
            let skew = if self.volume_sigma > 0.0 && rank > 0 {
                let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = rng.gen();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                // Mean-normalised log-normal: E[skew] = 1 so the expected
                // reflector count per attack stays calibrated while single
                // origins can dominate individual attacks.
                (self.volume_sigma * z - self.volume_sigma * self.volume_sigma / 2.0).exp()
            } else {
                1.0
            };
            let count = rtbh_fabric::sampler::poisson(g.per_attack_mean * skew, rng)
                .max(1)
                .min(g.pool_size as u64);
            for _ in 0..count {
                let host = rng.gen_range(0..g.pool_size) as u64 + 1; // skip .0
                set.push(Amplifier {
                    ip: g.prefix.addr_at(host),
                    origin: g.origin,
                    handover: g.handover,
                });
            }
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtbh_rng::ChaChaRng;

    fn rng() -> ChaChaRng {
        ChaChaRng::seed_from_u64(99)
    }

    fn pool_spec(n: usize) -> AmplifierPoolSpec {
        AmplifierPoolSpec {
            origins: (0..n)
                .map(|i| (Asn(50_000 + i as u32), Asn(100 + (i % 20) as u32)))
                .collect(),
            base_participation: 0.6,
            participation_exponent: 0.55,
            amplifiers_per_origin: 15.0,
            pool_size_per_origin: 64,
            address_base: Ipv4Addr::new(20, 0, 0, 0),
            heavy_hitter_boost: 1.0,
            volume_sigma: 0.0,
        }
    }

    #[test]
    fn source_pool_draws_inside_prefixes() {
        let pool = SourcePool::new(vec![
            SourceSpec {
                handover: Asn(1),
                prefix: "10.0.0.0/16".parse().unwrap(),
                weight: 1.0,
            },
            SourceSpec {
                handover: Asn(2),
                prefix: "172.16.0.0/12".parse().unwrap(),
                weight: 3.0,
            },
        ]);
        let mut r = rng();
        let mut second = 0usize;
        for _ in 0..2000 {
            let (handover, ip) = pool.draw(&mut r);
            match handover {
                Asn(1) => assert!("10.0.0.0/16".parse::<Prefix>().unwrap().contains_addr(ip)),
                Asn(2) => {
                    second += 1;
                    assert!("172.16.0.0/12".parse::<Prefix>().unwrap().contains_addr(ip));
                }
                other => panic!("unexpected handover {other}"),
            }
        }
        // Weight 3:1 → roughly 75% from the second population.
        assert!((second as f64 / 2000.0 - 0.75).abs() < 0.05, "{second}");
    }

    #[test]
    #[should_panic(expected = "not be empty")]
    fn empty_source_pool_panics() {
        let _ = SourcePool::new(Vec::new());
    }

    #[test]
    fn heavy_hitter_participates_most() {
        let pool = AmplifierPool::synthesize(&pool_spec(500));
        assert!((pool.participation(0).unwrap() - 0.6).abs() < 1e-12);
        assert!(pool.participation(0).unwrap() > pool.participation(10).unwrap());
        assert!(pool.participation(10).unwrap() > pool.participation(400).unwrap());
    }

    #[test]
    fn attack_sets_have_many_distributed_reflectors() {
        let pool = AmplifierPool::synthesize(&pool_spec(500));
        let mut r = rng();
        let set = pool.draw_attack_set(&mut r);
        assert!(set.len() > 100, "got {}", set.len());
        let origins: std::collections::BTreeSet<Asn> = set.iter().map(|a| a.origin).collect();
        assert!(origins.len() > 10, "reflectors must span many origins");
    }

    #[test]
    fn heavy_hitter_frequency_matches_participation() {
        let pool = AmplifierPool::synthesize(&pool_spec(200));
        let heavy = Asn(50_000);
        let mut r = rng();
        let attacks = 500;
        let with_heavy = (0..attacks)
            .filter(|_| {
                pool.draw_attack_set(&mut r)
                    .iter()
                    .any(|a| a.origin == heavy)
            })
            .count();
        let share = with_heavy as f64 / attacks as f64;
        assert!((share - 0.6).abs() < 0.08, "heavy hitter share {share}");
    }

    #[test]
    fn reflector_ips_live_in_origin_prefix() {
        let pool = AmplifierPool::synthesize(&pool_spec(10));
        let mut r = rng();
        for a in pool.draw_attack_set(&mut r) {
            let rank = a.origin.value() - 50_000;
            let base = Ipv4Addr::new(20, 0, 0, 0).to_u32() + (rank << 8);
            let pfx = Prefix::new(Ipv4Addr::from_u32(base), 24).unwrap();
            assert!(pfx.contains_addr(a.ip), "{} not in {}", a.ip, pfx);
        }
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let pool = AmplifierPool::synthesize(&pool_spec(50));
        let a = pool.draw_attack_set(&mut rng());
        let b = pool.draw_attack_set(&mut rng());
        assert_eq!(a, b);
    }
}

rtbh_json::impl_json! { struct SourceSpec { handover, prefix, weight } }
rtbh_json::impl_json! { struct SourcePool { specs, cumulative } }
rtbh_json::impl_json! { struct Amplifier { ip, origin, handover } }

rtbh_json::impl_json! {
    struct OriginGroup {
        origin, handover, prefix, pool_size, participation, per_attack_mean,
    }
}

rtbh_json::impl_json! {
    struct AmplifierPoolSpec {
        origins, base_participation, participation_exponent, amplifiers_per_origin,
        pool_size_per_origin, address_base, heavy_hitter_boost, volume_sigma,
    }
}

rtbh_json::impl_json! { struct AmplifierPool { groups, volume_sigma } }
