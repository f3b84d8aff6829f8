//! The three workloads and the seeded load generator.
//!
//! Every input a run uses is a pure function of the run seed, the
//! workload and the phase: request lengths, system-prompt choice, token
//! embeddings and online arrival times. The program under test receives
//! only the generated requests.
//!
//! Lengths and arrival gaps are drawn by *quantile* sampling: for `n`
//! draws the unit interval is cut into `n` equal strata, each stratum
//! contributes its midpoint, and the inverse CDF maps the midpoints to
//! values. So for a given `n` every seed serves the same multiset of
//! (prompt, output) length pairs and the same multiset of arrival gaps,
//! and the spread between runs with different seeds measures the system
//! rather than the luck of the draw. Each online segment of a run (see
//! [`Phase::Online`]) draws its own `n`, so the segments of one run are
//! permutations of one another too. The seed decides the online order of
//! the length pairs and of the gaps (within the blocks of
//! [`blocked_order`]), the system prompt of each online request and every
//! embedding value.

use pdac_math::rng::SplitMix64;
use pdac_serve::Request;

/// Which GEMM backend a workload serves through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// 8-bit P-DAC `AnalogGemm`.
    Pdac,
    /// `AsymmetricGemm`: P-DAC activations, e-DAC weights.
    Hybrid,
}

/// A clamped lognormal length distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LenDist {
    pub median: f64,
    pub sigma: f64,
    pub min: usize,
    pub max: usize,
}

impl LenDist {
    /// The length at cumulative probability `u` in `(0, 1)`.
    pub fn at(&self, u: f64) -> usize {
        let x = self.median * (self.sigma * inverse_normal_cdf(u)).exp();
        (x.round() as usize).clamp(self.min, self.max)
    }
}

/// One traffic mix on one backend.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists: the layer it stresses.
    pub why: &'static str,
    pub backend: BackendKind,
    /// Prompt length (for shared-prefix workloads, the tail after the
    /// system prompt).
    pub prompt: LenDist,
    /// Number of fixed system prompts requests choose among (0: none).
    pub system_prompts: usize,
    /// Tokens in each system prompt.
    pub system_tokens: usize,
    pub output: LenDist,
    /// Requests admitted at t = 0 in each offline round.
    pub offline_requests: usize,
    /// Online Poisson arrival rate.
    pub rate_per_s: f64,
    /// Requests that arrive in each online segment (one per cycle).
    pub online_requests: usize,
    /// SLO limit on time to first token.
    pub slo_ttft_ms: f64,
    /// SLO limit on the mean inter-token latency of a request.
    pub slo_tpot_ms: f64,
    /// KV page budget (`None`: unbounded).
    pub kv_budget_bytes: Option<usize>,
}

/// The benchmark's workloads, in run order.
pub fn workloads() -> [Workload; 3] {
    let chat_prompt = LenDist {
        median: 16.0,
        sigma: 0.7,
        min: 4,
        max: 96,
    };
    let chat_output = LenDist {
        median: 32.0,
        sigma: 0.8,
        min: 4,
        max: 160,
    };
    let short_output = LenDist {
        median: 12.0,
        sigma: 0.5,
        min: 2,
        max: 48,
    };
    [
        Workload {
            name: "chat",
            why: "decode-bound P-DAC chat: analog weight GEMMs take most step time; \
                  no prefix reuse, no KV budget",
            backend: BackendKind::Pdac,
            prompt: chat_prompt,
            system_prompts: 0,
            system_tokens: 0,
            output: chat_output,
            offline_requests: 10,
            rate_per_s: 3.2,
            online_requests: 13,
            slo_ttft_ms: 300.0,
            slo_tpot_ms: 10.0,
            kv_budget_bytes: None,
        },
        Workload {
            name: "shared_prefix",
            why: "four shared 128-token system prompts on the hybrid backend: the prefix \
                  cache maps most prompt tokens instead of computing them",
            backend: BackendKind::Hybrid,
            prompt: LenDist {
                median: 16.0,
                sigma: 0.5,
                min: 4,
                max: 48,
            },
            system_prompts: 4,
            system_tokens: 128,
            output: short_output,
            offline_requests: 10,
            rate_per_s: 5.0,
            online_requests: 15,
            slo_ttft_ms: 300.0,
            slo_tpot_ms: 16.0,
            kv_budget_bytes: None,
        },
        Workload {
            name: "long_prompt",
            why: "prefill-bound long prompts under a 6 MiB KV budget: TTFT is prompt \
                  length in steps, and admissions wait for pages",
            backend: BackendKind::Pdac,
            prompt: LenDist {
                median: 112.0,
                sigma: 0.35,
                min: 64,
                max: 256,
            },
            system_prompts: 0,
            system_tokens: 0,
            output: short_output,
            offline_requests: 4,
            rate_per_s: 1.4,
            online_requests: 5,
            slo_ttft_ms: 1200.0,
            slo_tpot_ms: 10.0,
            kv_budget_bytes: Some(6 * 1024 * 1024),
        },
    ]
}

/// The workload named `name`.
pub fn find(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

/// Which part of a run a request belongs to; each draws its own stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The offline batch (the same in every round of a run).
    Offline,
    /// The online segment of cycle `c`.
    Online(usize),
}

impl Phase {
    /// Names the phase's generator streams.
    fn tag(self) -> String {
        match self {
            Phase::Offline => "offline".into(),
            Phase::Online(c) => format!("online.{c}"),
        }
    }
}

/// The shape of one generated request; its embeddings follow from
/// [`Workload::request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSpec {
    /// Index of the system prompt it opens with, if any.
    pub system: Option<usize>,
    /// Prompt tokens after the system prompt.
    pub tail: usize,
    pub max_new_tokens: usize,
}

/// FNV-1a over `bytes`, continuing from `hash`.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A generator seeded from the run seed, the workload name and a purpose,
/// so every input has its own independent stream.
fn rng_for(seed: u64, workload: &str, purpose: &str, index: u64) -> SplitMix64 {
    let mut h = fnv1a(FNV_OFFSET, &seed.to_le_bytes());
    h = fnv1a(h, workload.as_bytes());
    h = fnv1a(h, purpose.as_bytes());
    h = fnv1a(h, &index.to_le_bytes());
    SplitMix64::seed_from_u64(h)
}

fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range_usize(0, i);
        items.swap(i, j);
    }
}

/// `0..n` in an order drawn from `rng`.
fn permutation(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    shuffle(&mut p, rng);
    p
}

/// Consecutive requests (and arrival gaps) that [`blocked_order`] draws
/// from every tenth of the distribution.
const BLOCK: usize = 10;

/// `0..n` in a seeded order in which each aligned run of [`BLOCK`]
/// positions holds one stratum from each of `BLOCK` equal bands of
/// `0..n` (the last run may be short). Every stretch of traffic then
/// mixes short and long requests, and short and long gaps, in the same
/// proportions, so seeds differ in detail but not in how clustered the
/// load is.
pub fn blocked_order(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut bands = vec![Vec::new(); BLOCK];
    for k in 0..n {
        bands[k * BLOCK / n].push(k);
    }
    bands.iter_mut().for_each(|b| shuffle(b, rng));
    let mut order = Vec::with_capacity(n);
    for j in 0..n.div_ceil(BLOCK) {
        let mut run: Vec<usize> = bands.iter().filter_map(|b| b.get(j).copied()).collect();
        shuffle(&mut run, rng);
        order.extend(run);
    }
    order
}

/// The midpoint of stratum `k` of `n` equal strata of `(0, 1)`.
fn midpoint(k: usize, n: usize) -> f64 {
    (k as f64 + 0.5) / n as f64
}

impl Workload {
    /// Whether requests open with a shared system prompt.
    pub fn has_system_prompts(&self) -> bool {
        self.system_prompts > 0
    }

    /// The shapes of `n` requests of `phase`.
    ///
    /// The offline batch's order is fixed by the workload too: all of it
    /// is admitted at once, and its order alone moves the step count of a
    /// round by up to a fifth (in which wave the longest requests start),
    /// which would drown the throughput being measured. Its seed draws
    /// only the embeddings. Online requests come in a seeded
    /// [`blocked_order`].
    pub fn specs(&self, seed: u64, phase: Phase, n: usize) -> Vec<RequestSpec> {
        // Which output stratum goes with each prompt stratum is fixed by
        // the workload, so every seed serves the same length pairs.
        let pairing = permutation(n, &mut rng_for(0, self.name, "pairing", n as u64));
        let order_seed = match phase {
            Phase::Offline => 0,
            Phase::Online(_) => seed,
        };
        let mut rng = rng_for(order_seed, self.name, &phase.tag(), 0);
        let order = blocked_order(n, &mut rng);
        let mut systems: Vec<usize> = (0..n).map(|i| i % self.system_prompts.max(1)).collect();
        shuffle(&mut systems, &mut rng);
        order
            .into_iter()
            .zip(systems)
            .map(|(k, system)| RequestSpec {
                system: self.has_system_prompts().then_some(system),
                tail: self.prompt.at(midpoint(k, n)),
                max_new_tokens: self.output.at(midpoint(pairing[k], n)),
            })
            .collect()
    }

    /// Arrival times of `n` requests of `phase` in seconds from its start:
    /// Poisson at [`Self::rate_per_s`], gaps drawn by quantile sampling.
    pub fn arrivals(&self, seed: u64, phase: Phase, n: usize) -> Vec<f64> {
        let purpose = format!("{}.arrivals", phase.tag());
        poisson_arrivals(
            self.rate_per_s,
            n,
            &mut rng_for(seed, self.name, &purpose, 0),
        )
    }

    /// `count` distinct indices out of `n` requests of the `label` kind
    /// of phase (`"offline"` or `"online"`) whose completions the check
    /// replays solo.
    pub fn replay_picks(&self, seed: u64, label: &str, n: usize, count: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        shuffle(&mut idx, &mut rng_for(seed, self.name, label, u64::MAX));
        idx.truncate(count);
        idx
    }

    /// Request `index` of `phase` with its embeddings (each token a
    /// `hidden`-wide vector uniform in [-1, 1)). System prompts are fixed:
    /// they depend on the workload only, never on the run seed.
    pub fn request(
        &self,
        seed: u64,
        phase: Phase,
        index: usize,
        spec: RequestSpec,
        hidden: usize,
    ) -> Request {
        let mut prompt = Vec::with_capacity(self.system_tokens + spec.tail);
        if let Some(k) = spec.system {
            let mut rng = rng_for(0, self.name, "system", k as u64);
            prompt.extend((0..self.system_tokens).map(|_| token(&mut rng, hidden)));
        }
        let mut rng = rng_for(seed, self.name, &phase.tag(), 1 + index as u64);
        prompt.extend((0..spec.tail).map(|_| token(&mut rng, hidden)));
        Request {
            id: index as u64,
            prompt,
            max_new_tokens: spec.max_new_tokens,
        }
    }
}

fn token(rng: &mut SplitMix64, hidden: usize) -> Vec<f64> {
    (0..hidden).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect()
}

/// Arrival times of a rate-`rate` Poisson process (`n` arrivals): the
/// `n` exponential gap quantiles at the strata midpoints, in a
/// [`blocked_order`] drawn from `rng`.
pub fn poisson_arrivals(rate: f64, n: usize, rng: &mut SplitMix64) -> Vec<f64> {
    let mut t = 0.0;
    blocked_order(n, rng)
        .into_iter()
        .map(|k| {
            t += -(1.0 - midpoint(k, n)).ln() / rate;
            t
        })
        .collect()
}

/// Standard normal quantile (Acklam's rational approximation, relative
/// error below 1.2e-9 on `(0, 1)`).
pub fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probability {p} outside (0, 1)");
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    let tail = |q: f64| {
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        tail((-2.0 * p.ln()).sqrt())
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -tail((-2.0 * (1.0 - p).ln()).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_different_seed_differs() {
        for w in workloads() {
            let on = Phase::Online(0);
            let a = w.specs(1, on, 50);
            assert_eq!(a, w.specs(1, on, 50), "{}", w.name);
            assert_ne!(a, w.specs(2, on, 50), "{}", w.name);
            assert_eq!(w.arrivals(1, on, 50), w.arrivals(1, on, 50));
            assert_ne!(w.arrivals(1, on, 50), w.arrivals(2, on, 50));
            let (r1, r2) = (w.request(1, on, 3, a[3], 8), w.request(1, on, 3, a[3], 8));
            assert_eq!(r1.prompt, r2.prompt);
            let other = w.request(2, on, 3, a[3], 8);
            assert_ne!(r1.prompt, other.prompt);
            // Each cycle's online segment draws its own streams.
            let next = Phase::Online(1);
            assert_ne!(a, w.specs(1, next, 50), "{}", w.name);
            assert_ne!(w.arrivals(1, on, 50), w.arrivals(1, next, 50));
            assert_ne!(r1.prompt, w.request(1, next, 3, a[3], 8).prompt);
            // Offline and online phases draw independent streams.
            let off = w.specs(1, Phase::Offline, 50);
            assert_ne!(a, off);
            // The offline schedule is the workload's; its seed draws the
            // embeddings.
            assert_eq!(off, w.specs(2, Phase::Offline, 50));
            assert_ne!(
                w.request(1, Phase::Offline, 0, off[0], 8).prompt,
                w.request(2, Phase::Offline, 0, off[0], 8).prompt
            );
        }
    }

    #[test]
    fn every_seed_and_segment_serves_the_same_length_pairs_and_gaps() {
        for w in workloads() {
            let pairs = |seed, phase| {
                let mut p: Vec<(usize, usize)> = w
                    .specs(seed, phase, 37)
                    .iter()
                    .map(|s| (s.tail, s.max_new_tokens))
                    .collect();
                p.sort();
                p
            };
            let want = pairs(1, Phase::Online(0));
            assert_eq!(want, pairs(2, Phase::Online(3)), "{}", w.name);
            assert_eq!(want, pairs(5, Phase::Offline), "{}", w.name);
            let gaps = |seed, phase| {
                let t = w.arrivals(seed, phase, 37);
                let mut g: Vec<f64> = std::iter::once(t[0])
                    .chain(t.windows(2).map(|p| p[1] - p[0]))
                    .collect();
                g.sort_by(f64::total_cmp);
                g
            };
            let (a, b) = (gaps(1, Phase::Online(0)), gaps(2, Phase::Online(3)));
            assert!(a.iter().zip(&b).all(|(x, y)| (x - y).abs() < 1e-9));
        }
    }

    #[test]
    fn blocked_order_spreads_every_band_over_each_block() {
        for n in [1, 7, 10, 37, 99, 270] {
            let order = blocked_order(n, &mut SplitMix64::seed_from_u64(n as u64));
            let mut sorted = order.clone();
            sorted.sort();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "n={n}");
            for run in order.chunks(BLOCK) {
                let mut bands: Vec<usize> = run.iter().map(|&k| k * BLOCK / n).collect();
                bands.sort();
                bands.dedup();
                assert_eq!(bands.len(), run.len(), "n={n}: a band repeats in {run:?}");
            }
        }
    }

    #[test]
    fn length_clamps_hold() {
        for w in workloads() {
            for seed in 0..20 {
                for spec in w.specs(seed, Phase::Offline, 200) {
                    assert!((w.prompt.min..=w.prompt.max).contains(&spec.tail));
                    assert!((w.output.min..=w.output.max).contains(&spec.max_new_tokens));
                    assert_eq!(spec.system.is_some(), w.has_system_prompts());
                    assert!(spec.system.unwrap_or(0) < w.system_prompts.max(1));
                }
            }
        }
        // The extreme quantiles land on the clamps.
        let d = workloads()[0].prompt;
        assert_eq!(d.at(1e-12), d.min);
        assert_eq!(d.at(1.0 - 1e-12), d.max);
    }

    #[test]
    fn system_prompts_are_fixed_across_seeds() {
        let w = find("shared_prefix").unwrap();
        let spec = RequestSpec {
            system: Some(2),
            tail: 3,
            max_new_tokens: 1,
        };
        let a = w.request(1, Phase::Online(2), 0, spec, 4);
        let b = w.request(9, Phase::Offline, 5, spec, 4);
        assert_eq!(a.prompt.len(), 131);
        assert_eq!(a.prompt[..128], b.prompt[..128]);
        assert_ne!(a.prompt[128..], b.prompt[128..]);
    }

    #[test]
    fn poisson_rate_within_five_percent_over_10k_arrivals() {
        for (seed, rate) in [(1u64, 3.5), (2, 10.0), (3, 0.5)] {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let t = poisson_arrivals(rate, 10_000, &mut rng);
            assert!(t.windows(2).all(|w| w[1] > w[0]), "arrivals not increasing");
            let measured = t.len() as f64 / t[t.len() - 1];
            assert!(
                (measured / rate - 1.0).abs() < 0.05,
                "rate {measured} vs {rate}"
            );
            // Gaps are exponential: their coefficient of variation is ≈ 1.
            let gaps: Vec<f64> = std::iter::once(t[0])
                .chain(t.windows(2).map(|w| w[1] - w[0]))
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
            assert!((var.sqrt() / mean - 1.0).abs() < 0.05);
        }
    }

    #[test]
    fn inverse_normal_cdf_matches_known_quantiles() {
        for (p, z) in [
            (0.5, 0.0),
            (0.975, 1.959_963_984_540_054),
            (0.9, 1.281_551_565_544_600_4),
            (0.01, -2.326_347_874_040_841),
        ] {
            assert!((inverse_normal_cdf(p) - z).abs() < 1e-8, "p={p}");
        }
    }
}
