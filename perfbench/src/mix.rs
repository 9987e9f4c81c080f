//! The request generator for the daemon workloads: a seeded, Zipf-weighted
//! mix of `/v1/run`, `/v1/sweep` (dense and streamed adaptive),
//! `/v1/report` and `/v1/yield` requests.
//!
//! The generator has its own PRNG, takes only the benchmark names from
//! the library, and writes requests as JSON text, so the program under
//! test receives nothing but the generated bodies.

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator rooted at `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// Zipf(`s`) over ranks `0..n`: rank `k` has weight `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks with exponent `s`.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// Draws a rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The five request shapes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    /// `POST /v1/run`: one cell.
    Run,
    /// `POST /v1/sweep`, dense, buffered.
    Sweep,
    /// `POST /v1/sweep`, adaptive, `"stream": true`.
    SweepStream,
    /// `POST /v1/report`.
    Report,
    /// `POST /v1/yield`.
    Yield,
}

impl Kind {
    /// Every kind, in weight-table order.
    pub const ALL: [Kind; 5] = [
        Kind::Run,
        Kind::Sweep,
        Kind::SweepStream,
        Kind::Report,
        Kind::Yield,
    ];

    /// The endpoint path.
    #[must_use]
    pub fn path(self) -> &'static str {
        match self {
            Kind::Run => "/v1/run",
            Kind::Sweep | Kind::SweepStream => "/v1/sweep",
            Kind::Report => "/v1/report",
            Kind::Yield => "/v1/yield",
        }
    }

    /// A short label for per-endpoint figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Kind::Run => "run",
            Kind::Sweep => "sweep",
            Kind::SweepStream => "sweep_stream",
            Kind::Report => "report",
            Kind::Yield => "yield",
        }
    }
}

/// One generated request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Its shape.
    pub kind: Kind,
    /// The JSON body.
    pub body: String,
    /// `(core × benchmark × point)` outcomes the response delivers;
    /// `None` for adaptive sweeps, whose probe count the response tells.
    pub cells: Option<u64>,
}

/// The shape of a mix: kind counts per block and request sizes.
#[derive(Debug, Clone, Copy)]
pub struct MixConfig {
    /// Requests of each kind in every block of [`MixConfig::block`]
    /// requests, in [`Kind::ALL`] order. Each block is a seeded shuffle
    /// of exactly these, so every block carries the same kind mix and
    /// run-to-run spread comes from the draws within a kind only.
    pub per_block: [usize; 5],
    /// Benchmarks per dense sweep, inclusive range.
    pub sweep_benches: (usize, usize),
    /// Clock points per dense sweep, inclusive range.
    pub sweep_points: (usize, usize),
    /// Benchmarks per adaptive sweep, inclusive range.
    pub stream_benches: (usize, usize),
    /// Benchmarks per report, inclusive range.
    pub report_benches: (usize, usize),
    /// Benchmarks per yield request, inclusive range.
    pub yield_benches: (usize, usize),
    /// Clock points per yield request.
    pub yield_points: usize,
    /// Monte Carlo dies per yield request.
    pub yield_samples: u32,
    /// Warm-up instructions of every request.
    pub warmup: u64,
    /// Measured instructions of every request.
    pub measure: u64,
}

/// `serve-mix`: mostly single cells, small overlapping sweeps.
///
/// A synthetic traffic model, not recorded use: the per-cell interval is
/// the documented `--quick` one, the other numbers are assumptions sized
/// so a 15-second run completes the design sample counts (README, "The
/// request mix is a synthetic, unverified traffic model").
pub const SERVE_MIX: MixConfig = MixConfig {
    per_block: [30, 10, 3, 4, 3],
    sweep_benches: (2, 3),
    sweep_points: (3, 4),
    stream_benches: (1, 2),
    report_benches: (1, 2),
    yield_benches: (1, 1),
    yield_points: 3,
    yield_samples: 4,
    warmup: 2_000,
    measure: 8_000,
};

/// `route-mix`: weighted toward cold multi-benchmark sweeps and yields;
/// as assumed as [`SERVE_MIX`].
pub const ROUTE_MIX: MixConfig = MixConfig {
    per_block: [6, 7, 2, 1, 4],
    sweep_benches: (3, 5),
    sweep_points: (3, 4),
    stream_benches: (2, 3),
    report_benches: (1, 2),
    yield_benches: (1, 1),
    yield_points: 3,
    yield_samples: 4,
    warmup: 2_000,
    measure: 8_000,
};

impl MixConfig {
    /// Requests per block.
    #[must_use]
    pub fn block(&self) -> usize {
        self.per_block.iter().sum()
    }
}

/// Benchmark names, in the program's profile order.
#[must_use]
pub fn benchmarks() -> Vec<String> {
    fo4depth::workload::profiles::all()
        .into_iter()
        .map(|p| p.name)
        .collect()
}

/// Clock points a request may name: 2 to 16 FO4 in half steps.
fn point_universe() -> Vec<f64> {
    (4..=32).map(|h| f64::from(h) / 2.0).collect()
}

/// Popularity order of the point universe: nearest the paper's 6–8 FO4
/// optimum first, where a user refining the optimum asks most.
fn point_popularity(points: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&a, &b| {
        let d = |i: usize| (points[i] - 7.0).abs();
        d(a).partial_cmp(&d(b))
            .expect("finite points")
            .then(a.cmp(&b))
    });
    order
}

/// An endless, seeded request stream. Popularity is part of the mix, not
/// of the seed: benchmarks are Zipf-ranked in profile order and points by
/// distance from 7 FO4, so every seed draws from the same distribution
/// and seeds differ only in the draws.
#[derive(Debug, Clone)]
pub struct Generator {
    rng: Rng,
    config: MixConfig,
    sim_seed: u64,
    names: Vec<String>,
    bench_order: Vec<usize>,
    bench_zipf: Zipf,
    point_order: Vec<usize>,
    point_zipf: Zipf,
    points: Vec<f64>,
    next_variation_seed: u64,
    /// Kinds left in the current block, drawn from the back.
    block: Vec<Kind>,
}

impl Generator {
    /// The stream for `seed`; every request simulates at `sim_seed`.
    #[must_use]
    pub fn new(config: MixConfig, seed: u64, sim_seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let points = point_universe();
        let names = benchmarks();
        let bench_order: Vec<usize> = (0..names.len()).collect();
        let bench_zipf = Zipf::new(names.len(), 1.1);
        let point_order = point_popularity(&points);
        let next_variation_seed = rng.next_u64() >> 16;
        Self {
            rng,
            config,
            sim_seed,
            names,
            bench_order,
            bench_zipf,
            point_order,
            point_zipf: Zipf::new(points.len(), 0.9),
            points,
            next_variation_seed,
            block: Vec::new(),
        }
    }

    fn kind(&mut self) -> Kind {
        if self.block.is_empty() {
            for (kind, &n) in Kind::ALL.iter().zip(&self.config.per_block) {
                self.block.extend(std::iter::repeat_n(*kind, n));
            }
            for i in (1..self.block.len()).rev() {
                let j = self.rng.range(0, i);
                self.block.swap(i, j);
            }
        }
        self.block
            .pop()
            .expect("a block holds at least one request")
    }

    fn core(&mut self) -> &'static str {
        if self.rng.unit() < 0.75 {
            "ooo"
        } else {
            "inorder"
        }
    }

    /// `count` distinct Zipf-drawn benchmarks, in profile order.
    fn benches(&mut self, count: usize) -> Vec<String> {
        let mut picked: Vec<usize> = Vec::with_capacity(count);
        while picked.len() < count {
            let b = self.bench_order[self.bench_zipf.sample(&mut self.rng)];
            if !picked.contains(&b) {
                picked.push(b);
            }
        }
        picked.sort_unstable();
        picked.into_iter().map(|b| self.names[b].clone()).collect()
    }

    /// `count` consecutive half-step points from a Zipf-drawn start: runs
    /// of neighbouring points overlap between requests.
    fn window(&mut self, count: usize) -> Vec<f64> {
        let start = self.point_order[self.point_zipf.sample(&mut self.rng)];
        let start = start.min(self.points.len() - count);
        self.points[start..start + count].to_vec()
    }

    fn params(&self) -> String {
        format!(
            "\"warmup\":{},\"measure\":{},\"seed\":{}",
            self.config.warmup, self.config.measure, self.sim_seed
        )
    }
}

fn names(benches: &[String]) -> String {
    let quoted: Vec<String> = benches.iter().map(|b| format!("\"{b}\"")).collect();
    format!("[{}]", quoted.join(","))
}

fn numbers(points: &[f64]) -> String {
    let items: Vec<String> = points.iter().map(|p| format!("{p:?}")).collect();
    format!("[{}]", items.join(","))
}

impl Iterator for Generator {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let kind = self.kind();
        let core = self.core();
        let params = self.params();
        let c = self.config;
        let request = match kind {
            Kind::Run => {
                let bench = self.benches(1).remove(0);
                let t = self.points[self.point_order[self.point_zipf.sample(&mut self.rng)]];
                Request {
                    kind,
                    body: format!(
                        "{{\"core\":\"{core}\",\"benchmark\":\"{bench}\",\"t_useful\":{t:?},{params}}}"
                    ),
                    cells: Some(1),
                }
            }
            Kind::Sweep => {
                let n = self.rng.range(c.sweep_benches.0, c.sweep_benches.1);
                let benches = self.benches(n);
                let n = self.rng.range(c.sweep_points.0, c.sweep_points.1);
                let points = self.window(n);
                Request {
                    kind,
                    body: format!(
                        "{{\"core\":\"{core}\",\"benchmarks\":{},\"points\":{},{params}}}",
                        names(&benches),
                        numbers(&points)
                    ),
                    cells: Some((benches.len() * points.len()) as u64),
                }
            }
            Kind::SweepStream => {
                let n = self.rng.range(c.stream_benches.0, c.stream_benches.1);
                let benches = self.benches(n);
                Request {
                    kind,
                    body: format!(
                        "{{\"core\":\"{core}\",\"benchmarks\":{},\"mode\":\"adaptive\",\"stream\":true,{params}}}",
                        names(&benches)
                    ),
                    cells: None,
                }
            }
            Kind::Report => {
                let n = self.rng.range(c.report_benches.0, c.report_benches.1);
                let benches = self.benches(n);
                let points = self.window(2);
                Request {
                    kind,
                    body: format!(
                        "{{\"core\":\"{core}\",\"benchmarks\":{},\"points\":{},{params}}}",
                        names(&benches),
                        numbers(&points)
                    ),
                    cells: Some((benches.len() * points.len()) as u64),
                }
            }
            Kind::Yield => {
                let n = self.rng.range(c.yield_benches.0, c.yield_benches.1);
                let benches = self.benches(n);
                let points = self.window(c.yield_points);
                let variation_seed = self.next_variation_seed;
                self.next_variation_seed += 1;
                Request {
                    kind,
                    body: format!(
                        "{{\"core\":\"{core}\",\"benchmarks\":{},\"points\":{},\"samples\":{},\"variation_seed\":{variation_seed},{params}}}",
                        names(&benches),
                        numbers(&points),
                        c.yield_samples
                    ),
                    cells: Some(
                        (benches.len() * points.len()) as u64 * (1 + u64::from(c.yield_samples)),
                    ),
                }
            }
        };
        Some(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_an_identical_sequence() {
        let a: Vec<Request> = Generator::new(SERVE_MIX, 42, 42).take(500).collect();
        let b: Vec<Request> = Generator::new(SERVE_MIX, 42, 42).take(500).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn a_different_seed_gives_a_different_sequence() {
        let a: Vec<Request> = Generator::new(SERVE_MIX, 42, 42).take(200).collect();
        let b: Vec<Request> = Generator::new(SERVE_MIX, 43, 42).take(200).collect();
        assert_ne!(a, b);
        let differing = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        assert!(differing > 100, "only {differing} of 200 requests differ");
    }

    #[test]
    fn every_block_carries_exactly_its_kind_counts() {
        for config in [SERVE_MIX, ROUTE_MIX] {
            let reqs: Vec<Request> = Generator::new(config, 7, 7)
                .take(config.block() * 20)
                .collect();
            let mut orders = std::collections::BTreeSet::new();
            for block in reqs.chunks(config.block()) {
                for (kind, &n) in Kind::ALL.iter().zip(&config.per_block) {
                    assert_eq!(block.iter().filter(|r| r.kind == *kind).count(), n);
                }
                orders.insert(block.iter().map(|r| r.kind).collect::<Vec<_>>());
            }
            assert!(orders.len() > 1, "blocks are shuffled");
        }
    }

    #[test]
    fn yields_draw_distinct_variation_seeds_and_bodies_are_json() {
        let reqs: Vec<Request> = Generator::new(SERVE_MIX, 3, 3).take(2_000).collect();
        let mut seeds: Vec<&str> = reqs
            .iter()
            .filter(|r| r.kind == Kind::Yield)
            .map(|r| r.body.split("\"variation_seed\":").nth(1).unwrap())
            .collect();
        let n = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), n);
        for r in &reqs {
            fo4depth::util::Json::parse(&r.body).expect("generated body parses");
        }
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(18, 1.1);
        let mut rng = Rng::new(1);
        let mut counts = [0usize; 18];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[5] && counts[5] > counts[17]);
    }
}
