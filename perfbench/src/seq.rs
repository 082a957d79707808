//! Seeded inputs: a small deterministic RNG and the `serve` workload's
//! request sequence. Everything a run sends is a pure function of the
//! workload seed.

/// SplitMix64: tiny, seedable, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` mixed with a per-use `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `k` distinct indices in `0..n`, in draw order (`k <= n`).
    pub fn distinct(&mut self, k: usize, n: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        self.shuffle(&mut all);
        all.truncate(k);
        all
    }
}

/// The five request classes of the `serve` workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `POST /v1/experiments/{id}/step` by [`STEP_SLOTS`].
    Step,
    /// `GET /v1/experiments/{id}/state`.
    State,
    /// `/v1/simulate` of a key warmed during set-up.
    Hit,
    /// `/v1/simulate` of a key never seen before.
    Miss,
    /// `/v1/batch-simulate` of [`BATCH_SITES`] never-seen sites.
    Batch,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::Step,
        Class::State,
        Class::Hit,
        Class::Miss,
        Class::Batch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Step => "step",
            Class::State => "state",
            Class::Hit => "hit",
            Class::Miss => "miss",
            Class::Batch => "batch",
        }
    }
}

/// Slots one `step` request advances an experiment (one simulated day).
pub const STEP_SLOTS: u64 = 1440;
/// Sites per `batch` request.
pub const BATCH_SITES: u64 = 8;
/// Distinct keys warmed during set-up; `hit` requests draw from them.
pub const WARM_KEYS: usize = 4;

/// How many requests of each class one round sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    pub step: usize,
    pub state: usize,
    pub hit: usize,
    pub miss: usize,
    pub batch: usize,
}

impl Mix {
    pub fn count(&self, class: Class) -> usize {
        match class {
            Class::Step => self.step,
            Class::State => self.state,
            Class::Hit => self.hit,
            Class::Miss => self.miss,
            Class::Batch => self.batch,
        }
    }

    /// Scenario-cache hits the server must report after set-up plus
    /// `rounds` of this mix: exactly the `hit` requests (batch sites are
    /// always fresh).
    pub fn designed_cache_hits(&self, rounds: usize) -> u64 {
        (rounds * self.hit) as u64
    }

    /// Scenario-cache misses: the warmed keys, every `miss`, and every
    /// batch site.
    pub fn designed_cache_misses(&self, rounds: usize) -> u64 {
        (WARM_KEYS + rounds * self.miss) as u64 + (rounds * self.batch) as u64 * BATCH_SITES
    }
}

/// One request of the sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub class: Class,
    /// Experiment index (0 foresighted, 1 myopic) for `step`/`state`.
    pub experiment: usize,
    /// Scenario seed for `hit`/`miss`, base seed for `batch`.
    pub seed: u64,
}

/// Seeds are handed out in blocks of [`BATCH_SITES`], so a batch's sites
/// never collide with another request's key. Runs at different workload
/// seeds use disjoint ranges (and stay far below 2^53, where flat-JSON
/// numbers stop being exact).
const SEED_BLOCKS_PER_RUN: u64 = 4096;

fn seed_base(seed: u64) -> u64 {
    1 + (seed % 1_000_000) * SEED_BLOCKS_PER_RUN * BATCH_SITES
}

/// Seed of fresh block `k` for this run.
fn block_seed(seed: u64, k: usize) -> u64 {
    seed_base(seed) + k as u64 * BATCH_SITES
}

/// The keys warmed during set-up, which `hit` requests reuse.
pub fn warm_seeds(seed: u64) -> Vec<u64> {
    (0..WARM_KEYS).map(|k| block_seed(seed, k)).collect()
}

/// Seeds of the two experiments created during set-up (off the block
/// grid; experiments never touch the scenario cache anyway).
pub fn experiment_seeds(seed: u64) -> [u64; 2] {
    [seed_base(seed) + 1, seed_base(seed) + 2]
}

/// The run's request sequence as `rounds` rounds of one seeded template:
/// `mix` counts of every class in a seeded random order, with seeded
/// experiment and warm-key choices. Only the keys of `miss` and `batch`
/// change from round to round: each gets a fresh, never-repeating seed.
/// So the request at one position costs the same work in every round,
/// and its median over the rounds drops host interference that hits
/// fewer than half of them.
pub fn sequence(seed: u64, mix: &Mix, rounds: usize) -> Vec<Vec<Op>> {
    let mut rng = Rng::new(seed, 0x5E_4E);
    let warm = warm_seeds(seed);
    let mut classes: Vec<Class> = Class::ALL
        .iter()
        .flat_map(|&c| std::iter::repeat_n(c, mix.count(c)))
        .collect();
    rng.shuffle(&mut classes);
    // A fixed share of each experiment per class (foresighted steps and
    // snapshots cost more than myopic ones), in seeded order.
    let mut targets = |n: usize| {
        let mut t: Vec<usize> = (0..n).map(|i| usize::from(i >= n * 5 / 8)).collect();
        rng.shuffle(&mut t);
        t.into_iter()
    };
    let (mut step_targets, mut state_targets) = (targets(mix.step), targets(mix.state));
    let template: Vec<Op> = classes
        .into_iter()
        .map(|class| {
            let (experiment, seed) = match class {
                Class::Step => (step_targets.next().expect("one per step"), 0),
                Class::State => (state_targets.next().expect("one per state"), 0),
                Class::Hit => (0, warm[rng.below(warm.len())]),
                Class::Miss | Class::Batch => (0, 0),
            };
            Op {
                class,
                experiment,
                seed,
            }
        })
        .collect();
    let mut next_block = WARM_KEYS;
    (0..rounds)
        .map(|_| {
            template
                .iter()
                .map(|&op| match op.class {
                    Class::Miss | Class::Batch => {
                        next_block += 1;
                        Op {
                            seed: block_seed(seed, next_block - 1),
                            ..op
                        }
                    }
                    _ => op,
                })
                .collect()
        })
        .collect()
}

/// The `/v1/simulate` body of a one-day myopic scenario at `seed` — the
/// shape of every `hit`, `miss` and warm-up request.
pub fn simulate_body(seed: u64) -> String {
    format!("{{\"policy\":\"myopic\",\"days\":1,\"warmup_days\":0,\"seed\":{seed}}}")
}

/// The `/v1/batch-simulate` body of [`BATCH_SITES`] one-day myopic sites
/// starting at `seed`.
pub fn batch_body(seed: u64) -> String {
    format!(
        "{{\"policy\":\"myopic\",\"days\":1,\"warmup_days\":0,\"seed\":{seed},\"count\":{BATCH_SITES}}}"
    )
}

/// Create bodies of the two experiments: a foresighted (learning) one
/// with a one-day warm-up, and a myopic one.
pub fn experiment_bodies(seed: u64) -> [String; 2] {
    let [f, m] = experiment_seeds(seed);
    [
        format!("{{\"policy\":\"foresighted\",\"days\":1,\"warmup_days\":1,\"seed\":{f}}}"),
        format!("{{\"policy\":\"myopic\",\"days\":1,\"warmup_days\":0,\"seed\":{m}}}"),
    ]
}

/// The raw HTTP/1.1 request for `op` (`ids` are the experiment ids).
pub fn request_bytes(op: &Op, ids: &[String; 2]) -> Vec<u8> {
    match op.class {
        Class::Step => post(
            &format!("/v1/experiments/{}/step", ids[op.experiment]),
            &format!("{{\"slots\":{STEP_SLOTS}}}"),
        ),
        Class::State => get(&format!("/v1/experiments/{}/state", ids[op.experiment])),
        Class::Hit | Class::Miss => post("/v1/simulate", &simulate_body(op.seed)),
        Class::Batch => post("/v1/batch-simulate", &batch_body(op.seed)),
    }
}

pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n").into_bytes()
}

pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        step: 30,
        state: 20,
        hit: 25,
        miss: 6,
        batch: 3,
    };
    const ROUNDS: usize = 3;

    fn flat(seed: u64) -> Vec<Op> {
        sequence(seed, &MIX, ROUNDS).concat()
    }

    #[test]
    fn same_seed_gives_identical_requests() {
        let ids = ["exp-000000".to_string(), "exp-000001".to_string()];
        let a: Vec<Vec<u8>> = flat(7).iter().map(|op| request_bytes(op, &ids)).collect();
        let b: Vec<Vec<u8>> = flat(7).iter().map(|op| request_bytes(op, &ids)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let (a, b) = (flat(7), flat(8));
        assert_ne!(a, b);
        let order = |ops: &[Op]| ops.iter().map(|op| op.class).collect::<Vec<_>>();
        assert_ne!(order(&a), order(&b), "the interleaving itself is seeded");
        assert_ne!(warm_seeds(7), warm_seeds(8));
    }

    #[test]
    fn every_round_has_the_designed_counts() {
        let rounds = sequence(3, &MIX, ROUNDS);
        assert_eq!(rounds.len(), ROUNDS);
        for round in &rounds {
            for class in Class::ALL {
                let n = round.iter().filter(|op| op.class == class).count();
                assert_eq!(n, MIX.count(class), "{}", class.name());
            }
        }
        let classes = |round: &[Op]| {
            round
                .iter()
                .map(|op| (op.class, op.experiment))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            classes(&rounds[0]),
            classes(&rounds[1]),
            "rounds repeat one template"
        );
        assert_ne!(rounds[0], rounds[1], "with fresh keys");
        for (class, n) in [(Class::Step, MIX.step), (Class::State, MIX.state)] {
            let foresighted = rounds[0]
                .iter()
                .filter(|op| op.class == class && op.experiment == 0)
                .count();
            assert_eq!(foresighted, n * 5 / 8, "{} share is fixed", class.name());
        }
    }

    #[test]
    fn fresh_keys_never_collide_with_each_other_or_warm_keys() {
        let ops = flat(11);
        let mut keys: Vec<u64> = warm_seeds(11);
        for op in &ops {
            match op.class {
                Class::Miss => keys.push(op.seed),
                Class::Batch => keys.extend((0..BATCH_SITES).map(|i| op.seed + i)),
                _ => {}
            }
        }
        let n = keys.len() as u64;
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len() as u64, n);
        assert_eq!(n, MIX.designed_cache_misses(ROUNDS));
        let hits = ops.iter().filter(|op| op.class == Class::Hit);
        assert_eq!(hits.clone().count() as u64, MIX.designed_cache_hits(ROUNDS));
        for op in hits {
            assert!(warm_seeds(11).contains(&op.seed));
        }
        for s in experiment_seeds(11) {
            assert!(!keys.contains(&s));
        }
    }

    #[test]
    fn requests_are_well_formed_http() {
        let ids = ["exp-000000".to_string(), "exp-000001".to_string()];
        for op in flat(5) {
            let bytes = request_bytes(&op, &ids);
            let mut reader = std::io::Cursor::new(bytes);
            let request = hbm_serve::http::read_request(&mut reader)
                .expect("parses")
                .expect("non-empty");
            let routed = hbm_serve::routes::route(&request.method, &request.target);
            assert!(
                matches!(routed, hbm_serve::routes::RouteMatch::Ok { .. }),
                "{op:?} routes"
            );
        }
    }
}
