//! Batch Q-learning with post-decision states (the paper's Eqns. 3–7).

use rand::RngExt;

use crate::QTable;

/// Batch Q-learning.
///
/// The agent maintains **three** value functions (Section IV-B):
///
/// * `Q(s, a)` — the *immediate* reward estimate of acting `a` in `s`
///   (Eqn. 5 blends observed rewards only, no bootstrap);
/// * `V(s̃)` — the value of the *post-decision state* `s̃ = f(s, a)` reached
///   deterministically right after acting (battery updated, exogenous load
///   not yet evolved), learned by Eqn. 7;
/// * `C(s)` — the value of a full state, recomputed on demand as
///   `C(s) = max_a [Q(s, a) + γ·V(f(s, a))]` (Eqn. 6).
///
/// Action selection (Eqn. 3) maximizes `Q(s, a) + γ·V(f(s, a))`.
///
/// Because every action funnels through the deterministic post-state map,
/// experience from *any* action updates the value shared by all actions that
/// lead to the same post state — the "batch" effect that makes the paper's
/// attacker converge within one to four weeks of simulated time.
///
/// # Examples
///
/// ```
/// use hbm_rl::BatchQLearning;
///
/// let mut agent = BatchQLearning::new(4, 2, 4, 0.99);
/// let post = |s: usize, a: usize| (s + a) % 4;
/// let a = agent.select_greedy(0, &[0, 1], post);
/// agent.update(0, a, 0.5, 2, &[0, 1], post, 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BatchQLearning {
    q: QTable,
    v: Box<[f64]>,
    gamma: f64,
}

impl BatchQLearning {
    /// Creates an agent with zeroed tables.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `gamma` is outside `[0, 1)`.
    pub fn new(states: usize, actions: usize, post_states: usize, gamma: f64) -> Self {
        assert!(post_states > 0, "need at least one post state");
        assert!((0.0..1.0).contains(&gamma), "discount must be in [0, 1)");
        BatchQLearning {
            q: QTable::new(states, actions),
            v: vec![0.0; post_states].into_boxed_slice(),
            gamma,
        }
    }

    /// The immediate-reward table `Q`.
    pub fn q_table(&self) -> &QTable {
        &self.q
    }

    /// Mutable access to `Q` (offline warm starts, as the paper initializes
    /// its tables from offline runs on random traces).
    pub fn q_table_mut(&mut self) -> &mut QTable {
        &mut self.q
    }

    /// The post-state value vector `V`.
    pub fn post_values(&self) -> &[f64] {
        &self.v
    }

    /// Mutable access to `V` (offline warm starts).
    pub fn post_values_mut(&mut self) -> &mut [f64] {
        &mut self.v
    }

    /// Discount factor γ.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Eqn. 6: `C(s) = max_a [Q(s, a) + γ·V(f(s, a))]` over `allowed`.
    ///
    /// # Panics
    ///
    /// Panics if `allowed` is empty or `post` returns an out-of-range index.
    pub fn state_value<F>(&self, s: usize, allowed: &[usize], post: F) -> f64
    where
        F: Fn(usize, usize) -> usize,
    {
        assert!(!allowed.is_empty(), "no allowed actions");
        // One row lookup bounds-checks the state once; per-action `get`
        // calls would recheck it on every iteration.
        let row = self.q.row(s);
        allowed
            .iter()
            .map(|&a| row[a] + self.gamma * self.v[post(s, a)])
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Eqn. 3: greedy action `argmax_a [Q(s, a) + γ·V(f(s, a))]`.
    ///
    /// Ties break toward the earliest entry of `allowed`.
    ///
    /// # Panics
    ///
    /// Panics if `allowed` is empty or `post` returns an out-of-range index.
    pub fn select_greedy<F>(&self, s: usize, allowed: &[usize], post: F) -> usize
    where
        F: Fn(usize, usize) -> usize,
    {
        assert!(!allowed.is_empty(), "no allowed actions");
        let row = self.q.row(s);
        let mut best = allowed[0];
        let mut best_v = f64::NEG_INFINITY;
        for &a in allowed {
            let v = row[a] + self.gamma * self.v[post(s, a)];
            if v > best_v {
                best = a;
                best_v = v;
            }
        }
        best
    }

    /// ε-greedy variant of [`BatchQLearning::select_greedy`].
    ///
    /// # Panics
    ///
    /// Panics if `allowed` is empty or `epsilon` is outside `[0, 1]`.
    pub fn select<F, R>(
        &self,
        s: usize,
        allowed: &[usize],
        post: F,
        epsilon: f64,
        rng: &mut R,
    ) -> usize
    where
        F: Fn(usize, usize) -> usize,
        R: RngExt + ?Sized,
    {
        assert!((0.0..=1.0).contains(&epsilon), "epsilon must be in [0, 1]");
        assert!(!allowed.is_empty(), "no allowed actions");
        if rng.random::<f64>() < epsilon {
            allowed[rng.random_range(0..allowed.len())]
        } else {
            self.select_greedy(s, allowed, post)
        }
    }

    /// Eqns. 5 and 7: blends the observed reward into `Q(s, a)` and the
    /// next state's value `C(s')` into `V(f(s, a))`.
    ///
    /// `allowed_next` are the actions available in `s_next`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range, `allowed_next` is empty, or
    /// `delta` is outside `(0, 1]`.
    #[allow(clippy::too_many_arguments)]
    pub fn update<F>(
        &mut self,
        s: usize,
        a: usize,
        reward: f64,
        s_next: usize,
        allowed_next: &[usize],
        post: F,
        delta: f64,
    ) where
        F: Fn(usize, usize) -> usize,
    {
        assert!(
            delta > 0.0 && delta <= 1.0,
            "learning rate must be in (0, 1]"
        );
        let started = hbm_telemetry::timing::start();
        // Eqn. 5: Q tracks the immediate reward.
        self.q.blend(s, a, reward, delta);
        // Eqns. 6–7: propagate the next state's value to the post state.
        let c_next = self.state_value(s_next, allowed_next, &post);
        let p = post(s, a);
        self.v[p] = (1.0 - delta) * self.v[p] + delta * c_next;
        hbm_telemetry::timing::record_span("rl.batch_update", started);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Battery-flavored toy MDP mirroring the paper's structure.
    ///
    /// State = battery (0 = empty, 1 = full) × load (0 = low, 1 = high),
    /// encoded `s = battery * 2 + load`. Actions: 0 = charge, 1 = attack,
    /// 2 = standby. Attacking needs a full battery and empties it; charging
    /// needs an empty battery and fills it. Attacking pays +1 at high load
    /// and −0.5 at low load; everything else pays 0. Load is exogenous
    /// (high with probability 0.3).
    struct Toy {
        rng: StdRng,
    }

    impl Toy {
        fn new(seed: u64) -> Self {
            Toy {
                rng: StdRng::seed_from_u64(seed),
            }
        }

        fn allowed(s: usize) -> &'static [usize] {
            if s / 2 == 1 {
                &[1, 2] // full battery: attack or standby
            } else {
                &[0, 2] // empty battery: charge or standby
            }
        }

        /// Deterministic battery transition; load unchanged (post state).
        fn post(s: usize, a: usize) -> usize {
            let (b, u) = (s / 2, s % 2);
            let b2 = match a {
                0 => 1, // charge fills
                1 => 0, // attack empties
                _ => b,
            };
            b2 * 2 + u
        }

        fn step(&mut self, s: usize, a: usize) -> (f64, usize) {
            let u = s % 2;
            let reward = match a {
                1 => {
                    if u == 1 {
                        1.0
                    } else {
                        -0.5
                    }
                }
                _ => 0.0,
            };
            let post = Self::post(s, a);
            let u_next = usize::from(self.rng.random::<f64>() < 0.3);
            (reward, (post / 2) * 2 + u_next)
        }
    }

    fn train(seed: u64, episodes: usize) -> BatchQLearning {
        let mut agent = BatchQLearning::new(4, 3, 4, 0.9);
        let mut env = Toy::new(seed);
        let mut rng = StdRng::seed_from_u64(seed + 1);
        let mut s = 2; // full battery, low load
        for k in 0..episodes {
            let eps = if k < episodes / 2 { 0.3 } else { 0.05 };
            let a = agent.select(s, Toy::allowed(s), Toy::post, eps, &mut rng);
            let (r, s2) = env.step(s, a);
            let delta = (1.0 / (1.0 + k as f64 / 50.0)).max(0.02);
            agent.update(s, a, r, s2, Toy::allowed(s2), Toy::post, delta);
            s = s2;
        }
        agent
    }

    #[test]
    fn learns_paper_structured_policy() {
        let agent = train(7, 20_000);
        // Full battery + high load → attack.
        assert_eq!(agent.select_greedy(3, Toy::allowed(3), Toy::post), 1);
        // Full battery + low load → wait for a better opportunity.
        assert_eq!(agent.select_greedy(2, Toy::allowed(2), Toy::post), 2);
        // Empty battery → recharge regardless of load.
        assert_eq!(agent.select_greedy(0, Toy::allowed(0), Toy::post), 0);
        assert_eq!(agent.select_greedy(1, Toy::allowed(1), Toy::post), 0);
    }

    #[test]
    fn post_state_values_prefer_full_battery() {
        let agent = train(11, 20_000);
        let v = agent.post_values();
        // Full-battery post states dominate empty-battery ones at equal load.
        assert!(
            v[2] > v[0],
            "V(full, low) {} vs V(empty, low) {}",
            v[2],
            v[0]
        );
        assert!(
            v[3] > v[1],
            "V(full, high) {} vs V(empty, high) {}",
            v[3],
            v[1]
        );
    }

    #[test]
    fn q_table_tracks_immediate_rewards() {
        let agent = train(13, 20_000);
        // Q(full+high, attack) ≈ +1, Q(full+low, attack) ≈ −0.5.
        assert!((agent.q_table().get(3, 1) - 1.0).abs() < 0.2);
        assert!((agent.q_table().get(2, 1) + 0.5).abs() < 0.2);
    }

    #[test]
    fn state_value_is_max_over_actions() {
        let mut agent = BatchQLearning::new(2, 2, 2, 0.5);
        agent.q_table_mut().set(0, 0, 1.0);
        agent.q_table_mut().set(0, 1, 3.0);
        agent.post_values_mut()[0] = 10.0;
        agent.post_values_mut()[1] = 0.0;
        let post = |_s: usize, a: usize| a; // action 0 → post 0, action 1 → post 1
                                            // C(0) = max(1 + 0.5·10, 3 + 0.5·0) = 6.
        assert_eq!(agent.state_value(0, &[0, 1], post), 6.0);
        assert_eq!(agent.select_greedy(0, &[0, 1], post), 0);
    }

    #[test]
    #[should_panic(expected = "no allowed actions")]
    fn empty_allowed_rejected() {
        let agent = BatchQLearning::new(1, 1, 1, 0.9);
        let _ = agent.select_greedy(0, &[], |_, _| 0);
    }
}
