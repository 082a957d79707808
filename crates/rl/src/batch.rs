//! Batch Q-learning with post-decision states (the paper's Eqns. 3–7).

use rand::RngExt;

/// One state's learner values: its immediate-reward row `Q(s, ·)` and its
/// post-state value `V(s)`.
///
/// Aligned to 32 bytes, so at three actions a cell fills half a cache line
/// and never straddles two: a state's Q row and its own `V` (the post state
/// standby leads to) share one line.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(align(32))]
struct Cell<const A: usize> {
    q: [f64; A],
    v: f64,
}

/// Batch Q-learning over `A` actions.
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
/// A post state lies in the same space as a state (Eqn. 4 only moves the
/// battery coordinate), so `post` must map into `0..states`, and `V` is
/// stored beside `Q` in one cell per state. The visit counts, which only
/// checkpoints read, are kept apart.
///
/// # Examples
///
/// ```
/// use hbm_rl::BatchQLearning;
///
/// let mut agent = BatchQLearning::<2>::new(4, 0.99);
/// let post = |s: usize, a: usize| (s + a) % 4;
/// let a = agent.select_greedy(0, &[0, 1], post);
/// agent.update(0, a, 0.5, 2, &[0, 1], post, 1.0);
/// assert_eq!(agent.q(0, a), 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BatchQLearning<const A: usize> {
    cells: Box<[Cell<A>]>,
    /// Row-major (`state × action`) visit counts.
    visits: Box<[u64]>,
    gamma: f64,
}

impl<const A: usize> BatchQLearning<A> {
    /// Creates an agent with zeroed tables over `states` states.
    ///
    /// # Panics
    ///
    /// Panics if `states` or `A` is zero or `gamma` is outside `[0, 1)`.
    pub fn new(states: usize, gamma: f64) -> Self {
        assert!(states > 0 && A > 0, "table must be non-empty");
        assert!((0.0..1.0).contains(&gamma), "discount must be in [0, 1)");
        let zero = Cell {
            q: [0.0; A],
            v: 0.0,
        };
        BatchQLearning {
            cells: vec![zero; states].into_boxed_slice(),
            visits: vec![0; states * A].into_boxed_slice(),
            gamma,
        }
    }

    fn cell(&self, s: usize) -> &Cell<A> {
        self.cells.get(s).expect("state index out of range")
    }

    fn cell_mut(&mut self, s: usize) -> &mut Cell<A> {
        self.cells.get_mut(s).expect("state index out of range")
    }

    /// `Q(s, a)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn q(&self, s: usize, a: usize) -> f64 {
        let q = &self.cell(s).q;
        assert!(a < A, "action index out of range");
        q[a]
    }

    /// Sets `Q(s, a)` (offline warm starts, as the paper initializes its
    /// tables from offline runs on random traces).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn set_q(&mut self, s: usize, a: usize, value: f64) {
        let q = &mut self.cell_mut(s).q;
        assert!(a < A, "action index out of range");
        q[a] = value;
    }

    /// `V(s)`, the value of post state `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn post_value(&self, s: usize) -> f64 {
        self.cell(s).v
    }

    /// Sets `V(s)` (offline warm starts).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn set_post_value(&mut self, s: usize, value: f64) {
        self.cell_mut(s).v = value;
    }

    /// Discount factor γ.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Copies of the tables in their checkpoint order: `Q` and the visit
    /// counts row-major (`state × action`), and `V` by state.
    pub fn tables(&self) -> (Vec<f64>, Vec<u64>, Vec<f64>) {
        let q = self.cells.iter().flat_map(|c| c.q).collect();
        let v = self.cells.iter().map(|c| c.v).collect();
        (q, self.visits.to_vec(), v)
    }

    /// Overwrites the tables from slices in [`BatchQLearning::tables`]
    /// order. Nothing is written unless every length matches.
    ///
    /// # Errors
    ///
    /// Returns a message if `q` or `visits` does not hold `states × A`
    /// entries, or `v` does not hold `states`.
    pub fn restore(&mut self, q: &[f64], visits: &[u64], v: &[f64]) -> Result<(), String> {
        let len = self.visits.len();
        if q.len() != len || visits.len() != len {
            return Err(format!(
                "table shape mismatch: expected {len} entries, got {} values / {} visits",
                q.len(),
                visits.len()
            ));
        }
        if v.len() != self.cells.len() {
            return Err(format!(
                "post-value shape mismatch: expected {} entries, got {}",
                self.cells.len(),
                v.len()
            ));
        }
        for ((cell, row), &v) in self.cells.iter_mut().zip(q.chunks_exact(A)).zip(v) {
            cell.q.copy_from_slice(row);
            cell.v = v;
        }
        self.visits.copy_from_slice(visits);
        Ok(())
    }

    /// Eqn. 6: `C(s) = max_a [Q(s, a) + γ·V(f(s, a))]` over `allowed`.
    ///
    /// # Panics
    ///
    /// Panics if `allowed` is empty or any index is out of range.
    pub fn state_value<F>(&self, s: usize, allowed: &[usize], post: F) -> f64
    where
        F: Fn(usize, usize) -> usize,
    {
        assert!(!allowed.is_empty(), "no allowed actions");
        let q = &self.cell(s).q;
        allowed
            .iter()
            .map(|&a| q[a] + self.gamma * self.cell(post(s, a)).v)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Eqn. 3: greedy action `argmax_a [Q(s, a) + γ·V(f(s, a))]`.
    ///
    /// Ties break toward the earliest entry of `allowed`.
    ///
    /// # Panics
    ///
    /// Panics if `allowed` is empty or any index is out of range.
    pub fn select_greedy<F>(&self, s: usize, allowed: &[usize], post: F) -> usize
    where
        F: Fn(usize, usize) -> usize,
    {
        assert!(!allowed.is_empty(), "no allowed actions");
        let q = &self.cell(s).q;
        let mut best = allowed[0];
        let mut best_v = f64::NEG_INFINITY;
        for &a in allowed {
            let v = q[a] + self.gamma * self.cell(post(s, a)).v;
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
        let q = &mut self.cell_mut(s).q;
        assert!(a < A, "action index out of range");
        q[a] = (1.0 - delta) * q[a] + delta * reward;
        self.visits[s * A + a] += 1;
        // Eqns. 6–7: propagate the next state's value to the post state.
        let c_next = self.state_value(s_next, allowed_next, &post);
        let v = &mut self.cell_mut(post(s, a)).v;
        *v = (1.0 - delta) * *v + delta * c_next;
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

    fn train(seed: u64, episodes: usize) -> BatchQLearning<3> {
        let mut agent = BatchQLearning::new(4, 0.9);
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
        let v: Vec<f64> = (0..4).map(|s| agent.post_value(s)).collect();
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
        assert!((agent.q(3, 1) - 1.0).abs() < 0.2);
        assert!((agent.q(2, 1) + 0.5).abs() < 0.2);
    }

    #[test]
    fn state_value_is_max_over_actions() {
        let mut agent = BatchQLearning::<2>::new(2, 0.5);
        agent.set_q(0, 0, 1.0);
        agent.set_q(0, 1, 3.0);
        agent.set_post_value(0, 10.0);
        agent.set_post_value(1, 0.0);
        let post = |_s: usize, a: usize| a; // action 0 → post 0, action 1 → post 1
                                            // C(0) = max(1 + 0.5·10, 3 + 0.5·0) = 6.
        assert_eq!(agent.state_value(0, &[0, 1], post), 6.0);
        assert_eq!(agent.select_greedy(0, &[0, 1], post), 0);
    }

    #[test]
    #[should_panic(expected = "no allowed actions")]
    fn empty_allowed_rejected() {
        let agent = BatchQLearning::<1>::new(1, 0.9);
        let _ = agent.select_greedy(0, &[], |_, _| 0);
    }

    #[test]
    #[should_panic(expected = "action index out of range")]
    fn out_of_range_action_rejected() {
        let mut agent = BatchQLearning::<2>::new(2, 0.9);
        agent.update(0, 2, 1.0, 1, &[0, 1], |s, _| s, 0.5);
    }

    #[test]
    #[should_panic(expected = "state index out of range")]
    fn out_of_range_post_state_rejected() {
        let agent = BatchQLearning::<2>::new(2, 0.9);
        let _ = agent.state_value(0, &[0, 1], |_, a| a + 1);
    }

    #[test]
    fn tables_round_trip_in_row_major_order() {
        let mut agent = train(17, 2_000);
        agent.set_q(1, 2, -3.5);
        agent.set_post_value(3, 7.25);
        let (q, visits, v) = agent.tables();
        assert_eq!((q.len(), visits.len(), v.len()), (12, 12, 4));
        for s in 0..4 {
            assert_eq!(v[s].to_bits(), agent.post_value(s).to_bits());
            for a in 0..3 {
                assert_eq!(q[s * 3 + a].to_bits(), agent.q(s, a).to_bits());
            }
        }
        assert_eq!(q[5], -3.5);
        assert_eq!(v[3], 7.25);
        // Every allowed (state, action) pair of the toy was visited.
        assert!(visits.iter().filter(|&&n| n > 0).count() >= 8);

        let mut restored = BatchQLearning::<3>::new(4, 0.9);
        restored.restore(&q, &visits, &v).unwrap();
        assert_eq!(restored, agent);
        assert_eq!(restored.tables(), (q, visits, v));
    }

    #[test]
    fn restore_rejects_wrong_shapes_and_writes_nothing() {
        let mut agent = BatchQLearning::<3>::new(4, 0.9);
        let err = agent.restore(&[1.0; 12], &[1; 11], &[1.0; 4]).unwrap_err();
        assert!(err.contains("table shape mismatch"), "{err}");
        let err = agent.restore(&[1.0; 12], &[1; 12], &[1.0; 5]).unwrap_err();
        assert!(err.contains("post-value shape mismatch"), "{err}");
        assert_eq!(agent, BatchQLearning::new(4, 0.9));
    }
}
