//! Classic tabular Q-learning (the baseline the paper extends).

use rand::RngExt;

use crate::QTable;

/// Standard Q-learning:
/// `Q(s,a) ← (1−δ)·Q(s,a) + δ·[r + γ·max_{a'} Q(s', a')]`.
///
/// Kept as the ablation baseline for the paper's batch variant: both agents
/// see the same experience stream in tests and benches, and batch Q-learning
/// should converge at least as fast on post-state-structured problems.
///
/// # Examples
///
/// ```
/// use hbm_rl::QLearning;
///
/// let mut agent = QLearning::new(2, 2, 0.9);
/// agent.update(0, 1, 1.0, 1, &[0, 1], 0.5);
/// assert!(agent.table().get(0, 1) > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QLearning {
    table: QTable,
    gamma: f64,
}

impl QLearning {
    /// Creates an agent with a zeroed table.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are zero or `gamma` is outside `[0, 1)`.
    pub fn new(states: usize, actions: usize, gamma: f64) -> Self {
        assert!((0.0..1.0).contains(&gamma), "discount must be in [0, 1)");
        QLearning {
            table: QTable::new(states, actions),
            gamma,
        }
    }

    /// The value table.
    pub fn table(&self) -> &QTable {
        &self.table
    }

    /// Mutable access to the value table (offline warm starts).
    pub fn table_mut(&mut self) -> &mut QTable {
        &mut self.table
    }

    /// Discount factor γ.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Greedy action among `allowed` in state `s`.
    ///
    /// # Panics
    ///
    /// Panics if `allowed` is empty.
    pub fn select_greedy(&self, s: usize, allowed: &[usize]) -> usize {
        self.table.best_action(s, allowed)
    }

    /// ε-greedy action selection.
    ///
    /// # Panics
    ///
    /// Panics if `allowed` is empty or `epsilon` is outside `[0, 1]`.
    pub fn select<R: RngExt + ?Sized>(
        &self,
        s: usize,
        allowed: &[usize],
        epsilon: f64,
        rng: &mut R,
    ) -> usize {
        assert!((0.0..=1.0).contains(&epsilon), "epsilon must be in [0, 1]");
        assert!(!allowed.is_empty(), "no allowed actions");
        if rng.random::<f64>() < epsilon {
            allowed[rng.random_range(0..allowed.len())]
        } else {
            self.select_greedy(s, allowed)
        }
    }

    /// One Bellman update for the transition `(s, a, r, s')`, where
    /// `allowed_next` are the actions available in `s'`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range, `allowed_next` is empty, or
    /// `delta` is outside `(0, 1]`.
    pub fn update(
        &mut self,
        s: usize,
        a: usize,
        reward: f64,
        s_next: usize,
        allowed_next: &[usize],
        delta: f64,
    ) {
        let started = hbm_telemetry::timing::start();
        let target = reward + self.gamma * self.table.max(s_next, allowed_next);
        self.table.blend(s, a, target, delta);
        hbm_telemetry::timing::record_span("rl.q_update", started);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A 2-state toy: in state 0, action 1 pays 1 and stays; action 0 pays 0
    /// and moves to state 1, where everything pays 0 and returns to 0.
    fn toy_step(s: usize, a: usize) -> (f64, usize) {
        match (s, a) {
            (0, 1) => (1.0, 0),
            (0, 0) => (0.0, 1),
            (1, _) => (0.0, 0),
            _ => unreachable!(),
        }
    }

    #[test]
    fn learns_the_rewarding_action() {
        let mut agent = QLearning::new(2, 2, 0.9);
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = 0;
        for _ in 0..3000 {
            let a = agent.select(s, &[0, 1], 0.2, &mut rng);
            let (r, s2) = toy_step(s, a);
            agent.update(s, a, r, s2, &[0, 1], 0.1);
            s = s2;
        }
        assert_eq!(agent.select_greedy(0, &[0, 1]), 1);
        // Optimal value of state 0 is 1/(1-γ) = 10.
        assert!((agent.table().get(0, 1) - 10.0).abs() < 1.0);
    }

    #[test]
    fn epsilon_one_explores_uniformly() {
        let agent = QLearning::new(1, 3, 0.5);
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[agent.select(0, &[0, 1, 2], 1.0, &mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "discount")]
    fn rejects_bad_gamma() {
        let _ = QLearning::new(1, 1, 1.0);
    }
}
