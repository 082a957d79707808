//! Property-based tests of the tabular RL toolkit.

use hbm_rl::{BatchQLearning, EpsilonSchedule, LearningRate, QTable, UniformGrid};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn grid_index_always_in_range(
        lo in -100.0..0.0f64,
        width in 0.1..100.0f64,
        bins in 1usize..64,
        x in -1e6..1e6f64,
    ) {
        let grid = UniformGrid::new(lo, lo + width, bins);
        prop_assert!(grid.index(x) < bins);
    }

    #[test]
    fn grid_center_round_trips(
        lo in -10.0..0.0f64,
        width in 0.5..20.0f64,
        bins in 1usize..64,
    ) {
        let grid = UniformGrid::new(lo, lo + width, bins);
        for i in 0..bins {
            prop_assert_eq!(grid.index(grid.center(i)), i);
        }
    }

    #[test]
    fn grid_index_is_monotone(
        lo in -10.0..0.0f64,
        width in 0.5..20.0f64,
        bins in 1usize..32,
        a in -50.0..50.0f64,
        d in 0.0..50.0f64,
    ) {
        let grid = UniformGrid::new(lo, lo + width, bins);
        prop_assert!(grid.index(a + d) >= grid.index(a));
    }

    #[test]
    fn qtable_blend_stays_between_value_and_target(
        initial in -100.0..100.0f64,
        target in -100.0..100.0f64,
        delta in 0.01..1.0f64,
    ) {
        let mut q = QTable::new(1, 1);
        q.set(0, 0, initial);
        q.blend(0, 0, target, delta);
        let v = q.get(0, 0);
        let (lo, hi) = if initial <= target { (initial, target) } else { (target, initial) };
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
    }

    #[test]
    fn qtable_blend_converges_to_target(
        target in -50.0..50.0f64,
        delta in 0.05..0.9f64,
    ) {
        let mut q = QTable::new(1, 1);
        // 400 iterations keep |50 * (1 - delta)^n| under 1e-3 across the
        // whole delta range, including the 0.05 boundary.
        for _ in 0..400 {
            q.blend(0, 0, target, delta);
        }
        prop_assert!((q.get(0, 0) - target).abs() < 1e-3);
    }

    #[test]
    fn best_action_attains_max(values in prop::collection::vec(-10.0..10.0f64, 1..8)) {
        let mut q = QTable::new(1, values.len());
        for (a, &v) in values.iter().enumerate() {
            q.set(0, a, v);
        }
        let allowed: Vec<usize> = (0..values.len()).collect();
        let best = q.best_action(0, &allowed);
        let max = values.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert_eq!(q.get(0, best), max);
    }

    #[test]
    fn learning_rate_is_in_unit_interval_and_decreasing(t in 1u64..100_000) {
        let s = LearningRate::paper_default();
        let now = s.at(t);
        let later = s.at(t + 1);
        prop_assert!(now > 0.0 && now <= 1.0);
        prop_assert!(later <= now);
    }

    #[test]
    fn epsilon_never_below_floor(t in 1u64..100_000) {
        let e = EpsilonSchedule::paper_default();
        let v = e.at(t);
        prop_assert!(v >= e.floor - 1e-12);
        prop_assert!(v <= e.initial + 1e-12);
    }

    #[test]
    fn batch_state_value_dominates_every_action(
        qs in prop::collection::vec(-5.0..5.0f64, 3),
        vs in prop::collection::vec(-5.0..5.0f64, 3),
    ) {
        // Post states share the state space, so V(0..3) lives in states 0..3.
        let mut agent = BatchQLearning::<3>::new(3, 0.9);
        for (a, &q) in qs.iter().enumerate() {
            agent.set_q(0, a, q);
        }
        for (s, &v) in vs.iter().enumerate() {
            agent.set_post_value(s, v);
        }
        let post = |_s: usize, a: usize| a;
        let allowed = [0usize, 1, 2];
        let c = agent.state_value(0, &allowed, post);
        for &a in &allowed {
            prop_assert!(c + 1e-9 >= qs[a] + 0.9 * vs[a]);
        }
        let chosen = agent.select_greedy(0, &allowed, post);
        prop_assert!((c - (qs[chosen] + 0.9 * vs[chosen])).abs() < 1e-9);
    }

    #[test]
    fn batch_update_moves_q_toward_reward(
        reward in -10.0..10.0f64,
        delta in 0.05..1.0f64,
    ) {
        let mut agent = BatchQLearning::<2>::new(2, 0.9);
        let before = agent.q(0, 1);
        agent.update(0, 1, reward, 1, &[0, 1], |_s, a| a % 2, delta);
        let after = agent.q(0, 1);
        let (lo, hi) = if before <= reward { (before, reward) } else { (reward, before) };
        prop_assert!(after >= lo - 1e-9 && after <= hi + 1e-9);
    }
}
