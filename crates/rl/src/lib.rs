//! Tabular reinforcement-learning toolkit.
//!
//! The paper's Foresighted attacker learns *when to attack* with **batch
//! Q-learning** (Section IV-B, Eqns. 3–7), a variant of Q-learning built
//! around a *post-decision state*: after the agent acts, the controllable
//! part of the state (battery energy) transitions deterministically to the
//! post state `s̃ = f(s, a)`, and only then does the exogenous part (benign
//! tenants' load) evolve stochastically. Exploiting that structure lets one
//! learned value function `V(s̃)` generalize across all actions that lead to
//! the same post state, which is why the paper's policy converges within
//! weeks of simulated time instead of months.
//!
//! Because no suitable RL crate exists in the allowed dependency set (and
//! the paper's variant is non-standard anyway), this crate implements the
//! whole stack: state-space discretizers, dense Q-tables, ε-greedy
//! exploration, learning-rate schedules (including the paper's
//! `δ(t) = 1/t^0.85`), classic Q-learning as a baseline, and the paper's
//! batch Q-learning.
//!
//! States, actions, and post states are dense `usize` indices; domain crates
//! do their own encoding (see `hbm-core`'s attacker).
//!
//! # Examples
//!
//! ```
//! use hbm_rl::{BatchQLearning, LearningRate};
//!
//! // 4 states, 2 actions; deterministic post map f(s,a) into the states.
//! let mut agent = BatchQLearning::<2>::new(4, 0.9);
//! let post = |s: usize, a: usize| (s + a) % 4;
//! let s = 0;
//! let a = agent.select_greedy(s, &[0, 1], post);
//! let reward = 1.0;
//! let s_next = post(s, a); // toy environment
//! agent.update(s, a, reward, s_next, &[0, 1], post, 0.5);
//! assert_eq!(agent.q(s, a), 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod qtable;
mod schedule;
mod space;
mod standard;

pub use batch::BatchQLearning;
pub use qtable::QTable;
pub use schedule::{EpsilonSchedule, LearningRate};
pub use space::UniformGrid;
pub use standard::QLearning;
