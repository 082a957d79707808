//! Attack policies: Random, Myopic, Foresighted (batch Q-learning), and
//! One-shot.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use hbm_rl::{BatchQLearning, EpsilonSchedule, LearningRate, QLearning, UniformGrid};
use hbm_units::{Duration, Energy, Power, Temperature};

/// What the attacker does in one slot (Section IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackAction {
    /// Recharge the built-in batteries from the PDU.
    Charge,
    /// Run servers at peak and discharge batteries: inject the attack load.
    Attack,
    /// Run dummy workloads; neither charge nor discharge.
    Standby,
}

impl AttackAction {
    pub(crate) const COUNT: usize = 3;

    pub(crate) fn index(self) -> usize {
        match self {
            AttackAction::Charge => 0,
            AttackAction::Attack => 1,
            AttackAction::Standby => 2,
        }
    }

    pub(crate) fn from_index(i: usize) -> AttackAction {
        match i {
            0 => AttackAction::Charge,
            1 => AttackAction::Attack,
            2 => AttackAction::Standby,
            _ => panic!("invalid action index {i}"),
        }
    }
}

impl std::fmt::Display for AttackAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttackAction::Charge => f.write_str("charge"),
            AttackAction::Attack => f.write_str("attack"),
            AttackAction::Standby => f.write_str("standby"),
        }
    }
}

/// What the attacker can observe at the start of a slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Slot index since simulation start.
    pub slot: u64,
    /// Battery state of charge in `[0, 1]`.
    pub battery_soc: f64,
    /// Battery stored energy.
    pub battery_stored: Energy,
    /// Side-channel estimate of the total PDU load if the attacker ran at
    /// its full subscription (estimated benign load + `c_a`). This is the
    /// load axis of Figs. 9 and 10.
    pub estimated_total: Power,
    /// Server inlet temperature read from the attacker's own sensors (the
    /// paper notes all servers expose it for safety).
    pub inlet: Temperature,
    /// Whether the operator currently enforces emergency power capping.
    pub capping: bool,
}

/// One completed slot, fed back to learning policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// The observation the decision was made on.
    pub observation: Observation,
    /// The action actually executed (may differ from the decision if the
    /// operator's capping overrode it).
    pub action: AttackAction,
    /// Server inlet temperature resulting from the slot, `T(s, a)`.
    pub inlet: Temperature,
    /// Battery state of charge after the slot.
    pub next_battery_soc: f64,
    /// Battery stored energy after the slot.
    pub next_battery_stored: Energy,
    /// Side-channel estimate at the start of the next slot.
    pub next_estimated_total: Power,
    /// Whether capping is active in the next slot.
    pub next_capping: bool,
    /// Days elapsed since simulation start (drives the learning-rate
    /// schedule, which the paper updates daily).
    pub day: u64,
}

/// A thermal-attack timing policy: the closed set of attackers the
/// simulator runs (the paper's Random and Myopic baselines, its Foresighted
/// attacker, and Section III-C's one-shot attack).
///
/// Both engines call [`Policy::decide`] once per slot and
/// [`Policy::learn`] once the slot's outcome is known; only the
/// foresighted attacker learns. A simulation holds its policy by value and
/// every call is a `match`, so a batch keeps its lanes' policies inline in
/// one `Vec` and dispatch is static. `Clone` deep-copies RNG state and
/// learnt tables, which is what makes [`crate::Simulation::fork`] cheap.
/// Inspect a concrete policy after a run by matching on the variant (e.g.
/// the learnt [`ForesightedPolicy::policy_matrix`] for Fig. 10).
///
/// The variants are held inline because a batch steps its lanes' policies
/// in order, and a box per policy costs a dependent cache miss per lane per
/// slot. That keeps [`ForesightedPolicy`] within 256 bytes (clippy's
/// `large_enum_variant` bound over the next-largest variant), which is why
/// its fixed design parameters are associated constants, not fields, its
/// load grid is rebuilt from the capacity, and the ablation's learner is
/// boxed.
#[derive(Debug, Clone)]
pub enum Policy {
    /// See [`RandomPolicy`].
    Random(RandomPolicy),
    /// See [`MyopicPolicy`].
    Myopic(MyopicPolicy),
    /// See [`OneShotPolicy`].
    OneShot(OneShotPolicy),
    /// See [`ForesightedPolicy`].
    Foresighted(ForesightedPolicy),
}

impl Policy {
    /// Short policy name for reports ("random", "myopic", …).
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Random(_) => "random",
            Policy::Myopic(_) => "myopic",
            Policy::OneShot(_) => "one-shot",
            Policy::Foresighted(_) => "foresighted",
        }
    }

    /// Chooses the action for the upcoming slot.
    pub fn decide(&mut self, obs: &Observation) -> AttackAction {
        match self {
            Policy::Random(p) => p.decide(obs),
            Policy::Myopic(p) => p.decide(obs),
            Policy::OneShot(p) => p.decide(obs),
            Policy::Foresighted(p) => p.decide(obs),
        }
    }

    /// Feeds back the completed slot; a no-op for every policy but the
    /// foresighted one.
    pub fn learn(&mut self, transition: &Transition) {
        if let Policy::Foresighted(p) = self {
            p.learn(transition);
        }
    }
}

impl From<RandomPolicy> for Policy {
    fn from(p: RandomPolicy) -> Policy {
        Policy::Random(p)
    }
}

impl From<MyopicPolicy> for Policy {
    fn from(p: MyopicPolicy) -> Policy {
        Policy::Myopic(p)
    }
}

impl From<OneShotPolicy> for Policy {
    fn from(p: OneShotPolicy) -> Policy {
        Policy::OneShot(p)
    }
}

impl From<ForesightedPolicy> for Policy {
    fn from(p: ForesightedPolicy) -> Policy {
        Policy::Foresighted(p)
    }
}

/// Unboxes a policy. Policies are passed by value; this exists only so
/// callers written against the earlier boxed-policy constructor
/// (`Simulation::new(config, Box::new(policy), seed)`) keep compiling.
impl<P: Into<Policy>> From<Box<P>> for Policy {
    fn from(p: Box<P>) -> Policy {
        (*p).into()
    }
}

/// Whether the battery can sustain one full slot of attacking.
fn can_attack(stored: Energy, attack_load: Power, slot: Duration) -> bool {
    stored >= attack_load * slot * 0.999
}

/// **Random**: attacks with a fixed probability whenever the battery has
/// enough energy, oblivious to the benign tenants' load (the paper's
/// baseline that never manages to create an emergency).
#[derive(Debug, Clone)]
pub struct RandomPolicy {
    probability: f64,
    attack_load: Power,
    slot: Duration,
    rng: StdRng,
}

impl RandomPolicy {
    /// Creates the policy with the given per-slot attack probability.
    ///
    /// # Panics
    ///
    /// Panics if `probability` is outside `[0, 1]`.
    pub fn new(probability: f64, attack_load: Power, slot: Duration, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "probability must be in [0, 1]"
        );
        RandomPolicy {
            probability,
            attack_load,
            slot,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// RNG state words for checkpoint serialization.
    pub(crate) fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Overwrites the RNG from checkpointed state words.
    pub(crate) fn restore_rng(&mut self, state: [u64; 4]) {
        self.rng = StdRng::from_state(state);
    }

    /// Chooses the action for the upcoming slot.
    pub fn decide(&mut self, obs: &Observation) -> AttackAction {
        if obs.capping {
            return AttackAction::Standby;
        }
        if can_attack(obs.battery_stored, self.attack_load, self.slot)
            && self.rng.random::<f64>() < self.probability
        {
            AttackAction::Attack
        } else if obs.battery_soc < 1.0 {
            AttackAction::Charge
        } else {
            AttackAction::Standby
        }
    }
}

/// **Myopic**: attacks greedily whenever the estimated load is above a
/// threshold and the battery has energy, with no regard for the future
/// (Section VI's greedy baseline).
#[derive(Debug, Clone, PartialEq)]
pub struct MyopicPolicy {
    threshold: Power,
    attack_load: Power,
    slot: Duration,
}

impl MyopicPolicy {
    /// Creates the policy with the default Table I attack parameters and
    /// the given load threshold (7.4 kW in the paper's Fig. 9).
    pub fn new(threshold: Power) -> Self {
        MyopicPolicy {
            threshold,
            attack_load: Power::from_kilowatts(1.0),
            slot: Duration::from_minutes(1.0),
        }
    }

    /// Creates the policy with explicit attack parameters.
    pub fn with_attack(threshold: Power, attack_load: Power, slot: Duration) -> Self {
        MyopicPolicy {
            threshold,
            attack_load,
            slot,
        }
    }

    /// The load threshold above which it attacks.
    pub fn threshold(&self) -> Power {
        self.threshold
    }

    /// Chooses the action for the upcoming slot.
    pub fn decide(&mut self, obs: &Observation) -> AttackAction {
        if obs.capping {
            return AttackAction::Standby;
        }
        if obs.estimated_total >= self.threshold
            && can_attack(obs.battery_stored, self.attack_load, self.slot)
        {
            AttackAction::Attack
        } else if obs.battery_soc < 1.0 {
            AttackAction::Charge
        } else {
            AttackAction::Standby
        }
    }
}

/// **One-shot**: keeps the battery topped up, waits for a high-load moment,
/// then discharges everything continuously to push the inlet temperature
/// past the 45 °C shutdown limit (Section III-C). Unlike the repeated
/// policies it keeps its *actual* load at peak straight through the
/// operator's capping — the metered draw complies, the battery-fed heat
/// does not.
#[derive(Debug, Clone, PartialEq)]
pub struct OneShotPolicy {
    threshold: Power,
    triggered: bool,
}

impl OneShotPolicy {
    /// Creates the policy; it fires once the estimated total reaches
    /// `threshold`.
    pub fn new(threshold: Power) -> Self {
        OneShotPolicy {
            threshold,
            triggered: false,
        }
    }

    /// Whether the attack has been launched.
    pub fn triggered(&self) -> bool {
        self.triggered
    }

    /// Overwrites the trigger latch (checkpoint restore).
    pub(crate) fn set_triggered(&mut self, triggered: bool) {
        self.triggered = triggered;
    }

    /// Chooses the action for the upcoming slot.
    pub fn decide(&mut self, obs: &Observation) -> AttackAction {
        if self.triggered {
            // Ride it out: discharge until the battery is empty or the
            // colocation is down.
            return if obs.battery_stored > Energy::ZERO {
                AttackAction::Attack
            } else {
                AttackAction::Standby
            };
        }
        if obs.estimated_total >= self.threshold && obs.battery_soc >= 0.999 && !obs.capping {
            self.triggered = true;
            AttackAction::Attack
        } else if obs.battery_soc < 1.0 {
            AttackAction::Charge
        } else {
            AttackAction::Standby
        }
    }
}

/// The learning rule driving a [`ForesightedPolicy`].
///
/// The paper uses batch Q-learning (post-decision states); classic
/// Q-learning is kept as the ablation baseline — same state space, same
/// schedules, same execution machinery, different update rule.
#[derive(Debug, Clone, PartialEq)]
pub enum Learner {
    /// The paper's batch Q-learning (Eqns. 3–7).
    Batch(BatchQLearning<{ AttackAction::COUNT }>),
    /// Classic tabular Q-learning, boxed: it is only the ablation, and
    /// inline it would push [`ForesightedPolicy`] past the size that keeps
    /// policies inline (see [`Policy`]).
    Standard(Box<QLearning>),
}

impl Learner {
    fn select_greedy<F>(&self, s: usize, allowed: &[usize], post: F) -> usize
    where
        F: Fn(usize, usize) -> usize,
    {
        match self {
            Learner::Batch(agent) => agent.select_greedy(s, allowed, post),
            Learner::Standard(agent) => agent.select_greedy(s, allowed),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn update<F>(
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
        match self {
            Learner::Batch(agent) => agent.update(s, a, reward, s_next, allowed_next, post, delta),
            Learner::Standard(agent) => agent.update(s, a, reward, s_next, allowed_next, delta),
        }
    }
}

/// **Foresighted**: the paper's contribution — batch Q-learning over the
/// joint (battery, estimated-load) state, learning on the fly when attacks
/// pay off (Section IV).
///
/// The learnt policy has the paper's structural property (Fig. 10): attack
/// only when *both* the benign load and the remaining battery energy are
/// sufficiently high, with the battery bar dropping as the reward weight
/// `w` grows.
///
/// One refinement over the paper's stated `s = (b, u)` state: a coarse
/// inlet-temperature-rise coordinate is appended. The room temperature is
/// the accumulating quantity that makes *sustained* attacks pay off (the
/// reward of Eqn. 2 is itself a function of it), and without it in the
/// state the problem is partially observable and tabular Q-learning
/// oscillates instead of sustaining attacks. The attacker reads the inlet
/// temperature from its own servers' sensors, exactly as the paper's
/// reward computation already assumes.
#[derive(Debug, Clone)]
pub struct ForesightedPolicy {
    agent: Learner,
    w: f64,
    rng: StdRng,
    attack_load: Power,
    slot: Duration,
    /// Colocation capacity (known to every tenant from its contract); it
    /// also spans the load grid, see `load_grid`.
    capacity: Power,
    /// State-of-charge delta of one slot of attacking (the paper's linear
    /// battery model), for `policy_matrix`'s feasibility test.
    attack_soc_per_slot: f64,
    /// The battery bin each action leads to from each battery bin: the
    /// deterministic post-state map `f(s, a)`, tabled once. See
    /// `post_state`.
    post_bins: PostBins,
    learning_enabled: bool,
    /// Bootstrap teacher (the paper's "initial attack policy" used to
    /// initialize the Q tables offline): a myopic threshold followed with
    /// decaying probability during the first `teacher_days` days.
    teacher_threshold: Power,
    teacher_days: u64,
    /// Minimum state of charge required to *launch* an attack (continuing
    /// a committed one is exempt). See `allowed_for_soc`.
    min_launch_soc: f64,
    /// Attack-campaign execution state; see [`Campaign`].
    campaign: Campaign,
    /// Estimated total load when the current campaign launched (stale
    /// while idle).
    launch_est: Power,
    /// `decide`'s day divisor, `(1 day / slot)` truncated, computed once at
    /// construction. (Learning transitions carry their own day, bucketed
    /// with the simulator's rounded slots per day.)
    decide_slots_per_day: u64,
    /// The last `(day, ε)` and `(day, δ)` pairs. Both schedules are pure
    /// functions of the day, so a memoized value has the same bits as a
    /// fresh `at` call; it is re-evaluated only when the day moves.
    epsilon_memo: (u64, f64),
    rate_memo: (u64, f64),
    /// The last `state_of` input bits (SoC, estimated total W, inlet °C)
    /// and its state. `learn` asks for the state `decide` computed in the
    /// same slot, and the next `decide` for the one `learn` computed last,
    /// so one state is computed per slot.
    state_memo: Option<([u64; 3], usize)>,
}

/// Target battery bin per (battery bin, action index); see
/// [`ForesightedPolicy`]'s `post_state`.
type PostBins = [[u8; AttackAction::COUNT]; ForesightedPolicy::BATTERY_BINS];

/// Execution state of a sustained attack campaign (the cycle the paper's
/// Fig. 9 walks through: launch a sustained attack, stop at the emergency,
/// "wait to regain the battery energy", and launch the next sustained
/// attack while the load holds).
///
/// The learnt policy decides *when a campaign starts*; this state machine
/// executes it. Without it, every recharge corridor would require the
/// tabular learner to hold a consistent plan across ~40 consecutive
/// decisions, which the coarse battery grid cannot represent.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Campaign {
    /// No campaign; the learnt policy decides freely.
    Idle,
    /// Mid-attack: keep discharging until the emergency, dry battery, or
    /// load collapse.
    Attacking,
    /// Between attacks of a campaign: recharge, then relaunch while the
    /// load still holds near the launch level.
    Recharging,
}

impl ForesightedPolicy {
    /// Default numbers of battery and load bins.
    pub const BATTERY_BINS: usize = 10;
    /// Default number of load bins.
    pub const LOAD_BINS: usize = 16;
    /// Default number of inlet-temperature-rise bins.
    pub const TEMP_BINS: usize = 4;
    const STATES: usize = Self::BATTERY_BINS * Self::LOAD_BINS * Self::TEMP_BINS;
    /// The state-of-charge coordinate of the state.
    const BATTERY_GRID: UniformGrid = UniformGrid::new(0.0, 1.0, Self::BATTERY_BINS);
    /// The inlet-temperature-rise coordinate, °C above the setpoint.
    const TEMP_GRID: UniformGrid = UniformGrid::new(0.0, 6.0, Self::TEMP_BINS);
    /// The setpoint Eqn. 2 measures the temperature rise against.
    const SETPOINT: Temperature = Temperature::from_celsius(27.0);
    /// The paper's `δ(t) = 1/t^0.85`.
    const LEARNING_RATE: LearningRate = LearningRate::Polynomial { exponent: 0.85 };
    /// Gentle exploration: a random action inside an attack run breaks the
    /// temperature dwell, so keep ε low and fast-decaying.
    const EPSILON: EpsilonSchedule = EpsilonSchedule {
        initial: 0.05,
        decay: 0.90,
        floor: 0.002,
    };

    /// Creates the policy.
    ///
    /// * `w` — reward weight of Eqn. 2 (14 in the paper's defaults);
    /// * `capacity` — colocation capacity (upper end of the load grid);
    /// * `battery_capacity`, `charge_rate`, `attack_load`, `slot` — the
    ///   attacker's Table I battery parameters.
    ///
    /// # Panics
    ///
    /// Panics if `w` is negative or any physical parameter is non-positive.
    pub fn new(
        w: f64,
        capacity: Power,
        battery_capacity: Energy,
        charge_rate: Power,
        attack_load: Power,
        slot: Duration,
        seed: u64,
    ) -> Self {
        assert!(w >= 0.0, "reward weight must be non-negative");
        assert!(capacity > Power::ZERO, "capacity must be positive");
        assert!(
            battery_capacity > Energy::ZERO,
            "battery capacity must be positive"
        );
        // A non-finite capacity fails here rather than on the first slot.
        Self::load_grid(capacity);
        let charge_soc = (charge_rate * slot) / battery_capacity;
        let attack_soc = (attack_load * slot) / battery_capacity;
        let post_bins = std::array::from_fn(|b| {
            let soc = Self::BATTERY_GRID.center(b);
            std::array::from_fn(|a| {
                let soc_next = match AttackAction::from_index(a) {
                    AttackAction::Charge => (soc + charge_soc).min(1.0),
                    AttackAction::Attack => (soc - attack_soc).max(0.0),
                    AttackAction::Standby => soc,
                };
                // BATTERY_BINS is 10, so every bin fits a byte.
                Self::BATTERY_GRID.index(soc_next) as u8
            })
        });
        ForesightedPolicy {
            agent: Learner::Batch(BatchQLearning::new(Self::STATES, 0.99)),
            w,
            rng: StdRng::seed_from_u64(seed),
            attack_load,
            slot,
            capacity,
            attack_soc_per_slot: attack_soc,
            post_bins,
            learning_enabled: true,
            teacher_threshold: capacity * 0.945,
            teacher_days: 60,
            // The paper's Fig. 10: the battery level above which the learnt
            // policy attacks drops as the reward weight w grows (≈60 % at
            // w = 9, ≈40 % at w = 14). Encode that dependence directly.
            min_launch_soc: (0.9 - 0.02 * w).clamp(0.55, 0.9),
            campaign: Campaign::Idle,
            launch_est: Power::ZERO,
            decide_slots_per_day: (Duration::from_days(1.0) / slot) as u64,
            epsilon_memo: (0, Self::EPSILON.at(0)),
            rate_memo: (0, Self::LEARNING_RATE.at(0)),
            state_memo: None,
        }
    }

    /// Creates the policy with the paper's Table I defaults and weight `w`.
    pub fn paper_default(w: f64, seed: u64) -> Self {
        ForesightedPolicy::new(
            w,
            Power::from_kilowatts(8.0),
            Energy::from_kilowatt_hours(0.2),
            Power::from_kilowatts(0.2),
            Power::from_kilowatts(1.0),
            Duration::from_minutes(1.0),
            seed,
        )
    }

    /// Replaces the learning rule with classic Q-learning (the ablation
    /// baseline of the paper's batch variant); tables restart from zero.
    pub fn with_standard_q(mut self) -> Self {
        self.agent = Learner::Standard(Box::new(QLearning::new(
            Self::STATES,
            AttackAction::COUNT,
            0.99,
        )));
        self
    }

    /// The learning rule in use.
    pub fn learner(&self) -> &Learner {
        &self.agent
    }

    /// The reward weight `w`.
    pub fn weight(&self) -> f64 {
        self.w
    }

    /// Freezes (or re-enables) learning and exploration — used to evaluate
    /// a converged policy.
    pub fn set_learning(&mut self, enabled: bool) {
        self.learning_enabled = enabled;
    }

    /// Reconfigures the bootstrap teacher (threshold and how many days it
    /// guides exploration). Setting `days` to 0 disables it.
    pub fn set_teacher(&mut self, threshold: Power, days: u64) {
        self.teacher_threshold = threshold;
        self.teacher_days = days;
    }

    /// The load coordinate of the state. The decision-relevant load range is
    /// the top of the capacity band (everything below cannot overload the
    /// cooling even with the attack load on top); the grid clamps lower
    /// loads into its bottom bin. Rebuilt from the capacity on each use
    /// rather than held, to keep the policy inline (see [`Policy`]); with
    /// the state memo that is once a slot.
    fn load_grid(capacity: Power) -> UniformGrid {
        UniformGrid::new(
            capacity.as_kilowatts() * 0.70,
            capacity.as_kilowatts() * 1.05,
            Self::LOAD_BINS,
        )
    }

    fn state_of(&self, soc: f64, estimated_total: Power, inlet: Temperature) -> usize {
        let b = Self::BATTERY_GRID.index(soc);
        let u = Self::load_grid(self.capacity).index(estimated_total.as_kilowatts());
        let rise = (inlet - Self::SETPOINT).positive_part().as_celsius();
        let t = Self::TEMP_GRID.index(rise);
        (b * Self::LOAD_BINS + u) * Self::TEMP_BINS + t
    }

    /// [`ForesightedPolicy::state_of`], memoized on its inputs' bits.
    fn state(&mut self, soc: f64, estimated_total: Power, inlet: Temperature) -> usize {
        let key = [
            soc.to_bits(),
            estimated_total.as_watts().to_bits(),
            inlet.as_celsius().to_bits(),
        ];
        match self.state_memo {
            Some((k, s)) if k == key => s,
            _ => {
                let s = self.state_of(soc, estimated_total, inlet);
                self.state_memo = Some((key, s));
                s
            }
        }
    }

    /// Actions available in a state. Order matters: greedy ties break to
    /// the first entry. `Charge` is listed first because it strictly
    /// dominates `Standby` whenever the battery is not full (same cost,
    /// strictly more future energy) yet the coarse battery grid can make
    /// one slot of charging invisible to the post-state map; `Attack` is
    /// listed last so that it is only chosen on strictly positive learned
    /// value, never on a cold-start tie.
    ///
    /// *Launching* an attack additionally requires the battery to be above
    /// `min_launch_soc`. This encodes the structural property the paper
    /// reports for the learnt policy (Fig. 10: no attacks below ≈40–60 %
    /// battery): a one-slot dribble can never outlast the operator's
    /// 2-minute dwell, but it pays a small positive Eqn.-2 reward, which
    /// traps tabular learning in a dribble equilibrium — the long recharge
    /// corridor is invisible at the battery-grid resolution. Continuing an
    /// already-committed attack bypasses this gate.
    fn allowed_for_soc(&self, soc: f64, stored_ok: bool) -> AllowedActions {
        let mut allowed = AllowedActions::new();
        if soc < 0.999 {
            allowed.push(AttackAction::Charge.index());
        }
        allowed.push(AttackAction::Standby.index());
        if stored_ok && soc >= self.min_launch_soc {
            allowed.push(AttackAction::Attack.index());
        }
        allowed
    }

    /// The deterministic post-state map `f(s, a)` (Eqn. 4): only the battery
    /// coordinate moves, to the bin `bins` holds for it; the load and
    /// temperature coordinates stay. A function of the table rather than of
    /// `self`, so it can run while the learner is borrowed mutably.
    fn post_state(bins: &PostBins, s: usize, a: usize) -> usize {
        const BATTERY_STRIDE: usize = ForesightedPolicy::LOAD_BINS * ForesightedPolicy::TEMP_BINS;
        usize::from(bins[s / BATTERY_STRIDE][a]) * BATTERY_STRIDE + s % BATTERY_STRIDE
    }

    /// ε at `day`, memoized per day.
    fn epsilon_at(&mut self, day: u64) -> f64 {
        if self.epsilon_memo.0 != day {
            self.epsilon_memo = (day, Self::EPSILON.at(day));
        }
        self.epsilon_memo.1
    }

    /// δ at `day`, memoized per day.
    fn rate_at(&mut self, day: u64) -> f64 {
        if self.rate_memo.0 != day {
            self.rate_memo = (day, Self::LEARNING_RATE.at(day));
        }
        self.rate_memo.1
    }

    /// Eqn. 2 reward.
    fn reward(&self, inlet: Temperature, action: AttackAction) -> f64 {
        let dt = (inlet - Self::SETPOINT).positive_part().as_celsius();
        let beta = if action == AttackAction::Attack {
            1.0
        } else {
            0.0
        };
        self.w * dt - beta
    }

    /// The greedy action for every `(battery bin, load bin)` cell at the
    /// normal room temperature — the structure plot of Fig. 10 (the
    /// decision whether to *start* an attack). Rows are battery bins
    /// (low→high), columns load bins (low→high).
    pub fn policy_matrix(&self) -> Vec<Vec<AttackAction>> {
        (0..Self::BATTERY_BINS)
            .map(|b| {
                let soc = Self::BATTERY_GRID.center(b);
                (0..Self::LOAD_BINS)
                    .map(|u| {
                        // Temperature bin 0: inlet at the setpoint.
                        let s = (b * Self::LOAD_BINS + u) * Self::TEMP_BINS;
                        // Attack is feasible whenever the bin's SoC covers
                        // one slot; mirror `allowed_for_soc`.
                        let stored_ok = soc >= self.attack_soc_per_slot;
                        let allowed = self.allowed_for_soc(soc, stored_ok);
                        let post = |s, a| Self::post_state(&self.post_bins, s, a);
                        let a = self.agent.select_greedy(s, &allowed, post);
                        AttackAction::from_index(a)
                    })
                    .collect()
            })
            .collect()
    }

    /// Mutable access to the learning rule (checkpoint restore of the Q
    /// tables).
    pub(crate) fn learner_mut(&mut self) -> &mut Learner {
        &mut self.agent
    }

    /// RNG state words for checkpoint serialization.
    pub(crate) fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Overwrites the exploration RNG from checkpointed state words.
    pub(crate) fn restore_rng(&mut self, state: [u64; 4]) {
        self.rng = StdRng::from_state(state);
    }

    /// Whether learning and exploration are enabled.
    pub(crate) fn learning_enabled(&self) -> bool {
        self.learning_enabled
    }

    /// The campaign state as `(code, launch-estimate watts)`:
    /// 0 = idle, 1 = attacking, 2 = recharging (checkpoint serialization).
    pub(crate) fn campaign_code(&self) -> (u64, f64) {
        match self.campaign {
            Campaign::Idle => (0, 0.0),
            Campaign::Attacking => (1, self.launch_est.as_watts()),
            Campaign::Recharging => (2, self.launch_est.as_watts()),
        }
    }

    /// Overwrites the campaign state from its checkpointed
    /// `(code, launch-estimate watts)` form.
    pub(crate) fn restore_campaign(&mut self, code: u64, launch_watts: f64) -> Result<(), String> {
        self.campaign = match code {
            0 => Campaign::Idle,
            1 => Campaign::Attacking,
            2 => Campaign::Recharging,
            other => return Err(format!("invalid campaign code {other}")),
        };
        self.launch_est = Power::from_watts(launch_watts);
        Ok(())
    }

    /// Chooses the action for the upcoming slot.
    pub fn decide(&mut self, obs: &Observation) -> AttackAction {
        if obs.capping {
            // Emergency declared: this attack achieved its goal. Comply,
            // and use the capped window to start regaining battery energy.
            if self.campaign == Campaign::Attacking {
                self.campaign = Campaign::Recharging;
            }
            return AttackAction::Standby;
        }
        let s = self.state(obs.battery_soc, obs.estimated_total, obs.inlet);
        let stored_ok = can_attack(obs.battery_stored, self.attack_load, self.slot);

        // Campaign execution (Fig. 9's cycle): a campaign stands down when
        // the load collapses below its launch level, or when attacking has
        // become pointless — the attacker knows the colocation capacity (its
        // contract) and its own attack load, so it sees when the estimated
        // cooling overload is marginal.
        let load_collapsed = obs.estimated_total < self.launch_est - Power::from_kilowatts(0.4);
        let ineffective =
            obs.estimated_total + self.attack_load < self.capacity + Power::from_kilowatts(0.25);
        match self.campaign {
            Campaign::Attacking => {
                if load_collapsed || ineffective {
                    self.campaign = Campaign::Idle;
                } else if !stored_ok {
                    self.campaign = Campaign::Recharging;
                } else {
                    return AttackAction::Attack;
                }
            }
            Campaign::Recharging => {
                if load_collapsed || ineffective {
                    self.campaign = Campaign::Idle;
                } else if obs.battery_soc >= self.min_launch_soc && stored_ok {
                    self.campaign = Campaign::Attacking;
                    return AttackAction::Attack;
                } else {
                    return AttackAction::Charge;
                }
            }
            Campaign::Idle => {}
        }

        let allowed = self.allowed_for_soc(obs.battery_soc, stored_ok);
        let day = obs.slot / self.decide_slots_per_day + 1;

        // Bootstrap phase: the initial attack policy drives behaviour while
        // the tables learn off-policy what a successful sustained attack
        // (and the emergency it triggers) is worth. Mixing control here
        // would fragment attack runs and never demonstrate an emergency.
        // The teacher only *launches* with a mostly-charged battery — a
        // one-slot dribble can never outlast the operator's 2-minute dwell,
        // and the paper's learnt policy (Fig. 10) shows the same battery
        // bar.
        if self.learning_enabled && day <= self.teacher_days {
            return if obs.estimated_total >= self.teacher_threshold
                && obs.battery_soc >= self.min_launch_soc
                && stored_ok
            {
                self.launch(obs.estimated_total);
                AttackAction::Attack
            } else if obs.battery_soc < 1.0 {
                AttackAction::Charge
            } else {
                AttackAction::Standby
            };
        }

        let eps = if self.learning_enabled {
            self.epsilon_at(day)
        } else {
            0.0
        };
        // No RNG output is consumed unless ε is strictly positive, and the
        // index draw only happens on the explore branch.
        let a = if eps > 0.0 && self.rng.random::<f64>() < eps {
            allowed[self.rng.random_range(0..allowed.len())]
        } else {
            let post = |s, a| Self::post_state(&self.post_bins, s, a);
            self.agent.select_greedy(s, &allowed, post)
        };
        let action = AttackAction::from_index(a);
        if action == AttackAction::Attack {
            self.launch(obs.estimated_total);
        }
        action
    }

    /// Starts a campaign at the given estimated total load.
    fn launch(&mut self, estimated_total: Power) {
        self.campaign = Campaign::Attacking;
        self.launch_est = estimated_total;
    }

    /// Feeds back a completed slot: one learner update (Eqns. 5–7).
    pub fn learn(&mut self, t: &Transition) {
        if !self.learning_enabled {
            return;
        }
        // Capping slots are included in learning: the elevated temperature
        // during an emergency is the payoff Eqn. 2 rewards, and the
        // simulator freezes the attacker's load-estimate filter during
        // capping, so those rewards are credited to the (high-load) states
        // that earned them rather than to the capped metered load.
        let s = self.state(
            t.observation.battery_soc,
            t.observation.estimated_total,
            t.observation.inlet,
        );
        // The inlet produced by this slot is the temperature coordinate the
        // attacker observes entering the next slot.
        let s_next = self.state(t.next_battery_soc, t.next_estimated_total, t.inlet);
        let stored_ok = can_attack(t.next_battery_stored, self.attack_load, self.slot);
        let allowed_next = self.allowed_for_soc(t.next_battery_soc, stored_ok);
        let reward = self.reward(t.inlet, t.action);
        let delta = self.rate_at(t.day + 1);
        let bins = &self.post_bins;
        let post = |s, a| Self::post_state(bins, s, a);
        self.agent.update(
            s,
            t.action.index(),
            reward,
            s_next,
            &allowed_next,
            post,
            delta,
        );
    }

    /// The load-bin centers of the policy matrix columns, in kW.
    pub fn load_bin_centers_kw(&self) -> Vec<f64> {
        let grid = Self::load_grid(self.capacity);
        (0..grid.len()).map(|u| grid.center(u)).collect()
    }

    /// The battery-bin centers of the policy matrix rows (state of charge).
    pub fn battery_bin_centers(&self) -> Vec<f64> {
        (0..Self::BATTERY_BINS)
            .map(|b| Self::BATTERY_GRID.center(b))
            .collect()
    }
}

/// Fixed-capacity list of allowed action indices, in the tie-breaking order
/// `allowed_for_soc` documents. `decide` and `learn` both build one every
/// slot, so this stays on the stack — a `Vec` here was the last per-slot
/// heap allocation in the simulator's steady loop.
#[derive(Debug, Clone, Copy)]
struct AllowedActions {
    actions: [usize; AttackAction::COUNT],
    len: usize,
}

impl AllowedActions {
    fn new() -> Self {
        AllowedActions {
            actions: [0; AttackAction::COUNT],
            len: 0,
        }
    }

    fn push(&mut self, action: usize) {
        self.actions[self.len] = action;
        self.len += 1;
    }
}

impl std::ops::Deref for AllowedActions {
    type Target = [usize];
    fn deref(&self) -> &[usize] {
        &self.actions[..self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(soc: f64, kw: f64, capping: bool) -> Observation {
        Observation {
            slot: 0,
            battery_soc: soc,
            battery_stored: Energy::from_kilowatt_hours(0.2 * soc),
            estimated_total: Power::from_kilowatts(kw),
            inlet: Temperature::from_celsius(27.0),
            capping,
        }
    }

    #[test]
    fn myopic_attacks_only_above_threshold_with_energy() {
        let mut p = MyopicPolicy::new(Power::from_kilowatts(7.4));
        assert_eq!(p.decide(&obs(1.0, 7.5, false)), AttackAction::Attack);
        assert_eq!(p.decide(&obs(1.0, 7.0, false)), AttackAction::Standby);
        assert_eq!(p.decide(&obs(0.0, 7.9, false)), AttackAction::Charge);
        assert_eq!(p.decide(&obs(1.0, 7.9, true)), AttackAction::Standby);
    }

    #[test]
    fn myopic_recharges_when_depleted() {
        let mut p = MyopicPolicy::new(Power::from_kilowatts(7.4));
        assert_eq!(p.decide(&obs(0.5, 6.0, false)), AttackAction::Charge);
        assert_eq!(p.decide(&obs(1.0, 6.0, false)), AttackAction::Standby);
    }

    #[test]
    fn random_respects_probability_extremes() {
        let mut never = RandomPolicy::new(
            0.0,
            Power::from_kilowatts(1.0),
            Duration::from_minutes(1.0),
            1,
        );
        let mut always = RandomPolicy::new(
            1.0,
            Power::from_kilowatts(1.0),
            Duration::from_minutes(1.0),
            1,
        );
        for _ in 0..50 {
            assert_ne!(never.decide(&obs(1.0, 7.9, false)), AttackAction::Attack);
            assert_eq!(always.decide(&obs(1.0, 3.0, false)), AttackAction::Attack);
        }
    }

    #[test]
    fn one_shot_waits_then_commits() {
        let mut p = OneShotPolicy::new(Power::from_kilowatts(7.4));
        assert_eq!(p.decide(&obs(1.0, 6.0, false)), AttackAction::Standby);
        assert!(!p.triggered());
        assert_eq!(p.decide(&obs(1.0, 7.5, false)), AttackAction::Attack);
        assert!(p.triggered());
        // Committed: attacks straight through capping until drained.
        assert_eq!(p.decide(&obs(0.5, 2.0, true)), AttackAction::Attack);
        assert_eq!(p.decide(&obs(0.0, 2.0, true)), AttackAction::Standby);
    }

    #[test]
    fn one_shot_charges_before_trigger() {
        let mut p = OneShotPolicy::new(Power::from_kilowatts(7.4));
        assert_eq!(p.decide(&obs(0.3, 7.9, false)), AttackAction::Charge);
        assert!(!p.triggered(), "must not fire with a partial battery");
    }

    #[test]
    fn foresighted_complies_with_capping() {
        let mut p = ForesightedPolicy::paper_default(14.0, 3);
        assert_eq!(p.decide(&obs(1.0, 8.0, true)), AttackAction::Standby);
    }

    #[test]
    fn foresighted_never_attacks_with_empty_battery() {
        let mut p = ForesightedPolicy::paper_default(14.0, 3);
        for kw in [6.0, 7.0, 8.0] {
            assert_ne!(p.decide(&obs(0.0, kw, false)), AttackAction::Attack);
        }
    }

    #[test]
    fn foresighted_learns_to_attack_high_load() {
        // Hand-feed transitions: attacking at high load heats the room
        // (reward ≫ cost), attacking at low load does not (reward −1).
        let mut p = ForesightedPolicy::paper_default(14.0, 5);
        p.set_learning(true);
        let hot = Temperature::from_celsius(33.0);
        let cool = Temperature::from_celsius(27.0);
        for k in 0..4000u64 {
            let high_load = k % 2 == 0;
            let kw = if high_load { 7.8 } else { 5.0 };
            let o = Observation {
                slot: k,
                ..obs(1.0, kw, false)
            };
            let a = p.decide(&o);
            let inlet = if a == AttackAction::Attack && high_load {
                hot
            } else {
                cool
            };
            let t = Transition {
                observation: o,
                action: a,
                inlet,
                next_battery_soc: if a == AttackAction::Attack { 0.9 } else { 1.0 },
                next_battery_stored: Energy::from_kilowatt_hours(0.18),
                next_estimated_total: Power::from_kilowatts(if high_load { 5.0 } else { 7.8 }),
                next_capping: false,
                day: k / 1440,
            };
            p.learn(&t);
        }
        p.set_learning(false);
        assert_eq!(
            p.decide(&obs(1.0, 7.8, false)),
            AttackAction::Attack,
            "full battery + high load must attack"
        );
        assert_ne!(
            p.decide(&obs(1.0, 5.0, false)),
            AttackAction::Attack,
            "low load must not attack"
        );
    }

    #[test]
    fn policy_matrix_dimensions() {
        let p = ForesightedPolicy::paper_default(9.0, 1);
        let m = p.policy_matrix();
        assert_eq!(m.len(), ForesightedPolicy::BATTERY_BINS);
        assert_eq!(m[0].len(), ForesightedPolicy::LOAD_BINS);
        assert_eq!(p.load_bin_centers_kw().len(), ForesightedPolicy::LOAD_BINS);
        assert_eq!(
            p.battery_bin_centers().len(),
            ForesightedPolicy::BATTERY_BINS
        );
    }

    #[test]
    fn campaign_sustains_recharges_and_relaunches() {
        // Drive the policy during its teacher phase (day 1) through a full
        // campaign cycle: launch at high load with a full battery, keep
        // attacking as the battery drains below the launch bar, switch to
        // recharging when it cannot sustain a slot, relaunch once the bar
        // is regained, and stand down when the load collapses.
        let mut p = ForesightedPolicy::paper_default(14.0, 1);
        assert_eq!(p.decide(&obs(1.0, 7.8, false)), AttackAction::Attack);
        // Mid-campaign, below the launch bar but above one slot: continue.
        assert_eq!(p.decide(&obs(0.3, 7.8, false)), AttackAction::Attack);
        // Battery cannot sustain a slot: recharge within the campaign.
        assert_eq!(p.decide(&obs(0.005, 7.8, false)), AttackAction::Charge);
        // Still below the bar: keep charging even though load is high.
        assert_eq!(p.decide(&obs(0.4, 7.8, false)), AttackAction::Charge);
        // Bar regained and load held: relaunch.
        assert_eq!(p.decide(&obs(0.8, 7.8, false)), AttackAction::Attack);
        // Load collapses: the campaign ends (teacher then charges).
        assert_ne!(p.decide(&obs(0.6, 5.0, false)), AttackAction::Attack);
    }

    #[test]
    fn campaign_stops_at_the_emergency() {
        let mut p = ForesightedPolicy::paper_default(14.0, 1);
        assert_eq!(p.decide(&obs(1.0, 7.8, false)), AttackAction::Attack);
        // Operator declares the emergency: comply immediately…
        assert_eq!(p.decide(&obs(0.5, 7.8, true)), AttackAction::Standby);
        // …and use the post-capping window to recharge, not re-attack.
        assert_eq!(p.decide(&obs(0.5, 7.8, false)), AttackAction::Charge);
    }

    #[test]
    fn launch_requires_the_battery_bar() {
        // Day 1 teacher: high load but battery below the launch bar → no
        // fresh launch (only campaigns in progress may continue there).
        let mut p = ForesightedPolicy::paper_default(14.0, 1);
        assert_eq!(p.decide(&obs(0.4, 7.9, false)), AttackAction::Charge);
    }

    /// Eqn. 4's post-state map as computed before it was tabled: from the
    /// state's battery-bin center, in floating point, on every call.
    fn post_by_formula(charge_soc: f64, attack_soc: f64, s: usize, a: usize) -> usize {
        type P = ForesightedPolicy;
        let t = s % P::TEMP_BINS;
        let bu = s / P::TEMP_BINS;
        let (b, u) = (bu / P::LOAD_BINS, bu % P::LOAD_BINS);
        let soc = P::BATTERY_GRID.center(b);
        let soc_next = match AttackAction::from_index(a) {
            AttackAction::Charge => (soc + charge_soc).min(1.0),
            AttackAction::Attack => (soc - attack_soc).max(0.0),
            AttackAction::Standby => soc,
        };
        (P::BATTERY_GRID.index(soc_next) * P::LOAD_BINS + u) * P::TEMP_BINS + t
    }

    /// Checks the tabled map of a policy with these battery parameters
    /// against [`post_by_formula`] at every (state, action). Returns how
    /// many charges left their bin and how many attacks clamped at bin 0.
    fn check_post_table(
        battery_kwh: f64,
        charge_kw: f64,
        attack_kw: f64,
        slot_min: f64,
    ) -> Result<(usize, usize), String> {
        let (capacity, slot) = (
            Energy::from_kilowatt_hours(battery_kwh),
            Duration::from_minutes(slot_min),
        );
        let (charge, attack) = (
            Power::from_kilowatts(charge_kw),
            Power::from_kilowatts(attack_kw),
        );
        let p = ForesightedPolicy::new(
            14.0,
            Power::from_kilowatts(8.0),
            capacity,
            charge,
            attack,
            slot,
            1,
        );
        let (charge_soc, attack_soc) = ((charge * slot) / capacity, (attack * slot) / capacity);
        const STRIDE: usize = ForesightedPolicy::LOAD_BINS * ForesightedPolicy::TEMP_BINS;
        let (mut crossed, mut clamped) = (0, 0);
        for s in 0..ForesightedPolicy::STATES {
            for a in 0..AttackAction::COUNT {
                let want = post_by_formula(charge_soc, attack_soc, s, a);
                let got = ForesightedPolicy::post_state(&p.post_bins, s, a);
                if got != want {
                    return Err(format!("f({s}, {a}) = {got}, formula gives {want}"));
                }
                crossed += usize::from(a == 0 && got / STRIDE != s / STRIDE);
                clamped += usize::from(a == 1 && s / STRIDE > 0 && got / STRIDE == 0);
            }
        }
        Ok((crossed, clamped))
    }

    #[test]
    fn post_table_covers_bin_crossings_and_clamps() {
        // Table I: a slot's charge stays inside its bin, an attack from the
        // lowest bins clamps at empty.
        let (crossed, clamped) = check_post_table(0.2, 0.2, 1.0, 1.0).unwrap();
        assert_eq!(crossed, 0);
        assert!(clamped > 0);
        // A small battery on 10-minute slots: a charge crosses bins.
        let (crossed, clamped) = check_post_table(0.1, 0.2, 1.0, 10.0).unwrap();
        assert!(crossed > 0 && clamped > 0, "{crossed} / {clamped}");
    }

    /// Finite values inside and outside `lo..hi`, zero, NaN and both
    /// infinities.
    fn edge_or(lo: f64, hi: f64) -> impl proptest::Strategy<Value = f64> {
        proptest::prop_oneof![
            lo..hi,
            (2.0 * lo - hi)..(2.0 * hi - lo),
            proptest::Just(0.0),
            proptest::Just(f64::NAN),
            proptest::Just(f64::INFINITY),
            proptest::Just(f64::NEG_INFINITY),
        ]
    }

    proptest::proptest! {
        /// The per-day ε memo returns exactly the bits a fresh
        /// `EpsilonSchedule::at` call would, along any run of days (days
        /// repeat for a whole simulated day, then step forward).
        #[test]
        fn epsilon_memo_is_bit_identical_to_scalar(
            start in 0u64..1_000_000,
            steps in proptest::prop::collection::vec(0u64..3, 1..200),
        ) {
            let mut p = ForesightedPolicy::paper_default(14.0, 1);
            let mut day = start;
            for step in steps {
                day += step;
                let want = ForesightedPolicy::EPSILON.at(day);
                proptest::prop_assert_eq!(p.epsilon_at(day).to_bits(), want.to_bits());
            }
        }

        /// The tabled post-state map equals the formula at every (state,
        /// action), across battery parameters where a charge stays in its
        /// bin or crosses several and an attack clamps at bin 0.
        #[test]
        fn post_table_matches_the_formula(
            battery_kwh in 0.02..2.0f64,
            charge_kw in 0.02..2.0f64,
            attack_kw in 0.1..4.0f64,
            slot_min in 0.1..20.0f64,
        ) {
            check_post_table(battery_kwh, charge_kw, attack_kw, slot_min)?;
        }

        /// The state memo returns exactly `state_of`'s state along any
        /// sequence of inputs: repeats (memo hits), values outside every
        /// grid, NaN and ±∞.
        #[test]
        fn state_memo_is_bit_identical_to_state_of(
            pool in proptest::prop::collection::vec(
                (edge_or(0.0, 1.0), edge_or(5_000.0, 9_000.0), edge_or(20.0, 40.0)),
                1..5,
            ),
            picks in proptest::prop::collection::vec(0usize..5, 1..200),
        ) {
            let mut p = ForesightedPolicy::paper_default(14.0, 1);
            for i in picks {
                let (soc, watts, celsius) = pool[i % pool.len()];
                let (est, inlet) = (Power::from_watts(watts), Temperature::from_celsius(celsius));
                proptest::prop_assert_eq!(p.state(soc, est, inlet), p.state_of(soc, est, inlet));
            }
        }

        /// Same pinning for the learning-rate memo.
        #[test]
        fn learning_rate_memo_is_bit_identical_to_scalar(
            start in 0u64..1_000_000,
            steps in proptest::prop::collection::vec(0u64..3, 1..200),
        ) {
            let mut p = ForesightedPolicy::paper_default(14.0, 1);
            let mut day = start;
            for step in steps {
                day += step;
                let want = ForesightedPolicy::LEARNING_RATE.at(day);
                proptest::prop_assert_eq!(p.rate_at(day).to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn action_index_round_trip() {
        for a in [
            AttackAction::Charge,
            AttackAction::Attack,
            AttackAction::Standby,
        ] {
            assert_eq!(AttackAction::from_index(a.index()), a);
        }
    }
}
