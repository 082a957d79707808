//! Dense state–action value table.

/// A dense `states × actions` table of action values with visit counts.
///
/// # Examples
///
/// ```
/// use hbm_rl::QTable;
///
/// let mut q = QTable::new(3, 2);
/// q.set(1, 0, 2.5);
/// q.set(1, 1, 1.0);
/// assert_eq!(q.best_action(1, &[0, 1]), 0);
/// assert_eq!(q.max(1, &[0, 1]), 2.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QTable {
    states: usize,
    actions: usize,
    values: Box<[f64]>,
    visits: Box<[u64]>,
}

impl QTable {
    /// Creates a zero-initialized table.
    ///
    /// # Panics
    ///
    /// Panics if `states` or `actions` is zero.
    pub fn new(states: usize, actions: usize) -> Self {
        assert!(states > 0 && actions > 0, "table must be non-empty");
        QTable {
            states,
            actions,
            values: vec![0.0; states * actions].into_boxed_slice(),
            visits: vec![0; states * actions].into_boxed_slice(),
        }
    }

    fn idx(&self, s: usize, a: usize) -> usize {
        assert!(s < self.states, "state index out of range");
        assert!(a < self.actions, "action index out of range");
        s * self.actions + a
    }

    /// Value of `(s, a)`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn get(&self, s: usize, a: usize) -> f64 {
        self.values[self.idx(s, a)]
    }

    /// Sets the value of `(s, a)`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn set(&mut self, s: usize, a: usize, v: f64) {
        let i = self.idx(s, a);
        self.values[i] = v;
    }

    /// Exponential-smoothing update `Q ← (1−δ)Q + δ·target`, incrementing
    /// the visit count.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range or `δ` is outside `(0, 1]`.
    pub fn blend(&mut self, s: usize, a: usize, target: f64, delta: f64) {
        assert!(
            delta > 0.0 && delta <= 1.0,
            "learning rate must be in (0, 1]"
        );
        let i = self.idx(s, a);
        self.values[i] = (1.0 - delta) * self.values[i] + delta * target;
        self.visits[i] += 1;
    }

    /// All action values of state `s` as one contiguous slice, so a scan
    /// over actions checks the state once.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    fn row(&self, s: usize) -> &[f64] {
        assert!(s < self.states, "state index out of range");
        &self.values[s * self.actions..(s + 1) * self.actions]
    }

    /// Greedy action among `allowed`, ties broken toward the earliest entry.
    ///
    /// # Panics
    ///
    /// Panics if `allowed` is empty or contains out-of-range actions.
    pub fn best_action(&self, s: usize, allowed: &[usize]) -> usize {
        assert!(!allowed.is_empty(), "no allowed actions");
        let row = self.row(s);
        let mut best = allowed[0];
        let mut best_v = row[allowed[0]];
        for &a in &allowed[1..] {
            let v = row[a];
            if v > best_v {
                best = a;
                best_v = v;
            }
        }
        best
    }

    /// Maximum value over `allowed` actions in state `s`.
    ///
    /// # Panics
    ///
    /// Panics if `allowed` is empty or contains out-of-range actions.
    pub fn max(&self, s: usize, allowed: &[usize]) -> f64 {
        self.row(s)[self.best_action(s, allowed)]
    }

    /// The full value table in row-major (`state × action`) order, for
    /// checkpoint serialization.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The full visit-count table in row-major order, for checkpoint
    /// serialization.
    pub fn visits(&self) -> &[u64] {
        &self.visits
    }

    /// Overwrites the values and visit counts from checkpointed row-major
    /// slices (the inverse of [`QTable::values`] / [`QTable::visits`]).
    ///
    /// # Errors
    ///
    /// Returns a message if either slice length differs from
    /// `states × actions`.
    pub fn restore(&mut self, values: &[f64], visits: &[u64]) -> Result<(), String> {
        let len = self.states * self.actions;
        if values.len() != len || visits.len() != len {
            return Err(format!(
                "table shape mismatch: expected {len} entries, got {} values / {} visits",
                values.len(),
                visits.len()
            ));
        }
        self.values.copy_from_slice(values);
        self.visits.copy_from_slice(visits);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blend_moves_toward_target() {
        let mut q = QTable::new(2, 2);
        q.blend(0, 1, 10.0, 0.5);
        assert_eq!(q.get(0, 1), 5.0);
        q.blend(0, 1, 10.0, 0.5);
        assert_eq!(q.get(0, 1), 7.5);
        assert_eq!(q.visits()[q.idx(0, 1)], 2);
    }

    #[test]
    fn best_action_respects_allowed_set() {
        let mut q = QTable::new(1, 3);
        q.set(0, 0, 5.0);
        q.set(0, 1, 1.0);
        q.set(0, 2, 3.0);
        assert_eq!(q.best_action(0, &[0, 1, 2]), 0);
        assert_eq!(q.best_action(0, &[1, 2]), 2);
    }

    #[test]
    fn ties_break_to_first_listed() {
        let q = QTable::new(1, 3);
        assert_eq!(q.best_action(0, &[2, 0, 1]), 2);
    }

    #[test]
    fn row_exposes_one_state_contiguously() {
        let mut q = QTable::new(2, 3);
        q.set(1, 0, 4.0);
        q.set(1, 2, 9.0);
        assert_eq!(q.row(1), &[4.0, 0.0, 9.0]);
        assert_eq!(q.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_state_rejected() {
        let q = QTable::new(2, 2);
        let _ = q.get(2, 0);
    }

    #[test]
    #[should_panic(expected = "state index out of range")]
    fn out_of_range_row_rejected() {
        let q = QTable::new(2, 2);
        let _ = q.row(2);
    }

    #[test]
    #[should_panic(expected = "no allowed actions")]
    fn empty_allowed_rejected() {
        let q = QTable::new(1, 1);
        let _ = q.best_action(0, &[]);
    }
}
