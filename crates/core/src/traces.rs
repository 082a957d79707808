//! A caller-owned store of synthesized tenant workload traces.
//!
//! A year-long trace costs ~12 ms to synthesize and ~4 MB to hold, and most
//! sweeps of the paper run every attacker against the same one. A
//! [`TraceStore`] synthesizes each distinct trace once and hands out one
//! shared [`Arc`] per *effective* [`TraceConfig`]: the configured trace with
//! the simulation seed added, exactly as a [`Simulation`] derives it.
//! [`generate`] is a pure function of that configuration, so a shared trace
//! has the same bits as a fresh one by construction.
//!
//! The store has no statics: whoever owns it decides how long the traces
//! live (the `experiments` driver holds one per run).

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use hbm_workload::{generate, PowerTrace, TraceConfig, TraceShape};

use crate::{ColoConfig, Policy, Simulation};

/// The trace a simulation built with `seed` runs on: `trace` with the seed
/// added to its own.
pub(crate) fn effective_trace_config(trace: &TraceConfig, seed: u64) -> TraceConfig {
    TraceConfig {
        seed: trace.seed.wrapping_add(seed),
        ..*trace
    }
}

/// The bit-exact identity of an effective [`TraceConfig`] — the one trace
/// sharing rule. Two simulations may share a trace exactly when their keys
/// are equal. Floats compare by bits, so a key never conflates two configs
/// that could synthesize different samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct TraceKey {
    shape: TraceShape,
    seed: u64,
    slot_bits: u64,
    len: usize,
    mean_bits: u64,
    peak_bits: u64,
}

impl TraceKey {
    /// The key of the trace a simulation of `trace` built with `seed` runs on.
    pub(crate) fn new(trace: &TraceConfig, seed: u64) -> TraceKey {
        let effective = effective_trace_config(trace, seed);
        TraceKey {
            shape: effective.shape,
            seed: effective.seed,
            slot_bits: effective.slot.as_seconds().to_bits(),
            len: effective.len,
            mean_bits: effective.mean.as_watts().to_bits(),
            peak_bits: effective.peak.as_watts().to_bits(),
        }
    }
}

/// Synthesizes each distinct effective trace once and shares it.
///
/// `Sync`: one store can serve every worker of an `hbm_par::par_map`. The
/// map lock is held only to find or insert a key's cell; synthesis runs
/// outside it, so workers that need different traces never wait on each
/// other, and workers that need the same one wait for its single synthesis.
#[derive(Default)]
pub struct TraceStore {
    traces: Mutex<HashMap<TraceKey, Arc<OnceLock<Arc<PowerTrace>>>>>,
}

impl TraceStore {
    /// An empty store.
    pub fn new() -> TraceStore {
        TraceStore::default()
    }

    /// The trace a simulation of `trace` built with `seed` runs on,
    /// synthesized on first request and shared afterwards.
    pub fn trace(&self, trace: &TraceConfig, seed: u64) -> Arc<PowerTrace> {
        let cell = {
            let mut traces = self.traces.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(traces.entry(TraceKey::new(trace, seed)).or_default())
        };
        Arc::clone(cell.get_or_init(|| Arc::new(generate(&effective_trace_config(trace, seed)))))
    }

    /// [`Simulation::new`] over this store's trace: bit-identical to a
    /// freshly built simulation, without synthesizing a trace already held.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`ColoConfig::validate`].
    pub fn simulation(
        &self,
        config: ColoConfig,
        policy: impl Into<Policy>,
        seed: u64,
    ) -> Simulation {
        let trace = self.trace(&config.trace, seed);
        Simulation::with_trace(config, policy.into(), seed, trace)
    }

    /// Number of distinct traces requested so far.
    pub fn len(&self) -> usize {
        self.traces
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether no trace has been requested yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceStore")
            .field("traces", &self.len())
            .finish()
    }
}
