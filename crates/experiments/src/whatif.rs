//! `experiments whatif` — offline what-if branching over a state tree.
//!
//! Runs one scenario to a fork slot, forks it into a control branch plus
//! one branch per `--variant`, advances all branches in lockstep through
//! the batch engine ([`hbm_core::StateTree`]), and prints a comparison
//! table: per-branch attack/emergency/outage totals, attack energy, the
//! final thermal and battery state, and the first slot at which any
//! variant diverged from the control. This is the CLI face of the same
//! copy-on-write fork machinery `hbm-serve` exposes as
//! `POST /v1/experiments/{id}/fork` (see `docs/SERVICE.md`) — forking a
//! 5-day run costs a state copy, not a 5-day re-simulation.

use crate::common::{override_field, take_override, take_policy, Options};
use hbm_core::{Perturbation, StateTree};

/// Usage text printed on argument errors.
pub const USAGE: &str = "usage: experiments whatif --policy NAME [--days N] [--warmup-days N] [--seed N]
                          [--util F] [--attack-load-kw F] [--battery-kwh F] [--threshold-c F] [--cap-w F]
                          [--fork-at SLOT] [--slots N]
                          [--variant [label=NAME,]key=value[,...]]...
  --fork-at SLOT   slot to fork at (default: half the measured horizon)
  --slots N        slots to advance every branch after the fork (default 1440)
  --variant SPEC   one branch; SPEC is comma-separated key=value pairs with
                   keys label, util, attack-load-kw, battery-kwh, threshold-c,
                   cap-w (a control branch is always included)";

/// Parses one `--variant` spec into a label and a perturbation.
fn parse_variant(spec: &str, index: usize) -> Result<(String, Perturbation), String> {
    let mut label = format!("variant-{index}");
    let mut p = Perturbation::default();
    for pair in spec.split(',') {
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| format!("variant pair {pair:?} is not key=value"))?;
        if key == "label" {
            label = value.to_string();
            continue;
        }
        let field =
            override_field(&mut p, key).ok_or_else(|| format!("unknown variant key {key:?}"))?;
        *field = Some(
            value
                .parse()
                .map_err(|e| format!("variant {key}={value}: {e}"))?,
        );
    }
    Ok((label, p))
}

/// `experiments whatif ...`: fork one scenario, compare its futures.
pub fn run_whatif(opts: &Options, args: &[String]) -> Result<(), String> {
    let mut scenario = opts.scenario();
    let mut overrides = Perturbation::default();
    let mut fork_at: Option<u64> = None;
    let mut slots: u64 = 1440;
    let mut variants: Vec<(String, Perturbation)> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--policy" => scenario.policy = take_policy(&mut it)?,
            "--fork-at" => {
                fork_at = Some(
                    take("--fork-at")?
                        .parse()
                        .map_err(|e| format!("--fork-at: {e}"))?,
                )
            }
            "--slots" => {
                slots = take("--slots")?
                    .parse()
                    .map_err(|e| format!("--slots: {e}"))?
            }
            "--variant" => {
                let spec = take("--variant")?;
                variants.push(parse_variant(&spec, variants.len() + 1)?);
            }
            other => {
                if !take_override(&mut overrides, other, &mut it)? {
                    return Err(format!("unknown whatif argument {other:?}"));
                }
            }
        }
    }
    let scenario = overrides.apply(&scenario);
    if scenario.policy.is_empty() {
        return Err("whatif requires --policy NAME".into());
    }
    if slots == 0 {
        return Err("--slots must be positive".into());
    }
    let fork_at = fork_at.unwrap_or(scenario.slots() / 2);

    // Trunk: build, warm up a learning policy, advance to the fork slot.
    let (mut sim, needs_warmup) = scenario.build_sim()?;
    if needs_warmup {
        sim.warmup(scenario.warmup_slots());
    }
    sim.run(fork_at);

    // Fork is a state copy, not a re-run: the tree owns a clone of the
    // trunk at `fork_at` and each branch restores from that one snapshot.
    let mut tree = StateTree::new(sim.fork(), scenario.clone());
    tree.branch("control", &Perturbation::default())?;
    for (label, perturbation) in &variants {
        tree.branch(label.clone(), perturbation)?;
    }
    tree.run(slots);

    println!(
        "whatif: policy {}, seed {}, forked at slot {fork_at}, {} branch(es) x {slots} slot(s)",
        scenario.policy,
        scenario.seed,
        tree.len()
    );
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>11} {:>9} {:>8} {:>6}",
        "branch", "attack", "emerg", "outages", "attack_kWh", "avg_dT_C", "inlet_C", "soc"
    );
    for outcome in tree.outcomes() {
        println!(
            "{:<16} {:>8} {:>8} {:>8} {:>11.3} {:>9.4} {:>8.3} {:>6.3}",
            outcome.label,
            outcome.metrics.attack_slots,
            outcome.metrics.emergency_slots,
            outcome.metrics.outage_events,
            outcome.metrics.attack_energy.as_kilowatt_hours(),
            outcome.metrics.avg_delta_t().as_celsius(),
            outcome.inlet_c,
            outcome.battery_soc,
        );
    }
    match tree.first_divergence() {
        Some(slot) => println!("first divergence: slot {slot}"),
        None => println!("first divergence: none (all branches agree so far)"),
    }
    Ok(())
}
