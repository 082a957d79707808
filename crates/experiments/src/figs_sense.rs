//! Sensitivity figures: 11a and 12a–e.

use hbm_core::{ColoConfig, ForesightedPolicy, MyopicPolicy};
use hbm_thermal::{CoolingSystem, ZoneModel};
use hbm_units::{Energy, Power, Temperature};

use crate::common::{heading, run_policy, write_csv, Options, Sink};
use crate::outln;

/// Fig. 11a: time for the inlet to exceed 32 °C vs cooling overload, for
/// several supply temperatures.
pub fn fig11a(opts: &Options, out: &mut Sink) {
    heading(out, "Fig. 11a — overload time to exceed 32 °C");
    let threshold = Temperature::from_celsius(32.0);
    let mut rows = Vec::new();
    outln!(
        out,
        "  overload   T_s=27 °C   T_s=28 °C   T_s=29 °C   (minutes)"
    );
    for overload_kw in [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0] {
        let overload = Power::from_kilowatts(overload_kw);
        let mut cells = Vec::new();
        for supply_c in [27.0, 28.0, 29.0] {
            let cooling =
                CoolingSystem::paper_default().with_supply(Temperature::from_celsius(supply_c));
            let zone = ZoneModel::new(cooling, 40_000.0, 700.0);
            let t = zone
                .time_to_reach_from(Temperature::from_celsius(supply_c), threshold, overload)
                .as_minutes();
            cells.push(t);
        }
        outln!(
            out,
            "  {overload_kw:5.2} kW   {:8.2}    {:8.2}    {:8.2}",
            cells[0],
            cells[1],
            cells[2]
        );
        rows.push(format!(
            "{overload_kw},{:.3},{:.3},{:.3}",
            cells[0], cells[1], cells[2]
        ));
    }
    outln!(
        out,
        "  (1 kW of overload crosses the threshold in under 4 minutes)"
    );
    write_csv(
        opts,
        out,
        "fig11a",
        "overload_kw,min_at_27c,min_at_28c,min_at_29c",
        &rows,
    );
}

/// Shared shape of the Fig. 12 sensitivity panels: sweep one knob, report
/// annual emergency time for Myopic and Foresighted.
fn sweep<K: std::fmt::Display + Copy + Send>(
    opts: &Options,
    out: &mut Sink,
    name: &str,
    knob_name: &str,
    values: &[K],
    configure: impl Fn(K) -> ColoConfig + Sync,
) {
    outln!(
        out,
        "  {knob_name:>14}   myopic emerg%   foresighted emerg%"
    );
    // Each knob value is an independent pair of year-long simulations, and
    // within a value the two policies are independent too — fan both levels
    // out and emit the table in knob order afterwards.
    let results = hbm_par::par_map(values.to_vec(), |v| {
        let config = configure(v);
        let reports = hbm_par::par_map(vec![false, true], |foresighted| {
            if foresighted {
                run_policy(
                    &config,
                    ForesightedPolicy::new(
                        14.0,
                        config.capacity,
                        config.battery.capacity,
                        config.battery.max_charge_rate,
                        config.attack_load,
                        config.slot,
                        opts.seed,
                    ),
                    opts,
                    true,
                )
            } else {
                run_policy(
                    &config,
                    MyopicPolicy::with_attack(
                        Power::from_kilowatts(7.4),
                        config.attack_load,
                        config.slot,
                    ),
                    opts,
                    false,
                )
            }
        });
        let m = 100.0 * reports[0].metrics.emergency_fraction();
        let f = 100.0 * reports[1].metrics.emergency_fraction();
        (v, m, f)
    });
    let mut rows = Vec::new();
    for (v, m, f) in results {
        outln!(out, "  {v:>14}   {m:13.3}   {f:18.3}");
        rows.push(format!("{v},{m:.4},{f:.4}"));
    }
    write_csv(
        opts,
        out,
        name,
        &format!("{knob_name},myopic_emergency_pct,foresighted_emergency_pct"),
        &rows,
    );
}

/// Fig. 12a: battery capacity sensitivity.
pub fn fig12a(opts: &Options, out: &mut Sink) {
    heading(out, "Fig. 12a — sensitivity to battery capacity");
    sweep(
        opts,
        out,
        "fig12a",
        "battery_kwh",
        &[0.1, 0.2, 0.3, 0.4],
        |kwh| ColoConfig::paper_default().with_battery_capacity(Energy::from_kilowatt_hours(kwh)),
    );
}

/// Fig. 12b: side-channel noise sensitivity.
pub fn fig12b(opts: &Options, out: &mut Sink) {
    heading(
        out,
        "Fig. 12b — sensitivity to side-channel estimation noise",
    );
    sweep(
        opts,
        out,
        "fig12b",
        "noise_kw",
        &[0.0, 0.2, 0.4, 0.6, 0.8],
        |kw| ColoConfig::paper_default().with_side_channel_noise(Power::from_kilowatts(kw)),
    );
}

/// Fig. 12c: attack load sensitivity.
pub fn fig12c(opts: &Options, out: &mut Sink) {
    heading(out, "Fig. 12c — sensitivity to attack load");
    sweep(
        opts,
        out,
        "fig12c",
        "attack_kw",
        &[0.5, 1.0, 1.5, 2.0],
        |kw| ColoConfig::paper_default().with_attack_load(Power::from_kilowatts(kw)),
    );
}

/// Fig. 12d: capacity-utilization sensitivity.
pub fn fig12d(opts: &Options, out: &mut Sink) {
    heading(
        out,
        "Fig. 12d — sensitivity to average capacity utilization",
    );
    sweep(
        opts,
        out,
        "fig12d",
        "utilization",
        &[0.60, 0.68, 0.75, 0.82, 0.90],
        |u| ColoConfig::paper_default().with_mean_utilization(u),
    );
}

/// Fig. 12e: battery capacity the attacker needs to keep its impact as the
/// operator adds cooling headroom.
pub fn fig12e(opts: &Options, out: &mut Sink) {
    heading(out, "Fig. 12e — battery needed vs extra cooling capacity");
    // Baseline impact at defaults.
    let baseline_config = ColoConfig::paper_default();
    let baseline = run_policy(
        &baseline_config,
        ForesightedPolicy::paper_default(14.0, opts.seed),
        opts,
        true,
    );
    let target = baseline.metrics.emergency_fraction() * 0.8;
    outln!(
        out,
        "  target impact: ≥{:.3} % emergency time (80 % of the no-headroom baseline)",
        100.0 * target
    );
    // The five headroom settings search independently; the inner battery
    // search stays serial because it early-exits at the first size that
    // restores the target impact.
    let results = hbm_par::par_map(vec![0.0, 0.025, 0.05, 0.075, 0.10], |extra| {
        let mut needed = None;
        for battery_kwh in [0.2, 0.3, 0.4, 0.6, 0.8, 1.0, 1.4] {
            // More cooling headroom also calls for a bigger attack load:
            // scale it so the peak overload stays comparable.
            let config = ColoConfig::paper_default()
                .with_extra_cooling(extra)
                .with_attack_load(Power::from_kilowatts(1.0 + 8.0 * extra))
                .with_battery_capacity(Energy::from_kilowatt_hours(battery_kwh));
            // The attacker calibrates against the *cooling* capacity here —
            // with headroom installed, that is what must be overloaded.
            let report = run_policy(
                &config,
                ForesightedPolicy::new(
                    14.0,
                    config.cooling.capacity,
                    config.battery.capacity,
                    config.battery.max_charge_rate,
                    config.attack_load,
                    config.slot,
                    opts.seed,
                ),
                opts,
                true,
            );
            if report.metrics.emergency_fraction() >= target {
                needed = Some(battery_kwh);
                break;
            }
        }
        (extra, needed)
    });
    let mut rows = Vec::new();
    for (extra, needed) in results {
        match needed {
            Some(kwh) => {
                outln!(
                    out,
                    "  extra cooling {:4.1} %  →  battery needed {kwh:.1} kWh",
                    100.0 * extra
                );
                rows.push(format!("{extra},{kwh}"));
            }
            None => {
                outln!(
                    out,
                    "  extra cooling {:4.1} %  →  not reachable with ≤1.4 kWh",
                    100.0 * extra
                );
                rows.push(format!("{extra},inf"));
            }
        }
    }
    write_csv(
        opts,
        out,
        "fig12e",
        "extra_cooling_frac,battery_kwh_needed",
        &rows,
    );
}
