//! PDU: capacity enforcement and per-tenant metering.

use hbm_units::Power;

use crate::{Tenant, TenantId};

/// One metering snapshot: per-tenant metered draws plus the total.
///
/// Metered power is what the operator *sees*; it is also what the operator
/// uses as a proxy for the cooling load. An attacker discharging built-in
/// batteries makes its actual heat exceed its metered draw — the titular
/// "heat behind the meter".
#[derive(Debug, Clone, PartialEq)]
pub struct MeterReading {
    per_tenant: Vec<(TenantId, Power)>,
    total: Power,
}

impl MeterReading {
    /// Metered draw of one tenant, if present.
    pub fn tenant(&self, id: TenantId) -> Option<Power> {
        self.per_tenant
            .iter()
            .find(|(t, _)| *t == id)
            .map(|(_, p)| *p)
    }

    /// Total metered PDU draw.
    pub fn total(&self) -> Power {
        self.total
    }

    /// Iterates over `(tenant, metered power)` pairs.
    pub fn iter(&self) -> std::slice::Iter<'_, (TenantId, Power)> {
        self.per_tenant.iter()
    }
}

/// The shared power distribution unit.
///
/// Holds the tenant roster and the colocation's UPS-protected capacity, and
/// produces [`MeterReading`]s from requested tenant draws, clamping each
/// tenant to its subscription (the operator's enforcement) — the paper's
/// attacker always stays below its subscription *in metered terms*, so the
/// clamp never fires for it.
#[derive(Debug, Clone, PartialEq)]
pub struct Pdu {
    capacity: Power,
    tenants: Vec<Tenant>,
}

impl Pdu {
    /// Creates a PDU with the given capacity and tenant roster.
    ///
    /// # Panics
    ///
    /// Panics if the roster is empty, tenant ids are not unique, or the sum
    /// of subscriptions exceeds capacity (this reproduction does not model
    /// power oversubscription; the paper's colocation subscribes exactly to
    /// capacity).
    pub fn new(capacity: Power, tenants: Vec<Tenant>) -> Self {
        assert!(!tenants.is_empty(), "PDU needs at least one tenant");
        let mut ids: Vec<_> = tenants.iter().map(|t| t.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), tenants.len(), "tenant ids must be unique");
        let subscribed: Power = tenants.iter().map(|t| t.subscribed).sum();
        assert!(
            subscribed <= capacity + Power::from_watts(1e-6),
            "subscriptions exceed PDU capacity"
        );
        Pdu { capacity, tenants }
    }

    /// UPS-protected capacity of the colocation.
    pub fn capacity(&self) -> Power {
        self.capacity
    }

    /// The tenant roster.
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// Looks a tenant up by id.
    pub fn tenant(&self, id: TenantId) -> Option<&Tenant> {
        self.tenants.iter().find(|t| t.id == id)
    }

    /// Total subscribed capacity across tenants.
    pub fn total_subscribed(&self) -> Power {
        self.tenants.iter().map(|t| t.subscribed).sum()
    }

    /// Meters one slot: each tenant's requested draw is clamped to its
    /// subscription; returns the per-tenant readings and total.
    ///
    /// # Panics
    ///
    /// Panics if `requested.len()` differs from the tenant count or any
    /// request is negative.
    pub fn meter(&self, requested: &[Power]) -> MeterReading {
        assert_eq!(
            requested.len(),
            self.tenants.len(),
            "one request per tenant required"
        );
        assert!(
            requested.iter().all(|&p| p >= Power::ZERO),
            "power requests must be non-negative"
        );
        let per_tenant: Vec<(TenantId, Power)> = self
            .tenants
            .iter()
            .zip(requested)
            .map(|(t, &req)| (t.id, req.min(t.subscribed)))
            .collect();
        let total = per_tenant.iter().map(|(_, p)| *p).sum();
        MeterReading { per_tenant, total }
    }

    /// Headroom between capacity and a metered total.
    pub fn headroom(&self, reading: &MeterReading) -> Power {
        (self.capacity - reading.total()).positive_part()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerSpec;

    fn paper_roster() -> Vec<Tenant> {
        let mut tenants = vec![Tenant::uniform(
            TenantId(0),
            "attacker",
            Power::from_kilowatts(0.8),
            ServerSpec::attacker_repeated(),
            4,
        )];
        for i in 1..=3 {
            tenants.push(Tenant::uniform(
                TenantId(i),
                format!("benign-{i}"),
                Power::from_kilowatts(2.4),
                ServerSpec::paper_default(),
                12,
            ));
        }
        tenants
    }

    fn paper_pdu() -> Pdu {
        Pdu::new(Power::from_kilowatts(8.0), paper_roster())
    }

    #[test]
    fn roster_matches_table_one() {
        let pdu = paper_pdu();
        assert_eq!(pdu.tenants().len(), 4);
        assert_eq!(
            pdu.tenants()
                .iter()
                .map(Tenant::server_count)
                .sum::<usize>(),
            40
        );
        assert_eq!(pdu.total_subscribed(), Power::from_kilowatts(8.0));
    }

    #[test]
    fn metering_sums_tenant_draws() {
        let pdu = paper_pdu();
        let reading = pdu.meter(&[
            Power::from_kilowatts(0.8),
            Power::from_kilowatts(2.0),
            Power::from_kilowatts(2.2),
            Power::from_kilowatts(1.5),
        ]);
        assert_eq!(reading.total(), Power::from_kilowatts(6.5));
        assert_eq!(
            reading.tenant(TenantId(2)),
            Some(Power::from_kilowatts(2.2))
        );
        assert_eq!(pdu.headroom(&reading), Power::from_kilowatts(1.5));
    }

    #[test]
    fn subscription_clamp_enforced() {
        let pdu = paper_pdu();
        let reading = pdu.meter(&[
            Power::from_kilowatts(1.5), // attacker asking over 0.8 kW
            Power::from_kilowatts(2.4),
            Power::from_kilowatts(2.4),
            Power::from_kilowatts(2.4),
        ]);
        assert_eq!(
            reading.tenant(TenantId(0)),
            Some(Power::from_kilowatts(0.8))
        );
        assert_eq!(reading.total(), Power::from_kilowatts(8.0));
    }

    #[test]
    fn unknown_tenant_is_none() {
        let pdu = paper_pdu();
        let reading = pdu.meter(&[Power::ZERO; 4]);
        assert_eq!(reading.tenant(TenantId(9)), None);
    }

    #[test]
    #[should_panic(expected = "subscriptions exceed")]
    fn oversubscription_rejected() {
        let mut roster = paper_roster();
        roster.push(Tenant::uniform(
            TenantId(4),
            "extra",
            Power::from_kilowatts(1.0),
            ServerSpec::paper_default(),
            5,
        ));
        let _ = Pdu::new(Power::from_kilowatts(8.0), roster);
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn duplicate_ids_rejected() {
        let mut roster = paper_roster();
        roster[1].id = TenantId(0);
        let _ = Pdu::new(Power::from_kilowatts(8.0), roster);
    }
}
