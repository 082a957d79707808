//! Tenants and their subscriptions.

use hbm_units::Power;

use crate::ServerSpec;

/// Opaque identifier of a tenant within one colocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub usize);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// One tenant of the colocation: a subscribed power capacity and the servers
/// it houses. The operator's contract is entirely in terms of the metered
/// PDU draw staying below `subscribed`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tenant {
    /// Identifier within the colocation.
    pub id: TenantId,
    /// Human-readable name.
    pub name: String,
    /// Subscribed power capacity (`c_a` for the attacker).
    pub subscribed: Power,
    /// Per-server power models.
    pub servers: Vec<ServerSpec>,
}

impl Tenant {
    /// Creates a tenant with `count` identical servers.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero, `subscribed` is non-positive, or the spec
    /// is invalid.
    pub fn uniform(
        id: TenantId,
        name: impl Into<String>,
        subscribed: Power,
        spec: ServerSpec,
        count: usize,
    ) -> Self {
        assert!(count > 0, "tenant must house at least one server");
        assert!(
            subscribed > Power::ZERO && subscribed.is_finite(),
            "subscription must be positive"
        );
        spec.validate().expect("invalid server spec");
        Tenant {
            id,
            name: name.into(),
            subscribed,
            servers: vec![spec; count],
        }
    }

    /// Number of servers housed.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Sum of the servers' peak powers.
    pub fn total_peak(&self) -> Power {
        self.servers.iter().map(|s| s.peak).sum()
    }

    /// Whether the tenant's metered draw would stay within its subscription
    /// if every server ran flat out. For benign tenants this is how the
    /// operator sizes subscriptions; for the attacker it is *violated* in
    /// actual power but honored in metered power thanks to the battery.
    pub fn peak_fits_subscription(&self) -> bool {
        self.total_peak() <= self.subscribed
    }

    /// Splits an aggregate tenant power draw evenly across its servers.
    pub fn per_server_share(&self, total: Power) -> Power {
        total / self.server_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_construction() {
        let t = Tenant::uniform(
            TenantId(1),
            "benign-1",
            Power::from_kilowatts(2.4),
            ServerSpec::paper_default(),
            12,
        );
        assert_eq!(t.server_count(), 12);
        assert_eq!(t.total_peak(), Power::from_kilowatts(2.4));
        assert!(t.peak_fits_subscription());
    }

    #[test]
    fn attacker_peak_exceeds_subscription() {
        let t = Tenant::uniform(
            TenantId(0),
            "attacker",
            Power::from_kilowatts(0.8),
            ServerSpec::attacker_repeated(),
            4,
        );
        assert!(!t.peak_fits_subscription());
        assert_eq!(t.total_peak(), Power::from_kilowatts(1.8));
    }

    #[test]
    fn share_is_even() {
        let t = Tenant::uniform(
            TenantId(2),
            "t",
            Power::from_kilowatts(2.4),
            ServerSpec::paper_default(),
            12,
        );
        assert_eq!(
            t.per_server_share(Power::from_kilowatts(1.2)),
            Power::from_watts(100.0)
        );
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let _ = Tenant::uniform(
            TenantId(0),
            "x",
            Power::from_kilowatts(1.0),
            ServerSpec::paper_default(),
            0,
        );
    }
}
