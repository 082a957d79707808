//! The daemon's route table — one declarative source of truth.
//!
//! [`ROUTES`] maps every served method of every path to an [`Endpoint`],
//! which the server matches exhaustively. A known path with a wrong
//! method answers `405` with an `Allow` header listing what the path
//! accepts. The table doubles as the machine-readable route inventory:
//! `docs/SERVICE.md` must document every entry, and
//! `crates/serve/tests/server.rs` enumerates [`ROUTES`] to enforce it.

/// What a routed request asks the daemon to do: one variant per
/// (method, route) pair of [`ROUTES`], so the server matches it
/// exhaustively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /v1/health`.
    Health,
    /// `GET /v1/metrics`.
    Metrics,
    /// `POST /v1/simulate`.
    Simulate,
    /// `POST /v1/batch-simulate`.
    BatchSimulate,
    /// `GET /v1/experiments`.
    List,
    /// `POST /v1/experiments`.
    Create,
    /// `DELETE /v1/experiments/{id}`.
    Delete,
    /// `POST /v1/experiments/{id}/step`.
    Step,
    /// `POST /v1/experiments/{id}/perturb`.
    Perturb,
    /// `POST /v1/experiments/{id}/fork`.
    Fork,
    /// `GET /v1/experiments/{id}/branches`.
    Branches,
    /// `DELETE /v1/experiments/{id}/branches`.
    BranchDelete,
    /// `POST /v1/experiments/{id}/branches/step`.
    BranchStep,
    /// `GET /v1/experiments/{id}/state`.
    State,
    /// `GET /v1/experiments/{id}/metrics`.
    ExperimentMetrics,
}

/// One served route: a path pattern and the methods it accepts.
///
/// Patterns are literal segments except `{id}`, which matches exactly one
/// non-empty segment (an experiment id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Path pattern, e.g. `/v1/experiments/{id}/step`.
    pub pattern: &'static str,
    /// Accepted methods in `Allow`-header order, each with the endpoint it
    /// serves.
    pub methods: &'static [(&'static str, Endpoint)],
}

/// Every route the daemon serves. Ordering is documentation order.
pub const ROUTES: &[Route] = &[
    Route {
        pattern: "/v1/health",
        methods: &[("GET", Endpoint::Health)],
    },
    Route {
        pattern: "/v1/metrics",
        methods: &[("GET", Endpoint::Metrics)],
    },
    Route {
        pattern: "/v1/simulate",
        methods: &[("POST", Endpoint::Simulate)],
    },
    Route {
        pattern: "/v1/batch-simulate",
        methods: &[("POST", Endpoint::BatchSimulate)],
    },
    Route {
        pattern: "/v1/experiments",
        methods: &[("GET", Endpoint::List), ("POST", Endpoint::Create)],
    },
    Route {
        pattern: "/v1/experiments/{id}",
        methods: &[("DELETE", Endpoint::Delete)],
    },
    Route {
        pattern: "/v1/experiments/{id}/step",
        methods: &[("POST", Endpoint::Step)],
    },
    Route {
        pattern: "/v1/experiments/{id}/perturb",
        methods: &[("POST", Endpoint::Perturb)],
    },
    Route {
        pattern: "/v1/experiments/{id}/fork",
        methods: &[("POST", Endpoint::Fork)],
    },
    Route {
        pattern: "/v1/experiments/{id}/branches",
        methods: &[
            ("GET", Endpoint::Branches),
            ("DELETE", Endpoint::BranchDelete),
        ],
    },
    Route {
        pattern: "/v1/experiments/{id}/branches/step",
        methods: &[("POST", Endpoint::BranchStep)],
    },
    Route {
        pattern: "/v1/experiments/{id}/state",
        methods: &[("GET", Endpoint::State)],
    },
    Route {
        pattern: "/v1/experiments/{id}/metrics",
        methods: &[("GET", Endpoint::ExperimentMetrics)],
    },
];

/// The outcome of matching one request against [`ROUTES`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteMatch<'a> {
    /// Method and path both matched.
    Ok {
        /// The matched pattern (identity-comparable against [`ROUTES`]).
        pattern: &'static str,
        /// What the request asks for.
        endpoint: Endpoint,
        /// The `{id}` segment, when the pattern has one.
        id: Option<&'a str>,
    },
    /// The path exists but not with this method; `allow` is the
    /// comma-separated `Allow` header value.
    MethodNotAllowed {
        /// Value for the `Allow` response header.
        allow: String,
    },
    /// No route matches the path.
    NotFound,
}

/// Does `target` match `pattern`, and if so which segment bound `{id}`?
fn match_pattern<'a>(pattern: &str, target: &'a str) -> Option<Option<&'a str>> {
    let mut id = None;
    let mut pat = pattern.split('/');
    let mut tgt = target.split('/');
    loop {
        match (pat.next(), tgt.next()) {
            (None, None) => return Some(id),
            (Some("{id}"), Some(seg)) if !seg.is_empty() => id = Some(seg),
            (Some(expect), Some(seg)) if expect == seg => {}
            _ => return None,
        }
    }
}

/// Routes one request: the matched route, a `405` with its `Allow` set, or
/// a `404`. Query strings are not supported (they fail to match, as ever).
pub fn route<'a>(method: &str, target: &'a str) -> RouteMatch<'a> {
    let mut allowed: Vec<&'static str> = Vec::new();
    let mut matched: Option<RouteMatch<'a>> = None;
    for r in ROUTES {
        if let Some(id) = match_pattern(r.pattern, target) {
            for &(m, endpoint) in r.methods {
                if m == method && matched.is_none() {
                    matched = Some(RouteMatch::Ok {
                        pattern: r.pattern,
                        endpoint,
                        id,
                    });
                }
                if !allowed.contains(&m) {
                    allowed.push(m);
                }
            }
        }
    }
    match matched {
        Some(m) => m,
        None if !allowed.is_empty() => RouteMatch::MethodNotAllowed {
            allow: allowed.join(", "),
        },
        None => RouteMatch::NotFound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_routes_match_their_methods() {
        assert_eq!(
            route("GET", "/v1/health"),
            RouteMatch::Ok {
                pattern: "/v1/health",
                endpoint: Endpoint::Health,
                id: None
            }
        );
        assert_eq!(
            route("POST", "/v1/simulate"),
            RouteMatch::Ok {
                pattern: "/v1/simulate",
                endpoint: Endpoint::Simulate,
                id: None
            }
        );
    }

    #[test]
    fn wrong_method_is_405_with_the_allow_set() {
        assert_eq!(
            route("DELETE", "/v1/simulate"),
            RouteMatch::MethodNotAllowed {
                allow: "POST".into()
            }
        );
        assert_eq!(
            route("PATCH", "/v1/experiments"),
            RouteMatch::MethodNotAllowed {
                allow: "GET, POST".into()
            }
        );
    }

    #[test]
    fn id_segments_bind_and_empty_ones_do_not() {
        assert_eq!(
            route("POST", "/v1/experiments/exp-000001/step"),
            RouteMatch::Ok {
                pattern: "/v1/experiments/{id}/step",
                endpoint: Endpoint::Step,
                id: Some("exp-000001")
            }
        );
        assert_eq!(route("POST", "/v1/experiments//step"), RouteMatch::NotFound);
        assert_eq!(
            route("GET", "/v1/experiments/a/b/state"),
            RouteMatch::NotFound
        );
    }

    #[test]
    fn unknown_paths_are_404() {
        assert_eq!(route("GET", "/nope"), RouteMatch::NotFound);
        assert_eq!(route("GET", "/v1/experiments/exp-1/"), RouteMatch::NotFound);
    }

    #[test]
    fn every_route_matches_itself_with_a_sample_id() {
        for r in ROUTES {
            let sample = r.pattern.replace("{id}", "exp-000042");
            for &(method, endpoint) in r.methods {
                assert_eq!(
                    route(method, &sample),
                    RouteMatch::Ok {
                        pattern: r.pattern,
                        endpoint,
                        id: r.pattern.contains("{id}").then_some("exp-000042"),
                    },
                    "{method} {sample} must route"
                );
            }
        }
    }
}
