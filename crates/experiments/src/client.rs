//! `experiments client` — a thin command-line client for the `hbm-serve`
//! experiment API (see `docs/SERVICE.md`).
//!
//! ```text
//! experiments client [--addr HOST:PORT] create --policy NAME [--days N] ...
//! experiments client [--addr HOST:PORT] list
//! experiments client [--addr HOST:PORT] step <id> --slots N
//! experiments client [--addr HOST:PORT] perturb <id> [--util F] [--attack-load-kw F] ...
//! experiments client [--addr HOST:PORT] state <id>
//! experiments client [--addr HOST:PORT] metrics <id>
//! experiments client [--addr HOST:PORT] delete <id>
//! ```
//!
//! Each action maps to exactly one HTTP request; the response body (one
//! flat-JSON line) is printed to stdout verbatim, so output pipes into
//! the same tooling that consumes `experiments simulate` lines. Non-2xx
//! responses print the server's error to stderr and exit non-zero.

use crate::common::{take_override, take_policy, Options};
use hbm_core::Perturbation;
use hbm_serve::http::{request_bytes, roundtrip};

const DEFAULT_ADDR: &str = "127.0.0.1:7070";

pub const USAGE: &str = "usage: experiments client [--addr HOST:PORT] <action>
  create --policy NAME [--days N] [--warmup-days N] [--seed N]
         [--util F] [--attack-load-kw F] [--battery-kwh F] [--threshold-c F] [--cap-w F]
  list
  step <id> --slots N
  perturb <id> [--util F] [--attack-load-kw F] [--battery-kwh F] [--threshold-c F] [--cap-w F]
  state <id>
  metrics <id>
  delete <id>";

/// Sends one request and prints the response body; 2xx → `Ok`.
fn call(addr: &str, method: &str, path: &str, body: Option<&str>) -> Result<(), String> {
    let (status, body) = roundtrip(addr, &request_bytes(method, path, body))?;
    if (200..300).contains(&status) {
        print!("{body}");
        if !body.ends_with('\n') {
            println!();
        }
        Ok(())
    } else {
        Err(format!("{method} {path} -> {status}: {}", body.trim()))
    }
}

/// Parses the shared scenario-override flags (`--util`, `--attack-load-kw`,
/// `--battery-kwh`, `--threshold-c`, `--cap-w`) into a [`Perturbation`];
/// unrecognized flags are returned for the caller to handle.
fn parse_overrides(args: &[String]) -> Result<(Perturbation, Vec<String>), String> {
    let mut p = Perturbation::default();
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !take_override(&mut p, arg, &mut it)? {
            rest.push(arg.clone());
        }
    }
    Ok((p, rest))
}

fn expect_id(rest: &[String], action: &str) -> Result<String, String> {
    match rest {
        [id] if !id.starts_with("--") => Ok(id.clone()),
        [] => Err(format!("{action} requires an experiment id")),
        other => Err(format!("unexpected {action} arguments {other:?}")),
    }
}

/// Runs `experiments client ...`. `opts` supplies the `--days`,
/// `--warmup-days`, and `--seed` values (already parsed by
/// [`Options::parse`]) that `create` folds into the scenario body.
pub fn run_client(opts: &Options, args: &[String]) -> Result<(), String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--addr" {
            addr = it
                .next()
                .cloned()
                .ok_or_else(|| "--addr requires a value".to_string())?;
        } else {
            rest.push(arg.clone());
        }
    }
    let Some((action, action_args)) = rest.split_first() else {
        return Err("client requires an action".into());
    };
    match action.as_str() {
        "create" => {
            let mut scenario = opts.scenario();
            let (p, extra) = parse_overrides(action_args)?;
            let mut it = extra.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--policy" => scenario.policy = take_policy(&mut it)?,
                    other => return Err(format!("unknown create argument {other:?}")),
                }
            }
            if scenario.policy.is_empty() {
                return Err("create requires --policy NAME".into());
            }
            let scenario = p.apply(&scenario);
            call(
                &addr,
                "POST",
                "/v1/experiments",
                Some(&scenario.to_flat_json()),
            )
        }
        "list" => call(&addr, "GET", "/v1/experiments", None),
        "step" => {
            let mut slots: Option<u64> = None;
            let mut plain = Vec::new();
            let mut it = action_args.iter();
            while let Some(arg) = it.next() {
                if arg == "--slots" {
                    slots = Some(
                        it.next()
                            .ok_or_else(|| "--slots requires a value".to_string())?
                            .parse()
                            .map_err(|e| format!("--slots: {e}"))?,
                    );
                } else {
                    plain.push(arg.clone());
                }
            }
            let id = expect_id(&plain, "step")?;
            let slots = slots.ok_or_else(|| "step requires --slots N".to_string())?;
            let body = format!("{{\"slots\":{slots}}}");
            call(
                &addr,
                "POST",
                &format!("/v1/experiments/{id}/step"),
                Some(&body),
            )
        }
        "perturb" => {
            let (p, plain) = parse_overrides(action_args)?;
            let id = expect_id(&plain, "perturb")?;
            if p.is_empty() {
                return Err("perturb requires at least one override flag".into());
            }
            call(
                &addr,
                "POST",
                &format!("/v1/experiments/{id}/perturb"),
                Some(&p.to_flat_json()),
            )
        }
        "state" => {
            let id = expect_id(action_args, "state")?;
            call(&addr, "GET", &format!("/v1/experiments/{id}/state"), None)
        }
        "metrics" => {
            let id = expect_id(action_args, "metrics")?;
            call(&addr, "GET", &format!("/v1/experiments/{id}/metrics"), None)
        }
        "delete" => {
            let id = expect_id(action_args, "delete")?;
            call(&addr, "DELETE", &format!("/v1/experiments/{id}"), None)
        }
        other => Err(format!("unknown client action {other:?}")),
    }
}
