//! Mutated plans against a live daemon. Mutants of the demo plan's JSON,
//! with fields deleted, numbers out of range or NaN, weights truncated
//! and towns made routeless, go in turn over one connection to one
//! 2-worker daemon. Each is refused or reaches a terminal phase within
//! 30 s, and afterwards the daemon serves the demo plan byte-identical to
//! its golden. No mutation can enlarge what an accepted mutant runs: the
//! number mutations only refuse an integer or a town size, and leave the
//! time budget at most the demo's 15 s.

use avfi_agent::IlNetwork;
use avfi_core::campaign::AgentSpec;
use avfi_net::proto::{PlanId, PlanPhase, ServiceReply, ServiceRequest};
use avfi_net::TcpTransport;
use avfi_server::{demo_plan, CampaignServer};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Number, Serialize, Value};
use std::time::{Duration, Instant};

/// Mutants submitted; the bound keeps the test to seconds.
const MUTANTS: usize = 48;

/// A JSON tree written back as it is.
struct Json(Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// One step into a JSON tree: an object field or an array element.
#[derive(Debug, Clone)]
enum Step {
    Field(String),
    Index(usize),
}

/// The paths to every object field and to every number in `v`.
fn paths(v: &Value, at: &mut Vec<Step>, fields: &mut Vec<Vec<Step>>, numbers: &mut Vec<Vec<Step>>) {
    match v {
        Value::Object(entries) => {
            for (key, item) in entries {
                at.push(Step::Field(key.clone()));
                fields.push(at.clone());
                paths(item, at, fields, numbers);
                at.pop();
            }
        }
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                at.push(Step::Index(i));
                paths(item, at, fields, numbers);
                at.pop();
            }
        }
        Value::Number(_) => numbers.push(at.clone()),
        _ => {}
    }
}

/// The node at `path`, if the tree still has it.
fn node<'v>(v: &'v mut Value, path: &[Step]) -> Option<&'v mut Value> {
    path.iter().try_fold(v, |v, step| match (v, step) {
        (Value::Object(entries), Step::Field(key)) => {
            entries.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v)
        }
        (Value::Array(items), Step::Index(i)) => items.get_mut(*i),
        _ => None,
    })
}

/// Applies one random mutation to `plan`; returns what it did and
/// whether the mutation alone must get the plan refused.
fn mutate(plan: &mut Value, weights: &[u8], rng: &mut StdRng) -> (String, bool) {
    let (mut fields, mut numbers) = (Vec::new(), Vec::new());
    paths(plan, &mut Vec::new(), &mut fields, &mut numbers);
    let named = |name: &str| -> Vec<Vec<Step>> {
        let is = |p: &&Vec<Step>| matches!(p.last(), Some(Step::Field(f)) if f == name);
        fields.iter().filter(is).cloned().collect()
    };
    let (agents, blocks) = (named("agent"), named("block"));
    // Half the mutations change a number, a quarter delete a field: most
    // of those are refused as malformed, so the poisons get an eighth each.
    let kind = match rng.random_range(0..8) {
        0 | 1 => 0,
        6 if !agents.is_empty() => 2,
        7 if !blocks.is_empty() => 3,
        _ => 1,
    };
    match kind {
        0 => {
            let path = &fields[rng.random_range(0..fields.len())];
            let (parent, Some(Step::Field(key))) = (&path[..path.len() - 1], path.last()) else {
                unreachable!("a field path ends in a field")
            };
            if let Some(Value::Object(entries)) = node(plan, parent) {
                entries.retain(|(k, _)| k != key);
            }
            (format!("delete {path:?}"), false)
        }
        1 => {
            let path = &numbers[rng.random_range(0..numbers.len())];
            let raw = [
                "-1",
                "0.5",
                "1e300",
                "-1e300",
                "18446744073709551616",
                "null",
            ][rng.random_range(0..6usize)];
            let value = match raw {
                "null" => Value::Null,
                _ => Value::Number(Number::from_raw(raw.to_string())),
            };
            *node(plan, path).expect("the path exists") = value;
            (format!("{path:?} = {raw}"), false)
        }
        2 => {
            let path = &agents[rng.random_range(0..agents.len())];
            let cut = rng.random_range(0..weights.len());
            let agent = AgentSpec::Neural {
                weights: weights[..cut].to_vec().into(),
            };
            *node(plan, path).expect("the path exists") = agent.to_value();
            (format!("{path:?} = weights cut to {cut} bytes"), true)
        }
        _ => {
            let path = &blocks[rng.random_range(0..blocks.len())];
            *node(plan, path).expect("the path exists") =
                Value::Number(Number::from_raw("25".into()));
            (format!("{path:?} = 25 (routeless)"), true)
        }
    }
}

/// Sends one request and returns its reply.
fn request(daemon: &mut TcpTransport, request: ServiceRequest) -> ServiceReply {
    daemon.send_value(&request).expect("send");
    daemon.recv_value().expect("reply")
}

/// Submits a plan as JSON text, which a mutant need not parse as.
fn submit(daemon: &mut TcpTransport, plan_json: String) -> ServiceReply {
    let trace_level = "off".to_string();
    request(
        daemon,
        ServiceRequest::SubmitPlan {
            plan_json,
            trace_level,
        },
    )
}

/// Polls the plan's phase until `done` holds or 30 s have passed.
fn phase_until(daemon: &mut TcpTransport, plan: PlanId, done: fn(PlanPhase) -> bool) -> PlanPhase {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let ServiceReply::Status { phase, .. } = request(daemon, ServiceRequest::Status { plan })
        else {
            panic!("no status for plan {plan}");
        };
        if done(phase) || Instant::now() >= deadline {
            return phase;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn every_mutant_is_refused_or_ends_and_the_demo_plan_still_serves() {
    let server = CampaignServer::bind("127.0.0.1:0", 2).expect("bind");
    let addr = server.local_addr().to_string();
    let thread = std::thread::spawn(move || server.run());
    let mut daemon = TcpTransport::connect(&addr).expect("connect");

    let weights = IlNetwork::new(3).to_weights();
    let mut rng = StdRng::seed_from_u64(0x6d75_7461_6e74);
    let (mut refused, mut accepted) = (0, 0);
    for m in 0..MUTANTS {
        let mut plan = demo_plan().to_value();
        let mutations: Vec<(String, bool)> = (0..rng.random_range(1..=2))
            .map(|_| mutate(&mut plan, &weights, &mut rng))
            .collect();
        let at = format!("mutant {m}: {mutations:?}");
        match submit(
            &mut daemon,
            serde_json::to_string(&Json(plan)).expect("json"),
        ) {
            ServiceReply::Error { message } => {
                assert!(
                    message.starts_with("invalid plan: ")
                        || message.starts_with("malformed plan: "),
                    "{at}: {message}"
                );
                refused += 1;
            }
            ServiceReply::Submitted { plan, .. } => {
                assert!(
                    !(mutations.len() == 1 && mutations[0].1),
                    "{at}: a plan with undecodable weights or a routeless town was accepted"
                );
                phase_until(&mut daemon, plan, |p| p != PlanPhase::Queued);
                request(&mut daemon, ServiceRequest::Cancel { plan });
                let phase = phase_until(&mut daemon, plan, PlanPhase::is_terminal);
                assert!(phase.is_terminal(), "{at}: still {phase} after 30 s");
                accepted += 1;
            }
            other => panic!("{at}: {other:?}"),
        }
    }
    assert!(
        refused > 0 && accepted > 0,
        "{refused} refused, {accepted} accepted"
    );

    let demo = serde_json::to_string(&demo_plan()).expect("json");
    let ServiceReply::Submitted { plan, .. } = submit(&mut daemon, demo) else {
        panic!("the demo plan was refused");
    };
    assert_eq!(
        phase_until(&mut daemon, plan, PlanPhase::is_terminal),
        PlanPhase::Completed
    );
    let ServiceReply::Results { results_json, .. } =
        request(&mut daemon, ServiceRequest::Results { plan })
    else {
        panic!("no results for the demo plan");
    };
    assert_eq!(
        results_json,
        include_str!("../../../results/golden/avfi_server_demo.json")
    );
    request(&mut daemon, ServiceRequest::Shutdown);
    thread
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");
}
