//! The MPI mapping: message-passing enactment over a simulated
//! communicator.
//!
//! Each PE instance is a *rank*. Ranks share nothing; every datum is
//! serialized to a byte buffer (lampickle) and sent as a tagged
//! point-to-point message, exactly the discipline a real
//! `mpi4py`-backed dispel4py enactment follows. The communicator is the
//! substrate substitution for MPI itself (see DESIGN.md).

use super::runtime::{Connector, Runtime};
use super::worker::{drain_batch_groups, RoutedDatum, Transport, TransportMsg};
use super::{Mapping, MappingKind, RunOptions, RunResult};
use crate::error::DataflowError;
use crate::graph::WorkflowGraph;
use crate::planner::{ConcretePlan, InstanceId};
use crate::ports::PortId;
use laminar_codec::pickle;
use laminar_json::{jarr, Value};
use std::sync::mpsc::{channel, Receiver, Sender};

/// Message tag for data payloads.
pub const TAG_DATA: u32 = 1;
/// Message tag for end-of-stream.
pub const TAG_EOS: u32 = 2;

/// A tagged point-to-point message.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sending rank.
    pub src: usize,
    /// Message tag ([`TAG_DATA`] or [`TAG_EOS`]).
    pub tag: u32,
    /// Serialized payload (empty for EOS).
    pub payload: Vec<u8>,
}

/// The simulated communicator: `size` ranks with point-to-point channels.
pub struct Communicator {
    senders: Vec<Sender<Envelope>>,
    receivers: Vec<Option<Receiver<Envelope>>>,
}

impl Communicator {
    /// Create a communicator with `size` ranks.
    pub fn new(size: usize) -> Communicator {
        let mut senders = Vec::with_capacity(size);
        let mut receivers = Vec::with_capacity(size);
        for _ in 0..size {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(Some(rx));
        }
        Communicator { senders, receivers }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.senders.len()
    }

    /// Take the per-rank endpoint (each rank calls this exactly once).
    pub fn endpoint(&mut self, rank: usize) -> RankEndpoint {
        RankEndpoint {
            rank,
            senders: self.senders.clone(),
            receiver: self.receivers[rank].take().expect("endpoint taken once"),
        }
    }
}

/// One rank's view of the communicator.
pub struct RankEndpoint {
    /// This rank's id.
    pub rank: usize,
    senders: Vec<Sender<Envelope>>,
    receiver: Receiver<Envelope>,
}

impl RankEndpoint {
    /// Send `payload` to `dest` with `tag`.
    pub fn send(&self, dest: usize, tag: u32, payload: Vec<u8>) -> Result<(), DataflowError> {
        self.senders[dest]
            .send(Envelope { src: self.rank, tag, payload })
            .map_err(|_| DataflowError::Enactment(format!("rank {dest} is gone")))
    }

    /// Blocking receive of the next message for this rank.
    pub fn recv(&self) -> Result<Envelope, DataflowError> {
        self.receiver.recv().map_err(|_| DataflowError::Enactment("communicator closed without EOS".into()))
    }
}

struct MpiTransport {
    endpoint: RankEndpoint,
    /// Rank of an instance is its dense plan id: an array-offset
    /// computation, not a map lookup.
    plan: ConcretePlan,
}

/// Serialize one destination's burst as a list of `[port_id, value]`
/// pairs. Port ids are the plan's interned [`PortId`]s — both ends hold the
/// same plan, so a small integer is the whole port encoding. Shared with
/// the Redis mapping's queue frames.
pub(crate) fn encode_pairs(group: Vec<(PortId, laminar_json::SharedValue)>) -> Value {
    Value::Array(group.into_iter().map(|(pid, v)| jarr![pid.0 as i64, Value::unshare(v)]).collect())
}

/// Decode a burst's `[port_id, value]` pairs, validating every port id
/// against the plan's port table. Corrupt frames are enactment errors —
/// data is never silently re-routed to a default port.
pub(crate) fn decode_pairs(
    items: Value,
    plan: &ConcretePlan,
    what: &str,
) -> Result<Vec<(PortId, laminar_json::SharedValue)>, DataflowError> {
    let corrupt = |detail: &str| DataflowError::Enactment(format!("corrupt {what} frame: {detail}"));
    let Value::Array(items) = items else {
        return Err(corrupt("expected a batch list"));
    };
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let Value::Array(mut pair) = item else {
            return Err(corrupt("batch item is not a [port, value] pair"));
        };
        if pair.len() != 2 {
            return Err(corrupt("batch item is not a [port, value] pair"));
        }
        let value = pair.pop().expect("len 2");
        let port = match pair.pop().expect("len 1").as_i64().map(u32::try_from) {
            Some(Ok(p)) if plan.ports().contains(PortId(p)) => PortId(p),
            Some(p) => return Err(corrupt(&format!("port id {p:?} not in the plan's port table"))),
            None => return Err(corrupt("missing port id")),
        };
        out.push((port, value.into_shared()));
    }
    Ok(out)
}

impl Transport for MpiTransport {
    fn send_batch(&mut self, batch: &mut Vec<RoutedDatum>) -> Result<(), DataflowError> {
        let endpoint = &self.endpoint;
        let plan = &self.plan;
        drain_batch_groups(batch, |dest, group| {
            // Serialize through the byte boundary — ranks share no memory.
            endpoint.send(plan.dense(dest), TAG_DATA, pickle::dumps(&encode_pairs(group)))
        })
    }

    fn send_eos(&mut self, dest: InstanceId) -> Result<(), DataflowError> {
        self.endpoint.send(self.plan.dense(dest), TAG_EOS, Vec::new())
    }

    fn recv(&mut self) -> Result<TransportMsg, DataflowError> {
        let env = self.endpoint.recv()?;
        match env.tag {
            TAG_EOS => Ok(TransportMsg::Eos),
            TAG_DATA => {
                let v = pickle::loads(&env.payload)
                    .map_err(|e| DataflowError::Enactment(format!("corrupt MPI frame: {e}")))?;
                Ok(TransportMsg::Data(decode_pairs(v, &self.plan, "MPI")?))
            }
            t => Err(DataflowError::Enactment(format!("unknown MPI tag {t}"))),
        }
    }
}

/// Assigns each planned instance a rank (its dense plan id) and hands out
/// communicator endpoints.
#[derive(Default)]
struct MpiConnector {
    comm: Option<Communicator>,
    plan: Option<ConcretePlan>,
}

impl Connector for MpiConnector {
    type Transport = MpiTransport;

    fn connect(&mut self, _graph: &WorkflowGraph, plan: &ConcretePlan) -> Result<(), DataflowError> {
        self.comm = Some(Communicator::new(plan.total_processes));
        self.plan = Some(plan.clone());
        Ok(())
    }

    fn endpoint(&mut self, inst: InstanceId) -> Result<MpiTransport, DataflowError> {
        let comm = self.comm.as_mut().expect("connect ran first");
        let plan = self.plan.clone().expect("connect ran first");
        Ok(MpiTransport { endpoint: comm.endpoint(plan.dense(inst)), plan })
    }
}

/// Message-passing enactment.
pub struct MpiMapping;

impl Mapping for MpiMapping {
    fn kind(&self) -> MappingKind {
        MappingKind::Mpi
    }

    fn execute_observed(
        &self,
        graph: &WorkflowGraph,
        options: &RunOptions,
        observer: Option<std::sync::Arc<dyn super::RunObserver>>,
    ) -> Result<RunResult, DataflowError> {
        Runtime::new(graph, options).threaded(MpiConnector::default(), observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::SimpleMapping;
    use crate::pe::{iterative_fn, producer_fn};

    #[test]
    fn communicator_point_to_point() {
        let mut comm = Communicator::new(2);
        assert_eq!(comm.size(), 2);
        let e0 = comm.endpoint(0);
        let e1 = comm.endpoint(1);
        e0.send(1, TAG_DATA, b"hello".to_vec()).unwrap();
        let env = e1.recv().unwrap();
        assert_eq!(env.src, 0);
        assert_eq!(env.tag, TAG_DATA);
        assert_eq!(env.payload, b"hello");
    }

    #[test]
    fn decode_pairs_rejects_corrupt_ports() {
        let mut g = WorkflowGraph::new("p");
        let a = g.add(producer_fn("Nums", Value::Int));
        let b = g.add(iterative_fn("Inc", Some));
        g.connect(a, "output", b, "input").unwrap();
        let plan = ConcretePlan::sequential(&g).unwrap();
        // Well-formed: a known interned port id.
        let input = plan.ports().id("input").unwrap();
        let ok = decode_pairs(jarr![jarr![input.0 as i64, 7]], &plan, "MPI").unwrap();
        assert_eq!(ok.len(), 1);
        assert_eq!(*ok[0].1, Value::Int(7));
        // Out-of-table port id, stringly-typed port (the legacy wire
        // format), and a non-list frame are all corruption, not "input".
        assert!(decode_pairs(jarr![jarr![999, 7]], &plan, "MPI").is_err());
        assert!(decode_pairs(jarr![jarr!["input", 7]], &plan, "MPI").is_err());
        assert!(decode_pairs(Value::Int(3), &plan, "MPI").is_err());
        assert!(decode_pairs(jarr![jarr![input.0 as i64]], &plan, "MPI").is_err());
        // Ids that only *truncate* into range (2^32 + id, negatives) are
        // corruption too, not aliases of valid ports.
        assert!(decode_pairs(jarr![jarr![(1i64 << 32) + input.0 as i64, 7]], &plan, "MPI").is_err());
        assert!(decode_pairs(jarr![jarr![-1, 7]], &plan, "MPI").is_err());
    }

    #[test]
    fn matches_simple_as_multiset() {
        let mut g = WorkflowGraph::new("p");
        let a = g.add(producer_fn("Nums", Value::Int));
        let b = g.add(iterative_fn("Inc", |v| v.as_i64().map(|n| Value::Int(n + 1))));
        g.connect(a, "output", b, "input").unwrap();
        let simple = SimpleMapping.execute(&g, &RunOptions::iterations(40)).unwrap();
        let mpi = MpiMapping.execute(&g, &RunOptions::iterations(40).with_processes(6)).unwrap();
        let mut s: Vec<i64> =
            simple.port_values("Inc", "output").iter().map(|v| v.as_i64().unwrap()).collect();
        let mut m: Vec<i64> = mpi.port_values("Inc", "output").iter().map(|v| v.as_i64().unwrap()).collect();
        s.sort();
        m.sort();
        assert_eq!(s, m);
    }

    #[test]
    fn payloads_survive_serialization_boundary() {
        // Nested structures cross the byte boundary intact.
        let src = r#"
            pe Maker : producer {
                output output;
                process { emit({"id": iteration, "tags": ["x", "y"], "f": 0.5}); }
            }
            pe Check : iterative {
                input m; output output;
                process { emit(m["tags"][1]); }
            }
        "#;
        let mut g = WorkflowGraph::new("nested");
        let a = g.add_script_pe(src, "Maker").unwrap();
        let b = g.add_script_pe(src, "Check").unwrap();
        g.connect(a, "output", b, "m").unwrap();
        let r = MpiMapping.execute(&g, &RunOptions::iterations(8).with_processes(4)).unwrap();
        assert_eq!(r.port_values("Check", "output").len(), 8);
        for v in r.port_values("Check", "output") {
            assert_eq!(v.as_str(), Some("y"));
        }
    }

    #[test]
    fn groupby_correct_across_ranks() {
        let src = r#"
            pe Words : producer { output output; process { emit([["k1","k2","k3"][iteration % 3], 1]); } }
            pe Count : generic {
                input input groupby 0;
                output output;
                init { state.n = {}; }
                process {
                    let w = input[0];
                    state.n[w] = get(state.n, w, 0) + 1;
                    emit([w, state.n[w]]);
                }
            }
        "#;
        let mut g = WorkflowGraph::new("wc");
        let a = g.add_script_pe(src, "Words").unwrap();
        let b = g.add_script_pe(src, "Count").unwrap();
        g.connect(a, "output", b, "input").unwrap();
        let r = MpiMapping.execute(&g, &RunOptions::iterations(30).with_processes(6)).unwrap();
        let mut best: std::collections::BTreeMap<String, i64> = Default::default();
        for v in r.port_values("Count", "output") {
            let w = v[0].as_str().unwrap().to_string();
            let n = v[1].as_i64().unwrap();
            let e = best.entry(w).or_insert(0);
            *e = (*e).max(n);
        }
        for (w, n) in best {
            assert_eq!(n, 10, "key {w}");
        }
    }
}
