//! The server as shipped — `LaminarServer::new(Registry::in_memory(),
//! ExecutionEngine::instant())` behind `HttpServer` on loopback — seeded
//! with the run's corpus and the WordCount workflow.

use crate::inputs::{corpus, USER};
use laminar_engine::ExecutionEngine;
use laminar_registry::Registry;
use laminar_server::{HttpServer, LaminarServer};
use laminar_workloads::wordcount;

/// The registered workflow the bulk stream runs by name.
pub const WORDCOUNT: &str = "WordCount";

/// A server holding the seeded registry, not yet listening. The traced
/// run builds a second one as the in-process replica for layer replays.
pub fn build_server(seed: u64) -> Result<LaminarServer, String> {
    let mut server = LaminarServer::new(Registry::in_memory(), ExecutionEngine::instant());
    let registry = server.registry_mut();
    registry.register_user(USER, "password").map_err(|e| e.to_string())?;
    for pe in corpus(seed) {
        registry
            .register_pe(USER, &pe.source, pe.description.as_deref())
            .map_err(|e| format!("{}: {e}", pe.name))?;
    }
    registry
        .register_workflow(USER, wordcount::SOURCE, WORDCOUNT, None)
        .map_err(|e| format!("workflow: {e}"))?;
    Ok(server)
}

/// Start the seeded server on an ephemeral loopback port.
pub fn start(seed: u64) -> Result<HttpServer, String> {
    HttpServer::start(build_server(seed)?).map_err(|e| format!("bind: {e}"))
}
