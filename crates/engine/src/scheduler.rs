//! Pool admission and scheduling: the per-tenant deficit-round-robin
//! job queue and the per-tenant token-bucket rate limiter.

use crate::request::ExecutionRequest;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// One job waiting in a tenant's lane.
struct QueuedJob {
    id: i64,
    priority: i64,
    req: ExecutionRequest,
}

/// One tenant's pending-job lane. Intra-tenant order is descending
/// priority, FIFO among equals — priority jumps the tenant's *own* line,
/// never another tenant's.
#[derive(Default)]
struct Lane {
    jobs: VecDeque<QueuedJob>,
    /// Remaining service credit in the lane's current scheduler visit.
    credit: u64,
}

/// The pool's weighted-fair job queue: per-tenant FIFO lanes drained by
/// deficit round-robin instead of one global FIFO. Each scheduler visit
/// grants a lane `weight` pops (unit job cost), then rotates to the next
/// lane with work — so a tenant that floods the queue gets exactly its
/// share of worker pulls and can no longer starve the rest. Lanes exist
/// only while they hold work; the map stays bounded by the number of
/// tenants with queued jobs.
pub(crate) struct FairQueue {
    lanes: HashMap<String, Lane>,
    /// Round-robin service order over lanes that currently hold work.
    active: VecDeque<String>,
    /// Configured per-tenant weights (jobs served per visit; default 1).
    weights: HashMap<String, u64>,
    len: usize,
}

impl FairQueue {
    pub(crate) fn new() -> FairQueue {
        FairQueue { lanes: HashMap::new(), active: VecDeque::new(), weights: HashMap::new(), len: 0 }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Tenants with work queued right now.
    pub(crate) fn tenants(&self) -> usize {
        self.lanes.len()
    }

    pub(crate) fn set_weight(&mut self, owner: &str, weight: u64) {
        self.weights.insert(owner.to_string(), weight.max(1));
    }

    pub(crate) fn push(&mut self, owner: &str, id: i64, priority: i64, req: ExecutionRequest) {
        let lane = self.lanes.entry(owner.to_string()).or_default();
        if lane.jobs.is_empty() {
            self.active.push_back(owner.to_string());
            lane.credit = 0;
        }
        // Stable priority insert: after every job with >= priority.
        let at = lane.jobs.iter().position(|j| j.priority < priority).unwrap_or(lane.jobs.len());
        lane.jobs.insert(at, QueuedJob { id, priority, req });
        self.len += 1;
    }

    /// Next job under the deficit-round-robin discipline.
    pub(crate) fn pop(&mut self) -> Option<(i64, ExecutionRequest)> {
        loop {
            let owner = self.active.front()?.clone();
            let Some(lane) = self.lanes.get_mut(&owner) else {
                self.active.pop_front();
                continue;
            };
            if lane.jobs.is_empty() {
                self.lanes.remove(&owner);
                self.active.pop_front();
                continue;
            }
            if lane.credit == 0 {
                lane.credit = self.weights.get(&owner).copied().unwrap_or(1).max(1);
            }
            let job = lane.jobs.pop_front().expect("non-empty lane");
            lane.credit -= 1;
            self.len -= 1;
            let drained = lane.jobs.is_empty();
            if drained {
                self.lanes.remove(&owner);
            }
            if drained || self.lanes.get(&owner).is_none_or(|l| l.credit == 0) {
                // Visit over: rotate to the next tenant with work.
                self.active.pop_front();
                if !drained {
                    self.active.push_back(owner);
                }
            }
            return Some((job.id, job.req));
        }
    }

    /// Remove a queued job by id (cancellation frees the queue slot).
    pub(crate) fn remove(&mut self, id: i64) {
        let mut emptied: Option<String> = None;
        for (owner, lane) in self.lanes.iter_mut() {
            if let Some(pos) = lane.jobs.iter().position(|j| j.id == id) {
                lane.jobs.remove(pos);
                self.len -= 1;
                if lane.jobs.is_empty() {
                    emptied = Some(owner.clone());
                }
                break;
            }
        }
        if let Some(owner) = emptied {
            self.lanes.remove(&owner);
            self.active.retain(|o| *o != owner);
        }
    }

    /// Drain every lane (shutdown), returning the orphaned job ids.
    pub(crate) fn drain(&mut self) -> Vec<i64> {
        let ids: Vec<i64> = self.lanes.values().flat_map(|lane| lane.jobs.iter().map(|j| j.id)).collect();
        self.lanes.clear();
        self.active.clear();
        self.len = 0;
        ids
    }
}

/// Token-bucket state for one tenant.
struct TokenBucket {
    tokens: f64,
    last: Instant,
}

/// Pool-wide per-tenant rate limiting (disabled by default — see
/// [`crate::EnginePool::set_tenant_rate`]). Classic token bucket: each tenant
/// accrues `per_sec` tokens up to `burst`; a submission costs one. An
/// empty bucket rejects with the bucket's own estimate of when the next
/// token lands — the `retryAfterMs` hint clients back off on.
pub(crate) struct RateLimiter {
    enabled: bool,
    per_sec: f64,
    burst: f64,
    buckets: HashMap<String, TokenBucket>,
}

impl RateLimiter {
    pub(crate) fn new() -> RateLimiter {
        RateLimiter { enabled: false, per_sec: 0.0, burst: 0.0, buckets: HashMap::new() }
    }

    /// Reconfigure every tenant's bucket; `per_sec <= 0` disables limiting.
    pub(crate) fn configure(&mut self, per_sec: f64, burst: f64) {
        self.enabled = per_sec > 0.0;
        self.per_sec = per_sec.max(0.0);
        self.burst = burst.max(1.0);
        self.buckets.clear();
    }

    /// Take one token for `owner`, or report how long until one lands.
    pub(crate) fn try_take(&mut self, owner: &str) -> Result<(), u64> {
        if !self.enabled {
            return Ok(());
        }
        let now = Instant::now();
        let bucket =
            self.buckets.entry(owner.to_string()).or_insert(TokenBucket { tokens: self.burst, last: now });
        let elapsed = now.duration_since(bucket.last).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.per_sec).min(self.burst);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            let wait_s = (1.0 - bucket.tokens) / self.per_sec.max(1e-9);
            Err((wait_s * 1000.0).ceil().max(1.0) as u64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queued_req() -> ExecutionRequest {
        ExecutionRequest::simple("u", "", 1)
    }

    #[test]
    fn fair_queue_round_robins_across_tenants() {
        // a floods 4 jobs, b holds 2, c holds 1: pops must interleave
        // a,b,c,a,b,a,a — no tenant drains another's backlog position.
        let mut q = FairQueue::new();
        for id in [1, 2, 3, 4] {
            q.push("a", id, 0, queued_req());
        }
        for id in [10, 11] {
            q.push("b", id, 0, queued_req());
        }
        q.push("c", 20, 0, queued_req());
        let order: Vec<i64> = std::iter::from_fn(|| q.pop().map(|(id, _)| id)).collect();
        assert_eq!(order, vec![1, 10, 20, 2, 11, 3, 4]);
        assert_eq!(q.len(), 0);
        assert_eq!(q.tenants(), 0);
    }

    #[test]
    fn fair_queue_weight_scales_service_share() {
        // Weight 2 for a: the scheduler serves two of a's jobs per visit.
        let mut q = FairQueue::new();
        q.set_weight("a", 2);
        for id in [1, 2, 3, 4] {
            q.push("a", id, 0, queued_req());
        }
        for id in [10, 11] {
            q.push("b", id, 0, queued_req());
        }
        let order: Vec<i64> = std::iter::from_fn(|| q.pop().map(|(id, _)| id)).collect();
        assert_eq!(order, vec![1, 2, 10, 3, 4, 11]);
    }

    #[test]
    fn fair_queue_priority_jumps_own_lane_only() {
        let mut q = FairQueue::new();
        q.push("a", 1, 0, queued_req());
        q.push("a", 2, 5, queued_req()); // jumps a's lane
        q.push("a", 3, 5, queued_req()); // FIFO among equal priority
        q.push("b", 10, 100, queued_req()); // cannot jump a's round-robin turn
        let order: Vec<i64> = std::iter::from_fn(|| q.pop().map(|(id, _)| id)).collect();
        assert_eq!(order, vec![2, 10, 3, 1]);
    }

    #[test]
    fn fair_queue_remove_frees_slot_and_lane() {
        let mut q = FairQueue::new();
        q.push("a", 1, 0, queued_req());
        q.push("b", 2, 0, queued_req());
        q.remove(1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.tenants(), 1);
        let order: Vec<i64> = std::iter::from_fn(|| q.pop().map(|(id, _)| id)).collect();
        assert_eq!(order, vec![2]);
    }
}
