//! Supervised rank recovery: run the distributed protocol under an armed
//! fault plan and survive it.
//!
//! [`SupervisedExecutor`] wraps [`DistributedExecutor`] in an attempt loop.
//! Each attempt runs the whole world under a fresh recovery *epoch* (stale
//! packets from a failed attempt are rejected at the mailbox door — see
//! [`crate::mpi`]) with generation-granular checkpointing threaded into every
//! rank body. When an attempt fails, the supervisor classifies the failure
//! from the fault plan's fired-event log and the structured
//! [`WorldFailure`]:
//!
//! * **Crash-like** (an injected rank crash, a rank-body error, a panic) —
//!   *respawn*: replay the world from the newest checkpoint every rank
//!   holds, verified byte-identical across ranks.
//! * **Transient** (a dropped or indefinitely-held message stalling the
//!   protocol with no rank error) — *retry* with bounded exponential
//!   backoff, also from the latest common checkpoint.
//!
//! Because every fault event fires at most once per armed plan, a replay
//! makes progress past the fault deterministically, and because all model
//! randomness comes from per-generation RNG substreams, the recovered run's
//! final population is byte-identical to a fault-free run — the chaos suite
//! in `egd-tests` asserts exactly that.

use crate::executor::{
    assemble_summary, run_rank_from, DistributedExecutor, DistributedRunSummary, FaultContext,
    RankStart,
};
use crate::mpi::{SimWorld, WorldFailure};
use egd_core::config::SimulationConfig;
use egd_core::error::{EgdError, EgdResult};
use egd_core::SimulationState;
use egd_fault::{CheckpointStore, FaultEvent, FiredFault, MemoryStore};
use egd_obs::{SpanKind, SpanTimer};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Backoff before the first retry of a transient failure, in milliseconds.
const BACKOFF_BASE_MS: u64 = 1;
/// Backoff ceiling, in milliseconds: the backoff doubles per retry up to it.
const BACKOFF_CAP_MS: u64 = 50;

/// Configuration of the fault supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Checkpoint every rank's state every `checkpoint_interval` generations
    /// (0 disables checkpointing; recoveries then replay from generation 0).
    pub checkpoint_interval: u64,
    /// Maximum world attempts (first run + recoveries) before giving up.
    pub max_attempts: u32,
    /// Fault-injection domain of the supervised worlds (must equal the armed
    /// plan's seed for faults to reach this run — see
    /// [`SimWorld::fault_domain`]). Irrelevant when nothing is armed.
    pub fault_domain: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            checkpoint_interval: 4,
            max_attempts: 8,
            fault_domain: 0,
        }
    }
}

impl SupervisorConfig {
    /// Sets the checkpoint cadence (0 disables checkpointing).
    pub fn checkpoint_interval(mut self, interval: u64) -> Self {
        self.checkpoint_interval = interval;
        self
    }

    /// Sets the maximum number of world attempts.
    pub fn max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts;
        self
    }

    /// Sets the fault-injection domain (the armed plan's seed).
    pub fn fault_domain(mut self, domain: u64) -> Self {
        self.fault_domain = domain;
        self
    }
}

/// What the supervisor did to keep a run alive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultRecoveryStats {
    /// World attempts, including the successful one.
    pub attempts: u32,
    /// Transient recoveries (retry with backoff).
    pub retries: u64,
    /// Crash recoveries (respawn from checkpoint).
    pub respawns: u64,
    /// Generations re-executed across all recoveries (progress lost to
    /// rollback).
    pub generations_replayed: u64,
    /// Checkpoints the run saved across all ranks and attempts.
    pub checkpoints_saved: u64,
    /// Recoveries that resumed from a checkpoint (rather than generation 0).
    pub checkpoint_resumes: u64,
    /// Faults the armed plan fired during this run (all kinds).
    pub faults_injected: u64,
    /// Injected rank crashes.
    pub crashes_injected: u64,
    /// Injected message drops.
    pub drops_injected: u64,
    /// Injected message delays.
    pub delays_injected: u64,
    /// Injected slow-rank stalls.
    pub slow_ranks_injected: u64,
    /// Stale pre-recovery packets the transport rejected.
    pub stale_rejected: u64,
}

/// Summary of a supervised run: the final (successful) attempt's
/// [`DistributedRunSummary`] plus the recovery account.
#[derive(Debug, Clone)]
pub struct SupervisedRunSummary {
    /// The successful attempt's summary. Traffic and generation rows cover
    /// the final attempt only (earlier attempts' worlds died with their
    /// stats, so nothing pre-crash is double-counted); its metrics carry
    /// every recovery counter under `fault_*` keys as well.
    pub summary: DistributedRunSummary,
    /// What it took to get there.
    pub recovery: FaultRecoveryStats,
}

impl FaultRecoveryStats {
    /// Adds every counter to `snap` under a `fault_*` key.
    fn record_counters(&self, snap: &mut egd_obs::MetricsSnapshot) {
        snap.add_counter("fault_attempts", u64::from(self.attempts));
        snap.add_counter("fault_retries", self.retries);
        snap.add_counter("fault_respawns", self.respawns);
        snap.add_counter("fault_generations_replayed", self.generations_replayed);
        snap.add_counter("fault_checkpoints_saved", self.checkpoints_saved);
        snap.add_counter("fault_checkpoint_resumes", self.checkpoint_resumes);
        snap.add_counter("fault_injected", self.faults_injected);
        snap.add_counter("fault_crashes", self.crashes_injected);
        snap.add_counter("fault_drops", self.drops_injected);
        snap.add_counter("fault_delays", self.delays_injected);
        snap.add_counter("fault_slow_ranks", self.slow_ranks_injected);
        snap.add_counter("fault_stale_rejected", self.stale_rejected);
    }
}

/// The fault-tolerant distributed executor.
pub struct SupervisedExecutor {
    executor: DistributedExecutor,
    supervisor: SupervisorConfig,
    store: Arc<dyn CheckpointStore>,
}

impl std::fmt::Debug for SupervisedExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisedExecutor")
            .field("executor", &self.executor)
            .field("supervisor", &self.supervisor)
            .finish()
    }
}

impl SupervisedExecutor {
    /// Creates a supervised executor with an in-memory checkpoint store.
    pub fn new(
        sim_config: SimulationConfig,
        dist_config: crate::executor::DistributedConfig,
        supervisor: SupervisorConfig,
    ) -> EgdResult<Self> {
        Self::with_store(
            sim_config,
            dist_config,
            supervisor,
            Arc::new(MemoryStore::new()),
        )
    }

    /// Creates a supervised executor over an explicit checkpoint store
    /// (e.g. an [`egd_fault::DirStore`] for on-disk checkpoints).
    pub fn with_store(
        sim_config: SimulationConfig,
        dist_config: crate::executor::DistributedConfig,
        supervisor: SupervisorConfig,
        store: Arc<dyn CheckpointStore>,
    ) -> EgdResult<Self> {
        Ok(SupervisedExecutor {
            executor: DistributedExecutor::new(sim_config, dist_config)?,
            supervisor,
            store,
        })
    }

    /// Runs the simulation, recovering from injected (or genuine) rank
    /// failures until it completes or `max_attempts` is exhausted. With no
    /// fault plan armed this is the plain distributed run plus the
    /// checkpoint cadence.
    pub fn run(&self) -> EgdResult<SupervisedRunSummary> {
        let sim_config = Arc::new(self.executor.sim_config().clone());
        let dist = *self.executor.dist_config();
        let ranks = dist.workers + 1;
        let max_attempts = self.supervisor.max_attempts.max(1);
        let mut stats = FaultRecoveryStats::default();
        let mut resume: Option<SimulationState> = None;
        let mut backoff_ms = BACKOFF_BASE_MS;

        for attempt in 0..max_attempts {
            stats.attempts = attempt + 1;
            let resume_generation = resume.as_ref().map_or(0, |s| s.generation);
            let ctx = Arc::new(FaultContext {
                store: Arc::clone(&self.store),
                interval: self.supervisor.checkpoint_interval,
                progress: AtomicU64::new(resume_generation),
                saved: AtomicU64::new(0),
            });
            let start = RankStart {
                generation: resume_generation,
                changes: resume.as_ref().map_or(0, |s| s.generations_with_change),
                population: resume.as_ref().map(|s| s.population.clone()),
            };
            let world = SimWorld::new(ranks)?
                .workers(dist.pool_threads)
                .epoch(u64::from(attempt))
                .fault_domain(self.supervisor.fault_domain);
            let fired_mark = egd_fault::fired_count(self.supervisor.fault_domain);

            let body_config = Arc::clone(&sim_config);
            let body_ctx = Arc::clone(&ctx);
            let outcome = world.run_detailed(move |comm| {
                let config = Arc::clone(&body_config);
                let ctx = Arc::clone(&body_ctx);
                let start = start.clone();
                async move { run_rank_from(comm, config, dist, start, Some(ctx)).await }
            });
            stats.checkpoints_saved += ctx.saved.load(Ordering::Relaxed);

            match outcome {
                Ok((results, world_stats)) => {
                    let mut summary =
                        assemble_summary(results, world_stats.snapshot(), sim_config.generations)?;
                    let report = egd_fault::injection_report(self.supervisor.fault_domain);
                    stats.faults_injected = report.fired.len() as u64;
                    stats.crashes_injected = report.crashes;
                    stats.drops_injected = report.drops;
                    stats.delays_injected = report.delays;
                    stats.slow_ranks_injected = report.stalls;
                    stats.stale_rejected = report.stale_rejected;
                    stats.record_counters(&mut summary.metrics);
                    return Ok(SupervisedRunSummary {
                        summary,
                        recovery: stats,
                    });
                }
                Err(failure) => {
                    let fired = egd_fault::fired_events(self.supervisor.fault_domain);
                    let fired_since: &[FiredFault] = fired.get(fired_mark..).unwrap_or(&[]);
                    if fired_since.is_empty() {
                        // Nothing was injected during this attempt: the
                        // failure is genuine (a real bug or bad config), and
                        // replaying a deterministic protocol cannot fix it.
                        return Err(failure.error);
                    }
                    if attempt + 1 == max_attempts {
                        return Err(EgdError::Communication {
                            reason: format_supervisor_report(&failure, &fired, max_attempts),
                        });
                    }
                    let crash_like = failure.panicked.is_some()
                        || !failure.failed_ranks.is_empty()
                        || fired_since
                            .iter()
                            .any(|f| matches!(f.fault, FaultEvent::CrashAtGeneration { .. }));
                    if crash_like {
                        stats.respawns += 1;
                    } else {
                        stats.retries += 1;
                        std::thread::sleep(Duration::from_millis(backoff_ms));
                        backoff_ms = (backoff_ms * 2).min(BACKOFF_CAP_MS);
                    }

                    let progressed = ctx.progress.load(Ordering::Relaxed);
                    resume = self.latest_common_checkpoint(ranks, &sim_config)?;
                    let resumed_from = resume.as_ref().map_or(0, |s| s.generation);
                    stats.generations_replayed += progressed.saturating_sub(resumed_from);
                    if resume.is_some() {
                        stats.checkpoint_resumes += 1;
                    }
                    if let Some(span) = SpanTimer::start_on(0, SpanKind::Recovery) {
                        span.finish(resumed_from);
                    }
                }
            }
        }
        unreachable!("the attempt loop returns on success, exhaustion, or genuine error")
    }

    /// The newest generation every rank has a checkpoint for, loaded and
    /// verified: all ranks' bytes must be identical (they snapshot the same
    /// replicated global state) and the state must belong to this run
    /// ([`SimulationState::check_config`]).
    fn latest_common_checkpoint(
        &self,
        ranks: usize,
        config: &SimulationConfig,
    ) -> EgdResult<Option<SimulationState>> {
        let mut common: Option<BTreeSet<u64>> = None;
        for rank in 0..ranks {
            let gens: BTreeSet<u64> = self.store.generations(rank)?.into_iter().collect();
            common = Some(match common {
                None => gens,
                Some(prev) => prev.intersection(&gens).copied().collect(),
            });
            if common.as_ref().is_some_and(BTreeSet::is_empty) {
                return Ok(None);
            }
        }
        let Some(generation) = common.and_then(|c| c.iter().next_back().copied()) else {
            return Ok(None);
        };
        let missing = |rank: usize| EgdError::Communication {
            reason: format!("checkpoint for rank {rank} at generation {generation} disappeared"),
        };
        let reference = self.store.load(0, generation)?.ok_or_else(|| missing(0))?;
        for rank in 1..ranks {
            let bytes = self
                .store
                .load(rank, generation)?
                .ok_or_else(|| missing(rank))?;
            if bytes != reference {
                return Err(EgdError::Communication {
                    reason: format!(
                        "checkpoint at generation {generation} differs between rank 0 and \
                         rank {rank}: cannot resume from an inconsistent snapshot"
                    ),
                });
            }
        }
        let state = SimulationState::from_bytes(&reference)?;
        state.check_config(config)?;
        Ok(Some(state))
    }
}

/// Renders the supervisor's terminal failure report: the last attempt's
/// error, the failed ranks, the blocked ranks *deduplicated by pending
/// operation* and capped like the deadlock report's 16-entry list, and the
/// fault-plan events (by id) that fired over the run.
fn format_supervisor_report(failure: &WorldFailure, fired: &[FiredFault], attempts: u32) -> String {
    const SHOWN: usize = 16;
    use std::fmt::Write;

    let mut out = format!(
        "supervised run failed after {attempts} attempt(s): {}",
        failure.error
    );
    if let Some(rank) = failure.panicked {
        let _ = write!(out, "; rank {rank} panicked");
    }
    if !failure.failed_ranks.is_empty() {
        let shown: Vec<String> = failure
            .failed_ranks
            .iter()
            .take(SHOWN)
            .map(|(rank, error)| format!("{rank}: {error}"))
            .collect();
        let _ = write!(out, "; failed ranks: [{}]", shown.join(", "));
        if failure.failed_ranks.len() > SHOWN {
            let _ = write!(out, " … and {} more", failure.failed_ranks.len() - SHOWN);
        }
    }
    if !failure.blocked.is_empty() {
        // Dedupe: one entry per distinct pending operation, first-seen
        // order, with the count and a few example ranks.
        let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
        for (rank, op) in &failure.blocked {
            let key = op.map_or_else(|| "unknown op".to_string(), |op| op.to_string());
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, ranks)) => ranks.push(*rank),
                None => groups.push((key, vec![*rank])),
            }
        }
        let total_groups = groups.len();
        let shown: Vec<String> = groups
            .into_iter()
            .take(SHOWN)
            .map(|(op, ranks)| {
                let examples: Vec<String> = ranks.iter().take(4).map(usize::to_string).collect();
                let ellipsis = if ranks.len() > 4 { ", …" } else { "" };
                format!(
                    "{} rank(s) in {op} ({}{ellipsis})",
                    ranks.len(),
                    examples.join(", ")
                )
            })
            .collect();
        let _ = write!(out, "; blocked: [{}]", shown.join(", "));
        if total_groups > SHOWN {
            let _ = write!(out, " … and {} more op(s)", total_groups - SHOWN);
        }
    }
    if !fired.is_empty() {
        let shown: Vec<String> = fired
            .iter()
            .take(SHOWN)
            .map(|f| format!("#{} {}", f.event, f.fault))
            .collect();
        let _ = write!(out, "; injected: [{}]", shown.join(", "));
        if fired.len() > SHOWN {
            let _ = write!(out, " … and {} more", fired.len() - SHOWN);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpi::PendingOp;

    fn failure_with(
        blocked: Vec<(usize, Option<PendingOp>)>,
        failed_ranks: Vec<(usize, EgdError)>,
    ) -> WorldFailure {
        WorldFailure {
            error: EgdError::Communication {
                reason: "protocol deadlock".to_string(),
            },
            failed_ranks,
            panicked: None,
            blocked,
        }
    }

    #[test]
    fn supervisor_report_dedupes_and_caps_blocked_ranks() {
        // 40 ranks parked on the same broadcast collapse to one entry; 20
        // distinct recv ops are capped at 16.
        let mut blocked: Vec<(usize, Option<PendingOp>)> = (0..40)
            .map(|rank| (rank, Some(PendingOp::Broadcast { root: 0 })))
            .collect();
        for rank in 40..60 {
            blocked.push((
                rank,
                Some(PendingOp::Recv {
                    from: rank - 1,
                    tag: 9,
                }),
            ));
        }
        let fired = vec![FiredFault {
            event: 3,
            fault: FaultEvent::DropMessage {
                from: 1,
                to: 0,
                nth: 2,
            },
        }];
        let report = format_supervisor_report(&failure_with(blocked, Vec::new()), &fired, 8);
        assert!(
            report.contains("40 rank(s) in broadcast(root=0) (0, 1, 2, 3, …)"),
            "{report}"
        );
        // 21 distinct ops total, capped at 16 shown.
        assert!(report.contains("… and 5 more op(s)"), "{report}");
        // The fired fault appears with its plan event id.
        assert!(report.contains("#3 "), "{report}");
        assert!(report.len() < 2000, "{report}");
    }

    #[test]
    fn supervisor_report_caps_failed_ranks() {
        let failed: Vec<(usize, EgdError)> = (0..20)
            .map(|rank| {
                (
                    rank,
                    EgdError::Communication {
                        reason: format!("rank {rank} crashed"),
                    },
                )
            })
            .collect();
        let report = format_supervisor_report(&failure_with(Vec::new(), failed), &[], 2);
        assert!(report.contains("failed after 2 attempt(s)"), "{report}");
        assert!(report.contains("0: "), "{report}");
        assert!(report.contains("… and 4 more"), "{report}");
    }
}
