//! Seeded, serialisable fault schedules.

use serde::{Deserialize, Serialize};

/// One scheduled fault. Ranks and generations refer to the world the plan is
/// armed against; message ordinals count sends on one `(from, to)` channel in
/// the sender's program order, which is deterministic regardless of pool size
/// or scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// The rank's task fails at the start of the given generation — the
    /// injected analogue of a node crash at a bulk-synchronous boundary.
    CrashAtGeneration {
        /// Rank that crashes.
        rank: usize,
        /// Generation boundary at which it crashes.
        generation: u64,
    },
    /// The `nth` message (0-based) from `from` to `to` is silently dropped.
    /// Dropping a protocol message strands its receiver, which the deadlock
    /// detector converts into a detected stall — a *transient* fault for the
    /// supervisor.
    DropMessage {
        /// Sending rank.
        from: usize,
        /// Receiving rank.
        to: usize,
        /// 0-based ordinal of the message on the `(from, to)` channel.
        nth: u64,
    },
    /// The `nth` message from `from` to `to` is held back until `held_for`
    /// further messages (world-wide) have been delivered, then released.
    /// Per-channel FIFO order is preserved: later messages on the same
    /// channel queue behind the held one instead of overtaking it.
    DelayMessage {
        /// Sending rank.
        from: usize,
        /// Receiving rank.
        to: usize,
        /// 0-based ordinal of the message on the `(from, to)` channel.
        nth: u64,
        /// How many subsequent deliveries the message is held across.
        held_for: u64,
    },
    /// The rank yields `yields` extra times at the start of the generation —
    /// a slow rank that perturbs scheduling without corrupting state.
    SlowRank {
        /// Rank that stalls.
        rank: usize,
        /// Generation at which it stalls.
        generation: u64,
        /// Number of extra cooperative yields.
        yields: u32,
    },
}

impl FaultEvent {
    /// Short machine-readable kind name, used in reports and span payloads.
    pub fn kind_label(&self) -> &'static str {
        match self {
            FaultEvent::CrashAtGeneration { .. } => "crash",
            FaultEvent::DropMessage { .. } => "drop",
            FaultEvent::DelayMessage { .. } => "delay",
            FaultEvent::SlowRank { .. } => "slow",
        }
    }
}

impl std::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultEvent::CrashAtGeneration { rank, generation } => {
                write!(f, "crash(rank={rank}, generation={generation})")
            }
            FaultEvent::DropMessage { from, to, nth } => {
                write!(f, "drop(from={from}, to={to}, nth={nth})")
            }
            FaultEvent::DelayMessage {
                from,
                to,
                nth,
                held_for,
            } => write!(f, "delay(from={from}, to={to}, nth={nth}, held={held_for})"),
            FaultEvent::SlowRank {
                rank,
                generation,
                yields,
            } => write!(
                f,
                "slow(rank={rank}, generation={generation}, yields={yields})"
            ),
        }
    }
}

/// A seeded schedule of faults. Event indices double as stable event ids in
/// reports and on the observability timeline.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed the plan was generated from (0 for hand-written plans). Recorded
    /// so a chaos failure can name the exact plan that produced it.
    pub seed: u64,
    /// The scheduled events; the index of an event is its id.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan with a seed label.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Appends an event, returning `self` for chaining.
    pub fn with(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Generates a random plan inside the survivable envelope of a world of
    /// `ranks` ranks running `generations` generations: every event targets a
    /// live rank and a reachable generation, and fires at most once, so a
    /// checkpointing supervisor always makes progress past it.
    ///
    /// The generator is a self-contained splitmix64 walk over `seed`, so the
    /// same seed always yields the same plan.
    pub fn random(seed: u64, ranks: usize, generations: u64, num_events: usize) -> Self {
        let mut state = seed ^ 0x6A09_E667_F3BC_C908;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut events = Vec::with_capacity(num_events);
        for _ in 0..num_events {
            let rank = (next() as usize) % ranks.max(1);
            let generation = next() % generations.max(1);
            let event = match next() % 4 {
                0 => FaultEvent::CrashAtGeneration { rank, generation },
                1 => FaultEvent::DropMessage {
                    from: rank,
                    to: (next() as usize) % ranks.max(1),
                    // Early ordinals so drops land on traffic that actually
                    // occurs; later ordinals would be silent no-ops.
                    nth: next() % (generations.max(1) * 2),
                },
                2 => FaultEvent::DelayMessage {
                    from: rank,
                    to: (next() as usize) % ranks.max(1),
                    nth: next() % (generations.max(1) * 2),
                    held_for: 1 + next() % 8,
                },
                _ => FaultEvent::SlowRank {
                    rank,
                    generation,
                    yields: 1 + (next() % 16) as u32,
                },
            };
            events.push(event);
        }
        FaultPlan { seed, events }
    }

    /// A bound on the attempts a supervisor needs: one per event that can
    /// fail an attempt (crashes and drops), plus the fault-free final pass.
    pub fn survivable_attempts(&self) -> u32 {
        let disruptive = self
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    FaultEvent::CrashAtGeneration { .. }
                        | FaultEvent::DropMessage { .. }
                        | FaultEvent::DelayMessage { .. }
                )
            })
            .count() as u32;
        disruptive + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plans_are_deterministic_and_in_envelope() {
        let a = FaultPlan::random(42, 8, 10, 12);
        let b = FaultPlan::random(42, 8, 10, 12);
        assert_eq!(a, b);
        assert_eq!(a.events.len(), 12);
        for event in &a.events {
            match *event {
                FaultEvent::CrashAtGeneration { rank, generation }
                | FaultEvent::SlowRank {
                    rank, generation, ..
                } => {
                    assert!(rank < 8);
                    assert!(generation < 10);
                }
                FaultEvent::DropMessage { from, to, .. } => {
                    assert!(from < 8 && to < 8);
                }
                FaultEvent::DelayMessage {
                    from, to, held_for, ..
                } => {
                    assert!(from < 8 && to < 8);
                    assert!(held_for >= 1);
                }
            }
        }
        assert_ne!(FaultPlan::random(43, 8, 10, 12), a);
    }

    #[test]
    fn survivable_attempts_counts_disruptive_events() {
        let plan = FaultPlan::new(0)
            .with(FaultEvent::CrashAtGeneration {
                rank: 1,
                generation: 2,
            })
            .with(FaultEvent::SlowRank {
                rank: 0,
                generation: 1,
                yields: 3,
            })
            .with(FaultEvent::DropMessage {
                from: 0,
                to: 1,
                nth: 0,
            });
        assert_eq!(plan.survivable_attempts(), 3);
    }

    #[test]
    fn plans_round_trip_through_serde() {
        let plan = FaultPlan::random(7, 16, 20, 6);
        let bytes = serde_json::to_vec(&plan).unwrap();
        let back: FaultPlan = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn event_display_names_parameters() {
        let e = FaultEvent::DelayMessage {
            from: 1,
            to: 2,
            nth: 3,
            held_for: 4,
        };
        assert_eq!(e.to_string(), "delay(from=1, to=2, nth=3, held=4)");
        assert_eq!(e.kind_label(), "delay");
    }
}
