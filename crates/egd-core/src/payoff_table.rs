//! The generation-persistent payoff table and the shared
//! *sync → fill → reduce* fitness routine every engine runs.
//!
//! The Nature Agent changes at most two SSets per generation, so between two
//! generations almost every cell of the distinct-strategy payoff matrix is a
//! number that did not change. [`PayoffTable`] keeps those numbers: each
//! cacheable strategy (one whose games are a pure function of the two
//! strategies — see [`PayoffTable::generation_fitness`]) owns a stable
//! **slot**, and `cells[row_slot][col_slot]` is the payoff to the row
//! strategy against the column strategy. Per generation the table
//!
//! 0. **diffs** the population against the last generation it computed, and
//!    returns that generation's fitness vector if nothing differs (see "A
//!    generation that changed nothing" below); otherwise it hashes only the
//!    SSets whose strategy differs and moves them in the grouping it kept
//!    from that generation (`KeptGrouping::update`), and
//! 1. **syncs**: carries each surviving group's slot over, and maps the
//!    groups that entered to slots by fingerprint, giving every strategy
//!    new to the table a slot (a free one, or — only when the table is
//!    full — the slot of the strategy that has been extinct the longest);
//! 2. **fills**: lists the games that have to be played — for every newcomer
//!    its column in every filled row, for every requested row that is not
//!    filled yet the whole row, plus the stochastic cells of the requested
//!    rows, which are played afresh every generation — hands the list to the
//!    caller's executor, and stores the cacheable results;
//! 3. **reduces**: sums each requested group's row in first-occurrence group
//!    order, so every `f64` addition is the one the per-generation matrix
//!    rebuild made — four cacheable rows side by side, each with its own
//!    accumulator, so that four chains of additions advance at once.
//!
//! The three steps after the diff are three calls, so that the games can be
//! played where the table is not: `PayoffTable::plan` diffs, syncs and
//! works out the list (an owned plan, with copies of the group
//! representatives that stochastic cells read — the population is the
//! caller's); the players read `PayoffTable::planned` from any thread
//! while the table is only read; `PayoffTable::finish` stores and
//! reduces. [`PayoffTable::generation_fitness`] is the three in one call,
//! for callers that play the list where they plan it.
//!
//! A row is *filled* once a request asked for it; from then on
//! `cells[row][col]` is valid for **every occupied** `col`, which the fill
//! step maintains by playing each newcomer against every filled row, whether
//! or not that row's strategy is still in the population. There are no
//! per-cell validity bits: a strategy that went extinct and re-enters finds
//! its row and its column complete.
//!
//! # Who keeps a row
//!
//! The sequential and shared-memory engines ask for the whole population and
//! so for every row. A rank of the message-passing executor asks for its
//! block of SSets, and that request means: *the rows of the strategies whose
//! keeper SSet lies in the block* ([`StrategyGrouping::keepers`] — the member
//! of the group with the least rendezvous weight). The blocks partition the
//! SSets and every group has one keeper, so each row is kept, and played, by
//! exactly one rank, however many blocks its strategy's SSets are spread
//! over. The members of a group share one reduced total — the sum below
//! reads the group's row and the group counts, nothing of the SSet — so the
//! rank that keeps a row answers for **every** member, inside its block or
//! not, with the very `f64` a whole-population request computes
//! ([`KeptFitness`] names the answered SSets), and answers for no SSet whose
//! row another rank keeps. A singleton group's keeper is its only member: an
//! all-distinct population is split exactly along the blocks. The
//! whole-population request is the same rule with every keeper inside the
//! block; it computes no keeper.
//!
//! # One game, two cells
//!
//! The unit of the fill step is a **game**, not a cell. A game between `a`
//! and `b` yields `(to_a, to_b)`; `to_a` is cell `(a, b)`. When the caller
//! says the mode's kernel is *swap-exact* — `play(a, b)` with its two scores
//! exchanged is bit for bit `play(b, a)` — and cell `(b, a)` has to be played
//! this generation too, the same game fills it with `to_b`, and the pair is
//! played once. The noise-free pure kernel is swap-exact
//! ([`crate::game::IpdGame::play_pure_block`]): both orientations visit the
//! same joint states in the same order (`swap_perspective` is a bijection on
//! views, so the cycle is found at the same round), every round adds the
//! same two payoff-table entries to the two sums, only with the sums'
//! names exchanged, and the cycle closure multiplies the same differences by
//! the same count. The kernel leans on the same argument itself: it walks a
//! game in whichever player's view lets it reuse the other side's
//! perspective mirror, and reports the two sums under their own names. The
//! Markov analyser is not (its state sums run in index
//! order, which the swap permutes), so expected-value cells stay one game
//! each, as does every pair of which only one side is due: a column kept
//! complete for a row outside the request, or a distributed rank's row whose
//! mirror row another rank keeps. Stochastic games draw from a stream
//! keyed by the ordered pair and are never mirrored.
//!
//! # A generation that changed nothing
//!
//! At the paper's rates most generations change no SSet at all, and the
//! others change one or two. Beside the matrix the table therefore retains
//! the last generation it computed (`RetainedGeneration`): its grouping
//! ([`KeptGrouping`]: each SSet's group; each group's representative, count
//! and fingerprint; the map from fingerprint to group; the keepers, once a
//! proper sub-block was asked for), each group's slot (none: uncacheable),
//! the request (block, `swap_exact`), and the answer ([`KeptFitness`]).
//! [`PayoffTable::generation_fitness`] begins by comparing every SSet's
//! strategy with the one in its group's slot (`==` on the strategies — the
//! table's own clone, so no second copy of the genomes is kept). An
//! uncacheable SSet has no slot; its fingerprint is compared with its
//! group's, which is cheap at the memory depths that make strategies
//! stochastic. The SSets that differ are the **moves** of the generation.
//!
//! * **No move, no uncacheable group, and the request is the same.**
//!   Every SSet holds a slot, so no cell is stochastic; every requested row
//!   is filled and no strategy entered, so the generation would plan no game, read the same
//!   cells and add them in the same order — and derive the same keepers. The
//!   retained answer *is* that sum: it is returned verbatim, **the executor
//!   is not called**, no keeper is computed, and the
//!   counters advance as if the generation had been computed (`hits` by the
//!   cacheable cells of the requested rows, `generations_reused` by one;
//!   nothing else moves in such a generation). The sync tick is not
//!   advanced. That leaves the reclaim order as it was: a slot's
//!   `last_seen` matters only relative to the others', no slot's strategy
//!   left or entered the population in a reused generation, and the slots
//!   of the present strategies — all stamped with the retained generation's
//!   tick — are stamped again by the next sync before it looks for a victim.
//! * **Otherwise** only the moves are hashed, and each leaves its group and
//!   joins the group of its new fingerprint ([`crate::grouping`] says how
//!   representatives, keepers and the first-occurrence order are kept). A
//!   group that survives keeps its slot; only a group that entered is asked
//!   whether it is cacheable and looked up by fingerprint. The grouping is the one [`StrategyGrouping::from_fingerprints`]
//!   would build from the population, field for field (the differential
//!   suite checks it every generation), so group order — and with it every
//!   sum — is the rebuild's. The first generation, a population of another
//!   size and a table that has started over move every SSet: the full
//!   rebuild, on the same path. Sync → fill → reduce then run in full. There
//!   is one reduce; a changed generation re-sums every requested row, so
//!   bit-identity with the per-generation rebuild holds by construction.
//!
//! The key is the strategies themselves: the table trusts nothing the
//! caller could get wrong. The predicate `cacheable` and the game
//! behind `execute` are the table's for life, as they are for the cells. An
//! executor error drops the retained generation together with the slots.
//! (`==` implies equal fingerprints: see
//! `crate::strategy::MixedStrategy::fingerprint`.)
//!
//! Memory follows occupancy, not capacity: the cell matrix is allocated when
//! the first cacheable strategy arrives and grows with the number of
//! occupied slots, up to `capacity²` cells. The retained generation adds one
//! word per SSet (its group), six or seven words per group (representative,
//! count, fingerprint, slot, a map entry of two words, and a keeper where
//! keepers are kept), and one `f64` (a proper sub-block: and one index) per
//! answered SSet.

use crate::error::EgdResult;
use crate::grouping::{KeptGrouping, StrategyGrouping};
use crate::population::Population;
use crate::strategy::StrategyKind;
use egd_obs::{MetricsSnapshot, SpanKind, SpanTimer};
use std::collections::HashMap;
use std::ops::Range;

/// What a request answered: the fitness of every SSet whose strategy's row
/// the request kept (see "Who keeps a row" in the module docs). A
/// whole-population request answers every SSet; a proper sub-block answers
/// the members of the groups whose keeper lies in the block — SSets of other
/// blocks among them — and has no number for the rest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KeptFitness {
    /// The answered SSets, ascending, one per value. `None`: every SSet (the
    /// whole-population request lists nothing).
    ssets: Option<Vec<usize>>,
    values: Vec<f64>,
}

impl KeptFitness {
    /// The fitness of SSet `sset`, or `None` where its strategy's row is kept
    /// by another request (or `sset` is out of range).
    pub fn of(&self, sset: usize) -> Option<f64> {
        let at = match &self.ssets {
            Some(ssets) => ssets.binary_search(&sset).ok()?,
            None => sset,
        };
        self.values.get(at).copied()
    }

    /// The answered `(sset, fitness)` pairs, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        let sset = move |at: usize| self.ssets.as_ref().map_or(at, |ssets| ssets[at]);
        self.values
            .iter()
            .enumerate()
            .map(move |(at, &value)| (sset(at), value))
    }

    /// The values alone, in SSet order: a whole-population request's fitness
    /// vector.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }
}

/// One game the current generation has to play (an entry of
/// [`PlannedCells`]).
#[derive(Debug, Clone, Copy)]
pub struct PlannedCell<'a> {
    /// The row strategy of the cell the game is played for (`to_a` is its
    /// payoff).
    pub a: &'a StrategyKind,
    /// The column strategy. When the mirror cell is due too, the table
    /// stores `to_b` there.
    pub b: &'a StrategyKind,
    /// Fingerprints of `a` and `b`.
    pub fingerprints: (u64, u64),
    /// Representative SSet index of `a` — with `b_index` the key of the
    /// game's random stream. A cacheable game draws nothing, so there the
    /// indices only say whose work the game is: a strategy that is in the
    /// table but no longer in the population borrows the other side's index.
    pub a_index: usize,
    /// Representative SSet index of `b`.
    pub b_index: usize,
    /// Whether the result is stored in the table (`false`: a stochastic
    /// cell, replayed every generation).
    pub cacheable: bool,
}

/// A fresh game in slot terms: `to_a` goes to cell `(a, b)` and, when
/// `mirrored`, `to_b` to cell `(b, a)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FreshGame {
    a: usize,
    b: usize,
    mirrored: bool,
}

/// One generation as [`PayoffTable::plan`] worked it out: the list of games
/// to play (see [`PlannedCells`]) and what [`PayoffTable::finish`] stores and
/// sums. It is owned — it borrows neither the population nor the caller — so
/// that the players of a round can read it, beside the table, from other
/// threads.
///
/// The list is computed, not stored: a cold generation of 256 strategies
/// has 32 896 entries, and even a few thousand short-lived entries per
/// generation show in the process's peak memory. The fresh cells are (filled
/// rows × newcomer columns) and (rows filled whole this generation ×
/// occupied columns). A cell of the first part whose newcomer's row is
/// filled now has its mirror in the second part, and so does every
/// off-diagonal cell between two rows filled now; with a swap-exact kernel
/// each such pair is one game. The first part lists the pairs it shares;
/// the second part lists, per row, what is left: the filled rows' columns
/// unless the first part covered them, the columns of the slots no row is
/// kept for here, and its share of the rows filled now.
#[derive(Debug, Clone)]
struct Plan {
    /// Copies of the group representatives' strategies when a stochastic
    /// cell reads them, empty otherwise: the population is the caller's,
    /// and a cacheable strategy's own copy is its slot's.
    reps: Vec<StrategyKind>,
    /// Whether a game's `to_b` may fill the mirror cell.
    swap_exact: bool,
    /// Fresh games, first part: every filled row × every newcomer column —
    /// mirrored where the newcomer's own row is filled now.
    filled_rows: Vec<usize>,
    new_slots: Vec<usize>,
    new_slot_mirrored: Vec<bool>,
    /// Fresh games, second part: one run of games per requested row that is
    /// filled whole this generation. Row `i`'s games end before game
    /// `new_row_ends[i]` of this part (and start where row `i - 1`'s end).
    new_rows: Vec<usize>,
    new_row_ends: Vec<usize>,
    /// Whether row `i` plays the filled rows' columns itself (the first part
    /// did not play them as mirrors).
    plays_filled: Vec<bool>,
    /// The slots whose row is neither filled nor filled now.
    unkept_slots: Vec<usize>,
    /// The requested groups, and the number of stochastic cells before each
    /// one's row (one more entry than rows: the total).
    rows: Vec<usize>,
    row_offsets: Vec<usize>,
    /// The uncacheable groups, ascending: the stochastic columns of a
    /// cacheable row (an uncacheable row is stochastic in every column).
    uncacheable: Vec<usize>,
    block: Range<usize>,
    /// The cacheable cells of the requested rows.
    requested_cells: u64,
    /// The retained generation, updated to this one's grouping and slots
    /// and taken out of the table until the plan is finished: a plan that
    /// is never finished drops it.
    retained: RetainedGeneration,
}

impl Plan {
    fn grouping(&self) -> &StrategyGrouping {
        self.retained.groups.grouping()
    }

    /// Whether the request is a proper sub-block, which keeps only the rows
    /// whose keeper lies in it.
    fn sub_block(&self) -> bool {
        self.block.len() < self.grouping().group_of.len()
    }

    /// Number of games to play.
    fn len(&self) -> usize {
        self.fresh_len() + self.stochastic_len()
    }

    /// Number of stochastic games (the tail of the list).
    fn stochastic_len(&self) -> usize {
        *self
            .row_offsets
            .last()
            .expect("the offsets end in the total")
    }

    /// Number of fresh games (the head of the list).
    fn fresh_len(&self) -> usize {
        self.column_games() + self.new_row_ends.last().copied().unwrap_or(0)
    }

    /// Number of fresh cells the games fill, among `occupied` slots.
    fn fresh_cells(&self, occupied: usize) -> usize {
        self.column_games() + self.new_rows.len() * occupied
    }

    /// Number of games in the first part of the fresh list.
    fn column_games(&self) -> usize {
        self.filled_rows.len() * self.new_slots.len()
    }

    /// Of the rows filled now, how many row `i` plays as the `a` side: for
    /// a swap-exact kernel itself and every other one of the rest,
    /// alternating, so that each row keeps about half of its pairs (the
    /// scheduled executor hands a game to the rank that owns its `a` side —
    /// an upper triangle would give the first ranks all the work).
    fn partners(&self, i: usize) -> usize {
        let n = self.new_rows.len();
        if self.swap_exact {
            i.div_ceil(2) + 1 + (n - 1 - i) / 2
        } else {
            n
        }
    }

    /// Partner `q` of row `i`, ascending: a position in `new_rows`.
    fn partner(&self, i: usize, q: usize) -> usize {
        if !self.swap_exact {
            return q;
        }
        // Below `i` the rows at odd distance, then `i`, then above it the
        // rows at even distance: of every two rows exactly one lists the
        // other.
        let below = i.div_ceil(2);
        if q < below {
            (i + 1) % 2 + 2 * q
        } else {
            i + 2 * (q - below)
        }
    }

    /// Number of games row `i` of the second part plays.
    fn new_row_games(&self, i: usize) -> usize {
        let filled = if self.plays_filled[i] {
            self.filled_rows.len()
        } else {
            0
        };
        filled + self.unkept_slots.len() + self.partners(i)
    }

    /// Game `q` of row `i` of the second part.
    fn new_row_game(&self, i: usize, q: usize) -> FreshGame {
        let a = self.new_rows[i];
        let one_sided = |b| FreshGame {
            a,
            b,
            mirrored: false,
        };
        let mut q = q;
        if self.plays_filled[i] {
            if q < self.filled_rows.len() {
                return one_sided(self.filled_rows[q]);
            }
            q -= self.filled_rows.len();
        }
        if q < self.unkept_slots.len() {
            return one_sided(self.unkept_slots[q]);
        }
        let j = self.partner(i, q - self.unkept_slots.len());
        FreshGame {
            a,
            b: self.new_rows[j],
            mirrored: self.swap_exact && j != i,
        }
    }

    /// Game `k` of the first part.
    fn column_game(&self, k: usize) -> FreshGame {
        let width = self.new_slots.len();
        FreshGame {
            a: self.filled_rows[k / width],
            b: self.new_slots[k % width],
            mirrored: self.new_slot_mirrored[k % width],
        }
    }

    /// The fresh games in list order from fresh game `k` on (a walk: one
    /// search for the starting row, none per game).
    fn fresh_games_from(&self, k: usize) -> impl Iterator<Item = FreshGame> + '_ {
        let columns = self.column_games();
        let k_rows = k.saturating_sub(columns);
        let first = self.new_row_ends.partition_point(|&end| end <= k_rows);
        let skip = k_rows
            - first
                .checked_sub(1)
                .map_or(0, |before| self.new_row_ends[before]);
        let rows = (first..self.new_rows.len()).flat_map(move |i| {
            let from = if i == first { skip } else { 0 };
            (from..self.new_row_games(i)).map(move |q| self.new_row_game(i, q))
        });
        (k.min(columns)..columns)
            .map(|k| self.column_game(k))
            .chain(rows)
    }
}

/// The games of one generation, in the order their payoffs are to be
/// returned: the table's fresh games first, then the stochastic cells of the
/// requested rows in row-major group order — a view of the pending plan and
/// the table's slots (`PayoffTable::planned`).
#[derive(Debug, Clone, Copy)]
pub struct PlannedCells<'a> {
    plan: &'a Plan,
    slots: &'a [Slot],
    tick: u64,
}

impl<'a> PlannedCells<'a> {
    /// The generation's strategy grouping.
    pub(crate) fn grouping(&self) -> &'a StrategyGrouping {
        self.plan.grouping()
    }

    /// Number of games to play.
    pub fn len(&self) -> usize {
        self.plan.len()
    }

    /// Whether there is no game to play.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of stochastic games (the tail of the list).
    pub fn stochastic_len(&self) -> usize {
        self.plan.stochastic_len()
    }

    /// The games in list order (a walk: no search per game).
    pub fn iter(&self) -> impl Iterator<Item = PlannedCell<'a>> + 'a {
        self.iter_from(0)
    }

    /// The games in list order from game `k` on: one search for where the
    /// walk starts, none per game — what lets an executor play any run of
    /// the list, in chunks, without a search per game.
    pub(crate) fn iter_from(&self, k: usize) -> impl Iterator<Item = PlannedCell<'a>> + 'a {
        let cells = *self;
        let plan = self.plan;
        let fresh = plan.fresh_len();
        let k_stochastic = k.saturating_sub(fresh);
        // The last row that starts at or before the game (rows without
        // stochastic cells share their successor's offset).
        let first = plan
            .row_offsets
            .partition_point(|&offset| offset <= k_stochastic)
            - 1;
        let skip = k_stochastic - plan.row_offsets[first];
        let stochastic = plan.rows[first..]
            .iter()
            .enumerate()
            .flat_map(move |(i, &g)| {
                let from = if i == 0 { skip } else { 0 };
                let group_slot = &plan.retained.group_slot;
                let (listed, all) = if group_slot[g] != NO_SLOT {
                    (&plan.uncacheable[from..], 0..0)
                } else {
                    (&[][..], from..group_slot.len())
                };
                listed
                    .iter()
                    .copied()
                    .chain(all)
                    .map(move |h| cells.stochastic_cell(g, h))
            });
        plan.fresh_games_from(k.min(fresh))
            .map(move |game| cells.fresh_cell(game))
            .chain(stochastic)
    }

    fn fresh_cell(&self, game: FreshGame) -> PlannedCell<'a> {
        let (row, col) = (&self.slots[game.a], &self.slots[game.b]);
        // A fresh game always has a side that is in the population (a
        // newcomer or a requested row).
        let in_population = |slot: &Slot| slot.last_seen == self.tick;
        PlannedCell {
            a: &row.strategy,
            b: &col.strategy,
            fingerprints: (row.fingerprint, col.fingerprint),
            a_index: if in_population(row) { row.rep } else { col.rep },
            b_index: if in_population(col) { col.rep } else { row.rep },
            cacheable: true,
        }
    }

    /// The stochastic cell of groups `(g, h)`.
    fn stochastic_cell(&self, g: usize, h: usize) -> PlannedCell<'a> {
        let grouping = self.plan.grouping();
        PlannedCell {
            a: &self.plan.reps[g],
            b: &self.plan.reps[h],
            fingerprints: (grouping.fingerprints[g], grouping.fingerprints[h]),
            a_index: grouping.group_rep[g],
            b_index: grouping.group_rep[h],
            cacheable: false,
        }
    }
}

/// Lifetime counters of a [`PayoffTable`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PayoffTableStats {
    /// Cacheable cells of requested rows served without playing a game.
    pub hits: u64,
    /// Cacheable cells of requested rows that a game of their generation
    /// filled.
    pub misses: u64,
    /// Cacheable cells filled in total: the misses plus the cells that keep
    /// rows of strategies outside the request (extinct, or another rank's)
    /// complete.
    pub cells_played: u64,
    /// Cacheable games played: one per cell, or one per two mirror cells
    /// where the kernel is swap-exact.
    pub games_played: u64,
    /// Slots taken from an extinct strategy because the table was full.
    pub slots_reclaimed: u64,
    /// Generations answered with the retained fitness vector: nothing
    /// planned, the executor not called (their cells are counted in `hits`).
    pub generations_reused: u64,
    /// Slots holding a strategy now (a gauge, not a lifetime count).
    pub slots_occupied: u64,
}

impl PayoffTableStats {
    /// Adds another table's counters (the ranks of one distributed run).
    pub fn merge(&mut self, other: &PayoffTableStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.cells_played += other.cells_played;
        self.games_played += other.games_played;
        self.slots_reclaimed += other.slots_reclaimed;
        self.generations_reused += other.generations_reused;
        self.slots_occupied += other.slots_occupied;
    }

    /// Adds the occupancy, reclaim, games-played and generations-reused
    /// counters to a metrics snapshot (`pair_cache_hits` /
    /// `pair_cache_misses` are the caller's: an evaluator adds its
    /// single-pair memo to the table's).
    pub fn record_counters(&self, snap: &mut MetricsSnapshot) {
        snap.add_counter("payoff_slots_occupied", self.slots_occupied);
        snap.add_counter("payoff_slots_reclaimed", self.slots_reclaimed);
        snap.add_counter("payoff_cells_played", self.cells_played);
        snap.add_counter("payoff_games_played", self.games_played);
        snap.add_counter("payoff_generations_reused", self.generations_reused);
    }
}

#[derive(Debug, Clone)]
struct Slot {
    fingerprint: u64,
    strategy: StrategyKind,
    /// Sync tick at which the strategy was last in the population.
    last_seen: u64,
    /// Its representative SSet index at that tick.
    rep: usize,
    /// Whether `cells[slot][c]` is valid for every occupied `c`.
    row_filled: bool,
}

/// Marks an uncacheable group in the group → slot map
/// ([`RetainedGeneration::group_slot`]).
const NO_SLOT: usize = usize::MAX;

/// Marks a cacheable group whose slot is to be looked up by fingerprint (it
/// entered this generation, or the table started over), until
/// [`PayoffTable::sync`] has done so.
const UNSYNCED: usize = usize::MAX - 1;

/// The last generation the table computed: what the diff step compares the
/// next one with, and what it answers with when nothing differs (see
/// "A generation that changed nothing" in the module docs).
#[derive(Debug, Clone, Default)]
struct RetainedGeneration {
    /// The generation's grouping (and, once a sub-block was asked for, its
    /// keepers), moved by the SSets that changed ([`KeptGrouping::update`]).
    groups: KeptGrouping,
    /// Each group's slot (`NO_SLOT`: uncacheable). The slot's strategy — the
    /// table's own clone ([`Slot::strategy`]) — is what the next
    /// generation's strategy of each member SSet is compared with, so no
    /// second copy of the genomes is kept.
    group_slot: Vec<usize>,
    /// What was asked for: the block and `swap_exact`.
    request: (Range<usize>, bool),
    /// The cacheable cells of the requested rows: the hits the generation
    /// stands for when it is served again.
    cells: u64,
    /// What the request answered.
    fitness: KeptFitness,
}

/// Generation-persistent dense payoff table (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct PayoffTable {
    /// Most slots the table may hold.
    capacity: usize,
    /// Allocated row length: `cells.len() == stride * stride`.
    stride: usize,
    cells: Vec<f64>,
    /// Occupied slots; a slot index is stable until the slot is reclaimed.
    slots: Vec<Slot>,
    slot_of: HashMap<u64, usize>,
    tick: u64,
    stats: PayoffTableStats,
    retained: RetainedGeneration,
    /// The generation planned and not yet finished.
    plan: Option<Plan>,
}

impl PayoffTable {
    /// An empty table of at most `capacity` slots (the engines pass
    /// `num_ssets`: a population can never hold more distinct strategies).
    /// Nothing is allocated until a cacheable strategy arrives.
    pub fn new(capacity: usize) -> Self {
        PayoffTable {
            capacity,
            ..PayoffTable::default()
        }
    }

    /// The lifetime counters and the current occupancy.
    pub fn stats(&self) -> PayoffTableStats {
        PayoffTableStats {
            slots_occupied: self.slots.len() as u64,
            ..self.stats
        }
    }

    /// The grouping of the last generation the table computed — and its
    /// keepers, once a proper sub-block was asked for: what the next
    /// generation's grouping is updated from (empty before the first, and
    /// while a plan is pending).
    pub fn grouping(&self) -> &KeptGrouping {
        &self.retained.groups
    }

    /// Number of valid cells (filled rows × occupied slots).
    pub(crate) fn valid_cells(&self) -> usize {
        self.slots.iter().filter(|s| s.row_filled).count() * self.slots.len()
    }

    /// Drops every slot; the counters stay.
    fn clear(&mut self) {
        self.slots.clear();
        self.slot_of.clear();
    }

    /// Makes room for `needed` occupied slots.
    fn reserve(&mut self, needed: usize) {
        if needed > self.capacity {
            // A population larger than the one the table was sized for:
            // start over at the size it needs.
            self.clear();
            self.capacity = needed;
        }
        if needed <= self.stride {
            return;
        }
        let stride = needed.max(self.stride * 2).min(self.capacity);
        let mut cells = vec![0.0; stride * stride];
        let occupied = self.slots.len();
        for r in 0..occupied {
            cells[r * stride..r * stride + occupied]
                .copy_from_slice(&self.cells[r * self.stride..r * self.stride + occupied]);
        }
        self.cells = cells;
        self.stride = stride;
    }

    /// Brings the group → slot map up to date: stamps the slots of the
    /// cacheable groups that have one, looks up the `UNSYNCED` ones (the
    /// groups that entered this generation, or every cacheable group once
    /// the table grew and started over) by fingerprint, and assigns slots to
    /// the strategies the table does not hold. Returns the slots assigned in
    /// this call.
    fn sync(
        &mut self,
        strategies: &[StrategyKind],
        grouping: &StrategyGrouping,
        group_slot: &mut [usize],
    ) -> Vec<usize> {
        self.tick += 1;
        let tick = self.tick;
        // Grows the capacity first if the population outgrew it (which
        // empties the table, so it has to precede the lookups).
        let needed = group_slot.iter().filter(|&&s| s != NO_SLOT).count();
        if needed > self.capacity {
            for s in group_slot.iter_mut().filter(|s| **s != NO_SLOT) {
                *s = UNSYNCED;
            }
        }
        self.reserve(needed);
        let mut newcomers = Vec::new();
        for (g, &fp) in grouping.fingerprints.iter().enumerate() {
            let s = match group_slot[g] {
                NO_SLOT => continue,
                UNSYNCED => match self.slot_of.get(&fp) {
                    Some(&s) => s,
                    None => {
                        newcomers.push(g);
                        continue;
                    }
                },
                s => s,
            };
            self.slots[s].last_seen = tick;
            self.slots[s].rep = grouping.group_rep[g];
            group_slot[g] = s;
        }
        let free = self.capacity - self.slots.len();
        self.reserve(self.slots.len() + newcomers.len().min(free));
        let mut new_slots = Vec::with_capacity(newcomers.len());
        for g in newcomers {
            let rep = grouping.group_rep[g];
            let slot = Slot {
                fingerprint: grouping.fingerprints[g],
                strategy: strategies[rep].clone(),
                last_seen: tick,
                rep,
                row_filled: false,
            };
            let s = if self.slots.len() < self.capacity {
                self.slots.push(slot);
                self.slots.len() - 1
            } else {
                // Full: take the slot of the longest-extinct strategy. One
                // exists, because the strategies in the population number at
                // most `capacity`.
                let (s, _) = self
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|(_, slot)| slot.last_seen < tick)
                    .min_by_key(|(_, slot)| slot.last_seen)
                    .expect("a full table holds a strategy that left the population");
                self.slot_of.remove(&self.slots[s].fingerprint);
                self.slots[s] = slot;
                self.stats.slots_reclaimed += 1;
                s
            };
            self.slot_of.insert(grouping.fingerprints[g], s);
            group_slot[g] = s;
            new_slots.push(s);
        }
        new_slots
    }

    /// Computes one generation's fitness of the SSets whose strategy's
    /// keeper lies in `block` — every SSet when `block` is the whole
    /// population, which computes no keeper: diff, then sync, fill, reduce
    /// (see the module docs). A generation that differs in nothing from the
    /// last one computed is answered with that one's answer, and `execute`
    /// is not called.
    ///
    /// `cacheable(strategy)` says whether games of that strategy against
    /// another cacheable strategy are a pure function of the pair; only such
    /// strategies get slots. `swap_exact` says whether such a game with its
    /// two scores exchanged is, bit for bit, the game with the players
    /// exchanged, so that one game may fill a cell and its mirror. `execute`
    /// receives the list of games to play ([`PlannedCells`]) and returns
    /// `(to_a, to_b)` of each, in list order (`to_b` is read only where a
    /// cacheable game fills its mirror cell). How it runs them (inline, on a
    /// thread pool, one task per rank) is the only thing the engines differ
    /// in.
    ///
    /// The result is bit-identical to summing a freshly evaluated payoff
    /// matrix: `Σ_h count[h] · pay[g][h]` over the groups in first-occurrence
    /// order, minus the self-pairing: every SSet plays every other SSet.
    ///
    /// This is `PayoffTable::plan`, `execute` on `PayoffTable::planned`
    /// and `PayoffTable::finish` in one call, for callers that play the
    /// list where they plan it.
    pub fn generation_fitness(
        &mut self,
        population: &Population,
        block: Range<usize>,
        cacheable: impl Fn(&StrategyKind) -> bool,
        swap_exact: bool,
        execute: impl FnOnce(&PlannedCells<'_>) -> EgdResult<Vec<(f64, f64)>>,
    ) -> EgdResult<KeptFitness> {
        if let Some(answer) = self.plan(population, block, cacheable, swap_exact) {
            return Ok(answer);
        }
        let values = execute(&self.planned().expect("a generation was just planned"));
        self.finish(values)
    }

    /// The first phase of [`PayoffTable::generation_fitness`]: diff, and
    /// either answer from the retained generation (`Some`: nothing is to be
    /// played) or sync and plan the generation's games (`None`: the list is
    /// [`PayoffTable::planned`] until [`PayoffTable::finish`] is handed its
    /// results). The plan keeps what the games read, so that they can be
    /// played from other threads while the table is only read.
    ///
    /// A plan that was never finished — its players panicked — leaves the
    /// newcomers holding slots whose cells were never stored: the next plan
    /// starts from an empty table rather than serve them.
    pub(crate) fn plan(
        &mut self,
        population: &Population,
        block: Range<usize>,
        is_cacheable: impl Fn(&StrategyKind) -> bool,
        swap_exact: bool,
    ) -> Option<KeptFitness> {
        if self.plan.take().is_some() {
            self.clear();
        }
        let span = SpanTimer::start(SpanKind::Plan);
        let strategies = population.strategies();
        let request = (block.clone(), swap_exact);

        // Diff: an SSet is unchanged when its strategy equals the one in its
        // group's slot — or, uncacheable, when its fingerprint is its
        // group's. Taken out of the table until the plan is finished, so
        // that every error path drops it; a population of another size
        // starts with every SSet in no group, which makes every SSet a move.
        let mut retained = std::mem::take(&mut self.retained);
        if retained.groups.grouping().group_of.len() != strategies.len() {
            retained = RetainedGeneration {
                groups: KeptGrouping::new(strategies.len()),
                ..RetainedGeneration::default()
            };
        }
        let mut moves = Vec::new();
        let mut stochastic = false;
        let grouping = retained.groups.grouping();
        for (sset, (strategy, &g)) in strategies.iter().zip(&grouping.group_of).enumerate() {
            let fingerprint = match retained.group_slot.get(g) {
                Some(&NO_SLOT) => {
                    stochastic = true;
                    let fingerprint = strategy.fingerprint();
                    if fingerprint == grouping.fingerprints[g] {
                        continue;
                    }
                    fingerprint
                }
                Some(&slot)
                    if self
                        .slots
                        .get(slot)
                        .is_some_and(|held| held.strategy == *strategy) =>
                {
                    continue;
                }
                _ => strategy.fingerprint(),
            };
            moves.push((sset, fingerprint));
        }
        if moves.is_empty() && !stochastic && retained.request == request {
            // Every SSet holds a slot (so no cell is stochastic), every
            // requested row is filled and nothing entered: the generation
            // would play no game and sum the same cells in the same order.
            self.stats.hits += retained.cells;
            self.stats.generations_reused += 1;
            let fitness = retained.fitness.clone();
            self.retained = retained;
            return Some(fitness);
        }

        // Regroup: the moves only, then each group's slot carried over from
        // the index it had. A group that entered is asked whether it is
        // cacheable, and looked up by the sync if it is.
        let regrouped = retained.groups.update(&moves);
        if let Some(came_from) = &regrouped.moved {
            let old = &retained.group_slot;
            retained.group_slot = came_from
                .iter()
                .map(|&from| old.get(from).copied().unwrap_or(UNSYNCED))
                .collect();
        }
        let reps = &retained.groups.grouping().group_rep;
        retained.group_slot.resize(reps.len(), UNSYNCED);
        for &g in &regrouped.entered {
            let cacheable = is_cacheable(&strategies[reps[g]]);
            retained.group_slot[g] = if cacheable { UNSYNCED } else { NO_SLOT };
        }
        let num_groups = reps.len();
        let uncacheable: Vec<usize> = (0..num_groups)
            .filter(|&g| retained.group_slot[g] == NO_SLOT)
            .collect();
        let present = (num_groups - uncacheable.len()) as u64;

        // The rows asked for, in group order: of the groups whose keeper
        // lies in the block — every group when the block is the population.
        let rows: Vec<usize> = if block.len() < strategies.len() {
            let keepers = retained.groups.keep_keepers();
            (0..num_groups)
                .filter(|&g| block.contains(&keepers[g]))
                .collect()
        } else {
            (0..num_groups).collect()
        };

        let grouping = retained.groups.grouping();
        let new_slots = self.sync(strategies, grouping, &mut retained.group_slot);
        let group_slot = &retained.group_slot;

        // Fresh cells: the newcomers' columns in every filled row, then the
        // whole row of every requested strategy whose row is not filled yet.
        // A miss is a fresh cell of a requested row and a column that is in
        // the population.
        let mut new_rows = Vec::new();
        let mut row_offsets = Vec::with_capacity(rows.len() + 1);
        let mut stochastic_cells = 0;
        let mut cacheable_rows = 0u64;
        let mut misses = 0u64;
        for &g in &rows {
            row_offsets.push(stochastic_cells);
            if group_slot[g] != NO_SLOT {
                stochastic_cells += uncacheable.len();
                cacheable_rows += 1;
                if !self.slots[group_slot[g]].row_filled {
                    new_rows.push(group_slot[g]);
                    misses += present;
                }
            } else {
                stochastic_cells += num_groups;
            }
        }
        row_offsets.push(stochastic_cells);

        // What the other slots are to the fresh cells (nothing entered and
        // nothing is asked for the first time in most generations: skip it).
        let mut filled_rows = Vec::new();
        let mut unkept_slots = Vec::new();
        let mut new_slot_mirrored = Vec::new();
        let mut plays_filled = Vec::new();
        if !(new_slots.is_empty() && new_rows.is_empty()) {
            let mut slot_requested = vec![false; self.slots.len()];
            for &g in &rows {
                if group_slot[g] != NO_SLOT {
                    slot_requested[group_slot[g]] = true;
                }
            }
            for (s, slot) in self.slots.iter().enumerate() {
                if slot.row_filled {
                    filled_rows.push(s);
                    if slot_requested[s] {
                        misses += new_slots.len() as u64;
                    }
                } else if !slot_requested[s] {
                    unkept_slots.push(s);
                }
            }
            // A newcomer whose own row is filled now has the mirrors of its
            // column among that row's cells: the column's games fill both,
            // and the row skips the filled rows.
            new_slot_mirrored = new_slots
                .iter()
                .map(|&s| swap_exact && slot_requested[s])
                .collect();
            plays_filled = new_rows
                .iter()
                .map(|r| !(swap_exact && new_slots.contains(r)))
                .collect();
        }

        let reps = if stochastic_cells > 0 {
            grouping
                .group_rep
                .iter()
                .map(|&i| strategies[i].clone())
                .collect()
        } else {
            Vec::new()
        };
        let mut plan = Plan {
            reps,
            swap_exact,
            filled_rows,
            new_slots,
            new_slot_mirrored,
            new_rows,
            new_row_ends: Vec::new(),
            plays_filled,
            unkept_slots,
            rows,
            row_offsets,
            uncacheable,
            block,
            requested_cells: cacheable_rows * present,
            retained,
        };
        let mut games = 0;
        for i in 0..plan.new_rows.len() {
            games += plan.new_row_games(i);
            plan.new_row_ends.push(games);
        }
        self.stats.misses += misses;
        self.stats.hits += cacheable_rows * present - misses;
        self.stats.cells_played += plan.fresh_cells(self.slots.len()) as u64;
        self.stats.games_played += plan.fresh_len() as u64;
        self.plan = Some(plan);
        if let Some(span) = span {
            span.finish(moves.len() as u64);
        }
        None
    }

    /// The games of the generation [`PayoffTable::plan`] planned, until it
    /// is finished.
    pub(crate) fn planned(&self) -> Option<PlannedCells<'_>> {
        self.plan.as_ref().map(|plan| PlannedCells {
            plan,
            slots: &self.slots,
            tick: self.tick,
        })
    }

    /// The last phase of [`PayoffTable::generation_fitness`]: stores the
    /// cacheable results of the planned games (`values`, one per game in
    /// list order), reduces, and retains the generation. An `Err` from the
    /// players empties the table — the newcomers' cells were never stored —
    /// and is returned.
    ///
    /// # Panics
    ///
    /// Without a pending plan, or when `values` does not hold one result per
    /// planned game.
    pub(crate) fn finish(&mut self, values: EgdResult<Vec<(f64, f64)>>) -> EgdResult<KeptFitness> {
        let mut plan = self.plan.take().expect("finish follows plan");
        let values = match values {
            Ok(values) => values,
            Err(err) => {
                self.clear();
                return Err(err);
            }
        };
        assert_eq!(
            values.len(),
            plan.len(),
            "the executor returns one result per planned game"
        );
        let stride = self.stride;
        for (game, &(to_a, to_b)) in plan.fresh_games_from(0).zip(&values) {
            self.cells[game.a * stride + game.b] = to_a;
            if game.mirrored {
                self.cells[game.b * stride + game.a] = to_b;
            }
        }
        for &r in &plan.new_rows {
            self.slots[r].row_filled = true;
        }

        // Reduce: one total per requested group, scattered to its SSets —
        // all of them, wherever they sit.
        let span = SpanTimer::start(SpanKind::PayoffSum);
        let group_fitness = self.reduce(&plan, &values[plan.fresh_len()..]);
        if let Some(span) = span {
            span.finish((plan.rows.len() * group_fitness.len()) as u64);
        }
        let group_of = &plan.grouping().group_of;
        let ssets: Option<Vec<usize>> = plan.sub_block().then(|| {
            let keepers = plan
                .retained
                .groups
                .keepers()
                .expect("a sub-block request keeps the keepers");
            // Sized for the common case: an all-distinct population answers
            // exactly its block.
            let mut ssets = Vec::with_capacity(plan.block.len());
            ssets.extend(
                (0..group_of.len()).filter(|&i| plan.block.contains(&keepers[group_of[i]])),
            );
            ssets
        });
        let values = match &ssets {
            None => group_of.iter().map(|&g| group_fitness[g]).collect(),
            Some(ssets) => ssets.iter().map(|&i| group_fitness[group_of[i]]).collect(),
        };
        let fitness = KeptFitness { ssets, values };

        let mut retained = std::mem::take(&mut plan.retained);
        retained.request = (plan.block, plan.swap_exact);
        retained.cells = plan.requested_cells;
        retained.fitness.ssets.clone_from(&fitness.ssets);
        retained.fitness.values.clone_from(&fitness.values);
        self.retained = retained;
        Ok(fitness)
    }

    /// The fitness total of every group in the plan's rows (0 for the
    /// others): `Σ_h count[h] · pay[g][h]` in group order, `pay` read from
    /// the table where both groups are cacheable and taken from `stochastic`
    /// (the results of the generation's stochastic games, in list order)
    /// otherwise; minus the self-pairing.
    ///
    /// A steady generation is little but this sum, and one row's sum is a
    /// chain of dependent `f64` additions. So the cacheable rows are summed
    /// four at a time ([`PayoffTable::sum_cacheable_rows`]): four chains
    /// advance per column and share its count and slot (`NO_SLOT`: a
    /// stochastic column), while each row still adds its own cells in group
    /// order. The last
    /// fewer-than-four cacheable rows take the same loop one at a time.
    /// Kept out of line: inlined into [`PayoffTable::finish`] it runs out of
    /// registers and reloads a slice pointer from the stack on every cell.
    #[inline(never)]
    fn reduce(&self, plan: &Plan, stochastic: &[(f64, f64)]) -> Vec<f64> {
        let counts = &plan.grouping().group_count;
        let group_slot = &plan.retained.group_slot;
        let mut group_fitness = vec![0.0f64; counts.len()];
        // Positions in `plan.rows` of the cacheable rows.
        let mut cacheable_rows = Vec::with_capacity(plan.rows.len());
        for (i, &g) in plan.rows.iter().enumerate() {
            if group_slot[g] != NO_SLOT {
                cacheable_rows.push(i);
                continue;
            }
            let pays = &stochastic[plan.row_offsets[i]..plan.row_offsets[i + 1]];
            let mut total = 0.0;
            for (&count, &(pay, _)) in counts.iter().zip(pays) {
                total += count * pay;
            }
            // Remove the self-pairing counted in the group sums.
            total -= pays[g].0;
            group_fitness[g] = total;
        }
        // Each column's count and slot side by side: one stream to read.
        let columns: Vec<(f64, usize)> = counts
            .iter()
            .copied()
            .zip(group_slot.iter().copied())
            .collect();
        let (quads, rest) = cacheable_rows.as_chunks::<4>();
        for quad in quads {
            self.sum_cacheable_rows(plan, &columns, quad, stochastic, &mut group_fitness);
        }
        for one in rest {
            self.sum_cacheable_rows(plan, &columns, &[*one], stochastic, &mut group_fitness);
        }
        group_fitness
    }

    /// The totals of `L` cacheable rows (positions in `plan.rows`) into
    /// `group_fitness`: one accumulator per row, each adding its own cells in
    /// group order — so each total is the one row-by-row summing makes, bit
    /// for bit. The rows share every column's count and slot; their
    /// stochastic cells are the same columns, each row's at its own offset.
    #[inline(always)]
    fn sum_cacheable_rows<const L: usize>(
        &self,
        plan: &Plan,
        columns: &[(f64, usize)],
        at: &[usize; L],
        stochastic: &[(f64, f64)],
        group_fitness: &mut [f64],
    ) {
        let group_slot = &plan.retained.group_slot;
        let groups = at.map(|i| plan.rows[i]);
        let rows = groups.map(|g| &self.cells[group_slot[g] * self.stride..][..self.stride]);
        let pays = at.map(|i| &stochastic[plan.row_offsets[i]..plan.row_offsets[i + 1]]);
        let mut totals = [0.0f64; L];
        let mut next_stochastic = 0;
        for &(count, slot) in columns {
            if slot != NO_SLOT {
                for (total, row) in totals.iter_mut().zip(&rows) {
                    *total += count * row[slot];
                }
            } else {
                for (total, pays) in totals.iter_mut().zip(&pays) {
                    *total += count * pays[next_stochastic].0;
                }
                next_stochastic += 1;
            }
        }
        for ((&g, row), total) in groups.iter().zip(&rows).zip(totals) {
            // Remove the self-pairing counted in the group sums.
            group_fitness[g] = total - row[group_slot[g]];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::MemoryDepth;
    use crate::strategy::{MixedStrategy, PureStrategy, StrategySpace};
    use std::collections::HashSet;

    fn pure(bits: &str) -> StrategyKind {
        StrategyKind::Pure(PureStrategy::from_bitstring(MemoryDepth::ONE, bits).unwrap())
    }

    fn population(strategies: Vec<StrategyKind>) -> Population {
        Population::from_strategies(StrategySpace::mixed(MemoryDepth::ONE), strategies).unwrap()
    }

    /// A made-up payoff to the first of a pair of fingerprints, which
    /// depends on the ordered pair only — so `(pay(a, b), pay(b, a))` is a
    /// swap-exact game.
    fn pay((a, b): (u64, u64)) -> f64 {
        (a % 97) as f64 * 0.37 + (b % 89) as f64 * 1.3
    }

    /// Runs one generation with `pay` as the game, returning the answer and
    /// the fingerprint pairs of the games played.
    fn generation(
        table: &mut PayoffTable,
        population: &Population,
        block: Range<usize>,
        swap_exact: bool,
    ) -> (KeptFitness, Vec<(u64, u64)>) {
        let mut played = Vec::new();
        let fitness = table
            .generation_fitness(
                population,
                block,
                |s| matches!(s, StrategyKind::Pure(_)),
                swap_exact,
                |games| {
                    played = games.iter().map(|c| c.fingerprints).collect();
                    // A walk started at game `k` is the list from `k` on.
                    let key =
                        |c: PlannedCell<'_>| (c.fingerprints, c.a_index, c.b_index, c.cacheable);
                    let walk: Vec<_> = games.iter().map(key).collect();
                    assert_eq!(walk.len(), games.len());
                    for k in 0..=games.len() {
                        let from_k: Vec<_> = games.iter_from(k).map(key).collect();
                        assert_eq!(from_k, walk[k..], "walk from game {k}");
                    }
                    Ok(played
                        .iter()
                        .map(|&(a, b)| (pay((a, b)), pay((b, a))))
                        .collect())
                },
            )
            .unwrap();
        (fitness, played)
    }

    #[test]
    fn reduction_matches_per_sset_reference() {
        // The totals of one SSet at a time, summed cell by cell in group
        // order: what the table must reproduce bit for bit.
        let reference = |strategies: &[StrategyKind]| -> Vec<u64> {
            let grouping = StrategyGrouping::of(strategies);
            let fp = &grouping.fingerprints;
            let row_total = |g: usize| {
                let mut total = 0.0;
                for h in 0..grouping.num_groups() {
                    total += grouping.group_count[h] * pay((fp[g], fp[h]));
                }
                total -= pay((fp[g], fp[g]));
                total.to_bits()
            };
            grouping.group_of.iter().map(|&g| row_total(g)).collect()
        };
        let bits = |fitness: KeptFitness| -> Vec<u64> {
            fitness.into_values().iter().map(|v| v.to_bits()).collect()
        };

        // Pure (kept) and mixed (replayed) strategies side by side, with
        // duplicates; with and without mirroring;
        // twice, so the second pass is served from the table.
        let mixed = StrategyKind::Mixed(MixedStrategy::uniform(MemoryDepth::ONE, 0.5).unwrap());
        let strategies = vec![
            pure("0110"),
            pure("1111"),
            mixed.clone(),
            pure("0110"),
            pure("0000"),
            pure("1111"),
        ];
        for swap_exact in [true, false] {
            let population = population(strategies.clone());
            // 3 × 3 cacheable cells: six games when a game fills its mirror.
            let cold_games = if swap_exact { 6 } else { 9 };
            let mut table = PayoffTable::new(6);
            for pass in 0..2 {
                let (fitness, played) = generation(&mut table, &population, 0..6, swap_exact);
                // The cacheable games once, 7 stochastic cells every pass.
                assert_eq!(played.len(), if pass == 0 { cold_games + 7 } else { 7 });
                assert_eq!(bits(fitness), reference(&strategies), "pass {pass}");
            }
            let stats = table.stats();
            assert_eq!((stats.misses, stats.hits, stats.cells_played), (9, 9, 9));
            assert_eq!(stats.games_played, cold_games as u64);
            assert_eq!(table.valid_cells(), 9);
        }

        // Eleven cacheable groups — two rows of four summed side by side and
        // three one at a time — with a stochastic column among them, and
        // duplicates: every quad reads its own row, its own stochastic
        // cells and its own self-pairing.
        let mut wide: Vec<StrategyKind> =
            (0..11).map(|k| pure(&format!("{:04b}", k + 2))).collect();
        wide.insert(5, mixed);
        wide.extend([pure("0010"), pure("1000"), pure("0010")]);
        let population = population(wide.clone());
        let mut table = PayoffTable::new(wide.len());
        for pass in 0..2 {
            let (fitness, _) = generation(&mut table, &population, 0..wide.len(), true);
            assert_eq!(bits(fitness), reference(&wide), "pass {pass}");
        }
    }

    #[test]
    fn newcomers_play_rows_and_columns_and_reclaim_the_longest_extinct() {
        for swap_exact in [true, false] {
            let mut table = PayoffTable::new(3);
            let (a, b, c, d, e) = (
                pure("0001"),
                pure("0010"),
                pure("0100"),
                pure("1000"),
                pure("1001"),
            );
            let fp = |s: &StrategyKind| s.fingerprint();

            // Cold: the whole 3 × 3 matrix — every unordered pair once when
            // a game fills its mirror.
            let (_, played) = generation(
                &mut table,
                &population(vec![a.clone(), b.clone(), c.clone()]),
                0..3,
                swap_exact,
            );
            assert_eq!(played.len(), if swap_exact { 6 } else { 9 });
            let unordered: HashSet<_> = played.iter().map(|&(x, y)| (x.min(y), x.max(y))).collect();
            assert_eq!(unordered.len(), 6);

            // `b` goes extinct, nothing enters: nothing is played.
            let (_, played) = generation(
                &mut table,
                &population(vec![a.clone(), a.clone(), c.clone()]),
                0..3,
                swap_exact,
            );
            assert!(played.is_empty());

            // `c` goes extinct too and `d` enters a full table: it takes the
            // slot of `b`, extinct the longest, and plays the filled rows
            // (`a`, and `c`, which is still in the table) and itself. Those
            // games fill its column and its row at once, or its row is
            // played after them.
            let (_, played) = generation(
                &mut table,
                &population(vec![a.clone(), d.clone(), d.clone()]),
                0..3,
                swap_exact,
            );
            assert_eq!(table.stats().slots_reclaimed, 1);
            let mut expected = vec![(fp(&a), fp(&d)), (fp(&c), fp(&d))];
            if !swap_exact {
                expected.extend([(fp(&d), fp(&a)), (fp(&d), fp(&c))]);
            }
            expected.push((fp(&d), fp(&d)));
            assert_eq!(played, expected);
            // Of the five cells filled, the two against `c` are no cell of
            // this generation's 2 × 2 matrix.
            let stats = table.stats();
            assert_eq!(stats.cells_played, 9 + 5);
            assert_eq!(stats.games_played, if swap_exact { 6 + 3 } else { 9 + 5 });
            assert_eq!(stats.misses, 9 + 3);
            assert_eq!(stats.hits, 4 + 1);

            // `c` re-enters: its row and column are complete, nothing is
            // played.
            let (_, played) = generation(
                &mut table,
                &population(vec![a.clone(), c.clone(), d.clone()]),
                0..3,
                swap_exact,
            );
            assert!(played.is_empty());

            // `b` was reclaimed, so it comes back as a newcomer — into the
            // slot of ... nobody: `a`, `c`, `d` are all present and `e`
            // needs one too, so the population outgrows the table, which
            // starts over larger.
            let (_, played) = generation(
                &mut table,
                &population(vec![a, c, d, b, e]),
                0..5,
                swap_exact,
            );
            assert_eq!(played.len(), if swap_exact { 15 } else { 25 });
            assert_eq!(table.stats().slots_occupied, 5);
        }
    }

    #[test]
    fn a_block_plays_only_its_own_rows() {
        let strategies = vec![pure("0001"), pure("0010"), pure("0100"), pure("1000")];
        let answered = |fitness: &KeptFitness| -> Vec<usize> {
            fitness.iter().map(|(sset, _)| sset).collect()
        };
        let mut table = PayoffTable::new(4);
        // All distinct, so every SSet keeps its own row: SSets 1..3 are two
        // rows of four cells. The two rows mirror each other; the columns of
        // the rows this block does not keep have no mirror here.
        let (fitness, played) = generation(&mut table, &population(strategies.clone()), 1..3, true);
        assert_eq!(answered(&fitness), [1, 2]);
        assert_eq!(
            (fitness.of(0), fitness.of(3), fitness.of(4)),
            (None, None, None)
        );
        assert_eq!(played.len(), 7);
        assert_eq!(table.valid_cells(), 8);

        // SSet 2 adopts SSet 0's strategy, and of the two SSet 2 weighs less
        // (a fact of these genomes and the mixer): the block keeps the shared
        // row and answers for both members, the one outside it too. The row
        // is asked for the first time and played whole — its column in the
        // filled rows is already there, so nothing is mirrored; the row of
        // the strategy that left the block stays complete and costs nothing.
        let mut adopted = strategies.clone();
        adopted[2] = adopted[0].clone();
        assert_eq!(crate::grouping::keeper_of(&adopted, 0), 2);
        let (fitness, played) = generation(&mut table, &population(adopted.clone()), 1..3, true);
        assert_eq!(answered(&fitness), [0, 1, 2]);
        assert_eq!(fitness.of(0), fitness.of(2));
        assert_eq!(played.len(), 4, "strategy 0 against every occupant");
        assert_eq!(table.stats().misses, 8 + 3, "one occupant is extinct");
        let stats = table.stats();
        assert_eq!(stats.hits + stats.misses, 8 + 2 * 3);
        assert_eq!((stats.cells_played, stats.games_played), (12, 11));
        // The block that holds SSet 0 keeps nothing and answers nothing.
        let (fitness, played) =
            generation(&mut PayoffTable::new(4), &population(adopted), 0..1, true);
        assert!(answered(&fitness).is_empty() && played.is_empty());

        // SSet 3 adopts SSet 1's strategy, and SSet 3 weighs less: the row is
        // another block's. This block keeps SSet 2's row only and has no
        // number for SSet 1, although SSet 1 sits in it.
        let mut adopted = strategies;
        adopted[3] = adopted[1].clone();
        assert_eq!(crate::grouping::keeper_of(&adopted, 1), 3);
        let (fitness, played) =
            generation(&mut PayoffTable::new(4), &population(adopted), 1..3, true);
        assert_eq!(answered(&fitness), [2]);
        assert_eq!(fitness.of(1), None);
        assert_eq!(played.len(), 3, "one row against three strategies");
    }

    /// The cells a list of fresh games fills, checked to be distinct.
    fn filled_cells(games: &PlannedCells<'_>) -> HashSet<(usize, usize)> {
        let mut cells = HashSet::new();
        for game in games.plan.fresh_games_from(0) {
            assert!(
                cells.insert((game.a, game.b)),
                "{game:?} fills a cell twice"
            );
            if game.mirrored {
                assert!(
                    cells.insert((game.b, game.a)),
                    "{game:?} mirrors a filled cell"
                );
            }
        }
        cells
    }

    #[test]
    fn games_fill_each_fresh_cell_once_and_rows_share_the_pairs() {
        // Thirteen strategies over three generations and two callers — the
        // whole population and a rank-like block — so that every kind of
        // fresh cell occurs: columns of newcomers inside and outside the
        // request, rows asked for late, rows nobody keeps here.
        let all: Vec<StrategyKind> = (0..13).map(|i| pure(&format!("{:04b}", i + 1))).collect();
        let generations = [
            all[..9].to_vec(),
            [&all[2..9], &all[9..12]].concat(),
            [&all[5..12], &all[..3], &all[12..]].concat(),
        ];
        for swap_exact in [true, false] {
            for block in [0..9, 2..6] {
                let mut table = PayoffTable::new(16);
                for strategies in &generations {
                    let population = population(strategies.clone());
                    let block = block.start..block.end.min(strategies.len());
                    let whole = block.len() == strategies.len();
                    table
                        .generation_fitness(
                            &population,
                            block,
                            |_| true,
                            swap_exact,
                            |games| {
                                let (plan, occupied) = (games.plan, games.slots.len());
                                let cells = filled_cells(games);
                                assert_eq!(cells.len(), plan.fresh_cells(occupied));
                                // Every fresh cell: filled row × newcomer,
                                // and row filled now × occupied slot.
                                for &r in &plan.filled_rows {
                                    for &c in &plan.new_slots {
                                        assert!(cells.contains(&(r, c)));
                                    }
                                }
                                for &r in &plan.new_rows {
                                    for c in 0..occupied {
                                        assert!(cells.contains(&(r, c)));
                                    }
                                }
                                let n = plan.new_rows.len();
                                if swap_exact && whole {
                                    // Nothing is played from both sides.
                                    assert_eq!(
                                        plan.fresh_len(),
                                        plan.column_games() + n * (n + 1) / 2
                                    );
                                }
                                if !swap_exact {
                                    assert_eq!(plan.fresh_len(), plan.fresh_cells(occupied));
                                }
                                let played: Vec<_> = games.iter().map(|c| c.fingerprints).collect();
                                assert_eq!(played.len(), plan.fresh_len());
                                let walk: Vec<_> = plan.fresh_games_from(0).collect();
                                for k in 0..=plan.fresh_len() {
                                    let from_k: Vec<_> = plan.fresh_games_from(k).collect();
                                    assert_eq!(from_k, walk[k..], "fresh walk from {k}");
                                }
                                Ok(played
                                    .iter()
                                    .map(|&(a, b)| (pay((a, b)), pay((b, a))))
                                    .collect())
                            },
                        )
                        .unwrap();
                }
            }
        }
    }

    #[test]
    fn a_cold_generation_gives_every_row_half_of_its_pairs() {
        // The scheduled executor hands a game to the rank that owns its `a`
        // side: an upper triangle would give row 0 all 33 games and row 32
        // one.
        let strategies: Vec<StrategyKind> = (0..33)
            .map(|i| {
                StrategyKind::Pure(
                    PureStrategy::from_bitstring(MemoryDepth::TWO, &format!("{:016b}", i * 77 + 1))
                        .unwrap(),
                )
            })
            .collect();
        let population =
            Population::from_strategies(StrategySpace::pure(MemoryDepth::TWO), strategies).unwrap();
        let mut table = PayoffTable::new(33);
        table
            .generation_fitness(
                &population,
                0..33,
                |_| true,
                true,
                |games| {
                    assert_eq!(games.len(), 33 * 34 / 2);
                    let mut per_row = [0usize; 33];
                    for game in games.iter() {
                        per_row[game.a_index] += 1;
                    }
                    assert!(per_row.iter().all(|&n| n == 17), "{per_row:?}");
                    Ok(vec![(0.0, 0.0); games.len()])
                },
            )
            .unwrap();
        assert_eq!(table.stats().cells_played, 33 * 33);
        assert_eq!(table.stats().games_played, 33 * 34 / 2);
    }

    #[test]
    fn a_plan_never_finished_is_forgotten() {
        let (a, b, c) = (pure("0001"), pure("0010"), pure("0100"));
        let mut table = PayoffTable::new(3);
        generation(
            &mut table,
            &population(vec![a.clone(), b.clone(), a.clone()]),
            0..3,
            true,
        );
        // `c` enters, and the generation's players never report back (they
        // panicked): `c` holds a slot whose column no filled row has.
        let entered = population(vec![a, b, c]);
        assert!(table.plan(&entered, 0..3, |_| true, true).is_none());
        assert_eq!(table.planned().map(|cells| cells.len()), Some(3));
        let (fitness, played) = generation(&mut table, &entered, 0..3, true);
        let (fresh, _) = generation(&mut PayoffTable::new(3), &entered, 0..3, true);
        assert_eq!(fitness, fresh);
        assert_eq!(played.len(), 6, "the table started over");
    }

    #[test]
    fn an_executor_error_empties_the_table() {
        let population = population(vec![pure("0001"), pure("0010")]);
        let mut table = PayoffTable::new(2);
        let failed = table.generation_fitness(
            &population,
            0..2,
            |_| true,
            true,
            |_| {
                Err(crate::error::EgdError::Communication {
                    reason: "rank 1 panicked".to_string(),
                })
            },
        );
        assert!(failed.is_err());
        assert_eq!(table.stats().slots_occupied, 0);
        let (_, played) = generation(&mut table, &population, 0..2, true);
        assert_eq!(played.len(), 3, "nothing half-filled survived");
    }
}
