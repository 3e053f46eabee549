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
//! 1. **syncs**: maps the population's strategy groups to slots by
//!    fingerprint, giving every strategy that entered the population a slot
//!    (a free one, or — only when the table is full — the slot of the
//!    strategy that has been extinct the longest);
//! 2. **fills**: lists the cells that have to be played — for every newcomer
//!    its column in every filled row, for every requested row that is not
//!    filled yet the whole row, plus the stochastic cells of the requested
//!    rows, which are played afresh every generation — hands the list to the
//!    caller's executor, and stores the cacheable results;
//! 3. **reduces**: sums each requested group's row in first-occurrence group
//!    order, so every `f64` addition is the one the per-generation matrix
//!    rebuild made.
//!
//! A row is *filled* once its strategy's SSets were asked for; from then on
//! `cells[row][col]` is valid for **every occupied** `col`, which the fill
//! step maintains by playing each newcomer against every filled row, whether
//! or not that row's strategy is still in the population. There are no
//! per-cell validity bits: a strategy that went extinct and re-enters finds
//! its row and its column complete. The sequential and shared-memory engines
//! ask for every row; a distributed rank asks for the rows of its own SSet
//! block only and never plays the others.
//!
//! Memory follows occupancy, not capacity: the cell matrix is allocated when
//! the first cacheable strategy arrives and grows with the number of
//! occupied slots, up to `capacity²` cells.

use crate::error::EgdResult;
use crate::grouping::StrategyGrouping;
use crate::population::Population;
use crate::sset::OpponentPolicy;
use crate::strategy::StrategyKind;
use std::collections::HashMap;
use std::ops::Range;

/// One game the current generation has to play (an entry of
/// [`PlannedCells`]).
#[derive(Debug, Clone, Copy)]
pub struct PlannedCell<'a> {
    /// The row strategy (whose payoff the cell holds).
    pub a: &'a StrategyKind,
    /// The column strategy.
    pub b: &'a StrategyKind,
    /// Fingerprints of `a` and `b`.
    pub fingerprints: (u64, u64),
    /// Representative SSet index of `a` — with `b_index` the key of the
    /// game's random stream. A cacheable game draws nothing, so there the
    /// indices only say whose work the cell is: a strategy that is in the
    /// table but no longer in the population borrows the other side's index.
    pub a_index: usize,
    /// Representative SSet index of `b`.
    pub b_index: usize,
    /// Whether the result is stored in the table (`false`: a stochastic
    /// cell, replayed every generation).
    pub cacheable: bool,
}

/// The games of one generation, in the order their payoffs are to be
/// returned: the table's fresh cells first, then the stochastic cells of the
/// requested rows in row-major group order. The list is computed, not
/// stored: a cold generation of 256 strategies has 65 536 entries, and
/// even a few thousand short-lived entries per generation show in the
/// process's peak memory.
#[derive(Debug)]
pub struct PlannedCells<'a> {
    strategies: &'a [StrategyKind],
    grouping: &'a StrategyGrouping,
    slots: &'a [Slot],
    tick: u64,
    /// Fresh cells, first part: every filled row × every newcomer column.
    filled_rows: Vec<usize>,
    new_slots: Vec<usize>,
    /// Fresh cells, second part: every requested row that is filled whole
    /// this generation × every occupied column.
    new_rows: Vec<usize>,
    /// The requested groups, and the number of stochastic cells before each
    /// one's row (one more entry than rows: the total).
    rows: &'a [usize],
    row_offsets: Vec<usize>,
    cacheable: &'a [bool],
    /// The uncacheable groups, ascending: the stochastic columns of a
    /// cacheable row (an uncacheable row is stochastic in every column).
    uncacheable: Vec<usize>,
}

impl<'a> PlannedCells<'a> {
    /// The generation's strategy grouping.
    pub fn grouping(&self) -> &'a StrategyGrouping {
        self.grouping
    }

    /// Number of games to play.
    pub fn len(&self) -> usize {
        self.fresh_len() + self.stochastic_len()
    }

    /// Whether there is no game to play.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of stochastic games (the tail of the list).
    pub fn stochastic_len(&self) -> usize {
        *self
            .row_offsets
            .last()
            .expect("the offsets end in the total")
    }

    fn fresh_len(&self) -> usize {
        self.filled_rows.len() * self.new_slots.len() + self.new_rows.len() * self.slots.len()
    }

    /// `(row slot, column slot)` of fresh cell `k`.
    fn fresh_target(&self, k: usize) -> (usize, usize) {
        let columns = self.filled_rows.len() * self.new_slots.len();
        if k < columns {
            let width = self.new_slots.len();
            (self.filled_rows[k / width], self.new_slots[k % width])
        } else {
            let k = k - columns;
            let width = self.slots.len();
            (self.new_rows[k / width], k % width)
        }
    }

    /// Game `k` of the list.
    pub fn get(&self, k: usize) -> PlannedCell<'a> {
        if k < self.fresh_len() {
            return self.fresh_cell(k);
        }
        let k = k - self.fresh_len();
        assert!(k < self.stochastic_len(), "planned cell out of range");
        let row = self.row_offsets.partition_point(|&offset| offset <= k) - 1;
        let g = self.rows[row];
        let column = k - self.row_offsets[row];
        let h = if self.cacheable[g] {
            self.uncacheable[column]
        } else {
            column
        };
        self.stochastic_cell(g, h)
    }

    /// The games in list order (a walk: no search per game, unlike
    /// [`PlannedCells::get`]).
    pub fn iter(&self) -> impl Iterator<Item = PlannedCell<'a>> + '_ {
        let stochastic = self.rows.iter().flat_map(move |&g| {
            let (listed, all) = if self.cacheable[g] {
                (&self.uncacheable[..], 0..0)
            } else {
                (&[][..], 0..self.cacheable.len())
            };
            listed
                .iter()
                .copied()
                .chain(all)
                .map(move |h| self.stochastic_cell(g, h))
        });
        (0..self.fresh_len())
            .map(|k| self.fresh_cell(k))
            .chain(stochastic)
    }

    fn fresh_cell(&self, k: usize) -> PlannedCell<'a> {
        let (r, c) = self.fresh_target(k);
        let (row, col) = (&self.slots[r], &self.slots[c]);
        // A fresh cell always has a side that is in the population (a
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
        let (i, j) = (self.grouping.group_rep[g], self.grouping.group_rep[h]);
        PlannedCell {
            a: &self.strategies[i],
            b: &self.strategies[j],
            fingerprints: (self.grouping.fingerprints[g], self.grouping.fingerprints[h]),
            a_index: i,
            b_index: j,
            cacheable: false,
        }
    }
}

/// Lifetime counters of a [`PayoffTable`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PayoffTableStats {
    /// Cacheable cells of requested rows served without playing a game.
    pub hits: u64,
    /// Cacheable cells of requested rows that played a game.
    pub misses: u64,
    /// Cacheable games played in total: the misses plus the games that keep
    /// rows of strategies outside the request (extinct, or another rank's)
    /// complete.
    pub cells_played: u64,
    /// Slots taken from an extinct strategy because the table was full.
    pub slots_reclaimed: u64,
    /// Slots holding a strategy now (a gauge, not a lifetime count).
    pub slots_occupied: u64,
}

impl PayoffTableStats {
    /// Adds another table's counters (the ranks of one distributed run).
    pub fn merge(&mut self, other: &PayoffTableStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.cells_played += other.cells_played;
        self.slots_reclaimed += other.slots_reclaimed;
        self.slots_occupied += other.slots_occupied;
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

/// Marks an uncacheable group in the per-generation group → slot map.
const NO_SLOT: usize = usize::MAX;

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

    /// Number of valid cells (filled rows × occupied slots).
    pub fn valid_cells(&self) -> usize {
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

    /// Maps every cacheable group to its slot, assigning slots to the
    /// strategies that have none. Returns the group → slot map and the slots
    /// assigned in this call.
    fn sync(
        &mut self,
        strategies: &[StrategyKind],
        grouping: &StrategyGrouping,
        cacheable: &[bool],
    ) -> (Vec<usize>, Vec<usize>) {
        self.tick += 1;
        let tick = self.tick;
        // Grows the capacity first if the population outgrew it (which
        // empties the table, so it has to precede the lookups).
        self.reserve(cacheable.iter().filter(|&&c| c).count());
        let mut group_slot = vec![NO_SLOT; cacheable.len()];
        let mut newcomers = Vec::new();
        for (g, &fp) in grouping.fingerprints.iter().enumerate() {
            if !cacheable[g] {
                continue;
            }
            match self.slot_of.get(&fp) {
                Some(&s) => {
                    self.slots[s].last_seen = tick;
                    self.slots[s].rep = grouping.group_rep[g];
                    group_slot[g] = s;
                }
                None => newcomers.push(g),
            }
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
        (group_slot, new_slots)
    }

    /// Computes the fitness of the SSets in `block` for one generation:
    /// sync, fill, reduce (see the module docs).
    ///
    /// `cacheable(strategy)` says whether games of that strategy against
    /// another cacheable strategy are a pure function of the pair; only such
    /// strategies get slots. `execute` receives the list of games to play
    /// ([`PlannedCells`]) and returns the payoff **to `a`** of each, in list
    /// order. How it runs them (inline, on a thread pool, one task per rank)
    /// is the only thing the engines differ in.
    ///
    /// The result is bit-identical to summing a freshly evaluated payoff
    /// matrix: `Σ_h count[h] · pay[g][h]` over the groups in first-occurrence
    /// order, minus the self-pairing unless the population's opponent policy
    /// includes it.
    pub fn generation_fitness(
        &mut self,
        population: &Population,
        block: Range<usize>,
        cacheable: impl Fn(&StrategyKind) -> bool,
        execute: impl FnOnce(&PlannedCells<'_>) -> EgdResult<Vec<f64>>,
    ) -> EgdResult<Vec<f64>> {
        let strategies = population.strategies();
        let grouping = StrategyGrouping::of(strategies);
        let num_groups = grouping.num_groups();
        let cacheable: Vec<bool> = grouping
            .group_rep
            .iter()
            .map(|&i| cacheable(&strategies[i]))
            .collect();
        let uncacheable: Vec<usize> = (0..num_groups).filter(|&g| !cacheable[g]).collect();
        let present = (num_groups - uncacheable.len()) as u64;

        // The rows asked for: the groups of the block's SSets, once each, in
        // first-occurrence order.
        let mut requested = vec![false; num_groups];
        let mut rows = Vec::new();
        for &g in &grouping.group_of[block.clone()] {
            if !requested[g] {
                requested[g] = true;
                rows.push(g);
            }
        }

        let (group_slot, new_slots) = self.sync(strategies, &grouping, &cacheable);

        // Fresh cells: the newcomers' columns in every filled row, then the
        // whole row of every requested strategy whose row is not filled yet.
        // A miss is a fresh cell of a requested row and a column that is in
        // the population.
        let mut filled_rows = Vec::new();
        let mut misses = 0u64;
        if !new_slots.is_empty() {
            let mut slot_requested = vec![false; self.slots.len()];
            for &g in &rows {
                if cacheable[g] {
                    slot_requested[group_slot[g]] = true;
                }
            }
            for (r, slot) in self.slots.iter().enumerate() {
                if slot.row_filled {
                    filled_rows.push(r);
                    if slot_requested[r] {
                        misses += new_slots.len() as u64;
                    }
                }
            }
        }
        let mut new_rows = Vec::new();
        let mut row_offsets = Vec::with_capacity(rows.len() + 1);
        let mut stochastic_cells = 0;
        let mut cacheable_rows = 0u64;
        for &g in &rows {
            row_offsets.push(stochastic_cells);
            if cacheable[g] {
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

        let planned = PlannedCells {
            strategies,
            grouping: &grouping,
            slots: &self.slots,
            tick: self.tick,
            filled_rows,
            new_slots,
            new_rows,
            rows: &rows,
            row_offsets,
            cacheable: &cacheable,
            uncacheable,
        };
        let fresh = planned.fresh_len();
        self.stats.misses += misses;
        self.stats.hits += cacheable_rows * present - misses;
        self.stats.cells_played += fresh as u64;

        let values = match execute(&planned) {
            Ok(values) => values,
            Err(err) => {
                // The newcomers hold slots whose cells were never stored:
                // forget everything rather than serve them.
                self.clear();
                return Err(err);
            }
        };
        assert_eq!(
            values.len(),
            planned.len(),
            "the executor returns one payoff per planned cell"
        );
        let stride = self.stride;
        for (k, &value) in values[..fresh].iter().enumerate() {
            let (r, c) = planned.fresh_target(k);
            self.cells[r * stride + c] = value;
        }
        let new_rows = planned.new_rows;
        for r in new_rows {
            self.slots[r].row_filled = true;
        }

        // Reduce: one total per requested group, scattered to its SSets.
        let include_self = matches!(
            population.opponent_policy(),
            OpponentPolicy::AllIncludingSelf
        );
        let mut stochastic = values[fresh..].iter();
        let mut group_fitness = vec![0.0f64; num_groups];
        for &g in &rows {
            let row_base = if cacheable[g] {
                group_slot[g] * stride
            } else {
                0
            };
            let mut total = 0.0;
            let mut self_pay = 0.0;
            for h in 0..num_groups {
                let pay = if cacheable[g] && cacheable[h] {
                    self.cells[row_base + group_slot[h]]
                } else {
                    *stochastic
                        .next()
                        .expect("one value per stochastic cell, checked above")
                };
                total += grouping.group_count[h] * pay;
                if h == g {
                    self_pay = pay;
                }
            }
            if !include_self {
                // Remove the self-pairing counted in the group sums.
                total -= self_pay;
            }
            group_fitness[g] = total;
        }
        Ok(grouping.group_of[block]
            .iter()
            .map(|&g| group_fitness[g])
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::MemoryDepth;
    use crate::strategy::{MixedStrategy, PureStrategy, StrategySpace};

    fn pure(bits: &str) -> StrategyKind {
        StrategyKind::Pure(PureStrategy::from_bitstring(MemoryDepth::ONE, bits).unwrap())
    }

    fn population(strategies: Vec<StrategyKind>) -> Population {
        Population::from_strategies(StrategySpace::mixed(MemoryDepth::ONE), 1, strategies).unwrap()
    }

    /// A made-up payoff that depends on the pair only.
    fn pay(cell: &PlannedCell<'_>) -> f64 {
        (cell.fingerprints.0 % 97) as f64 * 0.37 + (cell.fingerprints.1 % 89) as f64 * 1.3
    }

    /// Runs one generation with `pay` as the game, returning the fitness and
    /// the fingerprint pairs of the games played.
    fn generation(
        table: &mut PayoffTable,
        population: &Population,
        block: Range<usize>,
    ) -> (Vec<f64>, Vec<(u64, u64)>) {
        let mut played = Vec::new();
        let fitness = table
            .generation_fitness(
                population,
                block,
                |s| matches!(s, StrategyKind::Pure(_)),
                |cells| {
                    played = cells.iter().map(|c| c.fingerprints).collect();
                    // The walk and the indexed access are the same list.
                    let key =
                        |c: PlannedCell<'_>| (c.fingerprints, c.a_index, c.b_index, c.cacheable);
                    let indexed: Vec<_> = (0..cells.len()).map(|k| key(cells.get(k))).collect();
                    assert_eq!(cells.iter().map(key).collect::<Vec<_>>(), indexed);
                    Ok(cells.iter().map(|c| pay(&c)).collect())
                },
            )
            .unwrap();
        (fitness, played)
    }

    #[test]
    fn reduction_matches_per_sset_reference() {
        // Pure (kept) and mixed (replayed) strategies side by side, with
        // duplicates; both opponent policies; twice, so the second pass is
        // served from the table.
        let mixed = StrategyKind::Mixed(MixedStrategy::uniform(MemoryDepth::ONE, 0.5).unwrap());
        let strategies = vec![
            pure("0110"),
            pure("1111"),
            mixed,
            pure("0110"),
            pure("0000"),
            pure("1111"),
        ];
        for policy in [OpponentPolicy::AllOthers, OpponentPolicy::AllIncludingSelf] {
            let population = population(strategies.clone()).with_opponent_policy(policy);
            let grouping = StrategyGrouping::of(&strategies);
            let num_groups = grouping.num_groups();
            let fp = &grouping.fingerprints;
            let mut table = PayoffTable::new(6);
            for pass in 0..2 {
                let (fitness, played) = generation(&mut table, &population, 0..6);
                // 3 × 3 cacheable cells once, 7 stochastic cells every pass.
                assert_eq!(played.len(), if pass == 0 { 16 } else { 7 });
                for (i, &g) in grouping.group_of.iter().enumerate() {
                    let cell = |h: usize| PlannedCell {
                        a: &strategies[0],
                        b: &strategies[0],
                        fingerprints: (fp[g], fp[h]),
                        a_index: 0,
                        b_index: 0,
                        cacheable: false,
                    };
                    let mut total = 0.0;
                    for h in 0..num_groups {
                        total += grouping.group_count[h] * pay(&cell(h));
                    }
                    if policy == OpponentPolicy::AllOthers {
                        total -= pay(&cell(g));
                    }
                    assert_eq!(
                        total.to_bits(),
                        fitness[i].to_bits(),
                        "pass {pass} sset {i}"
                    );
                }
            }
            let stats = table.stats();
            assert_eq!((stats.misses, stats.hits, stats.cells_played), (9, 9, 9));
            assert_eq!(table.valid_cells(), 9);
        }
    }

    #[test]
    fn newcomers_play_rows_and_columns_and_reclaim_the_longest_extinct() {
        let mut table = PayoffTable::new(3);
        let (a, b, c, d, e) = (
            pure("0001"),
            pure("0010"),
            pure("0100"),
            pure("1000"),
            pure("1001"),
        );
        let fp = |s: &StrategyKind| s.fingerprint();

        // Cold: the whole 3 × 3 matrix, row-major.
        let (_, played) = generation(
            &mut table,
            &population(vec![a.clone(), b.clone(), c.clone()]),
            0..3,
        );
        assert_eq!(played.len(), 9);
        assert_eq!(played[1], (fp(&a), fp(&b)));

        // `b` goes extinct, nothing enters: nothing is played.
        let (_, played) = generation(
            &mut table,
            &population(vec![a.clone(), a.clone(), c.clone()]),
            0..3,
        );
        assert!(played.is_empty());

        // `c` goes extinct too and `d` enters a full table: it takes the slot
        // of `b`, extinct the longest, and plays its column in the filled
        // rows (`a`, and `c`, which is still in the table) and its own row.
        let (_, played) = generation(
            &mut table,
            &population(vec![a.clone(), d.clone(), d.clone()]),
            0..3,
        );
        assert_eq!(table.stats().slots_reclaimed, 1);
        assert_eq!(
            played,
            vec![
                (fp(&a), fp(&d)),
                (fp(&c), fp(&d)),
                (fp(&d), fp(&a)),
                (fp(&d), fp(&d)),
                (fp(&d), fp(&c)),
            ]
        );
        // Of those five games, the two against `c` are no cell of this
        // generation's 2 × 2 matrix.
        let stats = table.stats();
        assert_eq!(stats.cells_played, 9 + 5);
        assert_eq!(stats.misses, 9 + 3);
        assert_eq!(stats.hits, 4 + 1);

        // `c` re-enters: its row and column are complete, nothing is played.
        let (_, played) = generation(
            &mut table,
            &population(vec![a.clone(), c.clone(), d.clone()]),
            0..3,
        );
        assert!(played.is_empty());

        // `b` was reclaimed, so it comes back as a newcomer — into the slot
        // of ... nobody: `a`, `c`, `d` are all present and `e` needs one too,
        // so the population outgrows the table, which starts over larger.
        let (_, played) = generation(&mut table, &population(vec![a, c, d, b, e]), 0..5);
        assert_eq!(played.len(), 25);
        assert_eq!(table.stats().slots_occupied, 5);
    }

    #[test]
    fn a_block_plays_only_its_own_rows() {
        let strategies = vec![pure("0001"), pure("0010"), pure("0100"), pure("1000")];
        let mut table = PayoffTable::new(4);
        // SSets 1..3: two rows of four cells.
        let (fitness, played) = generation(&mut table, &population(strategies.clone()), 1..3);
        assert_eq!(fitness.len(), 2);
        assert_eq!(played.len(), 8);
        assert_eq!(table.valid_cells(), 8);
        // SSet 2 adopts SSet 0's strategy: that row is asked for the first
        // time and played whole; the row of the strategy that left the block
        // stays complete and costs nothing.
        let mut adopted = strategies;
        adopted[2] = adopted[0].clone();
        let (_, played) = generation(&mut table, &population(adopted), 1..3);
        assert_eq!(played.len(), 4, "strategy 0 against every occupant");
        assert_eq!(table.stats().misses, 8 + 3, "one occupant is extinct");
        let stats = table.stats();
        assert_eq!(stats.hits + stats.misses, 8 + 2 * 3);
    }

    #[test]
    fn an_executor_error_empties_the_table() {
        let population = population(vec![pure("0001"), pure("0010")]);
        let mut table = PayoffTable::new(2);
        let failed = table.generation_fitness(
            &population,
            0..2,
            |_| true,
            |_| {
                Err(crate::error::EgdError::Communication {
                    reason: "rank 1 panicked".to_string(),
                })
            },
        );
        assert!(failed.is_err());
        assert_eq!(table.stats().slots_occupied, 0);
        let (_, played) = generation(&mut table, &population, 0..2);
        assert_eq!(played.len(), 4, "nothing half-filled survived");
    }
}
