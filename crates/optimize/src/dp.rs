//! The backward-run dynamic program (Eq. (1) of the paper).
//!
//! The scheme of ref. [2], as summarized in Sec. 2: for jobs `i = n…1` and
//! admissible resource totals `Z_i`, compute
//!
//! ```text
//! f_i(Z_i) = extr { g_i(s̄_i) + f_{i+1}(Z_i − z_i(s̄_i)) },   f_{n+1} ≡ 0
//! ```
//!
//! where `g` is the optimized measure (time or cost) and `z` the
//! constrained one. Time is naturally integral (ticks); money is quantized
//! to a caller-chosen resolution, rounding each alternative's cost *up* so
//! a DP-feasible combination is always truly within budget.
//!
//! This module holds the *from-scratch* drivers, retained as `*_naive`
//! oracles (mirroring `select`'s pattern), plus the row-level primitives
//! shared with [`crate::incremental`]. Because both paths build rows with
//! the same [`compute_row`]/[`extend_row_threads`] code and reconstruct with the
//! same [`reconstruct_choices`], the incremental solvers are byte-identical
//! to the naive ones by construction — the differential harness in
//! `tests/equivalence.rs` checks exactly that.

use ecosched_core::{JobAlternatives, Money, TimeDelta};

use crate::assignment::Assignment;
use crate::error::OptimizeError;

/// One alternative reduced to DP terms: a constrained-resource weight and
/// an objective value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Item {
    pub(crate) weight: i64,
    pub(crate) value: i64,
}

/// Sense of the extremum in Eq. (1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sense {
    Minimize,
    Maximize,
}

impl Sense {
    /// The cell value marking an unreachable capacity: the extremum's
    /// identity (`i64::MAX` for `min`, `i64::MIN` for `max`), so folding a
    /// reachable candidate into an unreachable cell simply takes the
    /// candidate.
    pub(crate) fn unreachable(self) -> i64 {
        match self {
            Sense::Minimize => i64::MAX,
            Sense::Maximize => i64::MIN,
        }
    }
}

/// One row of the Eq. (1) table: column `w` holds `f_i(w)`, or
/// [`Sense::unreachable`] when no combination fits capacity `w`.
pub(crate) type Row = Vec<i64>;

/// The base row `f_{n+1} ≡ 0` over columns `0..=width`.
pub(crate) fn base_row(width: usize) -> Row {
    vec![0; width + 1]
}

/// Extends `row` (row `i` of the table) in place up to column `width`,
/// computing each new column from the *already extended* next row
/// (`f[i+1]`). Starting from an empty `row` this builds the whole row.
///
/// Soundness of extension: `f[i][w]` reads `next` only at columns `≤ w`,
/// and each cell is a pure function of `items` and `next` — so appending
/// columns to an existing row yields exactly the row a from-scratch build
/// at the wider capacity would produce. Callers must extend rows back to
/// front so `next` is always at full width first.
#[cfg(test)]
pub(crate) fn extend_row(items: &[Item], next: &[i64], row: &mut Row, width: usize, sense: Sense) {
    extend_row_threads(items, next, row, width, sense, 1);
}

/// Fills `cells` — columns `first..first + cells.len()` of row `i`, all
/// preset to [`Sense::unreachable`] — with Eq. (1), one item at a time:
/// `cell[w] = extr(cell[w], value + next[w − weight])` over contiguous
/// slices. Each cell ends as the extremum over the same candidates a
/// per-cell scan of the items would fold, and `min`/`max` do not depend
/// on evaluation order, so the values are identical to that scan; the
/// item-major order turns the inner loop into a branch-free slice pass
/// the compiler can vectorize.
fn fill_cells(items: &[Item], next: &[i64], cells: &mut [i64], first: usize, sense: Sense) {
    let end = first + cells.len();
    let unreachable = sense.unreachable();
    for item in items {
        debug_assert!(item.weight >= 0, "DP weights are non-negative");
        let weight = item.weight as usize;
        let lo = first.max(weight);
        if lo >= end {
            continue;
        }
        let dst = &mut cells[lo - first..];
        let src = &next[lo - weight..end - weight];
        // One arm per sense, so each pass inlines its own extremum.
        match sense {
            Sense::Minimize => relax(dst, src, item.value, unreachable, i64::min),
            Sense::Maximize => relax(dst, src, item.value, unreachable, i64::max),
        }
    }
}

/// One item's pass of [`fill_cells`]: folds `src[k] + value` into
/// `dst[k]` wherever `src[k]` is reachable.
#[inline(always)]
fn relax(dst: &mut [i64], src: &[i64], value: i64, unreachable: i64, extr: fn(i64, i64) -> i64) {
    for (cell, &rest) in dst.iter_mut().zip(src) {
        debug_assert!(
            rest == unreachable || rest.checked_add(value).is_some_and(|s| s != unreachable),
            "a reachable DP sum overflowed or collided with the unreachable sentinel"
        );
        let candidate = if rest == unreachable {
            unreachable
        } else {
            rest.wrapping_add(value)
        };
        *cell = extr(*cell, candidate);
    }
}

/// Columns below which [`extend_row_threads`] stays single-threaded: the
/// per-thread spawn/join cost (~10µs) must be amortized over enough pure
/// cell evaluations to win.
const PARALLEL_COLUMN_MIN: usize = 2048;

/// [`extend_row`] with the new columns fanned out over at most `threads`
/// scoped workers, each filling one contiguous chunk of the row in place.
///
/// Every cell is a pure function of `(items, next, w, sense)` — workers
/// share the read-only inputs and write disjoint chunks — so the
/// extended row is byte-identical to the sequential build at any thread
/// count. Small extensions (fewer than [`PARALLEL_COLUMN_MIN`] new
/// columns) skip the fan-out entirely.
pub(crate) fn extend_row_threads(
    items: &[Item],
    next: &[i64],
    row: &mut Row,
    width: usize,
    sense: Sense,
    threads: usize,
) {
    debug_assert!(next.len() > width, "next row must already span the width");
    if width < row.len() {
        return;
    }
    let first = row.len();
    let columns = width + 1 - first;
    row.resize(width + 1, sense.unreachable());
    let new = &mut row[first..];
    if threads <= 1 || columns < PARALLEL_COLUMN_MIN {
        fill_cells(items, next, new, first, sense);
        return;
    }
    let chunk = columns.div_ceil(threads.min(columns));
    std::thread::scope(|scope| {
        let handles: Vec<_> = new
            .chunks_mut(chunk)
            .enumerate()
            .map(|(k, cells)| {
                scope.spawn(move || fill_cells(items, next, cells, first + k * chunk, sense))
            })
            .collect();
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// Builds row `i` of the table (columns `0..=width`) from the next row.
pub(crate) fn compute_row(items: &[Item], next: &[i64], width: usize, sense: Sense) -> Row {
    compute_row_threads(items, next, width, sense, 1)
}

/// [`compute_row`] with column-parallel construction (see
/// [`extend_row_threads`]).
pub(crate) fn compute_row_threads(
    items: &[Item],
    next: &[i64],
    width: usize,
    sense: Sense,
    threads: usize,
) -> Row {
    let mut row = Vec::with_capacity(width + 1);
    extend_row_threads(items, next, &mut row, width, sense, threads);
    row
}

/// Forward reconstruction over a full set of rows (`rows[n]` is the base
/// `f_{n+1} ≡ 0` row): at each job pick the first alternative achieving the
/// table optimum (first hit → deterministic). Returns `None` when
/// `rows[0][cap]` is infeasible.
pub(crate) fn reconstruct_choices(
    items: &[Vec<Item>],
    rows: &[&[i64]],
    cap: usize,
    sense: Sense,
) -> Option<Vec<usize>> {
    let unreachable = sense.unreachable();
    if rows[0][cap] == unreachable {
        return None;
    }
    let n = items.len();
    let mut choices = Vec::with_capacity(n);
    let mut w = cap;
    for i in 0..n {
        let target = rows[i][w];
        debug_assert_ne!(
            target, unreachable,
            "reconstruction follows feasible states"
        );
        let picked = items[i].iter().enumerate().find_map(|(j, item)| {
            let weight = usize::try_from(item.weight).ok().filter(|&wt| wt <= w)?;
            let rest = rows[i + 1][w - weight];
            (rest != unreachable && item.value + rest == target).then_some((j, weight))
        });
        let (j, used) = picked.expect("feasible table states have a witness");
        choices.push(j);
        w -= used;
    }
    Some(choices)
}

/// Solves the backward run over `items` with total weight ≤ `capacity`.
/// Returns the chosen per-job indices, or `None` when infeasible.
fn backward_run(items: &[Vec<Item>], capacity: i64, sense: Sense) -> Option<Vec<usize>> {
    if capacity < 0 {
        return None;
    }
    let n = items.len();
    let cap = capacity as usize;
    let base = base_row(cap);
    // Rows built back to front; `computed` holds them in reverse order.
    let mut computed: Vec<Row> = Vec::with_capacity(n);
    for i in (0..n).rev() {
        let next = computed.last().unwrap_or(&base);
        let row = compute_row(&items[i], next, cap, sense);
        computed.push(row);
    }
    computed.reverse();
    let mut rows: Vec<&[i64]> = computed.iter().map(Vec::as_slice).collect();
    rows.push(&base);
    reconstruct_choices(items, &rows, cap, sense)
}

/// Validates the alternatives table: non-empty, and every job covered.
pub(crate) fn validate(alternatives: &[JobAlternatives]) -> Result<(), OptimizeError> {
    if alternatives.is_empty() {
        return Err(OptimizeError::EmptyBatch);
    }
    for ja in alternatives {
        if ja.is_empty() {
            return Err(OptimizeError::NoAlternatives { job: ja.job() });
        }
    }
    Ok(())
}

/// Rounds `cost` up to `resolution` units.
pub(crate) fn quantize_up(cost: Money, resolution: Money) -> i64 {
    let r = resolution.micro();
    (cost.micro() + r - 1) / r
}

/// Reduces a table to time-axis DP terms: weight = execution time (ticks),
/// value = cost (micro-credits). Used by both cost-extremum solvers.
pub(crate) fn time_axis_items(alternatives: &[JobAlternatives]) -> Vec<Vec<Item>> {
    alternatives
        .iter()
        .map(|ja| {
            ja.iter()
                .map(|alt| Item {
                    weight: alt.time().ticks(),
                    value: alt.cost().micro(),
                })
                .collect()
        })
        .collect()
}

/// Reduces a table to cost-axis DP terms: weight = cost quantized *up* to
/// `resolution` units, value = execution time (ticks). Used by the
/// time-minimization solver.
pub(crate) fn cost_axis_items(
    alternatives: &[JobAlternatives],
    resolution: Money,
) -> Vec<Vec<Item>> {
    alternatives
        .iter()
        .map(|ja| {
            ja.iter()
                .map(|alt| Item {
                    weight: quantize_up(alt.cost(), resolution),
                    value: alt.time().ticks(),
                })
                .collect()
        })
        .collect()
}

/// Checks the `resolution` parameter of the time-minimization task.
pub(crate) fn validate_resolution(resolution: Money) -> Result<(), OptimizeError> {
    if resolution <= Money::ZERO {
        return Err(OptimizeError::InvalidParameter {
            reason: format!("resolution must be positive, got {resolution}"),
        });
    }
    Ok(())
}

/// Checks the `quota` parameter of the cost-extremum tasks.
pub(crate) fn validate_quota(quota: TimeDelta) -> Result<(), OptimizeError> {
    if !quota.is_positive() {
        return Err(OptimizeError::InvalidParameter {
            reason: format!("time quota must be positive, got {quota}"),
        });
    }
    Ok(())
}

/// From-scratch oracle for [`crate::min_time_under_budget`]: minimizes
/// total batch time `T(s̄)` subject to the budget `C(s̄) ≤ B*` (the paper's
/// Sec. 5 *time-minimization* task), rebuilding the full DP table.
///
/// Money is quantized to `resolution`; each alternative's cost rounds up,
/// so the returned assignment always truly satisfies the budget, at the
/// price of possibly missing combinations within `n · resolution` of it.
///
/// # Errors
///
/// * [`OptimizeError::EmptyBatch`] / [`OptimizeError::NoAlternatives`] on a
///   malformed table;
/// * [`OptimizeError::InvalidParameter`] if `resolution` is not positive;
/// * [`OptimizeError::Infeasible`] if no combination fits the budget.
pub fn min_time_under_budget_naive(
    alternatives: &[JobAlternatives],
    budget: Money,
    resolution: Money,
) -> Result<Assignment, OptimizeError> {
    validate(alternatives)?;
    validate_resolution(resolution)?;
    let items = cost_axis_items(alternatives, resolution);
    let capacity = budget.micro() / resolution.micro();
    let choices =
        backward_run(&items, capacity, Sense::Minimize).ok_or(OptimizeError::Infeasible)?;
    Ok(Assignment::from_indices(alternatives, &choices))
}

/// From-scratch oracle for [`crate::min_cost_under_time`]: minimizes total
/// batch cost `C(s̄)` subject to the time quota `T(s̄) ≤ T*` (the paper's
/// Sec. 5 *cost-minimization* task). Exact: time is already integral.
///
/// # Errors
///
/// See [`min_time_under_budget_naive`]; there is no resolution parameter.
pub fn min_cost_under_time_naive(
    alternatives: &[JobAlternatives],
    quota: TimeDelta,
) -> Result<Assignment, OptimizeError> {
    cost_under_time_naive(alternatives, quota, Sense::Minimize)
}

/// From-scratch oracle for [`crate::max_cost_under_time`]: maximizes the
/// total batch cost (the resource owners' income) subject to the time quota
/// — Eq. (3)'s inner optimization, used to derive the VO budget `B*`.
///
/// # Errors
///
/// See [`min_time_under_budget_naive`].
pub fn max_cost_under_time_naive(
    alternatives: &[JobAlternatives],
    quota: TimeDelta,
) -> Result<Assignment, OptimizeError> {
    cost_under_time_naive(alternatives, quota, Sense::Maximize)
}

fn cost_under_time_naive(
    alternatives: &[JobAlternatives],
    quota: TimeDelta,
    sense: Sense,
) -> Result<Assignment, OptimizeError> {
    validate(alternatives)?;
    validate_quota(quota)?;
    let items = time_axis_items(alternatives);
    let choices = backward_run(&items, quota.ticks(), sense).ok_or(OptimizeError::Infeasible)?;
    Ok(Assignment::from_indices(alternatives, &choices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::alts;

    #[test]
    fn min_cost_prefers_cheap_within_quota() {
        // Job 0: (cost 10, time 10) or (cost 2, time 40).
        // Job 1: (cost 8, time 10) or (cost 3, time 30).
        let table = vec![alts(0, &[(10, 10), (2, 40)]), alts(1, &[(8, 10), (3, 30)])];
        // Loose quota: take both cheap ones.
        let a = min_cost_under_time_naive(&table, TimeDelta::new(100)).unwrap();
        assert_eq!(a.total_cost(), Money::from_credits(5));
        // Tight quota 50: cheap+cheap needs 70 → must mix; the cheapest
        // feasible mix is (2,40)+(8,10) = cost 10 at exactly 50 ticks.
        let a = min_cost_under_time_naive(&table, TimeDelta::new(50)).unwrap();
        assert_eq!(a.total_time().ticks(), 50);
        assert_eq!(a.total_cost(), Money::from_credits(2 + 8));
        // Quota 45 rules that out; best becomes (10,10)+(3,30) = 13.
        let a = min_cost_under_time_naive(&table, TimeDelta::new(45)).unwrap();
        assert_eq!(a.total_cost(), Money::from_credits(10 + 3));
    }

    #[test]
    fn min_time_spends_budget_for_speed() {
        let table = vec![alts(0, &[(10, 10), (2, 40)]), alts(1, &[(8, 10), (3, 30)])];
        let res = Money::from_credits(1);
        // Rich budget: both fast.
        let a = min_time_under_budget_naive(&table, Money::from_credits(18), res).unwrap();
        assert_eq!(a.total_time(), TimeDelta::new(20));
        // Budget 13: fast+cheap (10+3) time 40, or cheap+fast (2+8) time 50.
        let a = min_time_under_budget_naive(&table, Money::from_credits(13), res).unwrap();
        assert_eq!(a.total_time(), TimeDelta::new(40));
        assert_eq!(a.total_cost(), Money::from_credits(13));
    }

    #[test]
    fn max_cost_maximizes_owner_income() {
        let table = vec![alts(0, &[(10, 10), (2, 40)]), alts(1, &[(8, 10), (3, 30)])];
        let a = max_cost_under_time_naive(&table, TimeDelta::new(100)).unwrap();
        assert_eq!(a.total_cost(), Money::from_credits(18));
        // Tight quota forces a cheaper mix even when maximizing.
        let a = max_cost_under_time_naive(&table, TimeDelta::new(40)).unwrap();
        assert_eq!(a.total_cost(), Money::from_credits(18));
        let a = max_cost_under_time_naive(&table, TimeDelta::new(25)).unwrap();
        assert_eq!(a.total_time().ticks(), 20);
    }

    #[test]
    fn infeasible_quota_reports_error() {
        let table = vec![alts(0, &[(1, 50)])];
        assert_eq!(
            min_cost_under_time_naive(&table, TimeDelta::new(49)).unwrap_err(),
            OptimizeError::Infeasible
        );
    }

    #[test]
    fn infeasible_budget_reports_error() {
        let table = vec![alts(0, &[(10, 10)])];
        assert_eq!(
            min_time_under_budget_naive(&table, Money::from_credits(9), Money::from_credits(1))
                .unwrap_err(),
            OptimizeError::Infeasible
        );
    }

    #[test]
    fn empty_and_uncovered_tables_rejected() {
        assert_eq!(
            min_cost_under_time_naive(&[], TimeDelta::new(10)).unwrap_err(),
            OptimizeError::EmptyBatch
        );
        let table = vec![alts(0, &[]), alts(1, &[(1, 1)])];
        assert!(matches!(
            min_cost_under_time_naive(&table, TimeDelta::new(10)).unwrap_err(),
            OptimizeError::NoAlternatives { .. }
        ));
    }

    #[test]
    fn invalid_parameters_rejected() {
        let table = vec![alts(0, &[(1, 1)])];
        assert!(matches!(
            min_time_under_budget_naive(&table, Money::from_credits(1), Money::ZERO).unwrap_err(),
            OptimizeError::InvalidParameter { .. }
        ));
        assert!(matches!(
            min_cost_under_time_naive(&table, TimeDelta::ZERO).unwrap_err(),
            OptimizeError::InvalidParameter { .. }
        ));
    }

    #[test]
    fn quantization_never_violates_budget() {
        // Costs 3.4 and 3.4, budget 7, coarse resolution 2 credits:
        // each quantizes up to 2 units (4 credits), capacity 3 units →
        // together 4 units > 3 → infeasible under quantization even though
        // 6.8 ≤ 7. Conservative, never over budget.
        let table = vec![
            alts_micro(0, &[(3_400_000, 10)]),
            alts_micro(1, &[(3_400_000, 10)]),
        ];
        let result =
            min_time_under_budget_naive(&table, Money::from_credits(7), Money::from_credits(2));
        assert_eq!(result.unwrap_err(), OptimizeError::Infeasible);
        // Fine resolution finds it.
        let a =
            min_time_under_budget_naive(&table, Money::from_credits(7), Money::from_micro(100_000))
                .unwrap();
        assert!(a.total_cost() <= Money::from_credits(7));
    }

    #[test]
    fn single_job_single_alternative() {
        let table = vec![alts(0, &[(5, 20)])];
        let a = min_cost_under_time_naive(&table, TimeDelta::new(20)).unwrap();
        assert_eq!(a.choices()[0].alternative, 0);
        assert_eq!(a.total_time(), TimeDelta::new(20));
    }

    fn item(weight: i64, value: i64) -> Item {
        Item { weight, value }
    }

    /// Eq. (1) cell by cell, straight from its definition: the reference
    /// the item-major kernel must reproduce.
    fn cellwise_row(items: &[Item], next: &[i64], width: usize, sense: Sense) -> Row {
        let unreachable = sense.unreachable();
        (0..=width)
            .map(|w| {
                let reachable = items.iter().filter_map(|it| {
                    let rest = next[w.checked_sub(usize::try_from(it.weight).ok()?)?];
                    (rest != unreachable).then(|| rest + it.value)
                });
                match sense {
                    Sense::Minimize => reachable.min(),
                    Sense::Maximize => reachable.max(),
                }
                .unwrap_or(unreachable)
            })
            .collect()
    }

    #[test]
    fn extended_row_matches_from_scratch_build() {
        let items = vec![item(3, 7), item(5, 2)];
        for sense in [Sense::Minimize, Sense::Maximize] {
            let mut grown = compute_row(&items, &base_row(8), 8, sense);
            extend_row(&items, &base_row(20), &mut grown, 20, sense);
            let scratch = compute_row(&items, &base_row(20), 20, sense);
            assert_eq!(grown, scratch);
            assert_eq!(scratch, cellwise_row(&items, &base_row(20), 20, sense));
        }
    }

    #[test]
    fn zero_weight_and_oversized_items() {
        // A weight-0 item reads the next row at the same column; an item
        // heavier than the whole width never contributes.
        let items = vec![item(0, 9), item(4, 1), item(50, -100)];
        for (sense, at_six) in [(Sense::Minimize, 4), (Sense::Maximize, 12)] {
            let next = compute_row(&[item(2, 3)], &base_row(10), 10, sense);
            let row = compute_row(&items, &next, 10, sense);
            assert_eq!(row, cellwise_row(&items, &next, 10, sense));
            assert_eq!(row[0], sense.unreachable(), "next row is unreachable at 0");
            assert_eq!(row[2], 12, "only the weight-0 item fits at column 2");
            assert_eq!(row[6], at_six);
        }
        // Only oversized items: the whole row is unreachable.
        for sense in [Sense::Minimize, Sense::Maximize] {
            let row = compute_row(&[item(11, 1)], &base_row(10), 10, sense);
            assert!(row.iter().all(|&c| c == sense.unreachable()));
        }
    }

    #[test]
    fn unreachable_rows_propagate_and_reconstruct_to_none() {
        for sense in [Sense::Minimize, Sense::Maximize] {
            let unreachable = sense.unreachable();
            let dead: Row = vec![unreachable; 9];
            let row = compute_row(&[item(0, 5), item(3, 1)], &dead, 8, sense);
            assert!(
                row.iter().all(|&c| c == unreachable),
                "an all-unreachable next row stays unreachable ({sense:?})"
            );
            let items = vec![vec![item(9, 1)]];
            let base = base_row(8);
            let rows: Vec<&[i64]> = vec![&dead, &base];
            assert_eq!(reconstruct_choices(&items, &rows, 8, sense), None);
        }
        assert_eq!(
            backward_run(&[vec![item(9, 1)], vec![item(1, 1)]], 8, Sense::Maximize),
            None
        );
    }

    #[test]
    fn column_parallel_rows_match_sequential() {
        // Widths on both sides of PARALLEL_COLUMN_MIN, so both the
        // sequential shortcut and the fan-out run, with weights that
        // leave unreachable columns to exercise chunk boundaries.
        let items = vec![item(3, 7), item(5, 2), item(11, 4), item(0, 1)];
        let sparse = compute_row(
            &[item(7, 0)],
            &base_row(PARALLEL_COLUMN_MIN + 600),
            PARALLEL_COLUMN_MIN + 600,
            Sense::Minimize,
        );
        for width in [
            PARALLEL_COLUMN_MIN - 2,
            PARALLEL_COLUMN_MIN - 1,
            PARALLEL_COLUMN_MIN,
            PARALLEL_COLUMN_MIN + 513,
        ] {
            for sense in [Sense::Minimize, Sense::Maximize] {
                let next: Row = sparse
                    .iter()
                    .map(|&c| {
                        if c == Sense::Minimize.unreachable() {
                            sense.unreachable()
                        } else {
                            c
                        }
                    })
                    .collect();
                let sequential = compute_row(&items, &next, width, sense);
                assert_eq!(sequential, cellwise_row(&items, &next, width, sense));
                for threads in [1, 2, 3, 4, 8] {
                    let parallel = compute_row_threads(&items, &next, width, sense, threads);
                    assert_eq!(parallel, sequential, "width={width} threads={threads}");
                    // Widening an existing prefix in parallel must land on
                    // the same row as a from-scratch build.
                    let mut grown = compute_row(&items, &next, 100, sense);
                    extend_row_threads(&items, &next, &mut grown, width, sense, threads);
                    assert_eq!(grown, sequential, "width={width} threads={threads}");
                }
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "unreachable sentinel")]
    fn reachable_sum_hitting_the_sentinel_is_caught() {
        // 0 + (i64::MAX) is a reachable sum equal to the min sentinel.
        let _ = compute_row(&[item(0, i64::MAX)], &base_row(2), 2, Sense::Minimize);
    }

    /// Like `alts` but with micro-credit cost precision.
    fn alts_micro(job: u32, specs: &[(i64, i64)]) -> ecosched_core::JobAlternatives {
        crate::test_support::alts_with(job, specs, Money::from_micro)
    }
}
