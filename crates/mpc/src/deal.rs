//! The engine's one placement rule: how a layout of records or words is dealt to the
//! machines.

/// Deal `total` units (records, or words of whole groups) over the machines in order:
/// every machine's share is `⌈total ÷ machines⌉` units, and the unit at `offset` — or
/// the group whose first unit it is — goes to machine `⌊offset ÷ share⌋`.
///
/// With unit-sized records this is the balanced layout of
/// [`MpcContext::from_vec`](crate::MpcContext::from_vec),
/// [`sort_by_key`](crate::MpcContext::sort_by_key) and
/// [`rebalance`](crate::MpcContext::rebalance): full shares in the front machines,
/// the remainder behind them. With groups placed by their first word, as
/// [`gather_groups`](crate::MpcContext::gather_groups) places them, a machine holds
/// the groups that start in its share: at most `share` words plus the tail of its last
/// group, so no machine holds more than the share and one group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Deal {
    total: usize,
    share: usize,
}

impl Deal {
    /// The deal of `total` units over `machines` machines (at least one).
    pub fn over(total: usize, machines: usize) -> Self {
        let share = total.div_ceil(machines.max(1)).max(1);
        Self { total, share }
    }

    /// The units every machine is dealt, `⌈total ÷ machines⌉` (at least 1); the last
    /// non-empty machine may get fewer.
    pub fn share(self) -> usize {
        self.share
    }

    /// The machine the unit at `offset` (`< total`) goes to.
    pub fn machine(self, offset: usize) -> usize {
        offset / self.share
    }

    /// The number of units `machine` is dealt.
    pub fn count(self, machine: usize) -> usize {
        self.share.min(
            self.total
                .saturating_sub(machine.saturating_mul(self.share)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deals_full_shares_in_front() {
        let deal = Deal::over(10, 4);
        assert_eq!(deal.share(), 3);
        let machines: Vec<usize> = (0..10).map(|i| deal.machine(i)).collect();
        assert_eq!(machines, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
        let counts: Vec<usize> = (0..5).map(|m| deal.count(m)).collect();
        assert_eq!(counts, [3, 3, 3, 1, 0]);
    }

    #[test]
    fn small_totals_deal_one_unit_per_machine() {
        assert_eq!(Deal::over(0, 8).share(), 1);
        assert_eq!(Deal::over(0, 8).count(0), 0);
        let deal = Deal::over(3, 8);
        assert_eq!(
            (0..3).map(|i| deal.machine(i)).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        assert_eq!(Deal::over(5, 0).machine(4), 0, "zero machines count as one");
    }
}
