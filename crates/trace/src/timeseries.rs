//! Counter time-series sampling.

use crate::counters::CounterSnapshot;
use serde::{Deserialize, Serialize};

/// One sampled row: a counter snapshot at a cycle.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SampleRow {
    /// Simulated cycle of the sample.
    pub cycle: u64,
    /// Counter values at that cycle.
    pub snapshot: CounterSnapshot,
}

/// A sequence of counter snapshots taken every N cycles.
///
/// The driver (e.g. `Soc::tick`) checks [`due`](CounterSeries::due)
/// and calls [`record`](CounterSeries::record); this struct only
/// stores the rows.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSeries {
    every: u64,
    rows: Vec<SampleRow>,
}

impl CounterSeries {
    /// Creates a series sampling every `every` cycles (min 1).
    pub fn new(every: u64) -> Self {
        CounterSeries {
            every: every.max(1),
            rows: Vec::new(),
        }
    }

    /// The sampling period in cycles.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// True when `cycle` falls on the sampling grid.
    #[inline]
    pub fn due(&self, cycle: u64) -> bool {
        cycle.is_multiple_of(self.every)
    }

    /// Appends one sample.
    pub fn record(&mut self, cycle: u64, snapshot: CounterSnapshot) {
        self.rows.push(SampleRow { cycle, snapshot });
    }

    /// All samples in record order.
    pub fn rows(&self) -> &[SampleRow] {
        &self.rows
    }

    /// True when nothing has been sampled.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_marks_the_sampling_grid() {
        let series = CounterSeries::new(100);
        assert!(series.due(0));
        assert!(!series.due(150));
        assert!(series.due(200));
    }

    #[test]
    fn zero_period_clamps_to_one() {
        let series = CounterSeries::new(0);
        assert_eq!(series.every(), 1);
        assert!(series.due(7));
    }
}
