//! Per-round time series with bounded memory.
//!
//! The paper's evaluation objects are *curves over training rounds* — loss,
//! bits/coordinate, vNMSE — not point summaries. A [`TimeSeries`] keeps the
//! most recent `capacity` `(round, value)` points in a ring buffer, so
//! telemetry from an arbitrarily long run (the million-round regime the
//! roadmap aims at) stays bounded while the recent trajectory is always
//! available. Evicted points are counted, never silently lost.

use std::collections::VecDeque;

/// Default ring capacity for registry-created series (per series).
pub const DEFAULT_CAPACITY: usize = 4096;

/// A bounded ring buffer of `(round, value)` samples.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    capacity: usize,
    points: VecDeque<(u64, f64)>,
    evicted: u64,
}

impl Default for TimeSeries {
    fn default() -> TimeSeries {
        TimeSeries::new(DEFAULT_CAPACITY)
    }
}

impl TimeSeries {
    /// A series retaining the last `capacity` points (minimum 1).
    pub fn new(capacity: usize) -> TimeSeries {
        TimeSeries {
            capacity: capacity.max(1),
            points: VecDeque::new(),
            evicted: 0,
        }
    }

    /// Appends a sample, evicting the oldest when full.
    pub fn push(&mut self, round: u64, value: f64) {
        if self.points.len() == self.capacity {
            self.points.pop_front();
            self.evicted += 1;
        }
        self.points.push_back((round, value));
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many points have been evicted since creation.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Retained points, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.points.iter().copied()
    }

    /// The most recent sample.
    pub fn latest(&self) -> Option<(u64, f64)> {
        self.points.back().copied()
    }

    /// Retained points as a contiguous vector, oldest first.
    pub fn to_vec(&self) -> Vec<(u64, f64)> {
        self.points.iter().copied().collect()
    }

    /// Mean of the retained values, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        Some(self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_iterate_in_order() {
        let mut s = TimeSeries::new(8);
        for r in 0..5u64 {
            s.push(r, r as f64 * 2.0);
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.latest(), Some((4, 8.0)));
        let v: Vec<(u64, f64)> = s.iter().collect();
        assert_eq!(v[0], (0, 0.0));
        assert_eq!(v[4], (4, 8.0));
        assert_eq!(s.mean(), Some(4.0));
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let mut s = TimeSeries::new(3);
        for r in 0..10u64 {
            s.push(r, r as f64);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.evicted(), 7);
        assert_eq!(s.to_vec(), vec![(7, 7.0), (8, 8.0), (9, 9.0)]);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut s = TimeSeries::new(0);
        s.push(1, 1.0);
        s.push(2, 2.0);
        assert_eq!(s.capacity(), 1);
        assert_eq!(s.to_vec(), vec![(2, 2.0)]);
        assert_eq!(s.evicted(), 1);
    }

    #[test]
    fn empty_series_statistics() {
        let s = TimeSeries::default();
        assert!(s.is_empty());
        assert_eq!(s.latest(), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.capacity(), DEFAULT_CAPACITY);
    }
}
