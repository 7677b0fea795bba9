//! Per-window fleet output: accuracy/detection statistics, drift-log
//! entries and uploads, plus the fleet-wide counters they feed.

use crate::device::{DeviceOutput, UploadedSample};
use nazar_data::{Corruption, StreamItem};
use nazar_log::DriftLogEntry;
use nazar_obs::LazyCounter;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Accuracy and volume statistics of one processed window.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WindowStats {
    /// Inference requests processed.
    pub total: usize,
    /// Correct predictions.
    pub correct: usize,
    /// Requests whose input was drifted in the ground truth.
    pub drifted_total: usize,
    /// Correct predictions among drifted inputs.
    pub drifted_correct: usize,
    /// Requests the on-device detector flagged as drift.
    pub flagged: usize,
    /// Flagged requests whose input was *not* drifted in the ground truth
    /// (detector false positives).
    #[serde(default)]
    pub false_positives: usize,
    /// Drifted requests the detector did *not* flag (detector misses).
    #[serde(default)]
    pub misses: usize,
    /// Per-cause `(correct, total)` tallies, keyed by corruption name.
    pub per_cause: BTreeMap<String, (usize, usize)>,
}

impl WindowStats {
    /// Overall accuracy in `[0, 1]`.
    pub fn accuracy(&self) -> f32 {
        ratio(self.correct, self.total)
    }

    /// Accuracy restricted to drifted inputs.
    pub fn drifted_accuracy(&self) -> f32 {
        ratio(self.drifted_correct, self.drifted_total)
    }

    /// Fraction of inputs flagged as drift by the on-device detector.
    pub fn detection_rate(&self) -> f32 {
        ratio(self.flagged, self.total)
    }

    /// Accuracy on one cause, if observed.
    pub fn cause_accuracy(&self, cause: Corruption) -> Option<f32> {
        self.per_cause.get(cause.name()).map(|&(c, t)| ratio(c, t))
    }

    /// Detector precision: of the flagged requests, the fraction that were
    /// actually drifted. `0` when nothing was flagged.
    pub fn precision(&self) -> f32 {
        ratio(self.flagged - self.false_positives, self.flagged)
    }

    /// Detector recall: of the drifted requests, the fraction the detector
    /// flagged. `0` when nothing was drifted.
    pub fn recall(&self) -> f32 {
        ratio(self.drifted_total - self.misses, self.drifted_total)
    }

    /// Merges another window's statistics into this one.
    pub fn merge(&mut self, other: &WindowStats) {
        self.total += other.total;
        self.correct += other.correct;
        self.drifted_total += other.drifted_total;
        self.drifted_correct += other.drifted_correct;
        self.flagged += other.flagged;
        self.false_positives += other.false_positives;
        self.misses += other.misses;
        for (k, &(c, t)) in &other.per_cause {
            let e = self.per_cause.entry(k.clone()).or_insert((0, 0));
            e.0 += c;
            e.1 += t;
        }
    }
}

fn ratio(num: usize, den: usize) -> f32 {
    if den == 0 {
        0.0
    } else {
        num as f32 / den as f32
    }
}

/// The result of replaying one window through the fleet.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowOutput {
    /// Drift-log entries emitted by all devices.
    pub entries: Vec<DriftLogEntry>,
    /// Inputs sampled for upload.
    pub uploads: Vec<UploadedSample>,
    /// Aggregated accuracy statistics.
    pub stats: WindowStats,
}

static INFERENCES: LazyCounter = LazyCounter::new(
    "nazar_device_inferences_total",
    "Inference requests processed by the fleet",
    &[],
);
static CORRECT: LazyCounter = LazyCounter::new(
    "nazar_device_correct_total",
    "Correct predictions across the fleet",
    &[],
);
static DRIFTED: LazyCounter = LazyCounter::new(
    "nazar_device_drifted_total",
    "Requests whose input was drifted in the ground truth",
    &[],
);
static FLAGGED: LazyCounter = LazyCounter::new(
    "nazar_device_flagged_total",
    "Requests the on-device detector flagged as drift",
    &[],
);
static FALSE_POSITIVES: LazyCounter = LazyCounter::new(
    "nazar_device_false_positives_total",
    "Flagged requests that were not drifted (detector false positives)",
    &[],
);
static MISSES: LazyCounter = LazyCounter::new(
    "nazar_device_misses_total",
    "Drifted requests the detector did not flag (detector misses)",
    &[],
);
static UPLOADS: LazyCounter = LazyCounter::new(
    "nazar_device_uploads_total",
    "Inputs sampled for upload to the cloud",
    &[],
);

/// Exports one device's window statistics as fleet-wide counters.
pub(crate) fn record_stats(out: &WindowOutput) {
    if !nazar_obs::enabled() {
        return;
    }
    INFERENCES.add(out.stats.total as u64);
    CORRECT.add(out.stats.correct as u64);
    DRIFTED.add(out.stats.drifted_total as u64);
    FLAGGED.add(out.stats.flagged as u64);
    FALSE_POSITIVES.add(out.stats.false_positives as u64);
    MISSES.add(out.stats.misses as u64);
    UPLOADS.add(out.uploads.len() as u64);
}

/// Folds one processed item into a window output.
pub(crate) fn tally(out: &mut WindowOutput, item: &StreamItem, result: DeviceOutput) {
    out.stats.total += 1;
    if result.correct {
        out.stats.correct += 1;
    }
    if result.entry.drift {
        out.stats.flagged += 1;
        if item.true_cause.is_none() {
            out.stats.false_positives += 1;
        }
    } else if item.true_cause.is_some() {
        out.stats.misses += 1;
    }
    if let Some(cause) = item.true_cause {
        out.stats.drifted_total += 1;
        if result.correct {
            out.stats.drifted_correct += 1;
        }
        let e = out
            .stats
            .per_cause
            .entry(cause.name().to_string())
            .or_insert((0, 0));
        e.1 += 1;
        if result.correct {
            e.0 += 1;
        }
    }
    out.entries.push(result.entry);
    if let Some(sample) = result.sample {
        out.uploads.push(sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_and_recall_follow_confusion_counts() {
        let stats = WindowStats {
            total: 100,
            drifted_total: 40,
            flagged: 50,
            false_positives: 20, // 30 true positives of 50 flagged
            misses: 10,          // 30 caught of 40 drifted
            ..WindowStats::default()
        };
        assert!((stats.precision() - 0.6).abs() < 1e-6);
        assert!((stats.recall() - 0.75).abs() < 1e-6);
        // Degenerate windows divide by zero into 0, not NaN.
        let empty = WindowStats::default();
        assert_eq!(empty.precision(), 0.0);
        assert_eq!(empty.recall(), 0.0);
    }

    #[test]
    fn stats_merge_adds_counts() {
        let mut a = WindowStats {
            total: 10,
            correct: 5,
            ..WindowStats::default()
        };
        a.per_cause.insert("fog".into(), (1, 2));
        let mut b = WindowStats {
            total: 6,
            correct: 3,
            ..WindowStats::default()
        };
        b.per_cause.insert("fog".into(), (2, 3));
        a.merge(&b);
        assert_eq!(a.total, 16);
        assert_eq!(a.per_cause["fog"], (3, 5));
        assert!((a.accuracy() - 0.5).abs() < 1e-6);
    }
}
