//! Metrics: timelines, memory traces, bubble accounting.
//!
//! Recording is opt-in (off by default) because full timelines of a long
//! decode run are large; the per-resource busy/span counters on
//! [`Simulator`](crate::sim::Simulator) are always maintained.

use std::fmt::Write as _;

use crate::memory::Tier;
use crate::resource::Resource;
use crate::task::TaskMeta;
use crate::time::{SimDuration, SimTime};

/// One serviced task on one resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineEntry {
    /// Resource that serviced the task.
    pub resource: Resource,
    /// Semantic label.
    pub meta: TaskMeta,
    /// Service start.
    pub start: SimTime,
    /// Service end.
    pub end: SimTime,
}

impl TimelineEntry {
    /// Service duration.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// One sample of a memory pool's live bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemorySample {
    /// Sample time.
    pub time: SimTime,
    /// Sampled pool.
    pub tier: Tier,
    /// Live bytes after the change that triggered the sample.
    pub in_use: u64,
}

/// Collected metrics for one simulation.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    record_timeline: bool,
    record_memory: bool,
    timeline: Vec<TimelineEntry>,
    memory: Vec<MemorySample>,
}

impl Metrics {
    /// Creates an empty metrics collector with recording disabled.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Enables or disables timeline recording.
    pub fn set_record_timeline(&mut self, on: bool) {
        self.record_timeline = on;
    }

    /// Enables or disables memory-trace recording.
    pub fn set_record_memory(&mut self, on: bool) {
        self.record_memory = on;
    }

    #[inline]
    pub(crate) fn record_task(&mut self, entry: TimelineEntry) {
        if self.record_timeline {
            self.timeline.push(entry);
        }
    }

    #[inline]
    pub(crate) fn record_memory(&mut self, time: SimTime, tier: Tier, in_use: u64) {
        if self.record_memory {
            self.memory.push(MemorySample { time, tier, in_use });
        }
    }

    /// All recorded timeline entries, in completion order.
    pub fn timeline(&self) -> &[TimelineEntry] {
        &self.timeline
    }

    /// All recorded memory samples, in event order.
    pub fn memory_samples(&self) -> &[MemorySample] {
        &self.memory
    }

    /// Memory samples for one tier.
    pub fn memory_samples_for(&self, tier: Tier) -> impl Iterator<Item = &MemorySample> {
        self.memory.iter().filter(move |s| s.tier == tier)
    }

    /// Peak live bytes observed in the recorded memory trace for `tier`.
    pub fn recorded_peak(&self, tier: Tier) -> u64 {
        self.memory_samples_for(tier)
            .map(|s| s.in_use)
            .max()
            .unwrap_or(0)
    }

    /// Renders the recorded timeline as an ASCII Gantt chart (one row per
    /// resource), clipped to `[from, to)` and scaled to `width` columns.
    ///
    /// Each cell shows the first letter of the dominant op class in that
    /// slice of time ('.' for idle). This is the visual used to compare
    /// pipeline bubbles (paper Fig. 15).
    pub fn render_ascii(&self, from: SimTime, to: SimTime, width: usize) -> String {
        let mut out = String::new();
        if to <= from || width == 0 {
            return out;
        }
        let span = (to - from).as_nanos().max(1);
        for res in Resource::ALL {
            // Zero-duration bookkeeping tasks occupy no time; drawing them
            // would overpaint real work in their cell.
            let entries: Vec<&TimelineEntry> = self
                .timeline
                .iter()
                .filter(|e| e.resource == res && e.end > from && e.start < to && e.end > e.start)
                .collect();
            if entries.is_empty() {
                continue;
            }
            let mut row = vec!['.'; width];
            for e in &entries {
                let s = e.start.max(from).as_nanos() - from.as_nanos();
                let t = e.end.as_nanos().min(to.as_nanos()) - from.as_nanos();
                let c0 = (s as u128 * width as u128 / span as u128) as usize;
                let c1 = ((t as u128 * width as u128).div_ceil(span as u128) as usize).min(width);
                let ch = e
                    .meta
                    .class
                    .short_name()
                    .chars()
                    .next()
                    .unwrap_or('?')
                    .to_ascii_uppercase();
                for cell in row.iter_mut().take(c1).skip(c0) {
                    *cell = ch;
                }
            }
            let _ = writeln!(
                out,
                "{:>5} |{}|",
                res.name(),
                row.iter().collect::<String>()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{OpClass, TaskMeta};

    fn entry(res: Resource, class: OpClass, start: u64, end: u64) -> TimelineEntry {
        TimelineEntry {
            resource: res,
            meta: TaskMeta::of(class),
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
        }
    }

    #[test]
    fn recording_is_gated() {
        let mut m = Metrics::new();
        m.record_task(entry(Resource::GpuCompute, OpClass::GateCompute, 0, 10));
        assert!(m.timeline().is_empty());
        m.set_record_timeline(true);
        m.record_task(entry(Resource::GpuCompute, OpClass::GateCompute, 0, 10));
        assert_eq!(m.timeline().len(), 1);
    }

    #[test]
    fn memory_trace_and_peak() {
        let mut m = Metrics::new();
        m.set_record_memory(true);
        m.record_memory(SimTime::from_nanos(1), Tier::Vram, 100);
        m.record_memory(SimTime::from_nanos(2), Tier::Vram, 300);
        m.record_memory(SimTime::from_nanos(3), Tier::Vram, 50);
        m.record_memory(SimTime::from_nanos(3), Tier::Dram, 999);
        assert_eq!(m.recorded_peak(Tier::Vram), 300);
        assert_eq!(m.recorded_peak(Tier::Dram), 999);
        assert_eq!(m.recorded_peak(Tier::Disk), 0);
        assert_eq!(m.memory_samples_for(Tier::Vram).count(), 3);
    }

    #[test]
    fn ascii_render_marks_busy_cells() {
        let mut m = Metrics::new();
        m.set_record_timeline(true);
        m.record_task(entry(
            Resource::GpuCompute,
            OpClass::AttentionCompute,
            0,
            500,
        ));
        m.record_task(entry(Resource::LinkH2d, OpClass::ExpertTransfer, 0, 1000));
        let s = m.render_ascii(SimTime::ZERO, SimTime::from_nanos(1000), 10);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("  gpu |AAAAA"));
        assert!(lines[0].contains('.'));
        assert!(lines[1].starts_with("  h2d |EEEEEEEEEE"));
    }

    #[test]
    fn ascii_render_handles_empty_window() {
        let m = Metrics::new();
        assert!(m
            .render_ascii(SimTime::from_nanos(5), SimTime::from_nanos(5), 10)
            .is_empty());
    }

    #[test]
    fn timeline_entry_duration() {
        let e = entry(Resource::GpuCompute, OpClass::Misc, 10, 35);
        assert_eq!(e.duration().as_nanos(), 25);
    }
}
