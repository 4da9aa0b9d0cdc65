//! Inference workloads.
//!
//! The paper's evaluation fixes prompt length 512 and output length 32 and
//! sweeps the batch size (4–64) and the number of batches `n` in a batch
//! group (3–15). A [`Workload`] pins down the *total* work — `num_batches ×
//! batch_size` sequences — so that multi-batch engines (Klotski, FlexGen)
//! and single-batch engines (Accelerate, MoE-Infinity, Fiddler) are compared
//! on identical token counts.

use std::fmt;

/// A fixed-shape batch-generation workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Workload {
    /// Sequences per batch.
    pub batch_size: u32,
    /// Number of batches (for Klotski/FlexGen this is the batch-group size
    /// `n`; single-batch engines process them consecutively).
    pub num_batches: u32,
    /// Prompt length in tokens (paper: 512).
    pub prompt_len: u32,
    /// Generated tokens per sequence (paper: 32).
    pub gen_len: u32,
}

impl Workload {
    /// Creates a workload.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(batch_size: u32, num_batches: u32, prompt_len: u32, gen_len: u32) -> Self {
        assert!(batch_size > 0, "batch_size must be positive");
        assert!(num_batches > 0, "num_batches must be positive");
        assert!(prompt_len > 0, "prompt_len must be positive");
        assert!(gen_len > 0, "gen_len must be positive");
        Workload {
            batch_size,
            num_batches,
            prompt_len,
            gen_len,
        }
    }

    /// The paper's default shape: prompt 512, output 32, one batch.
    /// Combine with [`Workload::with_batches`] once the planner picked `n`.
    pub fn paper_default(batch_size: u32) -> Self {
        Workload::new(batch_size, 1, 512, 32)
    }

    /// Returns the same workload with `num_batches = n`.
    pub fn with_batches(mut self, n: u32) -> Self {
        assert!(n > 0, "num_batches must be positive");
        self.num_batches = n;
        self
    }

    /// Total sequences across all batches.
    pub fn total_seqs(&self) -> u64 {
        self.batch_size as u64 * self.num_batches as u64
    }

    /// Total prompt tokens across all sequences.
    #[cfg(test)]
    fn total_prompt_tokens(&self) -> u64 {
        self.total_seqs() * self.prompt_len as u64
    }

    /// Total generated tokens (the throughput numerator).
    pub fn total_generated(&self) -> u64 {
        self.total_seqs() * self.gen_len as u64
    }

    /// Context length at decode step `step` (0-based): prompt plus the
    /// tokens generated so far plus the one being attended.
    pub fn context_at_step(&self, step: u32) -> u64 {
        self.prompt_len as u64 + step as u64 + 1
    }

    /// Final context length after all generation steps.
    pub fn max_context(&self) -> u64 {
        self.prompt_len as u64 + self.gen_len as u64
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bs={} × n={} (prompt {}, gen {})",
            self.batch_size, self.num_batches, self.prompt_len, self.gen_len
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_multiply_out() {
        let w = Workload::new(64, 10, 512, 32);
        assert_eq!(w.total_seqs(), 640);
        assert_eq!(w.total_prompt_tokens(), 640 * 512);
        assert_eq!(w.total_generated(), 640 * 32);
    }

    #[test]
    fn paper_default_shape() {
        let w = Workload::paper_default(16).with_batches(15);
        assert_eq!(w.prompt_len, 512);
        assert_eq!(w.gen_len, 32);
        assert_eq!(w.batch_size, 16);
        assert_eq!(w.num_batches, 15);
    }

    #[test]
    fn context_grows_by_one_per_step() {
        let w = Workload::paper_default(4);
        assert_eq!(w.context_at_step(0), 513);
        assert_eq!(w.context_at_step(31), 544);
        assert_eq!(w.max_context(), 544);
    }

    #[test]
    #[should_panic(expected = "batch_size")]
    fn zero_batch_size_rejected() {
        let _ = Workload::new(0, 1, 512, 32);
    }

    #[test]
    fn display_mentions_shape() {
        let w = Workload::new(8, 3, 512, 32);
        assert_eq!(w.to_string(), "bs=8 × n=3 (prompt 512, gen 32)");
    }
}
