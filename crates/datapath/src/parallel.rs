//! Multi-threaded batched inference: 64-lane passes sharded across
//! worker threads.
//!
//! [`crate::BatchInference`] packs a workload into 64-sample passes and
//! runs them one after another on one core.  The passes are independent
//! — the golden-model netlist is combinational and the exclude masks are
//! broadcast words shared by every pass — so [`ParallelBatchInference`]
//! distributes `feature_vectors().chunks(LANES)` across an
//! [`exec::Executor`]'s workers instead:
//!
//! * the flattened index program ([`netlist::BatchEvaluator`]) is shared
//!   read-only by every worker;
//! * each worker owns private scratch (primary-input words, net-value
//!   buffer, batch state), so chunks never share state mid-pass;
//! * the exclude-mask broadcast words are computed **once per workload**
//!   and copied into each worker's scratch, not recomputed per pass;
//! * per-chunk outcomes are merged back in input order, so the result is
//!   identical to [`crate::BatchInference::run_workload`] at any thread
//!   count (property-tested at threads 1, 2 and 7).
//!
//! # Example
//!
//! ```
//! use datapath::{BatchGoldenModel, DatapathConfig, InferenceWorkload, ParallelBatchInference};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = DatapathConfig::new(6, 4)?;
//! let model = BatchGoldenModel::generate(&config)?;
//! let parallel = ParallelBatchInference::new(&model, 2)?;
//!
//! let workload = InferenceWorkload::random(&config, 200, 0.7, 42)?;
//! let outcomes = parallel.run_workload(&workload)?;
//! assert_eq!(&outcomes, workload.expected());
//! # Ok(())
//! # }
//! ```

use exec::Executor;
use netlist::{BatchEvaluator, LANES};

use crate::batch::{
    broadcast_mask_words, check_masks, decode_lane_outcomes, pack_feature_words, BatchGoldenModel,
};
use crate::reference::InferenceOutcome;
use crate::workload::InferenceWorkload;
use crate::{DatapathConfig, DatapathError};

/// Multi-threaded batched inference over a [`BatchGoldenModel`].
///
/// Unlike [`crate::BatchInference`], the scratch buffers are per worker
/// rather than per instance, so `run_workload` takes `&self` and one
/// instance can serve many workloads (or threads) concurrently.
#[derive(Debug)]
pub struct ParallelBatchInference<'a> {
    evaluator: BatchEvaluator<'a>,
    config: DatapathConfig,
    executor: Executor,
}

impl<'a> ParallelBatchInference<'a> {
    /// Prepares the shared flattened evaluator and an executor with
    /// `threads` workers (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// Propagates netlist errors (a generated model is always acyclic).
    pub fn new(model: &'a BatchGoldenModel, threads: usize) -> Result<Self, DatapathError> {
        Self::with_executor(model, Executor::new(threads))
    }

    /// Like [`ParallelBatchInference::new`] with an explicit executor.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors.
    pub fn with_executor(
        model: &'a BatchGoldenModel,
        executor: Executor,
    ) -> Result<Self, DatapathError> {
        Ok(Self {
            evaluator: BatchEvaluator::new(model.netlist())?,
            config: *model.config(),
            executor,
        })
    }

    /// Number of worker threads used per workload.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.executor.threads()
    }

    /// Number of samples evaluated per pass by each worker.
    #[must_use]
    pub fn lanes(&self) -> usize {
        LANES
    }

    /// Runs a whole workload through the batched model with the workload's
    /// 64-sample passes sharded across worker threads, and returns one
    /// outcome per operand, in operand order — bit-identical to
    /// [`crate::BatchInference::run_workload`].
    ///
    /// # Errors
    ///
    /// Returns width mismatches for masks or feature vectors that do not
    /// match the configuration, or decode failures for non-one-hot
    /// comparator outputs.
    pub fn run_workload(
        &self,
        workload: &InferenceWorkload,
    ) -> Result<Vec<InferenceOutcome>, DatapathError> {
        self.run_features(workload.masks(), workload.feature_vectors())
    }

    /// Runs an explicit batch of feature vectors (owned `&[Vec<bool>]`
    /// or borrowed `&[&[bool]]`, e.g. a serving micro-batch) against
    /// `masks`, 64-sample passes sharded across worker threads, and
    /// returns one outcome per vector in input order.
    ///
    /// # Errors
    ///
    /// See [`ParallelBatchInference::run_workload`].
    pub fn run_features<V: AsRef<[bool]> + Sync>(
        &self,
        masks: &tsetlin::ExcludeMasks,
        feature_vectors: &[V],
    ) -> Result<Vec<InferenceOutcome>, DatapathError> {
        check_masks(&self.config, masks)?;

        // The exclude masks are the trained model, identical for every
        // chunk: broadcast them into a template each worker copies once.
        let mut template = vec![0u64; self.evaluator.input_count()];
        broadcast_mask_words(masks, self.config.features(), &mut template);

        let features = self.config.features();
        let evaluator = &self.evaluator;
        let template = &template;
        let (per_chunk, _) = self.executor.map_chunks_with(
            feature_vectors,
            LANES,
            || (template.clone(), evaluator.new_state(), Vec::new()),
            move |(pi_words, state, values), _, chunk| {
                pack_feature_words(chunk, features, pi_words)?;
                let outputs = evaluator.eval_words(pi_words, state, values);
                decode_lane_outcomes(&outputs, chunk.len())
            },
        );

        let mut outcomes = Vec::with_capacity(feature_vectors.len());
        for chunk in per_chunk {
            outcomes.extend(chunk?);
        }
        Ok(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BatchInference;

    #[test]
    fn parallel_matches_single_thread_and_golden_outcomes() {
        let config = DatapathConfig::new(6, 8).unwrap();
        let model = BatchGoldenModel::generate(&config).unwrap();
        // 300 operands spans four full passes plus a 44-lane remainder.
        let workload = InferenceWorkload::random(&config, 300, 0.7, 23).unwrap();
        let mut single = BatchInference::new(&model).unwrap();
        let expected = single.run_workload(&workload).unwrap();
        assert_eq!(expected.as_slice(), workload.expected());

        for threads in [1, 2, 7] {
            let parallel = ParallelBatchInference::new(&model, threads).unwrap();
            assert_eq!(parallel.threads(), threads);
            let outcomes = parallel.run_workload(&workload).unwrap();
            assert_eq!(outcomes, expected, "threads = {threads}");
        }
    }

    #[test]
    fn mismatched_masks_are_rejected() {
        let config = DatapathConfig::new(3, 2).unwrap();
        let other = DatapathConfig::new(4, 2).unwrap();
        let model = BatchGoldenModel::generate(&config).unwrap();
        let parallel = ParallelBatchInference::new(&model, 2).unwrap();
        let workload = InferenceWorkload::random(&other, 4, 0.5, 1).unwrap();
        assert!(parallel.run_workload(&workload).is_err());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let config = DatapathConfig::new(3, 2).unwrap();
        let model = BatchGoldenModel::generate(&config).unwrap();
        let parallel = ParallelBatchInference::new(&model, 0).unwrap();
        assert_eq!(parallel.threads(), 1);
        assert_eq!(parallel.lanes(), netlist::LANES);
        let workload = InferenceWorkload::random(&config, 10, 0.5, 1).unwrap();
        assert_eq!(
            parallel.run_workload(&workload).unwrap().as_slice(),
            workload.expected()
        );
    }
}
