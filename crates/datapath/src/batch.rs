//! Bit-parallel batched inference: 64 samples per pass through a
//! combinational golden-model netlist.
//!
//! The scalar golden model evaluates one feature vector at a time —
//! either in software ([`crate::reference::infer`]) or gate-accurately
//! through [`netlist::Evaluator`].  For bulk scoring both waste the
//! machine word.  This module generates an *unregistered* single-rail
//! inference netlist (the synchronous baseline minus its flip-flops and
//! clock) and drives it with [`netlist::BatchEvaluator`], evaluating 64
//! independent samples per pass with word-wide boolean instructions.
//!
//! The exclude masks are shared by every sample of a workload (they are
//! the trained model), so their lane words are simple broadcasts —
//! all-zeros or all-ones — while the feature words carry one sample per
//! bit lane.
//!
//! # Example
//!
//! ```
//! use datapath::{BatchGoldenModel, BatchInference, DatapathConfig, InferenceWorkload};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = DatapathConfig::new(6, 4)?;
//! let model = BatchGoldenModel::generate(&config)?;
//! let mut batch = BatchInference::new(&model)?;
//!
//! let workload = InferenceWorkload::random(&config, 100, 0.7, 42)?;
//! let outcomes = batch.run_workload(&workload)?;
//! assert_eq!(&outcomes, workload.expected());
//! # Ok(())
//! # }
//! ```

use netlist::{BatchEvaluator, BatchState, Netlist, LANES};
use tsetlin::ExcludeMasks;

use crate::clause_logic::single_rail_clause;
use crate::comparator::single_rail_comparator;
use crate::popcount::single_rail_popcount8;
use crate::reference::{ComparatorDecision, InferenceOutcome};
use crate::workload::InferenceWorkload;
use crate::{DatapathConfig, DatapathError};

/// The combinational golden-model netlist: clause banks, population
/// counters and comparator with no registers and no clock.
///
/// Primary inputs follow the same order as
/// [`crate::SingleRailDatapath::operand_bits`] minus `clk`: the features
/// `f*`, the positive-bank excludes `ep*`, the negative-bank excludes
/// `en*`.  Primary outputs are `less`, `equal`, `greater` followed by the
/// two 4-bit vote counts `pcp*` and `pcn*` (LSB first), so batched runs
/// can reconstruct full [`InferenceOutcome`]s.
#[derive(Clone, Debug)]
pub struct BatchGoldenModel {
    netlist: Netlist,
    config: DatapathConfig,
}

impl BatchGoldenModel {
    /// Generates the combinational inference netlist for `config`.
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn generate(config: &DatapathConfig) -> Result<Self, DatapathError> {
        let mut nl = Netlist::new("tm_inference_batch_golden");
        let clauses = config.clauses_per_polarity();
        let literals = config.literals_per_clause();

        let features: Vec<_> = (0..config.features())
            .map(|m| nl.add_input(format!("f{m}")))
            .collect();
        let bank = |nl: &mut Netlist, tag: &str| -> Vec<Vec<netlist::NetId>> {
            (0..clauses)
                .map(|j| {
                    (0..literals)
                        .map(|l| nl.add_input(format!("{tag}{j}_{l}")))
                        .collect()
                })
                .collect()
        };
        let positive_excludes = bank(&mut nl, "ep");
        let negative_excludes = bank(&mut nl, "en");

        let positive_clauses: Vec<_> = positive_excludes
            .iter()
            .enumerate()
            .map(|(j, bundle)| single_rail_clause(&mut nl, &format!("cp{j}"), &features, bundle))
            .collect::<Result<_, _>>()?;
        let negative_clauses: Vec<_> = negative_excludes
            .iter()
            .enumerate()
            .map(|(j, bundle)| single_rail_clause(&mut nl, &format!("cn{j}"), &features, bundle))
            .collect::<Result<_, _>>()?;

        let positive_count = single_rail_popcount8(&mut nl, "pcp", &positive_clauses)?;
        let negative_count = single_rail_popcount8(&mut nl, "pcn", &negative_clauses)?;
        let comparator = single_rail_comparator(&mut nl, "cmp", &positive_count, &negative_count)?;

        nl.add_output("less", comparator.less);
        nl.add_output("equal", comparator.equal);
        nl.add_output("greater", comparator.greater);
        for (i, &bit) in positive_count.iter().enumerate() {
            nl.add_output(format!("pcp{i}"), bit);
        }
        for (i, &bit) in negative_count.iter().enumerate() {
            nl.add_output(format!("pcn{i}"), bit);
        }

        debug_assert!(nl.validate().is_ok());
        Ok(Self {
            netlist: nl,
            config: *config,
        })
    }

    /// The underlying combinational netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The configuration this model was generated from.
    #[must_use]
    pub fn config(&self) -> &DatapathConfig {
        &self.config
    }
}

/// Batched 64-samples-per-pass inference over a [`BatchGoldenModel`].
///
/// Owns all scratch buffers, so steady-state batches perform no heap
/// allocation beyond the returned outcome vector.
///
/// # Example
///
/// ```
/// use datapath::{BatchGoldenModel, BatchInference, DatapathConfig, InferenceWorkload};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = DatapathConfig::new(5, 4)?;
/// let model = BatchGoldenModel::generate(&config)?;
/// let mut batch = BatchInference::new(&model)?;
///
/// // 70 operands: one full 64-lane pass plus a 6-lane remainder.
/// let workload = InferenceWorkload::random(&config, 70, 0.7, 1)?;
/// let outcomes = batch.run_workload(&workload)?;
/// assert_eq!(outcomes.len(), 70);
/// assert_eq!(&outcomes, workload.expected());
/// assert_eq!(batch.lanes(), 64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BatchInference<'a> {
    evaluator: BatchEvaluator<'a>,
    config: DatapathConfig,
    state: BatchState,
    values: Vec<u64>,
    pi_words: Vec<u64>,
}

impl<'a> BatchInference<'a> {
    /// Prepares the batched evaluator (flattens the netlist once).
    ///
    /// # Errors
    ///
    /// Propagates netlist errors (a generated model is always acyclic).
    pub fn new(model: &'a BatchGoldenModel) -> Result<Self, DatapathError> {
        let evaluator = BatchEvaluator::new(model.netlist())?;
        let state = evaluator.new_state();
        let pi_words = vec![0; evaluator.input_count()];
        Ok(Self {
            evaluator,
            config: model.config,
            state,
            values: Vec::new(),
            pi_words,
        })
    }

    /// Verifies that `masks` match this model's configuration.
    fn check_masks(&self, masks: &ExcludeMasks) -> Result<(), DatapathError> {
        check_masks(&self.config, masks)
    }

    /// Runs up to [`LANES`] samples in one pass and returns their
    /// outcomes in sample order.
    ///
    /// Generic over the feature-vector representation: owned vectors
    /// (`&[Vec<bool>]`) and borrowed slices (`&[&[bool]]`, e.g. a
    /// serving micro-batch of [`crate::SampleRef`] features) both work,
    /// so callers never have to clone features just to batch them.
    ///
    /// # Errors
    ///
    /// Returns width mismatches for masks or feature vectors that do not
    /// match the configuration, or if more than [`LANES`] samples are
    /// supplied.
    pub fn infer_batch<V: AsRef<[bool]>>(
        &mut self,
        masks: &ExcludeMasks,
        feature_vectors: &[V],
    ) -> Result<Vec<InferenceOutcome>, DatapathError> {
        self.check_masks(masks)?;
        // Exclude words: broadcast (the model is shared by all lanes).
        broadcast_mask_words(masks, self.config.features(), &mut self.pi_words);
        pack_feature_words(feature_vectors, self.config.features(), &mut self.pi_words)?;
        let outputs = self
            .evaluator
            .eval_words(&self.pi_words, &mut self.state, &mut self.values);
        decode_lane_outcomes(&outputs, feature_vectors.len())
    }

    /// Runs a whole workload through the batched model, 64 samples per
    /// pass, and returns one outcome per operand.
    ///
    /// # Errors
    ///
    /// Propagates the mismatch and decode errors of
    /// [`BatchInference::infer_batch`].
    pub fn run_workload(
        &mut self,
        workload: &InferenceWorkload,
    ) -> Result<Vec<InferenceOutcome>, DatapathError> {
        let mut outcomes = Vec::with_capacity(workload.len());
        for chunk in workload.feature_vectors().chunks(LANES) {
            outcomes.extend(self.infer_batch(workload.masks(), chunk)?);
        }
        Ok(outcomes)
    }

    /// Number of samples evaluated per pass.
    #[must_use]
    pub fn lanes(&self) -> usize {
        LANES
    }
}

/// Verifies that `masks` match `config` — the check every engine (and
/// every serving adapter, at construction) applies before running.
///
/// # Errors
///
/// Returns [`DatapathError::WidthMismatch`] naming the mask feature
/// count or clause count that disagrees with `config`.
pub fn check_masks(config: &DatapathConfig, masks: &ExcludeMasks) -> Result<(), DatapathError> {
    if masks.feature_count() != config.features() {
        return Err(DatapathError::WidthMismatch {
            what: "exclude masks",
            expected: config.features(),
            got: masks.feature_count(),
        });
    }
    if masks.clauses_per_polarity() != config.clauses_per_polarity() {
        return Err(DatapathError::WidthMismatch {
            what: "exclude mask clause count",
            expected: config.clauses_per_polarity(),
            got: masks.clauses_per_polarity(),
        });
    }
    Ok(())
}

/// Writes the exclude-mask broadcast words (all-zeros or all-ones — the
/// trained model is shared by every lane) into `pi_words[features..]`.
pub(crate) fn broadcast_mask_words(masks: &ExcludeMasks, features: usize, pi_words: &mut [u64]) {
    let mut slot = features;
    for bank in [masks.positive(), masks.negative()] {
        for mask in bank {
            for &bit in mask {
                pi_words[slot] = if bit { u64::MAX } else { 0 };
                slot += 1;
            }
        }
    }
    debug_assert_eq!(slot, pi_words.len());
}

/// Packs up to [`LANES`] feature vectors into `pi_words[..features]`,
/// one sample per bit lane (surplus lanes are zeroed).  Generic over
/// the vector representation (owned or borrowed).
///
/// # Errors
///
/// Returns width mismatches for oversized batches or wrong-width vectors.
pub(crate) fn pack_feature_words<V: AsRef<[bool]>>(
    feature_vectors: &[V],
    features: usize,
    pi_words: &mut [u64],
) -> Result<(), DatapathError> {
    if feature_vectors.len() > LANES {
        return Err(DatapathError::WidthMismatch {
            what: "batch sample count",
            expected: LANES,
            got: feature_vectors.len(),
        });
    }
    pi_words[..features].iter_mut().for_each(|w| *w = 0);
    for (lane, vector) in feature_vectors.iter().enumerate() {
        let vector = vector.as_ref();
        if vector.len() != features {
            return Err(DatapathError::WidthMismatch {
                what: "feature vector",
                expected: features,
                got: vector.len(),
            });
        }
        for (word, &bit) in pi_words.iter_mut().zip(vector) {
            *word |= u64::from(bit) << lane;
        }
    }
    Ok(())
}

/// Decodes the first `lanes` lanes of a batch pass's primary-output words
/// (`less`/`equal`/`greater` then the two 4-bit vote counts) into
/// [`InferenceOutcome`]s.
///
/// # Errors
///
/// Returns a decode failure if a lane's comparator outputs are not
/// one-hot.
pub(crate) fn decode_lane_outcomes(
    outputs: &[u64],
    lanes: usize,
) -> Result<Vec<InferenceOutcome>, DatapathError> {
    let &[less, equal, greater, ..] = outputs else {
        return Err(DatapathError::DecodeFailure(format!(
            "batch pass produced {} output words; the golden model declares \
             three comparator outputs followed by two 4-bit vote counts",
            outputs.len()
        )));
    };
    if outputs.len() < 11 {
        return Err(DatapathError::DecodeFailure(format!(
            "batch pass produced {} output words, expected 11 (3 comparator + 2×4 votes)",
            outputs.len()
        )));
    }
    (0..lanes)
        .map(|lane| {
            let decode_count = |words: &[u64]| -> usize {
                words
                    .iter()
                    .enumerate()
                    .map(|(i, &w)| (((w >> lane) & 1) as usize) << i)
                    .sum()
            };
            let positive_votes = decode_count(&outputs[3..7]);
            let negative_votes = decode_count(&outputs[7..11]);
            let active: Vec<usize> = [less, equal, greater]
                .iter()
                .enumerate()
                .filter(|(_, &w)| (w >> lane) & 1 == 1)
                .map(|(i, _)| i)
                .collect();
            let &[index] = active.as_slice() else {
                return Err(DatapathError::DecodeFailure(format!(
                    "lane {lane}: expected exactly one active comparator output, got {active:?}"
                )));
            };
            let decision = ComparatorDecision::from_index(index).ok_or_else(|| {
                DatapathError::DecodeFailure(format!(
                    "lane {lane}: comparator index {index} has no decision"
                ))
            })?;
            Ok(InferenceOutcome {
                positive_votes,
                negative_votes,
                decision,
                in_class: decision != ComparatorDecision::Less,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use netlist::CellKind;

    #[test]
    fn golden_model_netlist_is_combinational() {
        let config = DatapathConfig::new(4, 4).unwrap();
        let model = BatchGoldenModel::generate(&config).unwrap();
        assert!(model
            .netlist()
            .cells()
            .all(|(_, c)| c.kind() != CellKind::Dff));
        assert!(model.netlist().find_net("clk").is_none());
        model.netlist().validate().unwrap();
    }

    #[test]
    fn batch_matches_software_reference_on_random_workload() {
        let config = DatapathConfig::new(6, 8).unwrap();
        let model = BatchGoldenModel::generate(&config).unwrap();
        let mut batch = BatchInference::new(&model).unwrap();
        // 150 operands spans two full passes plus a 22-lane remainder.
        let workload = InferenceWorkload::random(&config, 150, 0.7, 11).unwrap();
        let outcomes = batch.run_workload(&workload).unwrap();
        assert_eq!(outcomes.len(), workload.len());
        assert_eq!(&outcomes, workload.expected());
    }

    #[test]
    fn batch_votes_match_reference_votes() {
        let config = DatapathConfig::new(5, 4).unwrap();
        let model = BatchGoldenModel::generate(&config).unwrap();
        let mut batch = BatchInference::new(&model).unwrap();
        let workload = InferenceWorkload::random(&config, 40, 0.6, 3).unwrap();
        let outcomes = batch
            .infer_batch(workload.masks(), workload.feature_vectors())
            .unwrap();
        for (vector, outcome) in workload.feature_vectors().iter().zip(&outcomes) {
            let golden = reference::infer(workload.masks(), vector);
            assert_eq!(outcome, &golden);
        }
    }

    #[test]
    fn oversized_batch_is_rejected() {
        let config = DatapathConfig::new(3, 2).unwrap();
        let model = BatchGoldenModel::generate(&config).unwrap();
        let mut batch = BatchInference::new(&model).unwrap();
        let workload = InferenceWorkload::random(&config, 65, 0.5, 1).unwrap();
        let result = batch.infer_batch(workload.masks(), workload.feature_vectors());
        assert!(matches!(
            result,
            Err(DatapathError::WidthMismatch {
                what: "batch sample count",
                ..
            })
        ));
        // The chunking wrapper handles the same workload fine.
        assert!(batch.run_workload(&workload).is_ok());
    }

    #[test]
    fn mismatched_masks_are_rejected() {
        let config = DatapathConfig::new(3, 2).unwrap();
        let other = DatapathConfig::new(4, 2).unwrap();
        let model = BatchGoldenModel::generate(&config).unwrap();
        let mut batch = BatchInference::new(&model).unwrap();
        let workload = InferenceWorkload::random(&other, 4, 0.5, 1).unwrap();
        assert!(batch
            .infer_batch(workload.masks(), workload.feature_vectors())
            .is_err());
    }
}
