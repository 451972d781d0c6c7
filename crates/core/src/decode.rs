//! One decode for every protocol driver: the codeword rules of the
//! four-phase handshake over any net reader.
//!
//! The scalar driver reads its simulator, the word driver one lane of
//! its bit-planes, the pipelined replay a token's reconstructed levels
//! and the arrival path its settled pass — all through the same
//! `impl Fn(NetId) -> Logic`, so error kinds, strings and check order
//! are the same everywhere.

use gatesim::Logic;
use netlist::NetId;

use crate::{DualRailError, DualRailNetlist, DualRailValue, OneOfNValue};

/// Decoded primary outputs of one protocol cycle: the dual-rail output
/// bits in declaration order, plus each 1-of-n group's name and active
/// index.
pub(crate) type DecodedOutputs = (Vec<bool>, Vec<(String, usize)>);

fn dual_value(read: &impl Fn(NetId) -> Logic, signal: &crate::DualRailSignal) -> DualRailValue {
    DualRailValue::decode(
        read(signal.positive),
        read(signal.negative),
        signal.polarity,
    )
}

/// Decodes every output at the end of a valid phase: each dual-rail
/// output must hold a valid codeword and each 1-of-n group exactly one
/// active wire.
///
/// # Errors
///
/// [`DualRailError::IllegalCodeword`] for a forbidden codeword and
/// [`DualRailError::ProtocolViolation`] for any other non-valid one,
/// on the first offending output in declaration order.
pub(crate) fn decode_outputs(
    circuit: &DualRailNetlist,
    read: impl Fn(NetId) -> Logic,
) -> Result<DecodedOutputs, DualRailError> {
    let mut outputs = Vec::new();
    for (name, signal) in circuit.dual_outputs() {
        match dual_value(&read, signal) {
            DualRailValue::Valid(bit) => outputs.push(bit),
            DualRailValue::Forbidden => {
                return Err(DualRailError::IllegalCodeword {
                    output: name.clone(),
                    description: "both rails are active when a valid codeword was expected"
                        .to_string(),
                })
            }
            other => {
                return Err(DualRailError::ProtocolViolation {
                    description: format!(
                        "output {name:?} is {other:?} when a valid codeword was expected"
                    ),
                })
            }
        }
    }
    let mut groups = Vec::new();
    for (name, wires) in circuit.one_of_n_outputs() {
        let values: Vec<Logic> = wires.iter().map(|&w| read(w)).collect();
        match OneOfNValue::decode(&values) {
            OneOfNValue::Valid(index) => groups.push((name.clone(), index)),
            OneOfNValue::Forbidden => {
                return Err(DualRailError::IllegalCodeword {
                    output: name.clone(),
                    description:
                        "more than one 1-of-n wire is active when a valid codeword was expected"
                            .to_string(),
                })
            }
            other => {
                return Err(DualRailError::ProtocolViolation {
                    description: format!(
                        "1-of-n output {name:?} is {other:?} when a valid codeword was expected"
                    ),
                })
            }
        }
    }
    Ok((outputs, groups))
}

/// Checks every output at the end of a spacer phase: each dual-rail
/// output back at the spacer and each 1-of-n group all inactive.
///
/// # Errors
///
/// [`DualRailError::IllegalCodeword`] for a forbidden codeword and
/// [`DualRailError::ProtocolViolation`] for any other non-spacer one,
/// on the first offending output in declaration order.
pub(crate) fn check_outputs_at_spacer(
    circuit: &DualRailNetlist,
    read: impl Fn(NetId) -> Logic,
) -> Result<(), DualRailError> {
    for (name, signal) in circuit.dual_outputs() {
        let value = dual_value(&read, signal);
        if value == DualRailValue::Forbidden {
            return Err(DualRailError::IllegalCodeword {
                output: name.clone(),
                description: "both rails are active after the spacer phase".to_string(),
            });
        }
        if value != DualRailValue::Spacer {
            return Err(DualRailError::ProtocolViolation {
                description: format!("output {name:?} is {value:?} after the spacer phase"),
            });
        }
    }
    for (name, wires) in circuit.one_of_n_outputs() {
        let values: Vec<Logic> = wires.iter().map(|&w| read(w)).collect();
        if OneOfNValue::decode(&values) != OneOfNValue::Spacer {
            return Err(DualRailError::ProtocolViolation {
                description: format!("1-of-n output {name:?} did not return to spacer"),
            });
        }
    }
    Ok(())
}

/// Decodes every declared probe signal as-is: probes carry no protocol
/// obligations, so spacer and forbidden codewords are recorded, not
/// rejected.
pub(crate) fn decode_probes(
    circuit: &DualRailNetlist,
    read: impl Fn(NetId) -> Logic,
) -> Vec<(String, DualRailValue)> {
    circuit
        .probes()
        .iter()
        .map(|(name, signal)| (name.clone(), dual_value(&read, signal)))
        .collect()
}
