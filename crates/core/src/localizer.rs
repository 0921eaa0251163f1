//! Fault localization: *where* to inject.
//!
//! AVFI campaigns first select fault locations — "e.g., choosing specific
//! neurons and layers in the IL-CNN" — then apply a fault model there.
//! Weight faults select their parameters with a [`ParamSelector`] over
//! the network's qualified parameter names (`trunk.*`, `headN.*`); a
//! neuron fault names its site explicitly
//! ([`MlFault::NeuronStuckAt`](crate::fault::ml::MlFault::NeuronStuckAt)
//! `{ layer, unit }`).

use serde::{Deserialize, Serialize};

/// Selects which named parameters of the network are fault-eligible.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParamSelector {
    /// Every parameter.
    All,
    /// Parameters whose qualified name starts with a prefix, e.g.
    /// `"trunk.conv0"` or `"head1."`.
    Prefix(String),
    /// Only weight matrices (excludes biases).
    WeightsOnly,
}

impl ParamSelector {
    /// Whether a qualified parameter name is selected.
    pub fn matches(&self, name: &str) -> bool {
        match self {
            ParamSelector::All => true,
            ParamSelector::Prefix(p) => name.starts_with(p.as_str()),
            ParamSelector::WeightsOnly => name.ends_with(".weight"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_semantics() {
        assert!(ParamSelector::All.matches("trunk.conv0.weight"));
        assert!(ParamSelector::Prefix("trunk.".into()).matches("trunk.dense5.bias"));
        assert!(!ParamSelector::Prefix("trunk.".into()).matches("head0.dense0.weight"));
        assert!(ParamSelector::WeightsOnly.matches("head2.dense0.weight"));
        assert!(!ParamSelector::WeightsOnly.matches("head2.dense0.bias"));
    }

    /// The `trunk.` and `headN.` prefixes that `ParamSelector::Prefix`
    /// selects on name real parameters of the IL-CNN.
    #[test]
    fn parameter_names_cover_trunk_and_heads() {
        let mut net = avfi_agent::IlNetwork::new(1);
        let names: Vec<String> = net.params().iter().map(|p| p.name.clone()).collect();
        assert!(names.iter().any(|n| n.starts_with("trunk.conv")));
        assert!(names.iter().any(|n| n.starts_with("trunk.dense")));
        for h in 0..4 {
            assert!(
                names.iter().any(|n| n.starts_with(&format!("head{h}."))),
                "missing head{h}"
            );
        }
    }
}
