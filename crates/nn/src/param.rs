//! [`ParamMap`] — the unit of federated exchange: an ordered map from
//! hierarchical parameter names to tensors.

use std::collections::BTreeMap;

use adaptivefl_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// An ordered (deterministically iterable) map of named parameters.
///
/// This is what the server dispatches to clients and what clients
/// upload back; its [`ParamMap::numel`] is the "model size" the paper's
/// resource model and communication-waste metric are defined over.
///
/// # Example
///
/// ```
/// use adaptivefl_nn::ParamMap;
/// use adaptivefl_tensor::Tensor;
///
/// let mut m = ParamMap::new();
/// m.insert("fc.weight", Tensor::zeros(&[2, 3]));
/// m.insert("fc.bias", Tensor::zeros(&[2]));
/// assert_eq!(m.numel(), 8);
/// assert_eq!(m.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ParamMap {
    entries: BTreeMap<String, Tensor>,
}

impl ParamMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) a named tensor, returning the previous
    /// value if any.
    pub fn insert(&mut self, name: impl Into<String>, value: Tensor) -> Option<Tensor> {
        self.entries.insert(name.into(), value)
    }

    /// Looks up a parameter by name.
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.entries.get(name)
    }

    /// Mutable lookup by name.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Tensor> {
        self.entries.get_mut(name)
    }

    /// Returns `true` if a parameter with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Number of named parameters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the map holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of scalar elements across all parameters — the
    /// model size used by the paper's resource model.
    pub fn numel(&self) -> usize {
        self.entries.values().map(Tensor::numel).sum()
    }

    /// Size in bytes when transmitted as dense `f32` (communication
    /// accounting).
    pub fn byte_size(&self) -> usize {
        self.numel() * std::mem::size_of::<f32>()
    }

    /// Iterates over `(name, tensor)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterates mutably over `(name, tensor)` pairs in name order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&str, &mut Tensor)> {
        self.entries.iter_mut().map(|(k, v)| (k.as_str(), v))
    }

    /// Parameter names in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }
}

impl FromIterator<(String, Tensor)> for ParamMap {
    fn from_iter<I: IntoIterator<Item = (String, Tensor)>>(iter: I) -> Self {
        ParamMap {
            entries: iter.into_iter().collect(),
        }
    }
}

impl Extend<(String, Tensor)> for ParamMap {
    fn extend<I: IntoIterator<Item = (String, Tensor)>>(&mut self, iter: I) {
        self.entries.extend(iter);
    }
}

impl IntoIterator for ParamMap {
    type Item = (String, Tensor);
    type IntoIter = std::collections::btree_map::IntoIter<String, Tensor>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl std::fmt::Display for ParamMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ParamMap({} params, {} elements)",
            self.len(),
            self.numel()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ParamMap {
        let mut m = ParamMap::new();
        m.insert("b", Tensor::ones(&[2]));
        m.insert("a", Tensor::zeros(&[3]));
        m
    }

    #[test]
    fn iteration_is_name_ordered() {
        let m = sample();
        let names: Vec<&str> = m.names().collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn numel_and_bytes() {
        let m = sample();
        assert_eq!(m.numel(), 5);
        assert_eq!(m.byte_size(), 20);
    }

    #[test]
    fn collect_from_iterator() {
        let m: ParamMap = vec![("x".to_string(), Tensor::ones(&[1]))]
            .into_iter()
            .collect();
        assert!(m.contains("x"));
    }
}
