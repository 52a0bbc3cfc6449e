//! Process-wide compiled-graph cache.
//!
//! Building a zoo graph is pure — the operator list is a function of
//! `(ModelId, DType)` alone — so repeated runs of the same configuration
//! can share one immutable [`Graph`] instead of re-running the arch
//! builder per run. The cache is keyed by a `BTreeMap` (deterministic
//! iteration order, per the workspace determinism policy) and never
//! consults the clock, the environment, or any random stream: a cached
//! graph is definitionally identical to a freshly built one.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use aitax_tensor::DType;

use crate::graph::Graph;
use crate::zoo::{ModelId, Zoo};

type GraphCache = Mutex<BTreeMap<(ModelId, DType), Arc<Graph>>>;

static GRAPHS: OnceLock<GraphCache> = OnceLock::new();

/// The shared graph for `(model, dtype)`, building (and memoizing) it on
/// first use. Equivalent to `Zoo::entry(model).build_graph_with(dtype)`
/// wrapped in an `Arc`, but the builder runs once per distinct key for
/// the life of the process.
pub fn cached_graph(model: ModelId, dtype: DType) -> Arc<Graph> {
    let cache = GRAPHS.get_or_init(|| Mutex::new(BTreeMap::new()));
    #[expect(
        clippy::expect_used,
        reason = "graph builders are pure and never panic, so the mutex cannot be poisoned"
    )]
    let mut map = cache.lock().expect("graph cache poisoned");
    map.entry((model, dtype))
        .or_insert_with(|| Arc::new(Zoo::entry(model).build_graph_with(dtype)))
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_graph_matches_fresh_build() {
        for &model in &[ModelId::MobileNetV1, ModelId::InceptionV3] {
            for &dtype in &[DType::F32, DType::I8] {
                let fresh = Zoo::entry(model).build_graph_with(dtype);
                let cached = cached_graph(model, dtype);
                assert_eq!(*cached, fresh, "{model:?}/{dtype:?}");
            }
        }
    }

    #[test]
    fn repeat_lookups_share_one_allocation() {
        let a = cached_graph(ModelId::SqueezeNet, DType::F32);
        let b = cached_graph(ModelId::SqueezeNet, DType::F32);
        assert!(Arc::ptr_eq(&a, &b));
    }
}
