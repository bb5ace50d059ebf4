//! `BENCHMARK.json`, compiled in: the one place metric names, units,
//! directions and bounds are written down. The binary refuses to print
//! a result that names other metrics than the file does.

// The structs mirror the file member for member (the vendored derive
// rejects undeclared members), so some fields are only read by the
// tests that validate the file.
#![allow(dead_code)]

use serde::Deserialize;

#[derive(Debug, Deserialize)]
pub struct Contract {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadDecl>,
    pub end_to_end: Vec<EndToEndDecl>,
    pub per_layer: Vec<LayerDecl>,
}

#[derive(Debug, Deserialize)]
pub struct WorkloadDecl {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Deserialize)]
pub struct EndToEndDecl {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

#[derive(Debug, Deserialize)]
pub struct LayerDecl {
    pub name: String,
    pub unit: String,
    pub better: String,
}

impl Contract {
    /// The contract this binary was built against.
    pub fn load() -> Contract {
        serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses into the contract's shape")
    }

    /// `(name, unit)` of the metrics a run with or without tracing must
    /// print, in declaration order.
    pub fn expected(&self, traced: bool) -> Vec<(&str, &str)> {
        if traced {
            self.per_layer
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect()
        } else {
            self.end_to_end
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect()
        }
    }
}
