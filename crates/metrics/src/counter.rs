//! The catalogue of low-level metrics DejaVu can include in a workload
//! signature: hardware performance counters (HPC events, collected without
//! instrumenting the guest VM) and `xentop`-reported VM resource metrics.
//!
//! The first eight HPC entries are exactly the events of the paper's Table 1
//! (the RUBiS signature); the rest are representative of the ~60 events a
//! Xeon X5472-class profiling server exposes.

use std::fmt;

/// Whether a metric comes from a hardware performance counter or from the
/// hypervisor's per-VM accounting (`xentop`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Hardware performance counter read around VM scheduling (Xenoprof-style).
    Hpc,
    /// Per-VM resource consumption reported by the hypervisor (xentop-style).
    Xentop,
}

impl fmt::Display for MetricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricKind::Hpc => f.write_str("HPC"),
            MetricKind::Xentop => f.write_str("xentop"),
        }
    }
}

/// Identifier of a metric within the [`MetricCatalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetricId(pub usize);

/// Static description of one metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDescriptor {
    /// Identifier (index into the catalogue).
    pub id: MetricId,
    /// The event/metric name (e.g. `busq_empty`, `xentop_cpu_pct`).
    pub name: String,
    /// Counter family.
    pub kind: MetricKind,
    /// Human-readable description.
    pub description: String,
}

/// The full set of metrics the profiler can observe.
///
/// # Example
///
/// ```
/// use dejavu_metrics::MetricCatalog;
/// let cat = MetricCatalog::standard();
/// assert!(cat.len() > 20);
/// assert!(cat.find("busq_empty").is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricCatalog {
    metrics: Vec<MetricDescriptor>,
}

/// The Table-1 HPC events of the paper (the metrics CFS selects for RUBiS).
pub const TABLE1_EVENTS: [(&str, &str); 8] = [
    ("busq_empty", "Bus queue is empty"),
    ("cpu_clk_unhalted", "Clock cycles when not halted"),
    ("l2_ads", "Cycles the L2 address bus is in use"),
    ("l2_reject_busq", "Rejected L2 cache requests"),
    ("l2_st", "Number of L2 data stores"),
    ("load_block", "Events pertaining to loads"),
    ("store_block", "Events pertaining to stores"),
    ("page_walks", "Page table walk events"),
];

/// Additional HPC events representative of the profiling server's event list.
const EXTRA_HPC_EVENTS: [(&str, &str); 16] = [
    ("flops_rate", "Floating point operations retired"),
    ("inst_retired", "Instructions retired"),
    ("llc_misses", "Last-level cache misses"),
    ("llc_refs", "Last-level cache references"),
    ("branch_inst", "Branch instructions retired"),
    ("branch_misses", "Mispredicted branches"),
    ("dtlb_misses", "Data TLB misses"),
    ("itlb_misses", "Instruction TLB misses"),
    ("l1d_repl", "L1 data cache lines replaced"),
    ("l2_lines_in", "L2 cache lines allocated"),
    ("bus_trans_mem", "Memory bus transactions"),
    ("bus_trans_io", "I/O bus transactions"),
    ("resource_stalls", "Resource-related stall cycles"),
    ("uops_retired", "Micro-operations retired"),
    ("prefetch_hits", "Hardware prefetcher hits"),
    ("simd_inst", "SIMD instructions retired"),
];

/// xentop-style per-VM metrics.
const XENTOP_METRICS: [(&str, &str); 6] = [
    ("xentop_cpu_pct", "VM CPU utilization percentage"),
    ("xentop_mem_mb", "VM memory consumption"),
    ("xentop_net_rx_kbps", "VM network receive rate"),
    ("xentop_net_tx_kbps", "VM network transmit rate"),
    ("xentop_vbd_rd", "VM virtual block device reads"),
    ("xentop_vbd_wr", "VM virtual block device writes"),
];

impl MetricCatalog {
    /// Builds the standard catalogue: Table-1 HPC events, additional HPC
    /// events, and xentop metrics, in that order.
    pub fn standard() -> Self {
        let mut metrics = Vec::new();
        let mut push = |name: &str, desc: &str, kind: MetricKind| {
            let id = MetricId(metrics.len());
            metrics.push(MetricDescriptor {
                id,
                name: name.to_string(),
                kind,
                description: desc.to_string(),
            });
        };
        for (name, desc) in TABLE1_EVENTS {
            push(name, desc, MetricKind::Hpc);
        }
        for (name, desc) in EXTRA_HPC_EVENTS {
            push(name, desc, MetricKind::Hpc);
        }
        for (name, desc) in XENTOP_METRICS {
            push(name, desc, MetricKind::Xentop);
        }
        MetricCatalog { metrics }
    }

    /// Number of metrics in the catalogue.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Returns true if the catalogue is empty (never true for [`standard`](Self::standard)).
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// All metric descriptors, in id order.
    pub fn descriptors(&self) -> &[MetricDescriptor] {
        &self.metrics
    }

    /// The descriptor for `id`, if it exists.
    pub fn get(&self, id: MetricId) -> Option<&MetricDescriptor> {
        self.metrics.get(id.0)
    }

    /// Finds a metric by name.
    pub fn find(&self, name: &str) -> Option<&MetricDescriptor> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The names of all metrics, in id order.
    pub fn names(&self) -> Vec<String> {
        self.metrics.iter().map(|m| m.name.clone()).collect()
    }

    /// Ids of all metrics of the given kind.
    pub fn ids_of_kind(&self, kind: MetricKind) -> Vec<MetricId> {
        self.metrics
            .iter()
            .filter(|m| m.kind == kind)
            .map(|m| m.id)
            .collect()
    }

    /// Number of HPC metrics (the part of the signature constrained by the
    /// number of physical counter registers).
    pub fn num_hpc(&self) -> usize {
        self.ids_of_kind(MetricKind::Hpc).len()
    }
}

impl Default for MetricCatalog {
    fn default() -> Self {
        MetricCatalog::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_catalog_contains_table1_first() {
        let cat = MetricCatalog::standard();
        for (i, (name, _)) in TABLE1_EVENTS.iter().enumerate() {
            assert_eq!(&cat.descriptors()[i].name, name);
            assert_eq!(cat.descriptors()[i].kind, MetricKind::Hpc);
        }
    }

    #[test]
    fn catalog_has_both_kinds() {
        let cat = MetricCatalog::standard();
        assert_eq!(cat.len(), 30);
        assert_eq!(cat.num_hpc(), 24);
        assert_eq!(cat.ids_of_kind(MetricKind::Xentop).len(), 6);
    }

    #[test]
    fn lookup_by_name_and_id() {
        let cat = MetricCatalog::standard();
        let m = cat.find("page_walks").expect("table-1 metric present");
        assert_eq!(cat.get(m.id).unwrap().name, "page_walks");
        assert!(cat.find("nonexistent_counter").is_none());
        assert!(cat.get(MetricId(9999)).is_none());
    }

    #[test]
    fn names_are_unique() {
        let cat = MetricCatalog::standard();
        let names = cat.names();
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn kind_display() {
        assert_eq!(MetricKind::Hpc.to_string(), "HPC");
        assert_eq!(MetricKind::Xentop.to_string(), "xentop");
    }
}
