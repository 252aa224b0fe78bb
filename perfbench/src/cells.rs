//! The benchmark's inputs — cell sets generated from the kernel seed —
//! and the pinned reference digests their results are checked against.

use persp_kernel::callgraph::KernelConfig;
use persp_workloads::memo::fnv1a64;
use persp_workloads::report::measurement_to_json_full;
use persp_workloads::{apps, lebench, Measurement, Workload};
use perspective::scheme::Scheme;

/// One simulation cell: a workload under a scheme.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Defense scheme.
    pub scheme: Scheme,
    /// Workload program.
    pub workload: Workload,
}

/// The two cell sets the workloads draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellSet {
    /// The 18 LEBench tests × every scheme (162 kernel-only cells).
    Lebench,
    /// The 4 datacenter apps × the main schemes (20 user+kernel cells).
    Datacenter,
}

impl CellSet {
    /// Name used in the reference file.
    pub fn name(self) -> &'static str {
        match self {
            CellSet::Lebench => "lebench",
            CellSet::Datacenter => "datacenter",
        }
    }

    /// The cells, workload-major and scheme-minor.
    pub fn cells(self) -> Vec<Cell> {
        let (workloads, schemes): (Vec<Workload>, &[Scheme]) = match self {
            CellSet::Lebench => (lebench::suite(), Scheme::ALL),
            CellSet::Datacenter => (
                apps::apps().into_iter().map(|a| a.workload).collect(),
                Scheme::MAIN,
            ),
        };
        workloads
            .iter()
            .flat_map(|w| {
                schemes.iter().map(|&scheme| Cell {
                    scheme,
                    workload: w.clone(),
                })
            })
            .collect()
    }
}

/// The paper-scale kernel generated from `seed`.
pub fn kernel_config(seed: u64) -> KernelConfig {
    KernelConfig {
        seed,
        ..KernelConfig::paper()
    }
}

/// The seed of the paper-scale kernel every experiment binary uses.
pub fn default_seed() -> u64 {
    KernelConfig::paper().seed
}

/// The lossless serialization of a measurement (the cell cache's format).
pub fn render(m: &Measurement) -> String {
    measurement_to_json_full(m).render()
}

/// FNV-1a 64 of [`render`].
pub fn digest(m: &Measurement) -> u64 {
    fnv1a64(render(m).as_bytes())
}

/// The checked-in reference: one line per (seed, cell set) holding the
/// digest of every cell in [`CellSet::cells`] order.
const REFERENCE: &str = include_str!("../reference/digests.txt");

/// Render one reference line.
pub fn reference_line(seed: u64, set: CellSet, digests: &[u64]) -> String {
    let hex: Vec<String> = digests.iter().map(|d| format!("{d:016x}")).collect();
    format!("{seed} {} {}", set.name(), hex.join(" "))
}

/// Parse reference text into the digests pinned for (`seed`, `set`);
/// `Ok(None)` when that pair is not pinned.
pub fn parse_reference(text: &str, seed: u64, set: CellSet) -> Result<Option<Vec<u64>>, String> {
    for (no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_ascii_whitespace();
        let bad = || format!("reference line {}: malformed", no + 1);
        let s: u64 = fields.next().and_then(|f| f.parse().ok()).ok_or_else(bad)?;
        let name = fields.next().ok_or_else(bad)?;
        if s != seed || name != set.name() {
            continue;
        }
        let digests = fields
            .map(|f| u64::from_str_radix(f, 16).map_err(|_| bad()))
            .collect::<Result<Vec<u64>, String>>()?;
        return Ok(Some(digests));
    }
    Ok(None)
}

/// The digests pinned in the checked-in reference for (`seed`, `set`).
pub fn pinned(seed: u64, set: CellSet) -> Result<Option<Vec<u64>>, String> {
    parse_reference(REFERENCE, seed, set)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_sets_have_the_paper_shapes() {
        let lebench = CellSet::Lebench.cells();
        assert_eq!(lebench.len(), 18 * 9);
        assert_eq!(lebench[0].scheme, Scheme::ALL[0]);
        assert_eq!(lebench[9].workload.name, lebench::suite()[1].name);
        assert_eq!(CellSet::Datacenter.cells().len(), 4 * 5);
    }

    #[test]
    fn reference_lines_round_trip() {
        let line = reference_line(7, CellSet::Datacenter, &[1, u64::MAX]);
        assert_eq!(line, "7 datacenter 0000000000000001 ffffffffffffffff");
        let text = format!("# comment\n\n{line}\n");
        assert_eq!(
            parse_reference(&text, 7, CellSet::Datacenter),
            Ok(Some(vec![1, u64::MAX]))
        );
        assert_eq!(parse_reference(&text, 7, CellSet::Lebench), Ok(None));
        assert_eq!(parse_reference(&text, 8, CellSet::Datacenter), Ok(None));
        assert!(parse_reference("7 lebench zz", 7, CellSet::Lebench).is_err());
    }

    #[test]
    fn checked_in_reference_pins_the_default_seed() {
        for set in [CellSet::Lebench, CellSet::Datacenter] {
            let digests = pinned(default_seed(), set).unwrap().expect("pinned");
            assert_eq!(digests.len(), set.cells().len(), "{}", set.name());
        }
    }
}
