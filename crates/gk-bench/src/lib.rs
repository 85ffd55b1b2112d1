//! # gk-bench
//!
//! Experiment harness for regenerating every table and figure of the GateKeeper-GPU
//! paper. Each binary in `src/bin/` reproduces one table/figure (see DESIGN.md for
//! the full index); this library holds the shared pieces:
//!
//! * [`table`] — plain-text table rendering in the style of the paper's tables;
//! * [`args`] — a tiny command-line parser for the harness binaries (`--pairs N`,
//!   `--reads N`, `--full`, …);
//! * [`setups`] — the two experimental setups of §4.2 (Setup 1: GTX 1080 Ti,
//!   Setup 2: Tesla K20X) and their device counts;
//! * [`datasets`] — scaled-down instantiations of the paper's pair sets. The paper
//!   uses 30 million pairs per set; the harness defaults to a few hundred thousand
//!   and reports throughput in the same units, since rates (pairs per second) are
//!   what the tables compare.
//! * [`runner`] — shared experiment runners (throughput rows, accuracy rows,
//!   speedup calculations) used by several binaries.

#![warn(missing_docs)]

pub mod args;
pub mod datasets;
pub mod runner;
pub mod setups;
pub mod table;

pub use args::HarnessArgs;
pub use setups::{Setup, SETUP1, SETUP2};
pub use table::Table;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setups_expose_the_papers_devices() {
        assert_eq!(SETUP1.device().name, "GeForce GTX 1080 Ti");
        assert_eq!(SETUP2.device().name, "Tesla K20X");
        assert_eq!(SETUP1.max_devices, 8);
        assert_eq!(SETUP2.max_devices, 4);
    }

    #[test]
    fn table_renders_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let rendered = t.render();
        assert!(rendered.contains('a') && rendered.contains('2'));
    }

    #[test]
    fn args_parse_defaults_and_overrides() {
        let args = HarnessArgs::parse_from(vec!["--pairs".into(), "1234".into(), "--full".into()])
            .unwrap();
        assert_eq!(args.pairs(5), 1234);
        assert!(args.full);
        let defaults = HarnessArgs::parse_from(vec![]).unwrap();
        assert_eq!(defaults.pairs(5), 5);
        assert!(!defaults.full);
    }
}
