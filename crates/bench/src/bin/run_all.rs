//! Run the figure/table experiments and print the report: every section in
//! sequence, or the one named by `--only`.
//!
//! `cargo run -p mogul-bench --release --bin run_all -- [tiny|small|medium|large] [--only <name>]`
//!
//! Sections: `fig1` … `fig9`, `table2`, `ablation_parameters`,
//! `ablation_scaling`. The scale falls back to `MOGUL_SCALE`, then `small`;
//! an unknown scale or section exits 2. Every experiment runs at the paper's
//! fixed settings (`mogul_eval::scenarios`).

#![forbid(unsafe_code)]

use mogul_bench::{parse_args, SECTIONS};
use mogul_eval::experiments::{
    ablations, anchor_sweep, fig1_search_time, fig5_pruning, fig6_sparsity, fig7_out_of_sample,
    fig8_precompute, fig9_case_study,
};
use mogul_eval::scenarios::{limited_scenarios, standard_scenarios};
use std::cell::LazyCell;

fn main() {
    let env_scale = std::env::var("MOGUL_SCALE").ok();
    let args = parse_args(std::env::args().skip(1), env_scale).unwrap_or_else(|message| {
        eprintln!("run_all: {message}");
        std::process::exit(2);
    });
    let wanted = |section: &str| args.only.as_deref().is_none_or(|only| only == section);

    // Inputs shared between sections, built when the first of them runs.
    let scenarios = LazyCell::new(|| standard_scenarios(args.scale).expect("build scenarios"));
    let coil = LazyCell::new(|| {
        limited_scenarios(args.scale, 1)
            .expect("coil scenario")
            .remove(0)
    });
    let sweep = LazyCell::new(|| anchor_sweep::run_sweep(&coil).expect("anchor sweep"));
    let oos =
        LazyCell::new(|| fig7_out_of_sample::measure(&scenarios).expect("figure 7 / table 2"));

    if args.only.is_none() {
        println!("# Mogul evaluation suite (scale: {:?})\n", args.scale);
        for s in scenarios.iter() {
            println!(
                "dataset {:<14} n = {:>6}  edges = {:>7}  classes = {}",
                s.name(),
                s.len(),
                s.graph.num_edges(),
                s.spec.dataset.num_classes()
            );
        }
        println!();
    }

    for section in SECTIONS.into_iter().filter(|s| wanted(s)) {
        let table = match section {
            "fig1" => fig1_search_time::run(&scenarios),
            "fig2" => Ok(anchor_sweep::figure2_table(&sweep)),
            "fig3" => Ok(anchor_sweep::figure3_table(&sweep)),
            "fig4" => Ok(anchor_sweep::figure4_table(&sweep)),
            "fig5" => fig5_pruning::run(&scenarios),
            "fig6" => fig6_sparsity::run(&scenarios),
            "fig7" => Ok(fig7_out_of_sample::figure7_table(&oos)),
            "table2" => Ok(fig7_out_of_sample::table2(&oos)),
            "fig8" => fig8_precompute::run(&scenarios),
            "fig9" => fig9_case_study::run(&coil),
            "ablation_parameters" => ablations::run_parameters(),
            "ablation_scaling" => ablations::run_scaling(),
            other => unreachable!("section `{other}` has no runner"),
        };
        println!("{}", table.unwrap_or_else(|e| panic!("{section}: {e}")));
    }
}
