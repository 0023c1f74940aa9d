//! One module per table/figure of the paper's evaluation section.
//!
//! | Module | Reproduces | Paper section |
//! |---|---|---|
//! | [`fig1_search_time`] | Figure 1 — search time of Mogul(k), EMR, FMR, Iterative, Inverse on the four datasets | §5.1 |
//! | [`anchor_sweep`] | Figures 2, 3, 4 — P@k, retrieval precision and search time vs. the number of EMR anchor points | §5.2.1 |
//! | [`fig5_pruning`] | Figure 5 — effect of the sparse structure and the pruning estimation | §5.2.2 |
//! | [`fig6_sparsity`] | Figure 6 — non-zero pattern of the factor `L` under Mogul vs. random ordering | §5.2.2 |
//! | [`fig7_out_of_sample`] | Figure 7 and Table 2 — out-of-sample search time and its breakdown | §5.2.3 |
//! | [`fig8_precompute`] | Figure 8 — precomputation time of Mogul vs. a random ordering | §5.2.4 |
//! | [`fig9_case_study`] | Figure 9 — qualitative retrieval comparison on the COIL-like dataset | §5.3 |
//!
//! Every module exposes a `run*` function returning [`crate::Table`]s with
//! the same rows/series the paper plots; `run_all` in `mogul-bench` prints
//! them. A runner takes only its scenarios (or nothing, for the ablations'
//! own COIL-like databases): the shared settings are the constants of
//! [`crate::scenarios`], and each figure's own ones (Fig. 1's Mogul(k) list,
//! the anchor sweep, the ablation grids, Fig. 9's case size) sit next to it.
//! Every clocked cell is timed by [`crate::timer::time_alternating`].

pub mod ablations;
pub mod anchor_sweep;
pub mod fig1_search_time;
pub mod fig5_pruning;
pub mod fig6_sparsity;
pub mod fig7_out_of_sample;
pub mod fig8_precompute;
pub mod fig9_case_study;
