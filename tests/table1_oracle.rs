//! A brute-force oracle for Table I, relation-centric as in TENET: a
//! dataflow is the relation from loop point `x` to space-time stamp
//! `[p; t] = T·x`, and a tensor's reuse is read off that relation by
//! counting, not derived from null spaces.
//!
//! At 4-wide extents every loop point of the selected loops is mapped to its
//! stamp, and the stamps are grouped by the tensor element the point
//! touches. Two stamps of one element are a reuse:
//!
//! - at the same PE in a later cycle: stationary;
//! - at the same cycle in another PE: multicast (a reduction tree for the
//!   output);
//! - at another PE in another cycle: systolic;
//!
//! and the rank of the reuse is the dimension the stamp differences span.
//! The observed rank, letter and rank-2 aliases must equal
//! `classify_tensor`'s. The oracle shares no code with the classifier: no
//! null spaces and no rational arithmetic, only the access map's `eval` and
//! the STT's `apply`.
//!
//! A mismatch is a finding, reported with its kernel, selection, STT and
//! tensor. The default suite checks GEMM under every candidate STT and a
//! fixed sample of the other five Fig. 5 kernels; the full sweep over every
//! selection and STT of all six runs under `--ignored`.

use std::collections::HashMap;

use tensorlib::dataflow::dse::{enumerate_selections, enumerate_stt, DseConfig};
use tensorlib::dataflow::{classify_tensor, LoopSelection, Stt};
use tensorlib::ir::{workloads, Kernel, TensorDecl};

/// What the stamps of one tensor show under one (selection, STT).
#[derive(Debug, PartialEq, Eq)]
struct Reuse {
    rank: usize,
    letter: char,
    /// Sorted.
    aliases: Vec<char>,
}

fn sub(a: [i64; 3], b: [i64; 3]) -> [i64; 3] {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
}

fn cross(a: [i64; 3], b: [i64; 3]) -> [i64; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

/// The dimension of the span of `vs`.
fn span_rank(vs: &[[i64; 3]]) -> usize {
    let Some(&a) = vs.iter().find(|v| **v != [0; 3]) else {
        return 0;
    };
    let Some(&b) = vs.iter().find(|&&v| cross(a, v) != [0; 3]) else {
        return 1;
    };
    let n = cross(a, b);
    if vs
        .iter()
        .all(|v| n[0] * v[0] + n[1] * v[1] + n[2] * v[2] == 0)
    {
        2
    } else {
        3
    }
}

/// Observes one tensor's reuse by enumerating every point of the selected
/// loops (the other loops held at 0).
fn observe(kernel: &Kernel, tensor: &TensorDecl, sel: &LoopSelection, stt: &Stt) -> Reuse {
    let idx = sel.indices();
    let ext = sel.extents(kernel).map(|e| e as i64);
    let mut groups: HashMap<Vec<i64>, Vec<[i64; 3]>> = HashMap::new();
    let mut point = vec![0i64; kernel.loop_nest().len()];
    for x0 in 0..ext[0] {
        for x1 in 0..ext[1] {
            for x2 in 0..ext[2] {
                let x = [x0, x1, x2];
                for (&i, &v) in idx.iter().zip(&x) {
                    point[i] = v;
                }
                groups
                    .entry(tensor.access().eval(&point))
                    .or_default()
                    .push(stt.apply(&x));
            }
        }
    }
    // Every difference between two stamps of one element.
    let mut diffs = Vec::new();
    for stamps in groups.values() {
        for (i, &a) in stamps.iter().enumerate() {
            diffs.extend(stamps[i + 1..].iter().map(|&b| sub(b, a)));
        }
    }
    let same_pe = diffs.iter().any(|d| d[0] == 0 && d[1] == 0);
    let same_cycle = diffs.iter().any(|d| d[2] == 0);
    let rank = span_rank(&diffs);
    let (letter, mut aliases) = match rank {
        0 => ('U', vec!['U']),
        1 if same_pe => ('T', vec!['T']),
        1 if same_cycle => ('M', vec!['M']),
        1 => ('S', vec!['S']),
        2 => {
            let mut aliases = vec!['B'];
            if same_cycle {
                aliases.push('M');
            }
            if same_pe {
                aliases.push('T');
            } else if !diffs.iter().all(|d| d[2] == 0) {
                // Moves across PEs over time with no PE holding it.
                aliases.push('S');
            }
            ('B', aliases)
        }
        // One element for the whole tile: broadcast once, held everywhere.
        _ => ('B', vec!['B', 'T']),
    };
    aliases.sort_unstable();
    Reuse {
        rank,
        letter,
        aliases,
    }
}

/// Compares the oracle with `classify_tensor` for every tensor of `kernel`
/// under every selection and every `stride`-th candidate STT; returns the
/// number of (STT, tensor) pairs checked and the mismatches.
fn check(kernel: &Kernel, stride: usize) -> (usize, Vec<String>) {
    let config = DseConfig::default();
    let stts = enumerate_stt(&config);
    let mut checked = 0;
    let mut findings = Vec::new();
    for sel in enumerate_selections(kernel, &config).unwrap() {
        let idx = sel.indices();
        for stt in stts.iter().step_by(stride) {
            for tensor in kernel.tensors() {
                let class = classify_tensor(&tensor.access().restrict_to(&idx), stt, tensor.role());
                let mut aliases = class.letter_aliases();
                aliases.sort_unstable();
                let claimed = Reuse {
                    rank: class.rank(),
                    letter: class.letter(),
                    aliases,
                };
                let seen = observe(kernel, tensor, &sel, stt);
                if seen != claimed {
                    findings.push(format!(
                        "{} {} T = {stt} tensor {}: observed {seen:?}, classified {class} {claimed:?}",
                        kernel.name(),
                        sel.tag(),
                        tensor.name()
                    ));
                }
                checked += 1;
            }
        }
    }
    (checked, findings)
}

fn assert_no_findings(kernel: &Kernel, stride: usize, expect_checked: usize) {
    let (checked, findings) = check(kernel, stride);
    assert!(
        findings.is_empty(),
        "{} Table I findings, first ones:\n{}",
        findings.len(),
        findings[..findings.len().min(20)].join("\n")
    );
    assert_eq!(checked, expect_checked, "{}", kernel.name());
}

/// The five non-GEMM Fig. 5 kernels with every loop 4 wide.
fn other_kernels() -> [Kernel; 5] {
    [
        workloads::batched_gemv(4, 4, 4),
        workloads::conv2d(4, 4, 4, 4, 4, 4),
        workloads::depthwise_conv(4, 4, 4, 4, 4),
        workloads::mttkrp(4, 4, 4, 4),
        workloads::ttmc(4, 4, 4, 4, 4),
    ]
}

#[test]
fn span_rank_counts_dimensions() {
    assert_eq!(span_rank(&[]), 0);
    assert_eq!(span_rank(&[[0, 0, 0]]), 0);
    assert_eq!(span_rank(&[[1, 2, 3], [-2, -4, -6]]), 1);
    assert_eq!(span_rank(&[[1, 0, 0], [0, 1, 0], [1, 1, 0]]), 2);
    assert_eq!(span_rank(&[[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 3);
}

#[test]
fn oracle_reads_the_paper_running_example() {
    // GEMM under the output-stationary T: A and B systolic, C stationary.
    let gemm = workloads::gemm(4, 4, 4);
    let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"]).unwrap();
    let letters: String = gemm
        .tensors()
        .iter()
        .map(|t| observe(&gemm, t, &sel, &Stt::output_stationary()).letter)
        .collect();
    assert_eq!(letters, "SST");
}

#[test]
fn gemm_table1_matches_brute_force_under_every_stt() {
    assert_no_findings(&workloads::gemm(4, 4, 4), 1, 6_960 * 3);
}

#[test]
fn other_fig5_kernels_match_brute_force_on_a_fixed_sample() {
    // Every selection, every 61st candidate STT (115 of 6,960).
    let expect = [
        115 * 3,
        20 * 115 * 3,
        10 * 115 * 3,
        4 * 115 * 4,
        10 * 115 * 4,
    ];
    for (kernel, checked) in other_kernels().iter().zip(expect) {
        assert_no_findings(kernel, 61, checked);
    }
}

#[test]
#[ignore = "full sweep: every selection and STT of the six Fig. 5 kernels"]
fn all_fig5_kernels_match_brute_force_under_every_stt() {
    assert_no_findings(&workloads::gemm(4, 4, 4), 1, 6_960 * 3);
    let expect = [1, 20, 10, 4, 10].map(|sels| sels * 6_960);
    for ((kernel, sels), tensors) in other_kernels().iter().zip(expect).zip([3, 3, 3, 4, 4]) {
        assert_no_findings(kernel, 1, sels * tensors);
    }
}
