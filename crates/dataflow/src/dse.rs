//! Design-space enumeration: every dataflow a kernel admits.
//!
//! The paper's Figure 6 sweeps 148 GEMM dataflows and 33 Depthwise-Conv
//! dataflows. This module regenerates such sweeps by enumerating candidate
//! STT matrices (small integer entries, full rank), analyzing each against
//! each 3-loop selection, and de-duplicating by dataflow signature — two
//! `T` matrices that induce the same per-tensor flows drive the same
//! hardware.
//!
//! # Examples
//!
//! ```
//! use tensorlib_dataflow::dse::{design_space, DseConfig};
//! use tensorlib_ir::workloads;
//!
//! let gemm = workloads::gemm(16, 16, 16);
//! let designs = design_space(&gemm, &DseConfig::default());
//! assert!(designs.len() > 50);
//! // The classic dataflows are all in the space.
//! for want in ["SST", "STS", "MTM"] {
//!     assert!(designs.iter().any(|d| d.matches_letters(want)));
//! }
//! ```

use std::collections::{HashMap, HashSet};

use tensorlib_ir::{Kernel, TensorRole};
use tensorlib_linalg::par::par_map_indexed;

use crate::classify::ReuseBasis;
use crate::{Dataflow, DataflowError, FlowClass, LoopSelection, Stt, TensorFlow};

/// Configuration for design-space enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DseConfig {
    /// Maximum absolute value of STT matrix entries (default 1; the classic
    /// dataflow literature never needs more).
    pub max_coeff: i64,
    /// Keep only unimodular matrices (`|det| = 1`), guaranteeing every
    /// (PE, cycle) slot has work (default `true`).
    pub require_unimodular: bool,
    /// Restrict to these loop selections (by name triples); `None` enumerates
    /// every combination of three distinct loops.
    pub selections: Option<Vec<[String; 3]>>,
    /// Hard cap on the number of de-duplicated designs returned.
    pub max_designs: usize,
    /// Worker threads used to classify candidates in [`design_space`] (`0` =
    /// one per available core, `1` = fully serial). The output is identical
    /// for every worker count.
    pub workers: usize,
}

impl Default for DseConfig {
    fn default() -> DseConfig {
        DseConfig {
            max_coeff: 1,
            require_unimodular: true,
            selections: None,
            max_designs: 10_000,
            workers: 0,
        }
    }
}

/// Enumerates all candidate STT matrices under `config`.
///
/// # Examples
///
/// ```
/// use tensorlib_dataflow::dse::{enumerate_stt, DseConfig};
/// let all = enumerate_stt(&DseConfig::default());
/// assert!(all.iter().all(|t| t.is_unimodular()));
/// assert!(all.len() > 1000);
/// ```
///
/// # Panics
///
/// Panics if `config.max_coeff` is negative, or so large that the
/// `(2·max_coeff + 1)⁹` candidate count overflows `usize` (above 68 on
/// 64-bit targets).
pub fn enumerate_stt(config: &DseConfig) -> Vec<Stt> {
    let _span = tensorlib_obs::span("dse.stt_enumeration");
    let c = config.max_coeff;
    let (span, total) = candidate_count(c);
    let mut out = Vec::new();
    for code in 0..total {
        let mut rows = [[0i64; 3]; 3];
        let mut rem = code;
        for row in &mut rows {
            for e in row.iter_mut() {
                *e = (rem % span) as i64 - c;
                rem /= span;
            }
        }
        if let Ok(stt) = Stt::from_rows(rows) {
            if !config.require_unimodular || stt.is_unimodular() {
                out.push(stt);
            }
        }
    }
    tensorlib_obs::counter_add("dse.stt_candidates", out.len() as u64);
    out
}

/// The entry range `2c + 1` and the `(2c + 1)⁹` candidate count for
/// `max_coeff = c`; panics naming the bound when either is out of range.
fn candidate_count(c: i64) -> (usize, usize) {
    let span = c.checked_mul(2).and_then(|d| d.checked_add(1));
    span.and_then(|span| usize::try_from(span).ok())
        .and_then(|span| Some((span, span.checked_pow(9)?)))
        .unwrap_or_else(|| {
            panic!(
                "DseConfig::max_coeff = {c} is out of range: it must be at least 0 and \
                 small enough that (2·max_coeff + 1)^9 candidates fit in usize \
                 (at most 68 on 64-bit targets)"
            )
        })
}

/// Enumerates the loop selections to explore: every 3-combination of the
/// kernel's iterators (in nest order), or the explicit list in `config`.
///
/// Selection *order* is deliberately not enumerated — permuting the selected
/// loops is equivalent to permuting the columns of `T`, which the matrix
/// enumeration already covers.
///
/// # Errors
///
/// Returns [`DataflowError`] if an explicit selection names an unknown or
/// repeated loop, or the kernel has fewer than three loops.
pub fn enumerate_selections(
    kernel: &Kernel,
    config: &DseConfig,
) -> Result<Vec<LoopSelection>, DataflowError> {
    if let Some(named) = &config.selections {
        return named
            .iter()
            .map(|[a, b, c]| LoopSelection::by_names(kernel, [a, b, c]))
            .collect();
    }
    let n = kernel.loop_nest().len();
    if n < 3 {
        return Err(DataflowError::TooFewLoops { available: n });
    }
    let mut out = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            for k in (j + 1)..n {
                out.push(LoopSelection::by_indices(kernel, [i, j, k])?);
            }
        }
    }
    Ok(out)
}

/// Enumerates the full de-duplicated dataflow design space of `kernel`.
///
/// Returns one representative [`Dataflow`] per distinct signature (the first
/// candidate in enumeration order), sorted by name for determinism. See the
/// module docs for an example.
///
/// # Panics
///
/// Panics if `config.selections` is invalid for the kernel (use
/// [`enumerate_selections`] directly for fallible handling), or if
/// `config.max_coeff` is out of range (see [`enumerate_stt`]).
pub fn design_space(kernel: &Kernel, config: &DseConfig) -> Vec<Dataflow> {
    let _span = tensorlib_obs::span("dse.design_space");
    let selections =
        enumerate_selections(kernel, config).expect("valid DSE selections for kernel");
    let matrices = enumerate_stt(config);
    // Dedup keys: (selection tag id, per-tensor classes), equal exactly when
    // the signatures are.
    let mut tag_ids = HashMap::new();
    let mut seen = HashSet::new();
    let mut out: Vec<Dataflow> = Vec::new();
    for sel in &selections {
        let next_id = tag_ids.len();
        let tag_id = *tag_ids.entry(sel.tag()).or_insert(next_id);
        // Each tensor's integer reuse basis over this selection, built once.
        let idx = sel.indices();
        let bases: Vec<(TensorRole, ReuseBasis)> = kernel
            .tensors()
            .iter()
            .map(|t| (t.role(), ReuseBasis::of(&t.access().restrict_to(&idx))))
            .collect();
        // Classification dominates; fan it out across the worker pool. The
        // map preserves enumeration order, so the first-occurrence dedup and
        // the `max_designs` cap below keep exactly the serial semantics for
        // any worker count.
        let _sel_span = tensorlib_obs::span("dse.classification");
        let classified = par_map_indexed(&matrices, config.workers, 128, |_, stt| {
            bases
                .iter()
                .map(|(role, basis)| basis.classify(stt, *role))
                .collect::<Vec<FlowClass>>()
        });
        let before = out.len();
        for (stt, classes) in matrices.iter().zip(classified) {
            if seen.insert((tag_id, signature_key(&classes))) {
                let flows = kernel
                    .tensors()
                    .iter()
                    .zip(classes)
                    .map(|(t, class)| TensorFlow {
                        tensor: t.name().to_string(),
                        role: t.role(),
                        class,
                    })
                    .collect();
                out.push(Dataflow::from_parts(
                    kernel,
                    sel.clone(),
                    stt.clone(),
                    flows,
                ));
                if out.len() >= config.max_designs {
                    break;
                }
            }
        }
        tensorlib_obs::counter_add("dse.classified", matrices.len() as u64);
        tensorlib_obs::counter_add("dse.unique_designs", (out.len() - before) as u64);
        if out.len() >= config.max_designs {
            break;
        }
    }
    out.sort_by_cached_key(Dataflow::name);
    out
}

/// The per-tensor part of a dedup key: the classes as [`Dataflow::signature`]
/// renders them. `FlowClass`'s `Display` shows every field except a
/// broadcast's directions, so those are cleared.
fn signature_key(classes: &[FlowClass]) -> Vec<FlowClass> {
    classes
        .iter()
        .map(|c| match c {
            FlowClass::Broadcast { .. } => FlowClass::Broadcast { dps: [[0; 2]; 2] },
            other => other.clone(),
        })
        .collect()
}

/// Finds a dataflow by its paper-style name, e.g. `"KCX-SST"` for Conv2D.
///
/// The selection tag is matched against loop-name initials (in tag order);
/// the letters are matched with rank-2 aliases (see
/// [`crate::FlowClass::letter_aliases`]). Among all matching STT matrices the
/// simplest is returned (fewest nonzero entries, then smallest magnitudes),
/// which recovers the textbook transformation for the classic dataflows.
///
/// The canonical matrix is the matching one with the lowest simplicity score
/// (see above); ties go to the matrix [`enumerate_stt`] yields first.
/// Candidates are analyzed in that order — a stable sort by score — and the
/// search stops at the first match, so a name that resolves costs a handful
/// of analyses; only a name that matches nothing scans every candidate.
///
/// # Errors
///
/// Returns [`DataflowError::BadName`] if the name is malformed, names unknown
/// loops, or no candidate matrix realizes the requested letters.
///
/// # Examples
///
/// ```
/// use tensorlib_dataflow::dse::{find_named, DseConfig};
/// use tensorlib_ir::workloads;
///
/// let gemm = workloads::gemm(16, 16, 16);
/// let df = find_named(&gemm, "MNK-SST", &DseConfig::default())?;
/// assert_eq!(df.letters(), "SST");
/// # Ok::<(), tensorlib_dataflow::DataflowError>(())
/// ```
pub fn find_named(
    kernel: &Kernel,
    name: &str,
    config: &DseConfig,
) -> Result<Dataflow, DataflowError> {
    let _span = tensorlib_obs::span("dse.find_named");
    let (sel, letters) = parse_name(kernel, name)?;
    let mut candidates = enumerate_stt(config);
    // Stable: equal-cost matrices keep their enumeration order.
    candidates.sort_by_key(matrix_simplicity);
    for stt in candidates {
        let df = Dataflow::analyze(kernel, sel.clone(), stt)?;
        if df.matches_letters(letters) {
            return Ok(df);
        }
    }
    Err(DataflowError::BadName(name.to_string()))
}

/// Splits a paper-style dataflow name into its loop selection (tag initials
/// resolved to loop names, in tag order) and its flow letters.
fn parse_name<'a>(
    kernel: &Kernel,
    name: &'a str,
) -> Result<(LoopSelection, &'a str), DataflowError> {
    let (tag, letters) = name
        .split_once('-')
        .ok_or_else(|| DataflowError::BadName(name.to_string()))?;
    if tag.len() != 3 || letters.len() != kernel.tensors().len() {
        return Err(DataflowError::BadName(name.to_string()));
    }
    let mut loop_names = Vec::new();
    for ch in tag.chars() {
        let found = kernel
            .loop_nest()
            .names()
            .into_iter()
            .find(|n| n.chars().next().is_some_and(|c| c.eq_ignore_ascii_case(&ch)))
            .ok_or_else(|| DataflowError::BadName(name.to_string()))?;
        loop_names.push(found.to_string());
    }
    let sel = LoopSelection::by_names(
        kernel,
        [&loop_names[0], &loop_names[1], &loop_names[2]],
    )?;
    Ok((sel, letters))
}

/// Complexity score used to pick the canonical matrix for a named dataflow:
/// nonzero entries weigh 4, plus total magnitude, plus 1 per negative entry —
/// so permutation matrices beat skewed ones, positive skews beat mirrored
/// ones, and anything with ±2 entries comes last.
fn matrix_simplicity(stt: &Stt) -> u64 {
    let mut score = 0u64;
    for row in stt.rows() {
        for &e in row {
            if e != 0 {
                score += 4 + e.unsigned_abs();
            }
            if e < 0 {
                score += 1;
            }
        }
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensorlib_ir::workloads;

    #[test]
    fn stt_enumeration_counts() {
        let uni = enumerate_stt(&DseConfig::default());
        assert!(uni.iter().all(Stt::is_unimodular));
        // All {-1,0,1} unimodular 3x3 matrices: a fixed, deterministic set.
        assert_eq!(uni.len(), 6960);
        let nonsing = enumerate_stt(&DseConfig {
            require_unimodular: false,
            ..DseConfig::default()
        });
        assert!(nonsing.len() > uni.len());
    }

    #[test]
    fn max_coeff_is_bounded_by_the_candidate_count() {
        assert_eq!(candidate_count(1), (3, 19_683));
        if usize::BITS == 64 {
            assert_eq!(candidate_count(68), (137, 137usize.pow(9)));
        }
        for bad in [-1, 69, i64::MAX] {
            let got = std::panic::catch_unwind(|| candidate_count(bad));
            let msg = *got.unwrap_err().downcast::<String>().unwrap();
            assert!(
                msg.contains("max_coeff") && msg.contains("at most 68"),
                "{msg}"
            );
        }
    }

    #[test]
    fn selection_enumeration_counts() {
        let conv = workloads::conv2d(4, 4, 4, 4, 3, 3);
        let sels = enumerate_selections(&conv, &DseConfig::default()).unwrap();
        assert_eq!(sels.len(), 20); // C(6,3)
        let gemm = workloads::gemm(4, 4, 4);
        assert_eq!(
            enumerate_selections(&gemm, &DseConfig::default())
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn explicit_selections_are_respected() {
        let conv = workloads::conv2d(4, 4, 4, 4, 3, 3);
        let cfg = DseConfig {
            selections: Some(vec![["k".into(), "c".into(), "x".into()]]),
            ..DseConfig::default()
        };
        let sels = enumerate_selections(&conv, &cfg).unwrap();
        assert_eq!(sels.len(), 1);
        assert_eq!(sels[0].tag(), "KCX");
    }

    #[test]
    fn gemm_design_space_contains_classics() {
        let gemm = workloads::gemm(16, 16, 16);
        let designs = design_space(&gemm, &DseConfig::default());
        for want in ["SST", "STS", "TSS", "MTM", "UUU"] {
            // UUU should NOT exist for GEMM: every tensor always has nullity
            // >= ... actually A has rank 2 access over 3 loops, so nullity 1.
            let found = designs.iter().any(|d| d.letters() == want);
            if want == "UUU" {
                assert!(!found, "GEMM admits no all-unicast dataflow");
            } else {
                assert!(found, "missing classic dataflow {want}");
            }
        }
        // Signatures are unique.
        let mut sigs: Vec<String> = designs.iter().map(Dataflow::signature).collect();
        sigs.sort();
        sigs.dedup();
        assert_eq!(sigs.len(), designs.len());
    }

    #[test]
    fn signature_key_partitions_like_signature() {
        // Under Conv2D's KCP selection some tensors are broadcast along
        // directions that differ between STTs with the same signature.
        let kernel = workloads::conv2d(4, 4, 4, 4, 3, 3);
        let sel = LoopSelection::by_names(&kernel, ["k", "c", "p"]).unwrap();
        let mut by_sig: HashMap<String, Vec<FlowClass>> = HashMap::new();
        let mut by_key: HashMap<Vec<FlowClass>, String> = HashMap::new();
        let mut raw = HashSet::new();
        for stt in enumerate_stt(&DseConfig::default()) {
            let df = Dataflow::analyze(&kernel, sel.clone(), stt).unwrap();
            let classes: Vec<FlowClass> = df.flows().iter().map(|f| f.class.clone()).collect();
            let key = signature_key(&classes);
            let sig = df.signature();
            raw.insert(classes);
            assert_eq!(
                by_sig.entry(sig.clone()).or_insert_with(|| key.clone()),
                &key
            );
            assert_eq!(by_key.entry(key).or_insert_with(|| sig.clone()), &sig);
        }
        assert_eq!(by_sig.len(), by_key.len());
        assert!(
            raw.len() > by_sig.len(),
            "some signatures hide broadcast directions"
        );
    }

    #[test]
    fn find_named_recovers_textbook_matrices() {
        let gemm = workloads::gemm(16, 16, 16);
        let cfg = DseConfig::default();
        let sst = find_named(&gemm, "MNK-SST", &cfg).unwrap();
        assert_eq!(sst.letters(), "SST");
        assert!(sst.stt().is_unimodular());
        let sts = find_named(&gemm, "MNK-STS", &cfg).unwrap();
        assert_eq!(sts.letters(), "STS");
        // Bad names.
        assert!(find_named(&gemm, "MNK", &cfg).is_err());
        assert!(find_named(&gemm, "ZZZ-SST", &cfg).is_err());
        assert!(find_named(&gemm, "MNK-XX", &cfg).is_err());
    }

    #[test]
    fn find_named_conv2d_paper_dataflows() {
        let conv = workloads::conv2d(8, 8, 8, 8, 3, 3);
        let cfg = DseConfig::default();
        for name in ["KCX-SST", "KCX-STS", "XYP-MMT"] {
            let df = find_named(&conv, name, &cfg).unwrap_or_else(|e| {
                panic!("paper dataflow {name} must exist: {e}");
            });
            assert_eq!(df.selection().tag(), &name[..3]);
        }
    }

    /// The exhaustive scan `find_named` replaced, over every candidate
    /// analyzed under one selection in enumeration order: keep the matching
    /// dataflow with the strictly lowest score, so the first-enumerated
    /// matrix wins ties.
    fn exhaustive_pick<'a>(analyzed: &'a [Dataflow], letters: &str) -> Option<&'a Dataflow> {
        let mut best: Option<(u64, &Dataflow)> = None;
        for df in analyzed {
            if df.matches_letters(letters) {
                let cost = matrix_simplicity(df.stt());
                if best.is_none_or(|(c, _)| cost < c) {
                    best = Some((cost, df));
                }
            }
        }
        best.map(|(_, df)| df)
    }

    #[test]
    fn find_named_matches_exhaustive_scan_on_fig5_names() {
        // Figure 5's §VI-A names on its kernels, at small extents: the
        // winning matrix depends only on the access functions.
        let cases = [
            (
                workloads::gemm(4, 4, 4),
                &["MNK-MTM", "MNK-MMT", "MNK-SST", "MNK-STS", "MNK-TSS"][..],
            ),
            (
                workloads::batched_gemv(4, 4, 4),
                &["MNK-UTS", "MNK-UST", "MNK-UTM"][..],
            ),
            (
                workloads::conv2d(4, 4, 4, 4, 3, 3),
                &[
                    "KCX-SST", "KCX-STS", "XYP-MMT", "XYP-MST", "XYP-SMM", "KPX-TMM", "KPX-MST",
                ][..],
            ),
            (
                workloads::depthwise_conv(4, 4, 4, 3, 3),
                &["KPX-MMM", "XYP-MMM", "KYX-MST", "KYX-SST"][..],
            ),
            (
                workloads::mttkrp(4, 4, 4, 4),
                &["IKL-UBBB", "IJK-SBST", "IJK-TBSS"][..],
            ),
            (
                workloads::ttmc(4, 4, 4, 4, 4),
                &["IJK-BBBU", "ILM-SSBT", "ILM-TSBS"][..],
            ),
        ];
        let cfg = DseConfig::default();
        let (mut resolved, mut unresolved) = (0, 0);
        for (kernel, names) in &cases {
            // Names sharing a selection share one exhaustive analysis.
            let mut analyzed: HashMap<String, Vec<Dataflow>> = HashMap::new();
            for name in *names {
                let (sel, letters) = parse_name(kernel, name).unwrap();
                let space = analyzed.entry(sel.tag()).or_insert_with(|| {
                    enumerate_stt(&cfg)
                        .into_iter()
                        .map(|stt| Dataflow::analyze(kernel, sel.clone(), stt).unwrap())
                        .collect()
                });
                let context = format!("{} {name}", kernel.name());
                match (
                    find_named(kernel, name, &cfg),
                    exhaustive_pick(space, letters),
                ) {
                    (Ok(got), Some(want)) => {
                        assert_eq!(got.stt(), want.stt(), "{context}");
                        assert_eq!(got.letters(), want.letters(), "{context}");
                        resolved += 1;
                    }
                    (Err(DataflowError::BadName(_)), None) => unresolved += 1,
                    (got, want) => panic!("{context}: {got:?} vs exhaustive {want:?}"),
                }
            }
        }
        // Both outcomes are exercised.
        assert_eq!((resolved, unresolved), (18, 7));
    }

    #[test]
    fn max_designs_caps_output() {
        let gemm = workloads::gemm(8, 8, 8);
        let cfg = DseConfig {
            max_designs: 5,
            ..DseConfig::default()
        };
        assert_eq!(design_space(&gemm, &cfg).len(), 5);
    }
}
