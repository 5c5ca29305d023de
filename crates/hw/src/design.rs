//! End-to-end accelerator generation: dataflow in, validated design out.

use std::collections::HashMap;
use std::fmt;

use serde::Serialize;
use tensorlib_dataflow::{Dataflow, FlowClass};
use tensorlib_ir::DataType;

use crate::array::{
    array_catalog, build_array, ArrayCatalog, ArrayConfig, ArrayPort, HwError, PortGroup, PortKind,
};
use crate::ctrl::{build_controller, CtrlPhases};
use crate::fault::{build_tmr_controller, Hardening, TMR_VOTER_GATE_BITS};
use crate::mem::MemBank;
use crate::netlist::{Dir, Expr, Module, NetlistError};
use crate::pe::{build_pe, PeIoKind, PeSpec, PeTensorSpec};
use crate::tiling::{tile_for_array, Tiling};

/// Generation-time configuration for one accelerator instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct HwConfig {
    /// PE-array dimensions.
    pub array: ArrayConfig,
    /// Element datatype.
    pub datatype: DataType,
    /// SIMD lanes per PE (the paper's FPGA build uses 8). The netlist is
    /// built for one lane; vectorization scales the resource summary.
    pub vectorize: u32,
    /// Fault-tolerance hardening options (pay-for-use: `Hardening::none()`
    /// generates the identical design as before hardening existed).
    pub hardening: Hardening,
}

impl Default for HwConfig {
    fn default() -> HwConfig {
        HwConfig {
            array: ArrayConfig::default(),
            datatype: DataType::Int16,
            vectorize: 1,
            hardening: Hardening::none(),
        }
    }
}

/// Resource census of a generated design, consumed by the cost models.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct ResourceSummary {
    /// Array rows.
    pub pe_rows: usize,
    /// Array columns.
    pub pe_cols: usize,
    /// SIMD lanes per PE.
    pub vectorize: u32,
    /// Total PEs.
    pub pes: u64,
    /// Multipliers across the array (lanes included).
    pub multipliers: u64,
    /// Adders inside PEs (lanes included).
    pub pe_adders: u64,
    /// Adders in reduction trees (lanes included).
    pub tree_adders: u64,
    /// Register bits inside PEs (lanes included).
    pub pe_reg_bits: u64,
    /// Register bits in reduction trees (lanes included).
    pub tree_reg_bits: u64,
    /// Mux data bits inside PEs (lanes included).
    pub mux_bits: u64,
    /// Number of multicast/broadcast array ports.
    pub multicast_ports: u64,
    /// Largest combinational fanout of any data port.
    pub max_fanout: u64,
    /// Per-PE streaming input ports (unicast inputs).
    pub unicast_in_ports: u64,
    /// Per-PE result ports (unicast outputs).
    pub unicast_out_ports: u64,
    /// Boundary chain feed ports (systolic heads + stationary chain loads).
    pub chain_feed_ports: u64,
    /// Input bits the array consumes per compute cycle (lanes included).
    pub stream_bits_per_cycle: u64,
    /// Output bits the array produces per compute cycle (lanes included).
    pub output_bits_per_cycle: u64,
    /// Scratchpad bank instances.
    pub mem_banks: u64,
    /// Total scratchpad bits.
    pub mem_bits: u64,
    /// Tensors held stationary in PEs.
    pub stationary_tensors: u32,
    /// Distinct control signals fanned across the array.
    pub control_wires: u32,
    /// Register bits in the controller.
    pub ctrl_reg_bits: u64,
    /// Extra scratchpad bits spent on per-word parity (already included in
    /// `mem_bits`; informational).
    pub parity_bits: u64,
    /// Gate-bit equivalent of TMR majority voters (already included in
    /// `mux_bits`; informational).
    pub voter_bits: u64,
    /// Extra checksum-row/column/corner PEs for ABFT (already folded into
    /// the compute censuses; informational).
    pub abft_pes: u64,
}

impl ResourceSummary {
    /// Total adders (PE + tree).
    pub fn total_adders(&self) -> u64 {
        self.pe_adders + self.tree_adders
    }

    /// Total register bits (PE + tree + controller).
    pub fn total_reg_bits(&self) -> u64 {
        self.pe_reg_bits + self.tree_reg_bits + self.ctrl_reg_bits
    }
}

/// One scratchpad bank instance bound to an array port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct BankBinding {
    /// Index of the bank template in [`DesignPlan::mem_banks`].
    pub bank: usize,
    /// The array port it serves, as an index in catalog port order
    /// ([`DesignPlan::array_ports`]).
    pub port: usize,
}

impl BankBinding {
    /// The bank's instance name in the top module; `port_name` is the name
    /// of the port it serves.
    pub fn instance(&self, port_name: &str) -> String {
        format!("bank_{}_{port_name}", self.port)
    }
}

/// Stage one of generation: everything about an accelerator that the cost
/// and cycle models read, computed without building the array netlist.
///
/// A plan holds the name, the PE spec and its one PE module, the array's
/// port catalog and reduction-tree census, the tiling and controller
/// phases, the controller modules, the memory plan, and the resource
/// summary. It names no array port: the catalog keeps one record per port
/// group, and [`DesignPlan::array_ports`] formats the names on demand.
/// [`DesignPlan::build`] (stage two) adds the reduction-tree modules, the
/// wired array, and the top level. `perf::estimate`,
/// `asic_cost` and `fpga_cost` score a plan directly, which is how
/// `explore` ranks thousands of candidates without building any of them.
///
/// # Examples
///
/// ```
/// use tensorlib_dataflow::{Dataflow, LoopSelection, Stt};
/// use tensorlib_hw::design::{generate, plan, HwConfig};
/// use tensorlib_ir::workloads;
///
/// let gemm = workloads::gemm(64, 64, 64);
/// let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"])?;
/// let df = Dataflow::analyze(&gemm, sel, Stt::output_stationary())?;
/// let p = plan(&df, &HwConfig::default()).expect("wireable dataflow");
/// assert_eq!(p.summary().pes, 256);
/// let design = p.build();
/// assert_eq!(design.summary(), generate(&df, &HwConfig::default()).unwrap().summary());
/// # Ok::<(), tensorlib_dataflow::DataflowError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DesignPlan {
    name: String,
    dataflow: Dataflow,
    config: HwConfig,
    pe_spec: PeSpec,
    pe: Module,
    array: ArrayCatalog,
    tiling: Tiling,
    phases: CtrlPhases,
    ctrl: Vec<Module>,
    mem_banks: Vec<MemBank>,
    bank_bindings: Vec<BankBinding>,
    summary: ResourceSummary,
}

impl DesignPlan {
    /// The design's name (derived from the dataflow name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The dataflow this design implements.
    pub fn dataflow(&self) -> &Dataflow {
        &self.dataflow
    }

    /// The generation configuration.
    pub fn config(&self) -> &HwConfig {
        &self.config
    }

    /// The tile mapping onto the array.
    pub fn tiling(&self) -> &Tiling {
        &self.tiling
    }

    /// The controller phase budget for one tile.
    pub fn phases(&self) -> &CtrlPhases {
        &self.phases
    }

    /// Unique memory bank templates.
    pub fn mem_banks(&self) -> &[MemBank] {
        &self.mem_banks
    }

    /// Bank instance bindings (which bank serves which array port).
    pub fn bank_bindings(&self) -> &[BankBinding] {
        &self.bank_bindings
    }

    /// The bank template `binding` instantiates.
    pub fn bank(&self, binding: &BankBinding) -> &MemBank {
        &self.mem_banks[binding.bank]
    }

    /// The port group of the array port `binding` serves: its tensor,
    /// kind and width.
    pub fn port_group(&self, binding: &BankBinding) -> &PortGroup {
        self.array.group_of(binding.port)
    }

    /// The array's port catalog and reduction-tree census.
    pub fn array_catalog(&self) -> &ArrayCatalog {
        &self.array
    }

    /// The array's top-level data ports, named, in catalog port order.
    /// Each call formats every port name; the census and the cost models
    /// read [`ArrayCatalog::port_shapes`] instead.
    pub fn array_ports(&self) -> Vec<ArrayPort> {
        self.array.ports()
    }

    /// The resource census.
    pub fn summary(&self) -> &ResourceSummary {
        &self.summary
    }

    /// Stage two of generation: builds the reduction-tree modules, wires
    /// the PE array from the port catalog, and wires the top level around
    /// the controller and one bank per array port.
    pub fn build(self) -> AcceleratorDesign {
        let _span = tensorlib_obs::span("hw.elaboration");
        let array_name = format!("{}_array", self.name);
        let port_names = self.array.port_names();
        let top = self.build_top(&array_name, &port_names);
        let array = build_array(
            &array_name,
            &self.pe_spec,
            self.dataflow.flows(),
            &self.config.array,
            &self.array,
            port_names,
        );
        let mut modules = vec![self.pe.clone()];
        modules.extend(self.array.tree_modules());
        modules.extend(self.ctrl.iter().cloned());
        modules.push(array);
        let top_name = top.name().to_string();
        modules.push(top);
        AcceleratorDesign {
            plan: self,
            modules,
            top: top_name,
        }
    }

    /// The top module: controller, one bank per array port (named by
    /// `port_names`, the catalog's), and the array.
    fn build_top(&self, array_name: &str, port_names: &[String]) -> Module {
        let name = &self.name;
        let mut top = Module::new(format!("{name}_top"));
        let start = top.input("start", 1);
        let done = top.output("done", 1);
        let fill_en = top.input("fill_en", 1);
        let en = top.net("en", 1);
        let load_en = top.net("load_en", 1);
        let phase = top.net("phase", 1);
        let swap = top.net("swap", 1);
        let drain_en = top.net("drain_en", 1);
        let mut ctrl_conns = vec![
            ("start".to_string(), start),
            ("en".into(), en),
            ("load_en".into(), load_en),
            ("phase".into(), phase),
            ("swap".into(), swap),
            ("drain_en".into(), drain_en),
            ("done".into(), done),
        ];
        if self.config.hardening.tmr_ctrl {
            // Surface the TMR divergence detector at the top level.
            let mismatch = top.output("tmr_mismatch", 1);
            ctrl_conns.push(("tmr_mismatch".into(), mismatch));
        }
        top.instance(format!("{name}_ctrl"), "ctrl_i".to_string(), ctrl_conns);

        let mut array_conns = vec![("en".to_string(), en)];
        if self.pe_spec.needs_load_phase() {
            array_conns.push(("load_en".into(), load_en));
            array_conns.push(("phase".into(), phase));
        }
        if self.pe_spec.needs_swap_drain() {
            array_conns.push(("swap".into(), swap));
            array_conns.push(("drain_en".into(), drain_en));
        }
        for (bi, binding) in self.bank_bindings.iter().enumerate() {
            let port = self.port_group(binding);
            let port_name = &port_names[binding.port];
            let data_net = top.net(format!("n_{port_name}"), port.width);
            array_conns.push((port_name.clone(), data_net));
            let bank = self.bank(binding);
            let mut conns: Vec<(String, usize)> = Vec::new();
            if port.kind.is_input() {
                // Bank streams into the array; filled from outside.
                let fill = top.input(format!("fill_{bi}"), port.width);
                let stream_en = if port.kind == PortKind::StationaryLoad {
                    load_en
                } else {
                    en
                };
                conns.push(("en".into(), stream_en));
                conns.push(("wen".into(), fill_en));
                conns.push(("wdata".into(), fill));
                conns.push(("rdata".into(), data_net));
            } else {
                // Bank captures array results; exposed for readback.
                let out = top.output(format!("result_{bi}"), port.width);
                let capture_en = if port.kind == PortKind::StationaryDrain {
                    drain_en
                } else {
                    en
                };
                let read_back = top.input(format!("readback_{bi}"), 1);
                conns.push(("en".into(), read_back));
                conns.push(("wen".into(), capture_en));
                conns.push(("wdata".into(), data_net));
                let rd = top.net(format!("rd_{bi}"), port.width);
                conns.push(("rdata".into(), rd));
                top.assign(out, Expr::net(rd));
            }
            if bank.is_double_buffered() {
                conns.push(("buf_sel".into(), phase));
            }
            top.instance(bank.module_name(), binding.instance(port_name), conns);
        }
        top.instance(array_name.to_string(), "array_i".to_string(), array_conns);
        top
    }
}

/// A complete generated accelerator: its [`DesignPlan`] (tiling, memory
/// plan, resource summary, ...), reachable through `Deref`, plus the
/// netlist modules.
///
/// # Examples
///
/// ```
/// use tensorlib_dataflow::{Dataflow, LoopSelection, Stt};
/// use tensorlib_hw::design::{generate, HwConfig};
/// use tensorlib_ir::workloads;
///
/// let gemm = workloads::gemm(64, 64, 64);
/// let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"])?;
/// let df = Dataflow::analyze(&gemm, sel, Stt::output_stationary())?;
/// let design = generate(&df, &HwConfig::default()).expect("wireable dataflow");
/// design.validate().expect("structurally sound");
/// assert_eq!(design.summary().pes, 256);
/// # Ok::<(), tensorlib_dataflow::DataflowError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AcceleratorDesign {
    plan: DesignPlan,
    modules: Vec<Module>,
    top: String,
}

impl std::ops::Deref for AcceleratorDesign {
    type Target = DesignPlan;

    fn deref(&self) -> &DesignPlan {
        &self.plan
    }
}

impl AcceleratorDesign {
    /// All netlist modules (PE, trees, controller, array, top).
    pub fn modules(&self) -> &[Module] {
        &self.modules
    }

    /// The module named `name`, if present.
    pub fn module(&self, name: &str) -> Option<&Module> {
        self.modules.iter().find(|m| m.name() == name)
    }

    /// Name of the top module.
    pub fn top(&self) -> &str {
        &self.top
    }

    /// Runs the [`crate::opt`] rewrite pipeline over every module in place
    /// and returns the pre/post census. Ports, registers, instances, and
    /// net names are preserved (see the optimizer's preservation contract),
    /// so traces, fault campaigns, and testbenches observe an identical
    /// interface; the [`ResourceSummary`] census is computed at generation
    /// time from the template structure and is deliberately left untouched.
    pub fn optimize(&mut self, opts: &crate::opt::OptOptions) -> crate::opt::OptStats {
        let pre = crate::opt::netlist_stats(&self.modules);
        self.optimize_without_census(opts);
        let post = crate::opt::netlist_stats(&self.modules);
        crate::opt::OptStats { pre, post }
    }

    /// [`AcceleratorDesign::optimize`] without the census: the optimizer
    /// core alone, moving the modules through it.
    pub fn optimize_without_census(&mut self, opts: &crate::opt::OptOptions) {
        self.modules = crate::opt::optimize(std::mem::take(&mut self.modules), &self.top, opts);
    }

    /// Validates the whole design: per-module structural checks plus
    /// cross-module instance checking (module existence, port existence,
    /// width agreement, and a full driver census including instance outputs).
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError`] found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for m in &self.modules {
            m.validate()?;
        }
        validate_modules(&self.modules, &self.mem_banks)
    }
}

/// Cross-module validation over a bare module list: instance module/port
/// existence, connection width agreement, and the extended driver census in
/// which instance outputs count as drivers. Memory-bank templates in `banks`
/// are referencable by their [`MemBank::module_name`] interface.
///
/// This is the census behind [`AcceleratorDesign::validate`], exposed as a
/// free function so externally parsed documents
/// ([`crate::text::NetlistDoc::validate`]) get the identical checks.
///
/// # Errors
///
/// Returns the first [`NetlistError`] found. Per-module structural checks
/// ([`Module::validate`]) are the caller's responsibility.
pub fn validate_modules(modules: &[Module], banks: &[MemBank]) -> Result<(), NetlistError> {
    // Port tables for all referencable modules.
    let mut port_tables: HashMap<&str, &Module> = HashMap::new();
    for m in modules {
        port_tables.insert(m.name(), m);
    }
    let bank_interfaces: Vec<Module> = banks.iter().map(MemBank::interface_module).collect();
    for b in &bank_interfaces {
        port_tables.insert(b.name(), b);
    }

    {
        for m in modules {
            // Cross-module checks + extended driver census.
            let mut drivers: Vec<u32> = vec![0; m.nets().len()];
            let mut read: Vec<bool> = vec![false; m.nets().len()];
            for (id, dir) in m.ports() {
                if *dir == Dir::Input {
                    drivers[*id] += 1;
                } else {
                    read[*id] = true; // output ports must be driven
                }
            }
            for (target, expr) in m.assigns() {
                drivers[*target] += 1;
                let mut reads = Vec::new();
                expr.collect_reads(&mut reads);
                for r in reads {
                    read[r] = true;
                }
            }
            for r in m.regs() {
                drivers[r.target] += 1;
                let mut reads = Vec::new();
                r.next.collect_reads(&mut reads);
                if let Some(e) = &r.enable {
                    e.collect_reads(&mut reads);
                }
                for x in reads {
                    read[x] = true;
                }
            }
            for inst in m.instances() {
                let child = port_tables.get(inst.module.as_str()).ok_or_else(|| {
                    NetlistError::BadInstance {
                        module: m.name().to_string(),
                        instance: inst.name.clone(),
                        reason: format!("unknown module {:?}", inst.module),
                    }
                })?;
                for (port, net) in &inst.connections {
                    let dir = child.port_dir(port).ok_or_else(|| NetlistError::BadInstance {
                        module: m.name().to_string(),
                        instance: inst.name.clone(),
                        reason: format!("module {:?} has no port {port:?}", inst.module),
                    })?;
                    let child_width = child
                        .ports()
                        .iter()
                        .find(|(id, _)| child.nets()[*id].name == *port)
                        .map(|(id, _)| child.nets()[*id].width)
                        .expect("port exists");
                    let net_width = m.nets()[*net].width;
                    if child_width != net_width {
                        return Err(NetlistError::BadInstance {
                            module: m.name().to_string(),
                            instance: inst.name.clone(),
                            reason: format!(
                                "port {port:?} is {child_width} bits, net is {net_width}"
                            ),
                        });
                    }
                    match dir {
                        Dir::Output => drivers[*net] += 1,
                        Dir::Input => read[*net] = true,
                    }
                }
            }
            for (id, (&d, &r)) in drivers.iter().zip(read.iter()).enumerate() {
                if d > 1 {
                    return Err(NetlistError::MultipleDrivers {
                        module: m.name().to_string(),
                        net: m.nets()[id].name.clone(),
                    });
                }
                if d == 0 && r {
                    return Err(NetlistError::NoDriver {
                        module: m.name().to_string(),
                        net: m.nets()[id].name.clone(),
                    });
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for AcceleratorDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}x{} {} array, {} modules, {} banks",
            self.name,
            self.config.array.rows,
            self.config.array.cols,
            self.config.datatype,
            self.modules.len(),
            self.bank_bindings.len()
        )
    }
}

fn next_pow2(v: u64) -> u64 {
    v.max(1).next_power_of_two()
}

/// Register stages between a scratchpad bank and the PE it feeds: the
/// bank's registered `rdata` plus the array-edge operand register. The
/// controller's compute phase extends past the schedule's t-extent by this
/// many cycles on stationary-output designs so the `swap` capture sees the
/// final in-flight products (verified end-to-end by the resilience
/// campaign's golden-versus-reference cross-check).
pub const STREAM_PIPELINE_LATENCY: u64 = 2;

/// Generates the complete accelerator for `dataflow`: [`plan`] followed by
/// [`DesignPlan::build`].
///
/// Pipeline: PE template selection (Figure 3) → PE assembly → array port
/// catalog (Figure 4) → tiling → controller → memory banking → resource
/// census → array interconnect → top-level wiring.
///
/// # Errors
///
/// Returns [`HwError`] if the dataflow's reuse steps cannot be wired
/// (non-neighbour `dp`) or the array is degenerate.
pub fn generate(dataflow: &Dataflow, cfg: &HwConfig) -> Result<AcceleratorDesign, HwError> {
    plan(dataflow, cfg).map(DesignPlan::build)
}

/// Plans the accelerator for `dataflow` without building its array
/// netlist: stage one of [`generate`], and all the cost and cycle models
/// need.
///
/// # Errors
///
/// Returns [`HwError`] if the dataflow's reuse steps cannot be wired
/// (non-neighbour `dp`) or the array is degenerate — exactly when
/// [`generate`] fails.
pub fn plan(dataflow: &Dataflow, cfg: &HwConfig) -> Result<DesignPlan, HwError> {
    let _span = tensorlib_obs::span("hw.plan");
    let mut name = format!(
        "{}_{}",
        dataflow.kernel_name().to_lowercase().replace('-', "_"),
        dataflow.name().to_lowercase().replace('-', "_")
    );
    if cfg.hardening.is_any() {
        // Hardened variants are distinct designs (and module namespaces).
        name.push_str(&cfg.hardening.suffix().replace('+', "_"));
    }

    // 1. PE.
    let pe_spec = PeSpec {
        name: format!("{name}_pe"),
        datatype: cfg.datatype,
        tensors: dataflow
            .flows()
            .iter()
            .map(|f| PeTensorSpec {
                tensor: f.tensor.clone(),
                kind: PeIoKind::for_flow(&f.class, f.role),
                delay: match &f.class {
                    FlowClass::Systolic { dt, .. } => dt.unsigned_abs() as u32,
                    FlowClass::SystolicMulticast { systolic_dt, .. } => {
                        systolic_dt.unsigned_abs() as u32
                    }
                    _ => 1,
                },
            })
            .collect(),
    };
    let pe = build_pe(&pe_spec);

    // 2. Array ports and reduction trees.
    let array = array_catalog(
        &format!("{name}_array"),
        &pe_spec,
        dataflow.flows(),
        &cfg.array,
    )?;

    // 3. Tiling and controller phases.
    let tiling = tile_for_array(dataflow.stt(), dataflow.selected_extents(), &cfg.array);
    let has_stationary_in = pe_spec.needs_load_phase();
    let has_stationary_out = pe_spec.needs_swap_drain();
    // Stationary-output designs capture accumulators on `swap`, so the
    // compute phase must outlast the schedule's t-extent by the streaming
    // pipeline depth (registered bank rdata + the PE operand register):
    // the last scheduled operand pair is still in flight when cycle
    // t_extent-1 ends, and swapping then would drop its product.
    let compute_tail = if has_stationary_out {
        STREAM_PIPELINE_LATENCY
    } else {
        0
    };
    let phases = CtrlPhases {
        load_cycles: if has_stationary_in {
            cfg.array.rows as u64
        } else {
            0
        },
        compute_cycles: tiling.t_extent + compute_tail,
        drain_cycles: if has_stationary_out {
            cfg.array.rows as u64
        } else {
            0
        },
    };
    let ctrl_name = format!("{name}_ctrl");
    // Plain controller, or a TMR-voted triple with a mismatch detector.
    let (ctrl, ctrl_reg_bits) = if cfg.hardening.tmr_ctrl {
        let mods = build_tmr_controller(&ctrl_name, &phases);
        let bits = mods[0].reg_bits() * 3;
        (mods, bits)
    } else {
        let ctrl = build_controller(&ctrl_name, &phases);
        let bits = ctrl.reg_bits();
        (vec![ctrl], bits)
    };

    // 4. Memory plan: one bank instance per array data port. A port's
    // bank template depends only on its group's kind and width.
    let mut mem_banks: Vec<MemBank> = Vec::new();
    let mut bank_bindings = Vec::with_capacity(array.port_count());
    for group in &array.groups {
        let stationary = matches!(
            group.kind,
            PortKind::StationaryLoad | PortKind::StationaryDrain
        );
        let words = match group.kind {
            PortKind::StationaryLoad => next_pow2(cfg.array.rows as u64).max(16),
            _ => next_pow2(tiling.t_extent).clamp(16, 65_536),
        };
        let mut bank = MemBank::new(words, group.width, stationary);
        if cfg.hardening.parity_banks {
            bank = bank.with_parity();
        }
        let bank = match mem_banks.iter().position(|b| *b == bank) {
            Some(existing) => existing,
            None => {
                mem_banks.push(bank);
                mem_banks.len() - 1
            }
        };
        bank_bindings.extend(group.ports.clone().map(|port| BankBinding { bank, port }));
    }

    // 5. Resource census.
    let lanes = cfg.vectorize as u64;
    let pe_ops = pe.count_ops();
    let pes = cfg.array.pes() as u64;
    // ABFT adds one checksum row, column, and corner PE worth of compute;
    // TMR adds the voter gates (priced as mux bits).
    let abft_pes = if cfg.hardening.abft {
        (cfg.array.rows + cfg.array.cols + 1) as u64
    } else {
        0
    };
    let compute_pes = pes + abft_pes;
    let voter_bits = if cfg.hardening.tmr_ctrl {
        TMR_VOTER_GATE_BITS
    } else {
        0
    };
    let mut summary = ResourceSummary {
        pe_rows: cfg.array.rows,
        pe_cols: cfg.array.cols,
        vectorize: cfg.vectorize,
        pes,
        multipliers: pe_ops.multipliers * compute_pes * lanes,
        pe_adders: pe_ops.adders * compute_pes * lanes,
        tree_adders: array.tree_adders * lanes,
        pe_reg_bits: pe.reg_bits() * compute_pes * lanes,
        tree_reg_bits: array.tree_reg_bits * lanes,
        mux_bits: pe_ops.mux_bits * compute_pes * lanes + voter_bits,
        voter_bits,
        abft_pes,
        stationary_tensors: dataflow
            .flows()
            .iter()
            .filter(|f| f.class.is_stationary_like())
            .count() as u32,
        control_wires: 1
            + if has_stationary_in { 2 } else { 0 }
            + if has_stationary_out { 2 } else { 0 },
        ctrl_reg_bits,
        ..ResourceSummary::default()
    };
    for port in array.port_shapes() {
        summary.max_fanout = summary.max_fanout.max(port.fanout as u64);
        match port.kind {
            PortKind::Multicast => {
                summary.multicast_ports += 1;
                summary.stream_bits_per_cycle += port.width as u64 * lanes;
            }
            PortKind::SystolicFeed => {
                summary.chain_feed_ports += 1;
                summary.stream_bits_per_cycle += port.width as u64 * lanes;
            }
            PortKind::Unicast => {
                summary.unicast_in_ports += 1;
                summary.stream_bits_per_cycle += port.width as u64 * lanes;
            }
            PortKind::StationaryLoad => {
                summary.chain_feed_ports += 1;
            }
            PortKind::SystolicDrain | PortKind::ReduceSum => {
                summary.output_bits_per_cycle += port.width as u64 * lanes;
            }
            PortKind::UnicastOut => {
                summary.unicast_out_ports += 1;
                summary.output_bits_per_cycle += port.width as u64 * lanes;
            }
            PortKind::StationaryDrain => {}
        }
    }
    for binding in &bank_bindings {
        let bank = &mem_banks[binding.bank];
        summary.mem_banks += 1;
        summary.mem_bits += bank.bits();
        if bank.has_parity() {
            let buffers = if bank.is_double_buffered() { 2 } else { 1 };
            summary.parity_bits += bank.words() * buffers;
        }
    }

    Ok(DesignPlan {
        name,
        dataflow: dataflow.clone(),
        config: *cfg,
        pe_spec,
        pe,
        array,
        tiling,
        phases,
        ctrl,
        mem_banks,
        bank_bindings,
        summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensorlib_dataflow::{dse, LoopSelection, Stt};
    use tensorlib_ir::workloads;

    fn gemm_design(rows: [[i64; 3]; 3]) -> AcceleratorDesign {
        let gemm = workloads::gemm(64, 64, 64);
        let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"]).unwrap();
        let df = Dataflow::analyze(&gemm, sel, Stt::from_rows(rows).unwrap()).unwrap();
        generate(&df, &HwConfig::default()).unwrap()
    }

    #[test]
    fn output_stationary_design_validates() {
        let d = gemm_design([[1, 0, 0], [0, 1, 0], [1, 1, 1]]);
        d.validate().unwrap();
        let s = d.summary();
        assert_eq!(s.pes, 256);
        assert_eq!(s.multipliers, 256);
        // Output stationary: C held in PEs.
        assert_eq!(s.stationary_tensors, 1);
        // Feeds: 16 A-rows + 16 B-columns.
        assert_eq!(s.chain_feed_ports, 32);
        assert!(d.module(d.top()).is_some());
        assert!(d.to_string().contains("16x16"));
    }

    #[test]
    fn multicast_design_has_trees_and_fanout() {
        let d = gemm_design([[0, 1, 0], [0, 0, 1], [1, 0, 0]]);
        d.validate().unwrap();
        let s = d.summary();
        assert!(s.tree_adders > 0, "reduction trees expected");
        assert_eq!(s.max_fanout, 16);
        assert!(s.multicast_ports > 0);
    }

    #[test]
    fn unicast_design_has_per_pe_ports() {
        // Batched-GEMV forces unicast on A.
        let k = workloads::batched_gemv(32, 32, 32);
        let sel = LoopSelection::by_names(&k, ["m", "n", "k"]).unwrap();
        let df = Dataflow::analyze(&k, sel, Stt::output_stationary()).unwrap();
        let d = generate(&df, &HwConfig::default()).unwrap();
        d.validate().unwrap();
        assert_eq!(d.summary().unicast_in_ports, 256);
    }

    #[test]
    fn named_paper_dataflows_generate_and_validate() {
        let conv = workloads::conv2d(16, 16, 14, 14, 3, 3);
        let cfg = HwConfig::default();
        for name in ["KCX-SST", "KCX-STS"] {
            let df = dse::find_named(&conv, name, &dse::DseConfig::default()).unwrap();
            let d = generate(&df, &cfg).unwrap();
            d.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn vectorization_scales_summary_only() {
        let base = gemm_design([[1, 0, 0], [0, 1, 0], [1, 1, 1]]);
        let gemm = workloads::gemm(64, 64, 64);
        let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"]).unwrap();
        let df = Dataflow::analyze(&gemm, sel, Stt::output_stationary()).unwrap();
        let v8 = generate(
            &df,
            &HwConfig {
                vectorize: 8,
                ..HwConfig::default()
            },
        )
        .unwrap();
        assert_eq!(v8.summary().multipliers, base.summary().multipliers * 8);
        assert_eq!(v8.modules().len(), base.modules().len());
    }

    #[test]
    fn bank_plan_is_consistent() {
        let d = gemm_design([[1, 0, 0], [0, 1, 0], [1, 1, 1]]);
        assert_eq!(d.bank_bindings().len(), d.array_ports().len());
        assert_eq!(d.summary().mem_banks, d.bank_bindings().len() as u64);
        // Stationary drain banks are double-buffered.
        for b in d.bank_bindings() {
            let bank = d.bank(b);
            if matches!(
                d.port_group(b).kind,
                PortKind::StationaryLoad | PortKind::StationaryDrain
            ) {
                assert!(bank.is_double_buffered());
            }
        }
    }

    #[test]
    fn hardened_design_validates_and_prices_its_overhead() {
        let gemm = workloads::gemm(64, 64, 64);
        let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"]).unwrap();
        let df = Dataflow::analyze(&gemm, sel, Stt::output_stationary()).unwrap();
        let base = generate(&df, &HwConfig::default()).unwrap();
        let hard = generate(
            &df,
            &HwConfig {
                hardening: Hardening::full(),
                ..HwConfig::default()
            },
        )
        .unwrap();
        hard.validate().unwrap();
        assert_eq!(hard.name(), format!("{}_tmr_par_abft", base.name()));

        let (b, h) = (base.summary(), hard.summary());
        // TMR: triple the controller state, plus voter gates.
        assert_eq!(h.ctrl_reg_bits, b.ctrl_reg_bits * 3);
        assert_eq!(h.voter_bits, TMR_VOTER_GATE_BITS);
        // The top now exposes the divergence detector.
        let top = hard.module(hard.top()).unwrap();
        assert_eq!(top.port_dir("tmr_mismatch"), Some(Dir::Output));
        // Parity: one extra bit per stored word, counted in mem_bits.
        assert!(h.parity_bits > 0);
        assert_eq!(h.mem_bits, b.mem_bits + h.parity_bits);
        assert!(hard.mem_banks().iter().all(MemBank::has_parity));
        // ABFT: checksum row + column + corner worth of extra compute.
        assert_eq!(h.abft_pes, 16 + 16 + 1);
        assert_eq!(h.pes, b.pes, "array geometry is unchanged");
        assert_eq!(h.multipliers, b.multipliers + 33);
        // An unhardened config still produces the exact pre-hardening census.
        assert_eq!(b.voter_bits + b.parity_bits + b.abft_pes, 0);
    }

    #[test]
    fn hardened_design_simulates_and_detects_faults() {
        use crate::interp::{elaborate_design, Interpreter};

        let gemm = workloads::gemm(4, 4, 4);
        let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"]).unwrap();
        let df = Dataflow::analyze(&gemm, sel, Stt::output_stationary()).unwrap();
        let cfg = HwConfig {
            array: ArrayConfig { rows: 4, cols: 4 },
            hardening: Hardening {
                tmr_ctrl: true,
                parity_banks: true,
                abft: false,
            },
            ..HwConfig::default()
        };
        let d = generate(&df, &cfg).unwrap();
        d.validate().unwrap();
        let flat = elaborate_design(&d, d.top()).unwrap();
        let mut sim = Interpreter::new(flat);
        // Fault-free run: mismatch stays low through a full tile.
        sim.poke("start", 1);
        sim.step();
        sim.poke("start", 0);
        for _ in 0..40 {
            sim.step();
            assert_eq!(sim.peek("tmr_mismatch"), 0);
        }
        assert_eq!(sim.parity_error_count(), 0);
    }

    #[test]
    fn assign_vs_instance_output_double_drive_is_caught_at_design_level() {
        // `Module::validate` deliberately ignores instance connections (it
        // cannot see child port directions), so a net driven both by an
        // assign and by a child's output port sails through per-module
        // validation. The design-level census must catch exactly that.
        let mut d = gemm_design([[1, 0, 0], [0, 1, 0], [1, 1, 1]]);
        d.validate().expect("generated design is sound");
        let top_name = d.top.clone();
        let top = d
            .modules
            .iter_mut()
            .find(|m| m.name() == top_name)
            .unwrap();
        // "done" is already driven by the controller instance's output.
        let done = top
            .nets()
            .iter()
            .position(|n| n.name == "done")
            .expect("top has a done net");
        top.assign(done, Expr::lit(0, 1));
        assert!(
            top.validate().is_ok(),
            "per-module validation cannot see the instance driver"
        );
        match d.validate().unwrap_err() {
            NetlistError::MultipleDrivers { module, net } => {
                assert_eq!(module, top_name);
                assert_eq!(net, "done");
            }
            other => panic!("expected MultipleDrivers, got {other}"),
        }
    }

    #[test]
    fn tiling_is_exposed() {
        let d = gemm_design([[1, 0, 0], [0, 1, 0], [1, 1, 1]]);
        assert_eq!(d.tiling().tile_extents, [16, 16, 64]);
        // Stationary-output designs extend the compute phase by the
        // streaming pipeline depth so the swap capture is not early.
        let tail = if d.phases().drain_cycles > 0 {
            STREAM_PIPELINE_LATENCY
        } else {
            0
        };
        assert_eq!(d.phases().compute_cycles, d.tiling().t_extent + tail);
    }
}
