//! Simulation observability: hardware counters, a bounded event trace, and
//! VCD waveform export for the netlist interpreter.
//!
//! The interpreter is otherwise a black box — ports can be peeked, but
//! utilization, stalls, and scratchpad traffic are invisible. A
//! [`TraceConfig`] attached via [`crate::interp::Interpreter::with_trace`]
//! (or `attach_trace`) selects what to observe; the interpreter then
//! accumulates an [`InterpreterStats`] while it runs:
//!
//! - **Per-PE activity** ([`PeCounters`]): a PE *issues a MAC* in a cycle
//!   when the array enable is high and its `product` net is nonzero — with
//!   nonzero stimulus this counts exactly the useful multiply-accumulates.
//!   `enabled_cycles` counts every cycle the enable was high; the difference
//!   is pipeline-fill / drain slack inside the compute phase.
//! - **Per-bank scratchpad traffic** ([`BankCounters`]): a read (write) is a
//!   cycle with the bank's `en` (`wen`) high; a *conflict* is both in the
//!   same cycle — the behavioural model services both, but a single-ported
//!   SRAM would serialize them, so the counter is the design's port-pressure
//!   signal. A *swap* is a `buf_sel` toggle on a double-buffered bank.
//! - **Controller breakdown** ([`CtrlCounters`]): each cycle is attributed
//!   to load / compute / drain from the `load_en` / `en` / `drain_en` nets;
//!   cycles matching none of them are idle (stall) cycles. `swap_pulses`
//!   counts cycles with the ping-pong `swap` strobe high.
//!
//! Independently, any set of nets can be *watched*: every value change is
//! recorded into a bounded ring buffer of [`TraceEvent`]s (oldest events are
//! folded into the baseline when the ring overflows) and can be exported as
//! a VCD waveform with [`crate::interp::Interpreter::write_vcd`].
//! [`parse_vcd`] is a minimal reader for round-tripping the exported text.
//!
//! Everything here is strictly pay-for-what-you-use: an interpreter without
//! an attached trace carries a `None` and its step path is unchanged (the
//! perfgate bench enforces < 3 % overhead with tracing disabled).

use std::collections::VecDeque;
use std::fmt;

use serde::Serialize;

use crate::array::HwError;
use crate::interp::FlatDesign;

/// What the observability layer should record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Accumulate PE / bank / controller counters.
    pub counters: bool,
    /// Hierarchical names of nets to watch for the event trace / VCD export.
    pub watch: Vec<String>,
    /// Maximum retained [`TraceEvent`]s; older events are folded into the
    /// waveform baseline and counted in `events_dropped`.
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            counters: true,
            watch: Vec::new(),
            ring_capacity: 4096,
        }
    }
}

impl TraceConfig {
    /// Counters on, no watched nets (the cheapest useful configuration).
    pub fn counters_only() -> TraceConfig {
        TraceConfig::default()
    }

    /// Nothing recorded; attaching this is equivalent to no trace at all.
    pub fn disabled() -> TraceConfig {
        TraceConfig {
            counters: false,
            watch: Vec::new(),
            ring_capacity: 0,
        }
    }

    /// Adds watched nets (builder style).
    pub fn with_watch<I, S>(mut self, nets: I) -> TraceConfig
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.watch.extend(nets.into_iter().map(Into::into));
        self
    }

    /// `true` if attaching this config records anything.
    pub fn is_enabled(&self) -> bool {
        self.counters || !self.watch.is_empty()
    }
}

/// Activity counters for one processing element.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PeCounters {
    /// Hierarchical instance path (e.g. `array_i.pe_r0c1`).
    pub name: String,
    /// Row position parsed from the instance name (0 if unparsable).
    pub row: usize,
    /// Column position parsed from the instance name (0 if unparsable).
    pub col: usize,
    /// Cycles with the array enable high and a nonzero `product`.
    pub mac_cycles: u64,
    /// Cycles with the array enable high.
    pub enabled_cycles: u64,
}

impl PeCounters {
    /// Cycles this PE did no useful work, out of `total_cycles`.
    pub fn idle_cycles(&self, total_cycles: u64) -> u64 {
        total_cycles.saturating_sub(self.mac_cycles)
    }

    /// `mac_cycles / total_cycles` (0 when no cycles ran).
    pub fn utilization(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 {
            0.0
        } else {
            self.mac_cycles as f64 / total_cycles as f64
        }
    }
}

/// Scratchpad traffic counters for one memory bank.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct BankCounters {
    /// Bank instance path (e.g. `bank_0_a_feed0`).
    pub name: String,
    /// Words per buffer.
    pub words: u64,
    /// `true` if the bank is double-buffered.
    pub double_buffered: bool,
    /// Cycles with the read enable high.
    pub reads: u64,
    /// Cycles with the write enable high.
    pub writes: u64,
    /// Cycles with read *and* write enables high (port pressure).
    pub conflicts: u64,
    /// `buf_sel` toggles (double-buffer swaps).
    pub swaps: u64,
}

/// Controller-phase cycle breakdown.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct CtrlCounters {
    /// Cycles with the array enable (`en`) high.
    pub compute_cycles: u64,
    /// Cycles with the stationary-load enable (`load_en`) high.
    pub load_cycles: u64,
    /// Cycles with the drain enable (`drain_en`) high.
    pub drain_cycles: u64,
    /// Cycles matching no phase enable: the stall/startup residue.
    pub idle_cycles: u64,
    /// Cycles with the double-buffer `swap` strobe high.
    pub swap_pulses: u64,
}

/// Everything the observability layer accumulated over a run.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct InterpreterStats {
    /// Clock cycles stepped since the trace was attached.
    pub cycles: u64,
    /// Per-PE activity, in elaboration order.
    pub pes: Vec<PeCounters>,
    /// Per-bank traffic, in elaboration order.
    pub banks: Vec<BankCounters>,
    /// Controller-phase breakdown.
    pub ctrl: CtrlCounters,
    /// Value-change events recorded into the ring buffer.
    pub events_recorded: u64,
    /// Events evicted from the ring (folded into the VCD baseline).
    pub events_dropped: u64,
}

impl InterpreterStats {
    /// Total MAC issue slots across all PEs.
    pub fn total_mac_cycles(&self) -> u64 {
        self.pes.iter().map(|p| p.mac_cycles).sum()
    }

    /// Mean PE utilization: `total MACs / (PEs × cycles)`.
    pub fn utilization(&self) -> f64 {
        let slots = self.pes.len() as u64 * self.cycles;
        if slots == 0 {
            0.0
        } else {
            self.total_mac_cycles() as f64 / slots as f64
        }
    }

    /// Total bank conflicts across all banks.
    pub fn total_bank_conflicts(&self) -> u64 {
        self.banks.iter().map(|b| b.conflicts).sum()
    }

    /// Cycles where the controller kept the array in no active phase.
    pub fn stall_cycles(&self) -> u64 {
        self.ctrl.idle_cycles
    }
}

/// One recorded value change on a watched net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TraceEvent {
    /// The clock cycle (1-based: the value after the Nth `step`).
    pub cycle: u64,
    /// Index into the watched-net list (see
    /// [`crate::interp::Interpreter::watched_signals`]).
    pub watch: usize,
    /// The new value.
    pub value: u64,
}

#[derive(Debug, Clone)]
struct WatchedNet {
    name: String,
    width: u32,
    slot: usize,
    last: u64,
}

#[derive(Debug, Clone, Copy)]
struct BankSlots {
    en: usize,
    wen: usize,
    buf_sel: Option<usize>,
}

/// The interpreter-side trace machinery: counter slots resolved to value
/// indexes at attach time, plus the bounded event ring.
#[derive(Debug, Clone)]
pub(crate) struct TraceState {
    counters_on: bool,
    pub(crate) stats: InterpreterStats,
    en_slot: Option<usize>,
    load_en_slot: Option<usize>,
    drain_en_slot: Option<usize>,
    swap_slot: Option<usize>,
    /// `product` value slots, parallel to `stats.pes`.
    pe_slots: Vec<usize>,
    /// Bank port slots, parallel to `stats.banks`.
    bank_slots: Vec<BankSlots>,
    /// Previous `buf_sel` per bank (swap edge detection).
    prev_buf_sel: Vec<u64>,
    watched: Vec<WatchedNet>,
    /// Watched-net values at the ring's horizon (attach time, advanced by
    /// evicted events).
    baseline: Vec<u64>,
    ring: VecDeque<TraceEvent>,
    ring_capacity: usize,
}

/// Parses `pe_r<row>c<col>` from the last path segment of a PE instance.
fn parse_pe_coords(segment: &str) -> Option<(usize, usize)> {
    let rest = segment.strip_prefix("pe_r")?;
    let c_pos = rest.find('c')?;
    let row = rest[..c_pos].parse().ok()?;
    let col = rest[c_pos + 1..].parse().ok()?;
    Some((row, col))
}

impl TraceState {
    /// Resolves a [`TraceConfig`] against a flattened design. `resolve` is
    /// the compiled alias-forwarding map (identity when absent).
    pub(crate) fn build(
        flat: &FlatDesign,
        resolve: Option<&[u32]>,
        cfg: &TraceConfig,
    ) -> Result<Box<TraceState>, HwError> {
        let slot_of = |id: usize| -> usize {
            resolve.map_or(id, |r| r[id] as usize)
        };
        let find_net = |name: &str| flat.net(name).map(&slot_of);

        let mut pes = Vec::new();
        let mut pe_slots = Vec::new();
        if cfg.counters {
            for (id, net) in flat.nets.iter().enumerate() {
                let prefix = if net.name == "product" {
                    Some("")
                } else {
                    net.name.strip_suffix(".product")
                };
                let Some(prefix) = prefix else { continue };
                let name = if prefix.is_empty() { "pe" } else { prefix };
                let segment = name.rsplit('.').next().unwrap_or(name);
                let (row, col) = parse_pe_coords(segment).unwrap_or((0, 0));
                pes.push(PeCounters {
                    name: name.to_string(),
                    row,
                    col,
                    mac_cycles: 0,
                    enabled_cycles: 0,
                });
                pe_slots.push(slot_of(id));
            }
        }

        let mut banks = Vec::new();
        let mut bank_slots = Vec::new();
        if cfg.counters {
            for b in &flat.banks {
                banks.push(BankCounters {
                    name: b.name.clone(),
                    words: b.spec.words(),
                    double_buffered: b.spec.is_double_buffered(),
                    reads: 0,
                    writes: 0,
                    conflicts: 0,
                    swaps: 0,
                });
                bank_slots.push(BankSlots {
                    en: slot_of(b.en),
                    wen: slot_of(b.wen),
                    buf_sel: b.buf_sel.map(&slot_of),
                });
            }
        }

        let mut watched = Vec::with_capacity(cfg.watch.len());
        for name in &cfg.watch {
            let id = flat.net(name).ok_or_else(|| HwError::UnknownNet {
                net: name.clone(),
            })?;
            watched.push(WatchedNet {
                name: name.clone(),
                width: flat.nets[id].width,
                slot: slot_of(id),
                last: 0,
            });
        }

        let n_banks = bank_slots.len();
        Ok(Box::new(TraceState {
            counters_on: cfg.counters,
            stats: InterpreterStats {
                pes,
                banks,
                ..InterpreterStats::default()
            },
            en_slot: find_net("en"),
            load_en_slot: find_net("load_en"),
            drain_en_slot: find_net("drain_en"),
            swap_slot: find_net("swap"),
            pe_slots,
            bank_slots,
            prev_buf_sel: vec![0; n_banks],
            baseline: vec![0; watched.len()],
            watched,
            ring: VecDeque::with_capacity(cfg.ring_capacity.min(4096)),
            ring_capacity: cfg.ring_capacity,
        }))
    }

    /// Captures the current settled values as the trace baseline (watched
    /// nets' VCD time-0 dump, bank `buf_sel` edge detectors).
    pub(crate) fn snapshot(&mut self, values: &[u64]) {
        for (w, base) in self.watched.iter_mut().zip(&mut self.baseline) {
            w.last = values[w.slot];
            *base = w.last;
        }
        for (b, prev) in self.bank_slots.iter().zip(&mut self.prev_buf_sel) {
            *prev = b.buf_sel.map_or(0, |s| values[s] & 1);
        }
    }

    /// Counter hook: called once per clock, on the settled pre-commit values
    /// (what the hardware's registers see on this edge).
    pub(crate) fn observe_cycle(&mut self, values: &[u64]) {
        self.stats.cycles += 1;
        if !self.counters_on {
            return;
        }
        let high = |slot: Option<usize>| slot.is_some_and(|s| values[s] & 1 == 1);
        let compute = high(self.en_slot);
        let load = high(self.load_en_slot);
        let drain = high(self.drain_en_slot);
        let ctrl = &mut self.stats.ctrl;
        if compute {
            ctrl.compute_cycles += 1;
        }
        if load {
            ctrl.load_cycles += 1;
        }
        if drain {
            ctrl.drain_cycles += 1;
        }
        if !(compute || load || drain) {
            ctrl.idle_cycles += 1;
        }
        if high(self.swap_slot) {
            ctrl.swap_pulses += 1;
        }

        // A design without an enable net (bare combinational module) counts
        // every cycle as enabled.
        let pe_active = self.en_slot.is_none_or(|s| values[s] & 1 == 1);
        if pe_active {
            for (pe, &slot) in self.stats.pes.iter_mut().zip(&self.pe_slots) {
                pe.enabled_cycles += 1;
                if values[slot] != 0 {
                    pe.mac_cycles += 1;
                }
            }
        }

        for (i, (bank, slots)) in self
            .stats
            .banks
            .iter_mut()
            .zip(&self.bank_slots)
            .enumerate()
        {
            let r = values[slots.en] & 1 == 1;
            let w = values[slots.wen] & 1 == 1;
            if r {
                bank.reads += 1;
            }
            if w {
                bank.writes += 1;
            }
            if r && w {
                bank.conflicts += 1;
            }
            if let Some(sel) = slots.buf_sel {
                let v = values[sel] & 1;
                if v != self.prev_buf_sel[i] {
                    bank.swaps += 1;
                    self.prev_buf_sel[i] = v;
                }
            }
        }
    }

    /// Event hook: called after the post-commit resettle; records one
    /// [`TraceEvent`] per watched net whose value changed this cycle.
    pub(crate) fn record_events(&mut self, values: &[u64]) {
        let cycle = self.stats.cycles;
        for (i, w) in self.watched.iter_mut().enumerate() {
            let v = values[w.slot];
            if v == w.last {
                continue;
            }
            w.last = v;
            if self.ring_capacity == 0 {
                self.stats.events_dropped += 1;
                continue;
            }
            if self.ring.len() == self.ring_capacity {
                // Fold the oldest event into the baseline so the exported
                // waveform stays consistent from its (advanced) horizon.
                if let Some(old) = self.ring.pop_front() {
                    self.baseline[old.watch] = old.value;
                    self.stats.events_dropped += 1;
                }
            }
            self.ring.push_back(TraceEvent {
                cycle,
                watch: i,
                value: v,
            });
            self.stats.events_recorded += 1;
        }
    }

    /// The retained events, oldest first.
    pub(crate) fn events(&self) -> Vec<TraceEvent> {
        self.ring.iter().copied().collect()
    }

    /// Watched-net names and widths, in watch-index order.
    pub(crate) fn signals(&self) -> Vec<(String, u32)> {
        self.watched
            .iter()
            .map(|w| (w.name.clone(), w.width))
            .collect()
    }

    /// Renders the watched nets as a VCD waveform: one timescale unit per
    /// clock cycle, baseline dumped at `#0` (when events were dropped, the
    /// baseline is the state at the ring's horizon, still stamped `#0`).
    pub(crate) fn to_vcd(&self) -> String {
        let mut out = String::from("$timescale 1ns $end\n$scope module trace $end\n");
        for (i, w) in self.watched.iter().enumerate() {
            out.push_str(&format!(
                "$var wire {} {} {} $end\n",
                w.width,
                vcd_id(i),
                w.name
            ));
        }
        out.push_str("$upscope $end\n$enddefinitions $end\n#0\n$dumpvars\n");
        for (i, w) in self.watched.iter().enumerate() {
            push_change(&mut out, w.width, self.baseline[i], &vcd_id(i));
        }
        out.push_str("$end\n");
        let mut current: Option<u64> = None;
        for ev in &self.ring {
            if current != Some(ev.cycle) {
                out.push_str(&format!("#{}\n", ev.cycle));
                current = Some(ev.cycle);
            }
            let w = &self.watched[ev.watch];
            push_change(&mut out, w.width, ev.value, &vcd_id(ev.watch));
        }
        out
    }
}

/// The VCD identifier code for watch index `i` (printable ASCII, base 94).
fn vcd_id(mut i: usize) -> String {
    let mut s = String::new();
    loop {
        s.push((b'!' + (i % 94) as u8) as char);
        i /= 94;
        if i == 0 {
            break;
        }
    }
    s
}

fn push_change(out: &mut String, width: u32, value: u64, id: &str) {
    if width == 1 {
        out.push_str(&format!("{}{}\n", value & 1, id));
    } else {
        out.push_str(&format!("b{value:b} {id}\n"));
    }
}

/// VCD parse failure (malformed token stream).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcdParseError(pub String);

impl fmt::Display for VcdParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VCD parse error: {}", self.0)
    }
}

impl std::error::Error for VcdParseError {}

/// One `$var` declaration from a VCD header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcdSignal {
    /// The identifier code.
    pub id: String,
    /// The declared net name.
    pub name: String,
    /// Bit width.
    pub width: u32,
}

/// One value change from a VCD body (`$dumpvars` entries appear at time 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcdChange {
    /// Timestamp (clock cycle).
    pub time: u64,
    /// Identifier code of the changed signal.
    pub id: String,
    /// The new value.
    pub value: u64,
}

/// A parsed VCD document (the subset the exporter emits).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VcdDocument {
    /// `$timescale` text, e.g. `1ns`.
    pub timescale: String,
    /// Declared signals.
    pub signals: Vec<VcdSignal>,
    /// All value changes, in file order.
    pub changes: Vec<VcdChange>,
}

impl VcdDocument {
    /// The identifier code declared for `name`, if any.
    pub fn id_of(&self, name: &str) -> Option<&str> {
        self.signals
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.id.as_str())
    }

    /// Value changes at strictly positive time for one identifier code.
    pub fn changes_of(&self, id: &str) -> Vec<(u64, u64)> {
        self.changes
            .iter()
            .filter(|c| c.id == id && c.time > 0)
            .map(|c| (c.time, c.value))
            .collect()
    }
}

/// Parses the VCD subset produced by the exporter: `$var` declarations,
/// `#time` stamps, scalar (`0<id>` / `1<id>`) and vector (`b<bits> <id>`)
/// value changes. Header sections other than `$var` / `$timescale` are
/// skipped; `x`/`z` states are rejected (the interpreter is two-valued).
pub fn parse_vcd(text: &str) -> Result<VcdDocument, VcdParseError> {
    let mut doc = VcdDocument::default();
    let mut time = 0u64;
    let mut it = text.split_whitespace();
    let err = |m: &str| VcdParseError(m.to_string());
    while let Some(tok) = it.next() {
        match tok {
            "$var" => {
                let _kind = it
                    .next()
                    .ok_or_else(|| err("truncated $var: missing kind"))?;
                let wtok = it
                    .next()
                    .ok_or_else(|| err("truncated $var: missing width"))?;
                let width: u32 = wtok
                    .parse()
                    .map_err(|_| VcdParseError(format!("bad $var width {wtok:?}")))?;
                let id = it
                    .next()
                    .ok_or_else(|| err("truncated $var: missing identifier code"))?;
                let name = it
                    .next()
                    .ok_or_else(|| err("truncated $var: missing net name"))?;
                doc.signals.push(VcdSignal {
                    id: id.to_string(),
                    name: name.to_string(),
                    width,
                });
                for t in it.by_ref() {
                    if t == "$end" {
                        break;
                    }
                }
            }
            "$timescale" => {
                let mut parts = Vec::new();
                for t in it.by_ref() {
                    if t == "$end" {
                        break;
                    }
                    parts.push(t);
                }
                doc.timescale = parts.join(" ");
            }
            // $dumpvars contents are ordinary value changes; its closing
            // $end (and any stray $end) is a no-op.
            "$dumpvars" | "$end" => {}
            t if t.starts_with('$') => {
                for t2 in it.by_ref() {
                    if t2 == "$end" {
                        break;
                    }
                }
            }
            t if t.starts_with('#') => {
                time = t[1..]
                    .parse()
                    .map_err(|_| VcdParseError(format!("bad timestamp {t:?}")))?;
            }
            t if t.starts_with('b') || t.starts_with('B') => {
                let value = u64::from_str_radix(&t[1..], 2)
                    .map_err(|_| VcdParseError(format!("bad vector value {t:?}")))?;
                let id = it
                    .next()
                    .ok_or_else(|| VcdParseError(format!("vector change {t:?} missing id")))?;
                doc.changes.push(VcdChange {
                    time,
                    id: id.to_string(),
                    value,
                });
            }
            t if t.starts_with('0') || t.starts_with('1') => {
                if t.len() < 2 {
                    return Err(VcdParseError(format!("scalar change {t:?} missing id")));
                }
                doc.changes.push(VcdChange {
                    time,
                    id: t[1..].to_string(),
                    value: u64::from(t.as_bytes()[0] - b'0'),
                });
            }
            other => {
                return Err(VcdParseError(format!("unexpected token {other:?}")));
            }
        }
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vcd_ids_are_printable_and_distinct() {
        let ids: Vec<String> = (0..200).map(vcd_id).collect();
        for id in &ids {
            assert!(id.chars().all(|c| ('!'..='~').contains(&c)), "{id:?}");
        }
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
    }

    #[test]
    fn parse_vcd_reads_exported_subset() {
        let text = "$timescale 1ns $end\n$scope module trace $end\n\
                    $var wire 1 ! en $end\n$var wire 16 \" bus $end\n\
                    $upscope $end\n$enddefinitions $end\n\
                    #0\n$dumpvars\n0!\nb0 \"\n$end\n\
                    #3\n1!\nb101 \"\n#7\n0!\n";
        let doc = parse_vcd(text).unwrap();
        assert_eq!(doc.timescale, "1ns");
        assert_eq!(doc.signals.len(), 2);
        assert_eq!(doc.id_of("en"), Some("!"));
        assert_eq!(doc.id_of("bus"), Some("\""));
        assert_eq!(doc.changes_of("!"), vec![(3, 1), (7, 0)]);
        assert_eq!(doc.changes_of("\""), vec![(3, 5)]);
        // Baseline entries parse as time-0 changes.
        assert_eq!(doc.changes[0], VcdChange { time: 0, id: "!".into(), value: 0 });
    }

    #[test]
    fn parse_vcd_rejects_garbage() {
        assert!(parse_vcd("#abc").is_err());
        assert!(parse_vcd("wat").is_err());
        assert!(parse_vcd("bxx !").is_err());
    }

    #[test]
    fn parse_vcd_errors_name_the_offending_token() {
        let e = parse_vcd("#abc").unwrap_err();
        assert!(e.0.contains("\"#abc\""), "{e}");
        let e = parse_vcd("bxx !").unwrap_err();
        assert!(e.0.contains("\"bxx\""), "{e}");
        let e = parse_vcd("$var wire huge ! en $end").unwrap_err();
        assert!(e.0.contains("\"huge\""), "{e}");
        let e = parse_vcd("$var wire 1").unwrap_err();
        assert!(e.0.contains("truncated $var"), "{e}");
    }

    /// Robustness sweep: truncating the exported subset at every byte
    /// boundary, or mangling any single byte, must produce Ok or a
    /// descriptive Err — never a panic.
    #[test]
    fn parse_vcd_survives_truncation_and_mangling() {
        let text = "$timescale 1ns $end\n$scope module trace $end\n\
                    $var wire 1 ! en $end\n$var wire 16 \" bus $end\n\
                    $upscope $end\n$enddefinitions $end\n\
                    #0\n$dumpvars\n0!\nb0 \"\n$end\n\
                    #3\n1!\nb101 \"\n#7\n0!\n";
        for cut in 0..=text.len() {
            if !text.is_char_boundary(cut) {
                continue;
            }
            // Either outcome is fine; the point is that it returns.
            let _ = parse_vcd(&text[..cut]);
        }
        let bytes = text.as_bytes();
        for pos in 0..bytes.len() {
            let mut mangled = bytes.to_vec();
            mangled[pos] ^= 0xA5; // deterministic corruption
            let corrupted = String::from_utf8_lossy(&mangled);
            match parse_vcd(&corrupted) {
                Ok(_) => {}
                Err(e) => assert!(!e.0.is_empty(), "empty error at byte {pos}"),
            }
        }
    }

    #[test]
    fn pe_coordinate_parsing() {
        assert_eq!(parse_pe_coords("pe_r0c1"), Some((0, 1)));
        assert_eq!(parse_pe_coords("pe_r12c7"), Some((12, 7)));
        assert_eq!(parse_pe_coords("pe"), None);
        assert_eq!(parse_pe_coords("pe_r1"), None);
    }

    #[test]
    fn stats_summaries() {
        let mut s = InterpreterStats::default();
        assert_eq!(s.utilization(), 0.0);
        s.cycles = 10;
        s.pes.push(PeCounters {
            name: "pe_r0c0".into(),
            row: 0,
            col: 0,
            mac_cycles: 5,
            enabled_cycles: 10,
        });
        s.pes.push(PeCounters {
            name: "pe_r0c1".into(),
            row: 0,
            col: 1,
            mac_cycles: 10,
            enabled_cycles: 10,
        });
        assert_eq!(s.total_mac_cycles(), 15);
        assert!((s.utilization() - 0.75).abs() < 1e-12);
        assert_eq!(s.pes[0].idle_cycles(10), 5);
        assert!((s.pes[0].utilization(10) - 0.5).abs() < 1e-12);
    }
}
