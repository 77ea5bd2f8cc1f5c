//! Lane execution of specializable handlers (experiment E19).
//!
//! EXPERIMENTS.md E11 localized the residual gap between the compiled
//! scheduler and a hand-tuned monolithic loop in the handler path: the
//! signal store's write path and its per-write checks on every wire.
//! Following the paper's companion code-generation work (ref [25], MICRO
//! 2002) — and the contracts literature's license to check interface
//! contracts once at composition time — this module lets the hot `pcl`
//! templates run their handlers over flat **lanes** instead of the store:
//!
//! * A template writes its `react` and `commit` bodies once, generic over
//!   [`ReactPorts`] / [`CommitPorts`]. [`crate::exec::ReactCtx`] and
//!   [`crate::exec::CommitCtx`] implement those traits over the store;
//!   [`LaneReact`] and [`LaneCommit`] implement them over lanes. The
//!   module struct holds the only copy of its state on both back-ends.
//!   Each phase builds one [`ReactEnv`]/[`CommitEnv`] holding the lane
//!   table, the port tables and the store; an instance's context is that
//!   plus its id, so entering a handler on lanes costs two words.
//! * `classify` inspects the constructed topology once and decides, per
//!   instance, whether it runs on lanes: the template must offer
//!   [`KernelHint::Lanes`], all of its producers must run on lanes too,
//!   ack-reading templates need lane consumers, and any fixed-point island
//!   it belongs to must qualify wholesale (and be internally data-acyclic).
//! * A lane is one edge's three wires as bytes plus its [`Value`]. Writes
//!   are first-touch-wins with an idempotence check, the store's monotonic
//!   contract. Everything else (user modules, bypass queues, combinational
//!   rings) stays on the store; the two populations coexist inside one
//!   compiled plan and hand values to each other through the store on
//!   "slow" edges.
//!
//! Lane execution is an execution detail of `SchedKind::Compiled`: probes,
//! fault plans, failure policies and watchdogs switch the simulator back
//! to the store path, which needs no state copy because the modules never
//! gave theirs away. Observed behavior — probe streams, statistics,
//! checkpoints — is byte-identical with specialization on or off; the
//! equivalence suite in `crates/bench/tests/specialization.rs` holds both
//! paths to that contract.

use std::fmt;

use crate::compile::{CompiledPlan, PlanNode};
use crate::error::SimError;
use crate::module::{CommitPorts, Module, PortId, ReactPorts};
use crate::netlist::{EdgeId, InstanceId};
use crate::signal::{Res, Wire, WireWrite};
use crate::stats::{InstanceStats, Stats};
use crate::store::SignalStore;
use crate::topology::{PortMeta, Topology};
use crate::value::Value;

/// A template's answer to "may this instance run on lanes?", returned by
/// [`Module::specialize`].
///
/// An offer is not a promise: `classify` may still keep the instance on
/// the store (dynamic producers, data-cyclic or mixed fixed-point
/// islands).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelHint {
    /// The template's `react_lanes`/`commit_lanes` run the same bodies as
    /// its `react`/`commit`. Lane wires get no default resolution, so
    /// once its inputs have resolved, `react` must drive every wire it
    /// owns: data and enable on each output, ack on each input. A lane
    /// left unresolved fails the step with a contract error naming the
    /// edge. The lane back-end does not re-check port directions (the
    /// store path does), so the bodies must use their own ports as
    /// declared.
    Lanes,
    /// This instance declines: its output follows its input within the
    /// step (a bypass queue's combinational fall-through).
    FallThrough,
}

// ---------------------------------------------------------------------------
// Lanes
// ---------------------------------------------------------------------------

/// Wire-resolution states of a lane slot (one byte each).
const UNR: u8 = 0;
const NO_S: u8 = 1;
const YES_S: u8 = 2;

/// One fast edge: the three wires of a connection as flat bytes plus the
/// payload, bypassing the store on the hot path. The commit phase's lane
/// sweep clears the wires for the next step (a failed step clears them
/// too); the store is credited for lanes wholesale so the default phase
/// and full-resolution accounting stay exact.
#[derive(Debug)]
pub(crate) struct Lane {
    /// The edge this lane shadows (for wake tables and transfer counts).
    pub(crate) edge: EdgeId,
    /// Data wire state.
    data: u8,
    /// Enable wire state.
    enable: u8,
    /// Ack wire state.
    ack: u8,
    /// Set by the commit sweep when all three wires resolved `Yes`; read
    /// by the commit bodies.
    pub(crate) transferred: bool,
    /// The payload when `data == YES_S` (stale otherwise).
    val: Value,
}

impl Lane {
    fn new(edge: EdgeId) -> Lane {
        Lane {
            edge,
            data: UNR,
            enable: UNR,
            ack: UNR,
            transferred: false,
            val: Value::Unit,
        }
    }

    /// The commit sweep's step on one lane: record whether the handshake
    /// completed and clear the wires for the next step. Returns `None`
    /// when a wire was left unresolved, `Some(transferred)` otherwise.
    #[inline]
    pub(crate) fn settle(&mut self) -> Option<bool> {
        let resolved = self.data != UNR && self.enable != UNR && self.ack != UNR;
        self.transferred = self.data == YES_S && self.enable == YES_S && self.ack == YES_S;
        self.data = UNR;
        self.enable = UNR;
        self.ack = UNR;
        resolved.then_some(self.transferred)
    }

    /// Clear the wires of a step that failed before its commit sweep.
    pub(crate) fn reset(&mut self) {
        self.data = UNR;
        self.enable = UNR;
        self.ack = UNR;
        self.transferred = false;
    }
}

#[inline]
fn res_of(state: u8) -> Res<()> {
    match state {
        UNR => Res::Unknown,
        NO_S => Res::No,
        _ => Res::Yes(()),
    }
}

#[inline]
fn state_of(yes: bool) -> u8 {
    if yes {
        YES_S
    } else {
        NO_S
    }
}

/// Where one port connection of a lane instance lives this step.
enum Slot {
    Lane(usize),
    /// The other end runs on the store: go through it. Holds the
    /// connection's index into [`Topology::edges_flat`].
    Slow(usize),
}

/// One port of an instance as the lane contexts see it: the topology's
/// [`PortMeta`] plus the lane of its first connection, so a one-wide port
/// resolves to its lane with a single table read.
#[derive(Clone, Copy, Debug)]
struct LanePort {
    /// First connection in [`Topology::edges_flat`] and
    /// [`LaneMap::port_lane`].
    off: u32,
    /// Number of connections.
    len: u32,
    /// Lane of connection 0, or [`NO_LANE`] (unconnected or slow).
    lane0: u32,
}

/// Where each port connection of a specialized plan lives: the lane
/// contexts' view of the topology's port tables.
pub(crate) struct LaneMap {
    /// Parallel to the topology's dense port table
    /// ([`Topology::port_base`] indexes it).
    ports: Vec<LanePort>,
    /// Per entry of [`Topology::edges_flat`]: the lane of that port
    /// connection, or [`NO_LANE`] when its edge stays on the store.
    port_lane: Vec<u32>,
}

impl LaneMap {
    fn new(topo: &Topology, lane_of: &[u32]) -> LaneMap {
        let port_lane: Vec<u32> = topo
            .edges_flat()
            .iter()
            .map(|e| lane_of[e.0 as usize])
            .collect();
        let ports = (0..topo.instance_count())
            .flat_map(|i| topo.hot_ports(InstanceId(i as u32)))
            .map(|m: &PortMeta| LanePort {
                off: m.off,
                len: m.len,
                lane0: if m.len == 0 {
                    NO_LANE
                } else {
                    port_lane[m.off as usize]
                },
            })
            .collect();
        LaneMap { ports, port_lane }
    }
}

/// The port tables every lane context of a phase reads.
#[derive(Clone, Copy)]
struct PortView<'a> {
    topo: &'a Topology,
    ports: &'a [LanePort],
    port_lane: &'a [u32],
}

impl<'a> PortView<'a> {
    fn new(topo: &'a Topology, map: &'a LaneMap) -> Self {
        PortView {
            topo,
            ports: &map.ports,
            port_lane: &map.port_lane,
        }
    }

    #[inline(always)]
    fn port(&self, base: usize, port: PortId) -> &LanePort {
        &self.ports[base + port.0 as usize]
    }

    /// The slot of a connection of the instance whose ports start at
    /// `base`, or `None` when it is unconnected.
    #[inline(always)]
    fn slot(&self, base: usize, port: PortId, index: usize) -> Option<Slot> {
        let p = self.port(base, port);
        if index as u32 >= p.len {
            return None;
        }
        let at = p.off as usize + index;
        let lane = if index == 0 {
            p.lane0
        } else {
            self.port_lane[at]
        };
        Some(match lane {
            NO_LANE => Slot::Slow(at),
            l => Slot::Lane(l as usize),
        })
    }

    fn edge(&self, at: usize) -> EdgeId {
        self.topo.edges_flat()[at]
    }

    #[cold]
    #[inline(never)]
    fn contract(&self, inst: InstanceId, what: impl fmt::Display) -> SimError {
        let info = self.topo.instance(inst);
        SimError::contract(format!("{} ({}): {what}", info.name, info.spec.template))
    }
}

/// What the [`LaneReact`] contexts of one reaction phase share. It is
/// built once per phase, so an instance's context is just this plus the
/// instance's id.
pub(crate) struct ReactEnv<'a> {
    view: PortView<'a>,
    lanes: &'a mut [Lane],
    pub(crate) store: &'a mut SignalStore,
    /// Island driver only: record newly resolved wires in `newly`, for
    /// the wake tables. Off on the straight-line path, where nothing is
    /// re-woken.
    pub(crate) track: bool,
    /// Wires resolved while `track` is on (and the dynamic island
    /// driver's wake buffer).
    pub(crate) newly: Vec<(EdgeId, Wire)>,
    now: u64,
}

impl<'a> ReactEnv<'a> {
    pub(crate) fn new(
        topo: &'a Topology,
        lanes: &'a mut [Lane],
        map: &'a LaneMap,
        store: &'a mut SignalStore,
        newly: Vec<(EdgeId, Wire)>,
        now: u64,
    ) -> Self {
        ReactEnv {
            view: PortView::new(topo, map),
            lanes,
            store,
            track: false,
            newly,
            now,
        }
    }

    /// Instance `i`'s context.
    #[inline(always)]
    pub(crate) fn at(&mut self, i: usize) -> LaneReact<'_, 'a> {
        let inst = InstanceId(i as u32);
        let base = self.view.topo.port_base(inst);
        LaneReact {
            env: self,
            inst,
            base,
        }
    }
}

/// The lane back-end of [`ReactPorts`]: what `Module::react_lanes` gets.
/// The per-wire fast paths are small and always inlined into the
/// template's generic body; store writes on slow edges and contract
/// failures live out of line.
pub struct LaneReact<'e, 'a> {
    env: &'e mut ReactEnv<'a>,
    inst: InstanceId,
    /// The instance's first entry in the port table.
    base: usize,
}

impl LaneReact<'_, '_> {
    #[inline(always)]
    fn slot(&self, port: PortId, index: usize) -> Option<Slot> {
        self.env.view.slot(self.base, port, index)
    }

    fn contract(&self, what: impl fmt::Display) -> SimError {
        self.env.view.contract(self.inst, what)
    }

    /// Resolve one wire of lane `l` to `state` (and the payload `v` on
    /// data). First touch wins; any later drive goes to [`Self::redrive`].
    #[inline(always)]
    fn put(&mut self, l: usize, wire: Wire, state: u8, v: Option<Value>) -> Result<(), SimError> {
        let env = &mut *self.env;
        let lane = &mut env.lanes[l];
        let slot = match wire {
            Wire::Data => &mut lane.data,
            Wire::Enable => &mut lane.enable,
            Wire::Ack => &mut lane.ack,
        };
        if *slot != UNR {
            return self.redrive(l, wire, state, v);
        }
        *slot = state;
        if let Some(v) = v {
            lane.val = v;
        }
        if env.track {
            env.newly.push((lane.edge, wire));
        }
        Ok(())
    }

    /// Drive data and enable of lane `l` to the same `state` (`send` and
    /// `send_nothing`): one lane lookup when both are still unresolved,
    /// the per-wire path otherwise.
    #[inline(always)]
    fn put_pair(&mut self, l: usize, state: u8, v: Option<Value>) -> Result<(), SimError> {
        let env = &mut *self.env;
        let lane = &mut env.lanes[l];
        if lane.data != UNR || lane.enable != UNR {
            return self.put_each(l, state, v);
        }
        lane.data = state;
        lane.enable = state;
        if let Some(v) = v {
            lane.val = v;
        }
        if env.track {
            env.newly.push((lane.edge, Wire::Data));
            env.newly.push((lane.edge, Wire::Enable));
        }
        Ok(())
    }

    #[inline(never)]
    fn put_each(&mut self, l: usize, state: u8, v: Option<Value>) -> Result<(), SimError> {
        self.put(l, Wire::Data, state, v)?;
        self.put(l, Wire::Enable, state, None)
    }

    /// A second drive of an already resolved wire: a no-op when it
    /// repeats the first, a contract violation otherwise.
    #[inline(never)]
    fn redrive(&self, l: usize, wire: Wire, state: u8, v: Option<Value>) -> Result<(), SimError> {
        let lane = &self.env.lanes[l];
        let now = match wire {
            Wire::Data => lane.data,
            Wire::Enable => lane.enable,
            Wire::Ack => lane.ack,
        };
        if now == state && v.is_none_or(|v| v == lane.val) {
            return Ok(());
        }
        let edge = lane.edge.0;
        Err(self.contract(format_args!(
            "conflicting re-drive of {wire:?} on edge {edge}"
        )))
    }

    /// A store write on slow edge `at`. Its reader is dynamic and never
    /// an island-mate of a lane instance, so it needs no wake tracking.
    #[inline(never)]
    fn slow_pair(&mut self, at: usize, data: Res<Value>, enable: Res<()>) -> Result<(), SimError> {
        let e = self.env.view.edge(at);
        self.env
            .store
            .write_pair(e, data, enable)
            .map(|_| ())
            .map_err(|err| self.contract(err))
    }

    /// One-wire variant of [`Self::slow_pair`].
    #[inline(never)]
    fn slow_one(&mut self, at: usize, w: WireWrite) -> Result<(), SimError> {
        let e = self.env.view.edge(at);
        self.env
            .store
            .write(e, w)
            .map(|_| ())
            .map_err(|err| self.contract(err))
    }
}

impl ReactPorts for LaneReact<'_, '_> {
    #[inline(always)]
    fn now(&self) -> u64 {
        self.env.now
    }

    #[inline(always)]
    fn width(&self, port: PortId) -> usize {
        self.env.view.port(self.base, port).len as usize
    }

    #[inline(always)]
    fn data(&self, port: PortId, index: usize) -> Res<&Value> {
        match self.slot(port, index) {
            None => Res::No,
            Some(Slot::Lane(l)) => {
                let lane = &self.env.lanes[l];
                match lane.data {
                    UNR => Res::Unknown,
                    NO_S => Res::No,
                    _ => Res::Yes(&lane.val),
                }
            }
            Some(Slot::Slow(at)) => self.env.store.data_ref(self.env.view.edge(at)),
        }
    }

    #[inline(always)]
    fn ack(&self, port: PortId, index: usize) -> Result<Res<()>, SimError> {
        let topo = self.env.view.topo;
        if !topo.instance(self.inst).spec.reads_ack_in_react {
            return Err(self.contract(
                "react reads an ack wire but the template did not declare with_ack_in_react()",
            ));
        }
        Ok(match self.slot(port, index) {
            None => Res::Yes(()),
            Some(Slot::Lane(l)) => res_of(self.env.lanes[l].ack),
            Some(Slot::Slow(at)) => self.env.store.ack(self.env.view.edge(at)),
        })
    }

    #[inline(always)]
    fn send(&mut self, port: PortId, index: usize, v: Value) -> Result<(), SimError> {
        match self.slot(port, index) {
            None => Ok(()),
            Some(Slot::Lane(l)) => self.put_pair(l, YES_S, Some(v)),
            Some(Slot::Slow(at)) => self.slow_pair(at, Res::Yes(v), Res::Yes(())),
        }
    }

    #[inline(always)]
    fn send_nothing(&mut self, port: PortId, index: usize) -> Result<(), SimError> {
        match self.slot(port, index) {
            None => Ok(()),
            Some(Slot::Lane(l)) => self.put_pair(l, NO_S, None),
            Some(Slot::Slow(at)) => self.slow_pair(at, Res::No, Res::No),
        }
    }

    #[inline(always)]
    fn set_data(&mut self, port: PortId, index: usize, v: Res<Value>) -> Result<(), SimError> {
        match self.slot(port, index) {
            None => Ok(()),
            Some(Slot::Lane(l)) => match v {
                Res::Yes(v) => self.put(l, Wire::Data, YES_S, Some(v)),
                Res::No => self.put(l, Wire::Data, NO_S, None),
                Res::Unknown => Err(self.contract("attempt to drive Data back to Unknown")),
            },
            Some(Slot::Slow(at)) => self.slow_one(at, WireWrite::Data(v)),
        }
    }

    #[inline(always)]
    fn set_enable(&mut self, port: PortId, index: usize, en: bool) -> Result<(), SimError> {
        match self.slot(port, index) {
            None => Ok(()),
            Some(Slot::Lane(l)) => self.put(l, Wire::Enable, state_of(en), None),
            Some(Slot::Slow(at)) => self.slow_one(
                at,
                WireWrite::Enable(if en { Res::Yes(()) } else { Res::No }),
            ),
        }
    }

    #[inline(always)]
    fn set_ack(&mut self, port: PortId, index: usize, accept: bool) -> Result<(), SimError> {
        match self.slot(port, index) {
            None => Ok(()),
            Some(Slot::Lane(l)) => self.put(l, Wire::Ack, state_of(accept), None),
            Some(Slot::Slow(at)) => {
                let w = WireWrite::Ack(if accept { Res::Yes(()) } else { Res::No });
                self.slow_one(at, w)
            }
        }
    }
}

/// What the [`LaneCommit`] contexts of one commit phase share (see
/// [`ReactEnv`]).
pub(crate) struct CommitEnv<'a> {
    view: PortView<'a>,
    lanes: &'a [Lane],
    pub(crate) store: &'a SignalStore,
    pub(crate) stats: &'a mut Stats,
    now: u64,
}

impl<'a> CommitEnv<'a> {
    pub(crate) fn new(
        topo: &'a Topology,
        lanes: &'a [Lane],
        map: &'a LaneMap,
        store: &'a SignalStore,
        stats: &'a mut Stats,
        now: u64,
    ) -> Self {
        CommitEnv {
            view: PortView::new(topo, map),
            lanes,
            store,
            stats,
            now,
        }
    }

    /// Instance `i`'s context.
    #[inline(always)]
    pub(crate) fn at(&mut self, i: usize) -> LaneCommit<'_, 'a> {
        let inst = InstanceId(i as u32);
        let base = self.view.topo.port_base(inst);
        LaneCommit {
            env: self,
            inst,
            base,
        }
    }
}

/// The lane back-end of [`CommitPorts`]: what `Module::commit_lanes` gets.
pub struct LaneCommit<'e, 'a> {
    env: &'e mut CommitEnv<'a>,
    inst: InstanceId,
    base: usize,
}

impl LaneCommit<'_, '_> {
    #[inline(always)]
    fn slot(&self, port: PortId, index: usize) -> Option<Slot> {
        self.env.view.slot(self.base, port, index)
    }
}

impl CommitPorts for LaneCommit<'_, '_> {
    #[inline(always)]
    fn now(&self) -> u64 {
        self.env.now
    }

    #[inline(always)]
    fn width(&self, port: PortId) -> usize {
        self.env.view.port(self.base, port).len as usize
    }

    #[inline(always)]
    fn transferred_in(&self, port: PortId, index: usize) -> Option<&Value> {
        match self.slot(port, index)? {
            Slot::Lane(l) => {
                let lane = &self.env.lanes[l];
                lane.transferred.then_some(&lane.val)
            }
            Slot::Slow(at) => self.env.store.transferred(self.env.view.edge(at)),
        }
    }

    #[inline(always)]
    fn transferred_out(&self, port: PortId, index: usize) -> bool {
        match self.slot(port, index) {
            None => true,
            Some(Slot::Lane(l)) => self.env.lanes[l].transferred,
            Some(Slot::Slow(at)) => self.env.store.transfers_on(self.env.view.edge(at)),
        }
    }

    #[inline(always)]
    fn stats(&mut self) -> InstanceStats<'_> {
        InstanceStats::new(self.env.stats, self.inst)
    }
}

// ---------------------------------------------------------------------------
// Classification
// ---------------------------------------------------------------------------

/// Sentinel in [`SpecPlan::lane_of`] for edges that stay on the store.
pub(crate) const NO_LANE: u32 = u32::MAX;

/// The compile-time specialization decision for one topology: which
/// instances run on lanes, which edges become lanes, and why the rest
/// stayed dynamic.
pub(crate) struct SpecPlan {
    /// Per instance: runs on lanes?
    pub(crate) eligible: Vec<bool>,
    /// Per ineligible instance: a human-readable demotion reason
    /// (`None` for eligible instances).
    pub(crate) reason: Vec<Option<String>>,
    /// Per edge: its lane index, or [`NO_LANE`].
    pub(crate) lane_of: Vec<u32>,
    /// Edge ids of the lanes, in lane order.
    pub(crate) lane_edges: Vec<EdgeId>,
    /// Per compiled-plan island ordinal: true iff every member is eligible
    /// (islands specialize wholesale or not at all).
    pub(crate) spec_islands: Vec<bool>,
    /// Number of eligible instances.
    pub(crate) n_eligible: usize,
}

/// Decide, per instance of an already compiled plan, whether it runs on
/// lanes. Pure analysis, so the summary path can run it on a `&Simulator`.
pub(crate) fn classify(
    topo: &Topology,
    plan: &CompiledPlan,
    modules: &[Box<dyn Module>],
) -> SpecPlan {
    let n = topo.instance_count();
    let n_edges = topo.edge_count();
    let mut eligible = vec![false; n];
    let mut reason: Vec<Option<String>> = vec![None; n];

    // In/out adjacency, by instance.
    let mut in_edges: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut out_edges: Vec<Vec<u32>> = vec![Vec::new(); n];
    for e in 0..n_edges {
        let em = topo.edge_meta(EdgeId(e as u32));
        out_edges[em.src.inst.0 as usize].push(e as u32);
        in_edges[em.dst.inst.0 as usize].push(e as u32);
    }

    let demote =
        |eligible: &mut Vec<bool>, reason: &mut Vec<Option<String>>, i: usize, why: String| {
            if eligible[i] {
                eligible[i] = false;
                reason[i] = Some(why);
            }
        };

    // Pass 1: the templates' offers.
    for (i, m) in modules.iter().enumerate().take(n) {
        match m.specialize() {
            None => reason[i] = Some("dynamic template (no kernel hint)".to_owned()),
            Some(KernelHint::FallThrough) => {
                reason[i] = Some("bypass queue (combinational fall-through)".to_owned())
            }
            Some(KernelHint::Lanes) => eligible[i] = true,
        }
    }

    // Pass 2: island membership + internal data-acyclicity. A member of a
    // data-cyclic island (a combinational ring) relies on fixed-point
    // iteration the lane island driver does not attempt.
    let n_islands = plan.island_count();
    let mut island_members: Vec<Vec<u32>> = vec![Vec::new(); n_islands];
    for node in plan.nodes() {
        if let PlanNode::Island { island, members } = node {
            island_members[*island as usize] = members.clone();
        }
    }
    for members in &island_members {
        // Kahn's algorithm over data/enable arcs internal to the island
        // (single-member islands with a self-loop edge are caught too).
        let pos = |inst: u32| members.iter().position(|&m| m == inst);
        let mut indeg = vec![0usize; members.len()];
        let mut arcs: Vec<Vec<usize>> = vec![Vec::new(); members.len()];
        for &m in members {
            for &e in &out_edges[m as usize] {
                let dst = topo.edge_meta(EdgeId(e)).dst.inst.0;
                if let (Some(s), Some(d)) = (pos(m), pos(dst)) {
                    arcs[s].push(d);
                    indeg[d] += 1;
                }
            }
        }
        let mut ready: Vec<usize> = (0..members.len()).filter(|&j| indeg[j] == 0).collect();
        let mut seen = 0usize;
        while let Some(j) = ready.pop() {
            seen += 1;
            for &d in &arcs[j] {
                indeg[d] -= 1;
                if indeg[d] == 0 {
                    ready.push(d);
                }
            }
        }
        if seen != members.len() {
            for &m in members {
                demote(
                    &mut eligible,
                    &mut reason,
                    m as usize,
                    "data-cyclic island (needs fixed-point iteration)".to_owned(),
                );
            }
        }
    }

    // Pass 3: closure to a fixed point over the structural rules —
    // producers of eligible instances must be eligible, ack-readers need
    // eligible consumers, islands are all-or-none.
    loop {
        let mut changed = false;
        for i in 0..n {
            if !eligible[i] {
                continue;
            }
            for &e in &in_edges[i] {
                let src = topo.edge_meta(EdgeId(e)).src.inst.0 as usize;
                if !eligible[src] {
                    demote(
                        &mut eligible,
                        &mut reason,
                        i,
                        format!(
                            "fed by dynamic instance {:?}",
                            topo.name(InstanceId(src as u32))
                        ),
                    );
                    changed = true;
                    break;
                }
            }
            if !eligible[i] {
                continue;
            }
            if topo.instance(InstanceId(i as u32)).spec.reads_ack_in_react {
                for &e in &out_edges[i] {
                    let dst = topo.edge_meta(EdgeId(e)).dst.inst.0 as usize;
                    if !eligible[dst] {
                        demote(
                            &mut eligible,
                            &mut reason,
                            i,
                            format!(
                                "reads acks from dynamic consumer {:?}",
                                topo.name(InstanceId(dst as u32))
                            ),
                        );
                        changed = true;
                        break;
                    }
                }
            }
        }
        for members in &island_members {
            if members.iter().any(|&m| !eligible[m as usize])
                && members.iter().any(|&m| eligible[m as usize])
            {
                for &m in members {
                    if eligible[m as usize] {
                        demote(
                            &mut eligible,
                            &mut reason,
                            m as usize,
                            "fixed-point island contains dynamic instances".to_owned(),
                        );
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Lanes: an edge is fast iff both endpoints are eligible.
    let mut lane_of = vec![NO_LANE; n_edges];
    let mut lane_edges = Vec::new();
    for (e, lane) in lane_of.iter_mut().enumerate() {
        let em = topo.edge_meta(EdgeId(e as u32));
        if eligible[em.src.inst.0 as usize] && eligible[em.dst.inst.0 as usize] {
            *lane = lane_edges.len() as u32;
            lane_edges.push(EdgeId(e as u32));
        }
    }
    let spec_islands = island_members
        .iter()
        .map(|members| !members.is_empty() && members.iter().all(|&m| eligible[m as usize]))
        .collect();
    let n_eligible = eligible.iter().filter(|&&e| e).count();

    SpecPlan {
        eligible,
        reason,
        lane_of,
        lane_edges,
        spec_islands,
        n_eligible,
    }
}

// ---------------------------------------------------------------------------
// Runtime state
// ---------------------------------------------------------------------------

/// The specialized half of a compiled plan at run time: the classification
/// and the lane table. It holds no module state.
pub(crate) struct SpecState {
    /// The classification.
    pub(crate) plan: SpecPlan,
    /// Lane table, in [`SpecPlan::lane_edges`] order.
    pub(crate) lanes: Vec<Lane>,
    /// Where each port connection lives.
    pub(crate) map: LaneMap,
    /// Per lane: the source and destination instance of its edge, for the
    /// commit sweep's activity marks.
    pub(crate) ends: Vec<[u32; 2]>,
}

impl SpecState {
    /// Classify and build the lane table; `None` when nothing is
    /// eligible, so fully dynamic plans carry zero overhead.
    pub(crate) fn build(
        topo: &Topology,
        plan: &CompiledPlan,
        modules: &[Box<dyn Module>],
    ) -> Option<Box<SpecState>> {
        let plan = classify(topo, plan, modules);
        if plan.n_eligible == 0 {
            return None;
        }
        let lanes = plan.lane_edges.iter().map(|&e| Lane::new(e)).collect();
        let map = LaneMap::new(topo, &plan.lane_of);
        let ends = plan
            .lane_edges
            .iter()
            .map(|&e| {
                let em = topo.edge_meta(e);
                [em.src.inst.0, em.dst.inst.0]
            })
            .collect();
        Some(Box::new(SpecState {
            plan,
            lanes,
            map,
            ends,
        }))
    }
}

// ---------------------------------------------------------------------------
// Plan summary
// ---------------------------------------------------------------------------

/// One instance's row in a [`PlanSummary`].
#[derive(Clone, Debug)]
pub struct InstanceSummary {
    /// Instance name.
    pub name: String,
    /// Template name.
    pub template: String,
    /// True if the instance runs on lanes.
    pub specialized: bool,
    /// For dynamic instances: why specialization was declined.
    pub reason: Option<String>,
}

/// Which instances of a compiled plan specialize, and why the rest stayed
/// dynamic — the payload behind `Simulator::plan_summary()` and the
/// examples' `--explain-plan` flag.
#[derive(Clone, Debug)]
pub struct PlanSummary {
    /// Per-instance rows, in instance-id order.
    pub instances: Vec<InstanceSummary>,
    /// Number of specialized instances.
    pub specialized: usize,
    /// Number of dynamic instances.
    pub dynamic: usize,
    /// Edges lowered to lanes.
    pub fast_edges: usize,
    /// Total edges in the topology.
    pub total_edges: usize,
    /// False when specialization is administratively off (disabled via
    /// `set_specialization(false)`, or suppressed by probes/faults).
    pub enabled: bool,
}

impl SpecPlan {
    /// Render the classification for `topo`.
    pub(crate) fn summary(&self, topo: &Topology, enabled: bool) -> PlanSummary {
        let instances = (0..topo.instance_count())
            .map(|i| {
                let info = topo.instance(InstanceId(i as u32));
                InstanceSummary {
                    name: info.name.clone(),
                    template: info.spec.template.clone(),
                    specialized: self.eligible[i],
                    reason: self.reason[i].clone(),
                }
            })
            .collect::<Vec<_>>();
        PlanSummary {
            specialized: self.n_eligible,
            dynamic: instances.len() - self.n_eligible,
            fast_edges: self.lane_edges.len(),
            total_edges: self.lane_of.len(),
            enabled,
            instances,
        }
    }
}

impl fmt::Display for PlanSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "plan: {} specialized, {} dynamic; {}/{} edges on lanes{}",
            self.specialized,
            self.dynamic,
            self.fast_edges,
            self.total_edges,
            if self.enabled {
                ""
            } else {
                " (specialization disabled)"
            },
        )?;
        for inst in &self.instances {
            if inst.specialized {
                writeln!(f, "  {} ({}): specialized", inst.name, inst.template)?;
            } else {
                writeln!(
                    f,
                    "  {} ({}): dynamic — {}",
                    inst.name,
                    inst.template,
                    inst.reason.as_deref().unwrap_or("not classified"),
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{CommitCtx, ReactCtx};
    use crate::module::ModuleSpec;
    use crate::netlist::NetlistBuilder;

    /// A template that offers lanes; its handlers are never run here.
    struct Offer;
    impl Module for Offer {
        fn react(&mut self, _: &mut ReactCtx<'_>) -> Result<(), SimError> {
            Ok(())
        }
        fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
            Ok(())
        }
        fn specialize(&self) -> Option<KernelHint> {
            Some(KernelHint::Lanes)
        }
    }

    /// `src.out -> snk.in`, both on lanes (instance 0 and 1, lane 0).
    fn pair() -> (Topology, Box<SpecState>) {
        let mut b = NetlistBuilder::new();
        let spec = |t: &str| {
            ModuleSpec::new(t)
                .input("in", 0, 1)
                .output("out", 0, 1)
                .with_ack_in_react()
        };
        let s = b.add("src", spec("t"), Box::new(Offer)).unwrap();
        let k = b.add("snk", spec("t"), Box::new(Offer)).unwrap();
        b.connect(s, "out", k, "in").unwrap();
        let (topo, modules) = b.build().unwrap().into_parts();
        let plan = CompiledPlan::compile(&topo);
        let spec = SpecState::build(&topo, &plan, &modules).expect("both eligible");
        assert_eq!(spec.plan.n_eligible, 2);
        (topo, spec)
    }

    const IN: PortId = PortId(0);
    const OUT: PortId = PortId(1);

    #[test]
    fn lane_writes_are_first_touch_then_idempotent() {
        let (topo, mut spec) = pair();
        let mut store = SignalStore::new(topo.edge_count());
        let SpecState { lanes, map, .. } = &mut *spec;
        let mut env = ReactEnv::new(&topo, lanes, map, &mut store, Vec::new(), 0);
        let mut src = env.at(0);
        src.send(OUT, 0, Value::Word(3)).unwrap();
        src.send(OUT, 0, Value::Word(3)).unwrap();
        assert!(src.send(OUT, 0, Value::Word(4)).is_err());
        let mut snk = env.at(1);
        assert_eq!(snk.data(IN, 0), Res::Yes(&Value::Word(3)));
        snk.set_ack(IN, 0, true).unwrap();
        assert_eq!(lanes[0].settle(), Some(true));
        assert!(lanes[0].transferred);
    }

    #[test]
    fn island_wake_records_newly_resolved_wires() {
        let (topo, mut spec) = pair();
        let mut store = SignalStore::new(topo.edge_count());
        let SpecState { lanes, map, .. } = &mut *spec;
        let mut env = ReactEnv::new(&topo, lanes, map, &mut store, Vec::new(), 0);
        env.track = true;
        env.at(0).send(OUT, 0, Value::Word(1)).unwrap();
        env.at(1).set_ack(IN, 0, false).unwrap();
        assert_eq!(
            env.newly,
            vec![
                (EdgeId(0), Wire::Data),
                (EdgeId(0), Wire::Enable),
                (EdgeId(0), Wire::Ack)
            ]
        );
    }

    #[test]
    fn unconnected_slots_mirror_dynamic_defaults() {
        // `src.in` and `snk.out` have no connection.
        let (topo, mut spec) = pair();
        let mut store = SignalStore::new(topo.edge_count());
        let mut stats = Stats::new();
        let SpecState { lanes, map, .. } = &mut *spec;
        let mut env = ReactEnv::new(&topo, lanes, map, &mut store, Vec::new(), 0);
        let src = env.at(0);
        assert_eq!(src.data(IN, 0), Res::No);
        assert_eq!(src.width(IN), 0);
        let mut snk = env.at(1);
        assert_eq!(snk.ack(OUT, 0).unwrap(), Res::Yes(()));
        snk.send(OUT, 0, Value::Word(1)).unwrap();
        snk.set_ack(IN, 1, true).unwrap();
        let mut env = CommitEnv::new(&topo, lanes, map, &store, &mut stats, 0);
        let commit = env.at(1);
        assert!(commit.transferred_out(OUT, 0));
        assert_eq!(commit.transferred_in(IN, 1), None);
    }

    /// Sends a word on `out` and accepts on `in`: drives every wire it owns.
    struct Emit;
    impl Emit {
        fn react_on(&self, p: &mut impl ReactPorts) -> Result<(), SimError> {
            p.send(OUT, 0, Value::Word(1))?;
            p.set_ack(IN, 0, true)
        }
        fn commit_on(&mut self, _: &mut impl CommitPorts) -> Result<(), SimError> {
            Ok(())
        }
    }
    impl Module for Emit {
        crate::port_generic_handlers!();
        fn specialize(&self) -> Option<KernelHint> {
            Some(KernelHint::Lanes)
        }
    }

    /// Offers lanes but never drives the ack of its input.
    struct Mute;
    impl Mute {
        fn react_on(&self, _: &mut impl ReactPorts) -> Result<(), SimError> {
            Ok(())
        }
        fn commit_on(&mut self, _: &mut impl CommitPorts) -> Result<(), SimError> {
            Ok(())
        }
    }
    impl Module for Mute {
        crate::port_generic_handlers!();
        fn specialize(&self) -> Option<KernelHint> {
            Some(KernelHint::Lanes)
        }
    }

    #[test]
    fn a_lane_left_unresolved_is_a_contract_error() {
        let sim = |specialize: bool| {
            let mut b = NetlistBuilder::new();
            let spec = |t: &str| ModuleSpec::new(t).input("in", 0, 1).output("out", 0, 1);
            let e = b.add("emit", spec("emit"), Box::new(Emit)).unwrap();
            let m = b.add("mute", spec("mute"), Box::new(Mute)).unwrap();
            b.connect(e, "out", m, "in").unwrap();
            let mut sim =
                crate::exec::Simulator::new(b.build().unwrap(), crate::exec::SchedKind::Compiled);
            sim.set_specialization(specialize);
            sim
        };
        // On the store, the default phase resolves the ack the mute
        // instance left alone (to `Yes`), so the step completes.
        let mut store = sim(false);
        store.run(3).unwrap();
        // On lanes nothing resolves it; the commit sweep names the edge,
        // and every step fails the same way (the lanes were cleared).
        let mut lanes = sim(true);
        assert_eq!(lanes.plan_summary().unwrap().specialized, 2);
        for _ in 0..2 {
            let err = lanes.step().unwrap_err().to_string();
            assert!(
                err.contains("edge 0 (emit -> mute) left unresolved"),
                "{err}"
            );
        }
    }
}
