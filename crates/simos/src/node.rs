//! Nodes, processes, and the `OsModel` service tying CPU and memory
//! accounting together.

use crate::cpu::CpuServer;
use crate::memory::{Bytes, OomError, ProcessMemory};
use simcore::{SimDuration, SimTime};
use std::fmt;

/// Identifies a node (machine) in the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u16);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Identifies a process (JVM) on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcessId {
    /// Hosting node.
    pub node: NodeId,
    /// Index within the node's process table.
    pub ix: u16,
}

/// Static description of a node.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Human-readable name (e.g. "hydra1").
    pub name: String,
    /// Physical RAM.
    pub ram: Bytes,
    /// RAM reserved for the OS and page cache (unavailable to processes).
    pub os_reserved: Bytes,
    /// Per-runnable-thread CPU cost inflation (see [`CpuServer`]).
    pub cs_coeff: f64,
    /// Per-runnable-thread scheduler dispatch latency (see [`CpuServer`]).
    pub sched_latency: simcore::SimDuration,
    /// Baseline runnable threads (OS daemons etc.).
    pub baseline_threads: u32,
}

impl NodeSpec {
    /// The paper's Hydra node: Pentium III 866 MHz, 2 GB RAM.
    pub fn hydra(name: impl Into<String>, cs_coeff: f64) -> Self {
        NodeSpec {
            name: name.into(),
            ram: Bytes::mib(2048),
            os_reserved: Bytes::mib(256),
            cs_coeff,
            sched_latency: simcore::SimDuration::ZERO,
            baseline_threads: 20,
        }
    }

    /// Builder: set the scheduler dispatch latency per runnable thread.
    pub fn with_sched_latency(mut self, per_thread: simcore::SimDuration) -> Self {
        self.sched_latency = per_thread;
        self
    }
}

/// Runtime state of one node.
pub struct Node {
    /// Static spec.
    pub spec: NodeSpec,
    /// The node's single core.
    pub cpu: CpuServer,
    procs: Vec<ProcessMemory>,
    /// Unallocated physical memory available to new processes.
    free_ram: u64,
    /// End of the current fault-injected slowdown window (none when in
    /// the past).
    slow_until: SimTime,
    /// CPU cost multiplier while `slow_until` is in the future.
    slow_factor: f64,
}

impl Node {
    fn new(spec: NodeSpec) -> Self {
        let free = spec.ram.0 - spec.os_reserved.0;
        let mut cpu = CpuServer::new(spec.cs_coeff, spec.baseline_threads);
        cpu.set_sched_latency(spec.sched_latency);
        Node {
            spec,
            cpu,
            procs: Vec::new(),
            free_ram: free,
            slow_until: SimTime::ZERO,
            slow_factor: 1.0,
        }
    }

    /// Total resident memory of all processes on this node.
    pub fn resident(&self) -> Bytes {
        Bytes(self.procs.iter().map(|p| p.resident().0).sum())
    }

    /// Total "memory consumption" (paper metric) of all processes.
    pub fn consumption(&self) -> Bytes {
        Bytes(self.procs.iter().map(|p| p.consumption().0).sum())
    }
}

/// Description of a process to launch.
#[derive(Debug, Clone)]
pub struct ProcessSpec {
    /// `-Xmx`-style heap cap.
    pub heap_cap: Bytes,
    /// Per-thread stack reservation.
    pub stack_size: Bytes,
    /// Idle resident footprint.
    pub baseline: Bytes,
}

impl ProcessSpec {
    /// A JVM configured like the paper's middleware processes:
    /// `-Xmx1024m`, 256 KiB stacks, ~48 MiB idle footprint.
    pub fn jvm_1g() -> Self {
        ProcessSpec {
            heap_cap: Bytes::mib(1024),
            stack_size: Bytes::kib(256),
            baseline: Bytes::mib(48),
        }
    }
}

/// The cluster-wide OS resource model, registered as a kernel service.
#[derive(Default)]
pub struct OsModel {
    nodes: Vec<Node>,
}

impl OsModel {
    /// Empty cluster.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node.
    pub fn add_node(&mut self, spec: NodeSpec) -> NodeId {
        let id = NodeId(self.nodes.len() as u16);
        self.nodes.push(Node::new(spec));
        id
    }

    /// Launch a process on a node. The process gets its heap cap reserved
    /// against physical RAM; the remainder of free RAM becomes its native
    /// pool (shared-nothing approximation).
    pub fn add_process(&mut self, node: NodeId, spec: ProcessSpec) -> ProcessId {
        let n = &mut self.nodes[node.0 as usize];
        // Native pool: what's physically left once the heap cap is carved
        // out. (If heap cap exceeds free RAM the JVM would fail to start;
        // model that as a tiny native pool.)
        let native = n.free_ram.saturating_sub(spec.heap_cap.0);
        n.free_ram = n.free_ram.saturating_sub(spec.heap_cap.0 + spec.baseline.0);
        let pm = ProcessMemory::new(spec.heap_cap, Bytes(native), spec.stack_size, spec.baseline);
        let ix = n.procs.len() as u16;
        n.procs.push(pm);
        ProcessId { node, ix }
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Borrow a process's memory accounting.
    pub fn mem(&self, pid: ProcessId) -> &ProcessMemory {
        &self.nodes[pid.node.0 as usize].procs[pid.ix as usize]
    }

    /// Borrow a process's memory accounting mutably.
    pub fn mem_mut(&mut self, pid: ProcessId) -> &mut ProcessMemory {
        &mut self.nodes[pid.node.0 as usize].procs[pid.ix as usize]
    }

    /// Run `cost` on a node's CPU; returns the completion time and the
    /// *effective* cost the CPU accepted. While a fault-injected slowdown
    /// window is open the cost is scaled by the node's slowdown factor;
    /// the effective cost (after slowdown and thread inflation) is what a
    /// profiling site must charge so attribution conserves exactly
    /// against [`OsModel::total_submitted_work`]. Its callers time it as
    /// the `os.execute` wall-clock site (`simcore::Site::OsExecute`).
    pub fn execute_metered(
        &mut self,
        node: NodeId,
        now: SimTime,
        cost: SimDuration,
    ) -> (SimTime, SimDuration) {
        let n = &mut self.nodes[node.0 as usize];
        let cost = if now < n.slow_until {
            cost.mul_f64(n.slow_factor)
        } else {
            cost
        };
        let before = n.cpu.total_work();
        let done = n.cpu.execute(now, cost);
        (done, n.cpu.total_work().saturating_sub(before))
    }

    /// Total effective CPU work ever submitted across all nodes — the
    /// kernel's total simulated busy time (work still queued at the end
    /// of a run counts: it was submitted and will be executed).
    pub fn total_submitted_work(&self) -> SimDuration {
        self.nodes
            .iter()
            .fold(SimDuration::ZERO, |acc, n| acc + n.cpu.total_work())
    }

    /// Open a CPU slowdown window on `node`: costs are multiplied by
    /// `factor` until `until`. Unknown nodes are ignored (fault schedules
    /// may name nodes an experiment does not deploy).
    pub fn set_slowdown(&mut self, node: NodeId, until: SimTime, factor: f64) {
        if let Some(n) = self.nodes.get_mut(node.0 as usize) {
            n.slow_until = until;
            n.slow_factor = factor;
        }
    }

    /// Spawn a thread in `pid`: reserves a stack and registers a runnable
    /// thread with the node's CPU. The typed error is how middlewares learn
    /// they must refuse a connection.
    pub fn spawn_thread(&mut self, pid: ProcessId) -> Result<(), OomError> {
        let n = &mut self.nodes[pid.node.0 as usize];
        n.procs[pid.ix as usize].spawn_thread()?;
        n.cpu.add_threads(1);
        Ok(())
    }

    /// Kill a thread in `pid`.
    pub fn kill_thread(&mut self, pid: ProcessId) {
        let n = &mut self.nodes[pid.node.0 as usize];
        n.procs[pid.ix as usize].kill_thread();
        n.cpu.remove_threads(1);
    }

    /// Allocate heap in `pid`.
    pub fn alloc(&mut self, pid: ProcessId, bytes: Bytes) -> Result<(), OomError> {
        self.mem_mut(pid).alloc(bytes)
    }

    /// Free heap in `pid`.
    pub fn free(&mut self, pid: ProcessId, bytes: Bytes) {
        self.mem_mut(pid).free(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hydra_spec_defaults() {
        let spec = NodeSpec::hydra("hydra1", 0.001);
        assert_eq!(spec.ram, Bytes::mib(2048));
        assert_eq!(spec.baseline_threads, 20);
    }

    #[test]
    fn process_native_pool_is_leftover_ram() {
        let mut os = OsModel::new();
        let n = os.add_node(NodeSpec::hydra("hydra1", 0.0));
        let pid = os.add_process(n, ProcessSpec::jvm_1g());
        // 2048 - 256 (OS) - 1024 (heap cap) = 768 MiB native; / 256 KiB = 3072 threads.
        assert_eq!(os.mem(pid).thread_headroom(), 3072);
    }

    #[test]
    fn spawn_thread_updates_cpu_and_memory() {
        let mut os = OsModel::new();
        let n = os.add_node(NodeSpec::hydra("hydra1", 0.001));
        let pid = os.add_process(n, ProcessSpec::jvm_1g());
        let t0 = os.node(n).cpu.threads();
        for _ in 0..10 {
            os.spawn_thread(pid).unwrap();
        }
        assert_eq!(os.node(n).cpu.threads(), t0 + 10);
        assert_eq!(os.mem(pid).threads(), 10);
        os.kill_thread(pid);
        assert_eq!(os.node(n).cpu.threads(), t0 + 9);
    }

    #[test]
    fn thread_oom_surfaces() {
        let mut os = OsModel::new();
        let n = os.add_node(NodeSpec::hydra("hydra1", 0.0));
        let pid = os.add_process(n, ProcessSpec::jvm_1g());
        let headroom = os.mem(pid).thread_headroom();
        for _ in 0..headroom {
            os.spawn_thread(pid).unwrap();
        }
        assert!(os.spawn_thread(pid).is_err());
    }

    #[test]
    fn execute_delegates_to_cpu() {
        let mut os = OsModel::new();
        let n = os.add_node(NodeSpec::hydra("hydra1", 0.0));
        let (done, _) = os.execute_metered(n, SimTime::from_millis(1), SimDuration::from_millis(2));
        assert_eq!(done, SimTime::from_millis(3));
    }

    #[test]
    fn node_resident_sums_processes() {
        let mut os = OsModel::new();
        let n = os.add_node(NodeSpec::hydra("hydra1", 0.0));
        let client = ProcessSpec {
            heap_cap: Bytes::mib(512),
            stack_size: Bytes::kib(256),
            baseline: Bytes::mib(24),
        };
        let a = os.add_process(n, client.clone());
        let b = os.add_process(n, client);
        os.alloc(a, Bytes::mib(10)).unwrap();
        os.alloc(b, Bytes::mib(20)).unwrap();
        assert_eq!(os.node(n).resident(), Bytes::mib(24 + 24 + 30));
    }
}
