//! Single-core CPU model with FIFO queueing and thread-count overhead.
//!
//! Each Hydra node has one Pentium III core. We model it as a
//! work-conserving FIFO server: an operation submitted at `now` with cost
//! `c` completes at `max(now, busy_until) + c'`, where `c'` is `c` inflated
//! by a context-switching factor that grows with the number of runnable
//! threads on the node. This is the mechanism behind the paper's smooth
//! RTT-vs-connections growth (fig 7) and the CPU-idle curves (fig 6, 13):
//! thousands of thread-per-connection Java threads on a 2001-era CPU made
//! every operation slower.
//!
//! Utilization accounting exploits the work-conserving FIFO property:
//! busy time in `[0, t]` equals `total submitted work − backlog remaining
//! at t`, so we never need to store individual busy intervals.

use simcore::{SimDuration, SimTime};

/// A single-core FIFO CPU.
#[derive(Debug, Clone)]
pub struct CpuServer {
    /// Instant until which already-accepted work occupies the core.
    busy_until: SimTime,
    /// Sum of all effective (inflated) costs ever accepted.
    total_work: SimDuration,
    /// Per-runnable-thread cost inflation coefficient.
    cs_coeff: f64,
    /// Number of runnable threads currently hosted on this node.
    threads: u32,
    /// Threads exempt from inflation (e.g. the baseline OS threads).
    baseline_threads: u32,
    /// Scheduler dispatch latency added per runnable thread: time a
    /// runnable job waits while the scheduler cycles through other
    /// threads. Pure latency — it does not occupy the core.
    sched_latency_per_thread: SimDuration,
}

impl CpuServer {
    /// New idle CPU. `cs_coeff` is the fractional slowdown added per
    /// runnable thread beyond the baseline (e.g. `0.0015` = +0.15 % cost
    /// per thread).
    pub fn new(cs_coeff: f64, baseline_threads: u32) -> Self {
        CpuServer {
            busy_until: SimTime::ZERO,
            total_work: SimDuration::ZERO,
            cs_coeff,
            threads: baseline_threads,
            baseline_threads,
            sched_latency_per_thread: SimDuration::ZERO,
        }
    }

    /// Set the per-thread scheduler dispatch latency (see field docs).
    pub fn set_sched_latency(&mut self, per_thread: SimDuration) {
        self.sched_latency_per_thread = per_thread;
    }

    /// Register `n` additional runnable threads.
    pub fn add_threads(&mut self, n: u32) {
        self.threads += n;
    }

    /// Deregister `n` runnable threads (saturating at the baseline).
    pub fn remove_threads(&mut self, n: u32) {
        self.threads = self.threads.saturating_sub(n).max(self.baseline_threads);
    }

    /// Current runnable thread count (including baseline).
    pub fn threads(&self) -> u32 {
        self.threads
    }

    /// The inflation factor applied to job costs right now.
    pub fn inflation(&self) -> f64 {
        1.0 + self.cs_coeff * f64::from(self.threads.saturating_sub(self.baseline_threads))
    }

    /// Submit a job of base cost `cost` at time `now`; returns its
    /// completion time. The core is occupied for the (inflated) cost; on
    /// top of that the caller observes the scheduler dispatch latency
    /// (runnable threads × per-thread latency), which delays completion
    /// without occupying the core — the dominant effect behind the
    /// paper's RTT growth with connection count (fig 7).
    pub fn execute(&mut self, now: SimTime, cost: SimDuration) -> SimTime {
        let effective = cost.mul_f64(self.inflation());
        let start = now.max(self.busy_until);
        let busy_done = start + effective;
        self.busy_until = busy_done;
        self.total_work += effective;
        let extra_threads = u64::from(self.threads.saturating_sub(self.baseline_threads));
        busy_done + self.sched_latency_per_thread.saturating_mul(extra_threads)
    }

    /// Work remaining in the queue as of `now`.
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.busy_until.saturating_since(now)
    }

    /// Total busy microseconds in `[0, now]`.
    ///
    /// Exact for this work-conserving FIFO model **provided `now` is not
    /// earlier than the latest `execute` submission** (queries about the
    /// past made after later submissions would misattribute the new work).
    /// The vmstat sampler always queries at the current simulation time, so
    /// the invariant holds by construction.
    pub fn busy_integral(&self, now: SimTime) -> SimDuration {
        self.total_work.saturating_sub(self.backlog(now))
    }

    /// Sum of all effective (inflated) costs ever accepted — the
    /// profiler's conservation target: every microsecond in here must
    /// be attributed to exactly one component.
    pub fn total_work(&self) -> SimDuration {
        self.total_work
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }
    fn at(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    #[test]
    fn idle_cpu_runs_immediately() {
        let mut cpu = CpuServer::new(0.0, 0);
        assert_eq!(cpu.execute(at(10), ms(5)), at(15));
    }

    #[test]
    fn fifo_queueing() {
        let mut cpu = CpuServer::new(0.0, 0);
        assert_eq!(cpu.execute(at(0), ms(10)), at(10));
        // Second job submitted at t=2 waits for the first.
        assert_eq!(cpu.execute(at(2), ms(5)), at(15));
        // Third submitted after the queue drained.
        assert_eq!(cpu.execute(at(100), ms(1)), at(101));
    }

    #[test]
    fn thread_inflation() {
        let mut cpu = CpuServer::new(0.01, 2);
        assert!((cpu.inflation() - 1.0).abs() < 1e-12);
        cpu.add_threads(100);
        assert!((cpu.inflation() - 2.0).abs() < 1e-12);
        let done = cpu.execute(at(0), ms(10));
        assert_eq!(done, at(20));
        cpu.remove_threads(100);
        assert!((cpu.inflation() - 1.0).abs() < 1e-12);
        cpu.remove_threads(1000);
        assert_eq!(cpu.threads(), 2, "never drops below baseline");
    }

    #[test]
    fn busy_integral_exact_when_queried_chronologically() {
        let mut cpu = CpuServer::new(0.0, 0);
        cpu.execute(at(0), ms(10)); // busy 0..10
        assert_eq!(cpu.busy_integral(at(10)), ms(10));
        assert_eq!(cpu.busy_integral(at(15)), ms(10)); // idle gap
        cpu.execute(at(20), ms(5)); // busy 20..25
        assert_eq!(cpu.busy_integral(at(22)), ms(12));
        assert_eq!(cpu.busy_integral(at(30)), ms(15));
    }

    #[test]
    fn busy_integral_mid_job() {
        let mut cpu = CpuServer::new(0.0, 0);
        cpu.execute(at(0), ms(100));
        assert_eq!(cpu.busy_integral(at(40)), ms(40));
        assert_eq!(cpu.backlog(at(40)), ms(60));
    }
}
