//! Process memory model: JVM-style heap cap plus native memory for thread
//! stacks.
//!
//! The paper's scalability limits are memory artifacts: a single Narada
//! broker "ran out of memory to create new threads" near 4000 connections,
//! and one R-GMA server near 800. Both middlewares used thread-per-
//! connection JVMs with `-Xmx1024m` on 2 GB nodes, so the binding
//! constraint is *native* memory (thread stacks) on top of the reserved
//! heap. We model both pools explicitly and surface allocation failures as
//! typed errors that the middlewares convert into connection refusals.

use std::fmt;

/// Bytes, as a plain u64 newtype for readability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Bytes(pub u64);

impl Bytes {
    /// Kibibytes.
    pub const fn kib(n: u64) -> Bytes {
        Bytes(n * 1024)
    }
    /// Mebibytes.
    pub const fn mib(n: u64) -> Bytes {
        Bytes(n * 1024 * 1024)
    }
    /// As mebibytes (fractional).
    pub fn as_mib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1024 * 1024 {
            write!(f, "{:.1}MiB", self.as_mib_f64())
        } else if self.0 >= 1024 {
            write!(f, "{:.1}KiB", self.0 as f64 / 1024.0)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

/// Why an allocation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OomKind {
    /// Java heap exhausted (`-Xmx` reached).
    Heap,
    /// Native memory exhausted (cannot create new thread).
    Native,
}

/// Allocation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OomError {
    /// Which pool ran out.
    pub kind: OomKind,
    /// Requested bytes.
    pub requested: Bytes,
    /// Bytes available in that pool at the time.
    pub available: Bytes,
}

impl fmt::Display for OomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of {} memory: requested {}, available {}",
            match self.kind {
                OomKind::Heap => "heap",
                OomKind::Native => "native",
            },
            self.requested,
            self.available
        )
    }
}

impl std::error::Error for OomError {}

/// Memory accounting for one simulated process (a "JVM").
#[derive(Debug, Clone)]
pub struct ProcessMemory {
    heap_used: u64,
    heap_cap: u64,
    native_used: u64,
    native_cap: u64,
    stack_size: u64,
    /// Resident (touched) bytes per thread stack; reservations are mostly
    /// virtual on Linux, so `vmstat` sees only this fraction.
    stack_resident: u64,
    threads: u32,
    /// High-water marks, for the paper's "peak minus bottom" metric.
    heap_peak: u64,
    baseline: u64,
}

impl ProcessMemory {
    /// New process. `heap_cap` models `-Xmx`; `native_cap` is what is left
    /// of physical memory for thread stacks and JVM internals;
    /// `stack_size` is the per-thread stack reservation; `baseline` is the
    /// resident footprint of the idle process.
    pub fn new(heap_cap: Bytes, native_cap: Bytes, stack_size: Bytes, baseline: Bytes) -> Self {
        ProcessMemory {
            heap_used: baseline.0,
            heap_cap: heap_cap.0,
            native_used: 0,
            native_cap: native_cap.0,
            stack_size: stack_size.0,
            stack_resident: Bytes::kib(8).0.min(stack_size.0),
            threads: 0,
            heap_peak: baseline.0,
            baseline: baseline.0,
        }
    }

    /// Allocate heap bytes.
    pub fn alloc(&mut self, n: Bytes) -> Result<(), OomError> {
        if self.heap_used + n.0 > self.heap_cap {
            return Err(OomError {
                kind: OomKind::Heap,
                requested: n,
                available: Bytes(self.heap_cap - self.heap_used),
            });
        }
        self.heap_used += n.0;
        self.heap_peak = self.heap_peak.max(self.heap_used);
        Ok(())
    }

    /// Free heap bytes (saturating at the baseline footprint).
    pub fn free(&mut self, n: Bytes) {
        self.heap_used = self.heap_used.saturating_sub(n.0).max(self.baseline);
    }

    /// Create a thread: reserves one stack from native memory.
    pub fn spawn_thread(&mut self) -> Result<(), OomError> {
        if self.native_used + self.stack_size > self.native_cap {
            return Err(OomError {
                kind: OomKind::Native,
                requested: Bytes(self.stack_size),
                available: Bytes(self.native_cap - self.native_used),
            });
        }
        self.native_used += self.stack_size;
        self.threads += 1;
        Ok(())
    }

    /// Destroy a thread, releasing its stack.
    pub fn kill_thread(&mut self) {
        if self.threads > 0 {
            self.threads -= 1;
            self.native_used = self.native_used.saturating_sub(self.stack_size);
        }
    }

    /// Live threads created through this accounting.
    pub fn threads(&self) -> u32 {
        self.threads
    }

    /// Current total resident footprint: heap plus the *touched* part of
    /// thread stacks (reservations are virtual; `vmstat` never sees them).
    pub fn resident(&self) -> Bytes {
        Bytes(self.heap_used + u64::from(self.threads) * self.stack_resident)
    }

    /// Current heap usage.
    pub fn heap_used(&self) -> Bytes {
        Bytes(self.heap_used)
    }

    /// The paper's "memory consumption": peak heap minus idle baseline,
    /// plus resident stack pages.
    pub fn consumption(&self) -> Bytes {
        Bytes(self.heap_peak - self.baseline + u64::from(self.threads) * self.stack_resident)
    }

    /// How many more threads could be created before native OOM.
    pub fn thread_headroom(&self) -> u32 {
        if self.stack_size == 0 {
            return u32::MAX;
        }
        ((self.native_cap - self.native_used) / self.stack_size) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proc() -> ProcessMemory {
        ProcessMemory::new(
            Bytes::mib(1024),
            Bytes::mib(512),
            Bytes::kib(256),
            Bytes::mib(32),
        )
    }

    #[test]
    fn bytes_display_and_units() {
        assert_eq!(Bytes::kib(2).0, 2048);
        assert_eq!(Bytes::mib(1).0, 1 << 20);
        assert_eq!(format!("{}", Bytes(512)), "512B");
        assert_eq!(format!("{}", Bytes::kib(2)), "2.0KiB");
        assert_eq!(format!("{}", Bytes::mib(3)), "3.0MiB");
    }

    #[test]
    fn heap_alloc_free_and_peak() {
        let mut m = proc();
        m.alloc(Bytes::mib(100)).unwrap();
        assert_eq!(m.heap_used(), Bytes::mib(132));
        m.free(Bytes::mib(50));
        assert_eq!(m.heap_used(), Bytes::mib(82));
        // Free below baseline clamps.
        m.free(Bytes::mib(1000));
        assert_eq!(m.heap_used(), Bytes::mib(32));
    }

    #[test]
    fn heap_oom() {
        let mut m = proc();
        let err = m.alloc(Bytes::mib(2000)).unwrap_err();
        assert_eq!(err.kind, OomKind::Heap);
        assert!(err.to_string().contains("heap"));
    }

    #[test]
    fn thread_stacks_hit_native_oom() {
        let mut m = proc();
        // 512 MiB native / 256 KiB stacks = 2048 threads.
        assert_eq!(m.thread_headroom(), 2048);
        for _ in 0..2048 {
            m.spawn_thread().unwrap();
        }
        let err = m.spawn_thread().unwrap_err();
        assert_eq!(err.kind, OomKind::Native);
        assert_eq!(m.threads(), 2048);
        m.kill_thread();
        assert!(m.spawn_thread().is_ok());
    }

    #[test]
    fn consumption_counts_peak_delta_plus_stacks() {
        let mut m = proc();
        m.alloc(Bytes::mib(64)).unwrap();
        m.spawn_thread().unwrap();
        // 64 MiB heap delta + 8 KiB resident stack (reservation is virtual).
        assert_eq!(m.consumption(), Bytes(64 * 1024 * 1024 + 8 * 1024));
        m.free(Bytes::mib(64));
        // Peak is sticky.
        assert_eq!(m.consumption(), Bytes(64 * 1024 * 1024 + 8 * 1024));
    }

    #[test]
    fn resident_tracks_both_pools() {
        let mut m = proc();
        m.spawn_thread().unwrap();
        assert_eq!(m.resident(), Bytes(32 * 1024 * 1024 + 8 * 1024));
    }
}
