//! Host CPU counters: user-mode cycles and retired instructions of the
//! benchmark's own threads, read through `perf_event_open(2)`.
//!
//! Wall-clock time on a shared host drifts with the load other tenants
//! put on it; retired instructions do not, and cycles at least do not
//! move with the clock frequency. The benchmark gates on the instruction
//! count and prints cycles and wall-clock time beside it.

use std::fs::File;
use std::io::{self, Read};
use std::os::fd::FromRawFd;
use std::os::raw::{c_int, c_long, c_ulong};

#[cfg(target_arch = "x86_64")]
const SYS_PERF_EVENT_OPEN: c_long = 298;
#[cfg(target_arch = "aarch64")]
const SYS_PERF_EVENT_OPEN: c_long = 241;

const PERF_TYPE_HARDWARE: u32 = 0;
const FLAG_INHERIT: u64 = 1 << 1;
const FLAG_EXCLUDE_KERNEL: u64 = 1 << 5;
const FLAG_EXCLUDE_HV: u64 = 1 << 6;

extern "C" {
    fn syscall(num: c_long, ...) -> c_long;
}

/// The first published layout of `struct perf_event_attr`
/// (`PERF_ATTR_SIZE_VER0`, 64 bytes); the kernel zero-extends it.
#[repr(C)]
struct PerfEventAttr {
    kind: u32,
    size: u32,
    config: u64,
    sample_period: u64,
    sample_type: u64,
    read_format: u64,
    flags: u64,
    wakeup_events: u32,
    bp_type: u32,
    config1: u64,
}

/// What a [`Counter`] counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// `PERF_COUNT_HW_CPU_CYCLES`.
    Cycles,
    /// `PERF_COUNT_HW_INSTRUCTIONS`.
    Instructions,
}

/// Which threads a [`Counter`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// The calling thread only.
    Thread,
    /// The calling thread and every thread it starts afterwards.
    Process,
}

/// An open user-mode hardware counter.
#[derive(Debug)]
pub struct Counter {
    file: File,
}

impl Counter {
    /// Start counting `event` for `scope`, user mode only.
    pub fn open(event: Event, scope: Scope) -> io::Result<Counter> {
        let inherit = match scope {
            Scope::Thread => 0,
            Scope::Process => FLAG_INHERIT,
        };
        let attr = PerfEventAttr {
            kind: PERF_TYPE_HARDWARE,
            size: std::mem::size_of::<PerfEventAttr>() as u32,
            config: match event {
                Event::Cycles => 0,
                Event::Instructions => 1,
            },
            sample_period: 0,
            sample_type: 0,
            read_format: 0,
            flags: inherit | FLAG_EXCLUDE_KERNEL | FLAG_EXCLUDE_HV,
            wakeup_events: 0,
            bp_type: 0,
            config1: 0,
        };
        // SAFETY: perf_event_open(attr, pid = 0 (this thread), cpu = -1
        // (any), group_fd = -1, flags = 0) only reads `attr`, which is a
        // live, fully initialised VER0 layout whose `size` field matches.
        let fd = unsafe {
            syscall(
                SYS_PERF_EVENT_OPEN,
                &attr as *const PerfEventAttr,
                0 as c_int,
                -1 as c_int,
                -1 as c_int,
                0 as c_ulong,
            )
        };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let fd = c_int::try_from(fd).expect("file descriptors fit in c_int");
        // SAFETY: `fd` was just returned by the kernel and nothing else
        // owns it; the `File` closes it when dropped.
        let file = unsafe { File::from_raw_fd(fd) };
        Ok(Counter { file })
    }

    /// The count so far.
    pub fn read(&self) -> io::Result<u64> {
        let mut buf = [0u8; 8];
        (&self.file).read_exact(&mut buf)?;
        Ok(u64::from_ne_bytes(buf))
    }
}

/// Cycles and instructions, counted together.
#[derive(Debug)]
pub struct Counters {
    cycles: Counter,
    insts: Counter,
}

/// A reading of [`Counters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sample {
    /// Host CPU cycles.
    pub cycles: u64,
    /// Host instructions retired.
    pub insts: u64,
}

impl Sample {
    /// The counts accrued from `earlier` to `self`.
    pub fn since(self, earlier: Sample) -> Sample {
        Sample {
            cycles: self.cycles - earlier.cycles,
            insts: self.insts - earlier.insts,
        }
    }
}

impl Counters {
    /// Open both counters for `scope`.
    pub fn open(scope: Scope) -> io::Result<Counters> {
        Ok(Counters {
            cycles: Counter::open(Event::Cycles, scope)?,
            insts: Counter::open(Event::Instructions, scope)?,
        })
    }

    /// Read both counters.
    pub fn sample(&self) -> io::Result<Sample> {
        Ok(Sample {
            cycles: self.cycles.read()?,
            insts: self.insts.read()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_grow_with_work() {
        let c = Counters::open(Scope::Thread).expect("hardware counters");
        let a = c.sample().unwrap();
        let mut x = 0u64;
        for i in 0..1_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let b = c.sample().unwrap();
        let d = b.since(a);
        assert!(d.insts >= 1_000_000, "{d:?}");
        assert!(d.cycles > 0, "{d:?}");
    }

    #[test]
    fn process_scope_includes_threads_started_later() {
        let c = Counters::open(Scope::Process).expect("hardware counters");
        let a = c.sample().unwrap();
        std::thread::spawn(|| {
            let mut x = 0u64;
            for i in 0..2_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
        })
        .join()
        .unwrap();
        let d = c.sample().unwrap().since(a);
        assert!(d.insts >= 2_000_000, "{d:?}");
    }
}
