//! On-CPU time of the calling thread, and the host's speed.
//!
//! The benchmark runs on a few cores of a shared virtual host. There the
//! hypervisor takes a core away now and then (steal time) and other
//! processes preempt the benchmark, so wall time swings with the
//! neighbours' load. The thread's CPU clock counts only the time the
//! thread itself ran (the kernel keeps steal out of it), so every time
//! metric reads it.
//!
//! CPU time still swings when a neighbour shares the physical core or its
//! caches: every instruction gets slower, for minutes at a time. The
//! [`reference_s`] loop, timed before each execution, measures that speed,
//! and the end-to-end figures are scaled by it (see `README.md`).

/// Seconds the calling thread has run on a CPU.
#[cfg(target_os = "linux")]
pub fn thread_cpu_s() -> f64 {
    use std::os::raw::{c_int, c_long};

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec and the clock id is one
    // Linux defines; the call writes `ts` and nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Elsewhere the benchmark falls back to wall time since the first call.
#[cfg(not(target_os = "linux"))]
pub fn thread_cpu_s() -> f64 {
    use std::sync::OnceLock;
    use std::time::Instant;

    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// CPU seconds [`reference_s`] takes on an unloaded host: about its median
/// on the 2-core x86_64 VM the benchmark was tuned on, while that host was
/// quiet. Scaled figures read as seconds on such a host.
pub const REFERENCE_NOMINAL_S: f64 = 3.3e-3;

/// Words in the reference loop's table: 1 MiB, past the first-level caches
/// and within the second level on common server cores.
const REFERENCE_WORDS: usize = 1 << 18;

thread_local! {
    static REFERENCE_TABLE: std::cell::RefCell<Vec<u32>> =
        std::cell::RefCell::new(vec![0; REFERENCE_WORDS]);
}

/// Runs a fixed loop of the benchmark's own (xorshift draws, random reads
/// and writes over a 1 MiB table, so both the core and its caches count)
/// and returns the CPU seconds it took on this thread. It runs the same
/// instructions every time and shares no code with the library, so only
/// the host's speed moves it.
pub fn reference_s() -> f64 {
    REFERENCE_TABLE.with(|t| {
        let mut table = t.borrow_mut();
        let mask = REFERENCE_WORDS - 1;
        let c0 = thread_cpu_s();
        let mut x: u32 = 0x2545_f491;
        let mut acc: u64 = 0;
        for _ in 0..1 << 20 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let i = x as usize & mask;
            table[i] = table[i].wrapping_add(x);
            acc = acc.wrapping_add(u64::from(table[i.wrapping_mul(31) & mask]));
        }
        std::hint::black_box(acc);
        thread_cpu_s() - c0
    })
}

#[cfg(test)]
mod tests {
    use super::{reference_s, thread_cpu_s};

    #[test]
    fn reference_takes_time() {
        assert!(reference_s() > 0.0);
    }

    #[test]
    fn advances_with_work() {
        let t0 = thread_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_cpu_s() > t0, "{x}");
    }
}
