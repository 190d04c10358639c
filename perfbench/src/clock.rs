//! CPU-time clocks, for the parts of the benchmark that run on one thread or
//! one process of their own.
//!
//! On a shared virtual machine the wall time around a piece of work also
//! counts the spells in which the host runs someone else on this CPU (steal
//! time), and those come and go with the host's load over minutes. The
//! kernel leaves stolen time out of a thread's and a process's CPU clock, so
//! a CPU clock follows the work, and a wall clock the host's load.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec that the call only fills in.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "CPU-time clock {clock} is readable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of the whole process so far, in ns, exited threads included.
pub fn process_ns() -> u64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread so far, in ns.
pub fn thread_ns() -> u64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p, t) = (process_ns(), thread_ns());
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_ns() > t && process_ns() > p, "{x}");
    }
}
