//! Processor time, as the kernel accounts it.
//!
//! On a shared host a run's wall-clock figures move with how much of the
//! host the other tenants take (the guest's `steal` time): the same code
//! can serve a request in 0.5 ms in one minute and 5 ms in the next. The
//! processor time of a process counts only the time it actually ran, so it
//! is what the benchmark's cost metrics divide.

use std::time::Duration;

/// Processor time (user and system) of this process so far.
pub fn own() -> Duration {
    #[repr(C)]
    struct Timespec {
        seconds: i64,
        nanos: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut time = Timespec {
        seconds: 0,
        nanos: 0,
    };
    // SAFETY: `time` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // the clock id is a valid constant, so the call only writes that value.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "the process clock is always readable");
    Duration::new(time.seconds as u64, time.nanos as u32)
}

/// Processor time (user and system, every thread, live or ended) of the
/// process `pid`, from `/proc/<pid>/stat`, or `None` when it cannot be read.
pub fn of(pid: u32) -> Option<Duration> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    ticks(&stat).map(|ticks| Duration::from_secs_f64(ticks as f64 / ticks_per_second()))
}

/// `utime + stime` of a `/proc/<pid>/stat` line. The command name (field
/// 2) may hold spaces, so the fields are counted from its closing `)`.
fn ticks(stat: &str) -> Option<u64> {
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    // After the name: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

fn ticks_per_second() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: `sysconf` only reads a configuration value.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_name() {
        let line = "42 (a b) c) S 1 42 42 0 -1 4194560 100 0 0 0 250 31 0 0 20 0 3 0 9 0 0";
        assert_eq!(ticks(line), Some(281));
        assert_eq!(ticks("garbage"), None);
    }

    #[test]
    fn own_time_grows_with_work() {
        let before = own();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(own() > before);
        assert!(of(std::process::id()).is_some());
    }
}
